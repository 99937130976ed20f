//! Design-space exploration (DSE) by simulation.
//!
//! The stash paper evaluates one hardware point (Table 2); this module
//! describes the space around it. The exploration is three steps:
//!
//! 1. A [`Space`] enumerates the cartesian design space (mesh geometry,
//!    NoC latencies, LLC banking/interleave, stash-map size, latency
//!    and energy constants). Point `i` decodes mixed-radix, and
//!    [`Space::index_of`] inverts the decoding.
//! 2. The `dse` bin simulates every point: one `Machine::run` per point,
//!    fanned over the deterministic job pool.
//! 3. [`rank`] sorts the simulated runtimes by `(picos, index)`, and
//!    [`sensitivities`] reads each dimension's response from the same
//!    grid, along the axes through one base point.
//!
//! Every ranked value is a simulator measurement, so the order is exact;
//! there is no cost model to audit.

pub use sim::config::DesignPoint;

/// One dimension of the design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Mesh side length.
    MeshSide,
    /// X-dimension hop round-trip cycles.
    HopX,
    /// Y-dimension hop round-trip cycles.
    HopY,
    /// LLC bank count.
    L2Banks,
    /// LLC interleave granularity (lines per bank step).
    L2Interleave,
    /// Stash map-table entries per CU.
    StashMapEntries,
    /// Base LLC access latency.
    L2Base,
    /// Extra DRAM latency.
    DramExtra,
    /// Remote-forward base latency.
    RemoteBase,
    /// Stash translation latency.
    StashXlat,
    /// Energy-constant scale (percent).
    EnergyScale,
}

impl Dim {
    /// Every dimension, in [`DesignPoint`] field order.
    pub const ALL: [Dim; 11] = [
        Dim::MeshSide,
        Dim::HopX,
        Dim::HopY,
        Dim::L2Banks,
        Dim::L2Interleave,
        Dim::StashMapEntries,
        Dim::L2Base,
        Dim::DramExtra,
        Dim::RemoteBase,
        Dim::StashXlat,
        Dim::EnergyScale,
    ];

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Dim::MeshSide => "mesh-side",
            Dim::HopX => "hop-x",
            Dim::HopY => "hop-y",
            Dim::L2Banks => "l2-banks",
            Dim::L2Interleave => "l2-interleave",
            Dim::StashMapEntries => "stash-map-entries",
            Dim::L2Base => "l2-base",
            Dim::DramExtra => "dram-extra",
            Dim::RemoteBase => "remote-base",
            Dim::StashXlat => "stash-xlat",
            Dim::EnergyScale => "energy-scale",
        }
    }
}

/// How simulated runtime responds to stepping one dimension, holding
/// the others at the base point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sensitivity {
    /// The runtime never changed across the axis values.
    Flat,
    /// The runtime only ever moved one way along the axis.
    Monotone {
        /// Largest single-step delta in picoseconds (signed).
        worst_step: i64,
    },
    /// The runtime moved both ways along the axis.
    NonMonotone {
        /// Largest upward single step (picoseconds).
        max_up: i64,
        /// Largest downward single step (picoseconds).
        max_down: i64,
    },
}

impl Sensitivity {
    /// Classifies one axis of runtimes, given in axis order.
    #[must_use]
    pub fn of_axis(picos: &[u64]) -> Self {
        let steps: Vec<i64> = picos
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        let max_up = steps.iter().copied().max().unwrap_or(0).max(0);
        let max_down = steps.iter().copied().min().unwrap_or(0).min(0);
        if max_up == 0 && max_down == 0 {
            Sensitivity::Flat
        } else if max_up == 0 || max_down == 0 {
            Sensitivity::Monotone {
                worst_step: if max_up != 0 { max_up } else { max_down },
            }
        } else {
            Sensitivity::NonMonotone { max_up, max_down }
        }
    }
}

/// A cartesian design space: the cross product of per-dimension value
/// axes. Point `i` decodes mixed-radix in [`Dim::ALL`] order (mesh side
/// varies slowest), so indices are stable identifiers for a given
/// space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Space {
    /// Mesh side values.
    pub mesh_side: Vec<usize>,
    /// X hop-cost values.
    pub hop_x: Vec<u64>,
    /// Y hop-cost values.
    pub hop_y: Vec<u64>,
    /// LLC bank-count values.
    pub l2_banks: Vec<usize>,
    /// Interleave-granularity values.
    pub l2_interleave: Vec<u64>,
    /// Stash map-entry values.
    pub stash_map_entries: Vec<usize>,
    /// Base L2 latency values.
    pub l2_base: Vec<u64>,
    /// DRAM extra-latency values.
    pub dram_extra: Vec<u64>,
    /// Remote-forward latency values.
    pub remote_base: Vec<u64>,
    /// Stash-translation latency values.
    pub stash_xlat: Vec<u64>,
    /// Energy-scale values.
    pub energy_scale: Vec<u64>,
}

/// Position of `v` on `axis`.
fn axis_pos<T: PartialEq>(axis: &[T], v: &T) -> Option<usize> {
    axis.iter().position(|x| x == v)
}

impl Space {
    /// The default exploration space: 2,592 points spanning mesh
    /// geometry, asymmetric NoC latency, LLC banking and interleave,
    /// stash-map capacity, and L2 service latency around the paper's
    /// point (which is itself a member).
    #[must_use]
    pub fn default_space() -> Self {
        Self {
            mesh_side: vec![2, 3, 4, 5, 6, 8],
            hop_x: vec![3, 5, 8],
            hop_y: vec![5, 8],
            l2_banks: vec![4, 8, 16, 32],
            l2_interleave: vec![1, 4],
            stash_map_entries: vec![16, 64, 128],
            l2_base: vec![20, 29, 44],
            dram_extra: vec![168],
            remote_base: vec![35],
            stash_xlat: vec![10],
            energy_scale: vec![100],
        }
    }

    /// A CI-sized space: 288 points, still spanning every geometric
    /// dimension (the paper's point included).
    #[must_use]
    pub fn smoke_space() -> Self {
        Self {
            mesh_side: vec![2, 4, 6, 8],
            hop_x: vec![3, 5, 8],
            hop_y: vec![5],
            l2_banks: vec![8, 16, 32],
            l2_interleave: vec![1, 4],
            stash_map_entries: vec![16, 64],
            l2_base: vec![29, 44],
            dram_extra: vec![168],
            remote_base: vec![35],
            stash_xlat: vec![10],
            energy_scale: vec![100],
        }
    }

    fn radices(&self) -> [usize; 11] {
        [
            self.mesh_side.len(),
            self.hop_x.len(),
            self.hop_y.len(),
            self.l2_banks.len(),
            self.l2_interleave.len(),
            self.stash_map_entries.len(),
            self.l2_base.len(),
            self.dram_extra.len(),
            self.remote_base.len(),
            self.stash_xlat.len(),
            self.energy_scale.len(),
        ]
    }

    /// Number of values on `dim`'s axis.
    #[must_use]
    pub fn axis_len(&self, dim: Dim) -> usize {
        self.radices()[dim as usize]
    }

    /// Number of points in the space.
    #[must_use]
    pub fn len(&self) -> usize {
        self.radices().iter().product()
    }

    /// Whether any axis is empty (an empty space has no points).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mixed-radix digits of `index`, one axis position per [`Dim`].
    fn digits(&self, index: usize) -> [usize; 11] {
        let mut digits = [0usize; 11];
        let mut rest = index;
        for (d, &r) in digits.iter_mut().zip(self.radices().iter()).rev() {
            *d = rest % r;
            rest /= r;
        }
        digits
    }

    /// The index whose digits are `digits` (inverse of `digits`).
    fn index_of_digits(&self, digits: &[usize; 11]) -> usize {
        digits
            .iter()
            .zip(self.radices())
            .fold(0, |index, (&d, r)| index * r + d)
    }

    /// Decodes point `index` (mixed-radix, [`Dim::ALL`] order, mesh
    /// side slowest).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn point(&self, index: usize) -> DesignPoint {
        assert!(index < self.len(), "point {index} outside space");
        let digits = self.digits(index);
        DesignPoint {
            mesh_side: self.mesh_side[digits[0]],
            hop_x_cycles: self.hop_x[digits[1]],
            hop_y_cycles: self.hop_y[digits[2]],
            l2_banks: self.l2_banks[digits[3]],
            l2_interleave_lines: self.l2_interleave[digits[4]],
            stash_map_entries: self.stash_map_entries[digits[5]],
            l2_base_cycles: self.l2_base[digits[6]],
            dram_extra_cycles: self.dram_extra[digits[7]],
            remote_base_cycles: self.remote_base[digits[8]],
            stash_translation_cycles: self.stash_xlat[digits[9]],
            energy_scale_pct: self.energy_scale[digits[10]],
        }
    }

    /// The index of `p` — the inverse of [`Space::point`] — or `None`
    /// when some coordinate of `p` is not on its axis.
    #[must_use]
    pub fn index_of(&self, p: &DesignPoint) -> Option<usize> {
        let digits = [
            axis_pos(&self.mesh_side, &p.mesh_side)?,
            axis_pos(&self.hop_x, &p.hop_x_cycles)?,
            axis_pos(&self.hop_y, &p.hop_y_cycles)?,
            axis_pos(&self.l2_banks, &p.l2_banks)?,
            axis_pos(&self.l2_interleave, &p.l2_interleave_lines)?,
            axis_pos(&self.stash_map_entries, &p.stash_map_entries)?,
            axis_pos(&self.l2_base, &p.l2_base_cycles)?,
            axis_pos(&self.dram_extra, &p.dram_extra_cycles)?,
            axis_pos(&self.remote_base, &p.remote_base_cycles)?,
            axis_pos(&self.stash_xlat, &p.stash_translation_cycles)?,
            axis_pos(&self.energy_scale, &p.energy_scale_pct)?,
        ];
        Some(self.index_of_digits(&digits))
    }

    /// All points in index order.
    #[must_use]
    pub fn points(&self) -> Vec<DesignPoint> {
        (0..self.len()).map(|i| self.point(i)).collect()
    }
}

/// Space indices ordered fastest-first: by `picos[i]`, ties broken by
/// index, so the order is total and deterministic.
#[must_use]
pub fn rank(picos: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..picos.len()).collect();
    order.sort_by_key(|&i| (picos[i], i));
    order
}

/// Classifies every dimension of `space` from a simulated grid, where
/// `picos[i]` is point `i`'s runtime: each dimension's axis through
/// point `base` (all other coordinates held at `base`'s) is read from
/// the grid, so the report costs no extra simulation.
///
/// # Panics
///
/// Panics if `base` is outside the space or `picos` does not hold one
/// runtime per point.
#[must_use]
pub fn sensitivities(space: &Space, base: usize, picos: &[u64]) -> Vec<(Dim, Sensitivity)> {
    assert_eq!(picos.len(), space.len(), "one runtime per point");
    assert!(base < space.len(), "base {base} outside space");
    let digits = space.digits(base);
    Dim::ALL
        .iter()
        .zip(space.radices())
        .enumerate()
        .map(|(d, (&dim, radix))| {
            let axis: Vec<u64> = (0..radix)
                .map(|v| {
                    let mut along = digits;
                    along[d] = v;
                    picos[space.index_of_digits(&along)]
                })
                .collect();
            (dim, Sensitivity::of_axis(&axis))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_meets_scale_floor_and_contains_paper_point() {
        let space = Space::default_space();
        assert!(space.len() >= 2000, "{} points", space.len());
        let paper = DesignPoint::default();
        assert!(
            space.points().contains(&paper),
            "paper's point must be explorable"
        );
        let smoke = Space::smoke_space();
        assert!((100..2000).contains(&smoke.len()), "{}", smoke.len());
        assert!(smoke.points().contains(&paper));
    }

    #[test]
    fn point_decoding_round_trips_and_is_unique() {
        let space = Space::smoke_space();
        let pts = space.points();
        let distinct: std::collections::HashSet<_> = pts.iter().collect();
        assert_eq!(
            distinct.len(),
            pts.len(),
            "indices decode to distinct points"
        );
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(space.index_of(p), Some(i), "index_of inverts point");
        }
        let off_axis = DesignPoint {
            mesh_side: 7,
            ..DesignPoint::default()
        };
        assert_eq!(space.index_of(&off_axis), None);
    }

    #[test]
    fn rank_sorts_by_runtime_then_index() {
        assert_eq!(rank(&[30, 10, 20, 10]), vec![1, 3, 2, 0]);
        assert!(rank(&[]).is_empty());
    }

    #[test]
    fn axis_classifier_covers_every_shape() {
        assert_eq!(Sensitivity::of_axis(&[5, 5, 5]), Sensitivity::Flat);
        assert_eq!(Sensitivity::of_axis(&[5]), Sensitivity::Flat);
        assert_eq!(
            Sensitivity::of_axis(&[5, 7, 12]),
            Sensitivity::Monotone { worst_step: 5 }
        );
        assert_eq!(
            Sensitivity::of_axis(&[12, 7, 7]),
            Sensitivity::Monotone { worst_step: -5 }
        );
        assert_eq!(
            Sensitivity::of_axis(&[5, 9, 2]),
            Sensitivity::NonMonotone {
                max_up: 4,
                max_down: -7
            }
        );
    }

    /// A hand-built grid over a 3 × 2 × 2 slice: runtime grows with mesh
    /// side, dips at the middle bank count, and ignores the map size.
    #[test]
    fn sensitivities_read_the_axes_through_the_base_point() {
        let base = DesignPoint::default();
        let space = Space {
            mesh_side: vec![2, 4, 8],
            hop_x: vec![base.hop_x_cycles],
            hop_y: vec![base.hop_y_cycles],
            l2_banks: vec![8, 16, 32],
            l2_interleave: vec![base.l2_interleave_lines],
            stash_map_entries: vec![16, 64],
            l2_base: vec![base.l2_base_cycles],
            dram_extra: vec![base.dram_extra_cycles],
            remote_base: vec![base.remote_base_cycles],
            stash_xlat: vec![base.stash_translation_cycles],
            energy_scale: vec![base.energy_scale_pct],
        };
        let picos: Vec<u64> = space
            .points()
            .iter()
            .map(|p| {
                let bank_cost = if p.l2_banks == 16 { 0 } else { 40 };
                1000 * p.mesh_side as u64 + bank_cost
            })
            .collect();
        assert_eq!(space.axis_len(Dim::MeshSide), 3);
        assert_eq!(space.axis_len(Dim::HopX), 1);
        let at = space.index_of(&base).expect("base on every axis");
        let report = sensitivities(&space, at, &picos);
        assert_eq!(report.len(), Dim::ALL.len());
        let verdict = |dim: Dim| {
            report
                .iter()
                .find(|(d, _)| *d == dim)
                .map(|&(_, s)| s)
                .expect("every dimension reported")
        };
        assert_eq!(
            verdict(Dim::MeshSide),
            Sensitivity::Monotone { worst_step: 4000 }
        );
        assert_eq!(
            verdict(Dim::L2Banks),
            Sensitivity::NonMonotone {
                max_up: 40,
                max_down: -40
            }
        );
        assert_eq!(verdict(Dim::StashMapEntries), Sensitivity::Flat);
        // Single-valued axes are flat by construction.
        assert_eq!(verdict(Dim::HopX), Sensitivity::Flat);
        assert_eq!(verdict(Dim::EnergyScale), Sensitivity::Flat);
    }
}
