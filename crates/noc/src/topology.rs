//! Mesh topology: node identity, coordinates, and XY routing distance.

use sim::config::MAX_MESH_SIDE;

/// Identifies one node of the mesh.
///
/// Nodes are numbered row-major: node `y * side + x` sits at `(x, y)`.
/// Every node hosts one L2 bank and either a CPU core or a GPU CU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A square 2-D mesh with deterministic XY (dimension-ordered) routing.
///
/// # Example
///
/// ```
/// use noc::topology::{Mesh, NodeId};
///
/// let mesh = Mesh::new(4);
/// assert_eq!(mesh.nodes(), 16);
/// assert_eq!(mesh.hops(NodeId(5), NodeId(5)), 0);
/// assert_eq!(mesh.hops(NodeId(0), NodeId(3)), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    side: usize,
    /// `⌊2^32 / side⌋ + 1`: [`Mesh::coords`] divides a node index by the
    /// side as a multiply and a shift. For a node index `n < side²` the
    /// quotient is exact while `side³ ≤ 2^32`, which every side up to
    /// [`MAX_MESH_SIDE`] satisfies with room to spare.
    recip: u64,
}

/// Shift that pairs with [`Mesh`]'s reciprocal.
const RECIP_SHIFT: u32 = 32;

impl Mesh {
    /// Creates a `side × side` mesh.
    ///
    /// # Panics
    ///
    /// Panics if `side` is zero or above [`MAX_MESH_SIDE`].
    pub fn new(side: usize) -> Self {
        assert!(side > 0, "mesh side must be nonzero");
        assert!(
            side <= MAX_MESH_SIDE,
            "mesh side {side} exceeds {MAX_MESH_SIDE}"
        );
        Self {
            side,
            recip: (1u64 << RECIP_SHIFT) / side as u64 + 1,
        }
    }

    /// Side length of the mesh.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Total node count (`side`²).
    pub fn nodes(&self) -> usize {
        self.side * self.side
    }

    /// `(x, y)` coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    #[inline]
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        assert!(node.0 < self.nodes(), "node {node} outside {self:?}");
        let y = ((node.0 as u64 * self.recip) >> RECIP_SHIFT) as usize;
        (node.0 - y * self.side, y)
    }

    /// The node at coordinates `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is outside the mesh.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        assert!(x < self.side && y < self.side, "({x},{y}) outside mesh");
        NodeId(y * self.side + x)
    }

    /// Manhattan (XY-routed) hop count between two nodes.
    pub fn hops(&self, from: NodeId, to: NodeId) -> u64 {
        let (x, y) = self.hops_xy(from, to);
        x + y
    }

    /// Per-dimension hop counts `(x_hops, y_hops)` of the XY route —
    /// the split an asymmetric-latency mesh charges differently.
    pub fn hops_xy(&self, from: NodeId, to: NodeId) -> (u64, u64) {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        (fx.abs_diff(tx) as u64, fy.abs_diff(ty) as u64)
    }

    /// Maximum hop count between any two nodes (`2 * (side - 1)`).
    pub fn max_hops(&self) -> u64 {
        2 * (self.side as u64 - 1)
    }

    /// The nodes an XY-routed message visits, inclusive of both endpoints
    /// (X dimension first, then Y — Garnet's default). Walked lazily, so a
    /// message costs no allocation.
    pub fn route(&self, from: NodeId, to: NodeId) -> impl Iterator<Item = NodeId> {
        let (tx, ty) = self.coords(to);
        let mesh = *self;
        let step = |c: usize, t: usize| if t > c { c + 1 } else { c - 1 };
        std::iter::successors(Some(self.coords(from)), move |&(x, y)| {
            if x != tx {
                Some((step(x, tx), y))
            } else if y != ty {
                Some((x, step(y, ty)))
            } else {
                None
            }
        })
        .map(move |(x, y)| mesh.node_at(x, y))
    }

    /// Iterates over all nodes in index order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes()).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every side the DSE sweep reaches; the invariants below must hold
    /// at all of them, not just the paper's 4.
    const SIDES: std::ops::RangeInclusive<usize> = 1..=8;

    /// Checks the division-free [`Mesh::coords`] on every node of every
    /// mesh [`Mesh::new`] accepts.
    #[test]
    fn coords_round_trip() {
        for side in 1..=MAX_MESH_SIDE {
            let mesh = Mesh::new(side);
            assert_eq!(mesh.nodes(), side * side);
            for node in mesh.iter() {
                let (x, y) = mesh.coords(node);
                assert_eq!(
                    (x, y),
                    (node.0 % side, node.0 / side),
                    "side {side}, {node}"
                );
                assert_eq!(mesh.node_at(x, y), node);
            }
        }
    }

    #[test]
    fn hops_are_symmetric_and_triangle() {
        for side in SIDES {
            let mesh = Mesh::new(side);
            for a in mesh.iter() {
                for b in mesh.iter() {
                    assert_eq!(mesh.hops(a, b), mesh.hops(b, a));
                    let (hx, hy) = mesh.hops_xy(a, b);
                    assert_eq!(mesh.hops_xy(b, a), (hx, hy));
                    assert_eq!(hx + hy, mesh.hops(a, b));
                    for c in mesh.iter() {
                        assert!(mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c));
                    }
                }
            }
        }
    }

    #[test]
    fn max_hops_matches_corners() {
        for side in SIDES {
            let mesh = Mesh::new(side);
            assert_eq!(mesh.max_hops(), 2 * (side as u64 - 1));
            // Opposite corners realize the bound; nothing exceeds it.
            let far = NodeId(side * side - 1);
            assert_eq!(mesh.hops(NodeId(0), far), mesh.max_hops());
            for a in mesh.iter() {
                for b in mesh.iter() {
                    assert!(mesh.hops(a, b) <= mesh.max_hops());
                }
            }
        }
        assert_eq!(Mesh::new(4).hops(NodeId(3), NodeId(12)), 6);
    }

    #[test]
    fn route_length_matches_hops() {
        for side in SIDES {
            let mesh = Mesh::new(side);
            for a in mesh.iter() {
                for b in mesh.iter() {
                    let route: Vec<NodeId> = mesh.route(a, b).collect();
                    assert_eq!(route.len() as u64, mesh.hops(a, b) + 1);
                    assert_eq!(*route.first().unwrap(), a);
                    assert_eq!(*route.last().unwrap(), b);
                }
            }
        }
    }

    #[test]
    fn route_is_x_first() {
        let mesh = Mesh::new(4);
        let route: Vec<NodeId> = mesh.route(NodeId(0), NodeId(5)).collect(); // (0,0) -> (1,1)
        assert_eq!(route, vec![NodeId(0), NodeId(1), NodeId(5)]);
    }

    #[test]
    fn first_out_of_range_node_panics_at_every_side() {
        for side in SIDES {
            let mesh = Mesh::new(side);
            let bad = NodeId(mesh.nodes());
            let caught = std::panic::catch_unwind(|| mesh.coords(bad));
            assert!(caught.is_err(), "side {side}: {bad} must be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn coords_panics_out_of_mesh() {
        Mesh::new(2).coords(NodeId(4));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_side_mesh_panics() {
        Mesh::new(0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_mesh_panics() {
        Mesh::new(MAX_MESH_SIDE + 1);
    }
}
