//! The network: latency formulas and flit-crossing accounting.

use crate::message::{Message, MsgClass};
use crate::topology::{Mesh, NodeId};
use sim::fault::{FaultInjector, MessageFate};
use sim::trace::{TraceEvent, TraceSink};

/// What happened to one send attempt under fault injection — the
/// sender-visible outcome of [`Network::send_faulty`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Clean delivery after the usual one-way latency.
    Delivered {
        /// One-way latency in cycles.
        latency: u64,
    },
    /// Delivered, but `extra` cycles late.
    Delayed {
        /// One-way latency in cycles.
        latency: u64,
        /// Injected extra delay in cycles.
        extra: u64,
    },
    /// Delivered twice with the same sequence number; the receiver must
    /// suppress the duplicate.
    Duplicated {
        /// One-way latency in cycles.
        latency: u64,
    },
    /// Lost in the network; the sender's timeout machinery must notice.
    Dropped,
}

/// Identity of one send attempt for the fault injector's draw stream
/// and event trace: the protocol site, the message's sequence number,
/// and the 1-based attempt count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// Protocol site issuing the send (e.g. `"cache.load"`).
    pub site: &'static str,
    /// Per-machine message sequence number.
    pub seq: u64,
    /// 1-based attempt count (retries increment it).
    pub attempt: u32,
}

/// Per-class traffic totals, the quantity plotted in Figure 5d.
///
/// A *flit crossing* is one flit traversing one link; a 5-flit line-fill
/// response travelling 3 hops contributes 15 crossings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    crossings: [u64; 3],
    messages: [u64; 3],
    flits: [u64; 3],
}

impl TrafficStats {
    /// Creates an empty traffic tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flit crossings recorded for one class.
    pub fn crossings(&self, class: MsgClass) -> u64 {
        self.crossings[Self::idx(class)]
    }

    /// Messages recorded for one class.
    pub fn messages(&self, class: MsgClass) -> u64 {
        self.messages[Self::idx(class)]
    }

    /// Total flit crossings over all classes.
    pub fn total_crossings(&self) -> u64 {
        self.crossings.iter().sum()
    }

    /// Total messages over all classes.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Flits recorded for one class (hop-independent: a message's flits
    /// count once, so this measures injection-port occupancy).
    pub fn flits(&self, class: MsgClass) -> u64 {
        self.flits[Self::idx(class)]
    }

    /// Total flits over all classes.
    pub fn total_flits(&self) -> u64 {
        self.flits.iter().sum()
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..3 {
            self.crossings[i] += other.crossings[i];
            self.messages[i] += other.messages[i];
            self.flits[i] += other.flits[i];
        }
    }

    fn idx(class: MsgClass) -> usize {
        match class {
            MsgClass::Read => 0,
            MsgClass::Write => 1,
            MsgClass::Writeback => 2,
        }
    }

    fn record(&mut self, class: MsgClass, crossings: u64, flits: u64) {
        self.crossings[Self::idx(class)] += crossings;
        self.messages[Self::idx(class)] += 1;
        self.flits[Self::idx(class)] += flits;
    }

    /// Serializes the three per-class tallies.
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        for i in 0..3 {
            w.put_u64(self.crossings[i]);
            w.put_u64(self.messages[i]);
            w.put_u64(self.flits[i]);
        }
    }

    /// Restores a tally written by [`TrafficStats::save`].
    pub fn load(r: &mut sim::snapshot::Reader<'_>) -> Result<Self, sim::SimError> {
        let mut t = Self::default();
        for i in 0..3 {
            t.crossings[i] = r.take_u64()?;
            t.messages[i] = r.take_u64()?;
            t.flits[i] = r.take_u64()?;
        }
        Ok(t)
    }
}

/// The on-chip network: a mesh plus per-hop latency and traffic accounting.
///
/// Latency model: a full request/response round trip between two nodes
/// costs `x_hops * hop_x + y_hops * hop_y` (the two dimensions may be
/// clocked differently — [`Network::with_latencies`]; the symmetric
/// [`Network::new`] sets both to the same cost, reducing to the classic
/// `hops * hop_round_trip_cycles`). A one-way message costs half the
/// round trip, rounded up. Queueing/contention inside routers is not
/// modelled — the paper's traffic effects come from message counts and
/// sizes, which are accounted exactly.
///
/// # Example
///
/// ```
/// use noc::{Mesh, Message, MsgClass, Network, NodeId};
///
/// let mut net = Network::new(Mesh::new(4), 5);
/// let lat = net.send(NodeId(0), NodeId(3), Message::data(MsgClass::Read, 64));
/// assert_eq!(lat, 8); // ceil(3 hops * 5 / 2)
/// assert_eq!(net.traffic().crossings(MsgClass::Read), 15); // 5 flits * 3 hops
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    mesh: Mesh,
    hop_x_round_trip_cycles: u64,
    hop_y_round_trip_cycles: u64,
    traffic: TrafficStats,
    /// Flit traversals through each node's router (hotspot analysis).
    router_flits: Vec<u64>,
}

impl Network {
    /// Creates a network over `mesh` with the given per-hop round-trip cost
    /// (the same in both dimensions).
    pub fn new(mesh: Mesh, hop_round_trip_cycles: u64) -> Self {
        Self::with_latencies(mesh, hop_round_trip_cycles, hop_round_trip_cycles)
    }

    /// Creates a network whose X and Y links carry different per-hop
    /// round-trip costs (e.g. a mesh with wider/faster row links).
    pub fn with_latencies(mesh: Mesh, hop_x: u64, hop_y: u64) -> Self {
        let nodes = mesh.nodes();
        Self {
            mesh,
            hop_x_round_trip_cycles: hop_x,
            hop_y_round_trip_cycles: hop_y,
            traffic: TrafficStats::new(),
            router_flits: vec![0; nodes],
        }
    }

    /// Round-trip cost of the XY path between two nodes, split by
    /// dimension — the shared kernel of the latency formulas.
    fn path_round_trip(&self, a: NodeId, b: NodeId) -> u64 {
        let (hx, hy) = self.mesh.hops_xy(a, b);
        hx * self.hop_x_round_trip_cycles + hy * self.hop_y_round_trip_cycles
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Accumulated traffic tally.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Resets the traffic tally (e.g. between experiment phases).
    pub fn reset_traffic(&mut self) {
        self.traffic = TrafficStats::new();
    }

    /// Resets *all* accounting — traffic tally and per-router flit
    /// profile — e.g. when forking a shard network whose accounting will
    /// later be [`Network::absorb`]ed back.
    pub fn reset_accounting(&mut self) {
        self.traffic = TrafficStats::new();
        self.router_flits.fill(0);
    }

    /// Adds another network's accounting (traffic tally and router flit
    /// profile) into this one. The meshes must have the same node count.
    ///
    /// # Panics
    ///
    /// Panics if the router profiles differ in length.
    pub fn absorb(&mut self, other: &Network) {
        assert_eq!(
            self.router_flits.len(),
            other.router_flits.len(),
            "absorbing a network of a different mesh size"
        );
        self.traffic.merge(&other.traffic);
        for (mine, theirs) in self.router_flits.iter_mut().zip(&other.router_flits) {
            *mine += theirs;
        }
    }

    /// Round-trip network latency between two nodes (no message recorded).
    pub fn round_trip_cycles(&self, a: NodeId, b: NodeId) -> u64 {
        self.path_round_trip(a, b)
    }

    /// One-way network latency between two nodes (no message recorded).
    pub fn one_way_cycles(&self, a: NodeId, b: NodeId) -> u64 {
        self.path_round_trip(a, b).div_ceil(2)
    }

    /// Sends a message, recording its flit crossings, and returns the
    /// one-way latency in cycles.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: Message) -> u64 {
        let hops = self.mesh.hops(from, to);
        self.traffic
            .record(msg.class(), msg.flits() * hops, msg.flits());
        // Every router on the XY path sees the message's flits.
        for node in self.mesh.route(from, to) {
            self.router_flits[node.0] += msg.flits();
        }
        self.path_round_trip(from, to).div_ceil(2)
    }

    /// Emits one [`sim::trace::TraceEvent::NocHop`] per link of the XY
    /// route a [`Network::send`] of `msg` would take, stamped with the
    /// sink's current time — the per-link occupancy view of the trace.
    /// Accounting-free: traffic tallies and latency are untouched, so a
    /// traced run stays bit-identical to an untraced one.
    pub fn trace_hops(&self, from: NodeId, to: NodeId, msg: Message, sink: &mut TraceSink) {
        let at = sink.now();
        let flits = msg.flits();
        let class = match msg.class() {
            MsgClass::Read => 0u8,
            MsgClass::Write => 1,
            MsgClass::Writeback => 2,
        };
        let mut route = self.mesh.route(from, to);
        let mut prev = route.next().expect("a route starts at its source");
        for node in route {
            sink.push(TraceEvent::NocHop {
                from: prev.0 as u32,
                to: node.0 as u32,
                at,
                flits,
                class,
            });
            prev = node;
        }
    }

    /// Sends one *attempt* of a message through a fault injector.
    ///
    /// The injector decides the attempt's fate (drop / duplicate / delay /
    /// clean delivery); the network accounts the flits that actually
    /// entered it — a dropped message still crossed routers up to the
    /// fault point (we charge the full path, a deliberate worst-case), and
    /// a duplicated message is charged twice. Retry policy is the
    /// *sender's* job: the caller inspects the returned [`Delivery`] and
    /// re-sends after a timeout if its protocol calls for it.
    pub fn send_faulty(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: Message,
        inj: &mut FaultInjector,
        attempt: Attempt,
    ) -> Delivery {
        let latency = self.send(from, to, msg);
        match inj.message_fate(attempt.site, attempt.seq, attempt.attempt) {
            MessageFate::Delivered => Delivery::Delivered { latency },
            MessageFate::Delayed(extra) => Delivery::Delayed { latency, extra },
            MessageFate::Duplicated => {
                // The duplicate traverses the network too.
                let _ = self.send(from, to, msg);
                Delivery::Duplicated { latency }
            }
            MessageFate::Dropped => Delivery::Dropped,
        }
    }

    /// Flit traversals through each node's router, in node order — the
    /// hotspot profile of the run (XY routing concentrates turns, so the
    /// LLC home banks of hot lines light up here).
    pub fn router_flit_profile(&self) -> &[u64] {
        &self.router_flits
    }

    /// The busiest router and its flit count.
    pub fn hotspot(&self) -> (NodeId, u64) {
        let (i, &v) = self
            .router_flits
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .expect("meshes have at least one node");
        (NodeId(i), v)
    }

    /// Serializes the accounting: per-class traffic and every router's
    /// flit tally. The mesh and the hop costs are configuration, fixed
    /// when the network is built, so they are not saved. The network is
    /// purely a latency/accounting model — no in-flight message queues
    /// exist, so a barrier-time snapshot captures it completely.
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        self.traffic.save(w);
        for &f in &self.router_flits {
            w.put_u64(f);
        }
    }

    /// Reads accounting written by [`Network::save`] into this network,
    /// built over the saved network's mesh: one tally per router.
    pub fn restore(&mut self, r: &mut sim::snapshot::Reader<'_>) -> Result<(), sim::SimError> {
        self.traffic = TrafficStats::load(r)?;
        for f in &mut self.router_flits {
            *f = r.take_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(Mesh::new(4), 5)
    }

    #[test]
    fn same_node_send_is_free() {
        let mut n = net();
        let lat = n.send(NodeId(3), NodeId(3), Message::control(MsgClass::Write));
        assert_eq!(lat, 0);
        assert_eq!(n.traffic().crossings(MsgClass::Write), 0);
        // The message itself is still counted.
        assert_eq!(n.traffic().messages(MsgClass::Write), 1);
    }

    #[test]
    fn crossings_scale_with_hops_and_flits() {
        let mut n = net();
        n.send(
            NodeId(0),
            NodeId(15),
            Message::data(MsgClass::Writeback, 64),
        );
        // 5 flits * 6 hops.
        assert_eq!(n.traffic().crossings(MsgClass::Writeback), 30);
    }

    #[test]
    fn classes_are_tallied_separately() {
        let mut n = net();
        n.send(NodeId(0), NodeId(1), Message::control(MsgClass::Read));
        n.send(NodeId(0), NodeId(1), Message::control(MsgClass::Write));
        n.send(NodeId(0), NodeId(1), Message::data(MsgClass::Writeback, 4));
        let t = n.traffic();
        assert_eq!(t.crossings(MsgClass::Read), 1);
        assert_eq!(t.crossings(MsgClass::Write), 1);
        assert_eq!(t.crossings(MsgClass::Writeback), 2);
        assert_eq!(t.total_messages(), 3);
    }

    #[test]
    fn two_one_ways_cover_a_round_trip() {
        let n = net();
        for a in n.mesh().iter() {
            for b in n.mesh().iter() {
                let rt = n.round_trip_cycles(a, b);
                let ow = n.one_way_cycles(a, b);
                assert!(2 * ow >= rt && 2 * ow <= rt + 1);
            }
        }
    }

    #[test]
    fn asymmetric_latencies_split_by_dimension() {
        let n = Network::with_latencies(Mesh::new(4), 3, 7);
        // (0,0) -> (2,1): 2 X hops * 3 + 1 Y hop * 7 = 13 round trip.
        assert_eq!(n.round_trip_cycles(NodeId(0), NodeId(6)), 13);
        assert_eq!(n.one_way_cycles(NodeId(0), NodeId(6)), 7);
        for a in n.mesh().iter() {
            for b in n.mesh().iter() {
                // Latency stays symmetric even with unequal dimensions.
                assert_eq!(n.round_trip_cycles(a, b), n.round_trip_cycles(b, a));
            }
        }
        // Equal costs reduce to the classic hops * cost formula.
        let sym = Network::with_latencies(Mesh::new(4), 5, 5);
        let plain = net();
        for a in sym.mesh().iter() {
            for b in sym.mesh().iter() {
                assert_eq!(sym.round_trip_cycles(a, b), plain.round_trip_cycles(a, b));
                assert_eq!(sym.one_way_cycles(a, b), plain.one_way_cycles(a, b));
            }
        }
    }

    #[test]
    fn merge_accumulates_tallies() {
        let mut a = TrafficStats::new();
        a.record(MsgClass::Read, 10, 2);
        let mut b = TrafficStats::new();
        b.record(MsgClass::Read, 5, 1);
        b.record(MsgClass::Write, 2, 1);
        a.merge(&b);
        assert_eq!(a.crossings(MsgClass::Read), 15);
        assert_eq!(a.crossings(MsgClass::Write), 2);
        assert_eq!(a.total_messages(), 3);
        assert_eq!(a.total_flits(), 4);
    }

    #[test]
    fn router_profile_follows_the_route() {
        let mut n = net();
        // (0,0) -> (3,0): routers 0,1,2,3 each see the message's flits.
        n.send(NodeId(0), NodeId(3), Message::data(MsgClass::Read, 16));
        let profile = n.router_flit_profile();
        assert_eq!(&profile[0..4], &[2, 2, 2, 2]);
        assert!(profile[4..].iter().all(|&v| v == 0));
        assert_eq!(n.hotspot().1, 2);
    }

    #[test]
    fn faulty_send_charges_traffic_per_attempt() {
        use sim::fault::FaultConfig;

        // Quiescent injector: identical to a plain send.
        let mut clean = net();
        let mut inj = FaultInjector::new(FaultConfig::quiescent(1));
        let d = clean.send_faulty(
            NodeId(0),
            NodeId(3),
            Message::control(MsgClass::Read),
            &mut inj,
            Attempt {
                site: "test",
                seq: 1,
                attempt: 1,
            },
        );
        assert_eq!(d, Delivery::Delivered { latency: 8 });
        assert_eq!(clean.traffic().flits(MsgClass::Read), 1);

        // Certain duplication: the duplicate is charged too.
        let mut dup = net();
        let mut inj = FaultInjector::new(FaultConfig {
            drop_per_mille: 0,
            dup_per_mille: 1000,
            ..FaultConfig::chaos(1)
        });
        let d = dup.send_faulty(
            NodeId(0),
            NodeId(3),
            Message::control(MsgClass::Read),
            &mut inj,
            Attempt {
                site: "test",
                seq: 1,
                attempt: 1,
            },
        );
        assert_eq!(d, Delivery::Duplicated { latency: 8 });
        assert_eq!(dup.traffic().flits(MsgClass::Read), 2);

        // Certain drop: flits entered the network before the loss.
        let mut drop = net();
        let mut inj = FaultInjector::new(FaultConfig {
            drop_per_mille: 1000,
            ..FaultConfig::chaos(1)
        });
        let d = drop.send_faulty(
            NodeId(0),
            NodeId(3),
            Message::control(MsgClass::Read),
            &mut inj,
            Attempt {
                site: "test",
                seq: 1,
                attempt: 1,
            },
        );
        assert_eq!(d, Delivery::Dropped);
        assert_eq!(drop.traffic().flits(MsgClass::Read), 1);
    }

    #[test]
    fn trace_hops_emits_one_event_per_link() {
        let n = net();
        let mut sink = TraceSink::new(64);
        sink.set_now(42);
        n.trace_hops(
            NodeId(0),
            NodeId(5),
            Message::data(MsgClass::Read, 16),
            &mut sink,
        );
        // XY route (0,0)→(1,0)→(1,1): two links, stamped with "now".
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            TraceEvent::NocHop {
                from: 0,
                to: 1,
                at: 42,
                flits: 2,
                class: 0,
            }
        );
        assert_eq!(
            events[1],
            TraceEvent::NocHop {
                from: 1,
                to: 5,
                at: 42,
                flits: 2,
                class: 0,
            }
        );
        // Same-node sends cross no link and emit nothing.
        let mut empty = TraceSink::new(4);
        n.trace_hops(
            NodeId(3),
            NodeId(3),
            Message::control(MsgClass::Write),
            &mut empty,
        );
        assert!(empty.is_empty());
        // Accounting is untouched.
        assert_eq!(n.traffic().total_messages(), 0);
    }

    #[test]
    fn network_round_trips_through_snapshot() {
        let mut n = Network::with_latencies(Mesh::new(4), 3, 7);
        n.send(NodeId(0), NodeId(15), Message::data(MsgClass::Read, 64));
        n.send(NodeId(2), NodeId(9), Message::control(MsgClass::Write));
        let mut w = sim::snapshot::Writer::new();
        n.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = sim::snapshot::Reader::new(&bytes, "network");
        let mut restored = Network::with_latencies(Mesh::new(4), 3, 7);
        restored.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.traffic(), n.traffic());
        assert_eq!(restored.router_flit_profile(), n.router_flit_profile());
    }

    #[test]
    fn network_restore_rejects_a_smaller_mesh_payload() {
        // A 2x2 network's tallies are too short for a 4x4 network.
        let mut w = sim::snapshot::Writer::new();
        Network::new(Mesh::new(2), 5).save(&mut w);
        let bytes = w.into_bytes();
        let mut r = sim::snapshot::Reader::new(&bytes, "network");
        assert!(matches!(
            net().restore(&mut r),
            Err(sim::SimError::CheckpointCorrupt { .. })
        ));
    }

    #[test]
    fn reset_clears_traffic() {
        let mut n = net();
        n.send(NodeId(0), NodeId(2), Message::control(MsgClass::Read));
        n.reset_traffic();
        assert_eq!(n.traffic().total_crossings(), 0);
        assert_eq!(n.traffic().total_messages(), 0);
    }
}
