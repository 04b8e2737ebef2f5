//! Retired reference implementations, kept verbatim as pinned oracles.
//!
//! Every optimization in `ami-net`'s routing stack was landed against a
//! slower, obviously-correct predecessor; those predecessors live here
//! (shared across test binaries instead of duplicated in each) so the
//! differential suites can keep diffing the fast paths against them:
//!
//! * [`dijkstra_reference_scan`] — the O(N²) linear-scan Dijkstra the
//!   binary-heap implementation replaced;
//! * [`rebuild_over_usable`] — the compact-subtopology rebuild that
//!   the route cache's masked walk replaced;
//! * the full-rebuild-per-transition `RouteCache` path that incremental
//!   repair replaced is toggled back on for every cache on the calling
//!   thread via `ami_net::routing::set_route_repair_enabled(false)` (the
//!   only repair switch) — it stays in the production crate because the
//!   cache itself dispatches to it;
//! * [`lossy_reference_run`] — the lossy/ARQ round written against the
//!   public API only, walking every packet by node id, as the kernel did
//!   before it walked the route cache's heavy-path image.

use ami_net::routing::{build_routes, RouteCache};
use ami_net::{LossyConfig, LossyReport, NodeId, RoutingStrategy, Topology};
use ami_radio::RadioEnergyModel;
use ami_sim::fault::{FaultSchedule, FaultTimeline};
use ami_sim::obs::{EnergyCategory, Recorder};
use ami_sim::rng::packet_rng;
use ami_units::{Energy, Length};
use rand::RngExt;

/// The historical O(N²) scan Dijkstra, kept as the bit-exactness
/// reference for the heap implementation. It finds each settled node's
/// neighbours with its own all-pairs distance scan, in ascending id, so
/// it shares no hop graph with the implementation it checks.
pub fn dijkstra_reference_scan(
    topology: &Topology,
    radio: &RadioEnergyModel,
    max_hop: Length,
) -> Vec<Option<NodeId>> {
    let n = topology.len();
    let sink = topology.sink();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut visited = vec![false; n];
    dist[sink.0] = 0.0;
    for _ in 0..n {
        let mut best: Option<usize> = None;
        for (idx, &d) in dist.iter().enumerate() {
            if !visited[idx] && d.is_finite() && best.is_none_or(|b| d < dist[b]) {
                best = Some(idx);
            }
        }
        let Some(u) = best else { break };
        visited[u] = true;
        for v in topology.ids() {
            let hop = topology.distance(NodeId(u), v);
            if v.0 == u || visited[v.0] || hop > max_hop {
                continue;
            }
            let weight = radio.hop_energy_per_bit(hop).as_joules_per_bit();
            if dist[u] + weight < dist[v.0] {
                dist[v.0] = dist[u] + weight;
                parent[v.0] = Some(NodeId(u));
            }
        }
    }
    parent
}

/// The historical usable-subset rebuild: filter usable nodes into a
/// compact topology, route it, map ids back. Kept verbatim as the
/// bit-exactness reference for `RouteCache` builds and repairs, which
/// route the full cached CSR with an id-order-preserving subset skip.
pub fn rebuild_over_usable(
    topology: &Topology,
    strategy: RoutingStrategy,
    radio: &RadioEnergyModel,
    max_hop: Length,
    usable: &[bool],
) -> Vec<Option<NodeId>> {
    // Map usable ids into a compact topology (sink always survives).
    let mut forward = Vec::new(); // compact -> original
    let mut positions = Vec::new();
    for id in topology.ids() {
        if id == topology.sink() || usable[id.0] {
            forward.push(id);
            positions.push(topology.position(id));
        }
    }
    if positions.len() < 2 {
        // Everyone but the sink is dead: no routes remain.
        return vec![None; topology.len()];
    }
    let compact = Topology::new(positions);
    let compact_table = build_routes(&compact, strategy, radio, max_hop);
    let mut table = vec![None; topology.len()];
    for (compact_idx, original) in forward.iter().enumerate() {
        table[original.0] = compact_table[compact_idx].map(|next| forward[next.0]);
    }
    table
}

/// An id-order reference for `LossySession::run_faulted_with`, built on
/// public API only: a fresh `RouteCache` per run (`next_hop`,
/// `tx_cost`, `is_connected`), one `packet_rng` stream per packet and a
/// compiled `FaultTimeline`. Round by round it refreshes the down flags,
/// re-resolves routes over `sink || !down_prev` when the down state
/// moved (routing sees faults one round late), offers one packet per
/// powered, connected sensor in ascending id and walks it by node id —
/// a downed receiver burns the sender's whole ARQ budget, a downed link
/// charges both ends per attempt, neither draws — then charges the
/// round's attempt counts, Tx then RxRelay, in ascending id. The
/// recorder sees the charges and packet counts the session shows it.
pub fn lossy_reference_run<R: Recorder>(
    topology: &Topology,
    config: &LossyConfig,
    rounds: u64,
    seed: u64,
    faults: &FaultSchedule,
    recorder: &mut R,
) -> LossyReport {
    let n = topology.len();
    let sink = topology.sink();
    let p_hop = config.packet.delivery_probability(config.ber);
    let bits = config.packet.total_bits();
    let rx = config.radio.receive_energy(bits).as_joules();
    let attempts = config.arq.max_transmissions;
    let mut cache = RouteCache::new(
        topology,
        RoutingStrategy::MinimumEnergy,
        &config.radio,
        config.max_hop,
        bits,
    );
    let mut timeline = FaultTimeline::compile(faults, n);
    let (mut down_now, mut down_prev) = (vec![false; n], vec![false; n]);
    let (mut tx_attempts, mut rx_attempts) = (vec![0u64; n], vec![0u64; n]);
    let mut report = LossyReport {
        offered: 0,
        delivered: 0,
        transmissions: 0,
        total_energy: Energy::from_joules(0.0),
        dropped_fault: 0,
    };
    let mut energy = 0.0f64;
    let mut routes_dirty = true;
    for round in 0..rounds {
        timeline.advance_to(round);
        for (id, down) in down_now.iter_mut().enumerate() {
            *down = id != sink.0 && timeline.node_down(id);
        }
        if routes_dirty {
            let usable: Vec<bool> = (0..n).map(|id| id == sink.0 || !down_prev[id]).collect();
            cache.ensure(&usable);
            routes_dirty = false;
        }
        for src in topology.sensor_ids() {
            if down_now[src.0] || !cache.is_connected(src) {
                continue;
            }
            report.offered += 1;
            recorder.packet_offered();
            let mut rng = packet_rng(seed, round, src.0 as u64);
            let mut packet = 0.0f64;
            let mut from = src;
            // `Some(true)` delivered, `Some(false)` lost to a fault,
            // `None` lost to the channel.
            let fate = loop {
                let hop = cache
                    .next_hop(from)
                    .expect("connected route reaches the sink");
                let tx = cache.tx_cost(from);
                if hop != sink && down_now[hop.0] {
                    report.transmissions += u64::from(attempts);
                    tx_attempts[from.0] += u64::from(attempts);
                    packet += f64::from(attempts) * tx;
                    break Some(false);
                }
                if timeline.link_down(from.0, hop.0) {
                    report.transmissions += u64::from(attempts);
                    tx_attempts[from.0] += u64::from(attempts);
                    rx_attempts[hop.0] += u64::from(attempts);
                    packet += f64::from(attempts) * (tx + rx);
                    break Some(false);
                }
                let mut crossed = false;
                for _ in 0..attempts {
                    report.transmissions += 1;
                    tx_attempts[from.0] += 1;
                    rx_attempts[hop.0] += 1;
                    packet += tx;
                    packet += rx;
                    if rng.random::<f64>() < p_hop {
                        crossed = true;
                        break;
                    }
                }
                if !crossed {
                    break None;
                }
                if hop == sink {
                    break Some(true);
                }
                from = hop;
            };
            energy += packet;
            match fate {
                Some(true) => {
                    report.delivered += 1;
                    recorder.packet_delivered();
                }
                Some(false) => {
                    report.dropped_fault += 1;
                    recorder.packet_dropped_fault();
                }
                None => {}
            }
        }
        for (id, count) in tx_attempts.iter_mut().enumerate() {
            if *count > 0 {
                let tx = cache.tx_cost(NodeId(id));
                recorder.charge(id, EnergyCategory::Tx, *count as f64 * tx);
                *count = 0;
            }
        }
        for (id, count) in rx_attempts.iter_mut().enumerate() {
            if *count > 0 {
                recorder.charge(id, EnergyCategory::RxRelay, *count as f64 * rx);
                *count = 0;
            }
        }
        if down_now != down_prev {
            routes_dirty = true;
        }
        std::mem::swap(&mut down_prev, &mut down_now);
    }
    report.total_energy = Energy::from_joules(energy);
    report
}
