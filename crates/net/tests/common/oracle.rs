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
//!   `build_routes_over`'s masked walk replaced;
//! * the full-rebuild-per-transition `RouteCache` path that incremental
//!   repair replaced is toggled back on for every cache on the calling
//!   thread via `ami_net::routing::set_route_repair_enabled(false)` (the
//!   only repair switch) — it stays in the production crate because the
//!   cache itself dispatches to it.

use ami_net::routing::build_routes;
use ami_net::{NodeId, RoutingStrategy, Topology};
use ami_radio::RadioEnergyModel;
use ami_units::Length;

/// The historical O(N²) scan Dijkstra, kept verbatim as the
/// bit-exactness reference for the heap implementation.
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
        for v in topology.neighbors_within(NodeId(u), max_hop) {
            if visited[v.0] {
                continue;
            }
            let hop = topology.distance(NodeId(u), v);
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
/// bit-exactness reference for `build_routes_over`, which routes the
/// full cached CSR with an id-order-preserving subset skip.
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
