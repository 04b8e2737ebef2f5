//! Route construction: who relays for whom.
//!
//! The minimum-energy strategy runs a binary-heap Dijkstra over the
//! topology's cached [`CsrAdjacency`](crate::csr::CsrAdjacency) hop
//! graph, with deterministic tie-breaking on [`NodeId`]: among equal
//! tentative distances the lowest id settles first, exactly like the
//! O(N²) scan it replaced, so route tables — and every golden manifest
//! built on them — are bit-identical to the historical implementation
//! (`tests` pin this against a reference scan).
//!
//! [`RouteCache`] wraps a table in a usable-set epoch: the table is
//! recomputed only when the usable set actually differs from the one the
//! routes were last built over, and each build pre-resolves per-node
//! next-hop transmit costs and sink connectivity so the simulators'
//! round loops touch no allocator and recompute no distances.
//!
//! Since the city-scale work, a usable-set *transition* no longer pays a
//! full-graph Dijkstra: the cache keeps the final distance labels of the
//! last build and performs **incremental route repair** — it invalidates
//! exactly the parent-tree subtrees hanging off newly-unusable nodes
//! (plus any rebooted nodes), re-seeds the frontier from untouched
//! neighbours, and re-relaxes only that wave. Because heap Dijkstra with
//! `(dist, id)` tie-breaking makes every node's parent a pure function
//! of the final distance labels (the lowest-`(dist, id)` optimal
//! predecessor), the repaired table is bit-identical to a from-scratch
//! rebuild — a contract pinned by the differential tests in
//! `tests/differential.rs`, which drive random topologies × random fault
//! schedules through both paths. The full-rebuild path stays in-tree as
//! that oracle, reachable via [`set_route_repair_enabled`]. Repairs are
//! observable through [`route_repair_count`] next to the existing
//! [`route_build_count`].

use crate::topology::{NodeId, Topology};
use ami_radio::RadioEnergyModel;
use ami_units::{DataVolume, Length};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The routing strategies compared in experiment F6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingStrategy {
    /// Every node transmits straight to the sink, whatever the distance.
    DirectToSink,
    /// Dijkstra shortest paths to the sink under the first-order radio
    /// energy metric, with hops bounded by the radio range.
    MinimumEnergy,
}

impl std::fmt::Display for RoutingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RoutingStrategy::DirectToSink => "direct-to-sink",
            RoutingStrategy::MinimumEnergy => "minimum-energy multi-hop",
        })
    }
}

thread_local! {
    /// Route builds performed on this thread (test instrumentation).
    static ROUTE_BUILDS: Cell<u64> = const { Cell::new(0) };
    /// Incremental route repairs performed on this thread.
    static ROUTE_REPAIRS: Cell<u64> = const { Cell::new(0) };
    /// Whether [`RouteCache`] may repair instead of rebuilding.
    static REPAIR_ENABLED: Cell<bool> = const { Cell::new(true) };
}

fn note_route_build() {
    ROUTE_BUILDS.with(|count| count.set(count.get() + 1));
}

fn note_route_repair() {
    ROUTE_REPAIRS.with(|count| count.set(count.get() + 1));
}

/// Number of route-table builds performed on this thread since the last
/// [`reset_route_build_count`]. Test instrumentation: the epoch-cache
/// regression tests count builds across whole simulations with it.
///
/// # Thread safety
///
/// The counter is **thread-local**: builds performed by worker threads
/// are visible only on the thread that performed them (the
/// region-parallel lossy engine resolves routes on the caller's thread,
/// so its builds count there). When a test needs counts attributable
/// to one simulation rather than one thread,
/// prefer the per-cache [`RouteCache::builds`] / [`RouteCache::repairs`]
/// accessors, which need no global state at all.
pub fn route_build_count() -> u64 {
    ROUTE_BUILDS.with(Cell::get)
}

/// Resets this thread's [`route_build_count`] to zero.
pub fn reset_route_build_count() {
    ROUTE_BUILDS.with(|count| count.set(0));
}

/// Number of incremental route repairs performed on this thread since
/// the last [`reset_route_repair_count`]. A usable-set transition costs
/// one repair instead of one build whenever the cache can splice the
/// affected subtrees; builds + repairs together account for every
/// transition.
///
/// # Thread safety
///
/// Thread-local, exactly as [`route_build_count`]; see the note there.
pub fn route_repair_count() -> u64 {
    ROUTE_REPAIRS.with(Cell::get)
}

/// Resets this thread's [`route_repair_count`] to zero.
pub fn reset_route_repair_count() {
    ROUTE_REPAIRS.with(|count| count.set(0));
}

/// Whether [`RouteCache`] repairs incrementally on this thread.
pub fn route_repair_enabled() -> bool {
    REPAIR_ENABLED.with(Cell::get)
}

/// Enables or disables incremental repair on this thread, returning the
/// previous setting. Disabling forces every usable-set transition back
/// onto the historical full-rebuild path — the in-tree oracle the
/// differential tests diff the repair path against.
///
/// # Thread safety
///
/// The flag is **thread-local**: it affects only [`RouteCache`]s driven
/// from the calling thread. Callers that flip it should restore the
/// returned previous value, so the choice cannot leak into later
/// simulations on the same thread.
pub fn set_route_repair_enabled(enabled: bool) -> bool {
    REPAIR_ENABLED.with(|flag| flag.replace(enabled))
}

/// Builds the next-hop table: `table[node] = Some(next)` for every
/// non-sink node that can reach the sink, `None` for disconnected nodes
/// (and for the sink itself).
///
/// For [`RoutingStrategy::MinimumEnergy`] edges exist between nodes within
/// `max_hop` of each other, weighted by the per-bit hop energy of the
/// radio model; [`RoutingStrategy::DirectToSink`] ignores `max_hop`
/// (the amplifier simply pays the full distance).
pub fn build_routes(
    topology: &Topology,
    strategy: RoutingStrategy,
    radio: &RadioEnergyModel,
    max_hop: Length,
) -> Vec<Option<NodeId>> {
    note_route_build();
    match strategy {
        RoutingStrategy::DirectToSink => topology
            .ids()
            .map(|id| {
                if id == topology.sink() {
                    None
                } else {
                    Some(topology.sink())
                }
            })
            .collect(),
        RoutingStrategy::MinimumEnergy => dijkstra_to_sink(topology, radio, max_hop, None),
    }
}

/// [`build_routes`] restricted to the `usable` node subset: nodes with
/// `usable[id] == false` get no route and relay for nobody (the sink is
/// always usable). Equivalent to rebuilding on the sub-topology of the
/// usable nodes, but reuses the full topology's cached CSR hop graph —
/// the id-order-preserving subset walk keeps the result bit-identical
/// to a compact rebuild (pinned in `gather::tests`).
///
/// # Panics
///
/// Panics if `usable` is shorter than the topology.
pub fn build_routes_over(
    topology: &Topology,
    strategy: RoutingStrategy,
    radio: &RadioEnergyModel,
    max_hop: Length,
    usable: &[bool],
) -> Vec<Option<NodeId>> {
    assert!(usable.len() >= topology.len(), "usable mask too short");
    note_route_build();
    let sink = topology.sink();
    match strategy {
        RoutingStrategy::DirectToSink => topology
            .ids()
            .map(|id| {
                if id != sink && usable[id.0] {
                    Some(sink)
                } else {
                    None
                }
            })
            .collect(),
        RoutingStrategy::MinimumEnergy => dijkstra_to_sink(topology, radio, max_hop, Some(usable)),
    }
}

/// A pending heap entry; ordered by `(dist, node)` so ties settle
/// lowest-id-first, matching the historical linear scan.
#[derive(Debug, Clone, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Distances are finite, non-negative path sums: total_cmp is a
        // plain numeric order here, it just satisfies Ord's contract.
        self.dist
            .total_cmp(&other.dist)
            .then(self.node.cmp(&other.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra from the sink outwards over the bounded-range CSR hop
/// graph; each node's parent toward the sink becomes its next hop.
/// With `usable`, non-usable nodes are treated as absent.
fn dijkstra_to_sink(
    topology: &Topology,
    radio: &RadioEnergyModel,
    max_hop: Length,
    usable: Option<&[bool]>,
) -> Vec<Option<NodeId>> {
    let n = topology.len();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::new();
    dijkstra_into(
        topology,
        radio,
        max_hop,
        usable,
        &mut dist,
        &mut parent,
        &mut heap,
    );
    parent
}

/// The Dijkstra core behind [`dijkstra_to_sink`] and the full-build arm
/// of [`RouteCache`]: resets `dist`/`parent` in place and fills both,
/// reusing the caller's heap scratch. Stale heap entries are skipped by
/// the `d > dist[u]` check alone — with strictly positive weights a
/// node's first pop carries its final distance, so a separate visited
/// set changes nothing.
fn dijkstra_into(
    topology: &Topology,
    radio: &RadioEnergyModel,
    max_hop: Length,
    usable: Option<&[bool]>,
    dist: &mut [f64],
    parent: &mut [Option<NodeId>],
    heap: &mut BinaryHeap<Reverse<HeapEntry>>,
) {
    let sink = topology.sink();
    let csr = topology.csr_within(max_hop);
    dist.fill(f64::INFINITY);
    parent.fill(None);
    heap.clear();
    dist[sink.0] = 0.0;
    heap.push(Reverse(HeapEntry {
        dist: 0.0,
        node: sink.0 as u32,
    }));

    while let Some(Reverse(HeapEntry { dist: d, node })) = heap.pop() {
        let u = node as usize;
        if d > dist[u] {
            continue; // stale entry superseded by a better one
        }
        let (targets, hops_m) = csr.neighbors_with_distance(u);
        for (&target, &hop_m) in targets.iter().zip(hops_m) {
            let v = target as usize;
            if let Some(mask) = usable {
                if v != sink.0 && !mask[v] {
                    continue;
                }
            }
            let weight = radio
                .hop_energy_per_bit(Length::from_meters(hop_m))
                .as_joules_per_bit();
            let candidate = dist[u] + weight;
            if candidate < dist[v] {
                dist[v] = candidate;
                parent[v] = Some(NodeId(u));
                heap.push(Reverse(HeapEntry {
                    dist: candidate,
                    node: target,
                }));
            }
        }
    }
}

/// Walks a route table from `node` to the sink, returning the hop
/// sequence (empty when disconnected or when `node` is the sink).
pub fn route_to_sink(table: &[Option<NodeId>], topology: &Topology, node: NodeId) -> Vec<NodeId> {
    let mut path = Vec::new();
    let mut current = node;
    // Bounded walk guards against accidental cycles.
    for _ in 0..table.len() {
        match table[current.0] {
            Some(next) => {
                path.push(next);
                if next == topology.sink() {
                    return path;
                }
                current = next;
            }
            None => return Vec::new(),
        }
    }
    Vec::new()
}

/// A next-hop table cached behind a usable-set epoch.
///
/// The simulators' round loops call [`ensure`](RouteCache::ensure) every
/// time the usable set *may* have changed; the table is recomputed only
/// when it *did* change (fault events are sparse, and a healthy run
/// builds exactly once). Each build also pre-resolves, per node, the
/// transmit energy to its next hop and whether its route reaches the
/// sink, so the per-packet hot loop is pure array reads — no `Vec`
/// allocation, no distance recomputation.
///
/// A minimum-energy transition after the first build runs as an
/// **incremental repair** (see the module docs): only the parent-tree
/// subtrees hanging off the changed nodes are re-relaxed, against the
/// retained distance labels of the previous epoch, using scratch buffers
/// that the cache reuses across transitions. The result is bit-identical
/// to a full rebuild; [`builds`](RouteCache::builds) and
/// [`repairs`](RouteCache::repairs) say which path each transition took.
///
/// # Example
///
/// ```
/// use ami_net::routing::RouteCache;
/// use ami_net::{RoutingStrategy, Topology};
/// use ami_radio::{Packet, RadioEnergyModel};
/// use ami_units::Length;
///
/// let topo = Topology::grid(3, Length::from_meters(20.0));
/// let radio = RadioEnergyModel::short_range_2003();
/// let bits = Packet::sensor_report().total_bits();
/// let mut cache = RouteCache::new(topo.len());
/// let usable = vec![true; topo.len()];
/// let hop = Length::from_meters(45.0);
/// // First ensure builds; an identical usable set is a cache hit.
/// assert!(cache.ensure(&topo, RoutingStrategy::MinimumEnergy, &radio, hop, bits, &usable));
/// assert!(!cache.ensure(&topo, RoutingStrategy::MinimumEnergy, &radio, hop, bits, &usable));
/// assert_eq!(cache.builds(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RouteCache {
    table: Vec<Option<NodeId>>,
    routed_over: Vec<bool>,
    connected: Vec<bool>,
    tx_cost: Vec<f64>,
    /// Final Dijkstra distance labels of the current epoch; the anchor
    /// the repair wave re-relaxes against. Infinity for routeless nodes
    /// and for every node under [`RoutingStrategy::DirectToSink`].
    dist: Vec<f64>,
    builds: u64,
    repairs: u64,
    primed: bool,
    /// Strategy of the current epoch; repair is only sound on top of a
    /// minimum-energy table.
    built_with: Option<RoutingStrategy>,
    scratch: RepairScratch,
}

/// Reusable buffers for [`RouteCache::repair`] and connectivity
/// resolution: after the first transition of a run, repairs and rebuilds
/// touch the allocator not at all (proven by `tests/zero_alloc_faulted`).
#[derive(Debug, Clone, Default)]
struct RepairScratch {
    heap: BinaryHeap<Reverse<HeapEntry>>,
    /// Children CSR over the current parent table: row `p` is
    /// `child_ids[child_off[p]..child_off[p + 1]]`.
    child_off: Vec<u32>,
    child_cursor: Vec<u32>,
    child_ids: Vec<u32>,
    /// Invalidated (or rebooted) nodes, doubling as the BFS worklist.
    affected: Vec<u32>,
    in_affected: Vec<bool>,
    /// Connectivity resolution: 0 unresolved, 1 connected, 2 not.
    conn_state: Vec<u8>,
    conn_chain: Vec<u32>,
}

impl RouteCache {
    /// An unprimed cache for an `nodes`-node topology; the first
    /// [`ensure`](RouteCache::ensure) always builds.
    pub fn new(nodes: usize) -> Self {
        Self {
            table: vec![None; nodes],
            routed_over: vec![false; nodes],
            connected: vec![false; nodes],
            tx_cost: vec![0.0; nodes],
            dist: vec![f64::INFINITY; nodes],
            builds: 0,
            repairs: 0,
            primed: false,
            built_with: None,
            scratch: RepairScratch::default(),
        }
    }

    /// Makes the cached table current for `usable`, recomputing only
    /// when the set differs from the one routes were last built over.
    /// Returns whether a recompute (build or repair) happened. `volume`
    /// sizes the cached per-hop transmit costs (one packet's bits).
    ///
    /// Minimum-energy transitions after the first build repair
    /// incrementally unless [`set_route_repair_enabled`] turned the
    /// optimization off for this thread; either path yields bit-identical
    /// tables, costs, and connectivity.
    ///
    /// # Panics
    ///
    /// Panics if `usable` or the topology disagree with the node count
    /// the cache was created for.
    pub fn ensure(
        &mut self,
        topology: &Topology,
        strategy: RoutingStrategy,
        radio: &RadioEnergyModel,
        max_hop: Length,
        volume: DataVolume,
        usable: &[bool],
    ) -> bool {
        let n = self.table.len();
        assert_eq!(topology.len(), n, "topology/cache node count mismatch");
        assert_eq!(usable.len(), n, "usable mask/cache node count mismatch");
        if self.primed && self.routed_over == usable {
            return false;
        }
        let repairable = self.primed
            && strategy == RoutingStrategy::MinimumEnergy
            && self.built_with == Some(RoutingStrategy::MinimumEnergy)
            && route_repair_enabled();
        if repairable {
            self.repair(topology, radio, max_hop, usable);
            note_route_repair();
            self.repairs += 1;
        } else {
            match strategy {
                RoutingStrategy::DirectToSink => {
                    let sink = topology.sink();
                    for id in topology.ids() {
                        self.table[id.0] = if id != sink && usable[id.0] {
                            Some(sink)
                        } else {
                            None
                        };
                    }
                    self.dist.fill(f64::INFINITY);
                }
                RoutingStrategy::MinimumEnergy => {
                    dijkstra_into(
                        topology,
                        radio,
                        max_hop,
                        Some(usable),
                        &mut self.dist,
                        &mut self.table,
                        &mut self.scratch.heap,
                    );
                }
            }
            note_route_build();
            self.builds += 1;
        }
        self.routed_over.copy_from_slice(usable);
        for id in topology.ids() {
            self.tx_cost[id.0] = match self.table[id.0] {
                Some(next) => radio
                    .transmit_energy(volume, topology.distance(id, next))
                    .as_joules(),
                None => 0.0,
            };
        }
        self.resolve_connectivity(topology.sink());
        self.built_with = Some(strategy);
        self.primed = true;
        true
    }

    /// Splices the cached minimum-energy table from the previous usable
    /// set onto `usable` without a full Dijkstra.
    ///
    /// Correctness rests on the canonical-parent property of the full
    /// build: with `(dist, id)` heap ordering and strictly positive
    /// weights, `table[v]` is always the optimal predecessor minimizing
    /// `(dist, id)`. Nodes outside the subtrees of changed nodes keep
    /// both labels — removals can only lengthen paths elsewhere, so
    /// their surviving tree path and parent choice stand — while every
    /// node inside is re-seeded from the untouched frontier and
    /// re-relaxed; reboots enter the same wave as improvement sources.
    /// Ties discovered during the wave adopt a predecessor only when its
    /// `(dist, id)` beats the incumbent's, reproducing the settle order
    /// of a from-scratch run bit for bit.
    fn repair(
        &mut self,
        topology: &Topology,
        radio: &RadioEnergyModel,
        max_hop: Length,
        usable: &[bool],
    ) {
        let n = self.table.len();
        let sink = topology.sink().0;
        let csr = topology.csr_within(max_hop);
        let s = &mut self.scratch;

        // Children index over the outgoing parent table, so subtree
        // invalidation is O(subtree) instead of O(N) per changed node.
        s.child_off.clear();
        s.child_off.resize(n + 1, 0);
        for parent in self.table.iter().flatten() {
            s.child_off[parent.0 + 1] += 1;
        }
        for p in 0..n {
            s.child_off[p + 1] += s.child_off[p];
        }
        s.child_cursor.clear();
        s.child_cursor.extend_from_slice(&s.child_off[..n]);
        s.child_ids.clear();
        s.child_ids.resize(s.child_off[n] as usize, 0);
        for (v, parent) in self.table.iter().enumerate() {
            if let Some(p) = parent {
                let slot = s.child_cursor[p.0] as usize;
                s.child_ids[slot] = v as u32;
                s.child_cursor[p.0] += 1;
            }
        }

        // Diff the epochs. Newly-unusable nodes lose their labels and
        // stay routeless; rebooted nodes join the affected set so the
        // wave gives them (back) a route. The sink is always usable.
        s.affected.clear();
        s.in_affected.clear();
        s.in_affected.resize(n, false);
        for (v, &now_usable) in usable.iter().enumerate() {
            if v == sink || self.routed_over[v] == now_usable {
                continue;
            }
            if !now_usable {
                self.dist[v] = f64::INFINITY;
                self.table[v] = None;
            }
            s.in_affected[v] = true;
            s.affected.push(v as u32);
        }

        // Everything routing *through* a changed node is stale too:
        // invalidate the parent-tree subtrees breadth-first.
        let mut head = 0;
        while head < s.affected.len() {
            let u = s.affected[head] as usize;
            head += 1;
            let lo = s.child_off[u] as usize;
            let hi = s.child_off[u + 1] as usize;
            for idx in lo..hi {
                let c = s.child_ids[idx] as usize;
                if !s.in_affected[c] {
                    s.in_affected[c] = true;
                    self.dist[c] = f64::INFINITY;
                    self.table[c] = None;
                    s.affected.push(c as u32);
                }
            }
        }

        // Seed each affected usable node from its best untouched usable
        // neighbour: among minimum-candidate predecessors the one with
        // the lowest (dist, id) — exactly the parent a full run's settle
        // order would have recorded first.
        s.heap.clear();
        for &vu in &s.affected {
            let v = vu as usize;
            if !usable[v] {
                continue;
            }
            let (targets, hops_m) = csr.neighbors_with_distance(v);
            let mut best = f64::INFINITY;
            let mut best_pred = usize::MAX;
            let mut best_pred_dist = f64::INFINITY;
            for (&target, &hop_m) in targets.iter().zip(hops_m) {
                let p = target as usize;
                if s.in_affected[p] || (p != sink && !usable[p]) {
                    continue;
                }
                let dp = self.dist[p];
                if !dp.is_finite() {
                    continue;
                }
                let weight = radio
                    .hop_energy_per_bit(Length::from_meters(hop_m))
                    .as_joules_per_bit();
                let candidate = dp + weight;
                if candidate < best || (candidate == best && (dp, p) < (best_pred_dist, best_pred))
                {
                    best = candidate;
                    best_pred = p;
                    best_pred_dist = dp;
                }
            }
            if best_pred != usize::MAX {
                self.dist[v] = best;
                self.table[v] = Some(NodeId(best_pred));
                s.heap.push(Reverse(HeapEntry {
                    dist: best,
                    node: vu,
                }));
            }
        }

        // Bounded re-relaxation wave. Strict improvements propagate as
        // in a full run; an equal-distance candidate only steals the
        // parent slot when its (dist, id) precedes the incumbent's (and
        // needs no re-push: children pick parents by label values, which
        // a tie does not change).
        while let Some(Reverse(HeapEntry { dist: d, node })) = s.heap.pop() {
            let u = node as usize;
            if d > self.dist[u] {
                continue;
            }
            let du = self.dist[u];
            let (targets, hops_m) = csr.neighbors_with_distance(u);
            for (&target, &hop_m) in targets.iter().zip(hops_m) {
                let v = target as usize;
                if v == sink || !usable[v] {
                    continue;
                }
                let weight = radio
                    .hop_energy_per_bit(Length::from_meters(hop_m))
                    .as_joules_per_bit();
                let candidate = du + weight;
                let dv = self.dist[v];
                if candidate < dv {
                    self.dist[v] = candidate;
                    self.table[v] = Some(NodeId(u));
                    s.heap.push(Reverse(HeapEntry {
                        dist: candidate,
                        node: target,
                    }));
                } else if candidate == dv {
                    if let Some(incumbent) = self.table[v] {
                        if (du, u) < (self.dist[incumbent.0], incumbent.0) {
                            self.table[v] = Some(NodeId(u));
                        }
                    }
                }
            }
        }
    }

    /// Fills `connected` by walking the table with memoization: each
    /// node is marked by the verdict of the first already-resolved node
    /// (or the sink / a dead end / the cycle bound) its chain reaches.
    fn resolve_connectivity(&mut self, sink: NodeId) {
        let n = self.table.len();
        let state = &mut self.scratch.conn_state;
        state.clear();
        state.resize(n, 0);
        let chain = &mut self.scratch.conn_chain;
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            chain.clear();
            let mut current = start;
            let verdict = loop {
                if state[current] != 0 {
                    break state[current];
                }
                chain.push(current as u32);
                match self.table[current] {
                    None => break 2,
                    Some(next) if next == sink => break 1,
                    // Longer than n hops means a cycle: disconnected,
                    // matching `route_to_sink`'s bounded walk.
                    Some(next) => {
                        if chain.len() > n {
                            break 2;
                        }
                        current = next.0;
                    }
                }
            };
            for &id in chain.iter() {
                state[id as usize] = verdict;
            }
        }
        for (flag, s) in self.connected.iter_mut().zip(state.iter()) {
            *flag = *s == 1;
        }
    }

    /// The cached next-hop table.
    pub fn table(&self) -> &[Option<NodeId>] {
        &self.table
    }

    /// Next hop of `node`, `None` when routeless (or the sink).
    pub fn next_hop(&self, node: NodeId) -> Option<NodeId> {
        self.table[node.0]
    }

    /// Whether `node`'s cached route reaches the sink.
    pub fn is_connected(&self, node: NodeId) -> bool {
        self.connected[node.0]
    }

    /// Transmit energy (joules) for `node` to push one cached-volume
    /// packet to its next hop; `0.0` for routeless nodes.
    pub fn tx_cost(&self, node: NodeId) -> f64 {
        self.tx_cost[node.0]
    }

    /// All per-node transmit costs, indexed by raw id — the bulk form
    /// of [`tx_cost`](Self::tx_cost) for kernels that fold charges over
    /// many nodes per round (the lossy charge commits and the packed
    /// route image index this slice directly instead of paying a method
    /// call per node).
    pub fn tx_costs(&self) -> &[f64] {
        &self.tx_cost
    }

    /// All per-node connectivity flags, indexed by raw id — the bulk
    /// form of [`is_connected`](Self::is_connected).
    pub fn connected_flags(&self) -> &[bool] {
        &self.connected
    }

    /// Route builds this cache has performed.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Incremental repairs this cache has performed; together with
    /// [`builds`](RouteCache::builds) this accounts for every usable-set
    /// transition the cache has absorbed.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// The cache's route epoch: bumped by every build or repair, so two
    /// equal epochs on the same cache instance mean an identical table.
    pub fn epoch(&self) -> u64 {
        self.builds + self.repairs
    }
}

/// Route arrays packed for hop-walk hot loops: a 4-byte next-hop id and
/// an 8-byte transmit cost per node, refreshed lazily per route epoch.
///
/// The cache's own `table()` stores `Option<NodeId>` (16 bytes, with a
/// discriminant test per fetch); packing it once per epoch lets the
/// aggregation, lossy-ARQ and region-parallel walk loops chase routes
/// through two flat reads per hop. Values are copied verbatim from the
/// cache, so every consumer stays bit-identical to the method-call
/// path.
#[derive(Debug, Clone)]
pub(crate) struct PackedRoutes {
    /// Next hop per node; `u32::MAX` = routeless (or the sink).
    pub(crate) parent: Vec<u32>,
    /// Transmit cost along the parent edge, joules.
    pub(crate) tx: Vec<f64>,
    epoch: Option<u64>,
}

impl PackedRoutes {
    pub(crate) fn new(nodes: usize) -> Self {
        Self {
            parent: vec![u32::MAX; nodes],
            tx: vec![0.0; nodes],
            epoch: None,
        }
    }

    /// Repacks from `cache` if its epoch moved since the last call.
    /// Returns true when a repack happened.
    pub(crate) fn ensure(&mut self, cache: &RouteCache) -> bool {
        if self.epoch == Some(cache.epoch()) {
            return false;
        }
        for (slot, hop) in self.parent.iter_mut().zip(cache.table()) {
            *slot = hop.map_or(u32::MAX, |h| h.0 as u32);
        }
        self.tx.copy_from_slice(cache.tx_costs());
        self.epoch = Some(cache.epoch());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn radio() -> RadioEnergyModel {
        RadioEnergyModel::short_range_2003()
    }

    // The historical O(N²) scan-Dijkstra oracle and the tests diffing
    // the heap implementation against it live in
    // `tests/common/oracle.rs` + `tests/differential.rs`, shared with
    // the incremental-repair differential layer.

    #[test]
    fn direct_routes_all_point_at_sink() {
        let topo = Topology::grid(3, Length::from_meters(10.0));
        let table = build_routes(
            &topo,
            RoutingStrategy::DirectToSink,
            &radio(),
            Length::from_meters(15.0),
        );
        assert_eq!(table[0], None);
        for id in topo.sensor_ids() {
            assert_eq!(table[id.0], Some(topo.sink()));
        }
    }

    #[test]
    fn min_energy_relays_long_paths() {
        // A 5-wide grid at 30 m spacing: corner-to-corner is 120 m+,
        // far beyond the 44.7 m crossover, so far nodes must relay.
        let topo = Topology::grid(5, Length::from_meters(30.0));
        let table = build_routes(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            Length::from_meters(45.0),
        );
        let far = NodeId(24); // opposite corner
        let path = route_to_sink(&table, &topo, far);
        assert!(
            path.len() >= 2,
            "the far corner must take multiple hops, got {path:?}"
        );
        assert_eq!(*path.last().unwrap(), topo.sink());
    }

    #[test]
    fn min_energy_prefers_direct_when_close() {
        let topo = Topology::star(4, Length::from_meters(10.0));
        let table = build_routes(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            Length::from_meters(50.0),
        );
        for id in topo.sensor_ids() {
            assert_eq!(table[id.0], Some(topo.sink()), "close leaves go direct");
        }
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        // Two nodes 100 m apart with a 10 m radio: unreachable.
        let topo = Topology::new(vec![
            crate::topology::Position::new(0.0, 0.0),
            crate::topology::Position::new(100.0, 0.0),
        ]);
        let table = build_routes(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            Length::from_meters(10.0),
        );
        assert_eq!(table[1], None);
        assert!(route_to_sink(&table, &topo, NodeId(1)).is_empty());
    }

    #[test]
    fn dijkstra_paths_never_exceed_range() {
        let topo = Topology::random(40, Length::from_meters(120.0), 11);
        let range = Length::from_meters(40.0);
        let table = build_routes(&topo, RoutingStrategy::MinimumEnergy, &radio(), range);
        for id in topo.sensor_ids() {
            let mut current = id;
            for hop in route_to_sink(&table, &topo, id) {
                assert!(topo.distance(current, hop) <= range);
                current = hop;
            }
        }
    }

    #[test]
    fn build_routes_over_excludes_unusable_relays() {
        // Sink—1—2 line: with node 1 masked out, node 2 is routeless.
        let topo = Topology::new(vec![
            crate::topology::Position::new(0.0, 0.0),
            crate::topology::Position::new(40.0, 0.0),
            crate::topology::Position::new(80.0, 0.0),
        ]);
        let table = build_routes_over(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            Length::from_meters(45.0),
            &[true, false, true],
        );
        assert_eq!(table[1], None);
        assert_eq!(table[2], None);
        // DirectToSink ignores relays but still drops masked senders.
        let direct = build_routes_over(
            &topo,
            RoutingStrategy::DirectToSink,
            &radio(),
            Length::from_meters(45.0),
            &[true, false, true],
        );
        assert_eq!(direct, vec![None, None, Some(NodeId(0))]);
    }

    #[test]
    fn route_cache_rebuilds_only_on_usable_changes() {
        let topo = Topology::grid(4, Length::from_meters(30.0));
        let bits = ami_radio::Packet::sensor_report().total_bits();
        let hop = Length::from_meters(45.0);
        let mut cache = RouteCache::new(topo.len());
        let mut usable = vec![true; topo.len()];
        assert!(cache.ensure(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            hop,
            bits,
            &usable
        ));
        for _ in 0..10 {
            assert!(!cache.ensure(
                &topo,
                RoutingStrategy::MinimumEnergy,
                &radio(),
                hop,
                bits,
                &usable
            ));
        }
        usable[5] = false;
        assert!(cache.ensure(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            hop,
            bits,
            &usable
        ));
        // The transition is absorbed by an incremental repair, not a
        // second full build.
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.repairs(), 1);
        assert_eq!(cache.next_hop(NodeId(5)), None);
        assert!(!cache.is_connected(NodeId(5)));
        assert_eq!(cache.tx_cost(NodeId(5)), 0.0);
    }

    #[test]
    fn disabling_repair_restores_the_full_rebuild_oracle_path() {
        let topo = Topology::grid(4, Length::from_meters(30.0));
        let bits = ami_radio::Packet::sensor_report().total_bits();
        let hop = Length::from_meters(45.0);
        let mut cache = RouteCache::new(topo.len());
        let mut usable = vec![true; topo.len()];
        let previous = set_route_repair_enabled(false);
        cache.ensure(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            hop,
            bits,
            &usable,
        );
        usable[5] = false;
        cache.ensure(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            hop,
            bits,
            &usable,
        );
        set_route_repair_enabled(previous);
        assert_eq!(cache.builds(), 2, "oracle path rebuilds per transition");
        assert_eq!(cache.repairs(), 0);
    }

    #[test]
    fn strategy_change_falls_back_to_a_full_build() {
        // A direct-to-sink epoch leaves no distance labels to repair
        // against; switching strategies must rebuild, not splice.
        let topo = Topology::grid(3, Length::from_meters(20.0));
        let bits = ami_radio::Packet::sensor_report().total_bits();
        let hop = Length::from_meters(45.0);
        let mut cache = RouteCache::new(topo.len());
        let mut usable = vec![true; topo.len()];
        cache.ensure(
            &topo,
            RoutingStrategy::DirectToSink,
            &radio(),
            hop,
            bits,
            &usable,
        );
        usable[4] = false;
        cache.ensure(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            hop,
            bits,
            &usable,
        );
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.repairs(), 0);
        let fresh = build_routes_over(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            hop,
            &usable,
        );
        assert_eq!(cache.table(), fresh.as_slice());
    }

    #[test]
    fn cached_tx_costs_match_inline_computation() {
        let topo = Topology::random(30, Length::from_meters(120.0), 3);
        let bits = ami_radio::Packet::sensor_report().total_bits();
        let hop = Length::from_meters(45.0);
        let mut cache = RouteCache::new(topo.len());
        let usable = vec![true; topo.len()];
        cache.ensure(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            hop,
            bits,
            &usable,
        );
        for id in topo.ids() {
            match cache.next_hop(id) {
                Some(next) => {
                    let inline = radio()
                        .transmit_energy(bits, topo.distance(id, next))
                        .as_joules();
                    assert_eq!(
                        cache.tx_cost(id).to_bits(),
                        inline.to_bits(),
                        "tx cost for {id} must be bit-identical"
                    );
                    assert_eq!(
                        cache.is_connected(id),
                        !route_to_sink(cache.table(), &topo, id).is_empty()
                    );
                }
                None => assert_eq!(cache.tx_cost(id), 0.0),
            }
        }
    }

    #[test]
    fn build_count_hook_tracks_thread_local_builds() {
        reset_route_build_count();
        let topo = Topology::grid(3, Length::from_meters(20.0));
        let before = route_build_count();
        let _ = build_routes(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            Length::from_meters(45.0),
        );
        assert_eq!(route_build_count(), before + 1);
    }
}
