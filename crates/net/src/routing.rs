//! Route construction: who relays for whom.
//!
//! The minimum-energy strategy runs a binary-heap Dijkstra over the
//! topology's cached [`CsrAdjacency`] hop graph, on the graph's local
//! indices: labels, parents and the usable mask are laid out in the
//! graph's spatial order, so settling a node touches the labels of its
//! neighbours a few cache lines apart. Tie-breaking rests on the heap
//! alone: each entry carries the node's original [`NodeId`] beside its
//! local index and pops in `(dist, id)` order, so among equal tentative
//! distances the lowest id settles first, exactly like the O(N²) scan
//! it replaced, whatever order a row lists its neighbours in. Route
//! tables — and every golden manifest built on them — are therefore
//! bit-identical to the historical implementation (`tests` pin this
//! against a reference scan). Each relaxation reads its edge's price
//! from the topology's cached [`HopWeights`] column (the same f64 the
//! radio model computes for the hop), zipped with the graph's targets
//! over the row's edge range, so no build or repair calls the radio
//! model per edge.
//!
//! [`RouteCache`] solves one route problem: the topology, strategy,
//! radio model, hop range and packet volume are fixed when it is built,
//! and the usable mask is its only key. The table is recomputed only
//! when the mask differs from the one the routes were last built over,
//! and each build pre-resolves per-node next hops, transmit costs and
//! sink connectivity so the simulators' round loops touch no allocator
//! and recompute no distances. A minimum-energy cache takes the
//! topology's hop graph and its weight column when it is built, holds
//! both, and keeps its labels, parents and usable mask in the graph's
//! order. Under [`RoutingStrategy::DirectToSink`] it reads no hop graph
//! at all and its columns follow ids.
//!
//! Since the city-scale work, a usable-set *change* no longer pays a
//! full-graph Dijkstra: the cache keeps the final distance labels of the
//! last build and performs **incremental route repair** — it invalidates
//! exactly the parent-tree subtrees hanging off newly-unusable nodes
//! (plus any rebooted nodes), re-seeds the frontier from untouched
//! neighbours, and re-relaxes only that wave, all on local indices, with
//! every tie compared on original ids. Because heap Dijkstra with
//! `(dist, id)` tie-breaking makes every node's parent a pure function
//! of the final distance labels (the lowest-`(dist, id)` optimal
//! predecessor), the repaired table is bit-identical to a from-scratch
//! rebuild — a contract pinned by the differential tests in
//! `tests/differential.rs`, which drive random topologies × random fault
//! schedules through both paths. The full-rebuild path stays in-tree as
//! that oracle, reachable via [`set_route_repair_enabled`]. Repairs are
//! observable through [`route_repair_count`] next to the existing
//! [`route_build_count`].
//!
//! Every build or repair also lays the table out as a **heavy-path
//! image** (`RouteImage`): a depth-first walk from the sink that visits
//! the child with the largest subtree first (ties to the lowest id)
//! numbers the nodes, so every subtree is one contiguous range of
//! positions, every heavy path is a run of consecutive positions, and a
//! route crosses at most ⌊log₂ n⌋ light edges. The cache keeps `pos[id]`
//! plus, per position, the parent's position, the transmit cost, the
//! original id and — for a gathering session, whose kernel alone reads
//! it — where the position's subtree ends; the round kernels walk
//! positions, so a route reads a few sequential runs instead of one
//! random node id per hop, and a subtree is one range to scan. The image
//! is rebuilt with the table, so it carries no key of its own; its
//! transmit-cost column is the only one the cache stores, and it answers
//! [`RouteCache::next_hop`] in id space.

use crate::csr::{CsrAdjacency, HopWeights};
use crate::topology::{NodeId, Topology};
use ami_radio::RadioEnergyModel;
use ami_units::{DataVolume, Length};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A [`RouteCache`] next-hop slot with no next hop: routeless nodes and
/// the sink.
pub(crate) const NO_HOP: u32 = u32::MAX;

/// The sink's position in every [`RouteImage`]: the depth-first walk
/// starts there.
pub(crate) const SINK_POS: u32 = 0;

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
/// lossy round driver resolves routes on the caller's thread,
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
/// the last [`reset_route_repair_count`]. A usable-set change costs
/// one repair instead of one build whenever the cache can splice the
/// affected subtrees; builds + repairs together account for every
/// change.
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
/// previous setting. Disabling forces every usable-set change back
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
        RoutingStrategy::MinimumEnergy => dijkstra_to_sink(topology, radio, max_hop),
    }
}

/// A pending heap entry: a node's tentative distance, its original id
/// and its local index in the hop graph. Ordered by `(dist, id)` alone
/// (the local index is a function of the id), so ties settle
/// lowest-id-first, matching the historical linear scan. 16 bytes.
#[derive(Debug, Clone, PartialEq)]
struct HeapEntry {
    dist: f64,
    id: u32,
    local: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Distances are finite, non-negative path sums: total_cmp is a
        // plain numeric order here, it just satisfies Ord's contract.
        self.dist
            .total_cmp(&other.dist)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra from the sink outwards over the bounded-range CSR hop
/// graph; each node's parent toward the sink becomes its next hop.
fn dijkstra_to_sink(
    topology: &Topology,
    radio: &RadioEnergyModel,
    max_hop: Length,
) -> Vec<Option<NodeId>> {
    let csr = topology.csr_within(max_hop);
    let weights = topology.hop_weights(max_hop, radio);
    let order = csr.order();
    let n = order.len();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![NO_HOP; n];
    let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::new();
    dijkstra_into(
        &csr,
        weights.joules_per_bit(),
        csr.local_of(topology.sink().0),
        None,
        &mut dist,
        &mut parent,
        &mut heap,
    );
    // The labels are dead: free them before the table is allocated.
    drop((dist, heap));
    let mut table = vec![None; n];
    for (&id, &hop) in order.iter().zip(&parent) {
        if hop != NO_HOP {
            table[id as usize] = Some(NodeId(order[hop as usize] as usize));
        }
    }
    table
}

/// The Dijkstra core behind [`dijkstra_to_sink`] and the full-build arm
/// of [`RouteCache`], on the local indices of `csr` (whose edges
/// `weights` prices): resets `dist`/`parent` in place and fills both
/// (`parent` as local indices, [`NO_HOP`] where there is no route),
/// reusing the caller's heap scratch. `sink` is the sink's local index
/// and `usable`, when given, the usable mask in local order. Stale heap
/// entries are skipped by the `d > dist[u]` check alone — with strictly
/// positive weights a node's first pop carries its final distance, so a
/// separate visited set changes nothing.
fn dijkstra_into(
    csr: &CsrAdjacency,
    weights: &[f64],
    sink: usize,
    usable: Option<&[bool]>,
    dist: &mut [f64],
    parent: &mut [u32],
    heap: &mut BinaryHeap<Reverse<HeapEntry>>,
) {
    let (order, targets) = (csr.order(), csr.targets());
    dist.fill(f64::INFINITY);
    parent.fill(NO_HOP);
    heap.clear();
    dist[sink] = 0.0;
    heap.push(Reverse(HeapEntry {
        dist: 0.0,
        id: order[sink],
        local: sink as u32,
    }));

    while let Some(Reverse(HeapEntry { dist: d, local, .. })) = heap.pop() {
        let u = local as usize;
        if d > dist[u] {
            continue; // stale entry superseded by a better one
        }
        let row = csr.row(u);
        for (&target, &weight) in targets[row.clone()].iter().zip(&weights[row]) {
            let v = target as usize;
            if let Some(mask) = usable {
                if v != sink && !mask[v] {
                    continue;
                }
            }
            let candidate = dist[u] + weight;
            if candidate < dist[v] {
                dist[v] = candidate;
                parent[v] = local;
                heap.push(Reverse(HeapEntry {
                    dist: candidate,
                    id: order[v],
                    local: target,
                }));
            }
        }
    }
}

/// Lays out the children CSR of `parent` (each entry an index into it,
/// or [`NO_HOP`]): row `p` is `child_ids[child_off[p]..child_off[p + 1]]`,
/// in ascending child index. Sizes both buffers for any table over
/// `parent`'s nodes, so it allocates only when they are empty.
fn fill_children(parent: &[u32], child_off: &mut Vec<u32>, child_ids: &mut Vec<u32>) {
    let n = parent.len();
    child_off.clear();
    child_off.resize(n + 1, 0);
    for &p in parent {
        if p != NO_HOP {
            child_off[p as usize + 1] += 1;
        }
    }
    for p in 0..n {
        child_off[p + 1] += child_off[p];
    }
    child_ids.clear();
    child_ids.reserve(n);
    child_ids.resize(child_off[n] as usize, 0);
    // `child_off[p]` serves as row p's fill cursor, which leaves it at
    // the row's end, the next row's start: shift back by one.
    for (v, &p) in parent.iter().enumerate() {
        if p != NO_HOP {
            let cursor = &mut child_off[p as usize];
            child_ids[*cursor as usize] = v as u32;
            *cursor += 1;
        }
    }
    child_off.copy_within(0..n, 1);
    child_off[0] = 0;
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

/// A next-hop table for one route problem, cached behind a usable-set
/// epoch.
///
/// [`new`](RouteCache::new) fixes the topology, strategy, radio model,
/// hop range and packet volume for the cache's life, so the usable mask
/// is its only key. The simulators' round loops call
/// [`ensure`](RouteCache::ensure) every time the usable set *may* have
/// changed; the table is recomputed only when it *did* change (fault
/// events are sparse, and a healthy run builds exactly once). Each build
/// also pre-resolves, per node, the transmit energy to its next hop and
/// whether its route reaches the sink, and lays the table out as its
/// heavy-path image (see the module docs), so the per-packet hot loop is
/// sequential array reads — no `Vec` allocation, no distance
/// recomputation.
///
/// A minimum-energy change after the first build runs as an
/// **incremental repair** (see the module docs): only the parent-tree
/// subtrees hanging off the changed nodes are re-relaxed, against the
/// retained distance labels of the previous epoch, using scratch buffers
/// that the cache reuses across changes. The result is bit-identical
/// to a full rebuild; [`builds`](RouteCache::builds) and
/// [`repairs`](RouteCache::repairs) say which path each change took.
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
/// let hop = Length::from_meters(45.0);
/// let mut cache = RouteCache::new(&topo, RoutingStrategy::MinimumEnergy, &radio, hop, bits);
/// let usable = vec![true; topo.len()];
/// // First ensure builds; an identical usable set is a cache hit.
/// assert!(cache.ensure(&usable));
/// assert!(!cache.ensure(&usable));
/// assert_eq!(cache.builds(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RouteCache<'a> {
    topology: &'a Topology,
    radio: RadioEnergyModel,
    /// Bits per packet, the volume the transmit costs price.
    volume: DataVolume,
    /// The hop graph of a minimum-energy cache and its edge prices:
    /// `parent`, `routed_over`, `dist` and the carried costs follow the
    /// graph's node order. `None` under [`RoutingStrategy::DirectToSink`],
    /// whose columns follow ids.
    graph: Option<(Arc<CsrAdjacency>, Arc<HopWeights>)>,
    /// The next-hop table in the epoch's node order, [`NO_HOP`] for
    /// routeless nodes and the sink: the column route repair reads.
    parent: Vec<u32>,
    /// The usable mask of the epoch, in its node order.
    routed_over: Vec<bool>,
    /// Sink connectivity, indexed by id.
    connected: Vec<bool>,
    /// The current table's heavy-path image, rebuilt with the table.
    image: RouteImage,
    /// Final Dijkstra distance labels of the current epoch, in its node
    /// order; the anchor the repair wave re-relaxes against. Infinity
    /// for routeless nodes and for every node under
    /// [`RoutingStrategy::DirectToSink`].
    dist: Vec<f64>,
    builds: u64,
    repairs: u64,
    /// Transmit costs carried across recomputes, so an image build
    /// prices only the nodes whose next hop moved.
    carried: CarriedCosts,
    scratch: RepairScratch,
}

/// Transmit costs and the next hop each was priced for, in the epoch's
/// node order. Empty until the cache's first repair seeds them from the
/// outgoing image (a cache that never repairs carries no bytes).
#[derive(Debug, Clone, Default)]
struct CarriedCosts {
    /// `cost[v]`: joules of one cached-volume packet from `v` to
    /// `hop[v]`, `0.0` when `hop[v]` is [`NO_HOP`].
    cost: Vec<f64>,
    hop: Vec<u32>,
}

/// A route table laid out by a depth-first walk from the sink that
/// visits the child with the largest subtree first, ties to the lowest
/// id, numbering nodes in visit order: the sink is position
/// [`SINK_POS`], every subtree occupies one contiguous range of
/// positions, and each heavy child sits right after its parent, so a
/// route toward the sink walks runs of descending positions and crosses
/// at most ⌊log₂ n⌋ light edges. Nodes the walk does not reach (the
/// routeless) take the remaining positions in ascending id.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RouteImage {
    /// Position of each node, indexed by id.
    pub(crate) pos: Vec<u32>,
    /// The next hop's position, indexed by position; [`NO_HOP`] for the
    /// sink and routeless nodes.
    pub(crate) parent: Vec<u32>,
    /// Transmit energy (joules) of one cached-volume packet to the next
    /// hop, indexed by position; `0.0` without a next hop.
    pub(crate) tx: Vec<f64>,
    /// The node id at each position.
    pub(crate) id: Vec<u32>,
    /// One past the last position of the subtree rooted at each
    /// position (the position plus the subtree's size), indexed by
    /// position; the next position for routeless nodes. Empty unless a
    /// gathering session asked for it
    /// ([`RouteCache::keep_subtree_ends`]): only its kernel reads it.
    pub(crate) end: Vec<u32>,
}

/// Reusable buffers for [`RouteCache::repair`] and the image build:
/// after the first change of a run, repairs and rebuilds touch the
/// allocator not at all (proven by `tests/zero_alloc_faulted`).
#[derive(Debug, Clone, Default)]
struct RepairScratch {
    heap: BinaryHeap<Reverse<HeapEntry>>,
    /// Children CSR over the current parent table, in its node order:
    /// row `p` is `child_ids[child_off[p]..child_off[p + 1]]`. Empty
    /// until the cache's first repair sizes it from the outgoing table
    /// (a cache that never repairs keeps no bytes here: its image builds
    /// lay the CSR out in temporaries); from then on every image build
    /// rewrites it in place, rows heaviest child first.
    child_off: Vec<u32>,
    child_ids: Vec<u32>,
    /// Invalidated (or rebooted) nodes, doubling as the BFS worklist.
    affected: Vec<u32>,
    in_affected: Vec<bool>,
}

impl<'a> RouteCache<'a> {
    /// An unprimed cache routing `topology` with `strategy`: hops within
    /// `max_hop`, priced under `radio`, with transmit costs for one
    /// packet of `volume`. A minimum-energy cache takes the topology's
    /// hop graph for `max_hop` and its weight column under `radio` here.
    /// The first [`ensure`](RouteCache::ensure) always builds.
    ///
    /// # Panics
    ///
    /// Panics if the topology has more than `u32::MAX` nodes (node ids
    /// are stored as `u32`, with `u32::MAX` marking "no next hop").
    pub fn new(
        topology: &'a Topology,
        strategy: RoutingStrategy,
        radio: &RadioEnergyModel,
        max_hop: Length,
        volume: DataVolume,
    ) -> Self {
        let nodes = topology.len();
        assert!(u32::try_from(nodes).is_ok(), "node ids must fit in u32");
        let graph = (strategy == RoutingStrategy::MinimumEnergy).then(|| {
            (
                topology.csr_within(max_hop),
                topology.hop_weights(max_hop, radio),
            )
        });
        Self {
            topology,
            radio: *radio,
            volume,
            graph,
            parent: vec![NO_HOP; nodes],
            routed_over: vec![false; nodes],
            connected: vec![false; nodes],
            // Sized once here, so image builds never allocate.
            image: RouteImage {
                pos: vec![0; nodes],
                parent: vec![NO_HOP; nodes],
                tx: vec![0.0; nodes],
                id: vec![0; nodes],
                end: Vec::new(),
            },
            dist: vec![f64::INFINITY; nodes],
            builds: 0,
            repairs: 0,
            carried: CarriedCosts::default(),
            scratch: RepairScratch::default(),
        }
    }

    /// Makes the cached table current for `usable`, the nodes routing
    /// may use (by id; the sink always is), recomputing only when it
    /// differs from the mask the current epoch was built over. Returns
    /// whether a recompute (build or repair) happened.
    ///
    /// After the first build, a minimum-energy table is repaired
    /// incrementally unless [`set_route_repair_enabled`] turned the
    /// optimization off for this thread; either path yields
    /// bit-identical tables, costs, and connectivity.
    ///
    /// # Panics
    ///
    /// Panics if `usable` does not hold one flag per node.
    pub fn ensure(&mut self, usable: &[bool]) -> bool {
        let n = self.parent.len();
        assert_eq!(usable.len(), n, "usable mask/cache node count mismatch");
        let built = self.builds > 0;
        if built && self.routed_over_equals(usable) {
            return false;
        }
        let sink = self.topology.sink().0;
        match self.graph.clone() {
            None => {
                for (id, hop) in self.parent.iter_mut().enumerate() {
                    *hop = if id != sink && usable[id] {
                        sink as u32
                    } else {
                        NO_HOP
                    };
                }
                self.routed_over.copy_from_slice(usable);
                self.dist.fill(f64::INFINITY);
                note_route_build();
                self.builds += 1;
                self.build_image(sink, |v| v);
            }
            Some((csr, weights)) => {
                let order = csr.order();
                let local_sink = csr.local_of(sink);
                if built && route_repair_enabled() {
                    if self.carried.hop.is_empty() {
                        // Seed from the outgoing epoch, whose image priced
                        // every next hop.
                        let (carried, image) = (&mut self.carried, &self.image);
                        carried.hop.extend_from_slice(&self.parent);
                        carried.cost.extend(
                            order
                                .iter()
                                .map(|&id| image.tx[image.pos[id as usize] as usize]),
                        );
                    }
                    self.repair(&csr, weights.joules_per_bit(), local_sink, usable);
                    note_route_repair();
                    self.repairs += 1;
                } else {
                    for (flag, &id) in self.routed_over.iter_mut().zip(order) {
                        *flag = usable[id as usize];
                    }
                    dijkstra_into(
                        &csr,
                        weights.joules_per_bit(),
                        local_sink,
                        Some(&self.routed_over),
                        &mut self.dist,
                        &mut self.parent,
                        &mut self.scratch.heap,
                    );
                    note_route_build();
                    self.builds += 1;
                }
                self.build_image(local_sink, |l| order[l] as usize);
            }
        }
        true
    }

    /// Whether `usable` (by id) is the mask the current epoch was built
    /// over (kept in the epoch's node order).
    fn routed_over_equals(&self, usable: &[bool]) -> bool {
        match &self.graph {
            Some((csr, _)) => csr
                .order()
                .iter()
                .zip(&self.routed_over)
                .all(|(&id, &was)| usable[id as usize] == was),
            None => self.routed_over == usable,
        }
    }

    /// Splices the cached minimum-energy table from the previous usable
    /// set onto `usable` (by id) without a full Dijkstra, on the local
    /// indices of `csr`, the epoch's hop graph (priced by `weights`,
    /// sink at local index `sink`).
    ///
    /// Correctness rests on the canonical-parent property of the full
    /// build: with `(dist, id)` heap ordering and strictly positive
    /// weights, `parent[v]` is always the optimal predecessor minimizing
    /// `(dist, id)`. Nodes outside the subtrees of changed nodes keep
    /// both labels — removals can only lengthen paths elsewhere, so
    /// their surviving tree path and parent choice stand — while every
    /// node inside is re-seeded from the untouched frontier and
    /// re-relaxed; reboots enter the same wave as improvement sources.
    /// Ties discovered during the wave adopt a predecessor only when its
    /// `(dist, id)` beats the incumbent's, reproducing the settle order
    /// of a from-scratch run bit for bit.
    fn repair(&mut self, csr: &CsrAdjacency, weights: &[f64], sink: usize, usable: &[bool]) {
        let n = self.parent.len();
        let (order, targets) = (csr.order(), csr.targets());
        let s = &mut self.scratch;

        // The children CSR in the scratch indexes the outgoing parent
        // table — left there by the last image build (a repair always
        // follows one), or laid out here on the cache's first repair —
        // so subtree invalidation is O(subtree) instead of O(N) per
        // changed node. Row order is irrelevant here: the invalidated
        // set is the same in any order, and the heap settles by
        // (dist, id) alone.
        if s.child_off.is_empty() {
            fill_children(&self.parent, &mut s.child_off, &mut s.child_ids);
        }

        // Diff the epochs in local order, moving the mask to the new
        // epoch's. Newly-unusable nodes lose their labels and stay
        // routeless; rebooted nodes join the affected set so the wave
        // gives them (back) a route. The sink is always usable.
        s.affected.clear();
        s.in_affected.clear();
        s.in_affected.resize(n, false);
        for (v, (&id, was)) in order.iter().zip(&mut self.routed_over).enumerate() {
            let now_usable = usable[id as usize];
            if v == sink || *was == now_usable {
                continue;
            }
            *was = now_usable;
            if !now_usable {
                self.dist[v] = f64::INFINITY;
                self.parent[v] = NO_HOP;
            }
            s.in_affected[v] = true;
            s.affected.push(v as u32);
        }
        let usable = &self.routed_over[..];

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
                    self.parent[c] = NO_HOP;
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
            let row = csr.row(v);
            let mut best = f64::INFINITY;
            let mut best_pred = NO_HOP;
            let mut best_pred_key = (f64::INFINITY, u32::MAX);
            for (&target, &weight) in targets[row.clone()].iter().zip(&weights[row]) {
                let p = target as usize;
                if s.in_affected[p] || (p != sink && !usable[p]) {
                    continue;
                }
                let dp = self.dist[p];
                if !dp.is_finite() {
                    continue;
                }
                let candidate = dp + weight;
                let key = (dp, order[p]);
                if candidate < best || (candidate == best && key < best_pred_key) {
                    best = candidate;
                    best_pred = target;
                    best_pred_key = key;
                }
            }
            if best_pred != NO_HOP {
                self.dist[v] = best;
                self.parent[v] = best_pred;
                s.heap.push(Reverse(HeapEntry {
                    dist: best,
                    id: order[v],
                    local: vu,
                }));
            }
        }

        // Bounded re-relaxation wave. Strict improvements propagate as
        // in a full run; an equal-distance candidate only steals the
        // parent slot when its (dist, id) precedes the incumbent's (and
        // needs no re-push: children pick parents by label values, which
        // a tie does not change).
        while let Some(Reverse(HeapEntry { dist: d, id, local })) = s.heap.pop() {
            let u = local as usize;
            if d > self.dist[u] {
                continue;
            }
            let du = self.dist[u];
            let row = csr.row(u);
            for (&target, &weight) in targets[row.clone()].iter().zip(&weights[row]) {
                let v = target as usize;
                if v == sink || !usable[v] {
                    continue;
                }
                let candidate = du + weight;
                let dv = self.dist[v];
                if candidate < dv {
                    self.dist[v] = candidate;
                    self.parent[v] = local;
                    s.heap.push(Reverse(HeapEntry {
                        dist: candidate,
                        id: order[v],
                        local: target,
                    }));
                } else if candidate == dv {
                    let incumbent = self.parent[v] as usize;
                    if self.parent[v] != NO_HOP
                        && (du, id) < (self.dist[incumbent], order[incumbent])
                    {
                        self.parent[v] = local;
                    }
                }
            }
        }
    }

    /// Lays the current table out as its heavy-path image
    /// ([`RouteImage`]) and derives connectivity from it: a node's route
    /// reaches the sink exactly when the walk from the sink reaches the
    /// node. `sink` is the sink's index in the table's node order and
    /// `id_of` maps that order to ids; positions and ties go by id.
    /// Prices each next hop with the same expression as the inline
    /// code, so cached costs are bit-identical — or, once a repair has
    /// seeded the carried costs, takes the carried cost of every node
    /// whose next hop has not moved and re-prices only the rest. Leaves
    /// the table's children CSR (rows heaviest child first) in the
    /// scratch for the next repair once the cache has repaired; before
    /// that, lays the CSR out in temporaries and drops them. Allocation-
    /// free from the first repair on: every buffer is sized in
    /// [`RouteCache::new`], by [`RouteCache::keep_subtree_ends`] or by
    /// the first repair, and the image's own columns double as build
    /// space before they are filled.
    fn build_image(&mut self, sink: usize, id_of: impl Fn(usize) -> usize) {
        let (topology, radio, volume) = (self.topology, &self.radio, self.volume);
        let parent = &self.parent[..];
        // A cache that repairs keeps the children CSR for its next
        // repair; one that never has lays it out in temporaries.
        let kept = !self.scratch.child_off.is_empty();
        let mut child_off = std::mem::take(&mut self.scratch.child_off);
        let mut child_ids = std::mem::take(&mut self.scratch.child_ids);
        fill_children(parent, &mut child_off, &mut child_ids);
        let img = &mut self.image;
        let ends = !img.end.is_empty();
        let row = |u: usize| child_off[u] as usize..child_off[u + 1] as usize;

        // Breadth-first order from the sink, kept in `img.id` until the
        // columns are written: exactly the nodes whose chain reaches it.
        let order = &mut img.id;
        order[0] = sink as u32;
        let (mut head, mut reached) = (0, 1);
        while head < reached {
            let u = order[head] as usize;
            head += 1;
            for &c in &child_ids[row(u)] {
                order[reached] = c;
                reached += 1;
            }
        }

        // Subtree sizes, children before parents, kept by table index in
        // `img.parent` until the columns are written.
        let size = &mut img.parent;
        for &v in &order[..reached] {
            size[v as usize] = 1;
        }
        for &v in order[1..reached].iter().rev() {
            let v = v as usize;
            size[parent[v] as usize] += size[v];
        }

        // Heaviest child first, ties to the lowest id; then the walk's
        // preorder positions (by id) follow without a stack: a child's
        // range starts right after its parent and its elder siblings'.
        img.pos.fill(NO_HOP);
        img.pos[id_of(sink)] = SINK_POS;
        for &u in &order[..reached] {
            let u = u as usize;
            let children = &mut child_ids[row(u)];
            if children.len() > 1 {
                children.sort_unstable_by_key(|&c| (Reverse(size[c as usize]), id_of(c as usize)));
            }
            let at = img.pos[id_of(u)];
            if ends {
                img.end[at as usize] = at + size[u];
            }
            let mut next = at + 1;
            for &c in children.iter() {
                img.pos[id_of(c as usize)] = next;
                next += size[c as usize];
            }
        }
        let unreached = img.pos.iter_mut().filter(|at| **at == NO_HOP);
        for (next, at) in (reached as u32..).zip(unreached) {
            *at = next;
            if ends {
                img.end[next as usize] = next + 1;
            }
        }

        // The per-position columns. Size and order scratch is dead now.
        let carried = &mut self.carried;
        let carry = !carried.hop.is_empty();
        let sink_id = id_of(sink);
        for (v, &hop) in parent.iter().enumerate() {
            let id = id_of(v);
            let at = img.pos[id] as usize;
            img.id[at] = id as u32;
            (img.parent[at], img.tx[at]) = if hop == NO_HOP {
                (NO_HOP, 0.0)
            } else {
                let next = id_of(hop as usize);
                (
                    img.pos[next],
                    if carry && carried.hop[v] == hop {
                        carried.cost[v]
                    } else {
                        radio
                            .transmit_energy(volume, topology.distance(NodeId(id), NodeId(next)))
                            .as_joules()
                    },
                )
            };
            if carry {
                (carried.hop[v], carried.cost[v]) = (hop, img.tx[at]);
            }
            self.connected[id] = id != sink_id && at < reached;
        }
        if kept {
            (self.scratch.child_off, self.scratch.child_ids) = (child_off, child_ids);
        }
    }

    /// Has every later image build lay out [`RouteImage::end`] too —
    /// the column only the gathering kernel reads, so a lossy session
    /// never sizes it. Call before the first [`ensure`](Self::ensure).
    pub(crate) fn keep_subtree_ends(&mut self) {
        debug_assert!(self.builds == 0, "asked for subtree ends after a build");
        self.image.end.resize(self.parent.len(), 0);
    }

    /// Next hop of `node`, `None` when routeless (or the sink); read
    /// through the image.
    pub fn next_hop(&self, node: NodeId) -> Option<NodeId> {
        let img = &self.image;
        let hop = img.parent[img.pos[node.0] as usize];
        (hop != NO_HOP).then(|| NodeId(img.id[hop as usize] as usize))
    }

    /// Whether `node`'s cached route reaches the sink.
    pub fn is_connected(&self, node: NodeId) -> bool {
        self.connected[node.0]
    }

    /// Transmit energy (joules) for `node` to push one cached-volume
    /// packet to its next hop; `0.0` for routeless nodes.
    pub fn tx_cost(&self, node: NodeId) -> f64 {
        self.image.tx[self.image.pos[node.0] as usize]
    }

    /// The current table's heavy-path image, the layout the round
    /// kernels walk.
    pub(crate) fn image(&self) -> &RouteImage {
        &self.image
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
    /// change the cache has absorbed.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn radio() -> RadioEnergyModel {
        RadioEnergyModel::short_range_2003()
    }

    /// The cache's next hop for every id, in the form `build_routes`
    /// returns.
    fn next_hops(cache: &RouteCache) -> Vec<Option<NodeId>> {
        cache.topology.ids().map(|id| cache.next_hop(id)).collect()
    }

    /// A minimum-energy cache over `topo` at 45 m hops, pricing sensor
    /// reports under the default radio.
    fn min_energy_cache(topo: &Topology) -> RouteCache<'_> {
        RouteCache::new(
            topo,
            RoutingStrategy::MinimumEnergy,
            &radio(),
            Length::from_meters(45.0),
            ami_radio::Packet::sensor_report().total_bits(),
        )
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
    fn a_cache_excludes_unusable_relays() {
        // Sink—1—2 line: with node 1 masked out, node 2 is routeless.
        let topo = Topology::new(vec![
            crate::topology::Position::new(0.0, 0.0),
            crate::topology::Position::new(40.0, 0.0),
            crate::topology::Position::new(80.0, 0.0),
        ]);
        let mut cache = min_energy_cache(&topo);
        cache.ensure(&[true, false, true]);
        assert_eq!(cache.next_hop(NodeId(1)), None);
        assert_eq!(cache.next_hop(NodeId(2)), None);
        // DirectToSink ignores relays but still drops masked senders.
        let mut direct = RouteCache::new(
            &topo,
            RoutingStrategy::DirectToSink,
            &radio(),
            Length::from_meters(45.0),
            ami_radio::Packet::sensor_report().total_bits(),
        );
        direct.ensure(&[true, false, true]);
        assert_eq!(next_hops(&direct), vec![None, None, Some(NodeId(0))]);
    }

    #[test]
    fn route_cache_rebuilds_only_on_usable_changes() {
        let topo = Topology::grid(4, Length::from_meters(30.0));
        let mut cache = min_energy_cache(&topo);
        let mut usable = vec![true; topo.len()];
        assert!(cache.ensure(&usable));
        for _ in 0..10 {
            assert!(!cache.ensure(&usable));
        }
        usable[5] = false;
        assert!(cache.ensure(&usable));
        // The change is absorbed by an incremental repair, not a
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
        let mut cache = min_energy_cache(&topo);
        let mut usable = vec![true; topo.len()];
        let previous = set_route_repair_enabled(false);
        cache.ensure(&usable);
        usable[5] = false;
        cache.ensure(&usable);
        set_route_repair_enabled(previous);
        assert_eq!(cache.builds(), 2, "oracle path rebuilds per change");
        assert_eq!(cache.repairs(), 0);
    }

    #[test]
    fn alternating_radios_and_ranges_never_route_on_another_keys_weights() {
        // Two radios that differ only in the amplifier (100 and
        // 120 pJ/bit/m², so the multi-hop crossover and with it some
        // routes move) and two ranges: one cache per (radio, range)
        // pair on one topology and on a clone sharing its cached
        // weights, each repaired in turn over several steps, while a
        // `build_routes` under another pair turns the topology's weight
        // slot over in between. Every table and image must equal a
        // build on a fresh topology, which has nothing cached: a cache
        // that read the slot, or a slot that ignored the radio or the
        // range, would route on another pair's prices.
        let amplified = RadioEnergyModel::new(
            ami_units::EnergyPerBit::from_nanojoules_per_bit(50.0),
            120e-12,
            2.0,
        );
        let (near, far) = (Length::from_meters(45.0), Length::from_meters(60.0));
        let keys = [
            (radio(), near),
            (amplified, near),
            (radio(), far),
            (amplified, far),
        ];
        let min = RoutingStrategy::MinimumEnergy;
        let bits = ami_radio::Packet::sensor_report().total_bits();
        let n = 150;
        for seed in 0..4u64 {
            use rand::RngExt;
            let side = Length::from_meters(25.0 * (n as f64).sqrt());
            let topo = Topology::random(n, side, seed);
            let _ = topo.hop_weights(keys[0].1, &keys[0].0);
            let twin = topo.clone();
            let mut caches: Vec<Vec<RouteCache>> = [&topo, &twin]
                .into_iter()
                .map(|topology| {
                    keys.iter()
                        .map(|(radio, hop)| RouteCache::new(topology, min, radio, *hop, bits))
                        .collect()
                })
                .collect();
            let mut rng = ami_sim::sim_rng(seed);
            for step in 0..16 {
                let usable: Vec<bool> = (0..n)
                    .map(|id| id == 0 || rng.random::<f64>() < 0.9)
                    .collect();
                for (t, (topology, caches)) in
                    [&topo, &twin].into_iter().zip(&mut caches).enumerate()
                {
                    let fresh = Topology::new(topology.positions().to_vec());
                    let k = (step / 2 + t) % 4;
                    let (radio, hop) = keys[k];
                    let cache = &mut caches[k];
                    cache.ensure(&usable);
                    let mut want = RouteCache::new(&fresh, min, &radio, hop, bits);
                    want.ensure(&usable);
                    assert_eq!(
                        next_hops(cache),
                        next_hops(&want),
                        "seed {seed} step {step} topology {t}: cache"
                    );
                    assert_eq!(cache.image, want.image);

                    let (radio, hop) = keys[(step + 1 + t) % 4];
                    assert_eq!(
                        build_routes(topology, min, &radio, hop),
                        build_routes(&fresh, min, &radio, hop),
                        "seed {seed} step {step} topology {t}: build_routes"
                    );
                }
            }
            assert!(caches.iter().flatten().all(|cache| cache.repairs() > 0));
        }
    }

    #[test]
    fn cached_tx_costs_match_inline_computation() {
        let topo = Topology::random(30, Length::from_meters(120.0), 3);
        let bits = ami_radio::Packet::sensor_report().total_bits();
        let mut cache = min_energy_cache(&topo);
        cache.ensure(&vec![true; topo.len()]);
        let table = next_hops(&cache);
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
                        !route_to_sink(&table, &topo, id).is_empty()
                    );
                }
                None => assert_eq!(cache.tx_cost(id), 0.0),
            }
        }
    }

    /// Asserts that `cache`'s image is the heavy-path layout of its
    /// id-space table: `pos` a permutation with the sink at
    /// [`SINK_POS`] and `id` its inverse; every routed node's parent
    /// position is its next hop's; every subtree one contiguous range
    /// starting at its root, with children in heaviest-first, lowest-id
    /// order; no route crossing more than ⌊log₂ n⌋ light edges.
    fn assert_heavy_path_layout(cache: &RouteCache, topo: &Topology) {
        let n = topo.len();
        let img = cache.image();
        assert_eq!(img.pos[topo.sink().0], SINK_POS);
        let mut seen = vec![false; n];
        for v in 0..n {
            let at = img.pos[v] as usize;
            assert!(at < n && !seen[at], "pos is not a permutation at {v}");
            seen[at] = true;
            assert_eq!(img.id[at] as usize, v);
            let want = cache.next_hop(NodeId(v)).map_or(NO_HOP, |h| img.pos[h.0]);
            assert_eq!(img.parent[at], want, "parent position of {v}");
        }

        // Every node whose route reaches the sink counts, with its
        // position, toward the subtree of each node on that route.
        let mut size = vec![0u32; n];
        let mut lo = vec![u32::MAX; n];
        let mut hi = vec![0u32; n];
        let limit = (n as f64).log2().floor() as usize;
        for v in topo
            .ids()
            .filter(|&v| v == topo.sink() || cache.is_connected(v))
        {
            let at = img.pos[v.0];
            let mut light = 0;
            let mut on = v;
            loop {
                size[on.0] += 1;
                lo[on.0] = lo[on.0].min(at);
                hi[on.0] = hi[on.0].max(at);
                let Some(next) = cache.next_hop(on) else {
                    break;
                };
                if img.pos[on.0] != img.pos[next.0] + 1 {
                    light += 1;
                }
                on = next;
            }
            assert!(light <= limit, "route of {v} crosses {light} light edges");
        }
        for v in 0..n {
            let at = img.pos[v] as usize;
            if size[v] > 0 {
                assert_eq!(lo[v], img.pos[v], "subtree of {v} starts at its root");
                assert_eq!(hi[v] - lo[v] + 1, size[v], "subtree of {v} is contiguous");
                assert_eq!(img.end[at], img.pos[v] + size[v], "subtree end of {v}");
            } else {
                assert_eq!(img.end[at], img.pos[v] + 1, "routeless {v} ends at itself");
            }
        }
        for u in topo.ids().filter(|&u| size[u.0] > 0) {
            let mut children: Vec<usize> = topo
                .ids()
                .filter(|&c| cache.next_hop(c) == Some(u) && size[c.0] > 0)
                .map(|c| c.0)
                .collect();
            children.sort_by_key(|&c| img.pos[c]);
            for pair in children.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                assert!(
                    (Reverse(size[a]), a) < (Reverse(size[b]), b),
                    "children of {u}: {a} precedes {b}"
                );
            }
        }
    }

    proptest::proptest! {
        /// The image over random fields and usable masks, on a warm
        /// cache driven through several masks (so later epochs are
        /// repairs under minimum energy) and on a fresh cache built over
        /// each mask: both are heavy-path layouts, and equal. Each case
        /// prices one of two packet volumes under one of two radios.
        #[test]
        fn route_image_is_the_heavy_path_layout_on_built_and_repaired_epochs(
            seed in 0u64..10_000,
            n in 3usize..90,
            mask_seed in 0u64..10_000,
            strategy_pick in 0u8..4,
            volume_pick in 0usize..2,
            radio_pick in 0usize..2,
        ) {
            use rand::RngExt;
            // A field sparser than the benchmarks' 25·√n m leaves some
            // nodes out of range, so routeless positions get exercised.
            let side = Length::from_meters(35.0 * (n as f64).sqrt());
            let topo = Topology::random(n, side, seed);
            let strategy = if strategy_pick == 0 {
                RoutingStrategy::DirectToSink
            } else {
                RoutingStrategy::MinimumEnergy
            };
            let hop = Length::from_meters(45.0);
            let report = ami_radio::Packet::sensor_report().total_bits();
            let volumes = [report, DataVolume::from_bits(2.0 * report.as_bits())];
            // The second radio differs only in its amplifier, so every
            // cost and some next hops move with it.
            let radios = [
                radio(),
                RadioEnergyModel::new(
                    ami_units::EnergyPerBit::from_nanojoules_per_bit(50.0),
                    120e-12,
                    2.0,
                ),
            ];
            let mut rng = ami_sim::sim_rng(mask_seed);
            let (bits, model) = (volumes[volume_pick], radios[radio_pick]);
            // Both caches lay out subtree ends, as a gathering session's do.
            let mut warm = RouteCache::new(&topo, strategy, &model, hop, bits);
            warm.keep_subtree_ends();
            for step in 0..6 {
                let usable: Vec<bool> = (0..n)
                    .map(|id| id == 0 || step == 0 || rng.random::<f64>() < 0.8)
                    .collect();
                warm.ensure(&usable);
                assert_heavy_path_layout(&warm, &topo);
                let mut fresh = RouteCache::new(&topo, strategy, &model, hop, bits);
                fresh.keep_subtree_ends();
                fresh.ensure(&usable);
                proptest::prop_assert_eq!(&warm.image, &fresh.image, "step {}", step);
                proptest::prop_assert_eq!(&warm.connected, &fresh.connected);
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
