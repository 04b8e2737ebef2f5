//! The O(N)-per-round aggregated charge kernel for the gathering
//! simulation.
//!
//! `GatherState::idle_and_send` walks every packet hop by hop and
//! charges budgets as it goes — O(N·avg_hops) pointer-chasing per round,
//! the super-linearity that makes 100k–1M-node runs intractable
//! (ROADMAP item 1). This module replaces the mid-round phase with a
//! traffic-aggregation pass that does the same accounting in three
//! O(N)-shaped sweeps while staying **bit-exact** with the hop walk:
//!
//! 1. **Margin precheck (S1).** A pure read over the budgets proves the
//!    idle charge alone empties nobody. If it would, fates can depend on
//!    intra-round charge order, so the round falls back to the retained
//!    hop-walk oracle before anything is touched.
//! 2. **Traffic aggregation.** One pass over the routing forest
//!    tallies, for every relay `v`, how many packets from sources below
//!    `v` and above `v` arrive cleanly (fault-truncated packets stop
//!    contributing at the downed edge, exactly where the serial walk
//!    stops charging). On fault-free rounds the pass also memoizes the
//!    total-spent **value stream** — the exact sequence of `tx`/`rx`
//!    joules the serial kernel folds into `spent` — so later rounds of
//!    the same route epoch skip the walk entirely and replay the fold
//!    over a flat array (`O(hops)` sequential adds, the latency floor
//!    set by the bit-exactness contract; see DESIGN.md).
//! 3. **Per-cell replay + validation (S2).** Each budget cell is
//!    charged in ascending-id order with the *identical* per-cell
//!    operation sequence the serial kernel applies — idle, then
//!    `below`×(rx, tx), own tx, `above`×(rx, tx) — into a scratch
//!    buffer. If any live powered cell ends at or below zero the round
//!    is discarded untouched and the oracle re-runs it (mid-round
//!    death makes packet fates order-dependent). Budgets only decrease
//!    within a round, so all-positive finals prove the serial kernel
//!    never saw an exhausted hop.
//!
//! Commitment then swaps the scratch finals in, folds the memoized
//! spent stream in serial charge order, and replays ledger charges and
//! packet counters per cell (ledger and counter *totals* are
//! position-invariant; per-accumulator sequences are preserved).
//!
//! The hop-walk kernel is retained verbatim as the differential oracle:
//! [`set_aggregated_rounds`]`(false)` pins every round on the calling
//! thread to it, and `tests/differential_agg.rs` pins the two kernels
//! against each other at report, ledger and manifest level.

use crate::gather::GatherState;
use crate::routing::PackedRoutes;
use ami_sim::obs::{EnergyCategory, Recorder};
use std::cell::Cell;

/// Upper bound on memoized spent-stream length, in f64 values.
///
/// n=100k city rounds carry ~9.5M hop charges (~150 MB of stream fits
/// comfortably); n=1M rounds would need ~2.4 GB, so they re-walk every
/// round instead — the stream is a speed memo, never a correctness
/// requirement, and capping it is what keeps memory O(N).
const STREAM_VALUE_CAP: usize = 24 << 20;

thread_local! {
    /// Whether the aggregated kernel may run rounds on this thread.
    static AGG_ENABLED: Cell<bool> = const { Cell::new(true) };
    /// Rounds committed by the aggregated kernel on this thread.
    static AGG_ENGAGED: Cell<u64> = const { Cell::new(0) };
    /// Rounds the margin checks handed back to the hop-walk oracle.
    static AGG_FALLBACKS: Cell<u64> = const { Cell::new(0) };
}

/// Enables or disables the aggregated kernel on this thread, returning
/// the previous setting, like
/// [`crate::routing::set_route_repair_enabled`]. Disabling pins every
/// gathering round on the thread to the hop-walk oracle the
/// differential tests diff the kernel against; results are
/// bit-identical either way.
pub fn set_aggregated_rounds(enabled: bool) -> bool {
    AGG_ENABLED.with(|c| c.replace(enabled))
}

/// Whether the aggregated kernel may run rounds on this thread
/// (enabled unless [`set_aggregated_rounds`] turned it off).
pub fn aggregated_rounds_enabled() -> bool {
    AGG_ENABLED.with(Cell::get)
}

/// Rounds this thread committed through the aggregated kernel.
pub fn agg_engaged_count() -> u64 {
    AGG_ENGAGED.with(Cell::get)
}

/// Rounds this thread's margin checks returned to the hop-walk oracle.
pub fn agg_fallback_count() -> u64 {
    AGG_FALLBACKS.with(Cell::get)
}

/// Zeroes both engagement counters (test isolation).
pub fn reset_agg_counters() {
    AGG_ENGAGED.with(|c| c.set(0));
    AGG_FALLBACKS.with(|c| c.set(0));
}

pub(crate) fn note_engaged() {
    AGG_ENGAGED.with(|c| c.set(c.get() + 1));
}

pub(crate) fn note_fallback() {
    AGG_FALLBACKS.with(|c| c.set(c.get() + 1));
}

/// Reusable scratch for the aggregated kernel — allocated once per run
/// (or once per [`crate::GatherSession`], surviving across runs) and
/// reused by every round, so the round loop stays allocation-steady.
///
/// All hot state is struct-of-arrays: the packed route arrays
/// (`parent`/`tx`) give the traffic pass 4-byte next-hop fetches
/// instead of 16-byte `Option<NodeId>` reads, and the transit tallies
/// (`below`/`above`) plus the charge scratch (`finals`) are the flat
/// per-node columns the per-cell replay streams through.
pub(crate) struct AggScratch {
    /// Packed next-hop / tx-cost arrays, refreshed per route epoch.
    routes: PackedRoutes,
    /// Clean transit arrivals at each node from sources with smaller /
    /// larger ids — the position split the per-cell fold needs because
    /// the node's own transmission sits between the two groups.
    below: Vec<u32>,
    above: Vec<u32>,
    /// Per-cell replay scratch; swapped with the live budgets on commit.
    finals: Vec<f64>,
    /// Memoized spent value stream (fault-free rounds only).
    stream: Vec<f64>,
    /// Route epoch the memoized round image (stream + tallies +
    /// counters) is valid for. Fault-free epochs only: exogenous faults
    /// change per-round fates without necessarily changing routes, so
    /// the replay branch additionally requires a fault-free round and
    /// [`Self::invalidate_run_memo`] clears this at every session-run
    /// boundary.
    image_epoch: Option<u64>,
    /// Total hop charges seen by the last walk of `hops_epoch` — sizes
    /// the stream reservation and gates memoization against the cap.
    hops_epoch: Option<u64>,
    hops: u64,
    // Round packet tallies (valid after a walk or with a valid image).
    senders: u64,
    delivered: u64,
    disconnected: u64,
    faulted: u64,
}

impl AggScratch {
    pub(crate) fn new(nodes: usize) -> Self {
        Self {
            routes: PackedRoutes::new(nodes),
            below: vec![0; nodes],
            above: vec![0; nodes],
            finals: vec![0.0; nodes],
            stream: Vec::new(),
            image_epoch: None,
            hops_epoch: None,
            hops: 0,
            senders: 0,
            delivered: 0,
            disconnected: 0,
            faulted: 0,
        }
    }

    /// Drops everything memoized from earlier runs: the round image and
    /// the probed hop count. Both are keyed on the route epoch, and the
    /// epoch alone cannot distinguish two runs of a warm session — a new
    /// run may carry a different fault schedule without ever moving the
    /// epoch (routing sees faults one round late, and link faults never
    /// change the usable set) — so a session must call this at every
    /// run start and let the run's own walks re-establish both.
    pub(crate) fn invalidate_run_memo(&mut self) {
        self.image_epoch = None;
        self.hops_epoch = None;
    }
}

impl GatherState<'_> {
    /// The mid-round phase with the aggregated kernel in front: commit
    /// the round through the O(N) pass when the energy margins allow,
    /// fall back to the serial hop walk otherwise.
    pub(crate) fn round_charges<R: Recorder>(
        &mut self,
        scratch: &mut AggScratch,
        recorder: &mut R,
    ) {
        if aggregated_rounds_enabled() {
            if self.try_aggregated_round(scratch, recorder) {
                note_engaged();
                return;
            }
            note_fallback();
        }
        self.idle_and_send(recorder);
    }

    /// Attempts one aggregated round. Returns `false` — with the state
    /// completely untouched — when a margin check shows the round's
    /// fates could depend on mid-round charge order.
    fn try_aggregated_round<R: Recorder>(
        &mut self,
        scratch: &mut AggScratch,
        recorder: &mut R,
    ) -> bool {
        let n = self.topology.len();
        let idle = self.idle_per_round;

        // S1: the idle charge alone must strand nobody at or below
        // zero. Same rounding as the serial debit: one subtraction.
        let mut powered = 0u64;
        for v in 1..n {
            if self.alive[v] && !self.down_now[v] {
                if self.budget[v] - idle <= 0.0 {
                    return false;
                }
                powered += 1;
            }
        }

        let epoch = self.cache.epoch();
        if scratch.routes.ensure(&self.cache) {
            scratch.image_epoch = None;
        }

        // The spent fold continues from the live accumulator in serial
        // charge order: the round's idle debits first, then the send
        // phase's tx/rx stream.
        let mut spent = self.spent;
        for _ in 0..powered {
            spent += idle;
        }
        if !self.faults_active && scratch.image_epoch == Some(epoch) {
            // Fault-free steady state: fates, tallies and the value
            // stream are round-constant within a route epoch, so the
            // whole walk collapses to one flat sequential fold. The
            // image captures fault-free fates only — a fault schedule
            // changes fates without necessarily moving the epoch, so
            // faulted rounds always re-walk.
            for &v in &scratch.stream {
                spent += v;
            }
        } else {
            spent = self.walk_and_tally(scratch, epoch, spent);
        }

        // Per-cell replay + S2. Nothing below mutates live state until
        // every live powered cell is proven to finish above zero.
        if !self.replay_cells(scratch) {
            return false;
        }

        self.commit_aggregated(scratch, spent, recorder);
        true
    }

    /// The traffic-aggregation pass: walks each report along the packed
    /// route arrays, folding the spent stream inline, tallying clean
    /// transit arrivals per relay, and counting fates. Pure with
    /// respect to simulation state. On fault-free rounds whose hop
    /// count fits [`STREAM_VALUE_CAP`], also memoizes the value stream
    /// for the epoch.
    fn walk_and_tally(&self, scratch: &mut AggScratch, epoch: u64, mut spent: f64) -> f64 {
        let n = self.topology.len();
        let sink = self.sink.0 as u32;
        let rx = self.rx_per_hop;
        let connected = self.cache.connected_flags();

        scratch.below[..n].fill(0);
        scratch.above[..n].fill(0);
        scratch.stream.clear();
        // Record the stream only once the epoch's hop count is known to
        // fit the cap (the first walk of an epoch probes it), so large
        // runs never transiently allocate an over-cap buffer.
        let record = !self.faults_active
            && scratch.hops_epoch == Some(epoch)
            && scratch.hops <= STREAM_VALUE_CAP as u64;
        if record {
            scratch.stream.reserve_exact(scratch.hops as usize);
        }
        // Split the scratch into disjoint field borrows so the route
        // reads and the tally/stream writes carry distinct noalias
        // pointers — one struct-wide borrow would serialize every
        // `parent` load behind every tally store.
        let AggScratch {
            routes,
            below,
            above,
            stream,
            ..
        } = scratch;
        let parent = routes.parent.as_slice();
        let tx_costs = routes.tx.as_slice();
        let below = below.as_mut_slice();
        let above = above.as_mut_slice();

        let mut hops = 0u64;
        let mut senders = 0u64;
        let mut delivered = 0u64;
        let mut disconnected = 0u64;
        let mut faulted = 0u64;
        for (src, &conn) in connected.iter().enumerate().take(n).skip(1) {
            if !self.alive[src] || self.down_now[src] {
                continue;
            }
            senders += 1;
            if !conn {
                disconnected += 1;
                continue;
            }
            let mut from = src as u32;
            loop {
                let fu = from as usize;
                let hop = parent[fu];
                let tx = tx_costs[fu];
                // The sender pays for its transmission before learning
                // whether the hop ahead is faulted — mirror the serial
                // charge-then-check order exactly.
                spent += tx;
                hops += 1;
                if record {
                    stream.push(tx);
                }
                if self.faults_active
                    && ((hop != sink && self.down_now[hop as usize])
                        || self.timeline.link_down(fu, hop as usize))
                {
                    faulted += 1;
                    break;
                }
                if hop == sink {
                    delivered += 1;
                    break;
                }
                spent += rx;
                hops += 1;
                if record {
                    stream.push(rx);
                }
                if (src as u32) < hop {
                    below[hop as usize] += 1;
                } else {
                    above[hop as usize] += 1;
                }
                from = hop;
            }
        }

        scratch.hops_epoch = Some(epoch);
        scratch.hops = hops;
        scratch.image_epoch = if record { Some(epoch) } else { None };
        scratch.senders = senders;
        scratch.delivered = delivered;
        scratch.disconnected = disconnected;
        scratch.faulted = faulted;
        spent
    }

    /// Replays every budget cell's charge sequence — identical, op for
    /// op, to what the serial walk applies to that cell — into the
    /// scratch finals, validating S2 as it goes. Returns `false` if any
    /// live powered cell would finish the round at or below zero.
    fn replay_cells(&self, scratch: &mut AggScratch) -> bool {
        let n = self.topology.len();
        let idle = self.idle_per_round;
        let rx = self.rx_per_hop;
        let connected = self.cache.connected_flags();
        scratch.finals.copy_from_slice(&self.budget);
        for (v, &conn) in connected.iter().enumerate().take(n).skip(1) {
            if !self.alive[v] || self.down_now[v] {
                // Powered-off or dead: no idle, no send, and the walk
                // never tallies arrivals into such a node.
                debug_assert_eq!(scratch.below[v] + scratch.above[v], 0);
                continue;
            }
            let b = scratch.below[v];
            let a = scratch.above[v];
            let tx = scratch.routes.tx[v];
            let mut cell = scratch.finals[v];
            cell -= idle;
            for _ in 0..b {
                cell -= rx;
                cell -= tx;
            }
            if conn {
                cell -= tx;
            }
            for _ in 0..a {
                cell -= rx;
                cell -= tx;
            }
            scratch.finals[v] = cell;
            if cell <= 0.0 {
                return false;
            }
        }
        true
    }

    /// Commits a validated aggregated round: budgets, the spent fold,
    /// the delivered count, then the recorder replay in a fixed
    /// per-cell order (idle charges ascending, then each cell's Tx and
    /// RxRelay charges; packet counters as whole-round tallies).
    fn commit_aggregated<R: Recorder>(
        &mut self,
        scratch: &mut AggScratch,
        spent: f64,
        recorder: &mut R,
    ) {
        let n = self.topology.len();
        std::mem::swap(&mut self.budget, &mut scratch.finals);
        self.spent = spent;
        self.delivered += scratch.delivered;

        let idle = self.idle_per_round;
        let rx = self.rx_per_hop;
        let connected = self.cache.connected_flags();
        for v in 1..n {
            if self.alive[v] && !self.down_now[v] {
                recorder.charge(v, EnergyCategory::Idle, idle);
            }
        }
        for (v, &conn) in connected.iter().enumerate().take(n).skip(1) {
            if !self.alive[v] || self.down_now[v] {
                continue;
            }
            let relayed = scratch.below[v] + scratch.above[v];
            let tx_count = relayed + u32::from(conn);
            let tx = scratch.routes.tx[v];
            for _ in 0..tx_count {
                recorder.charge(v, EnergyCategory::Tx, tx);
            }
            for _ in 0..relayed {
                recorder.charge(v, EnergyCategory::RxRelay, rx);
            }
        }
        recorder.packets_offered(scratch.senders);
        recorder.packets_dropped_disconnected(scratch.disconnected);
        recorder.packets_delivered(scratch.delivered);
        recorder.packets_dropped_fault(scratch.faulted);
    }
}
