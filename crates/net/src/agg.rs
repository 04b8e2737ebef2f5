//! The aggregated charge kernel for the gathering simulation: one
//! traffic pass per round, with O(N) budget writes.
//!
//! `GatherState::idle_and_send` walks every packet hop by hop and
//! charges a relay's budget once per transiting packet. This module
//! replaces the mid-round phase with a traffic-aggregation pass that
//! does the same accounting in three sweeps, **bit-exact** with the hop
//! walk. The walk and the per-cell replay are O(total hops): route
//! depth grows as √N at constant density, so a round folds O(N^1.5)
//! values (1.9×10⁷ at n = 10⁵, 9.8×10⁷ at 3×10⁵ on the megacity field).
//! Only the budget writes are O(N).
//!
//! 1. **Margin precheck (S1).** A pure read over the budgets proves the
//!    idle charge alone empties nobody. If it would, fates can depend on
//!    intra-round charge order, so the round falls back to the retained
//!    hop-walk oracle before anything is touched.
//! 2. **Traffic aggregation.** One pass over the routing forest
//!    tallies, for every relay `v`, how many packets from sources below
//!    `v` and above `v` arrive cleanly (fault-truncated packets stop
//!    contributing at the downed edge, exactly where the serial walk
//!    stops charging). The pass walks the route cache's heavy-path
//!    image (`RouteImage`): sources are taken in ascending id, and each
//!    route is followed by position — mostly runs of descending
//!    positions, so the walk streams through the image instead of
//!    loading a random node id per hop — and tallied by position. The
//!    fold order is the id-order walk's, so every f64 is unchanged;
//!    the below/above split uses the image's stored ids. On faulted
//!    rounds each hop reads its fate from the round core's hop-fault
//!    mask, one byte per position filled at the start of the round
//!    (`crate::round`), instead of querying the fault timeline per hop.
//!    Every aggregated round runs this walk: fates, tallies and the
//!    `spent` fold are re-derived each round from the round's own
//!    routes and faults, so nothing carries over between rounds.
//! 3. **Per-cell replay + validation (S2).** Each budget cell is
//!    charged in ascending-id order, reading its tallies and transmit
//!    cost through `pos`, with the *identical* per-cell
//!    operation sequence the serial kernel applies — idle, then
//!    `below`×(rx, tx), own tx, `above`×(rx, tx) — into a scratch
//!    buffer. If any live powered cell ends at or below zero the round
//!    is discarded untouched and the oracle re-runs it (mid-round
//!    death makes packet fates order-dependent). Budgets only decrease
//!    within a round, so all-positive finals prove the serial kernel
//!    never saw an exhausted hop.
//!
//! The `spent` total is folded in serial charge order before the replay
//! (idle debits, then the walk's inline `tx`/`rx` fold), so commitment
//! receives it finished: it swaps the scratch finals in,
//! stores `spent`, and replays ledger charges and packet counters per
//! cell (ledger and counter *totals* are position-invariant;
//! per-accumulator sequences are preserved).
//!
//! The hop-walk kernel is retained verbatim as the differential oracle:
//! [`set_aggregated_rounds`]`(false)` pins every round on the calling
//! thread to it, and `tests/differential_agg.rs` pins the two kernels
//! against each other at report, ledger and manifest level.

use crate::gather::GatherState;
use crate::round::HopFault;
use crate::routing::{RouteImage, SINK_POS};
use ami_sim::obs::{EnergyCategory, Recorder};
use std::cell::Cell;

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

/// Reusable scratch for the aggregated kernel — allocated once per
/// [`crate::GatherSession`], surviving across runs, and reused by every
/// round, so the round loop stays allocation-steady.
///
/// All hot state is flat arrays: the traffic pass walks the route
/// cache's heavy-path image, the transit tallies are indexed by image
/// position like the columns they are walked beside, and the charge
/// scratch (`finals`) is indexed by id like the budgets.
pub(crate) struct AggScratch {
    /// Clean transit arrivals at each image position, `[below, above]`:
    /// from sources with smaller / larger ids than the node there — the
    /// split the per-cell fold needs because the node's own
    /// transmission sits between the two groups. The pair shares a
    /// slot so the walk picks its half by index, without a branch on
    /// the (unpredictable) id comparison.
    transit: Vec<[u32; 2]>,
    /// Per-cell replay scratch; swapped with the live budgets on commit.
    finals: Vec<f64>,
    // The round's packet tallies, written by the walk.
    senders: u64,
    delivered: u64,
    disconnected: u64,
    faulted: u64,
}

impl AggScratch {
    pub(crate) fn new(nodes: usize) -> Self {
        Self {
            transit: vec![[0; 2]; nodes],
            finals: vec![0.0; nodes],
            senders: 0,
            delivered: 0,
            disconnected: 0,
            faulted: 0,
        }
    }
}

impl GatherState<'_, '_> {
    /// The mid-round phase with the aggregated kernel in front: commit
    /// the round through the traffic pass (O(total hops) walk, O(N)
    /// budget writes) when the energy margins allow, fall back to the
    /// serial hop walk otherwise.
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
        let core = &*self.core;
        let (alive, down_now) = (&core.alive[..], &core.down_now[..]);
        let idle = self.idle_per_round;

        // S1: the idle charge alone must strand nobody at or below
        // zero. Same rounding as the serial debit: one subtraction.
        let mut powered = 0u64;
        for v in 1..core.topology.len() {
            if alive[v] && !down_now[v] {
                if self.budget[v] - idle <= 0.0 {
                    return false;
                }
                powered += 1;
            }
        }

        // The spent fold continues from the live accumulator in serial
        // charge order: the round's idle debits first, then the send
        // phase's tx/rx stream.
        let mut spent = self.spent;
        for _ in 0..powered {
            spent += idle;
        }
        let spent = self.walk_and_tally(scratch, spent);

        // Per-cell replay + S2. Nothing below mutates live state until
        // every live powered cell is proven to finish above zero.
        if !self.replay_cells(scratch) {
            return false;
        }

        self.commit_aggregated(scratch, spent, recorder);
        true
    }

    /// The traffic-aggregation pass: walks each report along the route
    /// cache's heavy-path image, folding the spent stream inline,
    /// tallying clean transit arrivals per relay position, and counting
    /// fates. Pure with respect to simulation state.
    fn walk_and_tally(&self, scratch: &mut AggScratch, mut spent: f64) -> f64 {
        let core = &*self.core;
        let n = core.topology.len();
        let rx = self.rx_per_hop;
        let hop_faults = core.hop_faults();
        let (alive, down_now) = (&core.alive[..], &core.down_now[..]);
        let connected = core.cache.connected_flags();
        let RouteImage {
            pos,
            parent,
            tx: tx_costs,
            id,
        } = core.cache.image();

        // Bind the tallies to their own slice so the image reads and the
        // tally writes carry distinct noalias pointers — one struct-wide
        // borrow would serialize every `parent` load behind every tally
        // store.
        let transit = &mut scratch.transit[..n];
        transit.fill([0; 2]);

        let mut senders = 0u64;
        let mut delivered = 0u64;
        let mut disconnected = 0u64;
        let mut faulted = 0u64;
        for (src, &conn) in connected.iter().enumerate().take(n).skip(1) {
            if !alive[src] || down_now[src] {
                continue;
            }
            senders += 1;
            if !conn {
                disconnected += 1;
                continue;
            }
            let src_id = src as u32;
            let mut at = pos[src] as usize;
            loop {
                let hop = parent[at];
                let tx = tx_costs[at];
                // The sender pays for its transmission before learning
                // whether the hop ahead is faulted — mirror the serial
                // charge-then-check order exactly.
                spent += tx;
                // Either fault — a downed receiver or a downed link —
                // ends the packet here; the mask resolved both at the
                // start of the round.
                if hop_faults.is_some_and(|mask| mask[at] != HopFault::Clear) {
                    faulted += 1;
                    break;
                }
                if hop == SINK_POS {
                    delivered += 1;
                    break;
                }
                spent += rx;
                let hop = hop as usize;
                transit[hop][usize::from(src_id >= id[hop])] += 1;
                at = hop;
            }
        }

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
        let core = &*self.core;
        let (alive, down_now) = (&core.alive[..], &core.down_now[..]);
        let connected = core.cache.connected_flags();
        let RouteImage {
            pos, tx: tx_costs, ..
        } = core.cache.image();
        let idle = self.idle_per_round;
        let rx = self.rx_per_hop;
        scratch.finals.copy_from_slice(&self.budget);
        for (v, &conn) in connected
            .iter()
            .enumerate()
            .take(core.topology.len())
            .skip(1)
        {
            let at = pos[v] as usize;
            if !alive[v] || down_now[v] {
                // Powered-off or dead: no idle, no send, and the walk
                // never tallies arrivals into such a node.
                debug_assert_eq!(scratch.transit[at], [0; 2]);
                continue;
            }
            let [b, a] = scratch.transit[at];
            let tx = tx_costs[at];
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

    /// Commits a validated aggregated round: budgets, the folded `spent`,
    /// the delivered count, then the recorder replay in a fixed
    /// per-cell order (idle charges ascending, then each cell's Tx and
    /// RxRelay charges; packet counters as whole-round tallies).
    fn commit_aggregated<R: Recorder>(
        &mut self,
        scratch: &mut AggScratch,
        spent: f64,
        recorder: &mut R,
    ) {
        std::mem::swap(&mut self.budget, &mut scratch.finals);
        self.spent = spent;
        self.delivered += scratch.delivered;

        let core = &*self.core;
        let n = core.topology.len();
        let (alive, down_now) = (&core.alive[..], &core.down_now[..]);
        let connected = core.cache.connected_flags();
        let RouteImage {
            pos, tx: tx_costs, ..
        } = core.cache.image();
        let idle = self.idle_per_round;
        let rx = self.rx_per_hop;
        for v in 1..n {
            if alive[v] && !down_now[v] {
                recorder.charge(v, EnergyCategory::Idle, idle);
            }
        }
        for (v, &conn) in connected.iter().enumerate().take(n).skip(1) {
            if !alive[v] || down_now[v] {
                continue;
            }
            let at = pos[v] as usize;
            let [below, above] = scratch.transit[at];
            let relayed = below + above;
            let tx_count = relayed + u32::from(conn);
            let tx = tx_costs[at];
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
