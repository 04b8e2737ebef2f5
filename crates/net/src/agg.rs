//! The aggregated charge kernel for the gathering simulation: a round
//! in O(N) work per binade crossing, bit-exact with the hop walk.
//!
//! `GatherState::idle_and_send` walks every packet hop by hop and
//! charges a relay's budget once per packet it relays: O(total hops),
//! which grows as N^1.5 at constant density because route depth grows
//! as √N. This module commits the same round — every budget, the
//! `spent` total, the packet counts and the recorder's charges, **bit
//! for bit** — from a few linear passes over the route cache's
//! heavy-path image (`RouteImage`). It folds charges in whole ulps with
//! [`ami_sim::exact`]: while an f64 accumulator and the exact result
//! both stay one ulp inside one binade, and the operand is not a
//! round-half-even tie at that ulp, an add moves the accumulator by a
//! whole number of ulps that does not depend on the accumulator, so a
//! run of adds is one integer sum.
//!
//! 1. **Margin precheck (S1).** A pure read over the budgets proves the
//!    idle charge alone empties nobody, and counts the round's senders.
//!    If it would, fates can depend on intra-round charge order, so the
//!    round falls back to the retained hop-walk oracle before anything
//!    is touched.
//! 2. **`spent`.** The serial fold adds the round's idle debits — k
//!    equal adds, [`exact::add_n`] — then each sending source's route
//!    charges, source by source in ascending id. One forward pass over
//!    the image per binade of `spent` prices every position's route in
//!    ulps: its own transmit cost, plus the receive cost and the
//!    parent's route unless the hop is faulted or reaches the sink
//!    (parents precede children in the image). Sources then add their
//!    routes' ulps in ascending id. A source whose route would leave
//!    the binade, or holds a tie, is walked with real f64 adds; if the
//!    walk moved `spent` into another binade, the routes are re-priced
//!    at its ulp.
//! 3. **Cells and S2.** One reverse pass counts each position's clean
//!    arrivals — reports from its subtree that reach it without meeting
//!    a faulted hop — and the round's delivered and faulted packets. A
//!    relay's serial charge sequence is idle, then `below` arrivals ×
//!    (rx, tx), its own tx, then `above` × (rx, tx), where `below` /
//!    `above` count arrivals from sources with smaller / larger ids. A
//!    relay that stays in its binade with no tie ends at its starting
//!    ulps minus those of the whole sequence, for which `below + above`
//!    suffices. Any other relay is stepped through the sequence with
//!    [`exact::sub_cycle_n`], which needs the split: a scan of the
//!    relay's subtree, one contiguous range of the image, skipping the
//!    ranges cut off at faulted hops. A cell without arrivals takes its
//!    idle and own tx as two plain subtractions. If any live powered
//!    cell ends at or below zero the round is discarded untouched and
//!    the oracle re-runs it (mid-round death makes packet fates
//!    order-dependent). Budgets only decrease within a round, so
//!    all-positive finals prove the serial kernel never saw an
//!    exhausted hop.
//! 4. **Commit.** Swaps the finals in, stores `spent`, and charges the
//!    recorder: every idle charge in ascending id, then each cell's tx
//!    and rx charges as counts through [`Recorder::charge_n`], which
//!    the ledger and ring recorders fold with the same stepping, so
//!    observed rounds stay O(N) too (ledger and counter *totals* are
//!    position-invariant; per-accumulator sequences are preserved).
//!
//! A round therefore costs O(N) per binade `spent` crosses — one or two
//! on a fresh megacity round, fewer as `spent` grows over a run — plus
//! the subtree scans of the cells that cross a binade or tie, plus real
//! adds for routes and cells holding a tie. Nothing carries over
//! between rounds: fates, arrivals and prices come from each round's
//! own routes and faults, and every fault answer from the round core's
//! hop-fault mask (`crate::round`), one byte per image position.
//!
//! The hop-walk kernel is retained verbatim as the differential oracle:
//! [`set_aggregated_rounds`]`(false)` pins every round on the calling
//! thread to it, and `tests/differential_agg.rs` pins the two kernels
//! against each other at report, ledger and manifest level.

use crate::gather::GatherState;
use crate::round::HopFault;
use crate::routing::{RouteImage, NO_HOP, SINK_POS};
use ami_sim::exact::{self, Binade};
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
pub(crate) struct AggScratch {
    /// Per-position scratch, by image position: each route's cost in
    /// ulps of `spent`'s binade while the `spent` fold runs
    /// (`u64::MAX` for a route holding a tie), then each position's
    /// clean arrivals — reports from sources in its subtree that reach
    /// it without meeting a faulted hop.
    by_pos: Vec<u64>,
    /// Per-cell finals by id; swapped with the live budgets on commit.
    finals: Vec<f64>,
    // The round's packet tallies.
    senders: u64,
    delivered: u64,
    disconnected: u64,
    faulted: u64,
}

impl AggScratch {
    pub(crate) fn new(nodes: usize) -> Self {
        Self {
            by_pos: vec![0; nodes],
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
    /// the round through the linear passes when the energy margins
    /// allow, fall back to the serial hop walk otherwise.
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
        let n = core.topology.len();
        let (alive, down_now, budgets) = (&core.alive[..n], &core.down_now[..n], &self.budget[..n]);
        let idle = self.idle_per_round;

        // S1: the idle charge alone must strand nobody at or below
        // zero. Same rounding as the serial debit: one subtraction.
        let mut senders = 0u64;
        for v in 1..n {
            if alive[v] && !down_now[v] {
                if budgets[v] - idle <= 0.0 {
                    return false;
                }
                senders += 1;
            }
        }
        scratch.senders = senders;

        // The spent fold continues from the live accumulator in serial
        // charge order: the round's idle debits first, then the send
        // phase's tx/rx stream.
        let spent = exact::add_n(self.spent, idle, senders);
        let spent = self.fold_routes(&mut scratch.by_pos, spent);

        // Cells + S2. Nothing below mutates live state until every live
        // powered cell is proven to finish above zero.
        self.count_arrivals(scratch);
        if !self.settle_cells(scratch) {
            return false;
        }

        self.commit_aggregated(scratch, spent, recorder);
        true
    }

    /// Folds the send phase's charges into `spent` in serial order:
    /// each sending source, in ascending id, adds its route's tx and rx
    /// charges. `costs` is the per-position route-cost column, priced
    /// at `spent`'s binade. Pure with respect to simulation state.
    fn fold_routes(&self, costs: &mut [u64], mut spent: f64) -> f64 {
        let mut binade = Binade::of(spent);
        if let Some(b) = binade {
            // Whole ulps commute: a stream that ends inside the binade,
            // with no tie, ends where the serial order does.
            let stream = self.price_routes(b, costs);
            if let Some(end) = b.grow(b.ulps(spent), stream) {
                return b.value(end);
            }
        }
        let core = &*self.core;
        let n = core.topology.len();
        let (alive, down_now) = (&core.alive[..n], &core.down_now[..n]);
        let (connected, pos) = (
            &core.cache.connected_flags()[..n],
            &core.cache.image().pos[..n],
        );
        // `spent` in ulps of `binade` while there is one.
        let mut ulps = binade.map_or(0, |b| b.ulps(spent));
        for v in 1..n {
            if !connected[v] || !alive[v] || down_now[v] {
                continue;
            }
            let at = pos[v] as usize;
            if let Some(b) = binade {
                if let Some(next) = b.grow(ulps, costs[at]) {
                    ulps = next;
                    continue;
                }
                spent = b.value(ulps);
            }
            // The route leaves the binade, holds a tie, or starts from
            // a `spent` no binade covers (zero): real adds.
            spent = self.walk_route(at, spent);
            let now = Binade::of(spent);
            if now != binade {
                if let Some(b) = now {
                    self.price_routes(b, costs);
                }
                binade = now;
            }
            if let Some(b) = binade {
                ulps = b.ulps(spent);
            }
        }
        binade.map_or(spent, |b| b.value(ulps))
    }

    /// Prices every routed position's route in ulps of `binade` into
    /// `costs`: its own transmit cost, plus the receive cost and the
    /// parent's route when the hop is clean and does not reach the
    /// sink; a tie anywhere on the route saturates it at `u64::MAX`.
    /// Parents precede their children in the image, so one forward pass
    /// does it. Returns the sum over the sending positions (saturating),
    /// the whole send stream in ulps.
    fn price_routes(&self, binade: Binade, costs: &mut [u64]) -> u64 {
        let core = &*self.core;
        let hop_faults = core.hop_faults();
        let down_now = &core.down_now[..];
        let RouteImage { parent, tx, id, .. } = core.cache.image();
        let price = |joules| binade.units(joules).unwrap_or(u64::MAX);
        let rx = price(self.rx_per_hop);
        let mut stream = 0u64;
        // The last position's cost: a heavy child's parent, read from a
        // register instead of back through memory.
        let mut previous = 0u64;
        for at in 1..core.topology.len() {
            let hop = parent[at];
            if hop == NO_HOP {
                continue;
            }
            let own = price(tx[at]);
            let cut = hop_faults.is_some_and(|mask| mask[at] != HopFault::Clear);
            let cost = if hop == SINK_POS || cut {
                own
            } else {
                let above = if hop as usize == at - 1 {
                    previous
                } else {
                    costs[hop as usize]
                };
                own.saturating_add(rx).saturating_add(above)
            };
            costs[at] = cost;
            previous = cost;
            // Routed nodes are alive; on faulted rounds one may be
            // powered off, and then it sends nothing.
            if hop_faults.is_none() || !down_now[id[at] as usize] {
                stream = stream.saturating_add(cost);
            }
        }
        stream
    }

    /// One route's share of the `spent` stream with real f64 adds, in
    /// the hop walk's order: the sender's tx, then the rx and the
    /// relay's tx of each clean hop short of the sink.
    fn walk_route(&self, mut at: usize, mut spent: f64) -> f64 {
        let core = &*self.core;
        let hop_faults = core.hop_faults();
        let RouteImage { parent, tx, .. } = core.cache.image();
        loop {
            // The sender pays for its transmission before learning
            // whether the hop ahead is faulted — the serial
            // charge-then-check order.
            spent += tx[at];
            let hop = parent[at];
            if hop == SINK_POS || hop_faults.is_some_and(|mask| mask[at] != HopFault::Clear) {
                return spent;
            }
            spent += self.rx_per_hop;
            at = hop as usize;
        }
    }

    /// The reverse pass over the image: each routed position passes its
    /// clean arrivals plus its own report (when powered) up its hop —
    /// to the parent, to the sink (delivered), or into a fault
    /// (faulted). Children follow their parents in the image, so a
    /// position's count is complete before it is passed on.
    fn count_arrivals(&self, scratch: &mut AggScratch) {
        let core = &*self.core;
        let n = core.topology.len();
        let down_now = &core.down_now[..];
        let RouteImage {
            parent, id, end, ..
        } = core.cache.image();
        let arrivals = &mut scratch.by_pos[..n];
        let Some(mask) = core.hop_faults() else {
            // Fault-free: every routed node sends and every hop is
            // clean, so a position's arrivals are the rest of its
            // subtree (none for the routeless), and every routed
            // report is delivered.
            for ((at, arrived), &end) in arrivals.iter_mut().enumerate().zip(&end[..n]) {
                *arrived = u64::from(end) - at as u64 - 1;
            }
            scratch.delivered = u64::from(end[SINK_POS as usize]) - 1;
            scratch.faulted = 0;
            return;
        };
        arrivals.fill(0);
        let (mut delivered, mut faulted) = (0u64, 0u64);
        for at in (1..n).rev() {
            let hop = parent[at];
            if hop == NO_HOP {
                continue;
            }
            // Routes are re-resolved after every death, so each routed
            // node is alive; it may be powered off.
            debug_assert!(core.alive[id[at] as usize]);
            let leaving = arrivals[at] + u64::from(!down_now[id[at] as usize]);
            if mask[at] != HopFault::Clear {
                faulted += leaving;
            } else if hop == SINK_POS {
                delivered += leaving;
            } else {
                arrivals[hop as usize] += leaving;
            }
        }
        scratch.delivered = delivered;
        scratch.faulted = faulted;
    }

    /// Writes every cell's end-of-round budget into the scratch finals —
    /// what the serial charge sequence leaves, bit for bit — validating
    /// S2 as it goes. Returns `false` if any live powered cell would
    /// finish the round at or below zero.
    fn settle_cells(&self, scratch: &mut AggScratch) -> bool {
        let core = &*self.core;
        let n = core.topology.len();
        // Every id-indexed column cut to `n`, so `v < n` needs no checks.
        let (budgets, finals) = (&self.budget[..n], &mut scratch.finals[..n]);
        let (alive, down_now) = (&core.alive[..n], &core.down_now[..n]);
        let (connected, pos) = (
            &core.cache.connected_flags()[..n],
            &core.cache.image().pos[..n],
        );
        let (arrivals, tx_costs) = (&scratch.by_pos[..], &core.cache.image().tx[..]);
        // The sink's budget is never charged.
        finals[0] = budgets[0];
        let mut prices = CellPrices::default();
        let mut disconnected = 0;
        for v in 1..n {
            let budget = budgets[v];
            if !alive[v] || down_now[v] {
                // Powered-off or dead: no idle, no send, and nothing
                // arrives at such a node.
                finals[v] = budget;
                continue;
            }
            let at = pos[v] as usize;
            let (arrived, tx, conn) = (arrivals[at], tx_costs[at], connected[v]);
            disconnected += u64::from(!conn);
            let cell = if arrived == 0 {
                // Idle and the cell's own tx: cheaper taken than priced.
                let cell = budget - self.idle_per_round;
                if conn {
                    cell - tx
                } else {
                    cell
                }
            } else {
                // A relay is routed, so it also sends its own report.
                prices
                    .closed_form(self, budget, arrived, tx)
                    .unwrap_or_else(|| self.step_cell(at, budget))
            };
            finals[v] = cell;
            if cell <= 0.0 {
                return false;
            }
        }
        scratch.disconnected = disconnected;
        true
    }

    /// A relay's end-of-round budget stepped through its serial charge
    /// sequence — idle, `below` × (rx, tx), own tx, `above` × (rx, tx)
    /// — in whole ulps between binade crossings.
    fn step_cell(&self, at: usize, budget: f64) -> f64 {
        let [below, above] = self.split_arrivals(at);
        let (rx, tx) = (self.rx_per_hop, self.core.cache.image().tx[at]);
        let cell = exact::sub_cycle_n(budget - self.idle_per_round, [rx, tx], below);
        exact::sub_cycle_n(cell - tx, [rx, tx], above)
    }

    /// A relay's clean arrivals by source id, `[below, above]` the
    /// relay's: a scan of its subtree's image range that skips each
    /// range cut off below a faulted hop and each powered-off source.
    fn split_arrivals(&self, at: usize) -> [u64; 2] {
        let core = &*self.core;
        let hop_faults = core.hop_faults();
        let down_now = &core.down_now[..];
        let RouteImage { id, end, .. } = core.cache.image();
        let relay = id[at];
        let mut split = [0; 2];
        let mut q = at + 1;
        while q < end[at] as usize {
            if hop_faults.is_some_and(|mask| mask[q] != HopFault::Clear) {
                q = end[q] as usize;
                continue;
            }
            if hop_faults.is_none() || !down_now[id[q] as usize] {
                split[usize::from(id[q] > relay)] += 1;
            }
            q += 1;
        }
        split
    }

    /// Commits a validated aggregated round: budgets, the folded `spent`,
    /// the delivered count, then the recorder's charges in a fixed
    /// per-cell order (idle charges ascending, then each cell's Tx and
    /// RxRelay charges as counts; packet counters as whole-round
    /// tallies).
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
        let (alive, down_now) = (&core.alive[..n], &core.down_now[..n]);
        let (connected, pos) = (
            &core.cache.connected_flags()[..n],
            &core.cache.image().pos[..n],
        );
        let tx_costs = &core.cache.image().tx[..];
        let idle = self.idle_per_round;
        let rx = self.rx_per_hop;
        for v in 1..n {
            if alive[v] && !down_now[v] {
                recorder.charge(v, EnergyCategory::Idle, idle);
            }
        }
        for v in 1..n {
            if !alive[v] || down_now[v] {
                continue;
            }
            let conn = connected[v];
            let at = pos[v] as usize;
            let relayed = scratch.by_pos[at];
            recorder.charge_n(
                v,
                EnergyCategory::Tx,
                tx_costs[at],
                relayed + u64::from(conn),
            );
            recorder.charge_n(v, EnergyCategory::RxRelay, rx, relayed);
        }
        recorder.packets_offered(scratch.senders);
        recorder.packets_dropped_disconnected(scratch.disconnected);
        recorder.packets_delivered(scratch.delivered);
        recorder.packets_dropped_fault(scratch.faulted);
    }
}

/// The idle and receive charges in ulps of the binade priced last, for
/// the cells' closed form; budgets mostly share a few binades.
#[derive(Default)]
struct CellPrices {
    binade: Option<Binade>,
    idle: Option<u64>,
    rx: Option<u64>,
}

impl CellPrices {
    /// A relay's end-of-round budget in closed form — its starting ulps
    /// less those of the whole sequence: idle, `arrived` × (rx, tx) and
    /// its own tx — or `None` when the sequence leaves the binade or an
    /// operand ties, and the relay must be stepped.
    fn closed_form(
        &mut self,
        state: &GatherState<'_, '_>,
        budget: f64,
        arrived: u64,
        tx: f64,
    ) -> Option<f64> {
        let binade = Binade::of(budget)?;
        if self.binade != Some(binade) {
            *self = Self {
                binade: Some(binade),
                idle: binade.units(state.idle_per_round),
                rx: binade.units(state.rx_per_hop),
            };
        }
        let tx_units = binade.units(tx)?;
        let units = arrived
            .checked_mul(self.rx?.checked_add(tx_units)?)?
            .checked_add(self.idle?)?
            .checked_add(tx_units)?;
        Some(binade.value(binade.shrink(binade.ulps(budget), units)?))
    }
}
