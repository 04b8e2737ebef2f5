//! The recording hook simulations charge their events through.
//!
//! Simulation hot loops are generic over [`Recorder`]; the
//! un-instrumented entry points pass [`NullRecorder`], whose methods are
//! empty `#[inline]` bodies the optimizer deletes entirely — observing
//! nothing costs nothing. Instrumented entry points pass
//! [`LedgerRecorder`], which fills a pre-sized [`EnergyLedger`] and
//! [`PacketCounters`] with plain arithmetic (no per-event allocation).

use super::counters::PacketCounters;
use super::ledger::{EnergyCategory, EnergyLedger};

/// Receives observations from a simulation hot loop.
///
/// Implementations must be cheap: [`charge`](Self::charge) is called
/// per charge, [`packets`](Self::packets) once per round. They must also
/// be *passive* — a recorder never feeds back into simulation state, so
/// recording cannot change results.
pub trait Recorder {
    /// `joules` were spent by `node` on `category` activity.
    fn charge(&mut self, node: usize, category: EnergyCategory, joules: f64);

    /// Bulk form of [`charge`](Self::charge): `count` equal charges of
    /// `joules` to `node`'s `category`, as if charged one after the
    /// other. The default loops the per-event hook; recorders that fold
    /// charges into f64 accumulators override it with
    /// [`crate::exact`]'s stepping, which returns the loop's value bit
    /// for bit in O(1) per binade the accumulator crosses.
    fn charge_n(&mut self, node: usize, category: EnergyCategory, joules: f64, count: u64) {
        for _ in 0..count {
            self.charge(node, category, joules);
        }
    }

    /// One round's packet outcomes. Every round kernel tallies the
    /// round's packets and commits the tally here exactly once per
    /// round; lossy rounds leave channel losses out of every bucket.
    fn packets(&mut self, round: &PacketCounters);

    /// `node` finished the run with `joules` of budget left
    /// (negative = overdraft).
    fn record_residual(&mut self, node: usize, joules: f64);
}

/// The zero-cost recorder: every method is an empty inline body, so an
/// un-instrumented simulation monomorphizes to exactly the code it had
/// before the observability layer existed.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn charge(&mut self, _node: usize, _category: EnergyCategory, _joules: f64) {}
    #[inline(always)]
    fn charge_n(&mut self, _node: usize, _category: EnergyCategory, _joules: f64, _count: u64) {}
    #[inline(always)]
    fn packets(&mut self, _round: &PacketCounters) {}
    #[inline(always)]
    fn record_residual(&mut self, _node: usize, _joules: f64) {}
}

/// The standard instrumented recorder: an energy ledger plus packet
/// counters. This is also the *observation* a `*_observed` simulation
/// entry point returns.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecorder {
    /// Per-node, per-category charges and true residuals.
    pub ledger: EnergyLedger,
    /// End-to-end packet tallies.
    pub packets: PacketCounters,
}

impl LedgerRecorder {
    /// An empty recorder pre-sized for `nodes` nodes.
    pub fn with_nodes(nodes: usize) -> Self {
        Self {
            ledger: EnergyLedger::with_nodes(nodes),
            packets: PacketCounters::new(),
        }
    }

    /// Accumulates `other` into `self` (element-wise ledger merge plus
    /// counter addition). Merging replications in index order keeps the
    /// result bit-identical at any worker-thread count.
    pub fn merge(&mut self, other: &Self) {
        self.ledger.merge(&other.ledger);
        self.packets.merge(&other.packets);
    }
}

impl Recorder for LedgerRecorder {
    #[inline]
    fn charge(&mut self, node: usize, category: EnergyCategory, joules: f64) {
        self.ledger.charge(node, category, joules);
    }
    #[inline]
    fn charge_n(&mut self, node: usize, category: EnergyCategory, joules: f64, count: u64) {
        self.ledger.charge_n(node, category, joules, count);
    }
    #[inline]
    fn packets(&mut self, round: &PacketCounters) {
        self.packets.merge(round);
    }
    #[inline]
    fn record_residual(&mut self, node: usize, joules: f64) {
        self.ledger.set_residual(node, joules);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<R: Recorder>(rec: &mut R) {
        rec.charge(0, EnergyCategory::Tx, 1.0);
        rec.charge(1, EnergyCategory::RxRelay, 0.5);
        rec.packets(&PacketCounters {
            offered: 3,
            delivered: 1,
            dropped_dead_hop: 1,
            dropped_disconnected: 0,
            dropped_fault: 1,
        });
        rec.record_residual(0, -0.125);
    }

    #[test]
    fn null_recorder_accepts_everything() {
        drive(&mut NullRecorder); // must compile and do nothing
    }

    #[test]
    fn ledger_recorder_accumulates() {
        let mut rec = LedgerRecorder::with_nodes(2);
        drive(&mut rec);
        assert_eq!(rec.ledger.total().as_joules(), 1.5);
        assert_eq!(rec.ledger.overdraft().as_joules(), 0.125);
        assert_eq!(rec.packets.offered, 3);
        assert_eq!(rec.packets.delivered, 1);
        assert_eq!(rec.packets.dropped_fault, 1);
        assert!(rec.packets.is_conserved());
    }

    #[test]
    fn merge_combines_ledger_and_counters() {
        let mut a = LedgerRecorder::with_nodes(2);
        drive(&mut a);
        let mut b = LedgerRecorder::with_nodes(2);
        drive(&mut b);
        a.merge(&b);
        assert_eq!(a.ledger.total().as_joules(), 3.0);
        assert_eq!(a.packets.offered, 6);
    }
}
