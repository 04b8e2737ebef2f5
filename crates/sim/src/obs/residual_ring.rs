//! A bounded residual sink for very large networks.
//!
//! [`LedgerRecorder`](super::LedgerRecorder) holds a `(node, category)`
//! table — O(N) memory — which is the right default up to city scale
//! but the wrong tool at n = 10⁶⁺, where observing a run should not
//! cost another hundred megabytes. [`RingRecorder`] is the O(active)
//! alternative: running scalar aggregates (charge totals, packet
//! counters, residual moments and extremes) plus a fixed-capacity ring
//! of the most recent `(node, residual)` samples. Memory is bounded by
//! the ring capacity no matter how many nodes the run touches, which is
//! what the n = 1M scale smoke's peak-RSS ceiling leans on.
//!
//! Like every [`Recorder`], it is passive — attaching it cannot change
//! simulation results — and deterministic: aggregates fold in call
//! order, which the kernels fix (ascending node id at commit).

use super::counters::PacketCounters;
use super::ledger::EnergyCategory;
use super::recorder::Recorder;
use crate::exact;

/// Running summary of every residual the sink has seen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualStats {
    /// Residuals recorded so far.
    pub count: u64,
    /// Sum of all residuals (joules; call-order fold).
    pub sum: f64,
    /// Smallest residual seen (most overdrawn), `f64::INFINITY` when
    /// none recorded yet.
    pub min: f64,
    /// Largest residual seen, `f64::NEG_INFINITY` when none yet.
    pub max: f64,
    /// Nodes that finished overdrawn (residual < 0).
    pub overdrawn: u64,
    /// Total overdraft magnitude (joules, ≥ 0).
    pub overdraft: f64,
}

/// An O(active)-memory [`Recorder`]: scalar aggregates plus a ring of
/// the most recent residual samples. See the module docs.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    capacity: usize,
    /// Recent `(node, residual)` samples; once full, `head` is the slot
    /// the next sample overwrites (= the oldest retained sample).
    ring: Vec<(u32, f64)>,
    head: usize,
    /// End-to-end packet tallies (O(1) state).
    pub packets: PacketCounters,
    /// Total joules charged across all nodes and categories.
    pub charged: f64,
    /// Individual charge events seen.
    pub charges: u64,
    stats: ResidualStats,
}

impl RingRecorder {
    /// An empty sink retaining at most `capacity` recent residual
    /// samples (`capacity` ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "retain at least one sample");
        Self {
            capacity,
            ring: Vec::with_capacity(capacity),
            head: 0,
            packets: PacketCounters::new(),
            charged: 0.0,
            charges: 0,
            stats: ResidualStats {
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                overdrawn: 0,
                overdraft: 0.0,
            },
        }
    }

    /// The running residual summary.
    pub fn stats(&self) -> ResidualStats {
        self.stats
    }

    /// Retained samples, oldest first. At most `capacity` entries; the
    /// kernels record residuals in ascending node id, so these are the
    /// highest-id tail of the node space.
    pub fn recent(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (wrapped, first) = self.ring.split_at(self.head);
        first.iter().chain(wrapped.iter()).copied()
    }
}

impl Recorder for RingRecorder {
    const RETAIN_SAMPLES: bool = false;

    #[inline]
    fn charge(&mut self, _node: usize, _category: EnergyCategory, joules: f64) {
        self.charged += joules;
        self.charges += 1;
    }
    fn charge_n(&mut self, _node: usize, _category: EnergyCategory, joules: f64, count: u64) {
        self.charged = exact::add_n(self.charged, joules, count);
        self.charges += count;
    }
    #[inline]
    fn packet_offered(&mut self) {
        self.packets.offered += 1;
    }
    #[inline]
    fn packet_delivered(&mut self) {
        self.packets.delivered += 1;
    }
    #[inline]
    fn packet_dropped_dead_hop(&mut self) {
        self.packets.dropped_dead_hop += 1;
    }
    #[inline]
    fn packet_dropped_disconnected(&mut self) {
        self.packets.dropped_disconnected += 1;
    }
    #[inline]
    fn packet_dropped_fault(&mut self) {
        self.packets.dropped_fault += 1;
    }
    fn record_residual(&mut self, node: usize, joules: f64) {
        let s = &mut self.stats;
        s.count += 1;
        s.sum += joules;
        s.min = s.min.min(joules);
        s.max = s.max.max(joules);
        if joules < 0.0 {
            s.overdrawn += 1;
            s.overdraft -= joules;
        }
        let sample = (node as u32, joules);
        if self.ring.len() < self.capacity {
            self.ring.push(sample);
        } else {
            self.ring[self.head] = sample;
            self.head = (self.head + 1) % self.capacity;
        }
    }
    #[inline]
    fn packets_offered(&mut self, count: u64) {
        self.packets.offered += count;
    }
    #[inline]
    fn packets_delivered(&mut self, count: u64) {
        self.packets.delivered += count;
    }
    #[inline]
    fn packets_dropped_disconnected(&mut self, count: u64) {
        self.packets.dropped_disconnected += count;
    }
    #[inline]
    fn packets_dropped_fault(&mut self, count: u64) {
        self.packets.dropped_fault += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_cover_all_samples_ring_keeps_the_tail() {
        let mut rec = RingRecorder::with_capacity(3);
        for node in 0..10usize {
            rec.record_residual(node, node as f64 - 2.0);
        }
        let stats = rec.stats();
        assert_eq!(stats.count, 10);
        assert_eq!(stats.min, -2.0);
        assert_eq!(stats.max, 7.0);
        assert_eq!(stats.overdrawn, 2);
        assert_eq!(stats.overdraft, 3.0);
        assert_eq!(stats.sum, (0..10).map(|n| n as f64 - 2.0).sum::<f64>());
        let recent: Vec<_> = rec.recent().collect();
        assert_eq!(recent, vec![(7, 5.0), (8, 6.0), (9, 7.0)]);
    }

    #[test]
    fn partial_ring_iterates_in_insertion_order() {
        let mut rec = RingRecorder::with_capacity(8);
        rec.record_residual(3, 1.5);
        rec.record_residual(4, -0.5);
        let recent: Vec<_> = rec.recent().collect();
        assert_eq!(recent, vec![(3, 1.5), (4, -0.5)]);
    }

    #[test]
    fn charges_and_packets_fold_into_scalars() {
        let mut rec = RingRecorder::with_capacity(1);
        rec.charge(0, EnergyCategory::Tx, 1.0);
        rec.charge(999_999, EnergyCategory::RxRelay, 0.5);
        rec.packet_offered();
        rec.packet_delivered();
        rec.packets_offered(5);
        rec.packets_dropped_fault(2);
        assert_eq!(rec.charged, 1.5);
        assert_eq!(rec.charges, 2);
        assert_eq!(rec.packets.offered, 6);
        assert_eq!(rec.packets.delivered, 1);
        assert_eq!(rec.packets.dropped_fault, 2);
    }
}
