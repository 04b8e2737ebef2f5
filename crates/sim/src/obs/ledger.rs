//! The energy ledger: per-node, per-category charge records.
//!
//! The keynote's argument is an energy-*accounting* argument — a device
//! lives or dies by where every joule goes — so simulations must be able
//! to say not just *how much* energy a run consumed but *which activity*
//! consumed it on *which node*. The ledger is the attribution store:
//! a pre-sized, flat `f64` table indexed by `(node, category)` that the
//! hot path charges with plain array arithmetic (no hashing, no per-event
//! allocation), folded into totals only when a report or manifest is
//! rendered.
//!
//! Determinism: every fold (`total`, `category_total`, `node_total`) runs
//! in fixed node-then-category order, and [`EnergyLedger::merge`]
//! accumulates element-wise, so merging per-replication ledgers in index
//! order produces bit-identical totals at any worker-thread count.

use crate::exact;
use ami_units::Energy;

/// The activity a joule is attributed to.
///
/// The four categories are the µW-node's energy story in the source
/// keynote: packet transmission, relay reception, idle listening (the
/// MAC baseline that dominates duty-cycled radios), and the sensing path
/// (sensor bias, conversion and local processing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyCategory {
    /// Radio transmit energy (own reports and relayed forwards).
    Tx,
    /// Radio receive energy spent relaying other nodes' packets.
    RxRelay,
    /// Baseline idle-listening / MAC channel-check energy.
    Idle,
    /// Sensing-path energy: sensor bias, ADC and local processing.
    Sensing,
}

impl EnergyCategory {
    /// All categories, in ledger column order.
    pub const ALL: [Self; 4] = [Self::Tx, Self::RxRelay, Self::Idle, Self::Sensing];

    /// Stable snake_case label used in manifests.
    pub fn label(self) -> &'static str {
        match self {
            Self::Tx => "tx",
            Self::RxRelay => "rx_relay",
            Self::Idle => "idle",
            Self::Sensing => "sensing",
        }
    }

    fn column(self) -> usize {
        match self {
            Self::Tx => 0,
            Self::RxRelay => 1,
            Self::Idle => 2,
            Self::Sensing => 3,
        }
    }
}

const CATEGORIES: usize = EnergyCategory::ALL.len();

/// Per-node, per-category energy charges plus true end-of-run residuals.
///
/// Charges are stored in joules in a flat `nodes × categories` table.
/// Residuals are *not clamped*: a node driven past empty keeps its
/// negative residual, and [`overdraft`](Self::overdraft) totals how far
/// past empty the run went — silently hiding overdraft is exactly the
/// accounting bug this layer exists to expose.
///
/// # Example
///
/// ```
/// use ami_sim::obs::{EnergyCategory, EnergyLedger};
///
/// let mut ledger = EnergyLedger::with_nodes(2);
/// ledger.charge(0, EnergyCategory::Tx, 3.0);
/// ledger.charge(1, EnergyCategory::Idle, 1.0);
/// ledger.set_residual(1, -0.25); // driven past empty
/// assert_eq!(ledger.total().as_joules(), 4.0);
/// assert_eq!(ledger.overdraft().as_joules(), 0.25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyLedger {
    /// Flat `nodes × CATEGORIES` charge table, joules.
    charges: Vec<f64>,
    /// True end-of-run budget per node, joules (negative = overdraft).
    residual: Vec<f64>,
}

impl EnergyLedger {
    /// An empty ledger pre-sized for `nodes` nodes.
    pub fn with_nodes(nodes: usize) -> Self {
        Self {
            charges: vec![0.0; nodes * CATEGORIES],
            residual: vec![0.0; nodes],
        }
    }

    /// Number of node rows.
    pub fn nodes(&self) -> usize {
        self.residual.len()
    }

    /// Adds `joules` to the `(node, category)` cell.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `joules` is negative or not finite;
    /// panics if `node` is out of range.
    #[inline]
    pub fn charge(&mut self, node: usize, category: EnergyCategory, joules: f64) {
        debug_assert!(joules.is_finite() && joules >= 0.0, "bad charge {joules}");
        self.charges[node * CATEGORIES + category.column()] += joules;
    }

    /// Adds `count` charges of `joules` to the `(node, category)` cell
    /// one after the other — bit for bit `count` calls of
    /// [`charge`](Self::charge), in O(1) per binade the cell crosses
    /// ([`crate::exact`]).
    ///
    /// # Panics
    ///
    /// As [`charge`](Self::charge).
    #[inline]
    pub fn charge_n(&mut self, node: usize, category: EnergyCategory, joules: f64, count: u64) {
        debug_assert!(joules.is_finite() && joules >= 0.0, "bad charge {joules}");
        let cell = &mut self.charges[node * CATEGORIES + category.column()];
        *cell = exact::add_n(*cell, joules, count);
    }

    /// The charge recorded for one `(node, category)` cell, joules.
    pub fn node_category(&self, node: usize, category: EnergyCategory) -> f64 {
        self.charges[node * CATEGORIES + category.column()]
    }

    /// Total charged to `node` across categories.
    pub fn node_total(&self, node: usize) -> Energy {
        let row = &self.charges[node * CATEGORIES..(node + 1) * CATEGORIES];
        Energy::from_joules(row.iter().sum())
    }

    /// Total charged to `category` across nodes, folded in node order.
    pub fn category_total(&self, category: EnergyCategory) -> Energy {
        let column = category.column();
        let mut sum = 0.0;
        for node in 0..self.nodes() {
            sum += self.charges[node * CATEGORIES + column];
        }
        Energy::from_joules(sum)
    }

    /// Grand total across nodes and categories, folded node-major.
    pub fn total(&self) -> Energy {
        Energy::from_joules(self.charges.iter().sum())
    }

    /// Fraction of the grand total attributed to `category`
    /// (0 when nothing was charged).
    pub fn fraction(&self, category: EnergyCategory) -> f64 {
        let total = self.total().as_joules();
        if total == 0.0 {
            0.0
        } else {
            self.category_total(category).as_joules() / total
        }
    }

    /// Records `node`'s true end-of-run budget (may be negative).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn set_residual(&mut self, node: usize, joules: f64) {
        self.residual[node] = joules;
    }

    /// True residual budgets per node, joules (negative = overdraft).
    pub fn residuals(&self) -> &[f64] {
        &self.residual
    }

    /// Sum of residual budgets (overdrafts subtract).
    pub fn residual_total(&self) -> Energy {
        Energy::from_joules(self.residual.iter().sum())
    }

    /// How far past empty the run drove its nodes in total: the sum of
    /// `max(0, −residual)` over nodes. (The explicit branch keeps a
    /// fully-funded ledger at exactly `+0.0` — `(-0.0).max(0.0)` would
    /// leak a negative zero into manifests.)
    pub fn overdraft(&self) -> Energy {
        Energy::from_joules(
            self.residual
                .iter()
                .map(|&r| if r < 0.0 { -r } else { 0.0 })
                .sum(),
        )
    }

    /// Element-wise accumulation of `other` into `self`, growing the
    /// node table if `other` is larger. Merging per-replication ledgers
    /// in index order keeps totals bit-identical at any thread count.
    pub fn merge(&mut self, other: &Self) {
        if other.nodes() > self.nodes() {
            self.charges.resize(other.charges.len(), 0.0);
            self.residual.resize(other.residual.len(), 0.0);
        }
        for (slot, &add) in self.charges.iter_mut().zip(&other.charges) {
            *slot += add;
        }
        for (slot, &add) in self.residual.iter_mut().zip(&other.residual) {
            *slot += add;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_attribute_by_node_and_category() {
        let mut ledger = EnergyLedger::with_nodes(3);
        ledger.charge(1, EnergyCategory::Tx, 2.0);
        ledger.charge(1, EnergyCategory::Tx, 0.5);
        ledger.charge(2, EnergyCategory::RxRelay, 1.0);
        ledger.charge(2, EnergyCategory::Idle, 4.0);
        assert_eq!(ledger.node_category(1, EnergyCategory::Tx), 2.5);
        assert_eq!(ledger.node_total(2).as_joules(), 5.0);
        assert_eq!(ledger.category_total(EnergyCategory::Tx).as_joules(), 2.5);
        assert_eq!(ledger.total().as_joules(), 7.5);
        assert_eq!(ledger.node_total(0).as_joules(), 0.0);
    }

    #[test]
    fn categories_partition_the_total() {
        let mut ledger = EnergyLedger::with_nodes(4);
        for node in 0..4 {
            for (k, category) in EnergyCategory::ALL.into_iter().enumerate() {
                ledger.charge(node, category, (node + k) as f64 * 0.125);
            }
        }
        let by_category: f64 = EnergyCategory::ALL
            .into_iter()
            .map(|c| ledger.category_total(c).as_joules())
            .sum();
        assert_eq!(by_category, ledger.total().as_joules());
    }

    #[test]
    fn residuals_and_overdraft_are_unclamped() {
        let mut ledger = EnergyLedger::with_nodes(3);
        ledger.set_residual(0, 1.0);
        ledger.set_residual(1, -0.5);
        ledger.set_residual(2, -0.25);
        assert_eq!(ledger.residual_total().as_joules(), 0.25);
        assert_eq!(ledger.overdraft().as_joules(), 0.75);
    }

    #[test]
    fn merge_accumulates_elementwise() {
        let mut a = EnergyLedger::with_nodes(2);
        a.charge(0, EnergyCategory::Tx, 1.0);
        a.set_residual(0, 2.0);
        let mut b = EnergyLedger::with_nodes(2);
        b.charge(0, EnergyCategory::Tx, 0.5);
        b.charge(1, EnergyCategory::Sensing, 3.0);
        b.set_residual(0, -1.0);
        a.merge(&b);
        assert_eq!(a.node_category(0, EnergyCategory::Tx), 1.5);
        assert_eq!(a.node_category(1, EnergyCategory::Sensing), 3.0);
        assert_eq!(a.residuals(), &[1.0, 0.0]);
    }

    #[test]
    fn merge_grows_to_the_larger_ledger() {
        let mut a = EnergyLedger::with_nodes(1);
        a.charge(0, EnergyCategory::Idle, 1.0);
        let mut b = EnergyLedger::with_nodes(3);
        b.charge(2, EnergyCategory::Idle, 2.0);
        a.merge(&b);
        assert_eq!(a.nodes(), 3);
        assert_eq!(a.total().as_joules(), 3.0);
    }

    #[test]
    fn labels_are_stable_snake_case() {
        let labels: Vec<&str> = EnergyCategory::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, ["tx", "rx_relay", "idle", "sensing"]);
    }
}
