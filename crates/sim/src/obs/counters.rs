//! Hierarchical run counters: typed packet tallies plus a generic
//! counter tree for manifests.
//!
//! The hot path increments plain `u64` fields ([`PacketCounters`] — no
//! strings, no maps); the hierarchical [`CounterTree`] view is built
//! once, at manifest-rendering time, so observability costs nothing per
//! event.

use serde::ser::{SerializeMap, Serializer};
use serde::Serialize;

/// End-to-end packet accounting for a run, or one round of it.
///
/// Every offered packet of a gathering run ends in exactly one of the
/// other buckets, and [`is_conserved`](Self::is_conserved) checks that
/// invariant — a delivery that isn't matched by an offer (or a drop
/// that vanishes) is an accounting bug. A lossy run's channel losses
/// land in no bucket: they are the remainder, offered less delivered
/// less [`dropped`](Self::dropped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketCounters {
    /// Packets generated by live, funded nodes.
    pub offered: u64,
    /// Packets that reached the sink.
    pub delivered: u64,
    /// Packets aborted en route because a hop's budget ran out.
    pub dropped_dead_hop: u64,
    /// Packets generated by nodes with no route to the sink.
    pub dropped_disconnected: u64,
    /// Packets lost to an injected fault: a hop or link that was down
    /// this round (see `ami_sim::fault`).
    pub dropped_fault: u64,
}

impl PacketCounters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total packets dropped for any reason.
    pub fn dropped(&self) -> u64 {
        self.dropped_dead_hop + self.dropped_disconnected + self.dropped_fault
    }

    /// `true` when every offered packet is accounted for.
    pub fn is_conserved(&self) -> bool {
        self.offered == self.delivered + self.dropped()
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        self.offered += other.offered;
        self.delivered += other.delivered;
        self.dropped_dead_hop += other.dropped_dead_hop;
        self.dropped_disconnected += other.dropped_disconnected;
        self.dropped_fault += other.dropped_fault;
    }

    /// The hierarchical manifest view:
    /// `packets/{offered, delivered, dropped/{dead_hop, disconnected, fault}}`.
    pub fn tree(&self) -> CounterTree {
        CounterTree::branch([(
            "packets",
            CounterTree::branch([
                ("offered", CounterTree::leaf(self.offered)),
                ("delivered", CounterTree::leaf(self.delivered)),
                (
                    "dropped",
                    CounterTree::branch([
                        ("dead_hop", CounterTree::leaf(self.dropped_dead_hop)),
                        ("disconnected", CounterTree::leaf(self.dropped_disconnected)),
                        ("fault", CounterTree::leaf(self.dropped_fault)),
                    ]),
                ),
            ]),
        )])
    }
}

/// A named tree of counters — the manifest's generic counter shape.
///
/// Branch entries keep insertion order, so a tree built the same way
/// always serializes to the same bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CounterTree {
    /// A single counter value.
    Leaf(u64),
    /// Named children, in insertion order.
    Branch(Vec<(&'static str, CounterTree)>),
}

impl CounterTree {
    /// A leaf counter.
    pub fn leaf(value: u64) -> Self {
        Self::Leaf(value)
    }

    /// A branch from `(name, subtree)` entries, kept in the given order.
    pub fn branch(entries: impl IntoIterator<Item = (&'static str, CounterTree)>) -> Self {
        Self::Branch(entries.into_iter().collect())
    }

    /// Sum of every leaf below (and including) this node.
    pub fn total(&self) -> u64 {
        match self {
            Self::Leaf(v) => *v,
            Self::Branch(entries) => entries.iter().map(|(_, t)| t.total()).sum(),
        }
    }

    /// Looks up a direct child by name (branches only).
    pub fn child(&self, name: &str) -> Option<&CounterTree> {
        match self {
            Self::Leaf(_) => None,
            Self::Branch(entries) => entries
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, tree)| tree),
        }
    }
}

impl Serialize for CounterTree {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Self::Leaf(v) => serializer.serialize_u64(*v),
            Self::Branch(entries) => {
                let mut map = serializer.serialize_map(Some(entries.len()))?;
                for (name, tree) in entries {
                    map.serialize_key(*name)?;
                    map.serialize_value(tree)?;
                }
                map.end()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_counters_conserve() {
        let mut c = PacketCounters::new();
        c.offered = 10;
        c.delivered = 6;
        c.dropped_dead_hop = 2;
        c.dropped_disconnected = 1;
        c.dropped_fault = 1;
        assert_eq!(c.dropped(), 4);
        assert!(c.is_conserved());
        c.delivered += 1;
        assert!(!c.is_conserved());
    }

    #[test]
    fn merge_adds_every_bucket() {
        let mut a = PacketCounters {
            offered: 3,
            delivered: 2,
            dropped_dead_hop: 1,
            dropped_disconnected: 0,
            dropped_fault: 0,
        };
        let b = PacketCounters {
            offered: 5,
            delivered: 4,
            dropped_dead_hop: 0,
            dropped_disconnected: 0,
            dropped_fault: 1,
        };
        a.merge(&b);
        assert_eq!(a.offered, 8);
        assert_eq!(a.delivered, 6);
        assert_eq!(a.dropped_fault, 1);
        assert!(a.is_conserved());
    }

    #[test]
    fn tree_mirrors_the_counters() {
        let c = PacketCounters {
            offered: 6,
            delivered: 3,
            dropped_dead_hop: 1,
            dropped_disconnected: 1,
            dropped_fault: 1,
        };
        let tree = c.tree();
        let packets = tree.child("packets").unwrap();
        assert_eq!(packets.child("offered").unwrap().total(), 6);
        assert_eq!(packets.child("dropped").unwrap().total(), 3);
        assert_eq!(
            packets
                .child("dropped")
                .unwrap()
                .child("fault")
                .unwrap()
                .total(),
            1
        );
        // offered + delivered + drops: the tree total double-counts by
        // design (it is a sum over leaves, not a conservation check).
        assert_eq!(tree.total(), 12);
    }

    #[test]
    fn branch_preserves_insertion_order() {
        let tree = CounterTree::branch([("b", CounterTree::leaf(1)), ("a", CounterTree::leaf(2))]);
        match &tree {
            CounterTree::Branch(entries) => {
                assert_eq!(entries[0].0, "b");
                assert_eq!(entries[1].0, "a");
            }
            CounterTree::Leaf(_) => panic!("expected branch"),
        }
    }
}
