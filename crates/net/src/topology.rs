//! Node layouts for ambient networks.
//!
//! A [`Topology`] is a list of positions indexed by [`NodeId`], with the
//! sink at id 0. The hop graph it caches ([`Topology::csr_within`]) lays
//! the nodes out in spatial order instead; its `order` maps that
//! layout's local indices back to ids.

use crate::csr::{CsrAdjacency, HopWeights};
use ami_radio::RadioEnergyModel;
use ami_sim::sim_rng;
use ami_units::Length;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Index of a node within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A planar position in metres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Position {
    /// x coordinate in metres.
    pub x: f64,
    /// y coordinate in metres.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is not finite.
    pub fn new(x: f64, y: f64) -> Self {
        assert!(x.is_finite() && y.is_finite(), "coordinates must be finite");
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance_to(&self, other: &Position) -> Length {
        Length::from_meters(((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt())
    }
}

/// A lazily-filled single-slot cache of state derived from the
/// positions: the CSR hop graph of the most recently requested range,
/// or the hop weights of the most recent (range, radio) pair. Positions
/// are immutable after construction, so a cached value never goes stale
/// — the slot only turns over when a request under a *different* key
/// arrives.
struct Slot<T>(Mutex<Option<Arc<T>>>);

impl<T> Slot<T> {
    fn empty() -> Self {
        Self(Mutex::new(None))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Arc<T>>> {
        // A poisoned slot only means a build panicked; the cache holds
        // no invariants beyond "present means valid", so recover.
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The cached value if `hit` accepts it, else `build()`'s, which
    /// replaces it. The slot stays locked while `build` runs, so
    /// concurrent callers wait for one build instead of racing.
    fn get_or_build(&self, hit: impl Fn(&T) -> bool, build: impl FnOnce() -> T) -> Arc<T> {
        let mut slot = self.lock();
        if let Some(cached) = slot.as_ref().filter(|cached| hit(cached)) {
            return Arc::clone(cached);
        }
        let built = Arc::new(build());
        *slot = Some(Arc::clone(&built));
        built
    }
}

/// A clone shares the cached value (it is immutable behind the `Arc`),
/// saving a rebuild on cloned topologies.
impl<T> Clone for Slot<T> {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.lock().clone()))
    }
}

/// A set of node positions with a designated sink (node 0).
///
/// The topology carries two lazily-built caches, one slot each, so hot
/// paths neither rescan all pairs for bounded-range neighbourhoods nor
/// re-price a hop per relaxation: the [`CsrAdjacency`] hop graph keyed
/// by range ([`Topology::csr_within`]) and its [`HopWeights`] keyed by
/// range and radio model ([`Topology::hop_weights`]).
///
/// # Example
///
/// ```
/// use ami_net::Topology;
/// use ami_units::Length;
///
/// let grid = Topology::grid(3, Length::from_meters(10.0));
/// assert_eq!(grid.len(), 9);
/// assert_eq!(grid.sink().0, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Position>,
    csr: Slot<CsrAdjacency>,
    weights: Slot<HopWeights>,
}

impl<T> std::fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.lock().as_ref() {
            Some(_) => "Slot(cached)",
            None => "Slot(empty)",
        })
    }
}

/// Equality is positional: the caches are derived state and ignored.
impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.positions == other.positions
    }
}

/// Serializes exactly like the historical derived impl: a struct named
/// `Topology` with the single field `positions` (the caches are derived
/// state and never leave the process).
impl Serialize for Topology {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut state = serializer.serialize_struct("Topology", 1)?;
        state.serialize_field("positions", &self.positions)?;
        state.end()
    }
}

impl<'de> Deserialize<'de> for Topology {
    fn deserialize<D: serde::Deserializer<'de>>(_deserializer: D) -> Result<Self, D::Error> {
        // Mirrors the vendored derive's guarded stub: nothing in the
        // toolkit deserializes today.
        unimplemented!("mini-serde stand-in: deserialization of `Topology` is not supported")
    }
}

impl Topology {
    /// Builds a topology from explicit positions; node 0 is the sink.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two positions are given.
    pub fn new(positions: Vec<Position>) -> Self {
        assert!(
            positions.len() >= 2,
            "a network needs a sink and at least one node"
        );
        Self {
            positions,
            csr: Slot::empty(),
            weights: Slot::empty(),
        }
    }

    /// A square grid of `side × side` nodes spaced `spacing` apart, with
    /// the sink at the corner (0, 0).
    ///
    /// # Panics
    ///
    /// Panics if `side < 2` or spacing is not positive.
    pub fn grid(side: usize, spacing: Length) -> Self {
        assert!(side >= 2, "grid needs at least 2x2 nodes");
        assert!(spacing.as_meters() > 0.0, "spacing must be positive");
        let s = spacing.as_meters();
        let mut positions = Vec::with_capacity(side * side);
        for row in 0..side {
            for col in 0..side {
                positions.push(Position::new(col as f64 * s, row as f64 * s));
            }
        }
        Self::new(positions)
    }

    /// `n` nodes uniformly random in a `field × field` square, sink at the
    /// centre; deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `field` is not positive.
    pub fn random(n: usize, field: Length, seed: u64) -> Self {
        assert!(n >= 2, "a network needs a sink and at least one node");
        assert!(field.as_meters() > 0.0, "field size must be positive");
        let f = field.as_meters();
        let mut rng = sim_rng(seed);
        let mut positions = vec![Position::new(f / 2.0, f / 2.0)];
        for _ in 1..n {
            positions.push(Position::new(
                rng.random_range(0.0..f),
                rng.random_range(0.0..f),
            ));
        }
        Self::new(positions)
    }

    /// `n` leaf nodes on a circle of `radius` around a central sink.
    ///
    /// # Panics
    ///
    /// Panics if `n < 1` or `radius` is not positive.
    pub fn star(n: usize, radius: Length) -> Self {
        assert!(n >= 1, "a star needs at least one leaf");
        assert!(radius.as_meters() > 0.0, "radius must be positive");
        let r = radius.as_meters();
        let mut positions = vec![Position::new(0.0, 0.0)];
        for k in 0..n {
            let theta = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            positions.push(Position::new(r * theta.cos(), r * theta.sin()));
        }
        Self::new(positions)
    }

    /// Number of nodes including the sink.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `false` always (a topology has at least two nodes), provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The sink node (always node 0).
    pub fn sink(&self) -> NodeId {
        NodeId(0)
    }

    /// Position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.0]
    }

    /// All positions, id-ordered (sink first).
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Length {
        self.positions[a.0].distance_to(&self.positions[b.0])
    }

    /// All node ids, sink first.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len()).map(NodeId)
    }

    /// Ids of all non-sink nodes.
    pub fn sensor_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.positions.len()).map(NodeId)
    }

    /// The CSR hop graph for `range`, in spatial order, built on first
    /// request and cached (single slot, bitwise range key) for every
    /// later caller — healthy simulations pay the grid build exactly
    /// once.
    pub fn csr_within(&self, range: Length) -> Arc<CsrAdjacency> {
        self.csr.get_or_build(
            |csr| csr.matches_range(range),
            || CsrAdjacency::build(&self.positions, range),
        )
    }

    /// The price of every edge of [`csr_within(range)`](Self::csr_within)
    /// under `radio`, aligned with its targets: priced on first request
    /// and cached (single slot, keyed on the range's bits and the whole
    /// radio model) for every later caller and every clone made after.
    /// A request under another key re-prices and replaces the slot.
    pub fn hop_weights(&self, range: Length, radio: &RadioEnergyModel) -> Arc<HopWeights> {
        // Lock order: the weight slot, then (inside) the CSR slot;
        // `csr_within` never takes the weight slot.
        self.weights.get_or_build(
            |weights| weights.matches(range, radio),
            || HopWeights::price(&self.positions, &self.csr_within(range), radio),
        )
    }

    /// The maximum node-to-sink distance (network radius).
    pub fn radius(&self) -> Length {
        self.sensor_ids()
            .map(|id| self.distance(self.sink(), id))
            .max_by(|a, b| a.total_cmp(b))
            .unwrap_or(Length::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_layout() {
        let g = Topology::grid(3, Length::from_meters(10.0));
        assert_eq!(g.len(), 9);
        assert_eq!(g.position(NodeId(0)).x, 0.0);
        assert_eq!(g.position(NodeId(4)).x, 10.0); // centre of 3x3
        assert_eq!(g.position(NodeId(4)).y, 10.0);
        // Corner-to-corner distance.
        let d = g.distance(NodeId(0), NodeId(8));
        assert!((d.as_meters() - 20.0 * 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        let a = Topology::random(20, Length::from_meters(100.0), 7);
        let b = Topology::random(20, Length::from_meters(100.0), 7);
        let c = Topology::random(20, Length::from_meters(100.0), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Sink at the field centre.
        assert_eq!(a.position(a.sink()).x, 50.0);
    }

    #[test]
    fn star_leaves_are_equidistant() {
        let s = Topology::star(8, Length::from_meters(25.0));
        assert_eq!(s.len(), 9);
        for id in s.sensor_ids() {
            assert!((s.distance(s.sink(), id).as_meters() - 25.0).abs() < 1e-9);
        }
        assert!((s.radius().as_meters() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn csr_rows_count_the_neighbours_within_range() {
        let g = Topology::grid(3, Length::from_meters(10.0));
        // Centre node: 4 orthogonal at 10 m, 4 diagonal at 14.1 m.
        for (range_m, degree) in [(10.5, 4), (15.0, 8)] {
            let csr = g.csr_within(Length::from_meters(range_m));
            assert_eq!(csr.row(csr.local_of(4)).len(), degree);
        }
    }

    #[test]
    fn csr_cache_is_reused_for_same_range_and_replaced_on_change() {
        let g = Topology::grid(4, Length::from_meters(10.0));
        let a = g.csr_within(Length::from_meters(12.0));
        let b = g.csr_within(Length::from_meters(12.0));
        assert!(Arc::ptr_eq(&a, &b), "same range must hit the cache");
        let c = g.csr_within(Length::from_meters(20.0));
        assert!(!Arc::ptr_eq(&a, &c));
        // The clone shares the currently-cached graph.
        let cloned = g.clone();
        let d = cloned.csr_within(Length::from_meters(20.0));
        assert!(Arc::ptr_eq(&c, &d));
        assert_eq!(g, cloned);

        // The weight slot: a hit shares the priced column, a change of
        // radio model or range re-prices it, and a clone shares it.
        let radio = RadioEnergyModel::short_range_2003();
        let range = Length::from_meters(20.0);
        let w = g.hop_weights(range, &radio);
        assert!(Arc::ptr_eq(&w, &g.hop_weights(range, &radio)));
        assert_eq!(w.joules_per_bit().len(), c.edge_count());
        let other = RadioEnergyModel::multipath_2003();
        assert!(!Arc::ptr_eq(&w, &g.hop_weights(range, &other)));
        let narrow = g.hop_weights(Length::from_meters(12.0), &other);
        assert!(narrow.matches(Length::from_meters(12.0), &other));
        assert!(
            !narrow.matches(range, &other) && !narrow.matches(Length::from_meters(12.0), &radio)
        );
        assert!(Arc::ptr_eq(
            &narrow,
            &g.clone().hop_weights(Length::from_meters(12.0), &other)
        ));
    }

    #[test]
    #[should_panic(expected = "sink and at least one node")]
    fn singleton_rejected() {
        let _ = Topology::new(vec![Position::new(0.0, 0.0)]);
    }
}
