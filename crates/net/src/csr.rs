//! Compressed-sparse-row adjacency for bounded-range hop graphs.
//!
//! [`Topology::neighbors_within`](crate::Topology::neighbors_within) is
//! an O(N) scan that allocates per call; every Dijkstra relaxation used
//! to pay it. A [`CsrAdjacency`] pre-resolves the whole hop graph for
//! one (topology, range) pair — candidate pairs drawn from a uniform
//! spatial grid (3×3 cell probe, O(N · candidates) work; the historical
//! all-pairs O(N²) scan survives as [`CsrAdjacency::build_scan`], the
//! pinned oracle) — and stores it as
//! the classic offsets/targets pair, **id-ordered per row** so that
//! iteration order — and therefore deterministic tie-breaking and every
//! golden manifest downstream — is identical to the scan it replaces.
//! Rows hold neighbour ids only. [`CsrAdjacency::row`] exposes a row's
//! edge range, so a per-edge column aligned with the graph is read over
//! the same indices: [`HopWeights`] holds each edge's price under one
//! radio model, so routing never re-prices a hop (nor recomputes its
//! square root) per relaxation.
//!
//! Both are built lazily and cached on the topology behind an `Arc`, one
//! slot each: [`Topology::csr_within`](crate::Topology::csr_within)
//! keyed on the range, [`Topology::hop_weights`](crate::Topology::hop_weights)
//! on the range and the radio model. Healthy simulations build each
//! exactly once.

use crate::topology::Position;
use ami_radio::RadioEnergyModel;
use ami_units::Length;

/// A bounded-range hop graph in compressed-sparse-row form.
///
/// Row `u` holds the ids of every node within `range` of `u` (itself
/// excluded) in ascending id order.
///
/// # Example
///
/// ```
/// use ami_net::Topology;
/// use ami_units::Length;
///
/// let grid = Topology::grid(3, Length::from_meters(10.0));
/// let csr = grid.csr_within(Length::from_meters(10.5));
/// // The centre node has its 4 orthogonal neighbours, id-ordered.
/// assert_eq!(csr.neighbors(4), &[1, 3, 5, 7]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrAdjacency {
    /// The range this graph was built for, as raw bits (the cache key).
    range_bits: u64,
    /// `offsets[u]..offsets[u + 1]` indexes row `u` in `targets`.
    offsets: Vec<u32>,
    /// Neighbour ids, ascending within each row.
    targets: Vec<u32>,
}

impl CsrAdjacency {
    /// Builds the hop graph over `positions` with hops bounded by
    /// `range` (inclusive, matching `neighbors_within`).
    ///
    /// Candidate pairs come from a uniform spatial grid with cells at
    /// least `range` wide (probing the 3×3 block around each node), so
    /// construction is O(N · candidates) instead of the all-pairs scan —
    /// the difference between seconds and hours at city scale. Rows are
    /// still emitted in ascending id order after the exact same
    /// [`Position::distance_to`] test, so the result is identical to
    /// [`build_scan`](Self::build_scan) (pinned by tests).
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` nodes.
    pub fn build(positions: &[Position], range: Length) -> Self {
        let n = positions.len();
        assert!(u32::try_from(n).is_ok(), "CSR ids are u32");
        let r = range.as_meters();
        if n == 0 || !r.is_finite() || r <= 0.0 {
            // Degenerate ranges have no useful cell size; the scan is
            // exact and these cases are never hot.
            return Self::build_scan(positions, range);
        }

        // Deployment bounding box.
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }

        // Cell size: at least `range` so the 3×3 probe covers every
        // in-range pair, and at least extent/√n so the grid stays O(n)
        // cells even when the range is tiny relative to the field.
        let cap = (n as f64).sqrt().ceil().max(1.0);
        let cell = r.max((max_x - min_x) / cap).max((max_y - min_y) / cap);
        let nx = ((max_x - min_x) / cell) as usize + 1;
        let ny = ((max_y - min_y) / cell) as usize + 1;
        let cell_xy = |p: &Position| -> (usize, usize) {
            let cx = (((p.x - min_x) / cell) as usize).min(nx - 1);
            let cy = (((p.y - min_y) / cell) as usize).min(ny - 1);
            (cx, cy)
        };

        // Counting-sort node ids into cells (ascending id per cell).
        let cells = nx * ny;
        let mut start = vec![0u32; cells + 1];
        for p in positions {
            let (cx, cy) = cell_xy(p);
            start[cy * nx + cx + 1] += 1;
        }
        for c in 0..cells {
            start[c + 1] += start[c];
        }
        let mut bucket = vec![0u32; n];
        let mut cursor = start.clone();
        for (id, p) in positions.iter().enumerate() {
            let (cx, cy) = cell_xy(p);
            let c = cy * nx + cx;
            bucket[cursor[c] as usize] = id as u32;
            cursor[c] += 1;
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        let mut candidates: Vec<u32> = Vec::new();
        offsets.push(0u32);
        for (u, pu) in positions.iter().enumerate() {
            let (cx, cy) = cell_xy(pu);
            candidates.clear();
            for gy in cy.saturating_sub(1)..=(cy + 1).min(ny - 1) {
                for gx in cx.saturating_sub(1)..=(cx + 1).min(nx - 1) {
                    let c = gy * nx + gx;
                    candidates.extend_from_slice(&bucket[start[c] as usize..start[c + 1] as usize]);
                }
            }
            // Nine ascending runs merge into one ascending row: the sort
            // restores the id order the scan produced.
            candidates.sort_unstable();
            for &vid in &candidates {
                let v = vid as usize;
                if v == u {
                    continue;
                }
                if pu.distance_to(&positions[v]) <= range {
                    targets.push(vid);
                }
            }
            offsets.push(targets.len() as u32);
        }
        Self {
            range_bits: range.as_meters().to_bits(),
            offsets,
            targets,
        }
    }

    /// The historical all-pairs O(N²) construction, kept in-tree as the
    /// pinned oracle for the spatial-grid [`build`](Self::build): tests
    /// diff the two row for row on random and degenerate layouts.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` nodes.
    pub fn build_scan(positions: &[Position], range: Length) -> Self {
        let n = positions.len();
        assert!(u32::try_from(n).is_ok(), "CSR ids are u32");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for (u, pu) in positions.iter().enumerate() {
            for (v, pv) in positions.iter().enumerate() {
                if u == v {
                    continue;
                }
                if pu.distance_to(pv) <= range {
                    targets.push(v as u32);
                }
            }
            offsets.push(targets.len() as u32);
        }
        Self {
            range_bits: range.as_meters().to_bits(),
            offsets,
            targets,
        }
    }

    /// Whether this graph was built for `range` (bitwise-exact key).
    pub fn matches_range(&self, range: Length) -> bool {
        self.range_bits == range.as_meters().to_bits()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Neighbour ids of `node`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: usize) -> &[u32] {
        &self.targets[self.row(node)]
    }

    /// The edge indices of `node`'s row: `targets()[row(node)]` are its
    /// neighbours, and a per-edge column aligned with this graph (such as
    /// [`HopWeights::joules_per_bit`]) holds their values over the same
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn row(&self, node: usize) -> std::ops::Range<usize> {
        self.offsets[node] as usize..self.offsets[node + 1] as usize
    }

    /// Every row's neighbour ids, concatenated in node order.
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }
}

/// The price of every edge of a [`CsrAdjacency`] under one radio model:
/// entry `e` is `radio.hop_energy_per_bit(d).as_joules_per_bit()` for the
/// length `d` of edge `e` (from the row's node to `targets()[e]`), the
/// weight minimum-energy routing relaxes.
///
/// Built by [`Topology::hop_weights`](crate::Topology::hop_weights),
/// which caches it beside the graph.
///
/// # Example
///
/// ```
/// use ami_net::Topology;
/// use ami_radio::RadioEnergyModel;
/// use ami_units::Length;
///
/// let grid = Topology::grid(3, Length::from_meters(10.0));
/// let radio = RadioEnergyModel::short_range_2003();
/// let range = Length::from_meters(10.5);
/// let (csr, weights) = (grid.csr_within(range), grid.hop_weights(range, &radio));
/// // Every centre-node hop is 10 m long, so all four cost the same.
/// let hop = radio.hop_energy_per_bit(Length::from_meters(10.0)).as_joules_per_bit();
/// assert_eq!(weights.joules_per_bit()[csr.row(4)], [hop; 4]);
/// ```
#[derive(Debug)]
pub struct HopWeights {
    /// The range of the graph the column is aligned with, as raw bits.
    range_bits: u64,
    radio: RadioEnergyModel,
    joules_per_bit: Vec<f64>,
}

impl HopWeights {
    /// Prices every edge of `csr`, the graph over `positions`, under
    /// `radio`.
    ///
    /// Two passes: the edge lengths first, in a loop that calls nothing,
    /// so the random position loads overlap; then the prices in place.
    /// (Pricing inside the first loop stalls those loads behind each
    /// `powf`.)
    ///
    /// # Panics
    ///
    /// Panics if `csr` has more nodes than `positions`.
    pub(crate) fn price(
        positions: &[Position],
        csr: &CsrAdjacency,
        radio: &RadioEnergyModel,
    ) -> Self {
        let mut joules_per_bit = Vec::with_capacity(csr.edge_count());
        for (u, pu) in positions[..csr.len()].iter().enumerate() {
            joules_per_bit.extend(
                csr.neighbors(u)
                    .iter()
                    .map(|&v| pu.distance_to(&positions[v as usize]).as_meters()),
            );
        }
        for weight in &mut joules_per_bit {
            *weight = radio
                .hop_energy_per_bit(Length::from_meters(*weight))
                .as_joules_per_bit();
        }
        Self {
            range_bits: csr.range_bits,
            radio: *radio,
            joules_per_bit,
        }
    }

    /// Whether the column was priced for `range` (bitwise) under a radio
    /// model equal (`==`) to `radio`.
    pub(crate) fn matches(&self, range: Length, radio: &RadioEnergyModel) -> bool {
        self.range_bits == range.as_meters().to_bits() && self.radio == *radio
    }

    /// The per-edge prices in J/bit, aligned with the graph's `targets()`.
    pub fn joules_per_bit(&self) -> &[f64] {
        &self.joules_per_bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn csr_rows_match_the_scan_exactly() {
        let topo = Topology::random(40, Length::from_meters(120.0), 7);
        for range_m in [15.0, 40.0, 80.0] {
            let range = Length::from_meters(range_m);
            let csr = CsrAdjacency::build(
                &topo.ids().map(|id| topo.position(id)).collect::<Vec<_>>(),
                range,
            );
            for u in topo.ids() {
                let scan: Vec<u32> = topo
                    .ids()
                    .filter(|&v| v != u && topo.distance(u, v) <= range)
                    .map(|v| v.0 as u32)
                    .collect();
                assert_eq!(csr.neighbors(u.0), scan.as_slice(), "row {u}");
                assert_eq!(&csr.targets()[csr.row(u.0)], scan.as_slice());
            }
        }
    }

    #[test]
    fn range_key_is_bitwise() {
        let topo = Topology::grid(3, Length::from_meters(10.0));
        let positions: Vec<Position> = topo.ids().map(|id| topo.position(id)).collect();
        let csr = CsrAdjacency::build(&positions, Length::from_meters(10.5));
        assert!(csr.matches_range(Length::from_meters(10.5)));
        assert!(!csr.matches_range(Length::from_meters(15.0)));
        assert_eq!(csr.len(), 9);
        // 4 corners x 2 + 4 edges x 3 + centre x 4 edges, directed.
        assert_eq!(csr.edge_count(), 24);
    }
}
