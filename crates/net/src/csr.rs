//! Compressed-sparse-row adjacency for bounded-range hop graphs, laid
//! out in spatial order.
//!
//! A [`CsrAdjacency`] pre-resolves the whole hop graph for one
//! (topology, range) pair — candidate pairs drawn from a uniform
//! spatial grid (3×3 cell probe, O(N · candidates) work; the all-pairs
//! O(N²) scan survives as [`CsrAdjacency::build_scan`], the pinned
//! oracle) — and stores it as the classic offsets/targets pair **in the
//! grid's cell order**: the build counting-sorts node ids into
//! row-major cells (ascending id within a cell) and keeps that
//! permutation as the graph's node order. Local index `l` holds node
//! [`order()[l]`](CsrAdjacency::order); rows are indexed by local index
//! and hold the local indices of the neighbours, ascending. Nodes that
//! are close in space are close in local index, so the labels a route
//! build reads while it settles one node sit a few cache lines apart
//! instead of anywhere in the id space, and a node's 3×3 probe is three
//! contiguous local ranges (one per cell row) that need no merge.
//! Nothing downstream depends on the row order: routing breaks every
//! tie on original node ids (see `crate::routing`).
//!
//! [`CsrAdjacency::row`] exposes a row's edge range, so a per-edge
//! column aligned with the graph is read over the same indices:
//! [`HopWeights`] holds each edge's price under one radio model, so
//! routing never re-prices a hop (nor recomputes its square root) per
//! relaxation.
//!
//! Both are built lazily and cached on the topology behind an `Arc`, one
//! slot each: [`Topology::csr_within`](crate::Topology::csr_within)
//! keyed on the range, [`Topology::hop_weights`](crate::Topology::hop_weights)
//! on the range and the radio model. Healthy simulations build each
//! exactly once.

use crate::topology::Position;
use ami_radio::RadioEnergyModel;
use ami_units::Length;

/// A bounded-range hop graph in compressed-sparse-row form, in spatial
/// order.
///
/// Local index `l` stands for node id `order()[l]`; row `l` holds the
/// local indices of every node within `range` of it (itself excluded),
/// ascending. Equality compares the range, the order and the rows.
///
/// # Example
///
/// ```
/// use ami_net::Topology;
/// use ami_units::Length;
///
/// let grid = Topology::grid(3, Length::from_meters(10.0));
/// let csr = grid.csr_within(Length::from_meters(10.5));
/// // The centre node has its 4 orthogonal neighbours; rows hold local
/// // indices, which the order maps back to ids.
/// let centre = csr.local_of(4);
/// let mut ids: Vec<u32> = csr.targets()[csr.row(centre)]
///     .iter()
///     .map(|&l| csr.order()[l as usize])
///     .collect();
/// ids.sort_unstable();
/// assert_eq!(ids, [1, 3, 5, 7]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrAdjacency {
    /// The range this graph was built for, as raw bits (the cache key).
    range_bits: u64,
    /// `order[l]`: the node id at local index `l`.
    order: Vec<u32>,
    /// `offsets[l]..offsets[l + 1]` indexes row `l` in `targets`.
    offsets: Vec<u32>,
    /// Neighbour local indices, ascending within each row.
    targets: Vec<u32>,
}

/// The uniform spatial grid a graph is laid out on: row-major cells at
/// least `range` wide over the deployment's bounding box.
struct CellGrid {
    min_x: f64,
    min_y: f64,
    cell: f64,
    nx: usize,
    ny: usize,
}

impl CellGrid {
    /// The grid for `range` over `positions`, or `None` when there are
    /// no positions or `range` is not positive and finite: such a range
    /// has no useful cell size, and its graph keeps id order.
    fn over(positions: &[Position], range: Length) -> Option<Self> {
        let r = range.as_meters();
        if positions.is_empty() || !r.is_finite() || r <= 0.0 {
            return None;
        }
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
        let cap = (positions.len() as f64).sqrt().ceil().max(1.0);
        let cell = r.max((max_x - min_x) / cap).max((max_y - min_y) / cap);
        Some(Self {
            min_x,
            min_y,
            cell,
            nx: ((max_x - min_x) / cell) as usize + 1,
            ny: ((max_y - min_y) / cell) as usize + 1,
        })
    }

    /// The row-major index of the cell holding `p`.
    fn cell_of(&self, p: &Position) -> usize {
        let cx = (((p.x - self.min_x) / self.cell) as usize).min(self.nx - 1);
        let cy = (((p.y - self.min_y) / self.cell) as usize).min(self.ny - 1);
        cy * self.nx + cx
    }

    /// Counting-sorts the node ids into cells, ascending id within each:
    /// returns the ids in cell order and where each cell starts in it
    /// (one entry per cell, plus the total).
    fn sort(&self, positions: &[Position]) -> (Vec<u32>, Vec<u32>) {
        let cells = self.nx * self.ny;
        let mut start = vec![0u32; cells + 1];
        for p in positions {
            start[self.cell_of(p) + 1] += 1;
        }
        for c in 0..cells {
            start[c + 1] += start[c];
        }
        // `start[c]` serves as cell c's fill cursor, which leaves it at
        // the cell's end, the next cell's start: shift back by one.
        let mut order = vec![0u32; positions.len()];
        for (id, p) in positions.iter().enumerate() {
            let cursor = &mut start[self.cell_of(p)];
            order[*cursor as usize] = id as u32;
            *cursor += 1;
        }
        start.copy_within(0..cells, 1);
        start[0] = 0;
        (order, start)
    }
}

impl CsrAdjacency {
    /// Builds the hop graph over `positions` with hops bounded by
    /// `range` (inclusive), in the cell order of a uniform spatial grid
    /// with cells at least `range` wide.
    ///
    /// A node's candidates are the nodes of the 3×3 cells around its
    /// own — in cell order, three contiguous local ranges, one per cell
    /// row — so construction is O(N · candidates) instead of the
    /// all-pairs scan, the difference between seconds and hours at city
    /// scale. Each candidate passes the exact [`Position::distance_to`]
    /// test of the scan, so the result equals
    /// [`build_scan`](Self::build_scan) (pinned by tests). With no
    /// positions, or a range that is not positive and finite, the graph
    /// is the scan's, in id order.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` nodes.
    pub fn build(positions: &[Position], range: Length) -> Self {
        assert!(u32::try_from(positions.len()).is_ok(), "CSR ids are u32");
        let Some(grid) = CellGrid::over(positions, range) else {
            // Degenerate ranges are exact under the scan and never hot.
            return Self::build_scan(positions, range);
        };
        let (order, start) = grid.sort(positions);
        let (nx, ny) = (grid.nx, grid.ny);
        let mut offsets = Vec::with_capacity(positions.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for cy in 0..ny {
            for cx in 0..nx {
                // The probe's three cells in one cell row are adjacent
                // in cell order, so their nodes form one local range.
                let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(nx - 1));
                let spans = (cy.saturating_sub(1)..=(cy + 1).min(ny - 1))
                    .map(|gy| start[gy * nx + x0] as usize..start[gy * nx + x1 + 1] as usize);
                let cell = cy * nx + cx;
                for l in start[cell] as usize..start[cell + 1] as usize {
                    let pu = &positions[order[l] as usize];
                    for span in spans.clone() {
                        targets.extend(
                            span.filter(|&m| {
                                m != l && pu.distance_to(&positions[order[m] as usize]) <= range
                            })
                            .map(|m| m as u32),
                        );
                    }
                    offsets.push(targets.len() as u32);
                }
            }
        }
        Self {
            range_bits: range.as_meters().to_bits(),
            order,
            offsets,
            targets,
        }
    }

    /// The all-pairs O(N²) construction, kept in-tree as the pinned
    /// oracle for the spatial-grid [`build`](Self::build): it tests every
    /// pair, laid out in the same node order (the grid's cell order, or
    /// id order for the degenerate inputs), so the two compare equal
    /// exactly when the grid probe found every in-range pair. Tests diff
    /// the two on random and degenerate layouts.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` nodes.
    pub fn build_scan(positions: &[Position], range: Length) -> Self {
        let n = positions.len();
        assert!(u32::try_from(n).is_ok(), "CSR ids are u32");
        let order = CellGrid::over(positions, range)
            .map_or_else(|| (0..n as u32).collect(), |grid| grid.sort(positions).0);
        let placed: Vec<Position> = order.iter().map(|&id| positions[id as usize]).collect();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for (l, pu) in placed.iter().enumerate() {
            for (m, pv) in placed.iter().enumerate() {
                if l != m && pu.distance_to(pv) <= range {
                    targets.push(m as u32);
                }
            }
            offsets.push(targets.len() as u32);
        }
        Self {
            range_bits: range.as_meters().to_bits(),
            order,
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
        self.order.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The node order: `order()[l]` is the id of the node at local
    /// index `l`, a permutation of the ids.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The local index of node `id`, by a linear scan of the order —
    /// O(N), for one-off lookups such as the sink's.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of the graph.
    pub fn local_of(&self, id: usize) -> usize {
        self.order
            .iter()
            .position(|&node| node as usize == id)
            .expect("id is a node of the graph")
    }

    /// The edge indices of local node `l`'s row: `targets()[row(l)]` are
    /// its neighbours' local indices, and a per-edge column aligned with
    /// this graph (such as [`HopWeights::joules_per_bit`]) holds their
    /// values over the same range.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn row(&self, l: usize) -> std::ops::Range<usize> {
        self.offsets[l] as usize..self.offsets[l + 1] as usize
    }

    /// Every row's neighbour local indices, concatenated in local order.
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }
}

/// The price of every edge of a [`CsrAdjacency`] under one radio model:
/// entry `e` is `radio.hop_energy_per_bit(d).as_joules_per_bit()` for the
/// length `d` of edge `e` (from the row's node to the node at local
/// index `targets()[e]`), the weight minimum-energy routing relaxes.
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
/// assert_eq!(weights.joules_per_bit()[csr.row(csr.local_of(4))], [hop; 4]);
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
    /// so the position loads overlap; then the prices in place.
    /// (Pricing inside the first loop stalls those loads behind each
    /// `powf`.)
    ///
    /// # Panics
    ///
    /// Panics if `csr` names a node past the end of `positions`.
    pub(crate) fn price(
        positions: &[Position],
        csr: &CsrAdjacency,
        radio: &RadioEnergyModel,
    ) -> Self {
        let order = csr.order();
        let mut joules_per_bit = Vec::with_capacity(csr.edge_count());
        for (l, &u) in order.iter().enumerate() {
            let pu = &positions[u as usize];
            joules_per_bit.extend(csr.targets[csr.row(l)].iter().map(|&m| {
                pu.distance_to(&positions[order[m as usize] as usize])
                    .as_meters()
            }));
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
            let csr = CsrAdjacency::build(topo.positions(), range);
            let order = csr.order();
            for (l, &u) in order.iter().enumerate() {
                let u = u as usize;
                let scan: Vec<usize> = (0..topo.len())
                    .filter(|&v| {
                        v != u && topo.positions()[u].distance_to(&topo.positions()[v]) <= range
                    })
                    .collect();
                let mut row: Vec<usize> = csr.targets()[csr.row(l)]
                    .iter()
                    .map(|&m| order[m as usize] as usize)
                    .collect();
                assert!(csr.targets()[csr.row(l)].is_sorted(), "row {u} ascends");
                row.sort_unstable();
                assert_eq!(row, scan, "row {u}");
            }
        }
    }

    #[test]
    fn range_key_is_bitwise() {
        let topo = Topology::grid(3, Length::from_meters(10.0));
        let csr = CsrAdjacency::build(topo.positions(), Length::from_meters(10.5));
        assert!(csr.matches_range(Length::from_meters(10.5)));
        assert!(!csr.matches_range(Length::from_meters(15.0)));
        assert_eq!(csr.len(), 9);
        // 4 corners x 2 + 4 edges x 3 + centre x 4 edges, directed.
        assert_eq!(csr.edge_count(), 24);
    }
}
