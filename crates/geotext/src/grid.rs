//! The uniform spatial grid index of Section 3, laid out as flat arrays.
//!
//! "We use a grid index to organize the geo-textual objects.  We partition the
//! entire space according to a uniform grid, and each object is stored in the
//! grid cell that its point location belongs to.  In each grid cell, we
//! maintain an inverted list with the keywords of the objects stored in this
//! cell."
//!
//! [`GridIndex`] partitions the bounding extent into square cells of a
//! configurable size.  The paper's per-cell inverted list is an in-memory
//! **run table**: every cell shares three flat arrays in a CSR layout built by
//! one counting sort (the pattern `lcmsr_roadnet::spatial::NodeGrid` uses),
//! so scoring walks contiguous memory instead of chasing tree pointers.
//!
//! * **Objects.**  Cell `c` (row-major, `c = row * cols + col`) owns the
//!   object slots `object_offsets[c]..object_offsets[c + 1]`, in input order.
//!   Each slot holds the object's id, point and collection index.
//! * **Runs.**  Cell `c` owns the term runs `run_offsets[c]..run_offsets[c + 1]`,
//!   sorted by [`TermId`]; run `r` covers the postings
//!   `run_starts[r]..run_starts[r + 1]`.
//! * **Postings.**  A cell-local object slot plus the precomputed
//!   `wto(t) = w_{o.ψ,t} / W_{o.ψ}` of Equation 2, in slot order within a run.
//!
//! Bucketing and covers use one integer cell arithmetic ([`GridIndex::cell_of`],
//! `cover_of`, `interior_of`), never the float [`GridIndex::cell_rect`]
//! bounds, which can disagree with it by an ulp.

use crate::error::{GeoTextError, Result};
use crate::object::{GeoTextObject, ObjectId};
use crate::vocab::{TermId, Vocabulary};
use crate::vsm::{object_norm, tf_weight};
use lcmsr_roadnet::geo::{Point, Rect};

/// Most cells a grid may have: its two dense offset tables then take
/// 512 MiB.  A cell size too small for the extent is a configuration error.
pub const MAX_CELLS: usize = 1 << 26;

/// Identifier of a grid cell as (column, row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId {
    /// Column index (x direction).
    pub col: u32,
    /// Row index (y direction).
    pub row: u32,
}

/// An inclusive range of grid cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cover {
    pub(crate) col_lo: u32,
    pub(crate) col_hi: u32,
    pub(crate) row_lo: u32,
    pub(crate) row_hi: u32,
}

impl Cover {
    /// Whether the range includes `cell`.
    pub(crate) fn contains(&self, cell: CellId) -> bool {
        (self.col_lo..=self.col_hi).contains(&cell.col)
            && (self.row_lo..=self.row_hi).contains(&cell.row)
    }

    /// The sub-range restricted to rows `row_lo..=row_hi`.
    pub(crate) fn rows(&self, row_lo: u32, row_hi: u32) -> Cover {
        debug_assert!(self.row_lo <= row_lo && row_hi <= self.row_hi);
        Cover {
            row_lo,
            row_hi,
            ..*self
        }
    }

    /// The cells of the range in row-major order (the CSR order).
    pub(crate) fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        (self.row_lo..=self.row_hi)
            .flat_map(move |row| (self.col_lo..=self.col_hi).map(move |col| CellId { col, row }))
    }
}

/// One indexed object, as its cell's slot stores it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridObject {
    /// The object's id.
    pub id: ObjectId,
    /// The object's location.
    pub point: Point,
    /// Position of the object in the slice the grid was built from.
    pub index: u32,
}

/// A uniform grid index over geo-textual objects with per-cell term runs.
#[derive(Debug, Clone)]
pub struct GridIndex {
    extent: Rect,
    cell_size: f64,
    cols: u32,
    rows: u32,
    /// CSR offsets of each cell's slots in `objects` (`cols * rows + 1`).
    object_offsets: Vec<u32>,
    /// Object slots grouped by cell, input order within a cell.
    objects: Vec<GridObject>,
    /// CSR offsets of each cell's runs in `run_terms` (`cols * rows + 1`).
    run_offsets: Vec<u32>,
    /// Term of each run, ascending within a cell.
    run_terms: Vec<TermId>,
    /// First posting of each run, plus a final sentinel.
    run_starts: Vec<u32>,
    /// Cell-local slot of each posting.
    posting_slots: Vec<u32>,
    /// `wto(t)` of each posting.
    posting_weights: Vec<f64>,
}

impl GridIndex {
    /// Builds the grid over `extent` with square cells of `cell_size` metres,
    /// indexing `objects` whose terms were **already interned** into
    /// `vocabulary` (by [`Vocabulary::register_document`]).
    ///
    /// Fails on the first object that lies outside the extent, has a
    /// non-finite location or an empty description (it could never match a
    /// query).  A term missing from the vocabulary (a contract breach) is
    /// skipped — unobservable, since queries resolve terms through the same
    /// vocabulary.
    pub fn build(
        extent: Rect,
        cell_size: f64,
        vocabulary: &Vocabulary,
        objects: &[GeoTextObject],
    ) -> Result<Self> {
        if !(cell_size.is_finite() && cell_size > 0.0) {
            return Err(GeoTextError::InvalidGridConfig {
                message: format!("cell size must be positive, got {cell_size}"),
            });
        }
        if extent.width() <= 0.0 || extent.height() <= 0.0 {
            return Err(GeoTextError::InvalidGridConfig {
                message: "extent must have positive width and height".into(),
            });
        }
        // Slots and postings are addressed by u32 offsets.
        let postings: usize = objects.iter().map(|o| o.terms.len()).sum();
        if u32::try_from(postings.max(objects.len())).is_err() {
            return Err(GeoTextError::InvalidGridConfig {
                message: format!("{postings} postings exceed the u32 offset range"),
            });
        }
        let cols = (extent.width() / cell_size).ceil().max(1.0) as u32;
        let rows = (extent.height() / cell_size).ceil().max(1.0) as u32;
        let cell_count = cols as usize * rows as usize;
        if cell_count > MAX_CELLS {
            return Err(GeoTextError::InvalidGridConfig {
                message: format!(
                    "cell size {cell_size} gives {cell_count} cells (max {MAX_CELLS})"
                ),
            });
        }
        let mut grid = GridIndex {
            extent,
            cell_size,
            cols,
            rows,
            object_offsets: Vec::new(),
            objects: Vec::with_capacity(objects.len()),
            run_offsets: Vec::new(),
            run_terms: Vec::new(),
            run_starts: Vec::new(),
            posting_slots: Vec::new(),
            posting_weights: Vec::new(),
        };
        let cells = objects
            .iter()
            .map(|o| grid.validate_and_locate(o).map(|c| grid.cell_index(c)))
            .collect::<Result<Vec<usize>>>()?;

        // Counting sort of the objects by cell; input order survives within
        // a cell.
        let mut offsets = vec![0u32; cell_count + 1];
        for &c in &cells {
            offsets[c + 1] += 1;
        }
        for c in 0..cell_count {
            offsets[c + 1] += offsets[c];
        }
        let mut order = vec![0u32; objects.len()];
        let mut cursor = offsets[..cell_count].to_vec();
        for (i, &c) in cells.iter().enumerate() {
            order[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        grid.objects.extend(order.iter().map(|&i| {
            let o = &objects[i as usize];
            GridObject {
                id: o.id,
                point: o.point,
                index: i,
            }
        }));

        // Per cell: (term, local slot, wto) sorted stably by term, so each
        // run lists its postings in slot order.
        let mut run_offsets = Vec::with_capacity(cell_count + 1);
        run_offsets.push(0u32);
        let mut entries: Vec<(TermId, u32, f64)> = Vec::new();
        for c in 0..cell_count {
            entries.clear();
            let slots = &order[offsets[c] as usize..offsets[c + 1] as usize];
            for (local, &i) in slots.iter().enumerate() {
                let object = &objects[i as usize];
                let norm = object_norm(object);
                for (term, &tf) in &object.terms {
                    let Some(id) = vocabulary.lookup(term) else {
                        debug_assert!(false, "term {term:?} was not pre-interned");
                        continue;
                    };
                    entries.push((id, local as u32, tf_weight(tf) / norm));
                }
            }
            entries.sort_by_key(|e| e.0);
            for (k, &(term, slot, weight)) in entries.iter().enumerate() {
                if k == 0 || entries[k - 1].0 != term {
                    grid.run_terms.push(term);
                    grid.run_starts.push(grid.posting_slots.len() as u32);
                }
                grid.posting_slots.push(slot);
                grid.posting_weights.push(weight);
            }
            run_offsets.push(grid.run_terms.len() as u32);
        }
        grid.run_starts.push(grid.posting_slots.len() as u32);
        grid.object_offsets = offsets;
        grid.run_offsets = run_offsets;
        Ok(grid)
    }

    /// The extent covered by the grid.
    pub fn extent(&self) -> Rect {
        self.extent
    }

    /// The configured cell size in metres.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Grid dimensions as (columns, rows).
    pub fn dimensions(&self) -> (u32, u32) {
        (self.cols, self.rows)
    }

    /// Number of cells that contain at least one object.
    pub fn occupied_cells(&self) -> usize {
        self.object_offsets
            .windows(2)
            .filter(|w| w[0] < w[1])
            .count()
    }

    /// Total number of indexed objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    fn cell_index(&self, cell: CellId) -> usize {
        cell.row as usize * self.cols as usize + cell.col as usize
    }

    /// The column bucketing assigns to `x` (clamped to the grid).
    fn col_of(&self, x: f64) -> u32 {
        (((x - self.extent.min_x) / self.cell_size) as u32).min(self.cols - 1)
    }

    /// The row bucketing assigns to `y` (clamped to the grid).
    fn row_of(&self, y: f64) -> u32 {
        (((y - self.extent.min_y) / self.cell_size) as u32).min(self.rows - 1)
    }

    /// The cell id containing `p`, or `None` if `p` lies outside the extent.
    pub fn cell_of(&self, p: &Point) -> Option<CellId> {
        if !self.extent.contains(p) {
            return None;
        }
        Some(CellId {
            col: self.col_of(p.x),
            row: self.row_of(p.y),
        })
    }

    /// Rectangle covered by a cell.  For display only: a point on the
    /// rectangle's edge may bucket into the neighbouring cell, so membership
    /// decisions use [`GridIndex::cell_of`] and its integer arithmetic.
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        let min_x = self.extent.min_x + cell.col as f64 * self.cell_size;
        let min_y = self.extent.min_y + cell.row as f64 * self.cell_size;
        Rect::new(
            min_x,
            min_y,
            (min_x + self.cell_size).min(self.extent.max_x),
            (min_y + self.cell_size).min(self.extent.max_y),
        )
    }

    /// Validates an object and resolves its cell.
    fn validate_and_locate(&self, object: &GeoTextObject) -> Result<CellId> {
        if !object.point.is_finite() {
            return Err(GeoTextError::InvalidLocation {
                object: object.id.0,
            });
        }
        if object.is_empty() {
            return Err(GeoTextError::EmptyDescription {
                object: object.id.0,
            });
        }
        self.cell_of(&object.point)
            .ok_or(GeoTextError::InvalidLocation {
                object: object.id.0,
            })
    }

    /// The objects stored in a cell, in input order (empty when out of range).
    pub fn cell_objects(&self, cell: CellId) -> &[GridObject] {
        if cell.col >= self.cols || cell.row >= self.rows {
            return &[];
        }
        let c = self.cell_index(cell);
        &self.objects[self.object_offsets[c] as usize..self.object_offsets[c + 1] as usize]
    }

    /// The cells that can hold an object inside `rect`, or `None` when
    /// `rect` misses the extent.
    pub(crate) fn cover_of(&self, rect: &Rect) -> Option<Cover> {
        let clipped = self.extent.intersection(rect)?;
        Some(Cover {
            col_lo: self.col_of(clipped.min_x),
            col_hi: self.col_of(clipped.max_x),
            row_lo: self.row_of(clipped.min_y),
            row_hi: self.row_of(clipped.max_y),
        })
    }

    /// The cells every object of which lies inside `rect`, or `None` when
    /// there are none.  Bucketing is monotone in each coordinate, so a cell
    /// strictly right of the column `rect.min_x` buckets into holds only
    /// points with `x >= rect.min_x` (likewise for the other three sides);
    /// an edge of `rect` at or beyond the extent bounds nothing.
    pub(crate) fn interior_of(&self, rect: &Rect) -> Option<Cover> {
        let lo = |v: f64, min: f64, bucket: u32| {
            if v <= min {
                Some(0)
            } else {
                bucket.checked_add(1)
            }
        };
        let hi = |v: f64, max: f64, bucket: u32, last: u32| {
            if v >= max {
                Some(last)
            } else {
                bucket.checked_sub(1)
            }
        };
        let e = &self.extent;
        let cover = Cover {
            col_lo: lo(rect.min_x, e.min_x, self.col_of(rect.min_x))?,
            col_hi: hi(rect.max_x, e.max_x, self.col_of(rect.max_x), self.cols - 1)?,
            row_lo: lo(rect.min_y, e.min_y, self.row_of(rect.min_y))?,
            row_hi: hi(rect.max_y, e.max_y, self.row_of(rect.max_y), self.rows - 1)?,
        };
        (cover.col_lo <= cover.col_hi && cover.row_lo <= cover.row_hi).then_some(cover)
    }

    /// Ids of the occupied cells whose objects may lie inside `rect`.
    pub fn cells_intersecting(&self, rect: &Rect) -> Vec<CellId> {
        self.cover_of(rect).map_or_else(Vec::new, |cover| {
            cover
                .cells()
                .filter(|&c| !self.cell_objects(c).is_empty())
                .collect()
        })
    }

    /// Equation-2 partial scores `Σ w_{Q.ψ,t}·wto(t)` of one cell's objects.
    ///
    /// `query_terms` are `(term, w_{Q.ψ,t})` pairs in query order with no
    /// zero weights.  Each object's sum starts at `0.0` and adds its terms in
    /// that order.  `emit` receives every object with a positive partial, in
    /// slot order; `scratch` is resized to the cell's object count.  Returns
    /// whether the cell holds any object.
    pub(crate) fn score_cell(
        &self,
        cell: CellId,
        query_terms: &[(TermId, f64)],
        scratch: &mut Vec<f64>,
        mut emit: impl FnMut(&GridObject, f64),
    ) -> bool {
        let objects = self.cell_objects(cell);
        if objects.is_empty() {
            return false;
        }
        let c = self.cell_index(cell);
        let first_run = self.run_offsets[c] as usize;
        let terms = &self.run_terms[first_run..self.run_offsets[c + 1] as usize];
        scratch.clear();
        scratch.resize(objects.len(), 0.0);
        for &(term, idf) in query_terms {
            if let Ok(k) = terms.binary_search(&term) {
                let r = first_run + k;
                let postings = self.run_starts[r] as usize..self.run_starts[r + 1] as usize;
                for (&slot, &wto) in self.posting_slots[postings.clone()]
                    .iter()
                    .zip(&self.posting_weights[postings])
                {
                    scratch[slot as usize] += idf * wto;
                }
            }
        }
        for (object, &partial) in objects.iter().zip(scratch.iter()) {
            if partial > 0.0 {
                emit(object, partial);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_objects() -> Vec<GeoTextObject> {
        vec![
            GeoTextObject::from_keywords(0u64, Point::new(50.0, 50.0), ["restaurant"]),
            GeoTextObject::from_keywords(1u64, Point::new(150.0, 50.0), ["restaurant", "pizza"]),
            GeoTextObject::from_keywords(2u64, Point::new(950.0, 950.0), ["cafe"]),
            GeoTextObject::from_keywords(3u64, Point::new(450.0, 450.0), ["museum"]),
            GeoTextObject::from_keywords(4u64, Point::new(60.0, 40.0), ["pizza", "pizza"]),
        ]
    }

    fn build(objects: &[GeoTextObject]) -> (GridIndex, Vocabulary) {
        let mut vocab = Vocabulary::new();
        for o in objects {
            vocab.register_document(o.terms.keys().map(String::as_str));
        }
        let grid =
            GridIndex::build(Rect::new(0.0, 0.0, 1000.0, 1000.0), 100.0, &vocab, objects).unwrap();
        (grid, vocab)
    }

    fn terms(vocab: &Vocabulary, words: &[&str]) -> Vec<(TermId, f64)> {
        words
            .iter()
            .map(|t| {
                let id = vocab.lookup(t).unwrap();
                (id, vocab.idf(id))
            })
            .collect()
    }

    fn scores(grid: &GridIndex, cell: CellId, terms: &[(TermId, f64)]) -> Vec<(ObjectId, f64)> {
        let mut out = Vec::new();
        grid.score_cell(cell, terms, &mut Vec::new(), |o, s| out.push((o.id, s)));
        out
    }

    #[test]
    fn rejects_invalid_configuration() {
        let extent = Rect::new(0.0, 0.0, 100.0, 100.0);
        let vocab = Vocabulary::new();
        assert!(GridIndex::build(extent, 0.0, &vocab, &[]).is_err());
        assert!(GridIndex::build(extent, -5.0, &vocab, &[]).is_err());
        assert!(GridIndex::build(Rect::new(0.0, 0.0, 0.0, 10.0), 10.0, &vocab, &[]).is_err());
        assert!(GridIndex::build(extent, 0.001, &vocab, &[]).is_err());
        assert!(GridIndex::build(extent, 10.0, &vocab, &[]).is_ok());
    }

    #[test]
    fn grid_dimensions_cover_extent() {
        let extent = Rect::new(0.0, 0.0, 1050.0, 980.0);
        let grid = GridIndex::build(extent, 100.0, &Vocabulary::new(), &[]).unwrap();
        assert_eq!(grid.dimensions(), (11, 10));
        assert_eq!(grid.cell_size(), 100.0);
        assert_eq!(grid.occupied_cells(), 0);
    }

    #[test]
    fn objects_land_in_expected_cells() {
        let (grid, _) = build(&make_objects());
        assert_eq!(grid.object_count(), 5);
        assert_eq!(grid.occupied_cells(), 4);
        assert_eq!(
            grid.cell_of(&Point::new(150.0, 50.0)),
            Some(CellId { col: 1, row: 0 })
        );
        // A point exactly on the max boundary clamps into the last cell.
        assert_eq!(
            grid.cell_of(&Point::new(1000.0, 1000.0)),
            Some(CellId { col: 9, row: 9 })
        );
        assert_eq!(grid.cell_of(&Point::new(-1.0, 0.0)), None);
        let ids: Vec<_> = grid
            .cell_objects(CellId { col: 0, row: 0 })
            .iter()
            .map(|o| (o.id, o.index))
            .collect();
        assert_eq!(ids, vec![(ObjectId(0), 0), (ObjectId(4), 4)]);
        assert!(grid.cell_objects(CellId { col: 99, row: 0 }).is_empty());
    }

    #[test]
    fn cell_rect_tiles_the_extent() {
        let (grid, _) = build(&make_objects());
        let r = grid.cell_rect(CellId { col: 1, row: 0 });
        assert_eq!(r, Rect::new(100.0, 0.0, 200.0, 100.0));
        let last = grid.cell_rect(CellId { col: 9, row: 9 });
        assert_eq!(last.max_x, 1000.0);
        assert_eq!(last.max_y, 1000.0);
    }

    #[test]
    fn rejects_bad_objects() {
        let extent = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let vocab = Vocabulary::new();
        let bad = |o: GeoTextObject| GridIndex::build(extent, 100.0, &vocab, &[o]).unwrap_err();
        assert_eq!(
            bad(GeoTextObject::from_keywords(
                10u64,
                Point::new(5000.0, 0.0),
                ["bar"]
            )),
            GeoTextError::InvalidLocation { object: 10 }
        );
        assert_eq!(
            bad(GeoTextObject::from_keywords(
                11u64,
                Point::new(10.0, 10.0),
                Vec::<String>::new()
            )),
            GeoTextError::EmptyDescription { object: 11 }
        );
        assert_eq!(
            bad(GeoTextObject::from_keywords(
                12u64,
                Point::new(f64::NAN, 10.0),
                ["bar"]
            )),
            GeoTextError::InvalidLocation { object: 12 }
        );
    }

    #[test]
    fn cells_intersecting_finds_occupied_cells_only() {
        let (grid, _) = build(&make_objects());
        let all = grid.cells_intersecting(&Rect::new(0.0, 0.0, 1000.0, 1000.0));
        assert_eq!(all.len(), 4);
        let corner = grid.cells_intersecting(&Rect::new(0.0, 0.0, 160.0, 90.0));
        assert_eq!(corner.len(), 2);
        let nothing = grid.cells_intersecting(&Rect::new(600.0, 0.0, 800.0, 200.0));
        assert!(nothing.is_empty());
        let outside = grid.cells_intersecting(&Rect::new(2000.0, 2000.0, 3000.0, 3000.0));
        assert!(outside.is_empty());
    }

    #[test]
    fn run_tables_score_like_equation_two() {
        let objects = make_objects();
        let (grid, vocab) = build(&objects);
        let q = terms(&vocab, &["pizza", "restaurant"]);
        let got = scores(&grid, CellId { col: 0, row: 0 }, &q);
        // Query-term order, each sum starting at 0.0.
        let expect = |o: &GeoTextObject| {
            let mut sum = 0.0;
            for &(t, idf) in &q {
                if let Some(&tf) = o.terms.get(vocab.term(t)) {
                    sum += idf * (tf_weight(tf) / object_norm(o));
                }
            }
            sum
        };
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (ObjectId(0), expect(&objects[0])));
        assert_eq!(got[1], (ObjectId(4), expect(&objects[4])));
        // Non-matching and empty cells emit nothing.
        assert!(scores(&grid, CellId { col: 4, row: 4 }, &q).is_empty());
        assert!(scores(&grid, CellId { col: 5, row: 5 }, &q).is_empty());
    }

    #[test]
    fn interior_cells_hold_only_points_inside_the_rect() {
        let (grid, _) = build(&make_objects());
        // A rect on cell edges: the edge columns and rows are excluded.
        let rect = Rect::new(100.0, 100.0, 500.0, 400.0);
        assert_eq!(
            grid.interior_of(&rect),
            Some(Cover {
                col_lo: 2,
                col_hi: 4,
                row_lo: 2,
                row_hi: 3
            })
        );
        // Sides at or beyond the extent bound nothing.
        let all = Rect::new(-5.0, 0.0, 1000.0, 2000.0);
        assert_eq!(
            grid.interior_of(&all),
            Some(Cover {
                col_lo: 0,
                col_hi: 9,
                row_lo: 0,
                row_hi: 9
            })
        );
        assert_eq!(
            grid.interior_of(&Rect::new(110.0, 110.0, 190.0, 190.0)),
            None
        );
        assert_eq!(
            grid.interior_of(&Rect::new(2000.0, 0.0, 3000.0, 50.0)),
            None
        );
        // Every sampled point bucketed into an interior cell is inside.
        for rect in [rect, Rect::new(33.3, 71.7, 777.7, 912.1)] {
            let interior = grid.interior_of(&rect).unwrap();
            for i in 0..=400 {
                for j in 0..=400 {
                    let p = Point::new(i as f64 * 2.5, j as f64 * 2.5);
                    if interior.contains(grid.cell_of(&p).unwrap()) {
                        assert!(rect.contains(&p), "{p:?} in {rect:?}");
                    }
                }
            }
        }
    }
}
