//! [`ObjectCollection`]: the assembled geo-textual data set.
//!
//! A collection owns the objects, the corpus vocabulary, the spatial grid
//! index with per-cell term runs, and the object→road-node mapping.  It is
//! the query-time entry point that turns a set of query keywords plus a region
//! of interest into *node weights* — the `σ_v` values the LCMSR algorithms
//! consume.

use crate::error::Result;
use crate::grid::{Cover, GridIndex};
use crate::mapping::map_points_to_nodes;
use crate::object::{GeoTextObject, ObjectId};
use crate::vocab::{TermId, Vocabulary};
use crate::vsm::QueryVector;
use lcmsr_roadnet::geo::Rect;
use lcmsr_roadnet::graph::RoadNetwork;
use lcmsr_roadnet::node::NodeId;
use lcmsr_roadnet::order::radix_sort_by_key;
use std::collections::BTreeMap;

/// Default grid cell size in metres (roughly a city block neighbourhood).
pub const DEFAULT_CELL_SIZE: f64 = 500.0;

/// Per-node relevance weights for one query (the `σ_v` of the paper), together
/// with per-object scores for inspection.
#[derive(Debug, Clone, Default)]
pub struct NodeWeights {
    /// Relevance weight per node, ascending by node; only nodes with a
    /// positive weight appear.
    pub by_node: Vec<(NodeId, f64)>,
    /// Relevance score per matching object, ascending by object id.
    pub by_object: Vec<(ObjectId, f64)>,
    /// Scoring scratch, bounded by the query rectangle's cell cover.
    scratch: ScoreScratch,
}

/// Reusable buffers of one scoring pass.
#[derive(Debug, Clone, Default)]
struct ScoreScratch {
    /// Partial scores of the current cell's objects, by cell-local slot.
    cell: Vec<f64>,
    /// Objects kept so far; empty between passes.
    hits: Vec<Hit>,
    /// Scatter buffer of the radix sorts that order `hits`.
    spare: Vec<Hit>,
}

/// One object that scored inside the query rectangle.
#[derive(Debug, Clone, Copy)]
struct Hit {
    id: ObjectId,
    node: NodeId,
    score: f64,
}

impl NodeWeights {
    /// Weights given directly per node (test fixtures, alternative scorers).
    /// A node listed twice keeps its first weight.
    pub fn from_nodes(nodes: impl IntoIterator<Item = (NodeId, f64)>) -> Self {
        let mut by_node: Vec<(NodeId, f64)> = nodes.into_iter().collect();
        by_node.sort_by_key(|&(n, _)| n);
        by_node.dedup_by_key(|&mut (n, _)| n);
        NodeWeights {
            by_node,
            ..Self::default()
        }
    }

    /// Weight of a node (0 if it hosts no relevant object).
    pub fn weight(&self, node: NodeId) -> f64 {
        self.by_node
            .binary_search_by_key(&node, |&(n, _)| n)
            .map_or(0.0, |i| self.by_node[i].1)
    }

    /// Score of an object, if it is relevant.
    pub fn object_score(&self, object: ObjectId) -> Option<f64> {
        self.by_object
            .binary_search_by_key(&object, |&(o, _)| o)
            .ok()
            .map(|i| self.by_object[i].1)
    }

    /// The largest node weight (`σ_max`), or 0 when no node is relevant.
    pub fn max_weight(&self) -> f64 {
        self.by_node.iter().fold(0.0f64, |a, &(_, b)| a.max(b))
    }

    /// Number of nodes with a positive weight.
    pub fn relevant_node_count(&self) -> usize {
        self.by_node.len()
    }

    /// Total weight over all relevant nodes.
    pub fn total_weight(&self) -> f64 {
        self.by_node.iter().map(|&(_, w)| w).sum()
    }

    /// Whether no node is relevant to the query.
    pub fn is_empty(&self) -> bool {
        self.by_node.is_empty()
    }
}

/// A complete geo-textual data set bound to a road network.
#[derive(Debug, Clone)]
pub struct ObjectCollection {
    objects: Vec<GeoTextObject>,
    vocabulary: Vocabulary,
    grid: GridIndex,
    /// Node each object is mapped to, aligned with `objects`.
    object_nodes: Vec<NodeId>,
    /// Objects hosted by each node.
    node_objects: BTreeMap<NodeId, Vec<ObjectId>>,
    /// `(id, position in objects)`, ascending by id (ids need not be dense).
    by_id: Vec<(ObjectId, u32)>,
}

impl ObjectCollection {
    /// Builds a collection: registers every object in the vocabulary, indexes
    /// it in the grid, and maps it to its nearest road-network node.
    ///
    /// Objects with empty descriptions or locations outside the network's
    /// bounding box (expanded by one cell) are skipped rather than rejected, so
    /// noisy synthetic or crawled data does not abort the build.  Object ids
    /// are expected to be distinct.
    pub fn build(
        network: &RoadNetwork,
        objects: Vec<GeoTextObject>,
        cell_size: f64,
    ) -> Result<Self> {
        let extent = network
            .bounding_rect()
            .unwrap_or_else(|| Rect::new(0.0, 0.0, 1.0, 1.0))
            .expanded(cell_size.max(1.0));
        let mut vocabulary = Vocabulary::new();
        let mut kept: Vec<GeoTextObject> = Vec::with_capacity(objects.len());
        for o in objects {
            if o.is_empty() || !o.point.is_finite() || !extent.contains(&o.point) {
                continue;
            }
            vocabulary.register_document(o.terms.keys().map(String::as_str));
            kept.push(o);
        }
        let grid = GridIndex::build(extent, cell_size, &vocabulary, &kept)?;
        let points: Vec<_> = kept.iter().map(|o| o.point).collect();
        let object_nodes = if kept.is_empty() {
            Vec::new()
        } else {
            map_points_to_nodes(network, &points)
        };
        let mut node_objects: BTreeMap<NodeId, Vec<ObjectId>> = BTreeMap::new();
        for (o, &node) in kept.iter().zip(&object_nodes) {
            node_objects.entry(node).or_default().push(o.id);
        }
        let mut by_id: Vec<(ObjectId, u32)> = kept
            .iter()
            .enumerate()
            .map(|(i, o)| (o.id, i as u32))
            .collect();
        by_id.sort_unstable();
        Ok(ObjectCollection {
            objects: kept,
            vocabulary,
            grid,
            object_nodes,
            node_objects,
            by_id,
        })
    }

    /// Builds a collection with the default grid cell size.
    pub fn build_default(network: &RoadNetwork, objects: Vec<GeoTextObject>) -> Result<Self> {
        Self::build(network, objects, DEFAULT_CELL_SIZE)
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the collection holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The indexed objects.
    pub fn objects(&self) -> &[GeoTextObject] {
        &self.objects
    }

    /// The corpus vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// The spatial grid index.
    pub fn grid(&self) -> &GridIndex {
        &self.grid
    }

    /// Number of distinct keywords in the corpus.
    pub fn keyword_count(&self) -> usize {
        self.vocabulary.len()
    }

    /// Position of an object in [`ObjectCollection::objects`].
    fn index_of(&self, object: ObjectId) -> Option<usize> {
        // Generated data sets number objects by position: try that first,
        // it saves a cache-missing binary search per delta-prepare survivor.
        let guess = object.index();
        if self.objects.get(guess).is_some_and(|o| o.id == object) {
            return Some(guess);
        }
        self.by_id
            .binary_search_by_key(&object, |&(o, _)| o)
            .ok()
            .map(|i| self.by_id[i].1 as usize)
    }

    /// The node an object is mapped to, if the object exists.
    pub fn node_of(&self, object: ObjectId) -> Option<NodeId> {
        self.index_of(object).map(|i| self.object_nodes[i])
    }

    /// Objects hosted by a node.
    pub fn objects_at(&self, node: NodeId) -> &[ObjectId] {
        self.node_objects.get(&node).map_or(&[], Vec::as_slice)
    }

    /// An object by id.
    pub fn object(&self, id: ObjectId) -> Option<&GeoTextObject> {
        self.index_of(id).map(|i| &self.objects[i])
    }

    /// Builds the query vector for a set of keywords against this corpus.
    pub fn query_vector(&self, keywords: &[impl AsRef<str>]) -> QueryVector {
        QueryVector::new(&self.vocabulary, keywords)
    }

    /// Computes per-node relevance weights (`σ_v`) for a query restricted to
    /// the region of interest `Q.Λ` given by `rect`.
    ///
    /// Implementation follows the paper: the grid index retrieves the postings
    /// of the query keywords from the cells intersecting the rectangle
    /// (Equation 2), per-object scores are normalised by the query norm, objects
    /// outside the rectangle are discarded, and each object's score is added to
    /// the node it is mapped to.
    pub fn node_weights(&self, query: &QueryVector, rect: &Rect) -> NodeWeights {
        let mut weights = NodeWeights::default();
        self.node_weights_into(query, rect, &mut weights);
        weights
    }

    /// Like [`ObjectCollection::node_weights`], but writes into a caller-owned
    /// [`NodeWeights`] whose buffers and scratch are reused.
    pub fn node_weights_into(&self, query: &QueryVector, rect: &Rect, out: &mut NodeWeights) {
        self.node_weights_into_with_workers(query, rect, out, 1);
    }

    /// Like [`ObjectCollection::node_weights_into`], scoring row bands of the
    /// rectangle's cell cover on up to `workers` scoped threads.  The bands'
    /// hits are concatenated and ordered by object id, so the result is
    /// bit-identical to the sequential pass.
    pub fn node_weights_into_with_workers(
        &self,
        query: &QueryVector,
        rect: &Rect,
        out: &mut NodeWeights,
        workers: usize,
    ) {
        out.by_node.clear();
        out.by_object.clear();
        let cover = match self.grid.cover_of(rect) {
            Some(cover) if query.norm != 0.0 => cover,
            _ => return,
        };
        let terms = query_terms(query);
        let rows = (cover.row_hi - cover.row_lo + 1) as usize;
        let workers = workers.clamp(1, rows.min(64));
        let band = |w: usize| {
            let lo = cover.row_lo + (rows * w / workers) as u32;
            let hi = cover.row_lo + (rows * (w + 1) / workers) as u32 - 1;
            cover.rows(lo, hi)
        };
        let scratch = &mut out.scratch;
        if workers <= 1 {
            self.score_cover(cover, None, rect, query.norm, &terms, scratch);
        } else {
            std::thread::scope(|scope| {
                let others: Vec<_> = (1..workers)
                    .map(|w| {
                        let (band, terms) = (band(w), &terms);
                        scope.spawn(move || {
                            let mut own = ScoreScratch::default();
                            self.score_cover(band, None, rect, query.norm, terms, &mut own);
                            own.hits
                        })
                    })
                    .collect();
                self.score_cover(band(0), None, rect, query.norm, &terms, scratch);
                for handle in others {
                    let hits = handle.join().expect("score band worker panicked");
                    scratch.hits.extend(hits);
                }
            });
        }
        finish(out);
    }

    /// Scores the cells of `cover` outside `skip` into `scratch.hits`,
    /// keeping objects inside `rect`; returns the number of occupied cells
    /// scored.
    fn score_cover(
        &self,
        cover: Cover,
        skip: Option<Cover>,
        rect: &Rect,
        norm: f64,
        terms: &[(TermId, f64)],
        scratch: &mut ScoreScratch,
    ) -> usize {
        let ScoreScratch { cell, hits, .. } = scratch;
        let mut scored = 0;
        for c in cover.cells() {
            if skip.is_some_and(|s| s.contains(c)) {
                continue;
            }
            let occupied = self.grid.score_cell(c, terms, cell, |o, partial| {
                if !rect.contains(&o.point) {
                    return; // the cell overlapped Q.Λ but the object itself is outside
                }
                let score = partial / norm;
                if score > 0.0 {
                    hits.push(Hit {
                        id: o.id,
                        node: self.object_nodes[o.index as usize],
                        score,
                    });
                }
            });
            scored += usize::from(occupied);
        }
        scored
    }

    /// Delta variant of [`ObjectCollection::node_weights_into`] for an
    /// interactive session step: `prev` holds the weights of the same query
    /// vector over `old_rect`.  Cells of `new_rect`'s cover that lie in
    /// `old_rect`'s interior (every object they hold is inside `old_rect`,
    /// decided with the grid's bucketing arithmetic) keep `prev`'s scores
    /// for their objects inside `new_rect`; every other cell of the cover is
    /// rescanned.
    /// Returns the number of occupied cells rescanned.
    ///
    /// Bit-identical to a cold [`ObjectCollection::node_weights_into`] over
    /// `new_rect`: an object's Equation-2 partial accumulates entirely within
    /// its single grid cell, so per-object scores are rect-independent, and
    /// the per-node sums are rebuilt in the cold pass's ascending-id order.
    pub fn node_weights_delta_into(
        &self,
        query: &QueryVector,
        old_rect: &Rect,
        new_rect: &Rect,
        prev: &NodeWeights,
        out: &mut NodeWeights,
    ) -> usize {
        out.by_node.clear();
        out.by_object.clear();
        let cover = match self.grid.cover_of(new_rect) {
            Some(cover) if query.norm != 0.0 => cover,
            _ => return 0,
        };
        let interior = self.grid.interior_of(old_rect);
        let terms = query_terms(query);
        let rescanned = self.score_cover(
            cover,
            interior,
            new_rect,
            query.norm,
            &terms,
            &mut out.scratch,
        );
        if let Some(interior) = interior {
            for &(id, score) in &prev.by_object {
                let Some(i) = self.index_of(id) else {
                    continue;
                };
                let point = &self.objects[i].point;
                let kept = self
                    .grid
                    .cell_of(point)
                    .is_some_and(|c| interior.contains(c));
                if kept && new_rect.contains(point) {
                    out.scratch.hits.push(Hit {
                        id,
                        node: self.object_nodes[i],
                        score,
                    });
                }
            }
        }
        finish(out);
        rescanned
    }

    /// Convenience wrapper: computes node weights from raw keyword strings.
    pub fn node_weights_for_keywords(
        &self,
        keywords: &[impl AsRef<str>],
        rect: &Rect,
    ) -> NodeWeights {
        let q = self.query_vector(keywords);
        self.node_weights(&q, rect)
    }

    /// Reusing variant of [`ObjectCollection::node_weights_for_keywords`]
    /// (see [`ObjectCollection::node_weights_into`]).
    pub fn node_weights_for_keywords_into(
        &self,
        keywords: &[impl AsRef<str>],
        rect: &Rect,
        out: &mut NodeWeights,
    ) {
        let q = self.query_vector(keywords);
        self.node_weights_into(&q, rect, out);
    }

    /// The alternative scoring strategy of Section 2 of the paper: an object's
    /// score is its rating/popularity when it matches at least one query
    /// keyword, and zero otherwise, so the region score represents the
    /// popularity of a relevant region.  Objects without a rating count as
    /// `default_rating`.
    pub fn node_weights_by_rating(
        &self,
        keywords: &[impl AsRef<str>],
        rect: &Rect,
        default_rating: f64,
    ) -> NodeWeights {
        let mut weights = NodeWeights::default();
        let mut by_node: BTreeMap<NodeId, f64> = BTreeMap::new();
        let normalized: Vec<String> = keywords
            .iter()
            .map(|k| crate::object::normalize_term(k.as_ref()))
            .filter(|k| !k.is_empty())
            .collect();
        if normalized.is_empty() {
            return weights;
        }
        for (i, object) in self.objects.iter().enumerate() {
            if !rect.contains(&object.point) {
                continue;
            }
            let matches = normalized.iter().any(|k| object.contains_term(k));
            if !matches {
                continue;
            }
            let score = object.rating.unwrap_or(default_rating).max(0.0);
            if score <= 0.0 {
                continue;
            }
            weights.by_object.push((object.id, score));
            *by_node.entry(self.object_nodes[i]).or_insert(0.0) += score;
        }
        weights.by_object.sort_unstable_by_key(|&(o, _)| o);
        weights.by_node.extend(by_node);
        weights
    }
}

/// `(term, w_{Q.ψ,t})` of the query terms that can score, in query order.
fn query_terms(query: &QueryVector) -> Vec<(TermId, f64)> {
    query
        .terms
        .iter()
        .filter(|t| t.weight != 0.0)
        .filter_map(|t| t.id.map(|id| (id, t.weight)))
        .collect()
}

/// Turns a pass's hits into the output lists: objects ascending by id, and
/// per-node sums added in ascending object-id order (the summation order
/// that makes repeated and batched runs bit-identical).
///
/// Two stable radix passes give both orders without a comparison sort: the
/// first orders hits by object id, the second by node, which keeps each
/// node's hits in id order, i.e. `(node, id)` order.
fn finish(out: &mut NodeWeights) {
    let ScoreScratch { hits, spare, .. } = &mut out.scratch;
    radix_sort_by_key(hits, spare, |h| h.id.0);
    out.by_object.extend(hits.iter().map(|h| (h.id, h.score)));
    radix_sort_by_key(hits, spare, |h| u64::from(h.node.0));
    for h in hits.drain(..) {
        match out.by_node.last_mut() {
            Some((node, sum)) if *node == h.node => *sum += h.score,
            _ => out.by_node.push((h.node, h.score)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CellId;
    use lcmsr_roadnet::builder::GraphBuilder;
    use lcmsr_roadnet::geo::Point;

    fn network_and_objects() -> (RoadNetwork, Vec<GeoTextObject>) {
        // A 5-node line network with 100 m segments.
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point::new(i as f64 * 100.0, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 100.0).unwrap();
        }
        let network = b.build().unwrap();
        let objects = vec![
            GeoTextObject::from_keywords(0u64, Point::new(5.0, 5.0), ["restaurant", "italian"]),
            GeoTextObject::from_keywords(1u64, Point::new(102.0, -3.0), ["restaurant", "pizza"]),
            GeoTextObject::from_keywords(2u64, Point::new(108.0, 4.0), ["cafe"]),
            GeoTextObject::from_keywords(3u64, Point::new(395.0, 0.0), ["restaurant"]),
            GeoTextObject::from_keywords(4u64, Point::new(250.0, 2.0), Vec::<String>::new()),
            GeoTextObject::from_keywords(5u64, Point::new(9999.0, 9999.0), ["restaurant"]),
        ];
        (network, objects)
    }

    #[test]
    fn build_skips_unusable_objects() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        // The empty object and the far-away object are skipped.
        assert_eq!(coll.len(), 4);
        assert!(!coll.is_empty());
        assert_eq!(coll.keyword_count(), 4);
        assert!(coll.object(ObjectId(5)).is_none());
        assert!(coll.object(ObjectId(0)).is_some());
    }

    #[test]
    fn objects_map_to_nearest_nodes() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        assert_eq!(coll.node_of(ObjectId(0)), Some(NodeId(0)));
        assert_eq!(coll.node_of(ObjectId(1)), Some(NodeId(1)));
        assert_eq!(coll.node_of(ObjectId(2)), Some(NodeId(1)));
        assert_eq!(coll.node_of(ObjectId(3)), Some(NodeId(4)));
        assert_eq!(coll.objects_at(NodeId(1)).len(), 2);
        assert!(coll.objects_at(NodeId(2)).is_empty());
    }

    #[test]
    fn node_weights_sum_object_scores_per_node() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        let rect = network.bounding_rect().unwrap().expanded(50.0);
        let q = coll.query_vector(&["restaurant"]);
        let w = coll.node_weights(&q, &rect);
        assert_eq!(w.relevant_node_count(), 3); // nodes 0, 1, 4
        assert!(w.weight(NodeId(0)) > 0.0);
        assert!(w.weight(NodeId(1)) > 0.0);
        assert!(w.weight(NodeId(4)) > 0.0);
        assert_eq!(w.weight(NodeId(2)), 0.0);
        // Object 3 has the single keyword "restaurant" → its score is maximal,
        // so node 4 carries the largest weight among single-object nodes.
        assert!(w.weight(NodeId(4)) >= w.weight(NodeId(0)));
        assert!(w.max_weight() > 0.0);
        let sum: f64 = w.by_node.iter().map(|&(_, w)| w).sum();
        assert!((w.total_weight() - sum).abs() < 1e-12);
    }

    #[test]
    fn node_weights_respect_query_rectangle() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        // Rectangle covering only the first two nodes' surroundings.
        let rect = Rect::new(-20.0, -20.0, 150.0, 20.0);
        let w = coll.node_weights_for_keywords(&["restaurant"], &rect);
        assert!(w.weight(NodeId(0)) > 0.0);
        assert!(w.weight(NodeId(1)) > 0.0);
        assert_eq!(
            w.weight(NodeId(4)),
            0.0,
            "object outside Q.Λ must not count"
        );
    }

    #[test]
    fn irrelevant_or_unknown_queries_give_empty_weights() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        let rect = network.bounding_rect().unwrap().expanded(50.0);
        let w = coll.node_weights_for_keywords(&["spaceship"], &rect);
        assert!(w.is_empty());
        assert_eq!(w.max_weight(), 0.0);
        let w = coll.node_weights_for_keywords(&Vec::<String>::new(), &rect);
        assert!(w.is_empty());
    }

    #[test]
    fn multi_keyword_queries_score_multi_matching_objects_higher() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        let rect = network.bounding_rect().unwrap().expanded(50.0);
        let w = coll.node_weights_for_keywords(&["restaurant", "pizza"], &rect);
        // Object 1 (restaurant+pizza) on node 1 scores higher than object 0
        // (restaurant+italian) on node 0.
        let s1 = w.object_score(ObjectId(1)).unwrap_or(0.0);
        let s0 = w.object_score(ObjectId(0)).unwrap_or(0.0);
        assert!(s1 > s0);
    }

    #[test]
    fn rating_based_scoring_uses_ratings_of_matching_objects() {
        let (network, mut objects) = network_and_objects();
        // Give two relevant objects explicit ratings.
        objects[0] = objects[0].clone().with_rating(4.5); // restaurant at node 0
        objects[3] = objects[3].clone().with_rating(2.0); // restaurant at node 4
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        let rect = network.bounding_rect().unwrap().expanded(50.0);
        let w = coll.node_weights_by_rating(&["restaurant"], &rect, 1.0);
        assert!((w.weight(NodeId(0)) - 4.5).abs() < 1e-12);
        assert!((w.weight(NodeId(4)) - 2.0).abs() < 1e-12);
        // Object 1 (restaurant, no rating) falls back to the default rating.
        assert!((w.weight(NodeId(1)) - 1.0).abs() < 1e-12);
        // The cafe does not match and contributes nothing.
        assert_eq!(w.object_score(ObjectId(2)), None);
        // No keywords → empty; unknown keywords → empty.
        assert!(coll
            .node_weights_by_rating(&Vec::<String>::new(), &rect, 1.0)
            .is_empty());
        assert!(coll
            .node_weights_by_rating(&["spaceship"], &rect, 1.0)
            .is_empty());
    }

    #[test]
    fn reused_node_weights_match_fresh_ones() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        let rect = network.bounding_rect().unwrap().expanded(50.0);
        let mut reused = NodeWeights::default();
        for keywords in [vec!["restaurant"], vec!["cafe", "pizza"], vec!["spaceship"]] {
            let fresh = coll.node_weights_for_keywords(&keywords, &rect);
            coll.node_weights_for_keywords_into(&keywords, &rect, &mut reused);
            assert_eq!(fresh.by_node, reused.by_node);
            assert_eq!(fresh.by_object, reused.by_object);
        }
        // Stale entries from a previous query never leak into the next one.
        coll.node_weights_for_keywords_into(&["restaurant"], &rect, &mut reused);
        coll.node_weights_for_keywords_into(&["spaceship"], &rect, &mut reused);
        assert!(reused.is_empty());
    }

    #[test]
    fn parallel_scoring_matches_the_sequential_path() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 60.0).unwrap();
        let rect = network.bounding_rect().unwrap().expanded(50.0);
        let q = coll.query_vector(&["restaurant", "pizza"]);
        let reference = coll.node_weights(&q, &rect);
        assert!(!reference.is_empty());
        for workers in [2usize, 4, 7] {
            let mut w = NodeWeights::default();
            coll.node_weights_into_with_workers(&q, &rect, &mut w, workers);
            assert_eq!(w.by_node, reference.by_node, "workers={workers}");
            assert_eq!(w.by_object, reference.by_object, "workers={workers}");
        }
    }

    #[test]
    fn delta_weights_are_bit_identical_to_cold_weights() {
        let (network, objects) = network_and_objects();
        // A small cell size so pans genuinely change the cell cover.
        let coll = ObjectCollection::build(&network, objects, 60.0).unwrap();
        let q = coll.query_vector(&["restaurant", "pizza"]);
        // A pan/zoom trace of overlapping rects (plus one disjoint jump).
        let rects = [
            Rect::new(-20.0, -20.0, 150.0, 20.0),
            Rect::new(30.0, -20.0, 200.0, 25.0),  // pan right
            Rect::new(-10.0, -30.0, 420.0, 30.0), // zoom out
            Rect::new(80.0, -5.0, 130.0, 10.0),   // zoom in
            Rect::new(300.0, -20.0, 420.0, 20.0), // disjoint-ish jump
        ];
        let mut prev_rect = rects[0];
        let mut prev = coll.node_weights(&q, &prev_rect);
        for rect in &rects[1..] {
            let cold = coll.node_weights(&q, rect);
            let mut delta = NodeWeights::default();
            let rescanned = coll.node_weights_delta_into(&q, &prev_rect, rect, &prev, &mut delta);
            assert!(rescanned <= coll.grid().cells_intersecting(rect).len());
            assert_eq!(cold.by_object.len(), delta.by_object.len(), "rect={rect:?}");
            for ((oa, sa), (ob, sb)) in cold.by_object.iter().zip(&delta.by_object) {
                assert_eq!(oa, ob);
                assert_eq!(sa.to_bits(), sb.to_bits(), "rect={rect:?} obj={oa:?}");
            }
            assert_eq!(cold.by_node.len(), delta.by_node.len());
            for ((na, sa), (nb, sb)) in cold.by_node.iter().zip(&delta.by_node) {
                assert_eq!(na, nb);
                assert_eq!(sa.to_bits(), sb.to_bits(), "rect={rect:?} node={na:?}");
            }
            prev_rect = *rect;
            prev = cold;
        }
        // A fully-contained re-query rescans only boundary cells; an
        // identical rect rescans only the cells the rect does not fully
        // contain (possibly zero).
        let mut same = NodeWeights::default();
        coll.node_weights_delta_into(&q, &prev_rect, &prev_rect, &prev, &mut same);
        assert_eq!(same.by_object, prev.by_object);
        // An unknown-keyword query yields empty output either way.
        let empty_q = coll.query_vector(&["spaceship"]);
        let mut out = NodeWeights::default();
        let empty_prev = NodeWeights::default();
        coll.node_weights_delta_into(&empty_q, &rects[0], &rects[1], &empty_prev, &mut out);
        assert!(out.is_empty());
    }

    /// A point exactly on a computed cell edge buckets into the cell right
    /// of it although it lies an ulp left of that cell's float rectangle.
    /// Panning from that rectangle must still rescan the cell.
    #[test]
    fn delta_keeps_objects_bucketed_across_a_float_cell_edge() {
        const MIN_X: f64 = -17616.723516683764;
        let mut b = GraphBuilder::new();
        let west = b.add_node(Point::new(MIN_X + 60.0, 0.0));
        let east = b.add_node(Point::new(MIN_X + 15_060.0, 100.0));
        b.add_edge_euclidean(west, east).unwrap();
        let network = b.build().unwrap();
        let objects = vec![
            GeoTextObject::from_keywords(0u64, Point::new(-5436.7235166837645, 30.0), ["cafe"]),
            GeoTextObject::from_keywords(1u64, Point::new(-5410.0, 30.0), ["cafe"]),
        ];
        let coll = ObjectCollection::build(&network, objects, 60.0).unwrap();
        assert_eq!(coll.grid().extent().min_x, MIN_X);
        let cell = CellId { col: 203, row: 1 };
        let edge = coll.objects()[0].point;
        assert_eq!(coll.grid().cell_of(&edge), Some(cell));
        let old = coll.grid().cell_rect(cell);
        assert!(
            edge.x < old.min_x,
            "the float cell edge and bucketing disagree"
        );

        let new = Rect::new(old.min_x - 30.0, old.min_y, old.max_x, old.max_y);
        let q = coll.query_vector(&["cafe"]);
        let prev = coll.node_weights(&q, &old);
        let cold = coll.node_weights(&q, &new);
        let ids = |w: &NodeWeights| w.by_object.iter().map(|&(o, _)| o.0).collect::<Vec<_>>();
        assert_eq!(ids(&prev), vec![1]);
        assert_eq!(ids(&cold), vec![0, 1]);
        let mut delta = NodeWeights::default();
        coll.node_weights_delta_into(&q, &old, &new, &prev, &mut delta);
        assert_eq!(delta.by_object, cold.by_object);
        assert_eq!(delta.by_node, cold.by_node);
    }

    #[test]
    fn build_default_uses_default_cell_size() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build_default(&network, objects).unwrap();
        assert!(coll.grid().cell_size() == DEFAULT_CELL_SIZE);
        assert_eq!(coll.len(), 4);
    }
}
