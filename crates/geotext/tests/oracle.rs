//! Oracle property test: the grid's keyword scoring against a brute-force
//! scorer that visits every object.
//!
//! For each object inside the rectangle the oracle sums
//! `w_{Q.ψ,t} · (tf_weight / object_norm)` over the query terms in query
//! order, divides by the query norm, keeps positive scores, and adds each
//! node's scores in ascending object-id order.  The cold pass at 1 and 3
//! workers, and the delta pass of a pan from an old rectangle, must match
//! it bit for bit.  Objects sit on computed cell edges, one ulp either side of them
//! and on the extent's max boundary; queries repeat keywords, name unknown
//! ones and carry zero-idf terms; rectangles lie outside the extent, partly
//! outside it or on cell edges.

use lcmsr_geotext::collection::NodeWeights;
use lcmsr_geotext::vsm::{object_norm, tf_weight};
use lcmsr_geotext::{GeoTextObject, ObjectCollection, QueryVector};
use lcmsr_roadnet::builder::GraphBuilder;
use lcmsr_roadnet::geo::{Point, Rect};
use lcmsr_roadnet::graph::RoadNetwork;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Cell size of the grid under test.
const CELL: f64 = 60.0;
/// The network's south-west corner and lattice spacing: the extent spans
/// about 250 cells per axis, and past the middle most computed cell edges
/// `min + k * CELL`, less one ulp, still bucket into cell `k`.
const ORIGIN: (f64, f64) = (-17_556.723_516_683_764, -12_345.678_901_234_567);
const SIDE: usize = 6;
const SPACING: f64 = 3_000.0;
/// Object keywords; index 4 adds no keyword.
const KEYWORDS: [&str; 4] = ["cafe", "bar", "museum", "park"];
/// Query keywords: a case variant (a duplicate after normalisation) and a
/// keyword no object has.
const QUERY_WORDS: [&str; 6] = ["cafe", "bar", "museum", "park", "CAFE", "spaceship"];

/// The next representable value above (`dir > 0`) or below (`dir < 0`) `x`.
fn ulp_step(x: f64, dir: i64) -> f64 {
    match dir.signum() {
        0 => x,
        1 if x == 0.0 => f64::from_bits(1),
        -1 if x == 0.0 => -f64::from_bits(1),
        d if (x > 0.0) == (d > 0) => f64::from_bits(x.to_bits() + 1),
        _ => f64::from_bits(x.to_bits() - 1),
    }
}

fn network() -> RoadNetwork {
    let mut b = GraphBuilder::new();
    let mut ids = Vec::new();
    for y in 0..SIDE {
        for x in 0..SIDE {
            ids.push(b.add_node(Point::new(
                ORIGIN.0 + x as f64 * SPACING,
                ORIGIN.1 + y as f64 * SPACING,
            )));
        }
    }
    for y in 0..SIDE {
        for x in 0..SIDE {
            let i = y * SIDE + x;
            if x + 1 < SIDE {
                b.add_edge_euclidean(ids[i], ids[i + 1]).unwrap();
            }
            if y + 1 < SIDE {
                b.add_edge_euclidean(ids[i], ids[i + SIDE]).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// One coordinate draw: kind, cell-edge index, ulp offset + 1, fraction.
type AxisDraw = (usize, usize, usize, f64);

/// One coordinate along an axis spanning `[min, max]`: a computed cell edge
/// (kind 0), the max boundary (kind 1) — each shifted by `off - 1` ulps —
/// or a uniform point (kind 2).
fn coordinate(min: f64, max: f64, (kind, k, off, frac): AxisDraw) -> f64 {
    let cells = ((max - min) / CELL).ceil() as usize;
    let base = match kind {
        0 => min + (k % (cells + 1)) as f64 * CELL,
        1 => max,
        _ => return min + frac * (max - min),
    };
    ulp_step(base, off as i64 - 1)
}

/// Oracle output: per-node and per-object (id, score bits).
type Fingerprint = (Vec<(u32, u64)>, Vec<(u64, u64)>);

fn fingerprint(w: &NodeWeights) -> Fingerprint {
    (
        w.by_node.iter().map(|(n, s)| (n.0, s.to_bits())).collect(),
        w.by_object
            .iter()
            .map(|(o, s)| (o.0, s.to_bits()))
            .collect(),
    )
}

/// Brute-force Equation 2 over every object of the collection.
fn oracle(coll: &ObjectCollection, q: &QueryVector, rect: &Rect) -> Fingerprint {
    let mut by_object = Vec::new();
    if q.norm != 0.0 {
        for o in coll.objects() {
            if !rect.contains(&o.point) {
                continue;
            }
            let norm = object_norm(o);
            let mut partial = 0.0;
            for t in q.terms.iter().filter(|t| t.id.is_some()) {
                if let Some(&tf) = o.terms.get(&t.text) {
                    partial += t.weight * (tf_weight(tf) / norm);
                }
            }
            let score = partial / q.norm;
            if score > 0.0 {
                by_object.push((o.id, score));
            }
        }
    }
    by_object.sort_by_key(|&(id, _)| id);
    let mut by_node = BTreeMap::new();
    for &(id, score) in &by_object {
        *by_node.entry(coll.node_of(id).unwrap()).or_insert(0.0) += score;
    }
    (
        by_node
            .into_iter()
            .map(|(n, s): (_, f64)| (n.0, s.to_bits()))
            .collect(),
        by_object
            .into_iter()
            .map(|(o, s)| (o.0, s.to_bits()))
            .collect(),
    )
}

fn axis() -> (
    std::ops::Range<usize>,
    std::ops::Range<usize>,
    std::ops::Range<usize>,
    std::ops::Range<f64>,
) {
    (0usize..3, 0usize..1_000, 0usize..3, 0.0f64..1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grid_scoring_matches_the_brute_force_oracle(
        placements in collection::vec((axis(), axis(), (0usize..5, 0usize..5, 0usize..5)), 1..60),
        query_words in collection::vec(0usize..QUERY_WORDS.len(), 1..5),
        zero_idf in 0usize..3,
        rect_draws in collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..4),
    ) {
        let network = network();
        let extent = network.bounding_rect().unwrap().expanded(CELL);
        let objects: Vec<GeoTextObject> = placements
            .iter()
            .enumerate()
            .map(|(i, &(x, y, (a, b, c)))| {
                let words = [a, b, c].into_iter().filter_map(|k| KEYWORDS.get(k));
                GeoTextObject::from_keywords(
                    i as u64 * 7 % 61,
                    Point::new(
                        coordinate(extent.min_x, extent.max_x, x),
                        coordinate(extent.min_y, extent.max_y, y),
                    ),
                    words,
                )
            })
            .collect();
        let coll = ObjectCollection::build(&network, objects, CELL).unwrap();
        prop_assert_eq!(coll.grid().extent(), extent);

        let words: Vec<&str> = query_words.iter().map(|&k| QUERY_WORDS[k]).collect();
        let mut q = coll.query_vector(&words);
        // A known term whose weight is zero must contribute nothing.
        if zero_idf == 0 {
            if let Some(t) = q.terms.iter_mut().find(|t| t.id.is_some()) {
                t.weight = 0.0;
            }
        }

        // Pans (old, new): a random rect and its shift, jumps out of and
        // into the extent, and for every object the block of whole cells
        // from its cell (on computed cell edges) widened by 30 m on each
        // side — an object bucketed across a float cell edge must survive.
        let wide = extent.expanded(200.0);
        let outside = Rect::new(extent.max_x + 1.0, extent.min_y, extent.max_x + 500.0, extent.max_y);
        let mut pans: Vec<(Rect, Rect)> = Vec::new();
        for &(x, y) in &rect_draws {
            let random = Rect::new(
                coordinate(wide.min_x, wide.max_x, (2, 0, 1, x)),
                coordinate(wide.min_y, wide.max_y, (2, 0, 1, y)),
                coordinate(wide.min_x, wide.max_x, (2, 0, 1, (x + y) / 2.0)),
                coordinate(wide.min_y, wide.max_y, (2, 0, 1, (y + 1.0) / 2.0)),
            );
            let (dx, dy) = ((x - 0.5) * 300.0, (y - 0.5) * 300.0);
            let shifted = Rect::new(
                random.min_x + dx,
                random.min_y + dy,
                random.max_x + dx,
                random.max_y + dy,
            );
            pans.extend([(random, shifted), (random, outside), (outside, random)]);
        }
        for (k, o) in coll.objects().iter().enumerate() {
            let cell = coll.grid().cell_of(&o.point).unwrap();
            let (col, row) = (f64::from(cell.col), f64::from(cell.row));
            let size = (1 + k % 2) as f64;
            let block = Rect::new(
                extent.min_x + col * CELL,
                extent.min_y + row * CELL,
                extent.min_x + (col + size) * CELL,
                extent.min_y + (row + size) * CELL,
            );
            for (l, b, r, t) in [(30.0, 0.0, 0.0, 0.0), (0.0, 30.0, 0.0, 0.0), (0.0, 0.0, 30.0, 0.0), (0.0, 0.0, 0.0, 30.0)] {
                let widened = Rect::new(block.min_x - l, block.min_y - b, block.max_x + r, block.max_y + t);
                pans.push((block, widened));
            }
        }

        for (old_rect, new_rect) in &pans {
            for rect in [old_rect, new_rect] {
                let expected = oracle(&coll, &q, rect);
                for workers in [1usize, 3] {
                    let mut cold = NodeWeights::default();
                    coll.node_weights_into_with_workers(&q, rect, &mut cold, workers);
                    prop_assert_eq!(
                        fingerprint(&cold), expected,
                        "cold pass at {} workers diverged for {:?}", workers, rect
                    );
                }
            }
            let prev = coll.node_weights(&q, old_rect);
            let mut delta = NodeWeights::default();
            coll.node_weights_delta_into(&q, old_rect, new_rect, &prev, &mut delta);
            prop_assert_eq!(
                fingerprint(&delta), oracle(&coll, &q, new_rect),
                "delta pass diverged from {:?} to {:?}", old_rect, new_rect
            );
        }
    }
}
