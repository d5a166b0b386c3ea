//! Parallel prepare is a scheduling detail: property tests that the prepare
//! phase is **bit-identical** across prepare worker counts.
//!
//! With more than one worker, keyword scoring splits a query rect's cell
//! cover into row bands and `RegionView` gathers nodes band by band; the
//! bands' results are concatenated and sorted, which must reconstruct exactly
//! the sequential answer.  Here a random object placement is queried with
//! random rectangles — including rects straddling cell edges and rects
//! containing no node at all — and every derived artefact at 3 workers is
//! compared bit-for-bit against 1 worker:
//!
//! * the keyword scores (`NodeWeights`: node and object lists, `f64::to_bits`);
//! * the prepared [`QueryGraph`]: per-node (global id, weight bits, scaled
//!   weight) in CSR order plus every edge with its length bits.

use lcmsr::core::engine::LcmsrEngine;
use lcmsr::core::prelude::{QueryGraph, QueryWorkspace};
use lcmsr::core::LcmsrQuery;
use lcmsr::geotext::collection::NodeWeights;
use lcmsr::geotext::{GeoTextObject, ObjectCollection};
use lcmsr::roadnet::{GraphBuilder, NodeId, Point, Rect, RoadNetwork};
use proptest::prelude::*;

const SIDE: usize = 6;
const SPACING: f64 = 100.0;
const KEYWORDS: [&str; 3] = ["restaurant", "cafe", "museum"];

/// A `SIDE × SIDE` grid network with one object per entry of `placements`:
/// `(node, keyword)` pairs, the keyword index rotating through [`KEYWORDS`].
fn grid_world(placements: &[(usize, usize)]) -> (RoadNetwork, Vec<GeoTextObject>) {
    let mut b = GraphBuilder::new();
    let mut ids = Vec::new();
    for y in 0..SIDE {
        for x in 0..SIDE {
            ids.push(b.add_node(Point::new(x as f64 * SPACING, y as f64 * SPACING)));
        }
    }
    for y in 0..SIDE {
        for x in 0..SIDE {
            let i = y * SIDE + x;
            if x + 1 < SIDE {
                b.add_edge(ids[i], ids[i + 1], SPACING).unwrap();
            }
            if y + 1 < SIDE {
                b.add_edge(ids[i], ids[i + SIDE], SPACING).unwrap();
            }
        }
    }
    let network = b.build().unwrap();
    let objects = placements
        .iter()
        .enumerate()
        .map(|(oid, &(node, kw))| {
            let p = network.point(NodeId((node % (SIDE * SIDE)) as u32));
            GeoTextObject::from_keywords(
                oid as u64,
                // Offset by the object id so co-located objects stay distinct
                // points; all offsets stay inside the host node's cell.
                Point::new(p.x + 1.0 + oid as f64 * 0.25, p.y + 1.0),
                [KEYWORDS[kw % KEYWORDS.len()]],
            )
        })
        .collect();
    (network, objects)
}

/// Per-node (global id, weight bits, scaled weight) in CSR order plus
/// per-edge (a, b, length bits).
type GraphFingerprint = (Vec<(u32, u64, u64)>, Vec<(u32, u32, u64)>);

/// Bit-exact content of a prepared query graph (CSR node order + edges).
fn graph_fingerprint(graph: &QueryGraph) -> GraphFingerprint {
    let nodes = graph
        .node_indices()
        .map(|v| {
            (
                graph.global_node(v).0,
                graph.weight(v).to_bits(),
                graph.scaled_weight(v),
            )
        })
        .collect();
    let edges = graph
        .edges()
        .iter()
        .map(|e| (e.a, e.b, e.length.to_bits()))
        .collect();
    (nodes, edges)
}

/// Per-node and per-object (id, score bits) of a keyword-scoring result.
type WeightsFingerprint = (Vec<(u32, u64)>, Vec<(u64, u64)>);

/// Bit-exact content of a keyword-scoring result.
fn weights_fingerprint(w: &NodeWeights) -> WeightsFingerprint {
    (
        w.by_node.iter().map(|(n, w)| (n.0, w.to_bits())).collect(),
        w.by_object
            .iter()
            .map(|(o, w)| (o.0, w.to_bits()))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random placements, random rects (shifted off the node lattice so they
    /// straddle cell edges; degenerate spans still have positive area but may
    /// contain zero nodes): keyword scores and the prepared query graph are
    /// bit-identical at 1 and 3 prepare workers.
    #[test]
    fn prepare_is_bit_identical_across_worker_counts(
        placements in collection::vec((0usize..SIDE * SIDE, 0usize..KEYWORDS.len()), 1..24),
        rect_cells in collection::vec((0usize..SIDE, 0usize..SIDE, 0usize..SIDE, 0usize..SIDE), 1..5),
        shift_third in 0usize..3,
        delta_blocks in 1usize..7,
    ) {
        let (network, objects) = grid_world(&placements);
        // The shift places rect borders on nodes (0), between nodes (half a
        // block) or just past nodes (a tenth of a block) — the latter two
        // straddle grid-cell boundaries.
        let shift = [0.0, SPACING / 2.0, SPACING / 10.0][shift_third];
        let delta = delta_blocks as f64 * SPACING;

        let collection = ObjectCollection::build(&network, objects, SPACING / 2.0).unwrap();
        let engine = LcmsrEngine::new(&network, &collection);
        let q = collection.query_vector(&KEYWORDS);

        let mut rects = Vec::new();
        for &(x0, y0, w, h) in &rect_cells {
            rects.push(Rect::new(
                x0 as f64 * SPACING + shift,
                y0 as f64 * SPACING + shift,
                (x0 + w.max(1)) as f64 * SPACING + shift,
                (y0 + h.max(1)) as f64 * SPACING + shift,
            ));
        }
        // A node-free rect (all nodes sit on multiples of SPACING) and one
        // clear of the network: same pipeline, zero members.
        rects.push(Rect::new(110.0, 110.0, 190.0, 190.0));
        rects.push(Rect::new(SIDE as f64 * SPACING + 50.0, 0.0, SIDE as f64 * SPACING + 150.0, 100.0));

        for rect in &rects {
            let reference = collection.node_weights(&q, rect);
            let mut parallel = NodeWeights::default();
            collection.node_weights_into_with_workers(&q, rect, &mut parallel, 3);
            prop_assert_eq!(
                weights_fingerprint(&parallel),
                weights_fingerprint(&reference),
                "scores diverged at 3 workers for {:?}", rect
            );

            // A rect with no node (or no relevant object) makes prepare
            // fail; the failure itself must be worker-independent too.
            let query = LcmsrQuery::new(KEYWORDS, delta, *rect).unwrap();
            let mut ws = QueryWorkspace::new();
            let mut prepare = |workers: usize| {
                engine.set_prepare_workers(workers);
                match engine.prepare_with(&mut ws, &query, 0.5) {
                    Ok(g) => {
                        let fp = graph_fingerprint(&g);
                        engine.release(&mut ws, g);
                        Ok(fp)
                    }
                    Err(e) => Err(format!("{e:?}")),
                }
            };
            let expected = prepare(1);
            let got = prepare(3);
            prop_assert_eq!(
                &got, &expected,
                "query graph diverged at 3 workers for {:?}", rect
            );
        }
    }
}
