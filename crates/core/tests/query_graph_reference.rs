//! Bit-identity test: [`QueryGraphBuilder::build`] against a reference
//! builder.
//!
//! The reference keeps its own global→local map (a `BTreeMap`), fills
//! adjacency lists edge by edge, and scales weights with
//! `(σ_v/θ + 1e-9).floor() as u64`.  The builder under test reads local ids
//! from the view's membership table, fills a CSR array and scales with a
//! saturating `as u64`.  Every node, edge, adjacency entry, weight, scaled
//! weight, θ and σ_max must agree bit for bit — on random views, with
//! weights at exact multiples of θ, absent (zero) weights and negative
//! scores that the builder clamps to zero — and again after a rescale.

use lcmsr_core::query_graph::{QueryGraph, QueryGraphBuilder};
use lcmsr_geotext::collection::NodeWeights;
use lcmsr_roadnet::builder::GraphBuilder;
use lcmsr_roadnet::edge::EdgeId;
use lcmsr_roadnet::geo::{Point, Rect};
use lcmsr_roadnet::node::NodeId;
use lcmsr_roadnet::subgraph::RegionView;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The reference build, field by field.
struct Reference {
    node_ids: Vec<NodeId>,
    points: Vec<Point>,
    edges: Vec<(u32, u32, f64, EdgeId)>,
    adjacency: Vec<Vec<(u32, u32)>>,
    weights: Vec<f64>,
    scaled: Vec<u64>,
    theta: f64,
    sigma_max: f64,
}

fn reference(view: &RegionView<'_>, node_weights: &NodeWeights, alpha: f64) -> Reference {
    let graph = view.graph();
    let node_ids = view.nodes().to_vec();
    let local: BTreeMap<NodeId, u32> = node_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i as u32))
        .collect();
    let weights: Vec<f64> = node_ids
        .iter()
        .map(|&id| node_weights.weight(id).max(0.0))
        .collect();
    let sigma_max = weights.iter().fold(0.0f64, |a, &b| a.max(b));
    let mut adjacency = vec![Vec::new(); node_ids.len()];
    let edges: Vec<_> = view
        .edges()
        .iter()
        .enumerate()
        .map(|(le, &eid)| {
            let e = graph.edge(eid);
            let (a, b) = (local[&e.a], local[&e.b]);
            adjacency[a as usize].push((b, le as u32));
            adjacency[b as usize].push((a, le as u32));
            (a, b, e.length, eid)
        })
        .collect();
    let theta = if sigma_max > 0.0 {
        alpha * sigma_max / node_ids.len() as f64
    } else {
        0.0
    };
    let scaled = weights
        .iter()
        .map(|&w| {
            if theta > 0.0 {
                (w / theta + 1e-9).floor() as u64
            } else {
                0
            }
        })
        .collect();
    Reference {
        points: node_ids.iter().map(|&id| graph.point(id)).collect(),
        node_ids,
        edges,
        adjacency,
        weights,
        scaled,
        theta,
        sigma_max,
    }
}

fn assert_identical(qg: &QueryGraph, r: &Reference, label: &str) {
    assert_eq!(qg.node_count(), r.node_ids.len(), "{label}");
    assert_eq!(qg.theta().to_bits(), r.theta.to_bits(), "{label}: θ");
    assert_eq!(
        qg.sigma_max().to_bits(),
        r.sigma_max.to_bits(),
        "{label}: σ_max"
    );
    for v in qg.node_indices() {
        let i = v as usize;
        assert_eq!(qg.global_node(v), r.node_ids[i], "{label}: node {v}");
        assert_eq!(qg.point(v), r.points[i], "{label}: point {v}");
        assert_eq!(
            qg.weight(v).to_bits(),
            r.weights[i].to_bits(),
            "{label}: σ {v}"
        );
        assert_eq!(qg.scaled_weight(v), r.scaled[i], "{label}: σ̂ {v}");
        assert_eq!(
            qg.neighbors(v),
            r.adjacency[i].as_slice(),
            "{label}: adj {v}"
        );
    }
    assert_eq!(qg.edge_count(), r.edges.len(), "{label}");
    for (e, &(a, b, length, global)) in qg.edges().iter().zip(&r.edges) {
        assert_eq!((e.a, e.b, e.global), (a, b, global), "{label}");
        assert_eq!(e.length.to_bits(), length.to_bits(), "{label}");
    }
}

/// `x as u64` and `x.floor() as u64` agree on every class of `f64`.
#[test]
fn saturating_cast_equals_floor_then_cast() {
    let specials = [
        0.0,
        -0.0,
        1e-300,
        0.5,
        0.999_999_999_999_999_9,
        1.0,
        2.5,
        -0.5,
        -1.0,
        -1e300,
        4_503_599_627_370_495.5, // 2^52 − 0.5
        9_007_199_254_740_993.0, // 2^53 + 1 (rounds to 2^53)
        1.8446744073709552e19,   // 2^64
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];
    for x in specials {
        assert_eq!(x as u64, x.floor() as u64, "{x:e}");
    }
    // Every bit pattern class: sweep the exponent range with varied mantissas.
    let mut bits: u64 = 0x0123_4567_89AB_CDEF;
    for _ in 0..100_000 {
        bits = bits.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let x = f64::from_bits(bits);
        assert_eq!(x as u64, x.floor() as u64, "{x:e} ({bits:#x})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_matches_the_reference_bit_for_bit(
        side in 2usize..14,
        holes in collection::vec(0usize..200, 0..40),
        corner in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        kinds in collection::vec((0usize..5, 0usize..1_000), 1..200),
        alphas in (0usize..4, 0usize..4),
    ) {
        // A lattice with some edges missing; ids run column-major so the
        // view's id order differs from the row order of the node grid.
        let mut b = GraphBuilder::new();
        let mut ids = vec![NodeId(0); side * side];
        for x in 0..side {
            for y in 0..side {
                ids[y * side + x] = b.add_node(Point::new(x as f64 * 10.0, y as f64 * 10.0));
            }
        }
        let mut k = 0;
        for y in 0..side {
            for x in 0..side {
                let i = y * side + x;
                for j in [(x + 1 < side).then_some(i + 1), (y + 1 < side).then_some(i + side)]
                    .into_iter()
                    .flatten()
                {
                    k += 1;
                    if !holes.contains(&k) {
                        b.add_edge(ids[i], ids[j], 5.0 + (k % 7) as f64 * 1.25).unwrap();
                    }
                }
            }
        }
        let g = b.build().unwrap();
        let span = side as f64 * 10.0;
        let rect = Rect::new(
            -5.0 + corner.0 * span * 0.5,
            -5.0 + corner.1 * span * 0.5,
            span * (0.5 + corner.2 * 0.5),
            span * (0.5 + corner.3 * 0.5),
        );
        let view = RegionView::new(&g, rect);
        if view.node_count() == 0 {
            return;
        }

        // θ for the build alpha is α·σ_max/|V_Q|; weights sit at exact
        // multiples of it, at zero, absent, or negative (clamped to 0).
        let alpha = [0.15, 0.5, 3.0, 250.0][alphas.0];
        let sigma_max = 0.4;
        let n = view.node_count();
        let theta = alpha * sigma_max / n as f64;
        let max_multiple = (sigma_max / theta) as usize;
        let mut scored = vec![(view.nodes()[0], sigma_max)];
        for (&node, &(kind, draw)) in view.nodes().iter().zip(kinds.iter().cycle()).skip(1) {
            let w = match kind {
                0 => (draw % (max_multiple + 1)) as f64 * theta,
                1 => 0.0,
                2 => continue,
                3 => -((draw + 1) as f64) * theta,
                _ => sigma_max * (draw as f64 / 1_000.0),
            };
            scored.push((node, w));
        }
        let weights = NodeWeights::from_nodes(scored);

        let mut builder = QueryGraphBuilder::new();
        for round in 0..2 {
            let mut qg = builder.build(&view, &weights, 100.0, alpha).unwrap();
            assert_identical(&qg, &reference(&view, &weights, alpha), &format!("round {round}"));
            let rescaled = [0.15, 0.5, 3.0, 250.0][alphas.1];
            qg.rescale(rescaled).unwrap();
            assert_identical(&qg, &reference(&view, &weights, rescaled), "rescaled");
            builder.recycle(qg);
        }
    }
}
