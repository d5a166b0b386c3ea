//! Oracle property test: `Q.Λ` extraction against a brute-force filter.
//!
//! For a rectangle, the oracle keeps every node whose point lies inside it
//! and every edge whose endpoints both do, each in ascending id order (a
//! filter plus `sort_unstable`).  [`RegionView`] gathers the same sets from
//! the node grid's cell cover and member adjacency and orders them with an
//! id-band bitmap; both lists and the local-id map must match the oracle at
//! 1 and 3 workers, with one scratch reused across every view.
//!
//! Node and edge ids are shuffled against position, so a rectangle's members
//! are spread over a wide, sparse id band.  Rectangles include random ones,
//! one holding no node, one outside the network, zero-width strips through a
//! node and the whole extent.

use lcmsr_roadnet::builder::GraphBuilder;
use lcmsr_roadnet::edge::EdgeId;
use lcmsr_roadnet::geo::{Point, Rect};
use lcmsr_roadnet::graph::RoadNetwork;
use lcmsr_roadnet::node::NodeId;
use lcmsr_roadnet::subgraph::{RegionScratch, RegionView};
use proptest::prelude::*;

/// Side of the square the nodes are drawn in, in metres.
const SIDE: f64 = 1_000.0;

/// Deterministic pseudo-random `u64`s (SplitMix64) for the shuffles.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn shuffle<T>(items: &mut [T], next: &mut impl FnMut() -> u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// A network over `points` whose node ids follow a random permutation of
/// the points and whose edges (drawn as index pairs) are added in random
/// order, so neither id space follows position.
fn network(points: &[(f64, f64)], pairs: &[(usize, usize)], seed: u64) -> RoadNetwork {
    let mut next = splitmix(seed);
    let mut order: Vec<usize> = (0..points.len()).collect();
    shuffle(&mut order, &mut next);
    let mut b = GraphBuilder::new();
    let mut id_of = vec![NodeId(0); points.len()];
    for &i in &order {
        id_of[i] = b.add_node(Point::new(points[i].0, points[i].1));
    }
    let mut pairs = pairs.to_vec();
    shuffle(&mut pairs, &mut next);
    for (i, j) in pairs {
        let (a, c) = (id_of[i % points.len()], id_of[j % points.len()]);
        if a != c {
            b.add_edge(a, c, 1.0 + (i + j) as f64).unwrap();
        }
    }
    b.build().unwrap()
}

/// The oracle: nodes inside `rect` and edges with both endpoints inside it,
/// each ascending by id.
fn oracle(g: &RoadNetwork, rect: &Rect) -> (Vec<NodeId>, Vec<EdgeId>) {
    let mut nodes: Vec<NodeId> = g
        .nodes()
        .iter()
        .filter(|n| rect.contains(&n.point))
        .map(|n| n.id)
        .collect();
    nodes.sort_unstable();
    let inside = |n: NodeId| rect.contains(&g.point(n));
    let mut edges: Vec<EdgeId> = g
        .edges()
        .iter()
        .filter(|e| inside(e.a) && inside(e.b))
        .map(|e| e.id)
        .collect();
    edges.sort_unstable();
    (nodes, edges)
}

fn check(g: &RoadNetwork, view: &RegionView<'_>, rect: &Rect, label: &str) {
    let (nodes, edges) = oracle(g, rect);
    assert_eq!(view.nodes(), nodes.as_slice(), "{label}: nodes of {rect:?}");
    assert_eq!(view.edges(), edges.as_slice(), "{label}: edges of {rect:?}");
    for (i, &n) in nodes.iter().enumerate() {
        assert_eq!(view.local_index(n), Some(i), "{label}: local id of {n}");
    }
    for n in g.node_ids() {
        let member = rect.contains(&g.point(n));
        assert_eq!(view.contains(n), member, "{label}: membership of {n}");
        if !member {
            assert_eq!(view.local_index(n), None, "{label}: local id of {n}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn views_match_the_brute_force_oracle(
        points in collection::vec((0.0f64..SIDE, 0.0f64..SIDE), 1..400),
        pairs in collection::vec((0usize..1_000, 0usize..1_000), 0..900),
        seed in 0u64..u64::MAX,
        draws in collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..6),
    ) {
        let g = network(&points, &pairs, seed);
        let extent = g.bounding_rect().unwrap();
        let on = |t: f64| -0.1 * SIDE + t * 1.2 * SIDE;
        let mut rects: Vec<Rect> = draws
            .iter()
            .map(|&(a, b, c, d)| Rect::new(on(a), on(b), on(c), on(d)))
            .collect();
        let (x, y) = points[0];
        rects.extend([
            // A point rect where no node sits, and one on a node.
            Rect::new(SIDE / 2.0 + 0.123, SIDE / 3.0 + 0.456, SIDE / 2.0 + 0.123, SIDE / 3.0 + 0.456),
            Rect::new(x, y, x, y),
            // Wholly outside the network.
            Rect::new(extent.max_x + 1.0, extent.min_y, extent.max_x + 50.0, extent.max_y),
            // Zero-width and zero-height strips through a node.
            Rect::new(x, extent.min_y, x, extent.max_y),
            Rect::new(extent.min_x, y, extent.max_x, y),
            // The whole extent, boundary nodes included.
            extent,
        ]);

        let mut scratch = RegionScratch::new();
        for rect in &rects {
            check(&g, &RegionView::new(&g, *rect), rect, "fresh");
            for workers in [1, 3] {
                let view = RegionView::new_reusing_with_workers(&g, *rect, &mut scratch, workers);
                check(&g, &view, rect, &format!("workers={workers}"));
                view.recycle(&mut scratch);
            }
        }
    }
}
