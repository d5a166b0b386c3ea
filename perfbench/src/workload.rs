//! Workload inputs: datasets, request pools and exploration sessions.

use crate::stats::{median, SplitMix64};
use lcmsr_bench::{default_tgen_alpha, golden_workload, make_workload, ny_dataset};
use lcmsr_core::prelude::*;
use lcmsr_datagen::prelude::*;
use lcmsr_roadnet::geo::Rect;
use lcmsr_service::api::QueryRequest as WireRequest;
use std::time::{Duration, Instant};

/// Dataset builds timed per run, at least; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Builds continue past [`SETUP_REPEATS`] until this much time was spent, so
/// a millisecond build still yields a steady median.
const SETUP_MIN_S: f64 = 2.0;

/// Independent rects per `prepare-large` run, with per-rect costs spanning
/// 1.7–10.7 ms.  Its tail is read at p90 over the rects' best times, some
/// fifty rects, so one seed's draw moves it little; and a pass is short
/// enough (about 2.5 s) that a run makes several, each rect's best time
/// coming from calls spread over the run.
const PREPARE_POOL: usize = 512;

/// Rects of the fixed deadline pool of `solve-tiny`'s traced run.  One pass
/// over it (TGEN and APP per rect) takes about 6 s, because APP overruns its
/// deadline by up to 10×.
const DEADLINE_POOL: usize = 6;

/// The deadline of the deadline pool.
const DEADLINE: Duration = Duration::from_millis(200);

/// The deadline of an exploration session step.
const EXPLORE_DEADLINE: Duration = Duration::from_millis(100);

/// The seed the golden tiny-NY workload was rendered with; the fixed
/// deadline pool uses it too.
const FIXED_POOL_SEED: u64 = 2024;

/// An engine over a dataset that lives for the whole process (the service
/// needs `'static`), with the set-up times measured while building it.
pub struct Setup {
    /// The dataset.
    pub dataset: &'static Dataset,
    /// The engine over it.
    pub engine: &'static LcmsrEngine<'static>,
    /// Seconds per dataset build, one per repeat.
    pub build_s: Vec<f64>,
}

impl Setup {
    /// Builds the NY-like dataset at `scale` (keeping the last build) and
    /// leaks an engine over it.  With `timed` the build is repeated
    /// [`SETUP_REPEATS`] times, and more until [`SETUP_MIN_S`] has passed.
    pub fn build(scale: NetworkScale, timed: bool) -> Self {
        let mut build_s = Vec::new();
        let mut dataset = None;
        let start = Instant::now();
        while build_s.is_empty()
            || (timed
                && (build_s.len() < SETUP_REPEATS || start.elapsed().as_secs_f64() < SETUP_MIN_S))
        {
            // Drop the previous copy first, so the peak RSS is one dataset's.
            drop(dataset.take());
            let t = Instant::now();
            dataset = Some(ny_dataset(scale));
            build_s.push(t.elapsed().as_secs_f64());
        }
        let dataset: &'static Dataset = Box::leak(Box::new(dataset.expect("at least one build")));
        let engine = Box::leak(Box::new(LcmsrEngine::new(
            &dataset.network,
            &dataset.collection,
        )));
        Setup {
            dataset,
            engine,
            build_s,
        }
    }

    /// Median dataset build time, seconds.
    pub fn build_median_s(&self) -> f64 {
        median(&self.build_s)
    }

    /// `count` queries as `lcmsr_bench::make_workload` draws them with
    /// `seed`, at the dataset's default parameters.
    fn queries(&self, count: usize, seed: u64) -> Vec<LcmsrQuery> {
        let p = self.dataset.default_query_params(seed);
        make_workload(
            self.dataset,
            count,
            p.num_keywords,
            p.area_km2,
            p.delta_km,
            seed,
        )
    }
}

/// One request of a workload, replayable as a direct `execute`, a layer-by-
/// layer replay or a wire body.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Label; for `solve-tiny` the golden snapshot's line prefix
    /// (`TGEN q03 top3`).
    pub label: String,
    /// The query.
    pub query: LcmsrQuery,
    /// The algorithm with its parameters.
    pub algorithm: Algorithm,
    /// `Some(k)` for top-k.
    pub k: Option<usize>,
    /// Request deadline, armed when the request is built.
    pub deadline: Option<Duration>,
}

impl Spec {
    /// The engine request, with its deadline armed now.
    pub fn request(&self) -> QueryRequest<'_> {
        let mut request = QueryRequest::new(&self.query, self.algorithm.clone());
        if let Some(k) = self.k {
            request = request.top_k(k);
        }
        if let Some(d) = self.deadline {
            request = request.deadline(Deadline::after(d));
        }
        request
    }

    /// The same request on the wire, with the cache as given.
    pub fn wire(&self, cache: bool) -> WireRequest {
        let (algorithm, alpha) = match &self.algorithm {
            Algorithm::App(p) => ("app", Some(p.alpha)),
            Algorithm::Tgen(p) => ("tgen", Some(p.alpha)),
            Algorithm::Greedy(_) => ("greedy", None),
            Algorithm::Exact => ("exact", None),
        };
        WireRequest {
            algorithm: algorithm.to_string(),
            keywords: self.query.keywords.clone(),
            rect: self.query.region_of_interest,
            budget: self.query.delta,
            k: self.k,
            alpha,
            beta: None,
            mu: None,
            deadline_ms: self.deadline.map(|d| d.as_millis() as u64),
            priority: Some("interactive".to_string()),
            cache: Some(cache),
        }
    }
}

/// `solve-tiny`: the golden 32-query tiny-NY workload × {TGEN, APP, Greedy}
/// × {single, top-3}, in golden order, plus the TGEN α the snapshot used.
pub fn solve_tiny_specs(setup: &Setup) -> (Vec<Spec>, f64) {
    let queries = golden_workload(setup.dataset);
    let alpha = default_tgen_alpha(setup.dataset, &queries);
    let algorithms = [
        Algorithm::Tgen(TgenParams { alpha }),
        Algorithm::App(AppParams::default()),
        Algorithm::Greedy(GreedyParams::default()),
    ];
    let mut specs = Vec::new();
    for algorithm in &algorithms {
        for (qi, query) in queries.iter().enumerate() {
            for k in [None, Some(3)] {
                specs.push(Spec {
                    label: format!(
                        "{} q{qi:02} {}",
                        algorithm.name(),
                        if k.is_some() { "top3" } else { "single" }
                    ),
                    query: query.clone(),
                    algorithm: algorithm.clone(),
                    k,
                    deadline: None,
                });
            }
        }
    }
    (specs, alpha)
}

/// `prepare-large`: independent default-area rects drawn with `seed`,
/// Greedy single, no deadline.
pub fn prepare_large_specs(setup: &Setup, seed: u64) -> Vec<Spec> {
    setup
        .queries(PREPARE_POOL, seed)
        .into_iter()
        .enumerate()
        .map(|(i, query)| Spec {
            label: format!("Greedy r{i:03} single"),
            query,
            algorithm: Algorithm::Greedy(GreedyParams::default()),
            k: None,
            deadline: None,
        })
        .collect()
}

/// The deadline pool of `solve-tiny`'s traced run: the fixed medium-NY
/// rects, each once with TGEN and once with APP, every request under
/// [`DEADLINE`].
pub fn deadline_pool_specs(setup: &Setup) -> Vec<Spec> {
    let queries = setup.queries(DEADLINE_POOL, FIXED_POOL_SEED);
    let alpha = default_tgen_alpha(setup.dataset, &queries);
    let mut specs = Vec::new();
    for (qi, query) in queries.iter().enumerate() {
        for algorithm in [
            Algorithm::Tgen(TgenParams { alpha }),
            Algorithm::App(AppParams::default()),
        ] {
            specs.push(Spec {
                label: format!("{} q{qi:02} single", algorithm.name()),
                query: query.clone(),
                algorithm,
                k: None,
                deadline: Some(DEADLINE),
            });
        }
    }
    specs
}

/// A seeded order over `n` requests.
pub fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    SplitMix64::new(seed).shuffle(&mut order);
    order
}

/// Steps of one exploration session.
pub const SESSION_STEPS: usize = 10;

/// Shifts a rect by fractions of its own extent.
fn pan(rect: &Rect, dx: f64, dy: f64) -> Rect {
    let (w, h) = (rect.width(), rect.height());
    Rect::new(
        rect.min_x + dx * w,
        rect.min_y + dy * h,
        rect.max_x + dx * w,
        rect.max_y + dy * h,
    )
}

/// Scales a rect about its centre.
fn zoom(rect: &Rect, factor: f64) -> Rect {
    Rect::centered(rect.center(), rect.width() * factor, rect.height() * factor)
}

/// One user's exploration session: view → pans → zoom in/out → keyword
/// refine → revisits, Greedy under [`EXPLORE_DEADLINE`].  Pans move a
/// seeded 10–25 % of the view toward the side of `bounds` with more room;
/// the revisits repeat earlier steps exactly, which is what the response
/// cache serves.
fn session(base: &LcmsrQuery, bounds: &Rect, rng: &mut SplitMix64) -> Vec<Spec> {
    let full = base.keywords.clone();
    let refined: Vec<String> = full[..full.len().saturating_sub(1).max(1)].to_vec();
    let r0 = base.region_of_interest;
    let sx = if bounds.max_x - r0.max_x >= r0.min_x - bounds.min_x {
        1.0
    } else {
        -1.0
    };
    let sy = if bounds.max_y - r0.max_y >= r0.min_y - bounds.min_y {
        1.0
    } else {
        -1.0
    };
    let mut step = || 0.10 + 0.15 * rng.next_f64();
    let r1 = pan(&r0, sx * step(), 0.0);
    let r2 = pan(&r1, sx * step(), 0.0);
    let r3 = pan(&r2, 0.0, sy * step());
    let r4 = zoom(&r3, 0.7);
    let r5 = zoom(&r4, 1.3);
    let steps: [(&Vec<String>, Rect); SESSION_STEPS] = [
        (&full, r0),
        (&full, r1),
        (&full, r2),
        (&full, r3),
        (&full, r4),
        (&full, r5),
        (&refined, r5),
        (&full, r3),
        (&full, r1),
        (&full, r0),
    ];
    steps
        .iter()
        .enumerate()
        .map(|(i, (keywords, rect))| Spec {
            label: format!("step{i}"),
            query: LcmsrQuery::new((*keywords).clone(), base.delta, *rect)
                .expect("session rects keep the base query valid"),
            algorithm: Algorithm::Greedy(GreedyParams::default()),
            k: None,
            deadline: Some(EXPLORE_DEADLINE),
        })
        .collect()
}

/// `count` seeded exploration sessions, for `prepare-large`'s traced run.
/// Each is one user's trace, stepped in order, as the repository's `session`
/// bench models a user: the caller sends a session's steps one after
/// another, so overlapping steps find the previous step's scores on the
/// workspace the service reuses and delta-prepare.
pub fn explore_sessions(setup: &Setup, seed: u64, count: usize) -> Vec<Vec<Spec>> {
    let bounds = setup
        .dataset
        .network
        .bounding_rect()
        .expect("the network has nodes");
    let mut rng = SplitMix64::new(seed ^ 0x5E55_1015);
    setup
        .queries(count, seed)
        .iter()
        .map(|base| session(base, &bounds, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_revisit_earlier_steps() {
        let base = LcmsrQuery::new(
            ["cafe", "bar", "park"],
            1000.0,
            Rect::new(0.0, 0.0, 100.0, 100.0),
        )
        .unwrap();
        let bounds = Rect::new(-1000.0, -1000.0, 1000.0, 1000.0);
        let steps = session(&base, &bounds, &mut SplitMix64::new(1));
        assert_eq!(steps.len(), SESSION_STEPS);
        let key = |s: &Spec| format!("{:?}{:?}", s.query.keywords, s.query.region_of_interest);
        let distinct: std::collections::BTreeSet<String> = steps.iter().map(key).collect();
        assert_eq!(distinct.len(), 7, "three of ten steps are revisits");
    }

    #[test]
    fn seeded_order_is_deterministic_per_seed() {
        assert_eq!(seeded_order(20, 5), seeded_order(20, 5));
        assert_ne!(seeded_order(20, 5), seeded_order(20, 6));
    }
}
