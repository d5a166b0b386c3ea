//! Closed-loop direct workloads: one client calling `execute`, and the
//! traced run that replays each request layer by layer.

use crate::check::{golden_blocks, infeasible, render_golden, same_regions};
use crate::report::Report;
use crate::stats::{mean, percentile, sorted};
use crate::workload::Spec;
use lcmsr_core::app::run_app;
use lcmsr_core::cache::request_key;
use lcmsr_core::engine::SESSION_OVERLAP_THRESHOLD;
use lcmsr_core::greedy::run_greedy;
use lcmsr_core::prelude::*;
use lcmsr_core::tgen::run_tgen;
use lcmsr_core::topk::{topk_app, topk_greedy, topk_tgen};
use lcmsr_geotext::collection::NodeWeights;
use lcmsr_roadnet::geo::Rect;
use lcmsr_roadnet::subgraph::{RegionScratch, RegionView};
use lcmsr_service::api::{QueryRequest as WireRequest, QueryResponse};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Checks every outcome of a workload: the first answer to each request in
/// full (golden snapshot when given, feasibility), every later answer for
/// bit-identity with the first; deadlined answers for their partial flag
/// and feasibility.
pub struct Checker<'a> {
    engine: &'a LcmsrEngine<'a>,
    golden: Option<BTreeMap<String, String>>,
    first: Vec<Option<Vec<Region>>>,
}

impl<'a> Checker<'a> {
    /// A checker over `count` requests; `golden` compares first answers
    /// with the committed snapshot.
    pub fn new(engine: &'a LcmsrEngine<'a>, count: usize, golden: bool) -> Self {
        Checker {
            engine,
            golden: golden.then(golden_blocks),
            first: vec![None; count],
        }
    }

    /// The first answer recorded for request `i`.
    pub fn first(&self, i: usize) -> Option<&[Region]> {
        self.first[i].as_deref()
    }

    /// Checks `regions`, the answer to request `i`, recording any failure.
    pub fn check(&mut self, i: usize, spec: &Spec, outcome: &QueryOutcome, report: &mut Report) {
        let regions = &outcome.regions;
        if spec.deadline.is_some() {
            if outcome.stats.partial_cause != Some(PartialCause::DeadlineExceeded) {
                report.problem(format!(
                    "{}: answer under a {:?} deadline is not flagged deadline_exceeded",
                    spec.label, spec.deadline
                ));
            }
            self.check_feasible(spec, regions, report);
            return;
        }
        match &self.first[i] {
            Some(first) => {
                if !same_regions(first, regions) {
                    report.problem(format!("{}: answer differs from its first run", spec.label));
                }
            }
            None => {
                if let Some(blocks) = &self.golden {
                    let fresh = render_golden(&spec.label, spec.k.is_some(), regions);
                    if blocks.get(&spec.label) != Some(&fresh) {
                        report.problem(format!("{}: differs from the golden snapshot", spec.label));
                    }
                }
                self.check_feasible(spec, regions, report);
                self.first[i] = Some(regions.clone());
            }
        }
    }

    fn check_feasible(&self, spec: &Spec, regions: &[Region], report: &mut Report) {
        for region in regions {
            if let Some(why) = infeasible(self.engine.network(), &spec.query, region) {
                report.problem(format!("{}: infeasible region: {why}", spec.label));
            }
        }
    }
}

/// Samples of an untraced closed-loop run.
#[derive(Debug, Default)]
pub struct ClosedRun {
    /// Each request's fastest `execute` over the run's passes, ms.
    pub best_ms: Vec<f64>,
    /// Whole passes run.
    pub passes: usize,
}

/// Runs whole passes over `order` until `seconds` have passed and at least
/// `min_passes` passes ran, keeping each request's fastest `execute`.  The
/// host this runs on has slow spells of tens of seconds in which every call
/// takes up to 1.6× longer; a request's best of several passes spread over
/// the run is what the code costs outside them, while a whole-run median
/// moves with how much of the run such a spell covered.  Checks run between
/// calls.
pub fn closed_loop(
    engine: &LcmsrEngine<'_>,
    specs: &[Spec],
    order: &[usize],
    seconds: f64,
    min_passes: usize,
    checker: &mut Checker<'_>,
    report: &mut Report,
) -> ClosedRun {
    let mut run = ClosedRun {
        best_ms: vec![f64::INFINITY; specs.len()],
        passes: 0,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || run.passes < min_passes {
        run.passes += 1;
        for &i in order {
            let spec = &specs[i];
            let request = spec.request();
            report.attempted += 1;
            let t = Instant::now();
            let outcome = engine.execute(black_box(&request));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match outcome {
                Ok(outcome) => {
                    run.best_ms[i] = run.best_ms[i].min(ms);
                    checker.check(i, spec, &outcome, report);
                }
                Err(e) => {
                    report.problem(format!("{}: execute failed: {e}", spec.label));
                }
            }
        }
    }
    run
}

/// The previous step of a session, as a cache-mode `QueryWorkspace` keeps
/// it for the next step's delta prepare.
struct SessionStep {
    keywords: Vec<String>,
    rect: Rect,
    weights: NodeWeights,
}

/// Scratch the replay owns, mirroring a `QueryWorkspace`.
pub struct ReplayScratch {
    weights: NodeWeights,
    region: RegionScratch,
    builder: QueryGraphBuilder,
    arena: TupleArena,
    tracer: TraceCollector,
    /// `Some` when requests are session steps: the previous step, if any.
    session: Option<Option<SessionStep>>,
}

impl ReplayScratch {
    /// Fresh scratch; with `sessions` each replay scores its rect as a delta
    /// from the previous replay's wherever a cache-mode `execute` would.
    pub fn new(sessions: bool) -> Self {
        ReplayScratch {
            weights: NodeWeights::default(),
            region: RegionScratch::new(),
            builder: QueryGraphBuilder::new(),
            arena: TupleArena::new(),
            tracer: TraceCollector::disabled(),
            session: sessions.then_some(None),
        }
    }

    /// Forgets the previous session step.
    fn end_session(&mut self) {
        if let Some(previous) = &mut self.session {
            *previous = None;
        }
    }
}

/// Fraction of `new`'s area `old` covers, as the engine decides delta
/// prepares.
fn overlap(old: &Rect, new: &Rect) -> f64 {
    old.intersection(new).map_or(0.0, |i| i.area()) / new.area()
}

/// One request replayed layer by layer: each layer's self time (µs), the
/// sizes it worked on and the arena counters it moved.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    /// `query_vector` + `node_weights_into`, or `node_weights_delta_into`
    /// when `delta`.
    pub grid_us: f64,
    /// Whether the scores were delta-built from the previous session step.
    pub delta: bool,
    /// `RegionView::new_reusing`.
    pub view_us: f64,
    /// `QueryGraphBuilder::build`.
    pub build_us: f64,
    /// The solver call.
    pub solve_us: f64,
    /// `Region::from_tuple` over the answer.
    pub translate_us: f64,
    /// Relevant (scored) nodes.
    pub scored_nodes: f64,
    /// Nodes in `Q.Λ`.
    pub nodes: f64,
    /// Edges in `Q.Λ`.
    pub edges: f64,
    /// Arena allocations, free-list hits and top rollbacks during the solve.
    pub arena: (u64, u64, u64),
}

impl LayerSample {
    /// Sum of the layers' self times.
    pub fn layers_us(&self) -> f64 {
        self.grid_us + self.view_us + self.build_us + self.solve_us + self.translate_us
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replays `spec` through the public calls `execute` makes for a request
/// that misses the response cache, timing each call.  The regions are those
/// `execute` returns, bit for bit, unless a deadline cuts the solve at
/// another point.
pub fn replay(
    engine: &LcmsrEngine<'_>,
    scratch: &mut ReplayScratch,
    spec: &Spec,
) -> LcmsrResult<(Vec<Region>, LayerSample)> {
    let query = &spec.query;
    let ctl = spec
        .deadline
        .map_or_else(CancelToken::none, |d| Deadline::after(d).token());
    let mut s = LayerSample::default();

    let rect = query.region_of_interest;
    let previous = scratch
        .session
        .as_ref()
        .and_then(Option::as_ref)
        .filter(|p| {
            p.keywords == query.keywords && overlap(&p.rect, &rect) >= SESSION_OVERLAP_THRESHOLD
        });
    s.delta = previous.is_some();
    let t = Instant::now();
    let q = engine.collection().query_vector(&query.keywords);
    match previous {
        Some(p) => {
            engine.collection().node_weights_delta_into(
                &q,
                &p.rect,
                &rect,
                &p.weights,
                &mut scratch.weights,
            );
        }
        None => engine
            .collection()
            .node_weights_into(&q, &rect, &mut scratch.weights),
    }
    s.grid_us = us(t);
    s.scored_nodes = scratch.weights.relevant_node_count() as f64;
    if let Some(step) = &mut scratch.session {
        *step = Some(SessionStep {
            keywords: query.keywords.clone(),
            rect,
            weights: scratch.weights.clone(),
        });
    }

    let t = Instant::now();
    let view = RegionView::new_reusing(engine.network(), rect, &mut scratch.region);
    s.view_us = us(t);
    s.nodes = view.node_count() as f64;
    s.edges = view.edge_count() as f64;

    let alpha = match &spec.algorithm {
        Algorithm::App(p) => p.alpha,
        Algorithm::Tgen(p) => p.alpha,
        Algorithm::Greedy(_) => 1.0,
        Algorithm::Exact => 1e-6,
    };
    let t = Instant::now();
    let built = scratch
        .builder
        .build(&view, &scratch.weights, query.delta, alpha);
    s.build_us = us(t);
    view.recycle(&mut scratch.region);
    let graph = built?;

    scratch.arena.reset();
    let before = scratch.arena.stats();
    let arena = &mut scratch.arena;
    let tracer = &mut scratch.tracer;
    let t = Instant::now();
    let tuples = match (&spec.algorithm, spec.k) {
        (Algorithm::App(p), None) => run_app(&graph, arena, p, &ctl, tracer)?
            .best
            .into_iter()
            .collect(),
        (Algorithm::Tgen(p), None) => run_tgen(&graph, arena, p, &ctl, tracer)?
            .best
            .into_iter()
            .collect(),
        (Algorithm::Greedy(p), None) => run_greedy(&graph, arena, p, &ctl, tracer)?
            .best
            .into_iter()
            .collect(),
        (Algorithm::App(p), Some(k)) => topk_app(&graph, arena, p, k, &ctl, tracer)?.tuples,
        (Algorithm::Tgen(p), Some(k)) => topk_tgen(&graph, arena, p, k, &ctl, tracer)?.tuples,
        (Algorithm::Greedy(p), Some(k)) => topk_greedy(&graph, arena, p, k, &ctl, tracer)?.tuples,
        (Algorithm::Exact, _) => Vec::new(),
    };
    s.solve_us = us(t);
    let after = scratch.arena.stats();
    s.arena = (
        after.allocs - before.allocs,
        after.free_list_hits - before.free_list_hits,
        after.top_rollbacks - before.top_rollbacks,
    );

    let t = Instant::now();
    let regions: Vec<Region> = tuples
        .iter()
        .map(|tuple| Region::from_tuple(&graph, &scratch.arena, tuple))
        .collect();
    s.translate_us = us(t);
    scratch.builder.recycle(graph);
    Ok((regions, s))
}

/// Everything a traced run measures per request.
#[derive(Debug, Clone)]
pub struct TracedSample {
    /// Which request.
    pub spec: usize,
    /// Untraced `execute` time, µs.
    pub execute_us: f64,
    /// The engine's own counters for that call.
    pub stats: RunStats,
    /// Best-region weight of the answer.
    pub weight: f64,
    /// The replay's layer times.
    pub layers: LayerSample,
    /// `QueryRequest::from_body` on the request's wire body, µs.
    pub decode_us: f64,
    /// `QueryResponse::to_body` on the answer, µs.
    pub encode_us: f64,
    /// `request_key` + `ResponseCache::lookup`, µs.
    pub lookup_us: f64,
}

/// The samples of a traced run.
#[derive(Debug, Default)]
pub struct TracedRun {
    /// One per request of the traced passes.
    pub samples: Vec<TracedSample>,
    /// `execute` time per request of the plain passes, µs.
    pub plain_execute_us: Vec<f64>,
}

/// The traced run: whole passes over `order` until `seconds` have passed,
/// alternating a plain pass (`execute` alone) with a traced pass (for each
/// request an untraced `execute`, then the layer-by-layer replay, then the
/// codec and cache calls the service would add), at least one of each.
/// Replayed regions must equal `execute`'s for every request without a
/// deadline.
///
/// With `sessions` the requests are exploration-session steps in order:
/// `execute` runs in cache mode on a workspace of the run's own, with the
/// response cache emptied before each call so every step misses it and
/// delta-prepares from the previous step where the engine would; the replay
/// must decide the same.
pub fn traced_loop(
    engine: &LcmsrEngine<'_>,
    specs: &[Spec],
    order: &[usize],
    seconds: f64,
    sessions: bool,
    checker: &mut Checker<'_>,
    report: &mut Report,
) -> TracedRun {
    let bodies: Vec<String> = specs.iter().map(|s| s.wire(false).to_body()).collect();
    let mut scratch = ReplayScratch::new(sessions);
    let mut workspace = QueryWorkspace::new();
    let mut run = TracedRun::default();
    let start = Instant::now();
    let mut passes = 0;
    while passes < 2 || start.elapsed().as_secs_f64() < seconds {
        let traced = passes % 2 == 1;
        passes += 1;
        if sessions {
            // A new pass starts new sessions, in the engine and the replay.
            workspace = QueryWorkspace::new();
            scratch.end_session();
        }
        for &i in order {
            let spec = &specs[i];
            report.attempted += 1;
            let request = spec.request().cache(sessions);
            if sessions {
                engine.response_cache().clear();
            }
            let t = Instant::now();
            let outcome = engine.execute_with(&mut workspace, &request);
            let execute_us = us(t);
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    report.problem(format!("{}: execute failed: {e}", spec.label));
                    continue;
                }
            };
            checker.check(i, spec, &outcome, report);
            if !traced {
                run.plain_execute_us.push(execute_us);
                continue;
            }
            let layers = match replay(engine, &mut scratch, spec) {
                Ok((regions, layers)) => {
                    if spec.deadline.is_none() && !same_regions(&regions, &outcome.regions) {
                        report
                            .problem(format!("{}: layer replay differs from execute", spec.label));
                    }
                    if sessions && layers.delta != outcome.stats.delta_prepare {
                        report.problem(format!(
                            "{}: replay delta prepare {} but execute {}",
                            spec.label, layers.delta, outcome.stats.delta_prepare
                        ));
                    }
                    layers
                }
                Err(e) => {
                    report.problem(format!("{}: layer replay failed: {e}", spec.label));
                    continue;
                }
            };

            let t = Instant::now();
            let decoded = WireRequest::from_body(black_box(&bodies[i]));
            let decode_us = us(t);
            if decoded.is_err() {
                report.problem(format!("{}: wire body does not decode", spec.label));
            }
            let response = match spec.k {
                None => QueryResponse::from_single(&outcome.clone().into_single()),
                Some(_) => QueryResponse::from_topk(&outcome.clone().into_topk()),
            };
            let t = Instant::now();
            black_box(response.to_body());
            let encode_us = us(t);
            let t = Instant::now();
            let key = request_key(&request);
            black_box(engine.response_cache().lookup(&key, engine.dataset_epoch()));
            let lookup_us = us(t);

            run.samples.push(TracedSample {
                spec: i,
                execute_us,
                weight: outcome.best().map_or(0.0, |r| r.weight),
                stats: outcome.stats,
                layers,
                decode_us,
                encode_us,
                lookup_us,
            });
        }
    }
    run
}

/// p50 of a per-sample figure.
fn p50(samples: &[TracedSample], f: impl Fn(&TracedSample) -> f64) -> f64 {
    percentile(&sorted(&samples.iter().map(f).collect::<Vec<_>>()), 50.0)
}

/// Mean of a per-sample figure.
fn mean_of(samples: &[TracedSample], f: impl Fn(&TracedSample) -> f64) -> f64 {
    mean(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Records the per-layer metrics of a traced run: layer self times, the
/// solver, arena, cancel and cache counters, the codec and cache call costs,
/// how much of `execute` the layers account for, and how much slower
/// `execute` ran in the traced passes than in the plain ones.
pub fn report_layers(run: &TracedRun, specs: &[Spec], report: &mut Report) {
    let samples = &run.samples[..];
    let n = samples.len().max(1) as f64;
    let note = format!("p50 of {} calls", samples.len());
    let (delta, cold): (Vec<&TracedSample>, Vec<&TracedSample>) =
        samples.iter().partition(|s| s.layers.delta);
    for (name, part) in [
        ("geotext.grid_score_us", &cold),
        ("geotext.delta_score_us", &delta),
    ] {
        let times = sorted(&part.iter().map(|s| s.layers.grid_us).collect::<Vec<_>>());
        report.set_noted(
            name,
            percentile(&times, 50.0),
            format!("p50 of {} calls", times.len()),
        );
    }
    report.set(
        "geotext.scored_nodes",
        mean_of(samples, |s| s.layers.scored_nodes),
    );
    report.set_noted(
        "roadnet.region_view_us",
        p50(samples, |s| s.layers.view_us),
        note.clone(),
    );
    let nodes = sorted(&samples.iter().map(|s| s.layers.nodes).collect::<Vec<_>>());
    report.set_noted(
        "roadnet.nodes_in_rect",
        mean(&nodes),
        format!(
            "mean; |V_Q| {}..{}",
            nodes.first().unwrap_or(&0.0),
            nodes.last().unwrap_or(&0.0)
        ),
    );
    report.set(
        "roadnet.edges_in_rect",
        mean_of(samples, |s| s.layers.edges),
    );
    report.set_noted(
        "query_graph.build_us",
        p50(samples, |s| s.layers.build_us),
        note.clone(),
    );
    let solve = sorted(
        &samples
            .iter()
            .map(|s| s.layers.solve_us)
            .collect::<Vec<_>>(),
    );
    report.set_noted("solve.solve_us", percentile(&solve, 50.0), note.clone());
    report.set_noted(
        "solve.solve_p99_us",
        percentile(&solve, 99.0),
        format!("n={}", solve.len()),
    );
    report.set_noted(
        "region.translate_us",
        p50(samples, |s| s.layers.translate_us),
        note.clone(),
    );

    // Solver time split by algorithm (single-region calls) and top-k calls.
    let total_solve: f64 = solve.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let share = |pred: &dyn Fn(&Spec) -> bool| {
        100.0
            * samples
                .iter()
                .filter(|s| pred(&specs[s.spec]))
                .map(|s| s.layers.solve_us)
                .fold(0.0, |a, b| a + b)
            / total_solve
    };
    let single = |s: &Spec, name: &str| s.k.is_none() && s.algorithm.name() == name;
    report.set("tgen.solve_share", share(&|s| single(s, "TGEN")));
    report.set("app.solve_share", share(&|s| single(s, "APP")));
    report.set("greedy.solve_share", share(&|s| single(s, "Greedy")));
    report.set("topk.solve_share", share(&|s| s.k.is_some()));

    // Solver counters, as `RunStats` reports them, per call of the solver.
    let of = |name: &str| -> Vec<&RunStats> {
        samples
            .iter()
            .filter(|s| specs[s.spec].algorithm.name() == name)
            .map(|s| &s.stats)
            .collect()
    };
    let per_call = |stats: &[&RunStats], f: &dyn Fn(&RunStats) -> u64| {
        stats.iter().fold(0.0, |a, s| a + f(s) as f64) / stats.len().max(1) as f64
    };
    let tgen = of("TGEN");
    report.set(
        "tgen.tuples_generated",
        per_call(&tgen, &|s| s.tuples_generated),
    );
    report.set("tgen.pruned_pairs", per_call(&tgen, &|s| s.pruned_pairs));
    report.set(
        "tgen.dominance_evictions",
        per_call(&tgen, &|s| s.dominance_evictions),
    );
    report.set("tgen.frontier_peak", per_call(&tgen, &|s| s.frontier_peak));
    let generated = per_call(&tgen, &|s| s.tuples_generated);
    report.set(
        "tgen.kept_ratio",
        if generated > 0.0 {
            per_call(&tgen, &|s| s.frontier_tuples) / generated
        } else {
            0.0
        },
    );
    let app = of("APP");
    report.set("app.kmst_calls", per_call(&app, &|s| s.kmst_calls));
    report.set(
        "app.tuples_generated",
        per_call(&app, &|s| s.tuples_generated),
    );
    report.set("app.pruned_pairs", per_call(&app, &|s| s.pruned_pairs));
    report.set("greedy.steps", per_call(&of("Greedy"), &|s| s.greedy_steps));

    let (allocs, hits, rollbacks) = samples.iter().fold((0, 0, 0), |acc, s| {
        (
            acc.0 + s.layers.arena.0,
            acc.1 + s.layers.arena.1,
            acc.2 + s.layers.arena.2,
        )
    });
    report.set("arena.allocs", allocs as f64 / n);
    report.set(
        "arena.reuse_ratio",
        if allocs > 0 {
            (hits + rollbacks) as f64 / allocs as f64
        } else {
            0.0
        },
    );

    report_cancel(
        samples.iter().map(|s| Answer {
            algorithm: specs[s.spec].algorithm.name(),
            deadline: specs[s.spec].deadline,
            ms: s.execute_us / 1e3,
            partial: s.stats.partial,
            weight: s.weight,
        }),
        report,
    );

    let hits = samples.iter().filter(|s| s.stats.cache_hit).count() as f64;
    let stale = samples.iter().filter(|s| s.stats.cache_stale).count() as f64;
    let delta = samples.iter().filter(|s| s.stats.delta_prepare).count() as f64;
    report.set("cache.hit_ratio", hits / n);
    report.set("cache.stale", stale);
    report.set("cache.delta_prepare_ratio", delta / (n - hits).max(1.0));
    report.set_noted(
        "cache.lookup_us",
        p50(samples, |s| s.lookup_us),
        note.clone(),
    );
    report.set_noted("api.decode_us", p50(samples, |s| s.decode_us), note.clone());
    report.set_noted("api.encode_us", p50(samples, |s| s.encode_us), note.clone());
    report.set_noted("engine.execute_us", p50(samples, |s| s.execute_us), note);

    let execute: f64 = samples.iter().map(|s| s.execute_us).sum();
    let layers: f64 = samples.iter().map(|s| s.layers.layers_us()).sum();
    report.set("engine.unattributed_frac", 1.0 - layers / execute);
    let plain = percentile(&sorted(&run.plain_execute_us), 50.0);
    report.set_noted(
        "trace.overhead_frac",
        p50(samples, |s| s.execute_us) / plain - 1.0,
        format!(
            "execute p50, traced passes over plain ({} calls)",
            run.plain_execute_us.len()
        ),
    );
}

/// One answered request as the cancel layer sees it.
pub struct Answer {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Its deadline, if any.
    pub deadline: Option<Duration>,
    /// Response time, ms.
    pub ms: f64,
    /// Whether a deadline or cancellation cut it short.
    pub partial: bool,
    /// Best-region weight (0 for no region).
    pub weight: f64,
}

/// Records the `cancel.*` metrics: response time over deadline, p50,
/// overall and for TGEN and APP; the share of answers cut short; and the
/// mean best-region weight of those answers (the anytime quality).  A
/// workload without deadlines reads 0.
pub fn report_cancel(answers: impl Iterator<Item = Answer>, report: &mut Report) {
    let mut all = Vec::new();
    let mut by_algo: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut cut = Vec::new();
    let mut n = 0usize;
    for Answer {
        algorithm: algo,
        deadline,
        ms,
        partial,
        weight,
    } in answers
    {
        n += 1;
        if partial {
            cut.push(weight);
        }
        if let Some(d) = deadline {
            let x = ms / (d.as_secs_f64() * 1e3);
            all.push(x);
            by_algo.entry(algo).or_default().push(x);
        }
    }
    let p50x = |name: &'static str, v: &[f64], report: &mut Report| {
        let v = sorted(v);
        let note = match (v.first(), v.last()) {
            (Some(lo), Some(hi)) => format!("p50 of n={}; range {lo:.3}..{hi:.3}", v.len()),
            _ => "no deadlined request".to_string(),
        };
        report.set_noted(name, percentile(&v, 50.0), note);
    };
    p50x("cancel.overrun_x", &all, report);
    for (name, key) in [
        ("cancel.tgen_overrun_x", "TGEN"),
        ("cancel.app_overrun_x", "APP"),
    ] {
        p50x(
            name,
            by_algo.get(key).map_or(&[][..], Vec::as_slice),
            report,
        );
    }
    report.set("cancel.partial_frac", cut.len() as f64 / n.max(1) as f64);
    report.set_noted(
        "cancel.answer_weight_mean",
        mean(&cut),
        format!("n={}", cut.len()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{solve_tiny_specs, Setup};
    use lcmsr_datagen::prelude::NetworkScale;

    #[test]
    fn closed_loop_keeps_each_requests_best_over_whole_passes() {
        let setup = Setup::build(NetworkScale::Tiny, false);
        let (specs, _) = solve_tiny_specs(&setup);
        let specs = &specs[..4];
        let order = [3, 1, 0, 2];
        let mut checker = Checker::new(setup.engine, specs.len(), false);
        let mut report = Report::default();
        let run = closed_loop(
            setup.engine,
            specs,
            &order,
            0.0,
            3,
            &mut checker,
            &mut report,
        );
        assert_eq!(run.passes, 3, "whole passes, at least the minimum");
        assert_eq!(report.attempted, 12);
        assert!(report.correct());
        assert_eq!(run.best_ms.len(), specs.len());
        assert!(run.best_ms.iter().all(|&b| b.is_finite() && b > 0.0));
    }
}
