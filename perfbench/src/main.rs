//! `lcmsr-perfbench`: the repository's benchmark of exploration queries,
//! end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload (so its peak RSS is that workload's).
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! benchmark's clock around each request; `--trace 1` is the separate traced
//! run that times every layer's public calls from here, and also drives the
//! layers the closed loops leave idle: a deadline pool for the cancel layer,
//! exploration sessions over HTTP for the cache and service.  Every output is
//! checked; the last line of standard output is the result as JSON, and a
//! failed check exits with code 1.

mod check;
mod direct;
mod report;
mod served;
mod stats;
mod workload;

use check::GOLDEN;
use direct::{closed_loop, report_cancel, report_layers, traced_loop, Answer, Checker};
use lcmsr_core::prelude::*;
use lcmsr_datagen::prelude::NetworkScale;
use lcmsr_service::api::StatsDto;
use report::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use served::{closed_sample, open_loop, schedule, scrape, Exchange, Phase};
use stats::{mean, percentile, sorted, tail};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::{Setup, Spec, SESSION_STEPS};

/// Seconds after which a run gives up without a result (runs take at most
/// about 90 s at the committed settings).
const WATCHDOG_S: u64 = 170;

const USAGE: &str =
    "usage: lcmsr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    // A wedged engine or server must not hang the run: give up after
    // WATCHDOG_S.  The thread is never joined; it ends with the process.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_S));
        eprintln!("no result after {WATCHDOG_S} s; giving up");
        std::process::exit(3);
    });
    let mut report = Report::default();
    direct_workload(&args, &mut report);
    if !args.trace {
        report.set("peak_rss_mib", peak_rss_mib());
    }
    report.emit(if args.trace { &PER_LAYER } else { &END_TO_END });
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Records `latency_p50_ms` and `latency_tail_ms` (the highest percentile,
/// at most p99, with ten samples beyond it) over each request's best of
/// `tries` timings.
fn report_latency(best_ms: &[f64], tries: usize, report: &mut Report) {
    let s = sorted(best_ms);
    report.set_noted(
        "latency_p50_ms",
        percentile(&s, 50.0),
        format!("p50 of n={} requests, each its best of {tries}", s.len()),
    );
    match tail(&s, 99.0) {
        Some(t) => report.set_noted(
            "latency_tail_ms",
            t.value,
            format!("p{} of n={} requests, each its best of {tries}", t.pct, t.n),
        ),
        None => report.problem(format!("{} latency samples support no percentile", s.len())),
    }
}

/// Whole passes every direct run makes at least, so that each request's
/// best time is a best of several calls spread over the run.
const MIN_PASSES: usize = 5;

/// `solve-tiny` and `prepare-large`: one client calling `execute` in a
/// closed loop.
fn direct_workload(args: &Args, report: &mut Report) {
    let solve_tiny = args.workload == "solve-tiny";
    let setup = Setup::build(
        if solve_tiny {
            NetworkScale::Tiny
        } else {
            NetworkScale::Large
        },
        !args.trace,
    );
    let specs = if solve_tiny {
        let (specs, alpha) = workload::solve_tiny_specs(&setup);
        let header = GOLDEN.lines().next().unwrap_or_default();
        if !header.ends_with(&format!("tgen_alpha={:016x}", alpha.to_bits())) {
            report.problem(format!("golden header {header:?} has another TGEN α"));
        }
        specs
    } else {
        workload::prepare_large_specs(&setup, args.seed)
    };
    let order = workload::seeded_order(specs.len(), args.seed);
    let engine = setup.engine;
    let mut checker = Checker::new(engine, specs.len(), solve_tiny);
    println!(
        "{} requests per pass, {} nodes, {} objects",
        specs.len(),
        engine.network().node_count(),
        engine.collection().len()
    );
    if !args.trace {
        let run = closed_loop(
            engine,
            &specs,
            &order,
            args.seconds,
            MIN_PASSES,
            &mut checker,
            report,
        );
        report.set_noted(
            "setup_s",
            setup.build_median_s(),
            format!("median of {} dataset builds", setup.build_s.len()),
        );
        report_latency(&run.best_ms, run.passes, report);
        let best_s: f64 = run.best_ms.iter().sum::<f64>() / 1e3;
        report.set_noted(
            "throughput_qps",
            run.best_ms.len() as f64 / best_s.max(1e-9),
            format!("one pass at each request's best of {}", run.passes),
        );
        return;
    }
    report.set("datagen.dataset_build_s", setup.build_s[0]);
    let run = traced_loop(
        engine,
        &specs,
        &order,
        args.seconds,
        false,
        &mut checker,
        report,
    );
    report_layers(&run, &specs, report);

    // The service layers, on one pass of the same requests over loopback.
    let (handle, start_s) = served::start(engine);
    report.set("service.start_s", start_s);
    let exchanges = serve_and_check(&handle, &specs, &order, &checker, report);
    report_service(&exchanges, &scrape(handle.addr()), report);
    report_loadgen(&exchanges, &[], None, report);
    handle.shutdown();

    if solve_tiny {
        deadline_pool(args.seed, report);
    } else {
        explore(&setup, args.seed, report);
    }
}

/// The cancel layer, in `solve-tiny`'s traced run: the fixed medium-NY pool,
/// TGEN and APP under a 200 ms deadline that every request exceeds, run
/// directly (traced) and once over loopback.  Its `cancel.*` figures replace
/// those of the undeadlined tiny requests, which read 0.
fn deadline_pool(seed: u64, report: &mut Report) {
    let setup = Setup::build(NetworkScale::Medium, false);
    let engine = setup.engine;
    let specs = workload::deadline_pool_specs(&setup);
    let order = workload::seeded_order(specs.len(), seed);
    println!(
        "deadline pool: {} requests per pass, {} nodes, {} objects",
        specs.len(),
        engine.network().node_count(),
        engine.collection().len()
    );
    let mut checker = Checker::new(engine, specs.len(), false);
    let run = traced_loop(engine, &specs, &order, 0.0, false, &mut checker, report);
    report_cancel(
        run.samples.iter().map(|s| Answer {
            algorithm: specs[s.spec].algorithm.name(),
            deadline: specs[s.spec].deadline,
            ms: s.execute_us / 1e3,
            partial: s.stats.partial,
            weight: s.weight,
        }),
        report,
    );
    let (handle, _) = served::start(engine);
    serve_and_check(&handle, &specs, &order, &checker, report);
    handle.shutdown();
}

/// Serves one pass of `specs` over loopback with one client.  One client
/// leaves nothing to shed, so every answer must be a 200: in full and equal
/// to `execute`'s without a deadline, flagged `deadline_exceeded` with one.
fn serve_and_check(
    handle: &lcmsr_service::ServiceHandle,
    specs: &[Spec],
    order: &[usize],
    checker: &Checker<'_>,
    report: &mut Report,
) -> Vec<Exchange> {
    let bodies: Vec<String> = specs.iter().map(|s| s.wire(false).to_body()).collect();
    let exchanges = closed_sample(handle.addr(), &bodies, order);
    for e in &exchanges {
        report.attempted += 1;
        let spec = &specs[e.request];
        let Some(response) = e.response.as_ref().filter(|_| e.status == 200) else {
            report.problem(format!("{}: served status {}", spec.label, e.status));
            continue;
        };
        let stats = &response.stats;
        if spec.deadline.is_some() {
            if stats.partial_cause.as_deref() != Some("deadline_exceeded") {
                report.problem(format!(
                    "{}: served answer under a deadline is not flagged deadline_exceeded",
                    spec.label
                ));
            }
        } else if stats.partial {
            report.problem(format!("{}: served answer is partial", spec.label));
        } else {
            let direct = checker.first(e.request).unwrap_or_default();
            if !check::same_served(&response.regions, direct) {
                report.problem(format!(
                    "{}: served regions differ from execute",
                    spec.label
                ));
            }
        }
    }
    exchanges
}

/// Records the scheduler and HTTP layer metrics of served exchanges: wire
/// `queue_ns`, the time neither queue nor engine accounts for, and the
/// batch and shed counters of `/metrics`.
fn report_service(exchanges: &[Exchange], metrics: &BTreeMap<String, f64>, report: &mut Report) {
    let answered: Vec<_> = exchanges
        .iter()
        .filter_map(|e| Some((e, e.response.as_ref()?)))
        .collect();
    let queue: Vec<f64> = answered
        .iter()
        .map(|(_, r)| r.stats.queue_ns as f64 / 1e6)
        .collect();
    let overhead: Vec<f64> = answered
        .iter()
        .map(|(e, r)| e.client_ms - (r.stats.queue_ns + r.stats.elapsed_ns) as f64 / 1e6)
        .collect();
    let note = format!("p50 of n={}", answered.len());
    report.set_noted(
        "scheduler.queue_ms",
        percentile(&sorted(&queue), 50.0),
        note.clone(),
    );
    report.set_noted(
        "http.overhead_ms",
        percentile(&sorted(&overhead), 50.0),
        note,
    );
    let get = |k: &str| metrics.get(k).copied().unwrap_or(0.0);
    report.set("scheduler.mean_batch_size", get("lcmsr_mean_batch_size"));
    report.set(
        "scheduler.shed",
        get("lcmsr_shed_total") + get("lcmsr_deadline_shed_total"),
    );
}

/// Records the load generator's own figures; `phases` is empty for a
/// closed loop, whose schedule has no lateness, rate ladder or SLO.  An
/// answer cut by its deadline counts as ok here (`cancel.partial_frac`
/// counts it).
fn report_loadgen(
    exchanges: &[Exchange],
    phases: &[(Phase, Vec<&Exchange>)],
    slo_rate: Option<f64>,
    report: &mut Report,
) {
    let ok = exchanges.iter().filter(|e| e.response.is_some()).count();
    report.set("loadgen.sent", exchanges.len() as f64);
    report.set("loadgen.ok", ok as f64);
    report.set("loadgen.failed", (exchanges.len() - ok) as f64);
    let late = exchanges.iter().filter(|e| e.late_ms > 1.0).count();
    report.set_noted(
        "loadgen.late_share",
        100.0 * late as f64 / exchanges.len().max(1) as f64,
        format!(
            "sent > 1 ms after due; p99 late {:.3} ms",
            percentile(
                &sorted(&exchanges.iter().map(|e| e.late_ms).collect::<Vec<_>>()),
                99.0
            )
        ),
    );
    report.set("loadgen.slo_rate_qps", slo_rate.unwrap_or(0.0));
    let tails: Vec<f64> = phases.iter().map(|(_, p)| phase_tail(p)).collect();
    let slowdown = |i: usize| match (tails.first(), tails.get(i)) {
        (Some(&low), Some(&t)) if low > 0.0 => t / low,
        _ => 0.0,
    };
    report.set("loadgen.mid_slowdown_x", slowdown(1));
    report.set("loadgen.high_slowdown_x", slowdown(2));
}

/// Latency per exchange, a failure counting as infinitely slow (it misses
/// any latency limit).
fn latencies(exchanges: &[&Exchange]) -> Vec<f64> {
    exchanges
        .iter()
        .map(|e| if e.ok() { e.latency_ms } else { f64::INFINITY })
        .collect()
}

/// The tail latency of one phase.
fn phase_tail(exchanges: &[&Exchange]) -> f64 {
    tail(&sorted(&latencies(exchanges)), 99.0).map_or(f64::INFINITY, |t| t.value)
}

/// The rate ladder of the exploration sessions: the lowest rate for 60 % of
/// [`LADDER_S`], then two higher rates for 20 % each.  The top rate loads the
/// scheduler (its phase tail is about twice the lowest rate's) but stays
/// clear of what two closed-loop clients completed on a 2-vCPU VM (205–314
/// q/s): at 180 q/s requests queued at the client for up to 100 ms in a slow
/// spell of the host, close to the 100 ms deadline whose cut fails the run.
fn ladder() -> [Phase; 3] {
    [(60.0, 0.6), (100.0, 0.2), (140.0, 0.2)].map(|(rate, share)| Phase {
        rate,
        seconds: LADDER_S * share,
    })
}

/// Length of the rate ladder, seconds: 840 requests, 84 sessions.
const LADDER_S: f64 = 10.0;

/// The SLO: the phase tail latency bound, ms.
const SLO_MS: f64 = 100.0;

/// The served session layers, in `prepare-large`'s traced run: the service
/// on a loopback port under seeded exploration sessions over the same large
/// dataset, open loop over a rate ladder.  Each session is one user stepping
/// in order, as in the repository's `session` bench: the ladder's arrivals
/// walk through the sessions one after another, so overlapping steps
/// delta-prepare and revisits hit the response cache.  Its cache, delta
/// scoring, scheduler, HTTP and load generator figures replace those of the
/// cache-off direct requests.
fn explore(setup: &Setup, seed: u64, report: &mut Report) {
    let engine = setup.engine;
    engine.response_cache().clear();
    let (handle, start_s) = served::start(engine);
    report.set("service.start_s", start_s);
    let addr = handle.addr();
    let phases = ladder();
    let due = schedule(&phases, seed);
    let connections = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let sessions = workload::explore_sessions(setup, seed, due.len().div_ceil(SESSION_STEPS));
    let stream: Vec<Spec> = sessions.into_iter().flatten().take(due.len()).collect();
    let bodies: Vec<String> = stream.iter().map(|s| s.wire(true).to_body()).collect();
    println!(
        "sessions: {} requests over {:?} q/s on {connections} connections",
        bodies.len(),
        phases.map(|p| p.rate)
    );
    let due_s: Vec<f64> = due.iter().map(|d| d.0).collect();
    let exchanges = open_loop(addr, &bodies, &due_s, connections);
    let metrics = scrape(addr);
    handle.shutdown();

    // The connections keep at most two requests at the service, far below
    // what its scheduler sheds at and far inside the 100 ms deadline (the
    // service answers within 30 ms), so at every rate each exchange must be
    // a full 200 answer: a shed, a deadline-cut answer or an error fails the
    // run.
    for e in &exchanges {
        report.attempted += 1;
        if !e.ok() {
            report.problem(format!(
                "request {}: status {}{}",
                e.request,
                e.status,
                if e.response.is_some() {
                    ", answer cut by its deadline"
                } else {
                    ""
                }
            ));
        }
    }

    // Every distinct request, executed directly (cache off) on the same
    // engine, must answer bit-identically to the service, and feasibly.
    let mut distinct: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, body) in bodies.iter().enumerate() {
        distinct.entry(body.as_str()).or_insert(i);
    }
    let mut direct: BTreeMap<usize, Vec<Region>> = BTreeMap::new();
    for &i in distinct.values() {
        let mut spec = stream[i].clone();
        spec.deadline = None;
        match engine.execute(&spec.request()) {
            Ok(outcome) => {
                for region in &outcome.regions {
                    if let Some(why) = check::infeasible(engine.network(), &spec.query, region) {
                        report.problem(format!("request {i}: infeasible region: {why}"));
                    }
                }
                direct.insert(i, outcome.regions);
            }
            Err(e) => report.problem(format!("request {i}: direct execute failed: {e}")),
        }
    }
    for e in exchanges.iter().filter(|e| e.ok()) {
        let response = e.response.as_ref().expect("ok exchanges carry a response");
        let want = &direct[&distinct[bodies[e.request].as_str()]];
        if !check::same_served(&response.regions, want) {
            report.problem(format!(
                "request {}: served regions differ from execute",
                e.request
            ));
        }
    }

    let by_phase: Vec<(Phase, Vec<&Exchange>)> = phases
        .iter()
        .enumerate()
        .map(|(p, &phase)| {
            (
                phase,
                exchanges.iter().filter(|e| due[e.request].1 == p).collect(),
            )
        })
        .collect();
    // The SLO rate: the highest rate of the ladder met along with every
    // lower rate.
    let (mut slo_rate, mut all_met) = (0.0, true);
    for (phase, ex) in &by_phase {
        let lat = sorted(&latencies(ex));
        let failed = ex.iter().filter(|e| !e.ok()).count();
        // A growing backlog shows as requests leaving ever later: compare the
        // last tenth of the phase with the whole.
        let late: Vec<f64> = ex.iter().map(|e| e.late_ms).collect();
        let last_late = mean(&late[late.len() - late.len() / 10..]);
        let backlog = last_late > 10.0 && last_late > 2.0 * mean(&late);
        let t = phase_tail(ex);
        let meets = failed == 0 && !backlog && t <= SLO_MS;
        all_met &= meets;
        if all_met {
            slo_rate = phase.rate;
        }
        println!(
            "  phase {:>5.0} q/s: sent {:>5} ok {:>5} failed {failed:>3}  p50 {:>8.3} ms  tail {:>8.3} ms  late p99 {:>7.3} ms  {}",
            phase.rate,
            ex.len(),
            ex.len() - failed,
            percentile(&lat, 50.0),
            t,
            percentile(&sorted(&late), 99.0),
            if meets { "meets SLO" } else { "misses SLO" }
        );
    }

    let repeats = bodies.len() - distinct.len();
    let answered: Vec<&StatsDto> = exchanges
        .iter()
        .filter_map(|e| e.response.as_ref().map(|r| &r.stats))
        .collect();
    let hits = answered.iter().filter(|s| s.cache_hit).count();
    let delta = answered.iter().filter(|s| s.delta_prepare).count();
    let n = answered.len().max(1) as f64;
    println!(
        "  repeat share {:.3} ({repeats} of {} requests repeat an earlier one), cache-hit share {:.3}, delta-prepared share of misses {:.3}",
        repeats as f64 / bodies.len().max(1) as f64,
        bodies.len(),
        hits as f64 / n,
        delta as f64 / (n - hits as f64).max(1.0)
    );

    // Delta scoring times from a replay of every distinct request in stream
    // order: the cache misses of the served run, each session's steps in
    // turn.
    let mut firsts: Vec<usize> = distinct.values().copied().collect();
    firsts.sort_unstable();
    let specs: Vec<Spec> = firsts
        .iter()
        .map(|&i| {
            let mut s = stream[i].clone();
            s.deadline = None;
            s
        })
        .collect();
    let order: Vec<usize> = (0..specs.len()).collect();
    let mut checker = Checker::new(engine, specs.len(), false);
    let run = traced_loop(engine, &specs, &order, 0.0, true, &mut checker, report);
    let delta_us = sorted(
        &run.samples
            .iter()
            .filter(|s| s.layers.delta)
            .map(|s| s.layers.grid_us)
            .collect::<Vec<_>>(),
    );
    report.set_noted(
        "geotext.delta_score_us",
        percentile(&delta_us, 50.0),
        format!("p50 of {} session steps", delta_us.len()),
    );
    report.set_noted(
        "cache.hit_ratio",
        hits as f64 / n,
        format!("n={}", answered.len()),
    );
    report.set(
        "cache.stale",
        answered.iter().filter(|s| s.cache_stale).count() as f64,
    );
    report.set_noted(
        "cache.delta_prepare_ratio",
        delta as f64 / (n - hits as f64).max(1.0),
        format!(
            "served misses; the replay delta-prepared {} of {}",
            delta_us.len(),
            run.samples.len()
        ),
    );
    report_service(&exchanges, &metrics, report);
    report_loadgen(&exchanges, &by_phase, Some(slo_rate), report);
}
