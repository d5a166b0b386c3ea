//! Continent-scale benchmark: the flat grid index and the rect-bounded
//! prepare phase at 1M+ nodes — the tier where prepare and solve costs
//! actually compete and the PR 3–5 solve wins become credible.
//!
//! Like `batch_throughput` this is a plain harness emitting a
//! machine-readable `BENCH_scale.json` (path overridable via
//! `LCMSR_BENCH_OUT`) that CI archives.  Over an NY-like network at
//! `LCMSR_SCALE` (CI's `scale-smoke` job runs `huge`, ~1M nodes) it measures:
//!
//! * **index build** — one `ObjectCollection::build` (vocabulary, counting-
//!   sort grid, node mapping) over the dataset's objects;
//! * **prepare** — `LcmsrEngine::prepare_with` at 1 prepare worker vs
//!   `LCMSR_SCALE_WORKERS` (default 4; row-banded scoring + row-banded
//!   `RegionView`), per query, with the grid-score/graph-build split from
//!   `PrepareBreakdown`;
//! * **peak prepare RSS** — `VmHWM` deltas around each prepare pass (peak is
//!   reset via `/proc/self/clear_refs`; `null` where the kernel refuses);
//! * **scratch locality** — the prepare scratch (`member_table_len`) must
//!   stay within the widest query rect's member-id band (the epoch table is
//!   offset-rebased at the smallest member id), never the network size.
//!
//! Parallel-path output is asserted bit-identical to the sequential path
//! (query-graph CSR content and node weights compared via `to_bits`).  With
//! `LCMSR_BENCH_STRICT` set and ≥ `LCMSR_SCALE_WORKERS` CPUs available, the
//! run fails when the parallel prepare speedup stays below
//! `LCMSR_BENCH_MIN_PREPARE_SPEEDUP` (default 2.0) after one noise
//! re-measure; on smaller machines the measured ratio is reported only.

use lcmsr_bench::*;
use lcmsr_core::prelude::*;
use lcmsr_geotext::collection::ObjectCollection;

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in KiB, when the
/// platform exposes it.
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the peak-RSS watermark (`VmHWM`) so a later reading covers only
/// the work in between; returns the watermark to subtract, or `None` when
/// the kernel refused the reset (the watermark still sits above the current
/// RSS, so a delta would read 0 whatever the pass used).
fn reset_peak_rss() -> Option<u64> {
    std::fs::write("/proc/self/clear_refs", "5").ok()?;
    let peak = status_kib("VmHWM:")?;
    (peak <= status_kib("VmRSS:")?).then_some(peak)
}

/// Peak-RSS growth since `floor` (from [`reset_peak_rss`]), in KiB.
fn peak_since(floor: Option<u64>) -> Option<u64> {
    Some(status_kib("VmHWM:")?.saturating_sub(floor?))
}

/// A KiB figure as JSON, `null` when unmeasured.
fn kib_json(kib: Option<u64>) -> String {
    kib.map_or_else(|| "null".to_string(), |k| k.to_string())
}

/// Per-node (global id, weight bits, scaled weight) in CSR order plus
/// per-edge (a, b, length bits).
type GraphFingerprint = (Vec<(u32, u64, u64)>, Vec<(u32, u32, u64)>);

/// Bit-exact content of a prepared query graph: per-node (global id, weight
/// bits, scaled weight) in CSR order plus every edge with its length bits.
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

fn main() {
    let scale = scale_from_env();
    let num_queries = env_usize("LCMSR_SCALE_QUERIES", 8).max(1);
    let workers = env_usize("LCMSR_SCALE_WORKERS", 4).max(1);
    let rounds = env_usize("LCMSR_SCALE_ROUNDS", 2).max(1);
    let build_rounds = env_usize("LCMSR_SCALE_BUILD_ROUNDS", 1).max(1);
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let strict = std::env::var("LCMSR_BENCH_STRICT").is_ok();
    let min_speedup = env_f64("LCMSR_BENCH_MIN_PREPARE_SPEEDUP", 2.0);

    println!("scale (building NY-like dataset at {scale:?}…)");
    let gen_start = std::time::Instant::now();
    let dataset = ny_dataset(scale);
    let gen_secs = gen_start.elapsed().as_secs_f64();
    let node_count = dataset.network.node_count();
    let object_count = dataset.collection.len();
    println!(
        "  dataset         : {} nodes, {} edges, {object_count} objects in {gen_secs:.1} s",
        node_count,
        dataset.network.edge_count()
    );

    // -- index build: one sequential build, timed around a fresh object copy --
    let objects = dataset.collection.objects().to_vec();
    let cell_size = dataset.config.cell_size;
    let build_secs = best_secs(build_rounds, || {
        let built = ObjectCollection::build(&dataset.network, objects.clone(), cell_size)
            .expect("index build");
        assert_eq!(built.len(), object_count);
        assert_eq!(built.keyword_count(), dataset.collection.keyword_count());
    });
    drop(objects);

    // -- prepare: sequential vs parallel fan-out ------------------------------
    let params = dataset.default_query_params(2026);
    let queries = make_workload(
        &dataset,
        num_queries,
        params.num_keywords,
        params.area_km2,
        params.delta_km,
        2026,
    );
    assert!(!queries.is_empty(), "scale workload generated no queries");
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let alpha = default_tgen_alpha(&dataset, &queries);

    // Reference pass: sequential fingerprints and scratch size (cold).
    let mut workspace = QueryWorkspace::new();
    engine.set_prepare_workers(1);
    let mut reference = Vec::new();
    for q in &queries {
        let graph = engine
            .prepare_with(&mut workspace, q, alpha)
            .expect("prepare");
        reference.push(graph_fingerprint(&graph));
        engine.release(&mut workspace, graph);
    }
    // Warm split pass: the grid-score / graph-build breakdown on reused
    // scratch, comparable to the timed passes below (the cold reference pass
    // pays page faults that would drown the split).
    let mut grid_score_secs = 0.0;
    let mut graph_build_secs = 0.0;
    for q in &queries {
        let graph = engine
            .prepare_with(&mut workspace, q, alpha)
            .expect("prepare");
        let split = workspace.prepare_breakdown();
        grid_score_secs += split.grid_score_time.as_secs_f64();
        graph_build_secs += split.graph_build_time.as_secs_f64();
        engine.release(&mut workspace, graph);
    }
    grid_score_secs /= queries.len() as f64;
    graph_build_secs /= queries.len() as f64;
    // The rect-bounded scratch contract: after preparing every query, the
    // member table covers the largest query rect's cell cover — not the
    // network.  At scale the workload rect is a small fraction of the extent,
    // so the scratch must be far below the node count.
    let member_table_len = workspace.member_table_len();
    let mut rect_nodes = 0usize;
    let mut rect_id_band = 0usize;
    for q in &queries {
        let in_rect = dataset.network.nodes_in_rect(&q.region_of_interest);
        rect_nodes = rect_nodes.max(in_rect.len());
        // The epoch table is offset-rebased at the smallest member id, so its
        // high-water size is the widest member-id *band* across queries — on a
        // row-major network that is (rect rows x network cols), well above the
        // member count but still far below |V|.
        let band = match (in_rect.iter().min(), in_rect.iter().max()) {
            (Some(lo), Some(hi)) => hi.index() - lo.index() + 1,
            _ => 0,
        };
        rect_id_band = rect_id_band.max(band);
    }
    let scratch_ratio = member_table_len as f64 / node_count.max(1) as f64;

    // Timed passes, strict gate with one noise re-measure.
    let mut seq_secs = 0.0;
    let mut par_secs = 0.0;
    let mut speedup = 0.0;
    let mut seq_peak_kib = None;
    let mut par_peak_kib = None;
    for attempt in 0..2 {
        engine.set_prepare_workers(1);
        let rss_floor = reset_peak_rss();
        seq_secs = best_secs(rounds, || {
            for q in &queries {
                let g = engine
                    .prepare_with(&mut workspace, q, alpha)
                    .expect("prepare");
                engine.release(&mut workspace, g);
            }
        }) / queries.len() as f64;
        seq_peak_kib = peak_since(rss_floor);
        engine.set_prepare_workers(workers);
        let rss_floor = reset_peak_rss();
        par_secs = best_secs(rounds, || {
            for q in &queries {
                let g = engine
                    .prepare_with(&mut workspace, q, alpha)
                    .expect("prepare");
                engine.release(&mut workspace, g);
            }
        }) / queries.len() as f64;
        par_peak_kib = peak_since(rss_floor);
        speedup = seq_secs / par_secs.max(1e-12);
        if !strict || speedup >= min_speedup || cpus < workers {
            break;
        }
        if attempt == 0 {
            eprintln!("  speedup {speedup:.2}x below {min_speedup:.1}x target; re-measuring once");
        }
    }

    // Parallel prepare must be bit-identical to the sequential reference.
    engine.set_prepare_workers(workers);
    let mut identical = true;
    for (q, expect) in queries.iter().zip(&reference) {
        let graph = engine
            .prepare_with(&mut workspace, q, alpha)
            .expect("prepare");
        if &graph_fingerprint(&graph) != expect {
            identical = false;
        }
        engine.release(&mut workspace, graph);
    }

    println!(
        "scale (scale {scale:?}, {} queries, {workers} workers, {cpus} CPUs)",
        queries.len()
    );
    println!("  index build     : {build_secs:>10.2} s");
    println!("  prepare seq     : {:>10.1} µs/query", seq_secs * 1e6);
    println!(
        "  prepare par({workers})  : {:>10.1} µs/query  ({speedup:.2}x)",
        par_secs * 1e6
    );
    println!(
        "  prepare split   : {:>10.1} µs grid score + {:.1} µs graph build",
        grid_score_secs * 1e6,
        graph_build_secs * 1e6
    );
    println!(
        "  peak prepare RSS: {:>10} KiB sequential, {} KiB parallel",
        kib_json(seq_peak_kib),
        kib_json(par_peak_kib)
    );
    println!(
        "  scratch         : {member_table_len} member-table entries for ≤ {rect_nodes} rect nodes \
         (id band {rect_id_band}; {:.2}% of {node_count} network nodes)",
        scratch_ratio * 100.0
    );
    println!("  results identical: {identical}");

    assert!(
        identical,
        "parallel prepare must be bit-identical to the sequential path"
    );
    // The scratch stays bounded by the rect's member-id band: the epoch table
    // never touches node ids outside the widest query band, and on large
    // networks must additionally stay an order of magnitude under |V|.
    assert!(
        member_table_len <= rect_id_band.max(4096),
        "prepare scratch ({member_table_len} entries) exceeds the widest query \
         rect id band ({rect_id_band} ids)"
    );
    if node_count >= 100_000 {
        assert!(
            member_table_len * 10 <= node_count,
            "prepare scratch ({member_table_len}) must stay an order of magnitude \
             below the network ({node_count} nodes)"
        );
    }
    if strict && cpus >= workers {
        assert!(
            speedup >= min_speedup,
            "parallel prepare speedup {speedup:.2}x below the {min_speedup:.1}x target \
             with {cpus} CPUs"
        );
    }

    let out_path =
        std::env::var("LCMSR_BENCH_OUT").unwrap_or_else(|_| "BENCH_scale.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"scale\": \"{scale:?}\",\n  \"nodes\": {node_count},\n  \"edges\": {},\n  \"objects\": {object_count},\n  \"queries\": {},\n  \"workers\": {workers},\n  \"cpus\": {cpus},\n  \"dataset_build_s\": {gen_secs:.3},\n  \"index_build_s\": {build_secs:.3},\n  \"prepare_seq_us_per_query\": {:.3},\n  \"prepare_par_us_per_query\": {:.3},\n  \"prepare_speedup\": {speedup:.4},\n  \"grid_score_us_per_query\": {:.3},\n  \"graph_build_us_per_query\": {:.3},\n  \"prepare_peak_rss_seq_kib\": {},\n  \"prepare_peak_rss_par_kib\": {},\n  \"member_table_len\": {member_table_len},\n  \"max_rect_nodes\": {rect_nodes},\n  \"max_rect_id_band\": {rect_id_band},\n  \"scratch_vs_network\": {scratch_ratio:.6},\n  \"identical_results\": {identical}\n}}\n",
        dataset.network.edge_count(),
        queries.len(),
        seq_secs * 1e6,
        par_secs * 1e6,
        grid_score_secs * 1e6,
        graph_build_secs * 1e6,
        kib_json(seq_peak_kib),
        kib_json(par_peak_kib),
    );
    std::fs::write(&out_path, json).expect("write BENCH_scale.json");
    println!("  wrote {out_path}");
}
