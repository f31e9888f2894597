//! Latency/throughput harness for the `reach-serve` query service.
//!
//! Builds a DRLb index on Table-V medium synthetics, then drives the
//! service with the deterministic workload mixes from
//! `reach_datasets::workload` (uniform / positive-biased / Zipf-hot) at
//! 1/2/4/8 worker threads, keeping a window of outstanding async batches
//! in flight. Records throughput (qps), batch latency percentiles
//! (p50/p99), the cache hit rate column (always 0 now that the service
//! has no cache; kept so the JSON schema is unchanged), and speedup vs
//! the single-worker run.
//!
//! Every run's answers are checked against direct `ReachIndex::query`
//! calls — a serving layer that changes an answer is a bug, not a result.
//! Output lands in `BENCH_query_service.json` at the repo root (plus the
//! usual stdout/CSV report).
//!
//! Honors `REACH_BENCH_SCALE` and `REACH_BENCH_DATASETS` like every other
//! bench; `--smoke` caps the run at two datasets, fewer queries, and
//! (unless overridden) scale 0.05 so CI finishes in seconds. Speedup > 1
//! naturally requires more than one hardware core; `available_parallelism`
//! is recorded in the JSON so a 1-core run is self-describing.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use reach_bench::{dataset_filter, scaled, Report};
use reach_core::BatchParams;
use reach_datasets::{standard_mixes, workload};
use reach_graph::{OrderAssignment, OrderKind, VertexId};
use reach_index::ReachIndex;
use reach_serve::{BatchTicket, QueryService, ServeConfig};
use reach_vcs::NetworkModel;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SIM_NODES: usize = 8;
const BATCH: usize = 64;
const WORKLOAD_SEED: u64 = 0xbe4c;

struct Run {
    dataset: &'static str,
    mix: &'static str,
    workers: usize,
    queries: usize,
    qps: f64,
    p50_latency_us: f64,
    p99_latency_us: f64,
    cache_hit_rate: f64,
    speedup_vs_1: f64,
    answers_identical: bool,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke && std::env::var("REACH_BENCH_SCALE").is_err() {
        std::env::set_var("REACH_BENCH_SCALE", "0.05");
    }
    let queries_per_mix = if smoke { 2_000 } else { 20_000 };
    let max_datasets = if smoke { 2 } else { 3 };
    let filter = dataset_filter();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut report = Report::new(
        "query_service",
        &[
            "Name", "Mix", "Workers", "QPS", "p50_us", "p99_us", "Hit%", "Speedup",
        ],
    );
    let mut runs: Vec<Run> = Vec::new();

    let mut used = 0usize;
    for spec in reach_datasets::mediums() {
        if let Some(f) = &filter {
            if !f.contains(&spec.name.to_string()) {
                continue;
            }
        }
        if used == max_datasets {
            break;
        }
        used += 1;
        let spec = scaled(&spec);
        let g = spec.generate();
        let ord = OrderAssignment::new(&g, OrderKind::DegreeProduct);
        let (idx, _stats) = reach_drl_dist::drlb::run_configured(
            &g,
            &ord,
            BatchParams::default(),
            SIM_NODES,
            NetworkModel::default(),
            None,
            None,
        )
        .expect("fault-free build");
        let idx = Arc::new(idx);

        for (mix_name, mix) in standard_mixes() {
            let queries = workload(&g, mix, queries_per_mix, WORKLOAD_SEED);
            let expect: Vec<bool> = queries.iter().map(|&(s, t)| idx.query(s, t)).collect();
            let mut base_qps: Option<f64> = None;
            for workers in THREAD_COUNTS {
                let m = drive(&idx, workers, &queries, &expect);
                assert!(
                    m.answers_identical,
                    "{} {mix_name}: answers at {workers} workers differ from direct query",
                    spec.name
                );
                let speedup = match base_qps {
                    None => {
                        base_qps = Some(m.qps);
                        1.0
                    }
                    Some(b) => m.qps / b,
                };
                report.row(vec![
                    spec.name.into(),
                    mix_name.into(),
                    workers.to_string(),
                    format!("{:.0}", m.qps),
                    format!("{:.1}", m.p50_latency_us),
                    format!("{:.1}", m.p99_latency_us),
                    format!("{:.1}", m.cache_hit_rate * 100.0),
                    format!("{speedup:.2}"),
                ]);
                runs.push(Run {
                    dataset: spec.name,
                    mix: mix_name,
                    workers,
                    speedup_vs_1: speedup,
                    ..m
                });
            }
        }
    }

    let json_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_query_service.json");
    std::fs::write(&json_path, render_json(parallelism, smoke, &runs)).expect("write bench json");
    println!("wrote {}", json_path.display());
    report.finish();
}

/// One measured service run: submit the workload as a pipeline of
/// outstanding async batches, then collect throughput, latency
/// percentiles, and the (always 0) cache hit rate from the drained
/// service.
fn drive(
    idx: &Arc<ReachIndex>,
    workers: usize,
    queries: &[(VertexId, VertexId)],
    expect: &[bool],
) -> Run {
    let svc = QueryService::start(Arc::clone(idx), ServeConfig::with_workers(workers));
    // Enough batches in flight to keep every worker busy without ever
    // approaching the admission-control queue bound.
    let window = 4 * workers;
    let mut outstanding: VecDeque<(BatchTicket, Instant, usize)> = VecDeque::new();
    let mut latencies: Vec<f64> = Vec::with_capacity(queries.len() / BATCH + 1);
    let mut got = vec![false; queries.len()];
    let collect = |outstanding: &mut VecDeque<(BatchTicket, Instant, usize)>,
                   latencies: &mut Vec<f64>,
                   got: &mut Vec<bool>| {
        let (ticket, t0, at) = outstanding.pop_front().expect("non-empty window");
        let res = ticket
            .wait()
            .expect("no deadline and bounded window: no rejection");
        latencies.push(t0.elapsed().as_secs_f64());
        got[at..at + res.len()].copy_from_slice(&res);
    };

    let t0 = Instant::now();
    let mut pos = 0usize;
    for chunk in queries.chunks(BATCH) {
        if outstanding.len() == window {
            collect(&mut outstanding, &mut latencies, &mut got);
        }
        let submitted = Instant::now();
        let ticket = svc
            .submit_batch_async(chunk, None)
            .expect("window below queue capacity: admission cannot fail");
        outstanding.push_back((ticket, submitted, pos));
        pos += chunk.len();
    }
    while !outstanding.is_empty() {
        collect(&mut outstanding, &mut latencies, &mut got);
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = svc.shutdown();

    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize] * 1e6;
    Run {
        dataset: "",
        mix: "",
        workers,
        queries: queries.len(),
        qps: queries.len() as f64 / wall,
        p50_latency_us: pct(0.50),
        p99_latency_us: pct(0.99),
        cache_hit_rate: stats.cache_hit_rate(),
        speedup_vs_1: 1.0,
        answers_identical: got == expect,
    }
}

/// Hand-rolled JSON (the workspace deliberately carries no serde).
fn render_json(parallelism: usize, smoke: bool, runs: &[Run]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"query_service\",\n");
    out.push_str(&format!("  \"scale\": {},\n", reach_bench::scale()));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
    out.push_str(&format!("  \"sim_nodes\": {SIM_NODES},\n"));
    out.push_str(&format!("  \"batch_size\": {BATCH},\n"));
    out.push_str(&format!("  \"thread_counts\": {THREAD_COUNTS:?},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"mix\": \"{}\", \"workers\": {}, \
             \"queries\": {}, \"qps\": {:.1}, \"p50_latency_us\": {:.2}, \
             \"p99_latency_us\": {:.2}, \"cache_hit_rate\": {:.4}, \
             \"speedup_vs_1\": {:.4}, \"answers_identical\": {}}}{}\n",
            r.dataset,
            r.mix,
            r.workers,
            r.queries,
            r.qps,
            r.p50_latency_us,
            r.p99_latency_us,
            r.cache_hit_rate,
            r.speedup_vs_1,
            r.answers_identical,
            if i + 1 == runs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
