//! Live-update SLOs: per-event incremental repair cost and
//! update-to-visibility latency, incremental-repair-and-swap vs
//! full-rebuild-and-swap.
//!
//! For each dataset the bench replays one deterministic churn stream
//! (`reach_datasets::churn`, inserts/removes plus a slice of
//! graph-growing events) through the `reach-ingest` pipeline into a live
//! 2-worker `QueryService`, in three runs:
//!
//! * **incremental** — `RepairMode::Incremental`, per-publish
//!   verification off: the timed run. Reports repair ns/event,
//!   refloods/event, and p50/p99 update-to-visibility latency (event
//!   enqueue → completion of the publish that made it queryable). The
//!   *final* published index is still checked bit-identical to a
//!   from-scratch DRL build of the final edge set.
//! * **full_rebuild** — the baseline: events only mutate the shadow
//!   graph; every publish is a from-scratch build, so visibility
//!   latency is dominated by rebuild time.
//! * **incremental_verified** — the correctness gate at full strength:
//!   every published generation is compared against a from-scratch
//!   build of its exact edge set under the frozen order before
//!   install. The bench (and CI) asserts the identical-to-rebuild flag
//!   never goes false.
//!
//! A query thread hammers the service throughout, so the measured swaps
//! are real hot-swaps against in-flight batches, and the serve-side
//! `submitted == answered + rejected + shed` ledger is asserted at
//! shutdown. Output lands in `BENCH_ingest.json` at the repo root.
//! Honors `REACH_BENCH_SCALE` / `REACH_BENCH_DATASETS`; `--smoke`
//! shrinks the run for CI.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use reach_bench::{dataset_filter, scaled, Report};
use reach_core::dynamic::DynamicIndex;
use reach_datasets::{churn_stream, final_edge_set, workload, ChurnConfig, QueryMix};
use reach_graph::{DiGraph, DynamicGraph, EdgeEvent, OrderAssignment, OrderKind};
use reach_index::ReachIndex;
use reach_ingest::{IndexSink, Ingest, IngestConfig, IngestStats, RepairMode};
use reach_serve::{QueryService, ServeConfig};

const SERVE_WORKERS: usize = 2;
const FLUSH_EVENTS: usize = 64;
const FLUSH_AGE: Duration = Duration::from_millis(10);
const PUBLISH_EVERY_BATCHES: usize = 4;
const CHURN_SEED: u64 = 0xc0de;
const QUERY_BATCH: usize = 64;

struct Run {
    dataset: &'static str,
    mode: &'static str,
    events: usize,
    applied: usize,
    batches: usize,
    publishes: usize,
    swaps: u64,
    repair_ns_per_event: f64,
    refloods_per_event: f64,
    p50_visibility_us: f64,
    p99_visibility_us: f64,
    verified_publishes: usize,
    identical_to_rebuild: bool,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke && std::env::var("REACH_BENCH_SCALE").is_err() {
        std::env::set_var("REACH_BENCH_SCALE", "0.05");
    }
    // On the scale-1.0 mediums a single coalesced repair can cost ~100 ms
    // per event (the affected set approaches the whole graph — see the
    // EXPERIMENTS.md crossover note), so the full budget is sized to keep
    // the three-runs-per-dataset sweep tractable while still giving
    // hundreds of visibility samples per percentile.
    let event_budget = if smoke { 256 } else { 512 };
    let max_datasets = if smoke { 1 } else { 2 };
    let filter = dataset_filter();

    let mut report = Report::new(
        "ingest_bench",
        &[
            "Name",
            "Mode",
            "Events",
            "Publishes",
            "Repair_ns/ev",
            "p50_vis_us",
            "p99_vis_us",
            "Identical",
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
        let events = churn_stream(
            &g,
            &ChurnConfig {
                events: event_budget,
                insert_fraction: 0.6,
                growth_fraction: 0.02,
                seed: CHURN_SEED,
            },
        );
        println!(
            "[{}] |V|={} |E|={} events={}",
            spec.name,
            g.num_vertices(),
            g.num_edges(),
            events.len()
        );

        for (mode_name, mode, verify) in [
            ("incremental", RepairMode::Incremental, false),
            ("full_rebuild", RepairMode::FullRebuild, false),
            ("incremental_verified", RepairMode::Incremental, true),
        ] {
            let run = drive(spec.name, mode_name, &g, &events, mode, verify);
            assert!(
                run.identical_to_rebuild,
                "{} {mode_name}: published index != from-scratch rebuild",
                spec.name
            );
            report.row(vec![
                run.dataset.into(),
                run.mode.into(),
                run.events.to_string(),
                run.publishes.to_string(),
                format!("{:.0}", run.repair_ns_per_event),
                format!("{:.1}", run.p50_visibility_us),
                format!("{:.1}", run.p99_visibility_us),
                run.identical_to_rebuild.to_string(),
            ]);
            runs.push(run);
        }
    }

    let json_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ingest.json");
    std::fs::write(&json_path, render_json(smoke, event_budget, &runs)).expect("write bench json");
    println!("wrote {}", json_path.display());
    report.finish();
}

/// Installs every published snapshot into the live service and keeps the
/// latest one, which the final-state gate compares against a rebuild.
struct ServingSink {
    service: Arc<QueryService>,
    latest: Mutex<Arc<ReachIndex>>,
}

impl IndexSink for ServingSink {
    fn install(&self, index: Arc<ReachIndex>) -> u64 {
        let mut latest = self.latest.lock().expect("sink lock poisoned");
        let generation = self.service.swap_index(Arc::clone(&index));
        *latest = index;
        generation
    }
}

/// One full pipeline run against a live service with a racing query load.
fn drive(
    dataset: &'static str,
    mode_name: &'static str,
    g: &DiGraph,
    events: &[EdgeEvent],
    mode: RepairMode,
    verify: bool,
) -> Run {
    let ord = OrderAssignment::new(g, OrderKind::DegreeProduct);
    let initial = Arc::new(reach_core::improved::drl(g, &ord));
    let service = Arc::new(QueryService::start(
        Arc::clone(&initial),
        ServeConfig::with_workers(SERVE_WORKERS),
    ));
    let sink = Arc::new(ServingSink {
        service: Arc::clone(&service),
        latest: Mutex::new(initial),
    });
    let ingest = Ingest::start(
        DynamicIndex::new(DynamicGraph::from_digraph(g), ord),
        Arc::clone(&sink) as Arc<dyn IndexSink>,
        IngestConfig {
            flush_events: FLUSH_EVENTS,
            flush_age: FLUSH_AGE,
            publish_every_batches: PUBLISH_EVERY_BATCHES,
            mode,
            verify_publishes: verify,
            ..IngestConfig::default()
        },
    );

    // A concurrent query load makes the swaps real: in-flight batches
    // pin generations while the pipeline installs new ones.
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let g = g.clone();
        std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Acquire) {
                let queries = workload(&g, QueryMix::Uniform, QUERY_BATCH, round);
                round += 1;
                if let Ok(ticket) = service.submit_batch_async(&queries, None) {
                    let _ = ticket.wait_tagged();
                }
            }
        })
    };

    // Open-loop replay: as fast as backpressure admits.
    ingest.submit_all(events).expect("pipeline is open");
    ingest.publish_now().expect("final barrier publish");
    let stats = ingest.shutdown();
    stop.store(true, Ordering::Release);
    hammer.join().unwrap();

    // Final-state gate (always, even with per-publish verification off):
    // the served index must equal a from-scratch build of the final edge
    // set under the frozen order (base order + streamed-in vertices at
    // the lowest ranks in first-seen order).
    let served = Arc::into_inner(sink)
        .expect("ingest joined")
        .latest
        .into_inner()
        .expect("sink lock poisoned");
    let (final_n, final_edges) = final_edge_set(g, events);
    let final_graph = DiGraph::from_edges(final_n, final_edges);
    let mut final_ord = OrderAssignment::new(g, OrderKind::DegreeProduct);
    while final_ord.len() < final_n {
        final_ord.push_lowest();
    }
    let rebuild = reach_core::improved::drl(&final_graph, &final_ord);
    let final_identical = *served == rebuild;

    let service = Arc::into_inner(service).expect("hammer joined");
    let serve_stats = service.shutdown();
    assert!(serve_stats.is_balanced(), "serve ledger: {serve_stats:?}");

    run_from(
        dataset,
        mode_name,
        events.len(),
        &stats,
        serve_stats.swaps,
        final_identical,
    )
}

fn run_from(
    dataset: &'static str,
    mode: &'static str,
    events: usize,
    stats: &IngestStats,
    swaps: u64,
    final_identical: bool,
) -> Run {
    assert_eq!(stats.events_ingested, events, "nothing dropped");
    assert_eq!(stats.visibility_ns.len(), events, "one sample per event");
    let per_event = |x: f64| x / events.max(1) as f64;
    let pct = |p: f64| {
        stats
            .visibility_percentile(p)
            .map(|d| d.as_secs_f64() * 1e6)
            .unwrap_or(0.0)
    };
    Run {
        dataset,
        mode,
        events,
        applied: stats.events_applied,
        batches: stats.batches,
        publishes: stats.publishes,
        swaps,
        repair_ns_per_event: per_event(stats.repair_ns as f64),
        refloods_per_event: per_event(stats.repair.refloods() as f64),
        p50_visibility_us: pct(0.50),
        p99_visibility_us: pct(0.99),
        verified_publishes: stats.verified_publishes,
        identical_to_rebuild: stats.identical_to_rebuild() && final_identical,
    }
}

/// Hand-rolled JSON (the workspace deliberately carries no serde).
fn render_json(smoke: bool, event_budget: usize, runs: &[Run]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"ingest\",\n");
    out.push_str(&format!("  \"scale\": {},\n", reach_bench::scale()));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str(&format!("  \"event_budget\": {event_budget},\n"));
    out.push_str(&format!("  \"flush_events\": {FLUSH_EVENTS},\n"));
    out.push_str(&format!("  \"flush_age_ms\": {},\n", FLUSH_AGE.as_millis()));
    out.push_str(&format!(
        "  \"publish_every_batches\": {PUBLISH_EVERY_BATCHES},\n"
    ));
    out.push_str(&format!("  \"serve_workers\": {SERVE_WORKERS},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"mode\": \"{}\", \"events\": {}, \
             \"applied\": {}, \"batches\": {}, \"publishes\": {}, \"swaps\": {}, \
             \"repair_ns_per_event\": {:.1}, \"refloods_per_event\": {:.3}, \
             \"p50_visibility_us\": {:.1}, \"p99_visibility_us\": {:.1}, \
             \"verified_publishes\": {}, \"identical_to_rebuild\": {}}}{}\n",
            r.dataset,
            r.mode,
            r.events,
            r.applied,
            r.batches,
            r.publishes,
            r.swaps,
            r.repair_ns_per_event,
            r.refloods_per_event,
            r.p50_visibility_us,
            r.p99_visibility_us,
            r.verified_publishes,
            r.identical_to_rebuild,
            if i + 1 == runs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
