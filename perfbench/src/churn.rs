//! `churn`: writes beside reads. A seeded `churn_stream` over a reduced
//! WEBW goes at a fixed event rate through `reach_ingest::Ingest`
//! (incremental repair, `IngestConfig` defaults except no per-publish
//! verification) into a live `QueryService`, while a second generator
//! sends 64-pair uniform batches at a fixed rate through
//! `submit_batch_async`. The only workload that runs repair, snapshot,
//! hot-swap and epoch pinning under load.
//!
//! Correctness: every read is checked against the snapshot of the
//! generation that answered it (recorded by this module's own
//! `IndexSink`), and the final index must be bit-identical to a
//! from-scratch `improved::drl` build under the frozen order.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use reach_core::dynamic::DynamicIndex;
use reach_datasets::{churn_stream, final_edge_set, workload, ChurnConfig, QueryMix};
use reach_graph::{DiGraph, DynamicGraph, EdgeEvent, OrderAssignment, OrderKind};
use reach_index::{IndexSource, ReachIndex};
use reach_ingest::{IndexSink, Ingest, IngestConfig, IngestStats, RepairMode};
use reach_serve::{QueryService, ServeConfig, ServeStats};

use crate::load::{direct_pass, frames_needed, service_pass, traced_with_overhead, Pairs, Pass};
use crate::serving::{pass_info, serve_stat_metrics};
use crate::stats::{
    backlog_growing, lateness, least_stolen, median, quieter_half, Schedule, Summary, QUIET_STEAL,
};
use crate::trace::{Span, Trace};
use crate::{dataset_graph, nproc, stream_seed, Args, Report, StealMeter, LADDER_TRIES, MIB};

pub const DATASET: &str = "WEBW";
pub const SCALE: f64 = 0.05;
/// Offered edge events per second: a tenth to an eighth of the highest
/// rate the parent commit kept up with on [`LADDER`] (500 and 400). The
/// pipeline keeps up far past the rate that keeps its repair thread
/// busy, by coalescing more events per batch; at 100 events/s the
/// thread was busy about 90 % of a run, so reads beside it queued
/// whenever the host stole CPU time.
pub const EVENT_RATE: f64 = 50.0;
/// Read batches offered per event.
const READS_PER_EVENT: f64 = 10.0;
/// Offered 64-pair read batches per second.
pub const READ_RATE: f64 = EVENT_RATE * READS_PER_EVENT;
const READ_PAIRS: usize = 64;
/// The load ladder, in events per second (reads in the fixed ratio).
const LADDER: &[f64] = &[
    50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 500.0, 600.0, 800.0, 1200.0,
];
const LADDER_STEP_S: f64 = 6.0;
/// The ladder's limits on the visibility p99 and the read p99.
const VISIBILITY_LIMIT_MS: f64 = 1000.0;
const READ_LIMIT_US: f64 = 20_000.0;
/// Set-ups before the timed phase, and after it (untraced runs only).
const SETUP_BEFORE: usize = 30;
const SETUP_AFTER: usize = 15;

/// Installs snapshots into the live service and keeps each one by the
/// generation it was installed as, so reads can be checked afterwards.
struct RecordingSink {
    svc: Arc<QueryService>,
    snapshots: Mutex<BTreeMap<u64, Arc<ReachIndex>>>,
}

impl IndexSink for RecordingSink {
    fn install(&self, index: Arc<ReachIndex>) -> u64 {
        let mut snaps = self.snapshots.lock().expect("an install panicked");
        let generation = self.svc.swap_index(Arc::clone(&index));
        snaps.insert(generation, index);
        generation
    }
}

struct Setup {
    g: DiGraph,
    events: Vec<EdgeEvent>,
    svc: Arc<QueryService>,
    sink: Arc<RecordingSink>,
    ingest: Ingest,
    initial: Arc<ReachIndex>,
}

impl Setup {
    /// Shuts the pipeline and then the service down; returns both
    /// ledgers and every recorded snapshot.
    fn stop(self) -> (IngestStats, ServeStats, BTreeMap<u64, Arc<ReachIndex>>) {
        let Setup {
            ingest, svc, sink, ..
        } = self;
        let stats = ingest.shutdown();
        drop(svc);
        let sink = Arc::into_inner(sink).expect("the pipeline released the sink");
        let svc = Arc::into_inner(sink.svc).expect("no other service handle");
        (
            stats,
            svc.shutdown(),
            sink.snapshots.into_inner().expect("an install panicked"),
        )
    }
}

/// One set-up: generate, order, the initial DRL build, a churn stream of
/// `n_events`, then the service and the pipeline. Returns the set-up and
/// the initial build's seconds.
fn set_up(args: &Args, trace: &Trace, n_events: usize) -> (Setup, f64) {
    let t0 = Instant::now();
    let root = trace.id();
    let g = trace.time("graph.generate", Some(root), || {
        dataset_graph(DATASET, SCALE)
    });
    let ord = trace.time("graph.order", Some(root), || {
        OrderAssignment::new(&g, OrderKind::DegreeProduct)
    });
    let tb = Instant::now();
    let initial = Arc::new(trace.time("core.drl_initial", Some(root), || {
        reach_core::improved::drl(&g, &ord)
    }));
    let build_s = tb.elapsed().as_secs_f64();
    let events = trace.time("datasets.churn", Some(root), || {
        churn_stream(
            &g,
            &ChurnConfig {
                events: n_events,
                insert_fraction: 0.6,
                growth_fraction: 0.02,
                seed: stream_seed(args.seed, 3),
            },
        )
    });
    let svc = Arc::new(QueryService::start(
        Arc::clone(&initial),
        ServeConfig::with_workers(nproc()),
    ));
    let sink = Arc::new(RecordingSink {
        svc: Arc::clone(&svc),
        snapshots: Mutex::new(BTreeMap::from([(svc.generation(), Arc::clone(&initial))])),
    });
    let ingest = trace.time("ingest.start", Some(root), || {
        Ingest::start(
            DynamicIndex::new(DynamicGraph::from_digraph(&g), ord),
            Arc::clone(&sink) as Arc<dyn IndexSink>,
            IngestConfig {
                mode: RepairMode::Incremental,
                verify_publishes: false,
                ..IngestConfig::default()
            },
        )
    });
    trace.record(root, "setup", t0, Instant::now(), None, 0);
    let st = Setup {
        g,
        events,
        svc,
        sink,
        ingest,
        initial,
    };
    (st, build_s)
}

/// Read batches for `seconds` at `rate`: uniform pairs over the initial
/// vertex set (valid in every generation — the stream only adds
/// vertices).
fn read_frames(g: &DiGraph, seed: u64, rate: f64, seconds: f64) -> Vec<Pairs> {
    let n_reads = frames_needed(rate, seconds);
    workload(
        g,
        QueryMix::Uniform,
        n_reads * READ_PAIRS,
        stream_seed(seed, 4),
    )
    .chunks(READ_PAIRS)
    .map(|c| c.to_vec())
    .collect()
}

/// The timed phase: paced events and paced reads side by side, then a
/// final publish. Returns the read pass, per-event lateness µs and the
/// wall seconds.
fn paced(
    st: &Setup,
    reads: &[Pairs],
    event_rate: f64,
    read_rate: f64,
    seconds: f64,
    trace: &Trace,
) -> Result<(Pass, Vec<f64>, f64), String> {
    let t_run = Instant::now();
    let (read_pass, event_late_us) = std::thread::scope(|scope| {
        let ingest = &st.ingest;
        let events = &st.events;
        let feeder = scope.spawn(move || feed_events(ingest, events, event_rate, trace));
        let reads = service_pass(&st.svc, reads, 0, read_rate, seconds, trace, "serve.batch");
        (reads, feeder.join().expect("event feeder"))
    });
    st.ingest
        .publish_now()
        .map_err(|e| format!("final publish: {e:?}"))?;
    Ok((read_pass, event_late_us, t_run.elapsed().as_secs_f64()))
}

/// Seconds of repair plus publish per delta batch.
fn ingest_s_per_batch(stats: &IngestStats) -> f64 {
    (stats.repair_ns + stats.publish_ns) as f64 * 1e-9 / stats.batches.max(1) as f64
}

/// Seconds of repair plus publish per event: the pipeline's work.
fn ingest_s_per_event(stats: &IngestStats) -> f64 {
    (stats.repair_ns + stats.publish_ns) as f64 * 1e-9 / stats.events_ingested.max(1) as f64
}

pub fn run(args: &Args, trace: &Trace, report: &mut Report) -> Result<(), String> {
    let seconds = args.seconds;
    report.info_str("dataset", DATASET);
    report.info("scale", SCALE);
    report.info("offered_events_per_s", EVENT_RATE);
    report.info("offered_reads_per_s", READ_RATE);
    report.info("read_pairs", READ_PAIRS);
    report.info("serve_workers", nproc());
    if args.ladder {
        return ladder(args, report);
    }

    let mut setup_s = Vec::new();
    let mut initial_s = Vec::new();
    let mut current: Option<Setup> = None;
    // Set-up takes tens of milliseconds here; many repetitions, before
    // the timed phase and after it, steady the median.
    let n_events = frames_needed(EVENT_RATE, seconds);
    let mut timed_set_up = |setup_s: &mut Vec<(f64, f64)>| {
        let steal = StealMeter::start();
        let t0 = Instant::now();
        let (st, build_s) = set_up(args, trace, n_events);
        setup_s.push((t0.elapsed().as_secs_f64(), steal.share()));
        initial_s.push(build_s);
        st
    };
    for _ in 0..SETUP_BEFORE {
        if let Some(old) = current.take() {
            old.stop();
        }
        current = Some(timed_set_up(&mut setup_s));
    }
    let st = current.expect("set up at least once");
    report.info("vertices", st.g.num_vertices());
    report.info("edges", st.g.num_edges());
    report.info("events", st.events.len());

    let reads = read_frames(&st.g, args.seed, READ_RATE, seconds);
    let (read_pass, event_late_us, wall_s) =
        paced(&st, &reads, EVENT_RATE, READ_RATE, seconds, trace)?;
    let g = st.g.clone();
    let events = st.events.clone();
    let initial = Arc::clone(&st.initial);
    let (stats, serve_stats, snapshots) = st.stop();
    if !trace.on() {
        for _ in 0..SETUP_AFTER {
            timed_set_up(&mut setup_s).stop();
        }
    }

    // Gates: every read against its generation's snapshot; the final
    // index against a from-scratch build under the frozen order.
    check_reads(report, &read_pass, &reads, &snapshots);
    report.check(stats.events_ingested == events.len(), || {
        format!(
            "ingested {} of {} events",
            stats.events_ingested,
            events.len()
        )
    });
    report.check(serve_stats.is_balanced(), || {
        format!("serve ledger unbalanced: {serve_stats:?}")
    });
    let last = snapshots
        .values()
        .next_back()
        .cloned()
        .expect("initial snapshot");
    let (final_n, final_edges) = final_edge_set(&g, &events);
    let mut final_ord = OrderAssignment::new(&g, OrderKind::DegreeProduct);
    while final_ord.len() < final_n {
        final_ord.push_lowest();
    }
    let rebuild = reach_core::improved::drl(&DiGraph::from_edges(final_n, final_edges), &final_ord);
    report.check(*last == rebuild, || {
        "final churn index differs from a from-scratch DRL build".into()
    });
    // The served index's size: the initial one, since the final one
    // depends on which edges the seeded stream happened to touch.
    let mut bytes = Vec::new();
    reach_index::storage::write_index(&initial, &mut bytes).map_err(|e| e.to_string())?;
    let index_mb = bytes.len() as f64 / MIB;

    let reads_lat = Summary::of(read_pass.latency_us.clone());
    let vis_ms = Summary::of(
        stats
            .visibility_ns
            .iter()
            .map(|&ns| ns as f64 * 1e-6)
            .collect(),
    );
    report.attempted = (read_pass.sent + events.len()) as u64;
    report.failed = read_pass.failed();
    report.info("publishes", stats.publishes);
    report.info("batches", stats.batches);
    report.info("visibility_p50_ms", vis_ms.p50);
    report.info("visibility_p99_ms", vis_ms.tail);
    report.info("visibility_samples", vis_ms.n);
    report.info("event_late_us_p99", Summary::of(event_late_us).tail);
    report.info("ingest_s_per_batch", ingest_s_per_batch(&stats));
    report.info(
        "ingest_busy_frac",
        (stats.repair_ns + stats.publish_ns) as f64 * 1e-9 / wall_s,
    );
    pass_info(report, &read_pass, "reads");
    eprintln!(
        "churn: {} events in {} batches, {} publishes, {:.2} ms work per batch, visibility p50 {:.2} ms p99 {:.2} ms",
        events.len(),
        stats.batches,
        stats.publishes,
        ingest_s_per_batch(&stats) * 1e3,
        vis_ms.p50,
        vis_ms.tail
    );

    if !trace.on() {
        let quiet_setups = least_stolen(&setup_s, QUIET_STEAL);
        report.metric("setup_s", median(&quiet_setups));
        report.info("setup_samples", quiet_setups.len());
        report.info("setup_runs", setup_s.len());
        // The ingest work: repair plus publish per event, over the run.
        // Not per batch: once the repair thread is near saturation, a
        // slower host makes bigger batches, so the time per batch
        // follows the host more than the program.
        report.metric("build_s", ingest_s_per_event(&stats));
        report.info("build_samples", stats.events_ingested);
        report.info("initial_build_s", median(&initial_s));
        report.metric("index_mb", index_mb);
        // One-second windows.
        let quiet = Summary::of(quieter_half(&read_pass.latency_us, READ_RATE as usize));
        report.metric("query_p50_us", quiet.p50);
        // Unbounded tails, where ten samples lie beyond them.
        for (name, value) in [("query_p90_us", quiet.p90), ("query_p99_us", quiet.p99)] {
            if let Some(v) = value {
                report.info(name, v);
            }
        }
        report.info("query_samples", reads_lat.n);
        if let Some(v) = reads_lat.p99 {
            report.info("query_run_p99_us", v);
        }
        return Ok(());
    }

    let per_event = |x: f64| x / stats.events_ingested.max(1) as f64;
    report.metric(
        "graph.generate_s",
        median(&trace.durations_s("graph.generate")),
    );
    report.metric("graph.order_s", median(&trace.durations_s("graph.order")));
    report.metric(
        "ingest.events_per_batch",
        stats.events_ingested as f64 / stats.batches.max(1) as f64,
    );
    report.metric(
        "ingest.repair_us_per_event",
        per_event(stats.repair_ns as f64) / 1e3,
    );
    report.metric(
        "ingest.repair_ms_per_batch",
        stats.repair_ns as f64 / stats.batches.max(1) as f64 / 1e6,
    );
    report.metric(
        "ingest.publish_ms",
        stats.publish_ns as f64 / stats.publishes.max(1) as f64 / 1e6,
    );
    report.metric(
        "ingest.busy_frac",
        (stats.repair_ns + stats.publish_ns) as f64 * 1e-9 / wall_s,
    );
    report.metric("ingest.flushes_by_age", stats.flushes_by_age as f64);
    report.metric("ingest.visibility_p50_ms", vis_ms.p50);
    report.metric("ingest.visibility_p99_ms", vis_ms.tail);
    report.metric(
        "core.refloods_per_event",
        per_event(stats.repair.refloods() as f64),
    );
    report.metric(
        "core.refined_per_event",
        per_event(stats.repair.refined() as f64),
    );
    report.metric("serve.batch_us_p50", reads_lat.p50);
    report.metric("serve.batch_us_p99", reads_lat.tail);
    serve_stat_metrics(report, &serve_stats);

    // Index isolation: the read frames straight through the initial
    // index, bracketed by untraced passes for the recorder's overhead.
    let run_direct = |t: &Trace| {
        direct_pass(reads.len(), Some(READ_RATE * 4.0), t, "index.frame", |i| {
            reads[i]
                .iter()
                .map(|&(s, t)| IndexSource::query_scan(&*initial, s, t).1)
                .sum()
        })
    };
    let ((frame_ns, scanned), overhead) = traced_with_overhead(trace, run_direct);
    let frame = Summary::of(frame_ns);
    let ppf = READ_PAIRS as f64;
    report.metric("index.entries", initial.num_entries() as f64);
    report.metric("index.query_ns_p50", frame.p50 / ppf);
    report.metric("index.query_ns_p99", frame.tail / ppf);
    report.metric(
        "index.scan_len_mean",
        scanned as f64 / (reads.len() as f64 * ppf),
    );
    report.metric("serve.self_us", reads_lat.p50 - frame.p50 / 1e3);
    report.metric("trace.overhead_frac", overhead);
    Ok(())
}

/// The workload's capacity: each step of [`LADDER`] offers events and
/// reads in the workload's fixed ratio from a fresh set-up, and passes
/// when the visibility p99 stays within [`VISIBILITY_LIMIT_MS`] and does
/// not grow, the read p99 stays within [`READ_LIMIT_US`], no read fails
/// and the read backlog does not grow. A failing step is tried again, up
/// to [`LADDER_TRIES`] times. Every read is checked.
fn ladder(args: &Args, report: &mut Report) -> Result<(), String> {
    let quiet = Trace::new(false);
    let mut best = 0.0;
    let mut steps = Vec::new();
    'rates: for &event_rate in LADDER {
        for _ in 0..LADDER_TRIES {
            let read_rate = event_rate * READS_PER_EVENT;
            let seconds = LADDER_STEP_S;
            let (st, _) = set_up(args, &quiet, frames_needed(event_rate, seconds));
            let reads = read_frames(&st.g, args.seed, read_rate, seconds);
            let (pass, _, wall_s) = paced(&st, &reads, event_rate, read_rate, seconds, &quiet)?;
            let (stats, serve_stats, snapshots) = st.stop();
            check_reads(report, &pass, &reads, &snapshots);
            report.check(serve_stats.is_balanced(), || {
                format!("serve ledger unbalanced: {serve_stats:?}")
            });

            let vis_ms: Vec<f64> = stats
                .visibility_ns
                .iter()
                .map(|&ns| ns as f64 * 1e-6)
                .collect();
            let vis = Summary::of(vis_ms.clone());
            let vis_growing = visibility_growing(&vis_ms);
            let lat = Summary::of(pass.latency_us.clone());
            let busy = (stats.repair_ns + stats.publish_ns) as f64 * 1e-9 / wall_s;
            let ok = vis.tail <= VISIBILITY_LIMIT_MS
                && !vis_growing
                && lat.tail <= READ_LIMIT_US
                && pass.failed() == 0
                && !pass.backlog_growing();
            eprintln!(
            "ladder {event_rate:>5} events/s {read_rate:>6} reads/s: visibility p50 {:>6.1} ms p99 {:>6.1} ms growing {vis_growing}, busy {busy:.2}, {:.1} events/batch; reads p50 {:>7.1} us p99 {:>9.1} us failed {} growing {} -> {}",
            vis.p50,
            vis.tail,
            stats.events_ingested as f64 / stats.batches.max(1) as f64,
            lat.p50,
            lat.tail,
            pass.failed(),
            pass.backlog_growing(),
            if ok { "ok" } else { "over" }
        );
            steps.push(format!(
            "{{\"events_per_s\": {event_rate}, \"reads_per_s\": {read_rate}, \"visibility_p99_ms\": {}, \"busy_frac\": {busy}, \"p99_us\": {}, \"failed\": {}, \"ok\": {ok}}}",
            vis.tail,
            lat.tail,
            pass.failed()
        ));
            if ok {
                best = event_rate;
                continue 'rates;
            }
        }
        break;
    }
    report.info("ladder", format!("[{}]", steps.join(", ")));
    report.info("visibility_limit_ms", VISIBILITY_LIMIT_MS);
    report.info("latency_limit_us", READ_LIMIT_US);
    report.metric("event_max_per_s", best);
    report.metric("query_max_qps", best * READS_PER_EVENT * READ_PAIRS as f64);
    Ok(())
}

/// Visibility grows over a step when the pipeline falls behind: the
/// samples (in ingest order) rise by more than a tenth of the limit from
/// the first half to the second and keep rising into the last quarter.
fn visibility_growing(vis_ms: &[f64]) -> bool {
    let as_units: Vec<u64> = vis_ms.iter().map(|&ms| ms.round() as u64).collect();
    backlog_growing(&as_units, VISIBILITY_LIMIT_MS / 10.0)
}

/// Submits the events on their schedule; returns per-event lateness µs
/// (backpressure from a full ingest queue shows up here).
fn feed_events(ingest: &Ingest, events: &[EdgeEvent], rate: f64, trace: &Trace) -> Vec<f64> {
    let sched = Schedule {
        start: Instant::now() + Duration::from_millis(5),
        rate,
    };
    let base = trace.reserve(events.len() as u64);
    let mut late = Vec::with_capacity(events.len());
    let mut spans: Vec<Span> = Vec::new();
    let mut i = 0usize;
    while i < events.len() {
        let now = Instant::now();
        let due = sched.due_count(now).min(events.len());
        if due <= i {
            std::thread::sleep(sched.due(i).saturating_duration_since(now));
            continue;
        }
        for (j, ev) in events.iter().enumerate().take(due).skip(i) {
            let t0 = Instant::now();
            ingest.submit(*ev).expect("pipeline open");
            late.push(lateness(sched.due(j), t0).as_secs_f64() * 1e6);
            if trace.on() {
                spans.push(trace.span(
                    base + j as u64,
                    "ingest.submit",
                    t0,
                    Instant::now(),
                    None,
                    j as u64,
                ));
            }
        }
        i = due;
    }
    trace.extend(spans);
    late
}

fn check_reads(
    report: &mut Report,
    pass: &Pass,
    reads: &[Pairs],
    snapshots: &BTreeMap<u64, Arc<ReachIndex>>,
) {
    let mut bad = 0usize;
    let mut unknown = 0usize;
    for (i, a) in pass.answers.iter().enumerate() {
        let Some((answers, generation)) = a else {
            continue;
        };
        let Some(snap) = snapshots.get(generation) else {
            unknown += 1;
            continue;
        };
        let want: Vec<bool> = reads[i].iter().map(|&(s, t)| snap.query(s, t)).collect();
        if *answers != want {
            bad += 1;
        }
    }
    report.check(bad == 0 && unknown == 0, || {
        format!("churn reads: {bad} differ from their generation's snapshot, {unknown} from unrecorded generations")
    });
}
