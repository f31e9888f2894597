//! `wire-small` and `mmap-bulk`: a live `reach_served::Server` on
//! loopback driven by one open-loop connection.
//!
//! * `wire-small` serves the in-RAM WEBW DRLb index; 16-pair frames of
//!   the `positive` mix make per-frame costs (framing, quota, admission,
//!   shard fan-out, pickup) dominate and give the result cache hits.
//! * `mmap-bulk` serves CITE from a v2 delta+Bloom file through
//!   `MmapIndex`; 4096-pair frames of the `negative` mix make per-query
//!   costs (label decode, Bloom gate, merge) dominate.
//!
//! The traced run adds the isolation passes: the same frames at the same
//! rate through an in-process `QueryService` (same config and backing)
//! and straight through `IndexSource::query`, so the frame time splits
//! into `served` self, `serve` self and index time.

use std::sync::Arc;
use std::time::Instant;

use reach_core::BatchParams;
use reach_datasets::{negative_mix, standard_mixes, workload, QueryMix};
use reach_graph::{OrderAssignment, OrderKind};
use reach_index::{BloomConfig, CodecId, IndexSource, MmapIndex, ReachIndex};
use reach_serve::{QueryService, ServeConfig, ServeStats};
use reach_served::server::{IndexMode, ServedConfig, Server};

use crate::load::{direct_pass, overhead_frac, service_pass, wire_pass, Pairs, Pass};
use crate::stats::{least_stolen, median, quieter_half, Summary, QUIET_STEAL};
use crate::trace::Trace;
use crate::{dataset_graph, nproc, stream_seed, Args, Report, StealMeter, LADDER_TRIES, MIB};

/// Set-ups before the timed pass, and after it (untraced runs only).
const SETUP_BEFORE: usize = 3;
const SETUP_AFTER: usize = 3;

pub struct Spec {
    pub name: &'static str,
    pub dataset: &'static str,
    pub scale: f64,
    pub mix: fn() -> (&'static str, QueryMix),
    pub pairs_per_frame: usize,
    /// Nominal offered rate, frames per second: a quarter of the highest
    /// step the parent commit passed on `ladder`. Not half: when the host
    /// steals 10–20 % of the CPU for seconds on end, in one of its slow
    /// spells, half of the quiet-host capacity is more than the server
    /// keeps up with, and whole runs queue.
    pub rate: f64,
    /// Distinct frames, cycled; `None` sends a fresh stream.
    pub pool_frames: Option<usize>,
    pub mmap: bool,
    /// The fixed rate ladder for `query_max_qps`, frames per second.
    pub ladder: &'static [f64],
    /// The ladder's latency limit on p99, µs.
    pub limit_us: f64,
}

pub const WIRE_SMALL: Spec = Spec {
    name: "wire-small",
    dataset: "WEBW",
    scale: 1.0,
    mix: || standard_mixes()[1],
    pairs_per_frame: 16,
    rate: 10000.0,
    pool_frames: None,
    mmap: false,
    ladder: &[
        1000.0, 2000.0, 4000.0, 8000.0, 12000.0, 16000.0, 24000.0, 32000.0, 40000.0, 48000.0,
        64000.0,
    ],
    limit_us: 5000.0,
};

pub const MMAP_BULK: Spec = Spec {
    name: "mmap-bulk",
    dataset: "CITE",
    scale: 1.0,
    mix: negative_mix,
    pairs_per_frame: 4096,
    rate: 88.0,
    // 128 × 4096 pairs ≫ the default cache, so cycling never hits.
    pool_frames: Some(128),
    mmap: true,
    ladder: &[
        50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 500.0, 600.0,
    ],
    limit_us: 50_000.0,
};

/// The client keeps no more frames in flight than the server's quota.
fn window() -> usize {
    reach_served::QuotaConfig::default().max_inflight as usize
}

/// The reach-served flag defaults, with serve workers = nproc.
fn served_config(spec: &Spec, index_path: Option<std::path::PathBuf>) -> ServedConfig {
    ServedConfig {
        serve: ServeConfig::with_workers(nproc()),
        reload_path: index_path,
        index_mode: if spec.mmap {
            IndexMode::Mmap
        } else {
            IndexMode::Ram
        },
        ..ServedConfig::default()
    }
}

struct Setup {
    server: Server,
    /// Answers are checked against this in-RAM index.
    truth: Arc<ReachIndex>,
    /// What the server serves (the same index, or the mmapped file).
    source: Arc<dyn IndexSource>,
    mmap: Option<Arc<MmapIndex>>,
    g: reach_graph::DiGraph,
}

pub fn run(spec: &Spec, args: &Args, trace: &Trace, report: &mut Report) -> Result<(), String> {
    let (mix_name, mix) = (spec.mix)();
    let rate = spec.rate;
    report.info_str("dataset", spec.dataset);
    report.info("scale", spec.scale);
    report.info_str("mix", mix_name);
    report.info("pairs_per_frame", spec.pairs_per_frame);
    report.info("offered_frames_per_s", rate);
    report.info("serve_workers", nproc());
    let index_path = args
        .out
        .join(format!("{}-seed{}.ridx", spec.name, args.seed));

    // Set-up, repeated before the timed pass and again after it, so the
    // medians of set-up and build times straddle the run rather than
    // hang on its first seconds. Each time is kept with the host's steal
    // over it.
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut current: Option<Setup> = None;
    for _ in 0..SETUP_BEFORE {
        if let Some(old) = current.take() {
            old.server.shutdown();
        }
        current = Some(set_up(
            spec,
            trace,
            &index_path,
            &mut setup_s,
            &mut build_s,
        )?);
    }
    let st = current.expect("set up at least once");
    let index_mb = if spec.mmap {
        std::fs::metadata(&index_path)
            .map_err(|e| e.to_string())?
            .len() as f64
    } else {
        let mut bytes = Vec::new();
        reach_index::storage::write_index(&st.truth, &mut bytes).map_err(|e| e.to_string())?;
        bytes.len() as f64
    } / MIB;
    report.info("vertices", st.g.num_vertices());
    report.info("edges", st.g.num_edges());

    // The frames: a fresh stream, or a cycled pool.
    let seconds = args.seconds;
    // A traced run's three wire passes may each round up by a frame.
    let spare = if trace.on() { 3 } else { 0 };
    let frames = spec
        .pool_frames
        .unwrap_or_else(|| crate::load::frames_needed(rate, seconds) + spare);
    let pairs = workload(
        &st.g,
        mix,
        frames * spec.pairs_per_frame,
        stream_seed(args.seed, 2),
    );
    let pool: Vec<Pairs> = pairs
        .chunks(spec.pairs_per_frame)
        .map(|c| c.to_vec())
        .collect();
    let expected: Vec<Vec<bool>> = pool
        .iter()
        .map(|f| f.iter().map(|&(s, t)| st.truth.query(s, t)).collect())
        .collect();
    let addr = st.server.local_addr();

    if args.ladder {
        let max = ladder(spec, addr, &pool, &expected, report);
        let stats = st.server.shutdown();
        report.check(stats.is_balanced(), || {
            format!("serve ledger unbalanced: {stats:?}")
        });
        report.metric("query_max_qps", max * spec.pairs_per_frame as f64);
        return Ok(());
    }

    if !trace.on() {
        let pass = wire_pass(addr, &pool, rate, seconds, window(), trace);
        let stats = st.server.shutdown();
        check_pass(report, &pass, &expected, 0, "wire");
        report.check(stats.is_balanced(), || {
            format!("serve ledger unbalanced: {stats:?}")
        });
        // The served index is unmapped before its file is written again.
        drop((st.truth, st.source, st.mmap));
        for _ in 0..SETUP_AFTER {
            set_up(spec, trace, &index_path, &mut setup_s, &mut build_s)?
                .server
                .shutdown();
        }
        let lat = Summary::of(pass.latency_us.clone());
        report.attempted = pass.sent as u64;
        report.failed = pass.failed();
        let quiet_setups = least_stolen(&setup_s, QUIET_STEAL);
        let quiet_builds = least_stolen(&build_s, QUIET_STEAL);
        report.metric("setup_s", median(&quiet_setups));
        report.info("setup_samples", quiet_setups.len());
        report.metric("build_s", median(&quiet_builds));
        report.info("build_samples", quiet_builds.len());
        report.metric("index_mb", index_mb);
        // One-second windows.
        let quiet = Summary::of(quieter_half(&pass.latency_us, rate.round() as usize));
        report.metric("query_p50_us", quiet.p50);
        // Unbounded tails, where ten samples lie beyond them.
        for (name, value) in [("query_p90_us", quiet.p90), ("query_p99_us", quiet.p99)] {
            if let Some(v) = value {
                report.info(name, v);
            }
        }
        report.info("query_samples", lat.n);
        if let Some(v) = lat.p99 {
            report.info("query_run_p99_us", v);
        }
        pass_info(report, &pass, "wire");
        report.info("cache_hit_rate", stats.cache_hit_rate());
        return Ok(());
    }

    // Traced run. Wire frames untraced, traced and untraced again on
    // consecutive slices of the stream (bracketing gives the recorder's
    // overhead, as in `traced_with_overhead`), then the isolation passes
    // on the traced slice.
    let third = seconds / 3.0;
    let quiet = Trace::new(false);
    let offset = |pass_frames: usize| {
        if spec.pool_frames.is_some() {
            0
        } else {
            pass_frames
        }
    };
    let before = wire_pass(addr, &pool, rate, third, window(), &quiet);
    let second_at = offset(before.sent);
    let second: Vec<Pairs> = pool[second_at..].to_vec();
    let wire = wire_pass(addr, &second, rate, third, window(), trace);
    let third_at = second_at + offset(wire.sent);
    let after = wire_pass(addr, &pool[third_at..], rate, third, window(), &quiet);
    let wire_stats = st.server.shutdown();
    check_pass(report, &before, &expected, 0, "wire (untraced)");
    check_pass(report, &wire, &expected, second_at, "wire");
    check_pass(report, &after, &expected, third_at, "wire (untraced)");
    report.check(wire_stats.is_balanced(), || {
        format!("serve ledger unbalanced: {wire_stats:?}")
    });

    let svc =
        QueryService::start_with_source(Arc::clone(&st.source), ServeConfig::with_workers(nproc()));
    let serve = service_pass(&svc, &second, 0, rate, third, trace, "serve.batch");
    let svc_stats = svc.shutdown();
    check_pass(report, &serve, &expected, second_at, "service");
    report.check(svc_stats.is_balanced(), || {
        format!("serve ledger unbalanced: {svc_stats:?}")
    });

    let direct_frames = wire.sent.min(second.len().max(1) * 64);
    let source = &st.source;
    let (frame_ns, scanned) = direct_pass(direct_frames, Some(rate), trace, "index.frame", |i| {
        second[i % second.len()]
            .iter()
            .map(|&(s, t)| source.query_scan(s, t).1)
            .sum()
    });

    let wire_lat = Summary::of(wire.latency_us.clone());
    let serve_lat = Summary::of(serve.latency_us.clone());
    let index_us = Summary::of(frame_ns.iter().map(|ns| ns / 1e3).collect());
    report.attempted = (before.sent + wire.sent + after.sent + serve.sent + direct_frames) as u64;
    report.failed = before.failed() + wire.failed() + after.failed() + serve.failed();

    report.metric(
        "graph.generate_s",
        median(&trace.durations_s("graph.generate")),
    );
    report.metric("graph.order_s", median(&trace.durations_s("graph.order")));
    report.metric(
        "core.drlb_serial_s",
        median(&least_stolen(&build_s, QUIET_STEAL)),
    );
    report.metric("index.entries", st.truth.num_entries() as f64);
    let ppf = spec.pairs_per_frame as f64;
    report.metric("index.query_ns_p50", index_us.p50 * 1e3 / ppf);
    report.metric("index.query_ns_p99", index_us.tail * 1e3 / ppf);
    report.metric(
        "index.scan_len_mean",
        scanned as f64 / (direct_frames as f64 * ppf),
    );
    if let Some(m) = &st.mmap {
        report.metric("index.encode_s", median(&trace.durations_s("index.encode")));
        report.metric(
            "index.open_ms",
            median(&trace.durations_s("index.open")) * 1e3,
        );
        report.metric("index.bloom_skip_frac", bloom_skip_frac(m, &second));
    }
    report.metric("serve.batch_us_p50", serve_lat.p50);
    report.metric("serve.batch_us_p99", serve_lat.tail);
    report.metric("serve.self_us", serve_lat.p50 - index_us.p50);
    serve_stat_metrics(report, &wire_stats);
    report.metric("served.frame_us_p50", wire_lat.p50);
    report.metric("served.frame_us_p99", wire_lat.tail);
    report.metric("served.self_us", wire_lat.p50 - serve_lat.p50);
    error_frame_metrics(report, &wire);
    report.metric("gen.late_us_p99", Summary::of(wire.late_us.clone()).tail);
    report.metric(
        "trace.overhead_frac",
        overhead_frac(
            median(&before.latency_us),
            wire_lat.p50,
            median(&after.latency_us),
        ),
    );
    pass_info(report, &wire, "wire");
    Ok(())
}

/// One set-up: generate, order, the serial DRLb build, (encode, map),
/// then the server. Pushes its time and the build's, each with the
/// host's steal over it.
fn set_up(
    spec: &Spec,
    trace: &Trace,
    index_path: &std::path::Path,
    setup_s: &mut Vec<(f64, f64)>,
    build_s: &mut Vec<(f64, f64)>,
) -> Result<Setup, String> {
    let steal = StealMeter::start();
    let t0 = Instant::now();
    let root = trace.id();
    let g = trace.time("graph.generate", Some(root), || {
        dataset_graph(spec.dataset, spec.scale)
    });
    let ord = trace.time("graph.order", Some(root), || {
        OrderAssignment::new(&g, OrderKind::DegreeProduct)
    });
    let build_steal = StealMeter::start();
    let tb = Instant::now();
    let idx = trace.time("core.drlb_serial", Some(root), || {
        reach_core::drlb(&g, &ord, BatchParams::default())
    });
    build_s.push((tb.elapsed().as_secs_f64(), build_steal.share()));
    let truth = Arc::new(idx);
    let (server, source, mmap) = if spec.mmap {
        trace
            .time("index.encode", Some(root), || {
                reach_index::save_index_v2(
                    &truth,
                    index_path,
                    CodecId::DeltaVarint,
                    Some(BloomConfig::sized_for(&truth)),
                )
            })
            .map_err(|e| format!("save v2: {e}"))?;
        // Flush it now, so its write-back cannot land in the timed phase.
        trace
            .time("setup.sync", Some(root), || {
                std::fs::File::open(index_path).and_then(|f| f.sync_all())
            })
            .map_err(|e| format!("sync {}: {e}", index_path.display()))?;
        let mapped = trace
            .time("index.open", Some(root), || MmapIndex::open(index_path))
            .map_err(|e| format!("mmap: {e}"))?;
        let mapped = Arc::new(mapped);
        let source: Arc<dyn IndexSource> = mapped.clone();
        let server = trace
            .time("served.start", Some(root), || {
                Server::start_with_source(
                    Arc::clone(&source),
                    served_config(spec, Some(index_path.to_path_buf())),
                    "127.0.0.1:0",
                )
            })
            .map_err(|e| format!("bind: {e}"))?;
        (server, source, Some(mapped))
    } else {
        let server = trace
            .time("served.start", Some(root), || {
                Server::start(Arc::clone(&truth), served_config(spec, None), "127.0.0.1:0")
            })
            .map_err(|e| format!("bind: {e}"))?;
        let source: Arc<dyn IndexSource> = truth.clone();
        (server, source, None)
    };
    trace.record(root, "setup", t0, Instant::now(), None, 0);
    setup_s.push((t0.elapsed().as_secs_f64(), steal.share()));
    Ok(Setup {
        server,
        truth,
        source,
        mmap,
        g,
    })
}

/// Climbs the fixed ladder; returns the highest rate (frames/s) whose
/// p99 met the limit with nothing failed and no growing backlog. Each
/// step runs long enough to put ten samples beyond its p99; a step that
/// fails is tried again, up to [`LADDER_TRIES`] times, so one host
/// hiccup does not end the climb.
fn ladder(
    spec: &Spec,
    addr: std::net::SocketAddr,
    pool: &[Pairs],
    expected: &[Vec<bool>],
    report: &mut Report,
) -> f64 {
    let quiet = Trace::new(false);
    let mut best = 0.0;
    let mut steps = Vec::new();
    'rates: for &rate in spec.ladder {
        for _ in 0..LADDER_TRIES {
            let seconds = (1100.0 / rate).max(2.0);
            let pass = wire_pass(addr, pool, rate, seconds, window(), &quiet);
            check_pass(report, &pass, expected, 0, "ladder");
            let lat = Summary::of(pass.latency_us.clone());
            let p99 = lat.tail;
            let ok = p99 <= spec.limit_us && pass.failed() == 0 && !pass.backlog_growing();
            eprintln!(
                "ladder {rate:>8} frames/s: p50 {:>10.1} us p99 {p99:>10.1} us failed {} backlog growing {} -> {}",
                lat.p50,
                pass.failed(),
                pass.backlog_growing(),
                if ok { "ok" } else { "over" }
            );
            steps.push(format!(
                "{{\"rate\": {rate}, \"p50_us\": {}, \"p99_us\": {p99}, \"failed\": {}, \"ok\": {ok}}}",
                lat.p50,
                pass.failed()
            ));
            if ok {
                best = rate;
                continue 'rates;
            }
        }
        break;
    }
    report.info("ladder", format!("[{}]", steps.join(", ")));
    report.info("latency_limit_us", spec.limit_us);
    best
}

/// Every answered frame must equal the direct answers for its pairs.
pub fn check_pass(
    report: &mut Report,
    pass: &Pass,
    expected: &[Vec<bool>],
    offset: usize,
    what: &str,
) {
    let mut bad = 0usize;
    let mut first = None;
    for (i, a) in pass.answers.iter().enumerate() {
        if let Some((answers, _)) = a {
            if *answers != expected[(offset + i) % expected.len()] {
                bad += 1;
                first.get_or_insert(i);
            }
        }
    }
    report.check(bad == 0, || {
        format!("{what}: {bad} frames differ from direct queries (first: frame {first:?})")
    });
}

pub fn pass_info(report: &mut Report, pass: &Pass, what: &str) {
    let late = Summary::of(pass.late_us.clone());
    let mut lat = pass.latency_us.clone();
    lat.sort_by(f64::total_cmp);
    let pct: Vec<String> = [0.5, 0.9, 0.95, 0.99, 0.999]
        .iter()
        .map(|&p| format!("\"p{}\": {}", p * 100.0, crate::stats::percentile(&lat, p)))
        .collect();
    report.info(
        &format!("{what}_latency_us"),
        format!("{{{}}}", pct.join(", ")),
    );
    // p50/p99 of each 500-frame stretch, in send order: drift over a run.
    let stretches: Vec<String> = pass
        .latency_us
        .chunks(500)
        .map(|c| {
            let s = Summary::of(c.to_vec());
            format!("[{:.0}, {:.0}]", s.p50, s.tail)
        })
        .collect();
    report.info(
        &format!("{what}_stretches_us"),
        format!("[{}]", stretches.join(", ")),
    );
    report.info(&format!("{what}_frames"), pass.sent);
    report.info(&format!("{what}_late_us_p99"), late.tail);
    report.info(&format!("{what}_backlog_growing"), pass.backlog_growing());
    report.info(
        &format!("{what}_backlog_max"),
        pass.backlog.iter().max().copied().unwrap_or(0),
    );
    let errors: Vec<String> = pass
        .errors
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    report.info(
        &format!("{what}_errors"),
        format!("{{{}}}", errors.join(", ")),
    );
    eprintln!(
        "{what}: {} frames, late p99 {:.1} us, backlog max {}, growing {}, errors {:?}",
        pass.sent,
        late.tail,
        pass.backlog.iter().max().copied().unwrap_or(0),
        pass.backlog_growing(),
        pass.errors
    );
}

pub fn serve_stat_metrics(report: &mut Report, s: &ServeStats) {
    report.metric("serve.cache_hit_rate", s.cache_hit_rate());
    report.metric("serve.max_queue_depth", s.max_queue_depth as f64);
    report.metric("serve.rejected", s.rejected() as f64);
    report.metric("serve.swaps", s.swaps as f64);
}

/// Error frames by the codes an open-loop client can provoke.
fn error_frame_metrics(report: &mut Report, pass: &Pass) {
    let count = |k: &str| pass.errors.get(k).copied().unwrap_or(0) as f64;
    report.metric("served.error_frames.overloaded", count("Overloaded"));
    report.metric("served.error_frames.quota_exceeded", count("QuotaExceeded"));
    report.metric("served.error_frames.timeout", count("timeout"));
    let known = count("Overloaded") + count("QuotaExceeded") + count("timeout");
    report.metric("served.error_frames.other", pass.failed() as f64 - known);
}

/// Share of the frames' pairs the Bloom gate answers without a merge.
fn bloom_skip_frac(m: &MmapIndex, frames: &[Pairs]) -> f64 {
    let (mut skipped, mut total) = (0usize, 0usize);
    for f in frames {
        for &(s, t) in f {
            total += 1;
            if m.bloom_gate(s, t).0 == Some(false) {
                skipped += 1;
            }
        }
    }
    skipped as f64 / total.max(1) as f64
}
