//! `build`: the paper's headline operation. WEBW at scale 1.0, built by
//! the distributed DRLb on 8 simulated nodes and by the `reach build`
//! CLI on the same graph written as an edge list, then queried with
//! uniform pairs straight through the index. No serving code runs.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use reach_core::BatchParams;
use reach_datasets::{workload, QueryMix};
use reach_graph::{OrderAssignment, OrderKind};
use reach_index::{IndexSource, ReachIndex};
use reach_vcs::{NetworkModel, RunStats};

use crate::load::{direct_pass, traced_with_overhead};
use crate::stats::{least_stolen, median, quieter_half, Summary, QUIET_STEAL};
use crate::trace::Trace;
use crate::{dataset_graph, nproc, stream_seed, Args, Report, StealMeter, MIB};

pub const DATASET: &str = "WEBW";
pub const SCALE: f64 = 1.0;
pub const SIM_NODES: usize = 8;
/// Engine builds per run, at least.
const MIN_ROUNDS: usize = 2;
/// `reach build` runs per run, after the engine builds: its time is
/// reported, not bounded.
const CLI_ROUNDS: usize = 2;
/// Distinct direct query frames on the built index.
const QUERY_FRAMES: usize = 20_000;
/// Frames timed after each engine build (the distinct ones cycled),
/// about 0.3 s. A traced run times one cycle.
const QUERY_SLICE: usize = 50_000;
/// Frames per window of the quieter half, about 60 ms: five windows per
/// slice, so the selection sees the host's spells, which come and go
/// within a second, rather than whole slices.
const QUERY_WINDOW: usize = 10_000;
const PAIRS_PER_FRAME: usize = 16;
/// Set-ups before the first engine build, and after each one: spread
/// over the run, their median does not hang on the spell the host was
/// in during its first second.
const SETUP_FIRST: usize = 9;
const SETUP_PER_ROUND: usize = 4;

/// The `reach` CLI built next to this binary.
fn reach_cli() -> PathBuf {
    let me = std::env::current_exe().expect("own path");
    me.with_file_name(format!("reach{}", std::env::consts::EXE_SUFFIX))
}

pub fn run(args: &Args, trace: &Trace, report: &mut Report) -> Result<(), String> {
    let threads = nproc();
    report.info_str("dataset", DATASET);
    report.info("scale", SCALE);
    report.info("sim_nodes", SIM_NODES);
    report.info("engine_threads", threads);
    let edges_path = args.out.join(format!("build-seed{}.edges", args.seed));
    let index_path = args.out.join(format!("build-seed{}.ridx", args.seed));

    // Set-up: generate, order, write the edge list — repeated, here and
    // between the engine builds below; the median of the ones the host
    // left alone. It takes tens of milliseconds; many repetitions steady
    // the median.
    let mut setup_s = Vec::new();
    let set_up = |setup_s: &mut Vec<(f64, f64)>| -> Result<_, String> {
        let steal = StealMeter::start();
        let t0 = Instant::now();
        let root = trace.id();
        let g = trace.time("graph.generate", Some(root), || {
            dataset_graph(DATASET, SCALE)
        });
        let ord = trace.time("graph.order", Some(root), || {
            OrderAssignment::new(&g, OrderKind::DegreeProduct)
        });
        trace
            .time("setup.write_edges", Some(root), || {
                reach_graph::io::write_edge_list_file(&g, &edges_path)
            })
            .map_err(|e| format!("write {}: {e}", edges_path.display()))?;
        trace.record(root, "setup", t0, Instant::now(), None, 0);
        setup_s.push((t0.elapsed().as_secs_f64(), steal.share()));
        Ok((g, ord))
    };
    let mut inputs = None;
    for _ in 0..SETUP_FIRST {
        drop(inputs.take());
        inputs = Some(set_up(&mut setup_s)?);
    }
    let (g, ord) = inputs.expect("set up at least once");
    report.info("vertices", g.num_vertices());
    report.info("edges", g.num_edges());

    // The paper's query time: uniform pairs on the built index,
    // straight through `ReachIndex`.
    let pairs = workload(
        &g,
        QueryMix::Uniform,
        QUERY_FRAMES * PAIRS_PER_FRAME,
        stream_seed(args.seed, 1),
    );
    let frames: Vec<&[(u32, u32)]> = pairs.chunks(PAIRS_PER_FRAME).collect();
    let query = |idx: &ReachIndex, first: usize, n: usize, t: &Trace| {
        direct_pass(n, None, t, "index.frame", |i| {
            frames[(first + i) % frames.len()]
                .iter()
                .map(|&(s, t)| IndexSource::query_scan(idx, s, t).1)
                .sum()
        })
    };

    // Timed: engine builds for the run's seconds, each followed by a
    // slice of the query frames on its index (untraced runs), then the
    // CLI builds.
    let t_run = Instant::now();
    let mut sliced_ns = Vec::new();
    let mut sliced_scan = 0usize;
    let mut engine_s = Vec::new();
    let mut engine: Option<(ReachIndex, RunStats)> = None;
    while engine_s.len() < MIN_ROUNDS || t_run.elapsed().as_secs_f64() < args.seconds {
        drop(engine.take());
        let steal = StealMeter::start();
        let t0 = Instant::now();
        let built = trace.time("vcs.drlb_engine", None, || {
            reach_drl_dist::drlb::run_configured(
                &g,
                &ord,
                BatchParams::default(),
                SIM_NODES,
                NetworkModel::default(),
                None,
                Some(threads),
            )
        });
        engine_s.push((t0.elapsed().as_secs_f64(), steal.share()));
        let built = built.map_err(|e| format!("engine build failed: {e:?}"))?;
        if !trace.on() {
            let (ns, scanned) = query(&built.0, sliced_ns.len(), QUERY_SLICE, trace);
            sliced_ns.extend(ns);
            sliced_scan += scanned;
        }
        engine = Some(built);
        for _ in 0..SETUP_PER_ROUND {
            set_up(&mut setup_s)?;
        }
    }
    let (idx, run_stats) = engine.expect("built at least once");
    let quiet_builds = least_stolen(&engine_s, QUIET_STEAL);
    let build_s = median(&quiet_builds);
    let mut cli_s = Vec::new();
    for _ in 0..CLI_ROUNDS {
        let t0 = Instant::now();
        trace.time("cli.build", None, || cli_build(&edges_path, &index_path))?;
        cli_s.push(t0.elapsed().as_secs_f64());
        // Flush the CLI's file outside the timings, so its write-back
        // does not land in the next build.
        sync(&index_path)?;
    }

    // Correctness: engine == serial DRLb == the CLI's file.
    let t0 = Instant::now();
    let serial = trace.time("core.drlb_serial", None, || {
        reach_core::drlb(&g, &ord, BatchParams::default())
    });
    let serial_s = t0.elapsed().as_secs_f64();
    report.check(idx == serial, || {
        "engine DRLb index differs from serial drlb".into()
    });
    let from_cli =
        reach_index::load_index(&index_path).map_err(|e| format!("load CLI index: {e}"))?;
    report.check(from_cli == serial, || {
        "`reach build` index differs from serial drlb".into()
    });
    drop((serial, from_cli));

    let ((frame_ns, scanned), overhead) = if trace.on() {
        traced_with_overhead(trace, |t| query(&idx, 0, frames.len(), t))
    } else {
        ((sliced_ns, sliced_scan), 0.0)
    };
    let index_mb = std::fs::metadata(&index_path)
        .map_err(|e| e.to_string())?
        .len() as f64
        / MIB;
    report.attempted = (engine_s.len() + cli_s.len() + frame_ns.len()) as u64;

    let frame_us = Summary::of(frame_ns.iter().map(|ns| ns / 1e3).collect());
    let comm_mb = (run_stats.comm.remote_bytes + run_stats.comm.broadcast_bytes) as f64 / MIB;
    eprintln!(
        "build: engine {build_s:.3}s x{} cli {:.3}s x{} comm {comm_mb:.1} MiB index {index_mb:.2} MiB",
        engine_s.len(),
        median(&cli_s),
        cli_s.len()
    );
    if !trace.on() {
        let quiet_setups = least_stolen(&setup_s, QUIET_STEAL);
        report.metric("setup_s", median(&quiet_setups));
        report.info("setup_samples", quiet_setups.len());
        report.info("setup_runs", setup_s.len());
        report.metric("build_s", build_s);
        report.info("build_runs", engine_s.len());
        report.metric("index_mb", index_mb);
        let us: Vec<f64> = frame_ns.iter().map(|ns| ns / 1e3).collect();
        let quiet = Summary::of(quieter_half(&us, QUERY_WINDOW));
        let slices: Vec<String> = us
            .chunks(QUERY_SLICE)
            .map(|c| format!("{:.3}", median(c)))
            .collect();
        report.info("query_slice_p50_us", format!("[{}]", slices.join(", ")));
        report.metric("query_p50_us", quiet.p50);
        // Unbounded tails, where ten samples lie beyond them.
        for (name, value) in [("query_p90_us", quiet.p90), ("query_p99_us", quiet.p99)] {
            if let Some(v) = value {
                report.info(name, v);
            }
        }
        if let Some(v) = frame_us.p99 {
            report.info("query_run_p99_us", v);
        }
        report.info("build_samples", quiet_builds.len());
        report.info("cli_build_s", median(&cli_s));
        report.info("cli_build_samples", cli_s.len());
        report.info("build_comm_mb", comm_mb);
        report.info("query_samples", frame_us.n);
        return Ok(());
    }

    report.metric(
        "graph.generate_s",
        median(&trace.durations_s("graph.generate")),
    );
    report.metric("graph.order_s", median(&trace.durations_s("graph.order")));
    report.metric("core.drlb_serial_s", serial_s);
    vcs_metrics(report, &run_stats, build_s, serial_s, threads);
    report.metric("index.entries", idx.num_entries() as f64);
    let per_query = |ns: f64| ns / PAIRS_PER_FRAME as f64;
    let frame_ns_sum = Summary::of(frame_ns.clone());
    report.metric("index.query_ns_p50", per_query(frame_ns_sum.p50));
    report.metric("index.query_ns_p99", per_query(frame_ns_sum.tail));
    report.metric("index.scan_len_mean", scanned as f64 / pairs.len() as f64);
    report.metric("trace.overhead_frac", overhead);
    Ok(())
}

fn sync(path: &Path) -> Result<(), String> {
    std::fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("sync {}: {e}", path.display()))
}

fn cli_build(edges: &Path, index: &Path) -> Result<(), String> {
    let out = Command::new(reach_cli())
        .arg("build")
        .arg(edges)
        .arg("-o")
        .arg(index)
        .output()
        .map_err(|e| format!("spawn reach: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "reach build failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

/// The `vcs.*` family from the engine's [`RunStats`].
fn vcs_metrics(report: &mut Report, st: &RunStats, build_s: f64, serial_s: f64, threads: usize) {
    report.metric("vcs.supersteps", st.supersteps as f64);
    report.metric("vcs.local_msgs", st.comm.local_messages as f64);
    report.metric("vcs.remote_msgs", st.comm.remote_messages as f64);
    report.metric("vcs.remote_mb", st.comm.remote_bytes as f64 / MIB);
    report.metric("vcs.broadcast_mb", st.comm.broadcast_bytes as f64 / MIB);
    report.metric(
        "vcs.comm_mb",
        (st.comm.remote_bytes + st.comm.broadcast_bytes) as f64 / MIB,
    );
    report.metric("vcs.compute_serial_s", st.compute_seconds_serial);
    report.metric("vcs.compute_max_s", st.compute_seconds);
    report.metric(
        "vcs.non_compute_s",
        build_s - st.compute_seconds_serial / threads as f64,
    );
    report.metric(
        "vcs.parallel_eff",
        st.compute_seconds_serial / (threads as f64 * build_s),
    );
    report.metric("vcs.engine_over_core", build_s / serial_s);
}
