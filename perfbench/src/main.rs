//! The repository benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <build|wire-small|mmap-bulk|churn> --seed N
//!           --seconds S --trace <0|1> [--out DIR] [--commit SHA] [--ladder]
//! ```
//!
//! Human-readable lines go to stderr. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics` (every metric the
//! mode measures, by name) and `info` (the run's parameters). With
//! `--trace 0` the metrics are the end-to-end set; with `--trace 1`
//! they are the per-layer set, measured by separate isolation passes
//! and spans recorded in this crate around calls into each module.
//! `perfbench/run.py` builds this binary, runs each workload in its own
//! process and attaches units. Exits 1 on any wrong answer.

mod build;
mod churn;
mod load;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;

use reach_graph::DiGraph;

use crate::trace::Trace;

/// Tries per rate-ladder step: a step passes when one of them does.
pub const LADDER_TRIES: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    pub commit: String,
    /// Runs the rate ladder instead of the nominal-rate pass.
    pub ladder: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let or = |flag: &str, default: &str| get(flag).unwrap_or_else(|| default.to_string());
    let seconds: f64 = or("--seconds", "10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: get("--workload").ok_or("--workload is required")?,
        seed: or("--seed", "1")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match or("--trace", "0").as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        out: PathBuf::from(or("--out", ".bench_out")),
        commit: or("--commit", "unknown"),
        ladder: argv.iter().any(|a| a == "--ladder"),
    })
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    info: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    mismatches: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        eprintln!("  {name:<28} {value:.6}");
        self.metrics.insert(name, value);
    }

    /// Records a run parameter (a JSON literal).
    pub fn info(&mut self, key: &str, value: impl Display) {
        self.info.insert(key.to_string(), value.to_string());
    }

    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info(key, format!("\"{}\"", value.replace('"', "'")));
    }

    /// A correctness gate: a failed check makes the run wrong, never a
    /// counted failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let w = what();
            eprintln!("MISMATCH: {w}");
            self.mismatches.push(w);
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
            .collect();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let mism: Vec<String> = self
            .mismatches
            .iter()
            .take(20)
            .map(|m| format!("\"{}\"", m.replace('"', "'")))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"info\": {{{}}}, \"mismatches\": [{}]}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", "),
            info.join(", "),
            mism.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Worker threads the load and the program may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A Table V medium scaled by `scale`, generated with the registry's
/// fixed generator seed: the dataset is a fixed input, like a file on
/// disk, while the benchmark seed draws the query and churn streams.
pub fn dataset_graph(name: &str, scale: f64) -> DiGraph {
    let mut s = reach_datasets::by_name(name).expect("known dataset");
    s.vertices = ((s.vertices as f64 * scale) as usize).max(16);
    s.edges = ((s.edges as f64 * scale) as usize).max(16);
    s.generate()
}

/// Seed for one of the workload's input streams.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    splitmix(splitmix(seed) ^ stream)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The share of this machine's CPU time the host (the hypervisor) takes
/// over a stretch of the run, from `/proc/stat`.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_steal())
    }

    /// Stolen over all jiffies since the start (0 where unknown).
    pub fn share(&self) -> f64 {
        match (self.0, cpu_steal()) {
            (Some((s0, t0)), Some((s1, t1))) => {
                s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
            }
            _ => 0.0,
        }
    }
}

/// Jiffies stolen from this machine's CPUs by the host, and all jiffies,
/// from `/proc/stat` (`None` where it is not available).
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

pub const MIB: f64 = 1024.0 * 1024.0;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let trace = Trace::new(args.trace);
    let mut report = Report::default();
    report.info_str("workload", &args.workload);
    report.info("seed", args.seed);
    report.info("seconds", args.seconds);
    report.info("trace", args.trace as u8);
    report.info("nproc", nproc());
    report.info_str("commit", &args.commit);
    eprintln!(
        "perfbench {} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc()
    );

    let steal = StealMeter::start();
    let result = match args.workload.as_str() {
        "build" => build::run(&args, &trace, &mut report),
        "wire-small" => serving::run(&serving::WIRE_SMALL, &args, &trace, &mut report),
        "mmap-bulk" => serving::run(&serving::MMAP_BULK, &args, &trace, &mut report),
        "churn" => churn::run(&args, &trace, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    // The share of CPU time the host took away during the run: a run
    // with much of it measured a busy host more than the program.
    report.info("host_steal_frac", steal.share());

    if args.trace {
        let spans = trace.spans();
        report.info("trace_spans", spans.len());
        let path = args
            .out
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("self time by span (count, total ms, self ms):");
        for (name, (n, total, selft)) in trace::self_time_by_name(&spans) {
            eprintln!(
                "  {name:<24} {n:>8} {:>12.3} {:>12.3}",
                total as f64 * 1e-6,
                selft as f64 * 1e-6
            );
        }
    } else {
        report.metric("peak_rss_mb", peak_rss_mb());
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
