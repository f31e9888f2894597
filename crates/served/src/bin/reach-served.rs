//! `reach-served` — serve a `.ridx` reachability index over TCP.
//!
//! ```text
//! reach-served --index <index.ridx> [--listen 127.0.0.1:7411]
//!              [--compressed | --mmap]
//!              [--workers N] [--queue-capacity N]
//!              [--default-deadline-ms N] [--max-inflight N]
//!              [--max-batch N] [--qps N] [--max-frame BYTES]
//!              [--drain-grace-ms N]
//! ```
//!
//! Build an index with the `reach` CLI (`reach build edges.txt -o
//! index.ridx`), then point this binary at it. SIGTERM/SIGINT or a wire
//! `DRAIN` frame begin a graceful drain: in-flight batches finish, new
//! work is rejected with `SHUTTING_DOWN`, and the process exits once
//! connections quiesce (or the drain grace expires). `docs/OPERATIONS.md`
//! is the full runbook; `docs/PROTOCOL.md` specifies the wire format.

use std::process::ExitCode;
use std::time::Duration;

use reach_serve::ServeConfig;
use reach_served::server::{IndexMode, ServedConfig, Server};
use reach_served::shutdown;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("reach-served: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "reach-served — serve a .ridx reachability index over TCP\n\
         \n\
         USAGE:\n\
           reach-served --index <index.ridx> [--listen ADDR:PORT]\n\
         \n\
         OPTIONS (defaults in parentheses):\n\
           --index PATH              index to serve; also the default RELOAD path (required)\n\
           --listen ADDR             listen address (127.0.0.1:7411)\n\
           --compressed              serve a v2 index from its compressed in-memory image\n\
           --mmap                    memory-map a v2 index and serve out-of-core\n\
           --workers N               service worker threads (4)\n\
           --queue-capacity N        per-worker admission queue, in sub-batches (1024)\n\
           --default-deadline-ms N   deadline for batches sent without one, 0 = none (0)\n\
           --max-inflight N          per-connection outstanding-query window (64)\n\
           --max-batch N             max (s,t) pairs per frame (4096)\n\
           --qps N                   per-connection queries/sec token bucket, 0 = off (0)\n\
           --max-frame BYTES         frame payload cap (1048576)\n\
           --drain-grace-ms N        max wait for connections to quiesce on drain (10000)\n\
         \n\
         Graceful drain: SIGTERM, SIGINT, or a wire DRAIN frame.\n\
         Hot reload: a wire RELOAD frame (empty path reloads --index).\n\
         Spec: docs/PROTOCOL.md — runbook: docs/OPERATIONS.md"
    );
}

/// Flags that take a value.
const VALUE_FLAGS: &[&str] = &[
    "--index",
    "--listen",
    "--workers",
    "--queue-capacity",
    "--default-deadline-ms",
    "--max-inflight",
    "--max-batch",
    "--qps",
    "--max-frame",
    "--drain-grace-ms",
];

/// Flags that stand alone.
const BOOL_FLAGS: &[&str] = &["--compressed", "--mmap"];

/// Rejects any argument that is not a known flag or a known flag's
/// value, so a typo (`--worker 8`) or a retired flag fails loudly
/// instead of being silently ignored.
fn check_flags(args: &[String]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUE_FLAGS.contains(&a) {
            i += 2;
        } else if BOOL_FLAGS.contains(&a) {
            i += 1;
        } else {
            return Err(format!("unknown argument {a} (see --help)"));
        }
    }
    Ok(())
}

fn bool_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("{name} requires a value"))?;
            v.parse().map_err(|_| format!("bad value for {name}: {v}"))
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    check_flags(args)?;
    let index_path: String = flag(args, "--index", String::new())?;
    if index_path.is_empty() {
        return Err("--index <index.ridx> is required (see --help)".into());
    }
    let listen: String = flag(args, "--listen", "127.0.0.1:7411".to_string())?;
    let workers: usize = flag(args, "--workers", 4)?;
    let queue_capacity: usize = flag(args, "--queue-capacity", 1024)?;
    let deadline_ms: u64 = flag(args, "--default-deadline-ms", 0)?;
    let max_inflight: u32 = flag(args, "--max-inflight", 64)?;
    let max_batch: u32 = flag(args, "--max-batch", 4096)?;
    let qps: u32 = flag(args, "--qps", 0)?;
    let max_frame: u32 = flag(args, "--max-frame", 1 << 20)?;
    let drain_grace_ms: u64 = flag(args, "--drain-grace-ms", 10_000)?;
    let mode = match (bool_flag(args, "--compressed"), bool_flag(args, "--mmap")) {
        (true, true) => return Err("--compressed and --mmap are mutually exclusive".into()),
        (true, false) => IndexMode::Compressed,
        (false, true) => IndexMode::Mmap,
        (false, false) => IndexMode::Ram,
    };

    let cfg = ServedConfig {
        serve: ServeConfig {
            workers: workers.max(1),
            queue_capacity: queue_capacity.max(1),
            default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            ..ServeConfig::default()
        },
        quota: reach_served::QuotaConfig {
            max_inflight: max_inflight.max(1),
            max_batch: max_batch.max(1),
            queries_per_sec: (qps > 0).then_some(qps),
        },
        max_frame,
        reload_path: Some(index_path.clone().into()),
        index_mode: mode,
    };

    shutdown::install();
    let source = mode
        .load(std::path::Path::new(&index_path))
        .map_err(|e| format!("cannot load {index_path}: {e}"))?;
    eprintln!(
        "loaded {index_path}: {} (mode: {})",
        source.describe(),
        mode.name()
    );
    let server = Server::start_with_source(source, cfg, &listen)
        .map_err(|e| format!("bind {listen}: {e}"))?;
    eprintln!(
        "serving on {} with {} workers (drain: SIGTERM or wire DRAIN)",
        server.local_addr(),
        workers.max(1)
    );

    // The main loop only watches for a drain trigger; all serving work
    // happens on the accept/connection/service threads.
    loop {
        if shutdown::termination_requested() {
            eprintln!("termination signal: draining");
            server.drain();
        }
        if server.is_draining() {
            let grace = Duration::from_millis(drain_grace_ms);
            if server.wait_drained(grace) {
                eprintln!("drained: all connections closed");
            } else {
                eprintln!(
                    "drain grace expired with {} connection(s) open; shutting down",
                    server.active_connections()
                );
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let stats = server.shutdown();
    eprintln!(
        "final ledger: submitted={} answered={} rejected={} shed={} swaps={} generation={}",
        stats.submitted,
        stats.answered,
        stats.rejected(),
        stats.shed,
        stats.swaps,
        stats.generation
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn known_flags_pass_the_check() {
        let ok = args(&[
            "--index",
            "x.ridx",
            "--mmap",
            "--workers",
            "8",
            "--qps",
            "0",
        ]);
        assert_eq!(check_flags(&ok), Ok(()));
    }

    #[test]
    fn unknown_and_retired_flags_are_rejected() {
        for bad in [
            args(&["--index", "x.ridx", "--worker", "8"]),
            args(&["--index", "x.ridx", "--cache", "0"]),
            args(&["--index", "x.ridx", "stray"]),
        ] {
            let err = check_flags(&bad).unwrap_err();
            assert!(err.starts_with("unknown argument"), "{err}");
            // run() refuses before touching the index file.
            assert_eq!(run(&bad), Err(err));
        }
    }
}
