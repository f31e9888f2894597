#!/usr/bin/env python3
"""The repository benchmark: build, wire-small, mmap-bulk and churn.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, seed 1
    python3 perfbench/run.py --workload churn --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload wire-small --trace 1   # per-layer run
    python3 perfbench/run.py --ladder             # rate ladders: capacity
    python3 perfbench/run.py --self-test          # the benchmark's own tests

It builds `perfbench/` (a cargo package of its own, into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs each workload in its
own process, checks every answer, prints each metric with its unit and
sample count, and ends stdout with one JSON line: `correct`, `attempted`,
`failed` and `metrics` (name -> value and unit). `--trace 0` gives the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.
Results and trace spans land in `.bench_out/`. Exits 1 on a wrong answer,
2 when the benchmark cannot run.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["build", "wire-small", "mmap-bulk", "churn"]
ALL = tuple(WORKLOADS)
SERVING = ("wire-small", "mmap-bulk", "churn")
WIRE = ("wire-small", "mmap-bulk")
LADDERS = ("wire-small", "mmap-bulk", "churn")
RUN_TIMEOUT_S = 175
# Above this share of CPU time taken by the host, a run's times are
# flagged (see host_steal_frac in the results file).
STEAL_WARN = 0.05

# Per-layer metrics: unit, better, the end-to-end metric and workload a
# change to the layer should move, and the workloads the layer does work
# on. On every other workload the layer does no work and reads 0.
LAYERS = {
    "graph.generate_s": ("s", "lower", "setup_s", "build", ALL),
    "graph.order_s": ("s", "lower", "setup_s", "build", ALL),
    "core.drlb_serial_s": ("s", "lower", "build_s", "wire-small", ("build", "wire-small", "mmap-bulk")),
    "vcs.supersteps": ("count", "lower", "build_s", "build", ("build",)),
    "vcs.local_msgs": ("count", "lower", "build_s", "build", ("build",)),
    "vcs.remote_msgs": ("count", "lower", "build_s", "build", ("build",)),
    "vcs.remote_mb": ("MiB", "lower", "build_s", "build", ("build",)),
    "vcs.broadcast_mb": ("MiB", "lower", "build_s", "build", ("build",)),
    "vcs.comm_mb": ("MiB", "lower", "build_s", "build", ("build",)),
    "vcs.compute_serial_s": ("s", "lower", "build_s", "build", ("build",)),
    "vcs.compute_max_s": ("s", "lower", "build_s", "build", ("build",)),
    "vcs.non_compute_s": ("s", "lower", "build_s", "build", ("build",)),
    "vcs.parallel_eff": ("ratio", "higher", "build_s", "build", ("build",)),
    "vcs.engine_over_core": ("ratio", "lower", "build_s", "build", ("build",)),
    "index.entries": ("count", "lower", "index_mb", "build", ALL),
    "index.query_ns_p50": ("ns", "lower", "query_p50_us", "mmap-bulk", ALL),
    "index.query_ns_p99": ("ns", "lower", "query_p50_us", "mmap-bulk", ALL),
    "index.scan_len_mean": ("count", "lower", "query_p50_us", "mmap-bulk", ALL),
    "index.bloom_skip_frac": ("ratio", "higher", "query_p50_us", "mmap-bulk", ("mmap-bulk",)),
    "index.encode_s": ("s", "lower", "setup_s", "mmap-bulk", ("mmap-bulk",)),
    "index.open_ms": ("ms", "lower", "setup_s", "mmap-bulk", ("mmap-bulk",)),
    "serve.batch_us_p50": ("us", "lower", "query_p50_us", "wire-small", SERVING),
    "serve.batch_us_p99": ("us", "lower", "query_p50_us", "churn", SERVING),
    "serve.self_us": ("us", "lower", "query_p50_us", "wire-small", SERVING),
    "serve.cache_hit_rate": ("ratio", "higher", "query_p50_us", "wire-small", SERVING),
    "serve.max_queue_depth": ("count", "lower", "query_p50_us", "wire-small", SERVING),
    "serve.rejected": ("count", "lower", "query_p50_us", "wire-small", SERVING),
    "serve.swaps": ("count", "lower", "query_p50_us", "churn", SERVING),
    "served.frame_us_p50": ("us", "lower", "query_p50_us", "wire-small", WIRE),
    "served.frame_us_p99": ("us", "lower", "query_p50_us", "wire-small", WIRE),
    "served.self_us": ("us", "lower", "query_p50_us", "wire-small", WIRE),
    "served.error_frames.overloaded": ("count", "lower", "query_p50_us", "wire-small", WIRE),
    "served.error_frames.quota_exceeded": ("count", "lower", "query_p50_us", "wire-small", WIRE),
    "served.error_frames.timeout": ("count", "lower", "query_p50_us", "wire-small", WIRE),
    "served.error_frames.other": ("count", "lower", "query_p50_us", "wire-small", WIRE),
    "gen.late_us_p99": ("us", "lower", "query_p50_us", "wire-small", WIRE),
    "ingest.events_per_batch": ("count", "higher", "build_s", "churn", ("churn",)),
    "ingest.repair_us_per_event": ("us", "lower", "build_s", "churn", ("churn",)),
    "ingest.repair_ms_per_batch": ("ms", "lower", "build_s", "churn", ("churn",)),
    "ingest.publish_ms": ("ms", "lower", "build_s", "churn", ("churn",)),
    "ingest.busy_frac": ("ratio", "lower", "build_s", "churn", ("churn",)),
    "ingest.flushes_by_age": ("count", "higher", "build_s", "churn", ("churn",)),
    "ingest.visibility_p50_ms": ("ms", "lower", "build_s", "churn", ("churn",)),
    "ingest.visibility_p99_ms": ("ms", "lower", "build_s", "churn", ("churn",)),
    "core.refloods_per_event": ("count", "lower", "build_s", "churn", ("churn",)),
    "core.refined_per_event": ("count", "lower", "build_s", "churn", ("churn",)),
    "trace.overhead_frac": ("ratio", "lower", "query_p50_us", "wire-small", ALL),
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    with open(path) as f:
        return json.load(f)


def schema_errors(bench):
    """Problems with BENCHMARK.json or the layer table; empty when sound."""
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        errs.append(f"top-level keys {sorted(bench)} != {sorted(keys)}")
    workloads = [w["name"] for w in bench.get("workloads", [])]
    if workloads != WORKLOADS:
        errs.append(f"workloads {workloads} != {WORKLOADS}")
    e2e = bench.get("end_to_end", [])
    layer = bench.get("per_layer", [])
    if not 1 <= len(e2e) <= 16:
        errs.append(f"{len(e2e)} end-to-end metrics, need 1..16")
    if not 1 <= len(layer) <= 128:
        errs.append(f"{len(layer)} per-layer metrics, need 1..128")
    names = [m["name"] for m in e2e + layer] + workloads
    for n in names:
        if not NAME_RE.match(n):
            errs.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        errs.append("a name is used twice")
    for m in e2e + layer:
        if not UNIT_RE.match(m.get("unit", "")):
            errs.append(f"bad unit for {m['name']}")
        if m.get("better") not in ("lower", "higher"):
            errs.append(f"bad 'better' for {m['name']}")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            errs.append(f"end-to-end {m['name']} keys {sorted(m)}")
        elif not 0 < m["bound"] <= 0.25:
            errs.append(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errs.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] != max(m["bound"] for m in e2e):
        errs.append("setup_s must have the largest bound")
    for m in layer:
        if set(m) != {"name", "unit", "better"}:
            errs.append(f"per-layer {m['name']} keys {sorted(m)}")
    if [m["name"] for m in layer] != list(LAYERS):
        errs.append("per_layer names differ from the layer table in run.py")
    e2e_names = {m["name"] for m in e2e}
    for name, (unit, better, moves, on, runs_on) in LAYERS.items():
        match = [m for m in layer if m["name"] == name]
        if match and (match[0]["unit"], match[0]["better"]) != (unit, better):
            errs.append(f"{name}: unit/better differ between BENCHMARK.json and run.py")
        if moves not in e2e_names:
            errs.append(f"{name} moves unknown end-to-end metric {moves!r}")
        if on not in WORKLOADS or not set(runs_on) <= set(WORKLOADS):
            errs.append(f"{name} names an unknown workload")
        if on not in runs_on:
            errs.append(f"{name} should move {moves} on {on}, where it does no work")
    if not 1 <= bench.get("run_seconds", 0) <= 60:
        errs.append("run_seconds outside 1..60")
    return errs


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    return subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode


def commit():
    """The git commit, or outside a git checkout a hash of the sources built."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for pattern in ("crates/**/*.rs", "crates/**/Cargo.toml", "src/**/*.rs", "perfbench/src/*.rs"):
        files += sorted(ROOT.glob(pattern))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def run_one(binary, workload, seed, seconds, trace, revision, extra=()):
    """Runs one workload in its own process; returns its parsed report."""
    out_dir = ROOT / ".bench_out"
    cmd = [
        str(binary), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out_dir), "--commit", revision, *extra,
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"perfbench: {workload} failed to run (exit {proc.returncode})")
    report = json.loads(lines[-1])
    report["exit"] = proc.returncode
    return report


def shape(bench, workload, trace, report):
    """The result line for one run: every metric of the mode, with units."""
    if trace:
        wanted = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    else:
        wanted = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    got = report["metrics"]
    metrics = {}
    for name, unit in wanted:
        if name in got and got[name] is not None:
            metrics[name] = {"value": got[name], "unit": unit}
        elif trace and workload not in LAYERS[name][4]:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            raise SystemExit(f"perfbench: {workload} did not measure {name}")
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def print_table(workload, result, info):
    samples = {
        "query_p50_us": info.get("query_samples"),
        "build_s": info.get("build_samples"),
        "setup_s": info.get("setup_samples"),
    }
    print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        n = samples.get(name)
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']:<8}" + (f" n={n}" if n else ""))
    # Workload-specific figures that are not bounded metrics.
    for key in ("query_p90_us", "query_p99_us", "query_run_p99_us", "cli_build_s", "build_comm_mb",
                "visibility_p50_ms", "visibility_p99_ms", "visibility_samples", "initial_build_s", "ingest_s_per_batch",
                "host_steal_frac"):
        if key in info:
            print(f"  ({key} = {info[key]:.6g})")
    steal = info.get("host_steal_frac", 0)
    if steal > STEAL_WARN:
        log(f"perfbench: warning: the host took {steal:.0%} of the CPU time during this {workload} run; "
            "its times measured a busy host as much as the program")


def self_test(bench):
    errs = schema_errors(bench)
    for e in errs:
        log("schema:", e)
    log(f"schema check: {'FAILED' if errs else 'ok'} "
        f"({len(bench['end_to_end'])} end-to-end, {len(bench['per_layer'])} per-layer)")
    code = cargo("test")
    return 0 if not errs and code == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ladder", action="store_true",
                    help="climb the rate ladders of wire-small, mmap-bulk and churn (query_max_qps)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    try:
        bench = load_benchmark()
    except (OSError, ValueError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 2
    if args.self_test:
        return self_test(bench)
    if cargo("build") != 0:
        log("perfbench: build failed")
        return 2
    binary = target_dir() / "release" / "perfbench"
    seconds = args.seconds or bench["run_seconds"]
    revision = commit()

    if args.ladder:
        results = {}
        for w in [args.workload] if args.workload else LADDERS:
            if w not in LADDERS:
                log(f"perfbench: {w} has no rate ladder")
                return 2
            rep = run_one(binary, w, args.seed, seconds, 0, revision, ["--ladder"])
            info = rep["info"]
            results[w] = {"correct": rep["correct"], **rep["metrics"],
                          **{k: info[k] for k in ("ladder", "host_steal_frac") if k in info}}
            print(f"== {w}: " + ", ".join(f"{k} = {v:.6g}" for k, v in rep["metrics"].items()))
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1

    workloads = [args.workload] if args.workload else WORKLOADS
    results = {}
    for w in workloads:
        rep = run_one(binary, w, args.seed, seconds, args.trace, revision)
        result = shape(bench, w, args.trace, rep)
        out = ROOT / ".bench_out" / f"result-{w}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(dict(result, info=rep["info"]), indent=1) + "\n")
        print_table(w, result, rep["info"])
        results[w] = result
    correct = all(r["correct"] for r in results.values())
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
