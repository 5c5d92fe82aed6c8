#!/usr/bin/env python3
"""End-to-end benchmark of the sharded OptiQL store.

Builds this directory (a CMake package over the repository's src/) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench) and runs one
workload in its own process:

    python3 e2ebench/run.py --workload kv_mixed --seed 1 --seconds 10 --trace 0

--trace 0 runs the untraced build and reports BENCHMARK.json's end_to_end
metrics. --trace 1 runs the untraced build and the traced build for half
the time each, and reports the per_layer metrics plus the tracing overhead
(traced throughput against untraced). --workload all runs every workload.

Every metric the run produced is printed first, one line each with its
unit and sample count, followed by a line with the run's metadata. The last
line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["kv_mixed", "hot_update", "big_multiget", "txn_transfer"]
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    return target.resolve() / "e2ebench"


def build():
    """Configures (once) and builds both binaries; returns the build dir."""
    if not (ROOT / "src" / "store" / "sharded_store.h").is_file():
        raise BenchError(f"no store sources under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = out / "CMakeCache.txt"
        if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" \
                not in cache.read_text():
            # Configured for another checkout: start over.
            for child in out.iterdir():
                if child.name != ".lock":
                    shutil.rmtree(child) if child.is_dir() else child.unlink()
        steps = []
        if not cache.is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out), "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))
    return out


def source_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src",
             "e2ebench"], capture_output=True, text=True, env=env)
        if sha.returncode == 0 and dirty.returncode == 0:
            return sha.stdout.strip() + ("-dirty" if dirty.stdout else "")
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, *extra):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{binary.name} timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{binary.name} {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(out, workload, seed, seconds, trace, source):
    """Runs one workload; returns (correct, attempted, failed, metrics,
    meta), where metrics maps a name to {"value", "unit", "samples"}."""
    plain = run_binary(out / "storebench", workload, seed,
                       seconds / 2 if trace else seconds,
                       "--source-id", source)
    if not trace:
        return (plain["correct"], plain["attempted"], plain["failed"],
                plain["end_to_end"], plain["meta"])
    spans = out / "spans" / f"{workload}.tsv"
    spans.parent.mkdir(exist_ok=True)
    traced = run_binary(out / "storebench_traced", workload, seed,
                        seconds / 2, "--source-id", source,
                        "--spans", str(spans))
    untraced_mops = plain["end_to_end"]["throughput_mops"]["value"]
    traced_mops = traced["end_to_end"]["throughput_mops"]["value"]
    metrics = dict(traced["per_layer"])
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (untraced_mops - traced_mops) / untraced_mops,
        "unit": "%", "samples": 2}
    metrics["trace.untraced_mops"] = dict(
        plain["end_to_end"]["throughput_mops"])
    metrics["trace.traced_mops"] = dict(
        traced["end_to_end"]["throughput_mops"])
    meta = dict(traced["meta"], spans_file=str(spans))
    return (plain["correct"] and traced["correct"],
            plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], metrics, meta)


def report(workload, metrics, meta):
    print(f"== {workload}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:8s} "
              f"(samples {m['samples']})")
    print("  meta " + json.dumps(meta, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        end_to_end, per_layer = declared_metrics()
        out = build()
        source = source_id()
        names = per_layer if args.trace else end_to_end
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        all_correct, attempted, failed, picked = True, 0, 0, {}
        for workload in workloads:
            correct, att, fail, metrics, meta = run_workload(
                out, workload, args.seed, args.seconds, args.trace, source)
            report(workload, metrics, meta)
            missing = [n for n in names if n not in metrics]
            if missing:
                raise BenchError(f"{workload} lacks metrics {missing}")
            all_correct &= correct
            attempted += att
            failed += fail
            picked = {n: {"value": metrics[n]["value"],
                          "unit": metrics[n]["unit"]} for n in names}
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return 0 if all_correct else 1
    print(json.dumps({"correct": all_correct, "attempted": attempted,
                      "failed": failed, "metrics": picked}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
