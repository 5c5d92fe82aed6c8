#!/usr/bin/env python3
"""Smoke test of the end-to-end store benchmark.

Builds the benchmark (as run.py does), then:
  * runs the binary's self-test: the same seed gives byte-identical op
    streams, and every result check rejects a wrong result;
  * runs each workload for a fraction of a second, untraced and traced,
    and asserts that every metric named for it is present and that
    failed_frac is 0;
  * runs each workload once with one deliberately wrong result injected and
    asserts that exactly that one is counted;
  * asserts that the same seed gives the same stream digest in two
    processes, and another seed another digest.

Run from the repository root: python3 e2ebench/smoke_test.py (exit 0 = pass).
"""
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SECONDS = 0.4
SEED = 7
COMMON = ["throughput_mops", "latency_p50_us", "latency_p99_us",
          "failed_frac", "setup_s", "mem_bytes_per_key"]
BY_WORKLOAD = {
    "kv_mixed": ["get_p50_us", "get_p99_us", "put_p99_us", "scan_p99_us"],
    "hot_update": ["get_p50_us", "get_p99_us", "put_p99_us"],
    "big_multiget": ["get_p50_us", "get_p99_us", "put_p99_us"],
    "txn_transfer": ["txn_p50_us", "txn_p99_us"],
}

failures = []


def expect(condition, what):
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def main():
    out = run.build()
    end_to_end, per_layer = run.declared_metrics()
    selftest = subprocess.run([str(out / "storebench"), "--selftest"])
    expect(selftest.returncode == 0, "storebench --selftest")

    for workload in run.WORKLOADS:
        correct, attempted, failed, metrics, meta = run.run_workload(
            out, workload, SEED, SECONDS, False, "smoke")
        named = COMMON + BY_WORKLOAD[workload]
        expect(set(named) <= set(metrics),
               f"{workload}: every end-to-end metric present")
        expect(set(end_to_end) <= set(metrics),
               f"{workload}: every BENCHMARK.json end_to_end metric present")
        expect(correct and failed == 0 and attempted > 0
               and metrics["failed_frac"]["value"] == 0,
               f"{workload}: failed_frac == 0 over {attempted} requests")
        digest = meta["stream_digest"]

        correct, _, failed, metrics, _ = run.run_workload(
            out, workload, SEED, 2 * SECONDS, True, "smoke")
        expect(set(per_layer) <= set(metrics),
               f"{workload}: every per-layer metric present when traced")
        expect(correct and failed == 0, f"{workload}: traced run correct")

        wrong = run.run_binary(out / "storebench", workload, SEED, SECONDS,
                               "--inject-wrong")
        expect(not wrong["correct"] and wrong["failed"] == 1,
               f"{workload}: one injected wrong result counted "
               f"(failed={wrong['failed']})")
        expect(wrong["meta"]["stream_digest"] == digest,
               f"{workload}: same seed, same op streams")
        other = run.run_binary(out / "storebench", workload, SEED + 1, 0.1)
        expect(other["meta"]["stream_digest"] != digest,
               f"{workload}: another seed, other op streams")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
