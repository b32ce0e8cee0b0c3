#!/usr/bin/env python3
"""A tiny traced run of one workload emits every per-layer metric it owns.

    traced_test.py --bench <herc_perfbench> --herc <herc> --work <dir>
                   --out <dir> --workload edit|browse|runs

Checks the result line against the contract in BENCHMARK.json (exact
keys, every declared per-layer metric), the layer metrics the README's
table assigns to the workload (from the run's .layers.json artefact),
and the evidence that each workload does the work it exists for.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")

# The "On" column of the metric-to-layer table (README.md).
OWNED = {
    "edit": [
        "server.rtt_p50_us", "cli.write_exec_p50_us",
        "history.apply_line_us", "index.on_lines_us",
        "storage.append_p50_us", "storage.append_p99_us",
        "storage.frames_per_write", "storage.bytes_per_write",
        "replica.ship_frame_us",
    ],
    "browse": [
        "server.reply_bytes_per_read", "cli.read_exec_p50_us",
        "history.page_p50_us", "history.page_type_p50_us",
        "history.page_keyword_p50_us", "history.page_user_p50_us",
        "history.page_uses_p50_us", "history.examined_per_row",
        "index.open_s", "index.rebuild_s", "storage.open_s",
    ],
    "runs": [
        "server.read_in_run_share", "server.read_in_run_p50_us",
        "server.read_free_p50_us", "exec.run_p50_us",
        "exec.overhead_p50_us", "exec.frames_per_run",
    ],
}


def fail(message):
    sys.stderr.write("FAIL: %s\n" % message)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    for flag in ("--bench", "--herc", "--work", "--out", "--workload"):
        parser.add_argument(flag, required=True)
    args = parser.parse_args()
    seed = 7
    run = subprocess.run(
        [args.bench, "--workload", args.workload, "--seed", str(seed),
         "--seconds", "2", "--trace", "1", "--herc", args.herc,
         "--work", args.work, "--out", args.out, "--tiny"],
        capture_output=True, text=True, timeout=170)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail("exit code %d" % run.returncode)

    result = json.loads(run.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(result))
    if not result["correct"] or result["failed"] != 0:
        fail("outputs incorrect or operations failed")
    # A tiny run may lack the samples a p99 needs; every other declared
    # per-layer metric must be there.
    with open(BENCHMARK_JSON) as f:
        declared = [m["name"] for m in json.load(f)["per_layer"]]
    missing = [m for m in declared
               if m not in result["metrics"] and not m.endswith("_p99_us")]
    if missing:
        fail("declared per-layer metrics missing: %s" % missing)

    layers_path = os.path.join(
        args.out, "%s-seed%d.layers.json" % (args.workload, seed))
    with open(layers_path) as f:
        layers = json.load(f)
    missing = [m for m in OWNED[args.workload] if m not in layers]
    if missing:
        fail("metrics the table assigns to %s missing: %s"
             % (args.workload, missing))

    share = layers["server.read_in_run_share"]["value"]
    exec_metrics = [m for m in layers if m.startswith("exec.")]
    if args.workload == "runs":
        if not 0 < share < 0.35:
            fail("read_in_run_share %.3f is not far from one half" % share)
    else:
        if share != 0:
            fail("read_in_run_share %.3f on a workload without runs" % share)
        if exec_metrics:
            fail("exec metrics on a workload without runs: %s" % exec_metrics)
    if args.workload == "browse":
        paths = [m for m in layers
                 if m.startswith("history.page_") and m != "history.page_p50_us"]
        if len(paths) < 4:
            fail("browse pages used only %s" % paths)
    print("ok: %s emits its per-layer metrics" % args.workload)


if __name__ == "__main__":
    main()
