#!/usr/bin/env python3
"""End-to-end benchmark of the metafix command line.

    python3 perfbench/run.py --workload coset-box --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 35

Run from the root of a checkout; the program is imported from ./src.

Workloads (inputs built by inputs.py from --seed, without metafix):
  braid-sweep  `metafix braid 3 WORD --json` for every pure braid word of
               length <= 3 on three strands (259 items).
  coset-box    `metafix analyze FILE --bound 1 --json` on three fixtures and
               36 IA endomorphisms on 2 and 3 generators, 12 rank-deficient.
  verify-long  `metafix verify FILE WORD --json` for 32 words of up to a
               few thousand letters, written as powered factors.

Each workload runs in its own process as a closed loop (one client, one
thread).  Set-up is measured in several fresh processes and reported as
their median.  With --trace 0 the loop makes full passes over the items
(a pass takes a second or less) until --seconds have gone by, and the
end-to-end metrics are printed; with --trace 1 it makes an untimed pass,
then three pairs of an untraced and a traced pass, and prints the
per-layer metrics of the fastest traced pass.
Every answer is checked by refcheck.py; any wrong answer makes the exit
code 1.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import inputs  # noqa: E402

SETUP_SAMPLES = 11
CHILD_TIMEOUT = 170

# item_tail_ms is the mean latency of this share of the items, the slowest.
TAIL_SHARE = 0.1

END_TO_END = {
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decided_share": "ratio",
}

# Self time in seconds per traced span ("cli.self" is cli.main's).
PER_LAYER_S = (
    "cli.self", "words.parse", "words.pow", "endo.apply", "endo.compose",
    "braid.automorphism", "braid.gassner", "braid.reduce", "fox.word_coords",
    "fox.jacobian", "magnus.oracle", "magnus.realize", "matrices.rank",
    "matrices.det", "matrices.kernel", "matrices.cramer", "laurent.div",
    "laurent.text", "fixpoint.commutator", "fixpoint.route", "fixpoint.solve",
)
PER_LAYER = {
    **{name + "_s": "s" for name in PER_LAYER_S},
    **dict.fromkeys((
        "words.parse_calls", "words.pow_calls", "endo.apply_calls", "endo.compose_calls",
        "braid.automorphism_calls", "fox.word_coords_calls", "magnus.oracle_calls",
        "magnus.realize_calls", "matrices.rank_calls", "matrices.pivots_calls",
        "matrices.det_calls", "matrices.kernel_calls", "matrices.cramer_calls",
        "laurent.mul_calls", "laurent.mul_terms", "laurent.div_calls",
        "fixpoint.solve_calls", "fixpoint.route.unique", "fixpoint.route.decoupled",
        "fixpoint.route.rank_deficient", "fixpoint.status.found",
        "fixpoint.status.none", "fixpoint.status.undecided", "trace.spans",
    ), "count"),
    **dict.fromkeys(("braid.image_letters_max", "fox.letters", "magnus.witness_letters"), "letters"),
    **dict.fromkeys((
        "laurent.div_ok_share", "matrices.cramer_ring_share", "trace.overhead_share",
        "trace.self_share",
    ), "ratio"),
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
}


def worker_cmd(args, mode, workdir, trace_out=None, answers=True):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--src", SRC, "--workdir", workdir, "--items", str(args.items),
    ]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if not answers:
        cmd.append("--no-answers")
    return cmd


def start_worker(args, mode, workdir, trace_out=None, answers=True):
    """Start a worker; return it with its set-up time: from the start of
    the process to its READY line, after the untimed warm-up item."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        worker_cmd(args, mode, workdir, trace_out, answers),
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if not line.startswith("READY"):
        proc.kill()
        proc.wait()
        raise SystemExit(f"{args.workload}: worker failed during set-up (exit {proc.returncode})")
    return proc, setup, line.split()[1]


def wait_worker(proc):
    """Wait for a worker to exit, killing it after CHILD_TIMEOUT; returns
    the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker failed (exit {proc.returncode})")
    return out


def finish_worker(proc):
    """The result object a measuring worker prints last."""
    out = wait_worker(proc).strip()
    if not out:
        raise SystemExit("worker printed no result")
    return json.loads(out.splitlines()[-1])


def setup_samples(args, workdir, count):
    times = []
    for k in range(count):
        proc, setup, _ = start_worker(args, "setup", f"{workdir}-{k}")
        wait_worker(proc)
        times.append(setup)
    return times


def end_to_end(res, setups):
    # The speed of a shared machine drifts by a third in phases of seconds,
    # while the fastest of many runs of the same item, spread over the whole
    # run, moves much less.  An item's latency is therefore its
    # fastest pass, and the throughput of the closed loop is items over the
    # sum of those latencies.
    lat = sorted(min(v) for v in res["latency_s"])
    executions = sum(len(v) for v in res["latency_s"])
    slowest = lat[-math.ceil(TAIL_SHARE * len(lat)):]
    m = {
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_tail_ms": statistics.fmean(slowest) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "decided_share": res["decided"] / res["asked"],
    }
    notes = [
        f"item_tail_ms is the mean of the slowest {len(slowest)} of {len(lat)} items, "
        f"each item's fastest of {min(len(v) for v in res['latency_s'])}+ passes",
        f"setup_s is the median of {len(setups)} fresh processes: "
        + ", ".join(f"{s:.3f}" for s in setups),
        f"decided_share = {res['decided']} / {res['asked']}",
        f"wall clock: {executions} executions in {res['wall_s']:.3f} s, {executions / res['wall_s']:.4f} items/s",
    ]
    return m, executions, notes


def per_layer(res):
    self_s = res["self_s"]
    counts = dict(res["counts"], **res["maxima"])
    m = {}
    for name in PER_LAYER_S:
        m[name + "_s"] = self_s.get("cli.main" if name == "cli.self" else name, 0.0)
    for name, unit in PER_LAYER.items():
        if unit in ("count", "letters"):
            m[name] = counts.get(name, 0)
    div_calls = counts.get("laurent.div_calls", 0)
    cramer_calls = counts.get("matrices.cramer_calls", 0)
    m["laurent.div_ok_share"] = counts.get("laurent.div_ok", 0) / div_calls if div_calls else 0.0
    m["matrices.cramer_ring_share"] = counts.get("matrices.cramer_ring", 0) / cramer_calls if cramer_calls else 0.0
    m["trace.untraced_s"] = res["untraced_s"]
    m["trace.traced_s"] = res["traced_s"]
    m["trace.overhead_share"] = res["traced_s"] / res["untraced_s"] - 1
    m["trace.self_share"] = sum(self_s.values()) / res["traced_s"]
    m["trace.spans"] = res["spans"]
    return {name: m[name] for name in PER_LAYER}


def unit_of(name):
    return END_TO_END.get(name) or PER_LAYER[name]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=0, help="run only the first N items (smoke tests)")
    return ap.parse_args(argv)


def run(args):
    """Run one workload; returns the result object, the worker's raw
    results and human-readable lines."""
    if not os.path.isfile(os.path.join(SRC, "metafix", "cli.py")):
        raise SystemExit(f"no metafix sources under {SRC}; run from the root of a checkout")
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        # Half the set-up samples come before the measured process and half
        # after it, so that one burst of load cannot slow them all.
        setups = setup_samples(args, f"{workdir}-a", SETUP_SAMPLES // 2)
        trace_out = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv") if args.trace else None
        proc, setup, digest = start_worker(args, "trace" if args.trace else "measure", workdir, trace_out)
        setups.append(setup)
        res = finish_worker(proc)
        setups += setup_samples(args, f"{workdir}-b", SETUP_SAMPLES - len(setups))
    finally:
        base = os.path.basename(workdir)
        for path in os.listdir(OUT):
            if path == base or path.startswith(base + "-"):
                shutil.rmtree(os.path.join(OUT, path), ignore_errors=True)

    lines = [f"workload {args.workload}, seed {args.seed}, input digest {digest}, {res['items']} items"]
    if args.trace:
        metrics = per_layer(res)
        executions = res["items"]
        wrong_runs = len(set(res["wrong"]) | set(res["failed_runs"]))
        if res["missing"]:
            lines.append("not found, so not traced: " + ", ".join(res["missing"]))
        lines.append(f"spans written to {os.path.relpath(trace_out, ROOT)}")
    else:
        metrics, executions, notes = end_to_end(res, setups)
        passes = [len(v) for v in res["latency_s"]]
        wrong = set(res["wrong"])
        wrong_runs = sum(passes[i] for i in wrong) + sum(1 for i in res["failed_runs"] if i not in wrong)
        lines += notes
    failed_share = wrong_runs / executions
    lines.append(f"failed_share: {failed_share} ratio ({wrong_runs} of {executions} executions)")
    if res["unchecked"]:
        lines.append(f"{res['unchecked']} coset answers not compared: no recorded answers for seed {args.seed}")
    lines += res["problems"][:20]
    result = {
        "correct": wrong_runs == 0,
        "attempted": executions,
        "failed": wrong_runs,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, res, lines


def main(argv=None):
    """With --workload all, runs each workload in turn and the last line
    maps each workload to its result object."""
    args = parse_args(argv)
    results = {}
    for workload in inputs.WORKLOADS if args.workload == "all" else (args.workload,):
        result, _, lines = run(argparse.Namespace(**dict(vars(args), workload=workload)))
        for line in lines:
            print(line)
        for name, m in result["metrics"].items():
            print(f"{name}: {m['value']} {m['unit']}")
        results[workload] = result
    print(json.dumps(results if args.workload == "all" else result))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
