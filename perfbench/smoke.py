#!/usr/bin/env python3
"""The benchmark's own tests, on a few items of seed 0.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Checks that every metric is printed with
its unit, that the spans listed for each workload fire there and the
predicted zeros hold, that traced counts repeat exactly, that self times
add up to the traced wall time, and that the reference checker rejects
flipped verdicts.  Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402

SEED = 0
# Few enough items to be quick, enough to reach every listed span.
ITEMS = {"braid-sweep": 60, "coset-box": 39, "verify-long": 12}
# Self times may miss the traced wall time only by the loop's own work
# between items.
SELF_TOLERANCE = 0.02

FIRES = {
    "braid-sweep": (
        "braid.automorphism", "braid.gassner", "braid.reduce", "endo.compose",
        "endo.apply", "fox.word_coords", "fox.jacobian", "matrices.rank",
        "matrices.det", "matrices.kernel", "laurent.div", "laurent.text",
        "fixpoint.commutator", "magnus.oracle",
    ),
    "coset-box": (
        "words.parse", "words.pow", "endo.apply", "fox.word_coords", "fox.jacobian",
        "magnus.oracle", "magnus.realize", "matrices.rank", "matrices.det",
        "matrices.kernel", "matrices.cramer", "laurent.div", "laurent.text",
        "fixpoint.commutator", "fixpoint.route", "fixpoint.solve",
    ),
    "verify-long": (
        "words.parse", "words.pow", "endo.apply", "fox.word_coords",
        "magnus.oracle", "laurent.text",
    ),
}
# The zeros the prediction table states, by metric name prefix.
ZERO = {
    "braid-sweep": ("fixpoint.route", "fixpoint.solve"),
    "coset-box": ("braid.", "endo.compose"),
    "verify-long": ("braid.", "matrices.", "endo.compose", "fixpoint."),
}


def bench(workload, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
        "--items", str(ITEMS[workload]),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=run.ROOT)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def fail(message):
    print("FAIL:", message)
    raise SystemExit(1)


def check_printed(workload, lines, result, names):
    if not any(line.startswith("failed_share: ") and " ratio " in line for line in lines):
        fail(f"{workload}: failed_share not printed with its unit")
    for name in names:
        unit = run.unit_of(name)
        if f"{name}: {result['metrics'][name]['value']} {unit}" not in lines:
            fail(f"{workload}: {name} not printed with its unit {unit}")
    if set(result["metrics"]) != set(names):
        fail(f"{workload}: metrics {sorted(set(result['metrics']) ^ set(names))} unexpected or missing")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload}: run not correct: {result}")
    print(f"ok   {workload}: {len(names)} metrics printed with units")


def check_trace(workload, metrics, again):
    value = {k: m["value"] for k, m in metrics.items()}
    for span in FIRES[workload]:
        key = "cli.self_s" if span == "cli.main" else span + "_s"
        calls = value.get(span + "_calls", 1)
        if value[key] <= 0 or calls <= 0:
            fail(f"{workload}: span {span} did not fire")
    for prefix in ZERO[workload]:
        fired = [k for k, v in value.items() if k.startswith(prefix) and not k.endswith("_share") and v]
        if fired:
            fail(f"{workload}: predicted zero but nonzero: {fired}")
    counts = {k for k in value if not k.endswith("_s") and not k.endswith("_share")}
    diff = [k for k in counts if value[k] != again[k]["value"]]
    if diff:
        fail(f"{workload}: counts differ between two traced runs: {diff}")
    if abs(value["trace.self_share"] - 1) > SELF_TOLERANCE:
        fail(f"{workload}: self times sum to {value['trace.self_share']:.4f} of the traced wall time")
    print(f"ok   {workload}: {len(FIRES[workload])} spans fire, predicted zeros hold, "
          f"counts repeat, self times sum to {value['trace.self_share']:.4f} of wall")


def first_report(workload, index):
    """An item and the program's report on it, by an in-process call."""
    sys.path.insert(0, run.SRC)
    from metafix import cli
    import worker

    items, _ = inputs.generate(workload, SEED)
    item = items[index]
    cwd = os.getcwd()
    workdir = os.path.join(run.OUT, f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        os.chdir(workdir)
        worker.write_files([item], ".")
        code, out, err = worker.call(cli.main, item["argv"])
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        fail(f"{workload} item {index}: exit {code}: {err}")
    return item, json.loads(out)


def rejects(workload, item, report, answers=None, what=""):
    checker = refcheck.Checker(workload, random.Random(1), answers)
    if checker.check(0, item, report):
        return
    fail(f"checker accepted {what}")


def check_checker():
    item, report = first_report("verify-long", 0)
    if refcheck.Checker("verify-long", random.Random(1)).check(0, item, report):
        fail("checker rejected a correct verify answer")
    flipped = copy.deepcopy(report)
    flipped["fixed"] = not flipped["fixed"]
    rejects("verify-long", item, flipped, what="a flipped fixed verdict")

    items, _ = inputs.generate("braid-sweep", SEED)
    index = next(i for i, it in enumerate(items) if len(it["braid"]) == 2)
    item, report = first_report("braid-sweep", index)
    flipped = copy.deepcopy(report)
    flipped["braid"]["alexander_vanishes"] = not flipped["braid"]["alexander_vanishes"]
    rejects("braid-sweep", item, flipped, what="a flipped Alexander verdict")
    flipped = copy.deepcopy(report)
    flipped["rank_JmI"] += 1
    rejects("braid-sweep", item, flipped, what="a wrong rank")

    items, _ = inputs.generate("coset-box", SEED)
    index = next(i for i, it in enumerate(items) if "infinite_fix.endo" in it["argv"])
    item, report = first_report("coset-box", index)
    statuses = refcheck.coset_statuses(report)
    k = statuses.index("F")
    flipped = copy.deepcopy(report)
    box = refcheck.coset_box(len(item["images"]))
    for c in flipped["fix"]["cosets"]:
        if tuple(c["a"]) == box[k]:
            c["status"], c["witness"], c["verified"] = "none", None, False
    rejects("coset-box", item, flipped, what="a found coset turned into none")
    k = statuses.index("N")
    recorded = {0: statuses[:k] + "F" + statuses[k + 1:]}
    rejects("coset-box", item, report, answers=recorded, what="a none where the record says found")
    print("ok   checker rejects flipped verdicts and answers that differ from the record")


def check_benchmark_json():
    """BENCHMARK.json names the metrics and units run.py prints."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(inputs.WORKLOADS):
        fail("BENCHMARK.json workloads differ from inputs.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != table:
            fail(f"BENCHMARK.json {key} differs from run.py")
    print("ok   BENCHMARK.json matches the metrics run.py prints")


def main():
    check_benchmark_json()
    for workload in inputs.WORKLOADS:
        lines, result = bench(workload, 0)
        check_printed(workload, lines, result, list(run.END_TO_END))
        lines, result = bench(workload, 1)
        _, again = bench(workload, 1)
        check_printed(workload, lines, result, list(run.PER_LAYER))
        check_trace(workload, result["metrics"], again["metrics"])
    check_checker()
    print("all smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
