"""One workload in one process: set up, run the closed loop, check answers.

Started by run.py; not meant to be run by hand.  Prints "READY <digest>"
once set-up is done (import, input generation and writing, one untimed
warm-up item), then, unless --mode is "setup", one JSON line with the raw
results.  Each item is one in-process call of metafix.cli.main with the
CLI's default flags and its stdout captured; one client, one thread, the
next item only after the previous one returns.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import sys
import time

import inputs
import refcheck

HERE = os.path.dirname(os.path.abspath(__file__))
ANSWERS = os.path.join(HERE, "answers", "coset-box.json")
_TIMING = re.compile(r'"timing": [-+0-9.e]+')
# Pairs of untraced and traced passes in a traced run.
TRACE_ROUNDS = 3


def call(main, argv):
    """(exit code, stdout, error text) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # an exception in the program is a failed item
        return None, out.getvalue(), f"{type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()


def stripped_digest(text):
    """Digest of an answer without its run time, for comparing repeats."""
    return hashlib.sha256(_TIMING.sub("", text).encode()).digest()


def write_files(items, workdir):
    for item in items:
        for name, text in item["files"].items():
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write(text)


def load_answers(seed, digest):
    """Recorded coset statuses for this seed, as {item index: letters}, or
    None when the seed was never recorded."""
    if not os.path.exists(ANSWERS):
        return None
    with open(ANSWERS) as fh:
        entry = json.load(fh)["seeds"].get(str(seed))
    if entry is None:
        return None
    if entry["digest"] != digest:
        raise SystemExit(f"answers for seed {seed} were recorded for other inputs")
    return dict(enumerate(refcheck.expand(s) for s in entry["statuses"].split()))


class Answers:
    """Checks each item's first answer as soon as it arrives, so that no
    output has to be kept, and compares later answers with the first."""

    def __init__(self, workload, seed, items, recorded):
        self.workload = workload
        self.items = items
        self.checker = refcheck.Checker(workload, random.Random(f"check:{workload}:{seed}"), recorded)
        self.first_seen = [None] * len(items)
        self.statuses = [None] * len(items)
        self.wrong, self.problems, self.failed_runs = [], [], []
        self.asked = self.decided = 0

    def add(self, i, code, out, err):
        seen = (code, stripped_digest(out))
        if self.first_seen[i] is not None:
            if seen != self.first_seen[i]:
                self.failed_runs.append(i)
            return
        self.first_seen[i] = seen
        item = self.items[i]
        coset = self.workload == "coset-box"
        self.asked += len(refcheck.coset_box(len(item["images"]))) if coset else 1
        issues = []
        if code != 0:
            issues.append(f"exit code {code}: {err.strip()[:200]}")
        else:
            try:
                report = json.loads(out)
            except ValueError as e:
                issues.append(f"output is not JSON: {e}")
            else:
                issues = self.checker.check(i, item, report)
                if not issues:
                    self.decided += refcheck.decided(self.workload, report)
                    if coset:
                        self.statuses[i] = refcheck.coset_statuses(report)
        if issues:
            self.wrong.append(i)
            self.problems.append(f"item {i} ({' '.join(item['argv'])[:80]}): {issues[0]}")

    def summary(self):
        return {
            "wrong": self.wrong, "failed_runs": self.failed_runs,
            "problems": self.problems, "asked": self.asked,
            "decided": self.decided, "unchecked": self.checker.unchecked,
            "statuses": self.statuses if self.workload == "coset-box" else None,
        }


def timed_passes(main, items, seconds, answers):
    """Full passes over the items until `seconds` have gone by.  Returns the
    wall time and the latencies of each item, one per pass.  Checking an
    answer happens between items, outside their latencies."""
    lat = [[] for _ in items]
    start = time.perf_counter()
    while True:
        for i, item in enumerate(items):
            t0 = time.perf_counter()
            code, out, err = call(main, item["argv"])
            lat[i].append(time.perf_counter() - t0)
            answers.add(i, code, out, err)
        if time.perf_counter() - start >= seconds:
            break
    return time.perf_counter() - start, lat


def one_pass(main, items, tracer=None):
    """Wall time and results of one pass over the items."""
    results = []
    start = time.perf_counter()
    for i, item in enumerate(items):
        if tracer is None:
            results.append(call(main, item["argv"]))
        else:
            results.append(tracer.run_item(i, lambda: call(main, item["argv"])))
    return time.perf_counter() - start, results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--items", type=int, default=0)
    ap.add_argument("--no-answers", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    from metafix import cli

    items, digest = inputs.generate(args.workload, args.seed)
    if args.items:
        items = items[: args.items]
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    write_files(items, ".")
    warm = inputs.WARMUP[args.workload]
    write_files([warm], ".")
    code, _, err = call(cli.main, warm["argv"])
    if code != 0:
        raise SystemExit(f"warm-up item failed with exit code {code}: {err}")
    print("READY", digest, flush=True)
    if args.mode == "setup":
        return 0
    recorded = None
    if args.workload == "coset-box" and not args.no_answers:
        recorded = load_answers(args.seed, digest)
    answers = Answers(args.workload, args.seed, items, recorded)

    out = {"digest": digest, "items": len(items)}
    if args.mode == "measure":
        wall, lat = timed_passes(cli.main, items, args.seconds, answers)
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["wall_s"] = wall
        out["latency_s"] = lat
    else:
        import tracing

        # The first visit to an item is slower, so it is not timed.  Then
        # untraced and traced passes alternate, each traced pass with a
        # fresh tracer, and the fastest pass of each kind is kept, as the
        # machine's speed drifts from one pass to the next.
        _, results = one_pass(cli.main, items)
        passes = [results]
        untraced = traced = float("inf")
        for _ in range(TRACE_ROUNDS):
            wall, results = one_pass(cli.main, items)
            passes.append(results)
            untraced = min(untraced, wall)
            fresh = tracing.Tracer()
            fresh.install()
            try:
                wall, results = one_pass(cli.main, items, fresh)
            finally:
                fresh.uninstall()
            passes.append(results)
            if wall < traced:
                traced, tracer = wall, fresh
        # The first answers are checked; the later passes must repeat them.
        for runs in passes:
            for i, result in enumerate(runs):
                answers.add(i, *result)
        if args.trace_out:
            tracer.write(args.trace_out)
        out["untraced_s"] = untraced
        out["traced_s"] = traced
        out["self_s"] = tracer.self_times()
        out["counts"] = tracer.counts
        out["maxima"] = tracer.maxima
        out["missing"] = tracer.missing
        out["spans"] = len(tracer.span_name)
    out.update(answers.summary())
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
