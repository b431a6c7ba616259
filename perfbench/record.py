#!/usr/bin/env python3
"""Record what the benchmark compares against.

    python3 perfbench/record.py answers --seeds 0-63
    python3 perfbench/record.py baseline --seeds 0-9 --seconds 20

`answers` runs one pass of coset-box per seed and stores every coset status
in answers/coset-box.json.  A later run compares the statuses the checker
cannot prove (`none`, `undecided`) with this file: a recorded `found` or
`none` must stay, a recorded `undecided` may become anything.  Only answers
that passed every check are recorded.

`baseline` runs run.py on every workload and seed (and one traced run per
workload) and writes baseline.json: the input digest of every seed, every
metric per seed with its median and quartile spread, the reason for each
workload and the predicted effect of each layer.  Run from the root of a
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402

ANSWERS = os.path.join(HERE, "answers", "coset-box.json")
BASELINE = os.path.join(HERE, "baseline.json")

WHY = {
    "braid-sweep": "matrices (rank, kernel, det) and braid composition do the work on all 259 pure braid words of length <= 3; the coset solver never runs",
    "coset-box": "the per-coset solver and LaurentMatrix.rank do the work, with a tail from n = 3 rank-deficient inputs; braid does none",
    "verify-long": "Fox word coordinates, poly_to_text and the oracle on long words; matrices does none, so a matrices change must show no change",
}

# layer metrics -> (end-to-end metric and workload they should move,
# workloads where they are predicted to be zero).
PREDICTIONS = {
    "cli.self_s": ("item_p50_ms on verify-long, braid-sweep", "-"),
    "words.parse_s, words.parse_calls, words.pow_s, words.pow_calls": ("items_per_s on verify-long", "coset-box (about 0)"),
    "endo.apply_s, endo.apply_calls": ("items_per_s on verify-long", "-"),
    "endo.compose_s, endo.compose_calls": ("items_per_s on braid-sweep", "coset-box, verify-long"),
    "braid.automorphism_s, braid.automorphism_calls, braid.gassner_s, braid.reduce_s, braid.image_letters_max":
        ("items_per_s, item_tail_ms on braid-sweep", "coset-box, verify-long"),
    "fox.word_coords_s, fox.word_coords_calls, fox.letters, fox.jacobian_s": ("items_per_s on verify-long", "-"),
    "magnus.oracle_s, magnus.oracle_calls, magnus.realize_s, magnus.realize_calls, magnus.witness_letters":
        ("items_per_s on verify-long (oracle); item_tail_ms on coset-box (realize)", "-"),
    "matrices.rank_s, matrices.rank_calls, matrices.pivots_calls, matrices.det_s, matrices.det_calls, "
    "matrices.kernel_s, matrices.kernel_calls, matrices.cramer_s, matrices.cramer_calls, matrices.cramer_ring_share":
        ("items_per_s, item_tail_ms on coset-box; items_per_s on braid-sweep", "verify-long"),
    "laurent.mul_calls, laurent.mul_terms, laurent.div_calls, laurent.div_ok_share, laurent.div_s": ("item_tail_ms on coset-box", "-"),
    "laurent.text_s": ("item_p50_ms on verify-long", "-"),
    "fixpoint.commutator_s, fixpoint.route_s, fixpoint.solve_s, fixpoint.solve_calls, fixpoint.route.*, fixpoint.status.*":
        ("decided_share and items_per_s on coset-box", "verify-long; braid-sweep (route and solve)"),
}


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_answers(seeds):
    data = {"seeds": {}}
    if os.path.exists(ANSWERS):
        with open(ANSWERS) as fh:
            data = json.load(fh)
    os.makedirs(run.OUT, exist_ok=True)
    for seed in seeds:
        args = run.parse_args(["--workload", "coset-box", "--seed", str(seed), "--seconds", "0"])
        # Recording replaces the old entry, so do not compare with it.
        data["seeds"].pop(str(seed), None)
        workdir = os.path.join(run.OUT, f"record-{os.getpid()}")
        try:
            proc, _, digest = run.start_worker(args, "measure", workdir, answers=False)
            res = run.finish_worker(proc)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if res["wrong"] or res["failed_runs"]:
            raise SystemExit(f"seed {seed}: wrong answers, not recorded: {res['problems'][:3]}")
        data["seeds"][str(seed)] = {
            "digest": digest,
            "statuses": " ".join(refcheck.compress(s) for s in res["statuses"]),
        }
        print(f"seed {seed}: {digest}, {res['decided']} of {res['asked']} decided", flush=True)
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    os.makedirs(os.path.dirname(ANSWERS), exist_ok=True)
    with open(ANSWERS, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "iqr_share": (q[2] - q[0]) / med if med else 0.0}


def record_baseline(seeds, seconds):
    out = {"seconds": seconds, "why": WHY, "predictions": PREDICTIONS, "digests": {}, "end_to_end": {}, "per_layer": {}}
    for workload in inputs.WORKLOADS:
        out["digests"][workload] = {str(s): inputs.generate(workload, s)[1] for s in seeds}
        per_seed = {}
        for seed in seeds:
            args = run.parse_args(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)])
            result, _, _ = run.run(args)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: wrong answers")
            for name, m in result["metrics"].items():
                per_seed.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        out["end_to_end"][workload] = {
            name: {"unit": run.unit_of(name), "values": values, **spread(values)}
            for name, values in per_seed.items()
        }
        args = run.parse_args(["--workload", workload, "--seed", str(seeds[0]), "--seconds", str(seconds), "--trace", "1"])
        result, _, _ = run.run(args)
        out["per_layer"][workload] = {
            "seed": seeds[0],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        }
    with open(BASELINE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("what", choices=("answers", "baseline"))
    ap.add_argument("--seeds", required=True, help="a seed or a range such as 0-9")
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()
    if args.what == "answers":
        record_answers(seed_list(args.seeds))
    else:
        record_baseline(seed_list(args.seeds), args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
