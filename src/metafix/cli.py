"""Command-line front end.

Subcommands: analyze (endomorphism file), braid (braid word), verify
(endomorphism file + word), selftest (randomized invariant batch).

Exit codes: 0 analysis completed (or help printed), 1 stdout closed by
its reader before the report or help was written (no message), 2 input
error (a WordError, which only `main` reports, or a usage error), 3
internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .braid import (
    braid_automorphism,
    commutator_witness,
    gassner,
    gassner_reduced,
    parse_braid,
)
from .endo import parse_endomorphism
from .errors import InvariantError
from .fixpoint import search_fixed
from .fox import j_minus_i, jacobian
from .laurent import poly_to_text
from .magnus import MagnusElement, is_trivial
from .matrices import LaurentMatrix
from .words import WordError, parse_digits, parse_word, word_to_text


def _matrix_json(m):
    return [[poly_to_text(e) for e in row] for row in m.entries]


def _fix_json(report):
    # every witness in a report has passed the oracle, so a witness is
    # verified exactly when it exists
    return {
        "rank_defect_class": report.rank_defect_class,
        "witness_in_commutator": (
            None
            if report.witness_in_commutator is None
            else word_to_text(report.witness_in_commutator)
        ),
        "witness_verified": report.witness_in_commutator is not None,
        "cosets": [
            {
                "a": list(c.exponents),
                "status": c.status,
                "witness": None if c.witness is None else word_to_text(c.witness),
                "verified": c.status == "found",
            }
            for c in report.cosets
        ],
    }


def _emit(report, as_json):
    # one line: without `indent` the stdlib encodes in C.  The default
    # separators keep the form `"timing": <seconds>`, which perfbench
    # strips before it compares the answers of repeated passes.
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    _pretty(report)


def _pretty(d, indent=0):
    pad = "  " * indent
    for k, v in d.items():
        if isinstance(v, dict):
            print(f"{pad}{k}:")
            _pretty(v, indent + 1)
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            print(f"{pad}{k}:")
            for item in v:
                line = ", ".join(f"{kk}={vv}" for kk, vv in item.items())
                print(f"{pad}  - {line}")
        elif isinstance(v, list) and v and isinstance(v[0], list):
            print(f"{pad}{k}:")
            for row in v:
                print(f"{pad}  [{', '.join(str(x) for x in row)}]")
        else:
            print(f"{pad}{k}: {v}")


def _read(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise WordError(str(e)) from None


# The largest coset box `analyze` accepts; the box of --bound b on n
# generators holds (2b+1)^n - 1 cosets, each one solved in turn.
MAX_COSETS = 1 << 16
# The most strands `braid` accepts; its Jacobian has strands^2 entries and
# the identity braid already takes seconds at 256 strands.
MAX_STRANDS = 128


def _number(text, name):
    """A number argument: ASCII digits only, read by `parse_digits`, so
    its error names the argument and never repeats a long run."""
    if not (text.isascii() and text.isdigit()):
        raise WordError(f"argument {name}: expected ASCII digits 0-9")
    try:
        return parse_digits(text)
    except WordError as e:
        raise WordError(f"argument {name}: {e}") from None


def cmd_analyze(args):
    bound = _number(args.bound, "--bound")
    phi = parse_endomorphism(_read(args.file))
    n = phi.rank
    # with a bound >= 1, MAX_COSETS.bit_length() generators already exceed
    # the limit, so n is clipped there and the power stays small
    if (2 * bound + 1) ** min(n, MAX_COSETS.bit_length()) - 1 > MAX_COSETS:
        raise WordError(
            f"--bound {bound} on {n} generators gives more than {MAX_COSETS} cosets"
        )
    start = time.perf_counter()
    jmi = j_minus_i(phi)
    # the rank first: its elimination then settles the determinant
    rank = jmi.rank()
    report = {
        "input": {
            "file": args.file,
            "rank": n,
            "images": [word_to_text(y) for y in phi.images],
        },
        "ia": phi.is_ia(),
        "jacobian": _matrix_json(jacobian(phi)),
        "det_JmI": poly_to_text(jmi.det()),
        "rank_JmI": rank,
        "fix": None,
        "braid": None,
    }
    if phi.is_ia():
        fix = search_fixed(phi, bound)
        report["fix"] = _fix_json(fix)
    report["timing"] = round(time.perf_counter() - start, 6)
    _emit(report, args.json)
    return 0


def cmd_braid(args):
    strands = _number(args.strands, "strands")
    if not 2 <= strands <= MAX_STRANDS:
        raise WordError(f"need 2 to {MAX_STRANDS} strands, got {strands}")
    b = parse_braid(args.word, strands)
    start = time.perf_counter()
    phi = braid_automorphism(b)
    n = phi.rank
    unreduced = gassner(phi)
    reduced = gassner_reduced(unreduced)
    jmi = j_minus_i(phi)
    vanishes = (
        (reduced - LaurentMatrix.identity(n - 1, reduced.nvars)).det().is_zero()
    )
    rank = jmi.rank()
    witness = commutator_witness(phi)
    findings = []
    if vanishes != (rank <= n - 2):
        findings.append("alexander vanishing disagrees with the rank-defect class")
    if not vanishes and witness is not None:
        findings.append(
            "commutator-subgroup fixed point found in the rank=n-1 edge case"
        )
    unreduced_json = _matrix_json(unreduced)
    report = {
        "input": {"strands": strands, "braid": str(b)},
        "ia": phi.is_ia(),
        "jacobian": unreduced_json,
        "det_JmI": poly_to_text(jmi.det()),
        "rank_JmI": rank,
        "fix": None,
        "braid": {
            "automorphism": [word_to_text(y) for y in phi.images],
            "gassner_unreduced": unreduced_json,
            "gassner_reduced": _matrix_json(reduced),
            "alexander_vanishes": vanishes,
            "commutator_witness": None if witness is None else word_to_text(witness),
            "bridge_consistent": vanishes == (witness is not None),
            "findings": findings,
        },
        "timing": round(time.perf_counter() - start, 6),
    }
    _emit(report, args.json)
    return 0


def cmd_verify(args):
    phi = parse_endomorphism(_read(args.file))
    g = parse_word(args.word, phi.rank)
    # one oracle element of the difference word gives both the answer
    # and its coordinates
    diff = MagnusElement.of_word(phi.apply(g) * g.inverse())
    report = {
        "input": {"file": args.file, "word": word_to_text(g)},
        "fixed": diff.is_identity(),
        "trivial_word": is_trivial(g),
        "difference_coords": [poly_to_text(p) for p in diff.coords],
    }
    _emit(report, args.json)
    return 0


def cmd_selftest(args):
    # imported here: no other command runs the checks or their samplers
    from . import selfcheck

    return 0 if selfcheck.run(args.seed) == 0 else 3


class _Parser(argparse.ArgumentParser):
    """argparse's own help write drops an OSError and leaves the text in
    stdout's buffer for the flush at exit; this one writes and flushes,
    so a closed stdout raises BrokenPipeError inside `main`.  The
    subcommand parsers are of the same class."""

    def print_help(self, file=None):
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


def build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="metafix",
        description=(
            "Exact fixed-point analysis for IA-endomorphisms of free "
            "metabelian groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["analyze"] = sub.add_parser("analyze", help="analyze an endomorphism file")
    p.add_argument("file")
    p.add_argument("--bound", default="2", help="coset exponent box (default 2)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = commands["braid"] = sub.add_parser("braid", help="analyze a pure braid word")
    p.add_argument("strands")
    p.add_argument("word")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_braid)

    p = commands["verify"] = sub.add_parser("verify", help="check whether a word is fixed")
    p.add_argument("file")
    p.add_argument("word")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = commands["selftest"] = sub.add_parser("selftest", help="run randomized invariant checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser, commands


# argparse keeps no state between parse_args calls, so one parser serves
# every call of `main` in a process
_PARSER, _COMMANDS = build_parser()


def _parse(argv):
    """The arguments of one call, parsed once.  A known command's parser
    reads the rest of argv itself, as the full parse would have it do;
    its prog is already "metafix <command>", so its usage, help and
    errors read the same.  The full parse is left no command, an unknown
    one or a top-level option, whose usage, help or error it prints."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        # the full parse reports what the subcommand leaves over
        _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        # a reader that closed stdout shows here, not in the flush at exit
        sys.stdout.flush()
        return code
    except WordError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvariantError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout early: point it at os.devnull, as the
        # Python docs' note on SIGPIPE advises, so that the flush at exit
        # writes nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
