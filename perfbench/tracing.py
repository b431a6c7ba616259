"""Spans and counters around the public functions of metafix's modules.

Everything here is applied from outside: `Tracer.install` replaces each
listed function by a wrapper wherever its callers look it up (every
metafix module global bound to it, or the class attribute for a method)
and `uninstall` puts the originals back.  The term kernels are never
wrapped.  `laurent` multiplication is counted, not timed, because a span
around every product would swamp the trace.

A span is (name, start, end, parent span, item).  Spans stay in memory
and are written once, by `write`, after the run.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array

# (span name, module, attribute); "Class.method" patches the class.
SPANS = (
    ("cli.main", "metafix.cli", "main"),
    ("words.parse", "metafix.words", "parse_word"),
    ("words.pow", "metafix.words", "Word.__pow__"),
    ("endo.apply", "metafix.endo", "Endomorphism.apply"),
    ("endo.compose", "metafix.endo", "Endomorphism.compose"),
    ("braid.automorphism", "metafix.braid", "braid_automorphism"),
    ("braid.gassner", "metafix.braid", "gassner"),
    ("braid.reduce", "metafix.braid", "gassner_reduced"),
    ("fox.word_coords", "metafix.fox", "word_coords"),
    ("fox.jacobian", "metafix.fox", "jacobian"),
    ("magnus.oracle", "metafix.magnus", "is_trivial"),
    ("magnus.realize", "metafix.magnus", "realize_coords"),
    ("matrices.rank", "metafix.matrices", "LaurentMatrix.rank"),
    ("matrices.det", "metafix.matrices", "LaurentMatrix.det"),
    ("matrices.kernel", "metafix.matrices", "LaurentMatrix.kernel_vector"),
    ("matrices.cramer", "metafix.matrices", "cramer_solve"),
    ("laurent.div", "metafix.laurent", "LaurentPoly.divide_exact"),
    ("laurent.text", "metafix.laurent", "poly_to_text"),
    ("fixpoint.commutator", "metafix.fixpoint", "fixed_point_in_commutator"),
    ("fixpoint.route", "metafix.fixpoint", "CosetSolver.__init__"),
    ("fixpoint.solve", "metafix.fixpoint", "CosetSolver.solve"),
)

# (counter name, module, attribute): counted, never timed.
COUNTED = (
    ("matrices.pivots", "metafix.matrices", "LaurentMatrix.echelon_pivots"),
    ("laurent.mul", "metafix.laurent", "LaurentPoly.__mul__"),
    ("laurent.mul", "metafix.laurent", "LaurentPoly.__rmul__"),
)

ITEM = "item"


def _resolve(module, attr):
    mod = sys.modules[module]
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    return owner, name, owner.__dict__[name] if owner_name else getattr(mod, name)


class Tracer:
    def __init__(self):
        self.names = [ITEM] + [s[0] for s in SPANS]
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.counts = {}
        self.maxima = {}
        self.missing = []
        self._stack = []
        self._undo = []
        self.item = -1

    # -- recording ----------------------------------------------------

    def _open(self, name_id):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_item.append(self.item)
        self._stack.append(idx)
        self.span_start[idx] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def run_item(self, item_id, fn):
        """Call fn() inside the root span of one item."""
        self.item = item_id
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    # -- installation -------------------------------------------------

    def _span_wrapper(self, name, fn):
        name_id = self._name_id[name]
        observe = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.count(name + "_calls")
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        if name == "laurent.mul":
            def wrapper(a, b):
                tracer.count("laurent.mul_calls")
                other = getattr(b, "terms", None)
                tracer.count("laurent.mul_terms", len(a.terms) * (1 if other is None else len(other)))
                return fn(a, b)
        else:
            def wrapper(*args, **kwargs):
                tracer.count(name + "_calls")
                return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr, make):
        try:
            owner, name, original = _resolve(module, attr)
        except (KeyError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        if isinstance(owner, type):
            self._undo.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        # A module-level function: rebind it in every metafix module that
        # imported it, since callers look it up in their own globals.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "metafix" or mod_name.startswith("metafix.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        for name, module, attr in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, module, attr in COUNTED:
            self._patch(module, attr, lambda fn, name=name: self._count_wrapper(name, fn))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- observers: counters taken from arguments and results ---------------

    def _after_braid_automorphism(self, args, phi):
        longest = max(len(y) for y in phi.images)
        self.maxima["braid.image_letters_max"] = max(self.maxima.get("braid.image_letters_max", 0), longest)

    def _after_fox_word_coords(self, args, result):
        self.count("fox.letters", len(args[0]))

    def _after_magnus_realize(self, args, w):
        self.count("magnus.witness_letters", len(w))

    def _after_matrices_cramer(self, args, result):
        if result.status == "solution":
            self.count("matrices.cramer_ring")

    def _after_laurent_div(self, args, q):
        if q is not None:
            self.count("laurent.div_ok")

    def _after_fixpoint_route(self, args, result):
        self.count("fixpoint.route." + args[0].mode)

    def _after_fixpoint_solve(self, args, outcome):
        self.count("fixpoint.status." + outcome.status)

    # -- results ------------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            out[self.names[self.span_name[i]]] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def write(self, path):
        """All spans, one a line: name, start, end, parent, item."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\titem\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_item[i]}\n"
                )
