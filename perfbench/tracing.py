"""Spans and counts around pentact's public functions, recorded from outside.

Each wrapper replaces a function under the name its caller looks it up, so
nothing inside the package changes.  Spans are kept in memory as
``[name, start, end, parent, instance]`` and written out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# (module, attribute the caller looks up, span name); the span name is the
# defining module and function, and names the per-layer metric.
REPRESENT_WRAPPERS = (
    ("pentact.planarmap", "loads", "planarmap.loads"),
    ("pentact.planarmap", "validate", "planarmap.validate"),
    ("pentact.cli", "fcf_from_schnyder", "forests.fcf_from_schnyder"),
    ("pentact.cli", "iterate", "solveloop.iterate"),
    ("pentact.solveloop", "StackExtension", "orientations.StackExtension"),
    ("pentact.solveloop", "chi", "orientations.chi"),
    ("pentact.solveloop", "build_skeleton", "skeleton.build_skeleton"),
    ("pentact.solveloop", "assemble", "linsys.assemble"),
    ("pentact.solveloop", "solve", "linsys.solve"),
    ("pentact.solveloop", "classify_and_extract", "signs.classify_and_extract"),
    ("pentact.solveloop", "psi", "orientations.psi"),
    ("pentact.layout", "realize", "layout.realize"),
    ("pentact.layout", "verify", "layout.verify"),
    ("pentact.layout", "emit", "layout.emit"),
    ("pentact.layout", "layout_to_json", "layout.layout_to_json"),
)
ROOT_WRAPPER = ("pentact.cli", "main", "cli.represent")
SETUP_WRAPPERS = (
    ("pentact.planarmap", "generate_random", "planarmap.generate_random"),
)
HOOK_SPAN = "trace.counts"


def _solve_counts(tracer, name, args, sol):
    system = args[0]
    tracer.counts["linsys.dim_sum"] += system.dim
    tracer.counts["linsys.nnz_sum"] += sum(1 for row in system.rows
                                           for c in row.values() if c)
    bits = max((max(abs(f.numerator).bit_length(), f.denominator.bit_length())
                for v in sol.values.values() for f in (v.a, v.b)), default=0)
    tracer.maxima["linsys.max_coeff_bits"] = max(
        bits, tracer.maxima["linsys.max_coeff_bits"])


def _signs_counts(tracer, name, args, signed):
    tracer.counts["signs.negatives_sum"] += len(args[1].negatives())
    tracer.counts["signs.cycles_sum"] += len(signed.cycles)


def _iterate_counts(tracer, name, args, result):
    tracer.counts["solveloop.iterations"] += result.iterations
    tracer.maxima["solveloop.iterations_max"] = max(
        result.iterations, tracer.maxima["solveloop.iterations_max"])


def _report_counts(tracer, name, args, report):
    if not report.ok:
        tracer.counts[f"{name}.failures"] += 1
        tracer.rejected_by.setdefault(tracer.instance, name)


HOOKS = {
    "linsys.solve": _solve_counts,
    "signs.classify_and_extract": _signs_counts,
    "solveloop.iterate": _iterate_counts,
    "layout.verify": _report_counts,
    "planarmap.validate": _report_counts,
}
# counts that must be present (and repeat exactly) even when zero
COUNT_NAMES = ("linsys.solve.calls", "linsys.dim_sum", "linsys.nnz_sum",
               "linsys.max_coeff_bits", "signs.negatives_sum", "signs.cycles_sum",
               "solveloop.iterations", "solveloop.iterations_max",
               "layout.verify.failures")


class Tracer:
    def __init__(self):
        self.spans = []
        self.instance = None
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.rejected_by = {}     # instance -> layer whose report said no
        self.raised_in = {}       # instance -> innermost span an exception left
        self._stack = []
        self._installed = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.instance])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, module, attr, name):
        original = getattr(module, attr)
        hook = HOOKS.get(name)

        @functools.wraps(original, updated=())
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.raised_in.setdefault(self.instance, name)
                raise
            finally:
                self.close()
            if hook is not None:
                # counted in a span of its own, so no layer's self time pays for it
                self.open(HOOK_SPAN)
                try:
                    hook(self, name, args, result)
                finally:
                    self.close()
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def install(self, modules, table):
        """Wrap every function of ``table``; return the ones that do not exist."""
        missing = []
        for mod_name, attr, name in table:
            if hasattr(modules[mod_name], attr):
                self.wrap(modules[mod_name], attr, name)
            else:
                missing.append(f"{mod_name}.{attr}")
        return missing

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def self_times(self, instances=None):
        """Seconds per span name, each span minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = Counter()
        for i, (name, start, end, _, inst) in enumerate(self.spans):
            if instances is None or inst in instances:
                totals[name] += end - start - child[i]
        return totals

    def count_metrics(self):
        out = {"linsys.solve.calls": self.calls["linsys.solve"]}
        out.update(self.counts)
        out.update(self.maxima)
        return {name: out.get(name, 0) for name in COUNT_NAMES}

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "instance")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
