"""One `represent` call, its outcome, the output checks and the statistics."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# exit codes of `pentact represent` (see pentact.cli)
EXIT_KINDS = {0: "ok", 1: "invalid", 2: "parse", 3: "nonterminated"}

_REALIZED = re.compile(r"realized after (\d+) iteration")


def classify(exit_code):
    """'ok' for exit 0; otherwise the kind of failure.

    Exit 1 is a validation or geometry failure, 3 a loop that did not
    terminate, ``None`` an exception escaping ``main``.
    """
    if exit_code is None:
        return "exception"
    return EXIT_KINDS.get(exit_code, f"exit-{exit_code}")


@dataclass
class Outcome:
    exit_code: int | None
    seconds: float
    iterations: int | None = None
    solution: dict | None = None
    message: str = ""
    problems: tuple = ()

    @property
    def kind(self):
        return classify(self.exit_code)

    @property
    def ok(self):
        return self.exit_code == 0


def call_represent(cli, n, graph_path, out_prefix):
    """Run ``pentact represent`` in process and check what it wrote.

    Only the ``main`` call is timed; reading and checking ``out.json``
    happens afterwards.
    """
    out, err = io.StringIO(), io.StringIO()
    argv = ["represent", "--in", str(graph_path), "--out", str(out_prefix)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # any escaping exception is a failed instance
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    outcome = Outcome(code, seconds, message=err.getvalue().strip())
    if code == 0:
        match = _REALIZED.search(out.getvalue())
        outcome.iterations = int(match.group(1)) if match else None
        try:
            with open(f"{out_prefix}.json", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            outcome.problems = (f"exit 0 but no readable out.json: {exc}",)
        else:
            outcome.solution = payload.get("solution")
            outcome.problems = tuple(check_payload(payload, n))
        if outcome.iterations is None:
            outcome.problems += ("no iteration count on stdout",)
    # the next call writes fresh files: on ext4, truncating a file that was
    # just written forces it to disk, which would time the disk, not pentact
    for suffix in (".json", ".svg"):
        Path(f"{out_prefix}{suffix}").unlink(missing_ok=True)
    return outcome


def exact_sign(a, b):
    """Sign of a + b*sqrt(5) for rationals a, b, without floating point."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == 0 or sb == 0 or sa == sb:
        return sa or sb
    return sa if a * a > 5 * b * b else sb


def check_payload(payload, n):
    """Problems with a realized layout's ``out.json``; empty when it is right.

    The exact solution must have 5n+6 entries, each non-negative with the
    sign it states, and every pentagon's exact side must equal its
    variable.  Floats are not checked, so correctly rounded output stays
    possible.
    """
    problems = []
    sol = payload.get("solution") or {}
    if len(sol) != 5 * n + 6:
        problems.append(f"solution has {len(sol)} entries, expected {5 * n + 6}")
    for name, val in sol.items():
        sign = exact_sign(Fraction(val["a"]), Fraction(val["b"]))
        if sign != val["sign"]:
            problems.append(f"{name}: stated sign {val['sign']}, exact sign {sign}")
        if sign < 0:
            problems.append(f"{name} is negative in a realized layout")
    pentagons = payload.get("pentagons") or {}
    if len(pentagons) != n:
        problems.append(f"{len(pentagons)} pentagons for {n} inner vertices")
    for v, pent in pentagons.items():
        var = sol.get(f"x_{v}")
        side = {k: Fraction(pent["side"][k]) for k in ("a", "b")}
        if var is None or side != {k: Fraction(var[k]) for k in ("a", "b")}:
            problems.append(f"pentagon {v} side differs from x_{v}")
    return problems


def record(inst, outcome):
    """What the digest covers for one instance: no float, no file bytes."""
    return [inst.n, inst.seed, outcome.exit_code, outcome.iterations, outcome.solution]


def digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(samples, q, beyond=10):
    """Nearest-rank ``q``-th percentile, or None unless ``beyond`` samples exceed its rank."""
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    if rank < 1 or len(ordered) - rank < beyond:
        return None
    return ordered[rank - 1]
