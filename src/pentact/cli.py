"""Command line interface.

    pentact validate  --in graph.json
    pentact represent --in graph.json --out prefix [--max-iters N] [--dump-trace P]
    pentact lattice   --in graph.json
    pentact bench     --n 4-12 --count 200 --seed 1 [--out runs.csv]

Exit codes: 0 success, 1 validation or guard failure, 2 parse/usage error,
3 the iteration did not terminate.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import layout as layout_mod
from . import planarmap
from .errors import ParseError, PentactError, TooLarge
from .forests import fcf_from_schnyder
from .orientations import flip_lattice
from .solveloop import iterate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_NONTERMINATED = 3


def _load_graph(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return planarmap.loads(text)


def cmd_validate(args):
    t = _load_graph(args.input)
    rep = planarmap.validate(t)
    print(rep)
    return EXIT_OK if rep.ok else EXIT_INVALID


def cmd_represent(args):
    t = _load_graph(args.input)
    rep = planarmap.validate(t)
    if not rep.ok:
        print(rep, file=sys.stderr)
        return EXIT_INVALID
    f0 = fcf_from_schnyder(t)
    result = iterate(t, f0, args.max_iters)
    if args.dump_trace:
        with open(args.dump_trace, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "status": result.status,
                    "reason": result.reason,
                    "iterations": [r.to_json() for r in result.trace],
                },
                fh, indent=1, sort_keys=True)
            fh.write("\n")
    if not result.realized:
        print(f"not terminated: {result.reason} "
              f"after {result.iterations} iterations", file=sys.stderr)
        return EXIT_NONTERMINATED
    lay = layout_mod.realize(result.skeleton, result.solution)
    geom = layout_mod.verify(lay, t)
    if not geom.ok:
        print(f"geometry check failed: {geom}", file=sys.stderr)
        return EXIT_INVALID
    out = args.out or "pentact-out"
    layout_mod.emit(lay, "svg", out + ".svg", contact_graph=args.contact_graph)
    payload = layout_mod.layout_to_json(lay)
    payload["solution"] = result.solution.to_json()
    with open(out + ".json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"realized after {result.iterations} iteration(s); "
          f"wrote {out}.svg and {out}.json")
    return EXIT_OK


def cmd_lattice(args):
    t = _load_graph(args.input)
    rep = planarmap.validate(t)
    if not rep.ok:
        print(rep, file=sys.stderr)
        return EXIT_INVALID
    try:
        orientations, flips, connected, sinks, sources = flip_lattice(t)
    except TooLarge as exc:
        print(f"instance too large: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(f"orientations: {len(orientations)}")
    print(f"flip edges:   {len(flips)}")
    print(f"no-ccw elements: {sinks}, no-cw elements: {sources}")
    print(f"flip graph connected: {connected}")
    if sinks != 1 or sources != 1 or not connected:
        return EXIT_INVALID
    return EXIT_OK


def bench_one(task):
    n, seed = task
    t = planarmap.generate_random(n, seed)
    f0 = fcf_from_schnyder(t)
    result = iterate(t, f0)
    if result.realized:
        lay = layout_mod.realize(result.skeleton, result.solution)
        ok = layout_mod.verify(lay, t).ok
        status = "realized" if ok else "geometry-failed"
    else:
        status = "nonterminated"
    return (n, seed, result.iterations, status)


def _parse_range(text):
    """argparse type of --n: one inner-vertex count or a range lo-hi."""
    lo, sep, hi = text.partition("-")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        lo = hi = 0  # rejected below
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad size range {text!r}")
    return lo, hi


def cmd_bench(args):
    lo, hi = args.n
    tasks = []
    for i in range(args.count):
        tasks.append((lo + i % (hi - lo + 1), args.seed + i))
    if args.threads > 1 and tasks:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(bench_one, tasks))
    else:
        rows = [bench_one(task) for task in tasks]
    rows.sort(key=lambda r: (r[0], r[1]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "seed", "iterations", "result"])
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    bad = [r for r in rows if r[3] != "realized"]
    return EXIT_NONTERMINATED if bad else EXIT_OK


def _build_parser():
    ap = argparse.ArgumentParser(prog="pentact",
                                 description="regular pentagon contact representations")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph file")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("represent", help="compute a contact representation")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", help="output path prefix (.svg/.json appended)")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--dump-trace", metavar="PATH")
    p.add_argument("--contact-graph", action="store_true",
                   help="overlay the contact graph in the SVG")
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("lattice", help="flip-lattice statistics (small inputs)")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("bench", help="run the termination experiment")
    p.add_argument("--n", default="4-12", type=_parse_range,
                   help="inner-vertex count or range lo-hi")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "max_iters", None) is not None and args.max_iters < 1:
        ap.error("--max-iters must be at least 1")
    if getattr(args, "count", None) is not None and args.count < 0:
        ap.error("--count must be non-negative")
    if args.command == "bench":
        threads = os.environ.get("PENTACT_THREADS", "1")
        try:
            args.threads = int(threads)
        except ValueError:
            ap.error(f"PENTACT_THREADS must be an integer, got {threads!r}")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PentactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
