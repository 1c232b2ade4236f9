"""Benchmark of ``pentact represent`` on three instance families.

    python3 perfbench/run.py --workload corpus-small --seed 5 --seconds 35 --trace 0

Every instance goes through ``pentact.cli.main(["represent", ...])`` in this
process, one at a time (a closed loop with one client, no pool).  With
``--trace 0`` the loop cycles through the workload's instances until
``--seconds`` have passed and at least one full pass is done, and the
end-to-end metrics are printed.  With ``--trace 1`` one pass runs untraced
and the same pass again with spans around pentact's public functions; the
per-layer self times, exact counts and the tracing overhead are printed.
Outputs are checked in both modes, and against ``reference.json`` where it
holds the seed.  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when the outputs are right, 1 when a check failed (the JSON
line is still printed), 2 when the pentact sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench import measure, tracing, workloads  # noqa: E402

SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"          # work files and span dumps
REFERENCE = Path(__file__).with_name("reference.json")
# set-up is repeated and its median reported, so that one slow repeat
# (a cold disk cache, a neighbour's burst) does not move setup_s
SETUP_REPEATS = 5


def import_pentact():
    """Import pentact afresh (dropping any earlier import) and return its modules."""
    for name in [m for m in sys.modules if m == "pentact" or m.startswith("pentact.")]:
        del sys.modules[name]
    importlib.import_module("pentact.cli")
    return {m: sys.modules[m] for m in
            ("pentact.cli", "pentact.planarmap", "pentact.solveloop", "pentact.layout")}


def setup(name, seed, work, tracer=None):
    """Import plus input generation, ``SETUP_REPEATS`` times.

    Returns the median and the first (cold-import) set-up time, the modules
    and instances of the last repeat, and the graph files written for them.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mods = import_pentact()
        if tracer is not None:
            tracer.instance = "setup"
            tracer.install(mods, tracing.SETUP_WRAPPERS)
        try:
            planarmap = mods["pentact.planarmap"]
            instances = workloads.make_instances(planarmap, name, seed)
            warm = planarmap.wheel5().dumps()
        finally:
            if tracer is not None:
                tracer.uninstall()
        paths = []
        for i, text in enumerate([warm] + [inst.graph for inst in instances]):
            path = work / f"in{i}.json"
            path.unlink(missing_ok=True)      # see measure.call_represent
            path.write_text(text, encoding="utf-8")
            paths.append(path)
        times.append(time.perf_counter() - start)
    return statistics.median(times), times[0], mods, instances, paths


def closed_loop(cli, instances, paths, work, seconds, tracer=None):
    """Call represent on each instance in turn until ``seconds`` and one pass are done."""
    calls = []
    start = time.perf_counter()
    while len(calls) < len(instances) or time.perf_counter() - start < seconds:
        k = len(calls) % len(instances)
        if tracer is not None:
            tracer.instance = k
        outcome = measure.call_represent(cli, instances[k].n, paths[k + 1],
                                         work / f"out{k}")
        calls.append((k, outcome))
    return calls


def check_calls(instances, calls):
    """First-pass records of each instance, and every problem with the outputs."""
    problems, first = [], {}
    for k, outcome in calls:
        inst = instances[k]
        problems += [f"n={inst.n} seed={inst.seed}: {p}" for p in outcome.problems]
        rec = measure.record(inst, outcome)
        if k not in first:
            first[k] = rec
        elif rec != first[k]:
            problems.append(f"n={inst.n} seed={inst.seed}: a later pass gave another result")
    return [first[k] for k in range(len(instances))], problems


def reference_for(ref, name, seed, key):
    table = ref["workloads"][name].get(key, {})
    return table.get(str(seed), table.get("*"))


def failure_lines(instances, calls, attribution=lambda k, outcome: ""):
    """One line per kind of failure: how many instances, which, and the message."""
    groups = {}
    for k, outcome in calls:
        if not outcome.ok:
            message = outcome.message.splitlines()[0][:70] if outcome.message else ""
            key = (outcome.exit_code, outcome.kind, attribution(k, outcome), message)
            groups.setdefault(key, {})[k] = instances[k]
    lines = []
    for (code, kind, where, message), failed in groups.items():
        which = ", ".join(f"n={i.n} seed={i.seed}" for i in list(failed.values())[:3])
        more = f" and {len(failed) - 3} more" if len(failed) > 3 else ""
        lines.append(f"  {len(failed)} instance(s) exit {code} ({kind}){where}: "
                     f"{message} [{which}{more}]")
    return lines


def run_untraced(name, seed, seconds, ref, work):
    setup_s, cold_s, mods, instances, paths = setup(name, seed, work)
    cli = mods["pentact.cli"]
    # warm-up on the wheel, so lazily built state is not charged to an instance
    measure.call_represent(cli, 1, paths[0], work / "warm")
    calls = closed_loop(cli, instances, paths, work, seconds)
    records, problems = check_calls(instances, calls)
    dig = measure.digest(records)
    want = reference_for(ref, name, seed, "digests")
    if want is not None and want != dig:
        problems.append(f"output digest {dig} differs from the reference {want}")

    lat = [outcome.seconds for _, outcome in calls]
    ok = sum(outcome.ok for _, outcome in calls)
    # Throughput over the instance set: instances that exit 0, divided by the
    # time one pass takes with each instance at its mean.  Dividing the calls
    # made by the time taken instead would let the partial last pass (which
    # instances fit in before the time was up) move the figure.
    per_instance = {}
    for k, outcome in calls:
        per_instance.setdefault(k, []).append(outcome.seconds)
    pass_s = sum(statistics.fmean(times) for times in per_instance.values())
    ok_instances = sum(rec[2] == 0 for rec in records)
    metrics = {
        "instances_per_s": (ok_instances / pass_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(f"workload {name}, seed {seed}: {len(calls)} calls over "
          f"{len(instances)} instances, {sum(lat):.3f} s in represent, "
          f"{pass_s:.3f} s a pass, {ok_instances} instances exit 0")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<16} {value:.6g} {unit}")
    # latency of every call, whatever its exit code; a percentile is shown
    # only with ten samples beyond it
    for q in (50, 95):
        value = measure.percentile(lat, q)
        print(f"  latency_p{q}_s    " + (f"{value:.6g} s" if value is not None else
              "not reported") + f" ({len(lat)} samples)")
    failed = len(instances) - ok_instances
    print(f"  {'failed_frac':<16} {failed / len(instances):.6g} "
          f"({failed} of {len(instances)} instances; {len(calls) - ok} of "
          f"{len(calls)} calls)")
    print(f"  setup: first repeat {cold_s:.4f} s (cold import), "
          f"median of {SETUP_REPEATS} {setup_s:.4f} s")
    for line in failure_lines(instances, calls):
        print(line)
    print(f"  digest {dig}" + (" (no reference for this seed)" if want is None else ""))
    # attempted and failed count the instances of the set, not the calls:
    # how many passes fit in ``seconds`` varies from run to run, while each
    # instance's outcome is checked to repeat on every pass
    return problems, len(instances), failed, metrics


def run_traced(name, seed, ref, work):
    tracer = tracing.Tracer()
    _, _, mods, instances, paths = setup(name, seed, work, tracer)
    setup_self = tracer.self_times({"setup"})
    cli = mods["pentact.cli"]
    measure.call_represent(cli, 1, paths[0], work / "warm")
    untraced = closed_loop(cli, instances, paths, work, 0)
    missing = tracer.install(mods, tracing.REPRESENT_WRAPPERS + (tracing.ROOT_WRAPPER,))
    try:
        traced = closed_loop(cli, instances, paths, work, 0, tracer)
    finally:
        tracer.uninstall()

    rec_u, problems = check_calls(instances, untraced)
    problems += [f"{target} no longer exists, so its layer would read zero"
                 for target in missing]
    rec_t, problems_t = check_calls(instances, traced)
    problems += problems_t
    dig = measure.digest(rec_t)
    if measure.digest(rec_u) != dig:
        problems.append("traced and untraced passes gave different outputs")
    want = reference_for(ref, name, seed, "digests")
    if want is not None and want != dig:
        problems.append(f"output digest {dig} differs from the reference {want}")
    counts = tracer.count_metrics()
    want_counts = reference_for(ref, name, seed, "counts")
    if want_counts is not None and want_counts != counts:
        problems.append(f"exact counts {counts} differ from the reference {want_counts}")
    uncalled = set(ref["workloads"][name]["uncalled"])
    for _, _, span in tracing.REPRESENT_WRAPPERS + tracing.SETUP_WRAPPERS:
        calls = tracer.calls[span]
        if (span in uncalled) != (calls == 0):
            problems.append(f"wrapper {span} called {calls} times, expected "
                            + ("none" if span in uncalled else "some"))

    own = tracer.self_times(set(range(len(instances))))
    wall_u = sum(outcome.seconds for _, outcome in untraced)
    wall_t = sum(outcome.seconds for _, outcome in traced)
    metrics = {}
    for _, _, span in tracing.REPRESENT_WRAPPERS:
        if span != "layout.layout_to_json":
            metrics[f"{span}_s"] = (own[span], "s")
    metrics["layout.emit_s"] = (own["layout.emit"] + own["layout.layout_to_json"], "s")
    metrics["cli.represent_s"] = (own["cli.represent"], "s")
    metrics["planarmap.generate_random_s"] = (
        setup_self["planarmap.generate_random"] / SETUP_REPEATS, "s")
    for key, value in counts.items():
        metrics[key] = (value, "bits" if key.endswith("bits") else "count")
    metrics["trace.untraced_wall_s"] = (wall_u, "s")
    metrics["trace.overhead_s"] = (wall_t - wall_u, "s")

    def attribution(k, outcome):
        if outcome.exit_code == 3:
            return " in solveloop.iterate"
        layer = tracer.rejected_by.get(k) or tracer.raised_in.get(k)
        return f" in {layer}" if layer else ""

    failed = sum(not outcome.ok for _, outcome in traced)
    print(f"workload {name}, seed {seed}: one pass of {len(instances)} instances, "
          f"untraced {wall_u:.4f} s, traced {wall_t:.4f} s")
    layers = sorted(((v, k) for k, (v, u) in metrics.items()
                     if u == "s" and not k.startswith(("trace.", "planarmap.generate"))),
                    reverse=True)
    for value, key in layers:
        print(f"  {key:<34} {value:10.4f} s  {100 * value / wall_t:5.1f}%")
    print(f"  {'trace.counts (hooks)':<34} {own[tracing.HOOK_SPAN]:10.4f} s")
    print(f"  self times sum to {sum(own.values()):.4f} s of {wall_t:.4f} s traced; "
          f"minus the overhead {wall_t - wall_u:.4f} s that is the untraced {wall_u:.4f} s")
    print(f"  dominant layer: {layers[0][1]}")
    for key, value in counts.items():
        print(f"  {key:<34} {value}")
    print(f"  failures {failed} of {len(traced)}")
    for line in failure_lines(instances, traced, attribution):
        print(line)
    print(f"  digest {dig}")
    tracer.dump(SCRATCH / f"spans-{name}-seed{seed}.json")
    return problems, len(traced), failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=None,
                    help="instance seed (default: the reference's default seed)")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pentact" / "__init__.py").is_file():
        print(f"perfbench: no pentact sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    seed = ref["default_seed"] if args.seed is None else args.seed
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        if args.trace:
            problems, attempted, failed, metrics = run_traced(args.workload, seed, ref, work)
        else:
            problems, attempted, failed, metrics = run_untraced(
                args.workload, seed, args.seconds, ref, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems[:20]:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
