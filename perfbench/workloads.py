"""Instance sets of the benchmark workloads.

Each workload turns ``--seed`` into a list of graphs, serialised with
``Triangulation.dumps``; the program only ever sees that JSON.  random-n40
and nested-stack give the same list for every seed.  The functions take the
``pentact.planarmap`` module as an argument so that the benchmark can time
the import together with the generation.
"""

from __future__ import annotations

from typing import NamedTuple

# corpus-small: the shape of the criterion-7 corpus and of `pentact bench`;
# seed 5 gives that corpus exactly (generator seeds 5000..5199).
CORPUS_SIZE = 200
CORPUS_MAX_N = 12
# random-n40: a few instances where the exact solve dominates.  The set is
# fixed and ignores the seed: drawn afresh per seed, five instances of 6 to 9
# loop iterations moved instances_per_s by 13% between seeds, and a run has
# no time for the dozens of instances it would take to average that out.
RANDOM_N = 40
RANDOM_SEEDS = tuple(range(5000, 5005))
# nested-stack: depths 1..11 verify when this was written, 12..40 are rejected
# by the float regularity check although their exact solution is valid.
NESTED_DEPTHS = tuple(range(1, 41))

NAMES = ("corpus-small", "random-n40", "nested-stack")


class Instance(NamedTuple):
    n: int
    seed: int | None      # generator seed; None for the deterministic family
    graph: str            # Triangulation.dumps() text


def nested_stack(planarmap, depth):
    """The wheel, then each new vertex stacked into the face on outer edge (0, 1).

    Vertex 5 is the hub; vertex 5 + k is adjacent to 0, 1 and 5 + k - 1, so
    depth ``d`` has ``d`` inner vertices, each inside the triangle that the
    previous one forms with the outer edge (0, 1).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]
    for v in range(6, 5 + depth):
        edges += [(v, 0), (v, 1), (v, v - 1)]
    return planarmap.build_from_edges((0, 1, 2, 3, 4), edges)


def make_instances(planarmap, name, seed):
    """The workload's instance list for ``seed``; the same seed, the same list."""
    if name == "corpus-small":
        specs = [(1 + i % CORPUS_MAX_N, 1000 * seed + i) for i in range(CORPUS_SIZE)]
    elif name == "random-n40":
        specs = [(RANDOM_N, s) for s in RANDOM_SEEDS]
    elif name == "nested-stack":
        return [Instance(d, None, nested_stack(planarmap, d).dumps())
                for d in NESTED_DEPTHS]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [Instance(n, s, planarmap.generate_random(n, s).dumps()) for n, s in specs]
