import hashlib
import json

import pytest

from pentact.errors import (
    ChordPresent,
    InvalidSize,
    NonPlanar,
    NotTriangulated,
    ParseError,
    PentactError,
)
from pentact.planarmap import (
    Triangulation,
    _stack_vertex,
    build_from_edges,
    contract_for_schnyder,
    generate_random,
    loads,
    validate,
    wheel5,
)

from conftest import stackings_upto


def test_wheel_counts():
    w = wheel5()
    assert w.n_inner == 1
    assert len(w.inner_faces()) == 5
    assert len(w.inner_edges()) == 5
    assert validate(w).ok


def test_sample5_instance_counts(sample5_instance):
    t = sample5_instance
    assert t.n_inner == 5
    assert len(t.inner_faces()) == 13
    assert validate(t).ok


def test_chord_rejected():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]
    with pytest.raises(ChordPresent):
        build_from_edges([0, 1, 2, 3, 4], edges)


def test_not_triangulated_reported():
    w = wheel5()
    rot = {v: [u for u in ns if not (v == 5 and u == 0) and not (v == 0 and u == 5)]
           for v, ns in w.rot.items()}
    t = Triangulation(w.outer, rot, check=False)
    rep = validate(t)
    assert not rep.ok
    assert any(issubclass(e, NotTriangulated) for e, _ in rep.problems)
    assert any("4 sides" in m for _, m in rep.problems)


def test_nonplanar():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]  # K5 core
    edges += [(5, i) for i in range(5)]
    with pytest.raises(NonPlanar):
        build_from_edges([0, 1, 2, 3, 4], edges)


def test_duplicate_edge_rejected():
    with pytest.raises(ParseError):
        build_from_edges([0, 1, 2, 3, 4],
                         [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 0)])


def test_generate_random_euler():
    for n, seed in [(1, 3), (6, 42), (50, 7), (640, 1)]:
        t = generate_random(n, seed)
        assert validate(t).ok
        assert len(t.inner_faces()) == 2 * n + 3
        assert len(t.inner_edges()) == 3 * n + 2


def test_generate_random_deterministic():
    assert generate_random(6, 42).rot == generate_random(6, 42).rot
    assert generate_random(1, 9).rot == wheel5().rot


def test_generate_random_golden_digest():
    # pins every instance byte for byte; any change to the RNG draws, the
    # order of the inner faces or the flip rule changes it
    h = hashlib.sha256()
    sizes = [(n, s) for n in range(1, 41) for s in range(10)]
    for n, s in sizes + [(80, 1), (160, 1), (640, 1)]:
        h.update((generate_random(n, s).dumps() + "\n").encode())
    assert h.hexdigest() == (
        "517a7f4f54e9531624ed72adecedcda0dccca94560eb6a29c89b9a1b19a76aa3")


def test_generate_random_builds_a_fixed_number_of_maps(monkeypatch):
    built = []
    init = Triangulation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Triangulation, "__init__", counting_init)
    counts = []
    for n in (2, 60):
        built.clear()
        generate_random(n, 3)
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_generate_random_invalid_size():
    with pytest.raises(InvalidSize):
        generate_random(0, 1)


def test_stack_vertex_rejects_non_face():
    w = wheel5()
    rot = {v: list(ns) for v, ns in w.rot.items()}
    for face in [(5, 1, 0), (0, 1, 2)]:  # counterclockwise; not a face
        with pytest.raises(PentactError):
            _stack_vertex(rot, face, 6)
        assert rot == {v: list(ns) for v, ns in w.rot.items()}
    _stack_vertex(rot, (5, 0, 1), 6)
    assert validate(Triangulation(w.outer, rot, check=False)).ok


def test_faces_clockwise_roundtrip():
    t = generate_random(8, 11)
    halfedges = {(u, v) for u in t.rot for v in t.rot[u]}
    covered = [he for orbit in t.faces() for he in orbit]
    assert sorted(covered) == sorted(halfedges)
    # Euler with faces: V - E + F = 2
    V = len(t.rot)
    E = len(t.edges())
    F = len(t.faces())
    assert V - E + F == 2


def test_contract_wheel():
    w = wheel5()
    c = contract_for_schnyder(w)
    assert c.apex_23 == 5 and c.apex_45 == 5
    assert c.removed_23 == [] and c.removed_45 == []
    assert c.triangle.outer == (0, c.b3, c.b4)
    assert validate(c.triangle).ok
    assert c.triangle.n_inner == 1


def test_contract_random_validates():
    for seed in range(6):
        t = generate_random(4 + seed, seed)
        c = contract_for_schnyder(t)
        assert validate(c.triangle).ok
        for region in (c.region_23, c.region_45):
            if region is not None:
                assert validate(region).ok
                assert len(region.outer) == 3


def test_json_roundtrip():
    t = generate_random(7, 2)
    t2 = loads(t.dumps())
    assert t2.rot == t.rot and t2.outer == t.outer


def test_json_parse_errors():
    with pytest.raises(ParseError):
        loads("{not json")
    with pytest.raises(ParseError):
        loads(json.dumps({"outer": [0, 1, 2], "edges": []}))
    with pytest.raises(ParseError):
        loads(json.dumps({"outer": [0, 1, 2, 3, 4],
                          "edges": [[0, 1], [1, 0]]}))


def test_stacking_enumeration_counts():
    insts = list(stackings_upto(3))
    assert len(insts) == 1 + 5 + 35
    assert all(validate(t).ok for t in insts)
