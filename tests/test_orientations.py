import pytest

from pentact.errors import NotDirectedFace, PentactError, TooLarge
from pentact.forests import fcf_from_schnyder
from pentact.orientations import (
    StackExtension,
    ccw_facial_cycles,
    chi,
    cw_facial_cycles,
    enumerate_alpha5,
    flip,
    psi,
    validate_alpha5,
)
from pentact.planarmap import generate_random, validate, wheel5

from conftest import stackings_upto


def test_stack_extension_counts(sample5_instance):
    assert len(StackExtension(wheel5()).stack_of_face) == 0
    assert len(StackExtension(sample5_instance).stack_of_face) == 8
    t = generate_random(10, 4)
    ext = StackExtension(t)
    assert len(ext.stack_of_face) == 18
    assert validate(ext.map).ok


def test_chi_wheel():
    w = wheel5()
    x = chi(fcf_from_schnyder(w))
    assert validate_alpha5(x) == []
    assert x.directed_edges() == [(5, i) for i in range(5)]


def test_chi_sample5_orientation(sample5_instance, sample5_forest):
    x = chi(sample5_forest)
    assert validate_alpha5(x) == []
    # stack in-edges come from the missing-outgoing corner of each face
    ext = x.ext
    for fv, w in ext.stack_of_face.items():
        ins = [u for u in ext.map.rot[w] if x.is_directed(u, w)]
        assert len(ins) == 1


def test_psi_chi_roundtrip(sample5_instance, sample5_forest):
    x = chi(sample5_forest)
    assert psi(x) == sample5_forest


def test_psi_rejects_single_edge_reversal():
    # reversing one base edge breaks two out-degrees, so no forest exists
    for n, seed in ((3, 1), (5, 3), (8, 2)):
        t = generate_random(n, seed)
        x = chi(fcf_from_schnyder(t))
        for (u, v) in sorted(t.inner_edges()):
            edge = (u, v) if x.is_directed(u, v) else (v, u)
            with pytest.raises(PentactError):
                psi(x.reoriented([edge]))


def test_enumerate_wheel():
    assert len(enumerate_alpha5(wheel5())) == 1


def test_enumerate_guard():
    with pytest.raises(TooLarge):
        enumerate_alpha5(generate_random(6, 1))


def test_bijection_small():
    total = 0
    for t in stackings_upto(3):
        ext = StackExtension(t)
        xs = enumerate_alpha5(t, ext)
        forests = set()
        for x in xs:
            f = psi(x)
            assert chi(f, ext) == x
            forests.add(f)
        assert len(forests) == len(xs)
        total += len(xs)
    assert total > 41  # not all instances have a unique orientation


def test_ccw_cycles_wheel():
    x = chi(fcf_from_schnyder(wheel5()))
    assert ccw_facial_cycles(x) == []


def test_flip_flop_involution():
    t = generate_random(3, 5)
    x = chi(fcf_from_schnyder(t))
    cycles = ccw_facial_cycles(x)
    assert cycles
    y = flip(x, cycles[0])
    assert validate_alpha5(y) == []
    back = flip(y, tuple((v, u) for (u, v) in cycles[0]))
    assert back == x


def test_flip_rejects_non_face():
    t = generate_random(3, 5)
    x = chi(fcf_from_schnyder(t))
    with pytest.raises(NotDirectedFace):
        flip(x, ((0, 1), (1, 2), (2, 0)))


def test_flip_closure_equals_enumeration():
    for t in list(stackings_upto(2)):
        ext = StackExtension(t)
        xs = enumerate_alpha5(t, ext)
        start = xs[0]
        seen = {start.key()}
        queue = [start]
        while queue:
            x = queue.pop()
            for cyc in ccw_facial_cycles(x) + cw_facial_cycles(x):
                y = flip(x, cyc)
                if y.key() not in seen:
                    seen.add(y.key())
                    queue.append(y)
        assert seen == {x.key() for x in xs}


def test_inward_edge_count_rule():
    # 2l-5 arrows point from any all-inner simple cycle into its interior
    from conftest import all_inner_simple_cycles, inward_edge_count
    checked = 0
    for seed in range(30):
        t = generate_random(3 + seed % 4, 900 + seed)
        f = fcf_from_schnyder(t)
        ext = StackExtension(t)
        x = chi(f, ext)
        for cyc in all_inner_simple_cycles(t):
            count = inward_edge_count(t, ext, x, cyc)
            assert count == 2 * len(cyc) - 5, (seed, cyc, count)
            checked += 1
    assert checked > 0


def test_outer_cycle_has_no_inward_edges():
    # boundary vertices have out-degree zero, so nothing points inward
    t = generate_random(5, 77)
    x = chi(fcf_from_schnyder(t))
    assert all(x.outdeg(a) == 0 for a in t.outer)


def test_mirrored_rotations_accepted():
    w = wheel5()
    mirrored = {v: tuple(reversed(ns)) for v, ns in w.rot.items()}
    from pentact.planarmap import build_from_edges
    t = build_from_edges(w.outer, sorted(w.edges()), mirrored)
    assert t.reflected
    assert validate(t).ok
    assert t.rot == w.rot


def test_orientation_json(sample5_instance, sample5_forest):
    x = chi(sample5_forest)
    obj = x.to_json()
    assert len(obj["stack_vertices"]) == 8
    assert sorted(tuple(e) for e in obj["oriented_edges"]) == x.directed_edges()
