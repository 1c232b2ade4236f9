from fractions import Fraction

from pentact.forests import fcf_from_schnyder
from pentact.linsys import ROLE_COEFFS, assemble, solve
from pentact.orientations import (
    StackExtension,
    ccw_facial_cycles,
    chi,
    cw_facial_cycles,
)
from pentact.planarmap import build_from_edges, generate_random, wheel5
from pentact.q5 import ONE, PHI, Q5
from pentact.signs import classify_and_extract
from pentact.skeleton import build_skeleton
from pentact.solveloop import iterate, progress_check, surrounded_segment

from conftest import LONGRUN8_INNER_EDGES, hub_spread


def test_wheel_skeleton_structure():
    w = wheel5()
    sk = build_skeleton(w, fcf_from_schnyder(w))
    assert len(sk.segments) == 15
    for fd in sk.faces.values():
        assert fd.kind == "corner"
        assert [s.role for s in fd.cycle_segs] == [2, 3, 4]
        assert fd.cycle_segs[1].owner == ("v", 5)
    for i in range(1, 6):
        segs = sk.side_segments(5, i)
        assert len(segs) == 1 and segs[0].role == 3


def test_sample5_skeleton_side_colors(sample5_instance, sample5_forest):
    # pentagon of vertex 5: one incoming colour-5 edge splits side 5 in two
    sk = build_skeleton(sample5_instance, sample5_forest)
    pen = sk.pentagons[5]
    assert {c: len(ss) for c, ss in pen.sides.items()} == {
        1: 1, 2: 1, 3: 1, 4: 1, 5: 2}
    assert all(s.color == c for c, ss in pen.sides.items() for s in ss)
    # faces with one outer vertex are quadrilaterals with a frame segment
    fd = sk.faces[(0, 6, 5)]
    assert fd.kind == "quad"
    owners = {s.role: s.owner for s in fd.cycle_segs}
    assert owners[3] == ("frame", 1) or owners[4] == ("frame", 1)


def test_quad_counts_random():
    for seed in (2, 5):
        t = generate_random(6, seed)
        sk = build_skeleton(t, fcf_from_schnyder(t))
        assert len(sk.quad_faces()) == 2 * t.n_inner - 2
        assert len(sk.corner_faces()) == 5
        for fd in sk.quad_faces():
            assert sorted(s.role for s in fd.cycle_segs) == [1, 2, 3, 4]


def test_role_coefficients():
    assert dict(ROLE_COEFFS[3]) == {1: ONE, 2: PHI}
    assert dict(ROLE_COEFFS[4]) == {1: PHI, 2: ONE}


def test_dimensions():
    for t in (wheel5(), generate_random(4, 1), generate_random(9, 3)):
        system = assemble(build_skeleton(t, fcf_from_schnyder(t)))
        assert system.dim == 5 * t.n_inner + 6


def test_vertex_columns_nonpositive():
    t = generate_random(5, 8)
    system = assemble(build_skeleton(t, fcf_from_schnyder(t)))
    for j, key in enumerate(system.variables):
        if key[0] != "v":
            continue
        for row in system.rows:
            if j in row:
                assert row[j].sign() <= 0


def test_wheel_closed_form():
    w = wheel5()
    sol = solve(assemble(build_skeleton(w, fcf_from_schnyder(w))))
    half = Q5(Fraction(1, 2))
    assert sol[("v", 5)] == PHI * half
    for fd in sorted(f.face for f in build_skeleton(
            w, fcf_from_schnyder(w)).corner_faces()):
        assert sol[("f", fd, 1)] == Q5(0)
        assert sol[("f", fd, 2)] == half


def test_sample5_solution_regression(sample5_instance, sample5_forest):
    # frozen side lengths for this forest; the geometric checks in the
    # layout tests validate the same values independently
    sol = solve(assemble(build_skeleton(sample5_instance, sample5_forest)))
    frozen = {
        5: 0.4546294640647149,
        6: 0.2707279827787506,
        7: 0.1507367088399636,
        8: 0.2356059251438577,
        9: 0.1775675733633562,
    }
    for v, val in frozen.items():
        assert abs(sol[("v", v)].to_float() - val) < 1e-14
    assert sol.all_nonnegative()


def test_solution_json(sample5_instance, sample5_forest):
    sol = solve(assemble(build_skeleton(sample5_instance, sample5_forest)))
    dump = sol.to_json()
    assert dump["x_5"]["sign"] == 1
    assert set(dump) == {f"x_{v}" for v in (5, 6, 7, 8, 9)} | {
        k for k in dump if k.startswith("f")}


def test_classify_no_negatives(sample5_instance, sample5_forest):
    sk = build_skeleton(sample5_instance, sample5_forest)
    sol = solve(assemble(sk))
    signed = classify_and_extract(sk, sol, sk.x)
    assert signed.cycles == [] and signed.separating_edges == []


def _negative_case(start_seed):
    for seed in range(start_seed, start_seed + 200):
        n = 4 + seed % 7
        t = generate_random(n, seed)
        f = fcf_from_schnyder(t)
        ext = StackExtension(t)
        x = chi(f, ext)
        sk = build_skeleton(t, f, ext, x)
        sol = solve(assemble(sk))
        if sol.negatives():
            return t, f, sk, sol, x
    raise AssertionError("no negative case found")


def test_classify_negative_structure():
    t, f, sk, sol, x = _negative_case(0)
    signed = classify_and_extract(sk, sol, x)
    assert signed.cycles
    for cyc in signed.cycles:
        verts = [u for (u, _) in cyc]
        assert len(set(verts)) == len(verts)
        for i, (u, v) in enumerate(cyc):
            assert x.is_directed(u, v)
            assert cyc[(i + 1) % len(cyc)][0] == v
    # quadrilateral sign changes: none, or a convex-concave pair
    for fd in sk.quad_faces():
        changes = [node for node in fd.cycle_nodes
                   if (fd.corner_segments(node)[0].index
                       in signed.negative_segments)
                   != (fd.corner_segments(node)[1].index
                       in signed.negative_segments)]
        assert len(changes) in (0, 2)
        if changes:
            assert fd.anchor in changes


def test_iterate_wheel():
    res = iterate(wheel5(), fcf_from_schnyder(wheel5()))
    assert res.realized and res.iterations == 1
    assert res.trace[0].negative_count == 0


def test_iterate_realizes_and_chi_matches():
    instances = [generate_random(5 + seed % 5, seed) for seed in (3, 14, 27)]
    for t in instances + [hub_spread(20)]:
        res = iterate(t, fcf_from_schnyder(t))
        assert res.realized
        assert chi(res.forest, res.orientation.ext) == res.orientation


def test_iterate_cap():
    t = generate_random(6, 0)
    res = iterate(t, fcf_from_schnyder(t), max_iters=1)
    if not res.realized:
        assert res.reason == "iteration cap reached"
        assert len(res.trace) == 1


def test_single_flip_sign_alternation():
    swept = 0
    for seed in range(10):
        t = generate_random(3 + seed % 2, 100 + seed)
        f = fcf_from_schnyder(t)
        x = chi(f)
        for cyc in ccw_facial_cycles(x) + cw_facial_cycles(x):
            before, after, r1, r2 = progress_check(t, f, cyc)
            assert (before == 0 and after == 0) or before == -after
            assert r1 != r2 and {r1, r2} <= {1, 2}
            swept += 1
    assert swept >= 5


def test_surrounded_segment_identifies_concave(sample5_instance, sample5_forest):
    x = chi(sample5_forest)
    cycles = ccw_facial_cycles(x) + cw_facial_cycles(x)
    sk = build_skeleton(sample5_instance, sample5_forest, x.ext, x)
    for cyc in cycles:
        face, role = surrounded_segment(sk, cyc)
        assert role in (1, 2)
        assert face in {fd.face for fd in sk.quad_faces()}


def test_hub_spread_loop_runs_n_minus_3():
    for n in (8, 10, 12):
        t = hub_spread(n)
        assert t.degree(5) == n + 4
        result = iterate(t, fcf_from_schnyder(t))
        assert result.realized
        assert result.iterations == n - 3


def test_longrun8_trace():
    # twice as many iterations as hub-spread at the same n, and the
    # negative count is not monotone along the run
    outer = [0, 1, 2, 3, 4]
    edges = [(i, (i + 1) % 5) for i in range(5)] + LONGRUN8_INNER_EDGES
    t = build_from_edges(outer, edges)
    assert t.n_inner == 8
    result = iterate(t, fcf_from_schnyder(t))
    assert result.realized
    assert result.iterations == 10
    assert [r.negative_count for r in result.trace] == [
        1, 1, 2, 2, 2, 2, 2, 1, 1, 0]
