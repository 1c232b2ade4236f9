import hashlib
import json
import math

import pytest

from pentact import layout
from pentact.errors import ClosureFailure, DegenerateContact, NegativeInput
from pentact.forests import fcf_from_schnyder
from pentact.layout import (
    PentagonShape,
    emit,
    emit_svg,
    induced_fcf,
    layout_to_json,
    realize,
    verify,
)
from pentact.linsys import Solution, assemble, solve
from pentact.planarmap import generate_random, wheel5
from pentact.q5 import ONE, Q5
from pentact.skeleton import build_skeleton
from pentact.solveloop import iterate

from conftest import nested_stack


def _realized(t):
    res = iterate(t, fcf_from_schnyder(t))
    assert res.realized
    return res


def test_wheel_layout_closed_form():
    w = wheel5()
    res = _realized(w)
    lay = realize(res.skeleton, res.solution)
    assert all(q == ONE for q in lay.frame_sides.values())
    shape = lay.pentagons[5]
    assert abs(shape.side_float - 1.6180339887498949 / 2) < 1e-15
    assert math.hypot(shape.apex[0] - 0.5, shape.apex[1]) < 1e-12
    corners = shape.corners()
    mids = []
    for i in range(5):
        a, b = lay.frame_corners[i], lay.frame_corners[(i + 1) % 5]
        mids.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    for c in corners:
        assert min(math.hypot(c[0] - m[0], c[1] - m[1]) for m in mids) < 1e-9


def test_wheel_verify_and_contacts():
    w = wheel5()
    res = _realized(w)
    lay = realize(res.skeleton, res.solution)
    assert verify(lay, w).ok
    assert len(lay.contacts) == 5
    assert all(c.on_frame for c in lay.contacts)


def test_negative_input_refused():
    t, seed = None, 0
    while True:
        t = generate_random(5 + seed % 5, seed)
        f = fcf_from_schnyder(t)
        sk = build_skeleton(t, f)
        sol = solve(assemble(sk))
        if not sol.all_nonnegative():
            with pytest.raises(NegativeInput):
                realize(sk, sol)
            return
        seed += 1


def test_realize_refuses_inconsistent_solution():
    res = _realized(generate_random(5, 3))
    sol = res.solution
    key = next(k for k in sol.system.variables if k[0] == "f" and k[2] == 2)
    values = dict(sol.values)
    values[key] = values[key] + 1
    with pytest.raises(ClosureFailure, match="segment 27 does not close"):
        realize(res.skeleton, Solution(sol.system, values))


def test_realize_evaluates_each_segment_once(monkeypatch):
    res = _realized(generate_random(5, 3))
    calls = []
    segment_value = layout._segment_value

    def counting(ab, seg):
        calls.append(seg.index)
        return segment_value(ab, seg)

    monkeypatch.setattr(layout, "_segment_value", counting)
    realize(res.skeleton, res.solution)
    assert sorted(calls) == list(range(len(res.skeleton.segments)))
    assert len(calls) == 47


# sha256 over the JSON and contact-graph SVG of every layout below; the JSON
# holds every float of the layout (as repr) and the exact frame side lengths
REALIZE_GOLDEN = "50402b0514a04c9c143af5ea1beffe247450de3ee2df11808783196e17c7955d"


def test_realize_output_bytes_golden():
    # nested depths 12, 25 and 40 fail the float verify but realize exactly
    instances = [nested_stack(d) for d in (1, 11, 12, 25, 40)]
    instances += [generate_random(n, s) for n in range(1, 13) for s in range(3)]
    h = hashlib.sha256()
    for t in instances:
        res = _realized(t)
        lay = realize(res.skeleton, res.solution)
        h.update(json.dumps(layout_to_json(lay), sort_keys=True).encode())
        h.update(emit_svg(lay, contact_graph=True).encode())
    assert h.hexdigest() == REALIZE_GOLDEN


def test_verify_detects_shrunk_pentagon(sample5_instance, sample5_forest):
    res = iterate(sample5_instance, sample5_forest)
    lay = realize(res.skeleton, res.solution)
    assert verify(lay, sample5_instance).ok
    victim = lay.pentagons[5]
    lay.pentagons[5] = PentagonShape(
        5, victim.apex, victim.side, victim.side_float * 0.99)
    rep = verify(lay, sample5_instance)
    assert not rep.ok


def test_induced_roundtrip(sample5_instance, sample5_forest):
    res = iterate(sample5_instance, sample5_forest)
    lay = realize(res.skeleton, res.solution)
    assert induced_fcf(lay, sample5_instance) == res.forest


def test_induced_refuses_degenerate():
    # this seed yields an exact zero-length concave segment
    hit = False
    for seed in range(500, 530):
        t = generate_random(3 + (seed - 500) % 10, seed)
        res = _realized(t)
        lay = realize(res.skeleton, res.solution)
        zero_segs = [s for s in res.skeleton.segments
                     if res.solution.seg_value(s).sign() == 0
                     and s.owner[0] == "v"]
        if not zero_segs:
            assert induced_fcf(lay, t) == res.forest
            continue
        with pytest.raises(DegenerateContact):
            induced_fcf(lay, t)
        hit = True
    assert hit


def test_emit_svg_wheel(tmp_path):
    w = wheel5()
    res = _realized(w)
    lay = realize(res.skeleton, res.solution)
    svg = emit_svg(lay)
    assert svg.count('class="pentagon"') == 1
    assert svg.count('class="frame"') == 1
    path = emit(lay, "svg", tmp_path / "w5.svg")
    assert (tmp_path / "w5.svg").read_text() == svg


def test_emit_json_exact_roundtrip(sample5_instance, sample5_forest, tmp_path):
    res = iterate(sample5_instance, sample5_forest)
    lay = realize(res.skeleton, res.solution)
    emit(lay, "json", tmp_path / "sample.json")
    data = json.loads((tmp_path / "sample.json").read_text())
    for v, shape in lay.pentagons.items():
        back = Q5.from_json(data["pentagons"][str(v)]["side"])
        assert back == shape.side


def test_emit_deterministic(sample5_instance, sample5_forest):
    res = iterate(sample5_instance, sample5_forest)
    lay = realize(res.skeleton, res.solution)
    svg = emit_svg(lay, contact_graph=True)
    assert svg == emit_svg(lay, contact_graph=True)
    assert svg.count('class="pentagon"') == 5
    assert svg.count('class="contact-graph"') == len(lay.contacts)


def test_random_end_to_end():
    for seed in (601, 602, 603, 604):
        t = generate_random(4 + seed % 6, seed)
        res = _realized(t)
        lay = realize(res.skeleton, res.solution)
        assert verify(lay, t).ok
