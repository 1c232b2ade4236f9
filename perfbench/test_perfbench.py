"""Tests of the benchmark's own helpers (run with the repository's pytest)."""

import pytest

from pentact import cli, planarmap
from perfbench import measure, workloads


@pytest.mark.parametrize("depth", [1, 2, 5, 12, 20])
def test_nested_stack_is_valid_with_depth_inner_vertices(depth):
    t = workloads.nested_stack(planarmap, depth)
    assert planarmap.validate(t).ok
    assert t.n_inner == depth
    deepest = 4 + depth
    assert set(t.rot[deepest]) == ({0, 1, 2, 3, 4} if depth == 1 else {0, 1, deepest - 1})


def test_nested_stack_rejects_depth_zero():
    with pytest.raises(ValueError):
        workloads.nested_stack(planarmap, 0)


def test_instances_depend_only_on_the_seed():
    a = workloads.make_instances(planarmap, "corpus-small", 3)
    assert a == workloads.make_instances(planarmap, "corpus-small", 3)
    assert a != workloads.make_instances(planarmap, "corpus-small", 4)
    assert [i.n for i in a[:13]] == list(range(1, 13)) + [1]
    for fixed in ("random-n40", "nested-stack"):
        assert workloads.make_instances(planarmap, fixed, 1) == workloads.make_instances(
            planarmap, fixed, 2)


def test_percentile_needs_ten_samples_beyond_it():
    assert measure.percentile(list(range(1, 200)), 95) is None
    assert measure.percentile(list(range(1, 201)), 95) == 190
    assert measure.percentile(list(range(1, 20)), 50) is None
    assert measure.percentile(list(range(20, 0, -1)), 50) == 10
    assert measure.percentile([], 50) is None


@pytest.mark.parametrize("code, kind", [
    (0, "ok"), (1, "invalid"), (2, "parse"), (3, "nonterminated"),
    (None, "exception"), (7, "exit-7"),
])
def test_exit_code_classification(code, kind):
    assert measure.classify(code) == kind
    assert measure.Outcome(code, 0.0).ok == (code == 0)


@pytest.mark.parametrize("a, b, sign", [
    (0, 0, 0), (1, 0, 1), (0, -1, -1), (-3, 1, -1), (3, -1, 1), (2, -1, -1), (-2, 1, 1),
])
def test_exact_sign(a, b, sign):
    assert measure.exact_sign(a, b) == sign


def test_call_represent_checks_output_and_classifies_failure(tmp_path):
    for depth, code in ((3, 0), (12, 1)):
        graph = tmp_path / f"nested{depth}.json"
        graph.write_text(workloads.nested_stack(planarmap, depth).dumps())
        outcome = measure.call_represent(cli, depth, graph, tmp_path / "out")
        assert outcome.exit_code == code
        assert outcome.problems == ()
        assert (outcome.iterations, outcome.solution is not None) == (
            (1, True) if code == 0 else (None, False))
        assert not list(tmp_path.glob("out.*"))
    assert "geometry check failed" in outcome.message


def test_check_payload_flags_a_wrong_sign():
    payload = {"solution": {"x_5": {"a": "-1", "b": "1", "sign": -1}},
               "pentagons": {"5": {"side": {"a": "-1", "b": "1"}}}}
    assert "x_5: stated sign -1, exact sign 1" in measure.check_payload(payload, 1)
