"""The p-adic lifting solver against a dense Gauss oracle over Q(sqrt 5)."""

from pathlib import Path

import pytest

from pentact import linsys, solveloop
from pentact.errors import SingularMatrix
from pentact.forests import fcf_from_schnyder
from pentact.linsys import LinearSystem, assemble, solve
from pentact.planarmap import generate_random, loads
from pentact.q5 import PHI, ZERO
from pentact.skeleton import build_skeleton

from conftest import nested_stack

DATA = Path(__file__).resolve().parent.parent / "data"


def gauss_q5(system):
    """Dense Gaussian elimination over Q(sqrt 5), first non-zero pivot."""
    dim = system.dim
    mat = [[row.get(j, ZERO) for j in range(dim)] + [b]
           for row, b in zip(system.rows, system.rhs)]
    for k in range(dim):
        piv = next(r for r in range(k, dim) if mat[r][k])
        mat[k], mat[piv] = mat[piv], mat[k]
        pivot_row = mat[k]
        inv = pivot_row[k].inverse()
        for r in range(k + 1, dim):
            if mat[r][k]:
                f = mat[r][k] * inv
                mat[r] = [a - f * b if b else a for a, b in zip(mat[r], pivot_row)]
    xs = [ZERO] * dim
    for i in range(dim - 1, -1, -1):
        acc = mat[i][dim]
        for j in range(i + 1, dim):
            if mat[i][j]:
                acc = acc - mat[i][j] * xs[j]
        xs[i] = acc / mat[i][i]
    return dict(zip(system.variables, xs))


def first_system(t):
    return assemble(build_skeleton(t, fcf_from_schnyder(t)))


def checked_solve(system):
    sol = solve(system)
    assert sol.values == gauss_q5(system)
    return sol


@pytest.mark.parametrize("name", ["wheel.json", "sample5.json"])
def test_bundled_instances_match_oracle(name):
    t = loads((DATA / name).read_text(encoding="utf-8"))
    checked_solve(first_system(t))


def test_every_loop_system_of_small_random_instances_matches_oracle(monkeypatch):
    monkeypatch.setattr(solveloop, "solve", checked_solve)
    dims = set()
    for i in range(24):
        t = generate_random(1 + i % 12, 5000 + i)
        result = solveloop.iterate(t, fcf_from_schnyder(t))
        assert result.realized
        dims.add(result.solution.system.dim)
    assert max(dims) == 66


def test_nested_stacking_matches_oracle():
    bits = 0
    for depth in range(1, 41):
        sol = checked_solve(first_system(nested_stack(depth)))
        bits = max(bits, max(max(abs(f.numerator).bit_length(), f.denominator.bit_length())
                             for v in sol.values.values() for f in (v.a, v.b)))
    assert bits == 54


def test_certificate_rejects_corrupted_solution(monkeypatch):
    system = first_system(nested_stack(6))
    reconstruct = linsys._reconstruct

    def corrupted(*args):
        candidate = reconstruct(*args)
        if candidate is None:
            return None
        q, nums = candidate
        return q, [nums[0] + 1] + nums[1:]

    monkeypatch.setattr(linsys, "_reconstruct", corrupted)
    with pytest.raises(SingularMatrix, match="Hadamard bound"):
        solve(system)


@pytest.mark.parametrize("factor", [1, PHI])
def test_singular_system_raises(factor):
    # a row repeated, or repeated times phi: singular over Q(sqrt 5) but not
    # visibly so from the rational parts alone
    s = first_system(loads((DATA / "sample5.json").read_text(encoding="utf-8")))
    rows = list(s.rows)
    rows[-1] = {j: factor * c for j, c in rows[1].items()}
    rhs = list(s.rhs)
    rhs[-1] = factor * rhs[1]
    singular = LinearSystem(s.skeleton, s.variables, s.var_index, rows, rhs,
                            s.row_labels)
    with pytest.raises(SingularMatrix, match="singular"):
        solve(singular)


def test_vanishing_pivot_moves_to_next_prime(monkeypatch):
    # the wheel's integer system is singular modulo 2
    system = first_system(loads((DATA / "wheel.json").read_text(encoding="utf-8")))
    tried = []
    next_prime = linsys._next_prime

    def spy(p):
        tried.append(p)
        return next_prime(p)

    monkeypatch.setattr(linsys, "PRIME", 2)
    monkeypatch.setattr(linsys, "_next_prime", spy)
    checked_solve(system)
    assert tried == [2]


def test_next_prime():
    assert [linsys._next_prime(p) for p in (2, 3, 7, 23, 2**31 - 1)] == [
        3, 5, 11, 29, 2**31 + 11]
