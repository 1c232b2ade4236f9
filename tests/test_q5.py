from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pentact.q5 import ONE, PHI, Q5, ZERO

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4)
q5s = st.builds(Q5, rationals, rationals)


def test_golden_ratio_identities():
    assert PHI * PHI == PHI + 1
    assert 1 / PHI == PHI - 1
    assert (Q5(2, 1)) * (Q5(2, -1)) == Q5(-1)


def test_sign_examples():
    assert Q5(1, 0).sign() == 1
    assert Q5(-2, 1).sign() == 1          # sqrt5 > 2
    assert (PHI - PHI).sign() == 0
    assert Q5(2, -1).sign() == -1         # 2 < sqrt5
    assert Q5(Fraction(9, 4), -1).sign() == 1   # 9/4 > sqrt5


def test_to_float():
    assert abs(PHI.to_float() - 1.6180339887498949) < 5e-16
    assert ZERO.to_float() == 0.0
    assert Q5(Fraction(1, 3)).to_float() == 1 / 3


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_json_roundtrip():
    x = Q5(Fraction(-3, 7), Fraction(22, 5))
    assert Q5.from_json(x.to_json()) == x


def test_comparisons():
    assert PHI > 1
    assert Q5(0, 1) > 2
    assert Q5(0, 1) < Fraction(9, 4)
    assert sorted([PHI, ZERO, ONE]) == [ZERO, ONE, PHI]


def test_immutability_and_hash():
    with pytest.raises(AttributeError):
        PHI.a = Fraction(1)
    assert hash(Q5(3, 0)) == hash(3)
    assert len({PHI, PHI + 0}) == 1


@given(q5s, q5s, q5s)
def test_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(q5s)
def test_inverse(x):
    if x != ZERO:
        assert x * (1 / x) == ONE


@given(q5s)
def test_sign_matches_float(x):
    f = x.to_float()
    if abs(f) > 1e-9:
        assert x.sign() == (1 if f > 0 else -1)


@given(q5s)
def test_to_float_rounds_each_component_separately(x):
    assert x.to_float() == float(x.a) + float(x.b) * 5 ** 0.5
