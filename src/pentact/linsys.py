"""Assembly and exact solution of the side-length equation system.

Unknowns are one side length per inner vertex plus the two independent
segment lengths of every inner face (roles 3 and 4 are eliminated through
role3 = role1 + phi*role2 and role4 = phi*role1 + role2).  Equations: five
side sums per inner vertex, role1 = 0 for the five frame-corner faces, and
one normalisation fixing the top frame side to length 1.  The matrix is
square of dimension 5n+6 and is solved exactly over Q(sqrt 5) by p-adic
lifting (Dixon 1982): the system is rewritten as an integer system of twice
the size, factored once modulo a prime by a sparse LU with Markowitz pivots,
and its solution is lifted one base-p digit at a time until rational
reconstruction gives a candidate that the exact residual check accepts.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, SingularMatrix
from .q5 import ONE, PHI, Q5, ZERO

ROLE_COEFFS = {
    1: ((1, ONE),),
    2: ((2, ONE),),
    3: ((1, ONE), (2, PHI)),
    4: ((1, PHI), (2, ONE)),
}

# modulus of the LU; replaced by the next prime only if a pivot vanishes mod p
PRIME = 2**31 - 1
# rational reconstruction asks for 2*GUARD_BITS bits beyond the fraction it
# returns, so that a residue that merely looks small is rarely taken
GUARD_BITS = 8


def seg_var_coeffs(seg):
    """Sparse coefficients of a segment length in the reduced variables."""
    return [(("f", seg.face, slot), coeff) for slot, coeff in ROLE_COEFFS[seg.role]]


@dataclass
class LinearSystem:
    skeleton: object
    variables: list
    var_index: dict
    rows: list          # sparse rows: dict var-index -> Q5
    rhs: list
    row_labels: list

    @property
    def dim(self):
        return len(self.rows)


def assemble(sk):
    """Equation system for a skeleton; raises on dimension inconsistencies."""
    t = sk.t
    inner = sorted(t.inner_vertices())
    faces = sorted(sk.faces)
    variables = [("v", v) for v in inner]
    for fc in faces:
        variables.append(("f", fc, 1))
        variables.append(("f", fc, 2))
    var_index = {key: i for i, key in enumerate(variables)}

    rows, rhs, labels = [], [], []

    def seg_sum(segs):
        row = {}
        for seg in segs:
            for key, coeff in seg_var_coeffs(seg):
                idx = var_index[key]
                row[idx] = row.get(idx, ZERO) + coeff
        return row

    row = seg_sum(sk.frame_sides[1])
    rows.append(row)
    rhs.append(ONE)
    labels.append("frame side 1 = 1")

    for v in inner:
        for i in range(1, 6):
            row = seg_sum(sk.side_segments(v, i))
            xi = var_index[("v", v)]
            row[xi] = row.get(xi, ZERO) - ONE
            rows.append(row)
            rhs.append(ZERO)
            labels.append(f"side {i} of vertex {v}")

    for fd in sorted(sk.corner_faces(), key=lambda fd: fd.face):
        rows.append({var_index[("f", fd.face, 1)]: ONE})
        rhs.append(ZERO)
        labels.append(f"corner face {fd.face}: role1 = 0")

    n = len(inner)
    if len(rows) != len(variables) or len(rows) != 5 * n + 6:
        raise DimensionMismatch(
            f"{len(rows)} equations vs {len(variables)} variables (n={n})")
    return LinearSystem(sk, variables, var_index, rows, rhs, labels)


class Solution:
    """Exact solution vector with helpers for segments and signs."""

    def __init__(self, system, values):
        self.system = system
        self.values = values

    def __getitem__(self, key):
        return self.values[key]

    def seg_value(self, seg):
        total = ZERO
        for key, coeff in seg_var_coeffs(seg):
            total = total + coeff * self.values[key]
        return total

    def negatives(self):
        return [key for key in self.system.variables
                if self.values[key].sign() < 0]

    def all_nonnegative(self):
        return not self.negatives()

    def to_json(self):
        out = {}
        for key in self.system.variables:
            name = (f"x_{key[1]}" if key[0] == "v"
                    else f"f{key[2]}_{'_'.join(map(str, key[1]))}")
            val = self.values[key]
            out[name] = {**val.to_json(), "sign": val.sign()}
        return out


# -- exact solver -----------------------------------------------------------


def solve(system):
    """Exact solution over Q(sqrt 5) by p-adic lifting (Dixon 1982).

    With A = A_a + A_b*sqrt5 and x = x_a + x_b*sqrt5 (rows scaled to
    integers), A x = b is the integer system M (x_a, x_b) = (b_a, b_b) with
    M = [[A_a, 5*A_b], [A_b, A_a]], whose determinant is the norm of det A.
    M is factored once modulo a prime p; each lifting step solves for the
    next balanced base-p digit vector and divides the integer residual by p
    exactly.  Rational reconstruction of a random projection of the digits
    gives a common denominator, repaired entry by entry, and the candidate
    is returned only once the residual of A x = b is exactly zero.  Lifting
    stops at the Hadamard bound; a system that is singular, or that no
    candidate within that bound solves, raises SingularMatrix, which signals
    a bug because the system is provably uniquely solvable.
    """
    dim = system.dim
    rows, rhs = _integer_block(system)
    size = 2 * dim
    # Hadamard: every denominator divides det M <= prod of column norms, and
    # every numerator over it is at most |rhs| times that product
    col_sq = [0] * size
    for row in rows:
        for j, v in row:
            col_sq[j] += v * v
    if not all(col_sq):
        raise SingularMatrix("a variable appears in no equation: the system is singular")
    det_bits = sum(math.log2(c) for c in col_sq) / 2

    # a non-zero det M has fewer than det_bits / log2(PRIME) prime factors
    # from PRIME up, so if that many primes all divide it, it is zero
    p, attempts = PRIME, int(det_bits / math.log2(PRIME)) + 1
    while (steps := _factor(rows, size, p)) is None:
        attempts -= 1
        if not attempts:
            raise SingularMatrix(f"a pivot column vanished modulo every prime "
                                 f"from {PRIME} to {p}: the system is singular")
        p = _next_prime(p)

    rng = random.Random(size)
    weights = [rng.getrandbits(16) | 1 for _ in range(size)]
    rhs_bits = math.log2(sum(v * v for v in rhs) or 1) / 2
    limit_bits = (2 * (det_bits + rhs_bits + math.log2(sum(weights)) + GUARD_BITS)
                  + 4)
    digits = [0] * size      # the p-adic expansion of the solution so far
    projection = 0           # sum(weights[j] * digits[j])
    modulus = 1
    residual = rhs
    while True:
        step = _solve_mod(steps, residual, p)
        for j, y in enumerate(step):
            if y:
                digits[j] += y * modulus
        projection += sum(w * y for w, y in zip(weights, step)) * modulus
        residual = [(r - sum(v * step[j] for j, v in row)) // p
                    for r, row in zip(residual, rows)]
        modulus *= p
        candidate = _reconstruct(digits, projection, modulus)
        if candidate is not None:
            q, nums = candidate
            xs = [Q5(Fraction(nums[j], q), Fraction(nums[dim + j], q))
                  for j in range(dim)]
            if _is_exact_solution(system, xs):
                return Solution(system, dict(zip(system.variables, xs)))
        if modulus.bit_length() > limit_bits:
            raise SingularMatrix("no exact solution within the Hadamard bound")


def _is_exact_solution(system, xs):
    """Whether ``xs`` satisfies every equation exactly, in Q(sqrt 5)."""
    for row, b in zip(system.rows, system.rhs):
        acc = ZERO
        for j, coeff in row.items():
            acc = acc + coeff * xs[j]
        if acc != b:
            return False
    return True


def _integer_block(system):
    """Sparse rows ``[(col, int), ...]`` and right-hand side of M x = b over Z."""
    dim = system.dim
    rows, rhs = [None] * (2 * dim), [0] * (2 * dim)
    for i, (row, b) in enumerate(zip(system.rows, system.rhs)):
        scale = math.lcm(b.a.denominator, b.b.denominator,
                         *(c.a.denominator for c in row.values()),
                         *(c.b.denominator for c in row.values()))
        real, irrational = [], []
        for j, c in row.items():
            ca = c.a.numerator * (scale // c.a.denominator)
            cb = c.b.numerator * (scale // c.b.denominator)
            if ca:
                real.append((j, ca))
                irrational.append((dim + j, ca))
            if cb:
                real.append((dim + j, 5 * cb))
                irrational.append((j, cb))
        rows[i], rows[dim + i] = real, irrational
        rhs[i] = b.a.numerator * (scale // b.a.denominator)
        rhs[dim + i] = b.b.numerator * (scale // b.b.denominator)
    return rows, rhs


def _factor(rows, size, p):
    """Sparse LU of the square integer matrix ``rows`` modulo p.

    Pivots follow Markowitz's rule in its usual cheap form: the active column
    with the fewest entries, found in a lazy heap, then its shortest row.
    Returns the elimination steps ``(row, col, 1/pivot, rest of the pivot
    row, [(row, multiplier), ...])`` in order, or None when an active column
    vanishes modulo p.
    """
    work, cols = [], [set() for _ in range(size)]
    for i, row in enumerate(rows):
        entries = {}
        for j, v in row:
            v %= p
            if v:
                entries[j] = v
                cols[j].add(i)
        work.append(entries)
    heap = [(len(c), j) for j, c in enumerate(cols)]
    heapq.heapify(heap)
    steps = []
    while heap:
        count, c = heapq.heappop(heap)
        col = cols[c]
        if col is None or count != len(col):
            continue            # eliminated already, or a stale count
        if not count:
            return None
        r = min(col, key=lambda i: len(work[i]))
        pivot_row = work[r]
        work[r] = None
        cols[c] = None
        inv = pow(pivot_row.pop(c), -1, p)
        col.discard(r)
        for j in pivot_row:
            cols[j].discard(r)
        multipliers = []
        for i in col:
            row = work[i]
            f = row.pop(c) * inv % p
            multipliers.append((i, f))
            for j, v in pivot_row.items():
                w = (row.get(j, 0) - f * v) % p
                if w:
                    row[j] = w
                    cols[j].add(i)
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
        for j in pivot_row:
            heapq.heappush(heap, (len(cols[j]), j))
        steps.append((r, c, inv, list(pivot_row.items()), multipliers))
    return steps


def _solve_mod(steps, rhs, p):
    """The balanced solution (entries in (-p/2, p/2]) of M y = rhs mod p."""
    half = p // 2
    w = [v % p for v in rhs]
    for r, _, _, _, multipliers in steps:
        t = w[r]
        if t:
            for i, f in multipliers:
                w[i] = (w[i] - f * t) % p
    y = [0] * len(rhs)
    for r, c, inv, rest, _ in reversed(steps):
        s = w[r]
        for j, v in rest:
            s -= v * y[j]
        s = s * inv % p
        y[c] = s - p if s > half else s
    return y


def _reconstruct(digits, projection, modulus):
    """Common denominator and numerators of the solution, or None if not yet.

    The projection's denominator is a first guess at the common one; each
    entry whose numerator over it is still large contributes its own
    missing factor.
    """
    bound = math.isqrt(modulus >> (2 * GUARD_BITS + 1))
    first = _rational(projection, modulus, bound)
    if first is None:
        return None
    q = first[1]
    for x in digits:
        v = _balanced(x * q, modulus)
        if abs(v) > bound:
            extra = _rational(v, modulus, bound)
            if extra is None:
                return None
            q *= extra[1]
            if q > bound:
                return None
    nums = [_balanced(x * q, modulus) for x in digits]
    if any(abs(v) > bound for v in nums):
        return None
    return q, nums


def _balanced(x, modulus):
    x %= modulus
    return x - modulus if 2 * x > modulus else x


def _rational(u, modulus, bound):
    """(n, d) with n = d*u mod ``modulus``, |n| <= bound and 0 < d <= bound, or None."""
    r0, r1 = modulus, u % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        t0, t1 = t1, t0 - k * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _next_prime(p):
    """The smallest prime above p, by trial division; needed only when p | det M."""
    q = p + 1
    while any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        q += 1
    return q
