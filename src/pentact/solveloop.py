"""The solve / reorient loop and the single-flip progress probe.

Each round solves the current forest's system.  A non-negative solution is
final; otherwise all extracted sign-separating cycles are reversed at once
in the orientation, the forest is recovered from it by propagating colours
from the boundary, and the loop restarts.  Termination is conjectural, so
the loop keeps a seen set of orientations and a hard iteration cap and
reports a full trace when it has to give up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .linsys import assemble, solve
from .orientations import StackExtension, chi, flip, psi
from .signs import classify_and_extract
from .skeleton import build_skeleton, contact_node, stack_corner_node


@dataclass
class IterationRecord:
    index: int
    negative_count: int
    cycle_count: int
    orientation_hash: str

    def to_json(self):
        return {
            "iteration": self.index,
            "negatives": self.negative_count,
            "cycles": self.cycle_count,
            "orientation": self.orientation_hash,
        }


@dataclass
class IterateResult:
    status: str                  # 'realized' | 'nonterminated'
    reason: str
    iterations: int
    trace: list = field(default_factory=list)
    forest: object = None
    orientation: object = None
    skeleton: object = None
    solution: object = None

    @property
    def realized(self):
        return self.status == "realized"


def _orientation_hash(x):
    """First 16 hex digits of the sha256 of the sorted directed edges."""
    return hashlib.sha256(repr(x.directed_edges()).encode()).hexdigest()[:16]


def iterate(t, f0, max_iters=None):
    """Run the solve/reorient loop from an initial forest."""
    if max_iters is None:
        max_iters = 10 * t.n_inner + 100
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    ext = StackExtension(t)
    x = chi(f0, ext)
    f = f0
    seen = {x.key()}
    trace = []
    for it in range(1, max_iters + 1):
        sk = build_skeleton(t, f, ext, x)
        sol = solve(assemble(sk))
        negs = sol.negatives()
        if not negs:
            trace.append(IterationRecord(it, 0, 0, _orientation_hash(x)))
            return IterateResult("realized", "non-negative solution", it,
                                 trace, f, x, sk, sol)
        signed = classify_and_extract(sk, sol, x)
        trace.append(IterationRecord(it, len(negs), len(signed.cycles),
                                     _orientation_hash(x)))
        x = x.reoriented(signed.cycle_edge_set())
        f = psi(x)
        if x.key() in seen:
            return IterateResult("nonterminated",
                                 "orientation revisited", it, trace, f, x)
        seen.add(x.key())
    return IterateResult("nonterminated", "iteration cap reached",
                         max_iters, trace, f, x)


def surrounded_segment(sk, cycle):
    """(face, role) of the segment surrounded by a directed facial cycle.

    The cycle passes one stack vertex; of the two segments at the concave
    corner of its face, the surrounded one ends at the contact point of the
    cycle's normal edge.
    """
    ext = sk.ext
    stack = next(v for (v, _) in cycle if ext.is_stack(v))
    face = ext.face_of_stack[stack]
    normal = next((u, v) for (u, v) in cycle
                  if not ext.is_stack(u) and not ext.is_stack(v))
    target = contact_node(*normal)
    anchor = stack_corner_node(face)
    fd = sk.faces[face]
    for role in (1, 2):
        seg = fd.seg_by_role(role)
        nodes = set(seg.nodes())
        if anchor in nodes and target in nodes:
            return face, role
    raise ValueError(f"cycle {cycle} does not surround a concave segment")


def progress_check(t, f, cycle):
    """Solve before and after flipping one directed facial cycle.

    Returns ``(sign_before, sign_after, role_before, role_after)`` for the
    variable of the surrounded segment in the two systems.
    """
    ext = StackExtension(t)
    x = chi(f, ext)
    sk1 = build_skeleton(t, f, ext, x)
    sol1 = solve(assemble(sk1))
    face, role1 = surrounded_segment(sk1, cycle)
    before = sol1[("f", face, role1)].sign()

    x2 = flip(x, cycle)
    f2 = psi(x2)
    sk2 = build_skeleton(t, f2, ext, x2)
    sol2 = solve(assemble(sk2))
    face2, role2 = surrounded_segment(sk2, tuple((v, u) for (u, v) in reversed(cycle)))
    assert face2 == face
    after = sol2[("f", face, role2)].sign()
    return before, after, role1, role2
