"""Schnyder woods and five color forests.

A five color forest orients and colours every inner edge of a pentagon
triangulation so that, clockwise around each inner vertex, outgoing edges of
colours 1..5 appear in cyclic colour order with the incoming colour-i block
sitting opposite the colour-i outgoing edge.  Schnyder woods are the
three-colour analogue on triangle triangulations; the forest is built from
three of them (one on the contracted map, one inside each cleared corner
triangle).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ParseError, PentactError
from .planarmap import contract_for_schnyder


def mod5(c):
    """Colours are representatives modulo 5, normalised to 1..5."""
    return (c - 1) % 5 + 1


# -- Schnyder woods --------------------------------------------------------


class SchnyderWood:
    """Orientation and colouring of the inner edges of a triangle map."""

    def __init__(self, tri, colored_edges):
        self.tri = tri
        self.color_of = {}
        for (u, v, c) in colored_edges:
            if (u, v) in self.color_of or (v, u) in self.color_of:
                raise PentactError(f"edge ({u},{v}) coloured twice")
            self.color_of[(u, v)] = c

    def oriented_edges(self):
        return [(u, v, c) for (u, v), c in sorted(self.color_of.items())]


def schnyder_wood(tri, colors=(1, 2, 3)):
    """Schnyder wood of an inner triangulation of a triangle.

    The outer cycle (apex, right, left) is clockwise; `colors` gives the
    colour whose edges point into each of those corners, in the same order.
    Vertices are peeled in canonical order, smallest id first among the
    eligible ones, so the result is deterministic.
    """
    apex, right, left = tri.outer
    c_top, c_right, c_left = colors
    remaining = set(tri.rot)
    contour = [left, apex, right]
    edges = []
    outer_pairs = tri.outer_edges()

    def emit(u, v, c):
        key = (u, v) if u < v else (v, u)
        if key not in outer_pairs:
            edges.append((u, v, c))

    while len(contour) > 2:
        contour_set = set(contour)
        pick = None
        for idx in range(1, len(contour) - 1):
            w = contour[idx]
            on_contour = sum(1 for u in tri.rot[w] if u in remaining and u in contour_set)
            if on_contour == 2 and (pick is None or w < contour[pick]):
                pick = idx
        if pick is None:
            raise PentactError("canonical-order peeling got stuck")
        w = contour[pick]
        c_l, c_r = contour[pick - 1], contour[pick + 1]
        ns = [u for u in tri.rot[w] if u in remaining]
        # fan from the left contour neighbour to the right one, ccw around w
        order = list(reversed(ns))
        i = order.index(c_l)
        fan = order[i:] + order[:i]
        if fan[-1] != c_r:
            raise PentactError(f"contour fan of {w} is not contiguous")
        emit(w, c_l, c_left)
        emit(w, c_r, c_right)
        for m in fan[1:-1]:
            emit(m, w, c_top)
        remaining.discard(w)
        contour[pick:pick + 1] = fan[1:-1]
    return SchnyderWood(tri, edges)


def validate_schnyder(wood, colors=(1, 2, 3)):
    """Check (S1) and (S2); returns a list of violation strings."""
    tri = wood.tri
    c_top, c_right, c_left = colors
    color_at = dict(zip(tri.outer, colors))
    directed = wood.color_of
    problems = []

    def edge_data(v, u):
        if (v, u) in directed:
            return "out", directed[(v, u)]
        if (u, v) in directed:
            return "in", directed[(u, v)]
        return None, None

    for b, cb in color_at.items():
        for u in tri.rot[b]:
            kind, c = edge_data(b, u)
            if kind == "out":
                problems.append(f"(S1) edge leaves outer vertex {b}")
            elif kind == "in" and c != cb:
                problems.append(f"(S1) edge into {b} coloured {c}, expected {cb}")

    # (S2): clockwise pattern out_top, in_left*, out_right, in_top*, out_left, in_right*
    phase = {
        ("out", c_top): 0, ("in", c_left): 1,
        ("out", c_right): 2, ("in", c_top): 3,
        ("out", c_left): 4, ("in", c_right): 5,
    }
    for v in tri.inner_vertices():
        seq = []
        outs = []
        for u in tri.rot[v]:
            kind, c = edge_data(v, u)
            if kind is None:
                problems.append(f"(S2) uncoloured edge ({v},{u})")
                continue
            if kind == "out":
                outs.append(c)
            seq.append(phase[(kind, c)])
        if sorted(outs) != sorted(colors):
            problems.append(f"(S2) vertex {v} has outgoing colours {outs}")
            continue
        drops = sum(1 for i in range(len(seq)) if seq[i] > seq[(i + 1) % len(seq)])
        if drops > 1:
            problems.append(f"(S2) cyclic order broken at vertex {v}: {seq}")
    return problems


# -- five color forests ------------------------------------------------------


class FiveColorForest:
    """Orientation plus colour (1..5) for every inner edge of a pentagon map."""

    def __init__(self, t, colored_edges):
        self.t = t
        self.color_of = {}
        for (u, v, c) in colored_edges:
            if (u, v) in self.color_of or (v, u) in self.color_of:
                raise PentactError(f"edge ({u},{v}) coloured twice")
            self.color_of[(u, v)] = mod5(c)

    def items(self):
        return self.color_of.items()

    def oriented_edges(self):
        return sorted((u, v, c) for (u, v), c in self.color_of.items())

    def edge_data(self, v, u):
        """(kind, colour) of edge {v,u} seen from v: 'out', 'in' or (None, None)."""
        if (v, u) in self.color_of:
            return "out", self.color_of[(v, u)]
        if (u, v) in self.color_of:
            return "in", self.color_of[(u, v)]
        return None, None

    def key(self):
        return frozenset((u, v, c) for (u, v), c in self.color_of.items())

    def __eq__(self, other):
        return isinstance(other, FiveColorForest) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def to_json(self):
        return {"edges": [{"from": u, "to": v, "color": c}
                          for u, v, c in self.oriented_edges()]}

    @classmethod
    def from_json(cls, t, obj):
        try:
            edges = [(int(e["from"]), int(e["to"]), int(e["color"]))
                     for e in obj["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"forest object malformed: {exc}") from exc
        return cls(t, edges)


# position of an item in the clockwise pattern around an inner vertex:
# out_1, B4, out_2, B5, out_3, B1, out_4, B2, out_5, B3
def pattern_position(kind, c):
    if kind == "out":
        return 2 * (c - 1) % 10
    return (2 * ((c - 4) % 5) + 1) % 10


@dataclass
class ForestReport:
    ok: bool = True
    problems: list = field(default_factory=list)

    def add(self, msg):
        self.ok = False
        self.problems.append(msg)

    def __str__(self):
        return "ok" if self.ok else "; ".join(self.problems)


def validate_fcf(t, f):
    """Check (F1)-(F3) vertex by vertex."""
    rep = ForestReport()
    inner = t.inner_edges()
    covered = {frozenset(e) for e in f.color_of}
    want = {frozenset(e) for e in inner}
    if covered != want:
        missing = want - covered
        extra = covered - want
        if missing:
            rep.add(f"edges without colour: {sorted(tuple(sorted(e)) for e in missing)}")
        if extra:
            rep.add(f"coloured non-edges: {sorted(tuple(sorted(e)) for e in extra)}")
        return rep

    outer_index = {a: i + 1 for i, a in enumerate(t.outer)}
    for a, i in outer_index.items():
        for u in t.rot[a]:
            if u in outer_index:
                continue
            kind, c = f.edge_data(a, u)
            if kind != "in":
                rep.add(f"(F1) edge ({a},{u}) leaves outer vertex {a}")
            elif c != i:
                rep.add(f"(F1) edge into a{i}={a} coloured {c}")

    for v in t.inner_vertices():
        seq = []
        out_seen = {}
        in_colors = set()
        for u in t.rot[v]:
            kind, c = f.edge_data(v, u)
            if kind == "out":
                if c in out_seen:
                    rep.add(f"(F2) vertex {v}: two outgoing edges of colour {c}")
                out_seen[c] = u
            else:
                in_colors.add(c)
            seq.append(pattern_position(kind, c))
        drops = sum(1 for i in range(len(seq)) if seq[i] > seq[(i + 1) % len(seq)])
        if drops > 1:
            rep.add(f"(F2) vertex {v}: blocks out of cyclic order (phases {seq})")
        for i in range(1, 6):
            if i in in_colors:
                continue
            if mod5(i - 2) in out_seen or mod5(i + 2) in out_seen:
                continue
            rep.add(f"(F3) vertex {v}: block {i} empty and no outgoing {mod5(i-2)}/{mod5(i+2)}")
    return rep


def fcf_from_schnyder(t):
    """Five color forest of t built from three Schnyder woods.

    Colours {1,3,4} come from the wood of the contracted triangle map, edges
    at a2/a5 are forced to colours 2/5, and the cleared corner triangles get
    their own woods in colours {5,2,3} and {2,4,5}.
    """
    a1, a2, a3, a4, a5 = t.outer
    cont = contract_for_schnyder(t)
    wood = schnyder_wood(cont.triangle, colors=(1, 3, 4))

    preimage = {cont.b3: (a2, a3), cont.b4: (a4, a5)}
    banned = {a2, a5}
    colored = []
    for (x, y, c) in wood.oriented_edges():
        for xo in preimage.get(x, (x,)):
            for yo in preimage.get(y, (y,)):
                if xo in banned or yo in banned:
                    continue
                if t.has_edge(xo, yo):
                    colored.append((xo, yo, c))

    inside23 = set(cont.removed_23)
    inside45 = set(cont.removed_45)
    for w in t.rot[a2]:
        if w not in (a1, a3) and w not in inside23:
            colored.append((w, a2, 2))
    for w in t.rot[a5]:
        if w not in (a1, a4) and w not in inside45:
            colored.append((w, a5, 5))

    if cont.region_23 is not None:
        sub = schnyder_wood(cont.region_23, colors=(5, 2, 3))
        colored.extend(sub.oriented_edges())
    if cont.region_45 is not None:
        sub = schnyder_wood(cont.region_45, colors=(2, 4, 5))
        colored.extend(sub.oriented_edges())

    f = FiveColorForest(t, colored)
    rep = validate_fcf(t, f)
    if not rep.ok:
        raise PentactError(f"constructed forest invalid: {rep}")
    return f


def loads_forest(t, text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return FiveColorForest.from_json(t, obj)
