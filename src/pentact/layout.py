"""Realization of a solved skeleton as plane geometry, and back.

All five slope classes have cosines in Q(sqrt 5) and sines that are
Q(sqrt 5)-multiples of sin 36deg, so coordinates propagate exactly as pairs
(x, y/sin36) of field elements.  ``realize`` keeps them in integers over one
common denominator: with d the lcm of the solution's denominators, segment
lengths are integer pairs over 2d and positions integer quadruples over 8d.
Every skeleton cycle closes exactly; the float picture is produced only at
the end.  The frame's top side runs left to right at the top, frame side i
having direction -72*(i-1) degrees, and inner pentagons have their
horizontal side at the bottom with the colour-1 corner (the apex) on top.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ClosureFailure,
    DegenerateContact,
    NegativeInput,
    PentactError,
)
from .forests import FiveColorForest, validate_fcf
from .linsys import ROLE_COEFFS
from .planarmap import ValidationReport
from .q5 import Q5, q5_float

# 4 * (cos, sin/sin36) of a clockwise colour-i frame segment, as integers
# (cos_a, cos_b, sin_a, sin_b) meaning (cos_a + cos_b*sqrt5, sin_a + sin_b*sqrt5)
_FRAME_DIR4 = (
    (4, 0, 0, 0),
    (-1, 1, -2, -2),
    (-1, -1, -4, 0),
    (-1, -1, 4, 0),
    (-1, 1, 2, 2),
)
# pentagon sides run against the frame side of their colour
_SIDE_DIR4 = tuple(tuple(-c for c in d) for d in _FRAME_DIR4)


def _int_pair(q, k):
    """Integers (a, b) with a + b*sqrt5 == k*q; k must clear q's denominators."""
    a, b = k * q.a, k * q.b
    assert a.denominator == b.denominator == 1, (q, k)
    return a.numerator, b.numerator


# ROLE_COEFFS scaled by 2: role -> ((slot, a, b), ...), coefficient a + b*sqrt5
_ROLE_COEFFS2 = {
    role: tuple((slot, *_int_pair(coeff, 2)) for slot, coeff in coeffs)
    for role, coeffs in ROLE_COEFFS.items()
}

SIN36 = math.sin(math.pi / 5)


@dataclass
class PentagonShape:
    vertex: int
    apex: tuple           # (x, y) doubles
    side: Q5
    side_float: float

    def corners(self):
        """Corner coordinates clockwise from the apex (labels 1..5)."""
        L = self.side_float
        pts = [self.apex]
        for ang in (-36.0, -108.0, 180.0, 108.0):
            a = math.radians(ang)
            x, y = pts[-1]
            pts.append((x + L * math.cos(a), y + L * math.sin(a)))
        return pts

    def side_endpoints(self, color):
        """Endpoints of the colour-`color` side (corner c+2 to corner c+3)."""
        pts = self.corners()
        i = (color + 1) % 5
        return pts[i], pts[(i + 1) % 5]


@dataclass
class Contact:
    tail: int
    head: int             # vertex whose side (or frame side) is touched
    color: int
    point: tuple
    on_frame: bool


@dataclass
class PentagonLayout:
    frame_corners: list
    frame_sides: dict     # i -> exact Q5 length
    pentagons: dict       # vertex -> PentagonShape
    contacts: list


def _segment_value(ab, seg):
    """Integers (A, B) with (A + B*sqrt5)/(2d) the length of `seg`, where
    ``ab`` maps each variable to its integer pair over d."""
    A = B = 0
    for slot, p, q in _ROLE_COEFFS2[seg.role]:
        a, b = ab[("f", seg.face, slot)]
        A += p * a + 5 * q * b
        B += p * b + q * a
    return A, B


def realize(sk, sol):
    """Place the skeleton in one exact pass, in integers.

    The solution is read once as integer pairs over d, the lcm of its
    denominators.  Each segment's length (over 2d) and vector (over 8d) are
    computed once; positions propagate over a spanning tree as integer
    quadruples over 8d, and then every segment must close exactly.  A
    mismatch means the system assembly is inconsistent, not a rounding
    problem.
    """
    negs = sol.negatives()
    if negs:
        raise NegativeInput(f"solution has negative entries: {negs[:4]}")

    d = math.lcm(*(c.denominator for q in sol.values.values()
                   for c in (q.a, q.b)))
    ab = {key: (q.a.numerator * (d // q.a.denominator),
                q.b.numerator * (d // q.b.denominator))
          for key, q in sol.values.items()}

    values = []
    vectors = []
    adj = {}
    for seg in sk.segments:
        A, B = _segment_value(ab, seg)
        dirs = _FRAME_DIR4 if seg.owner[0] == "frame" else _SIDE_DIR4
        ca, cb, sa, sb = dirs[seg.color - 1]
        dxa, dxb = A * ca + 5 * B * cb, A * cb + B * ca
        dya, dyb = A * sa + 5 * B * sb, A * sb + B * sa
        values.append((A, B))
        vectors.append((dxa, dxb, dya, dyb))
        adj.setdefault(seg.a, []).append((seg.b, (dxa, dxb, dya, dyb)))
        adj.setdefault(seg.b, []).append((seg.a, (-dxa, -dxb, -dya, -dyb)))

    root = ("K", 1)
    pos = {root: (0, 0, 0, 0)}
    queue = [root]
    while queue:
        cur = queue.pop()
        xa, xb, ya, yb = pos[cur]
        for (nxt, (dxa, dxb, dya, dyb)) in adj[cur]:
            if nxt not in pos:
                pos[nxt] = (xa + dxa, xb + dxb, ya + dya, yb + dyb)
                queue.append(nxt)
    if len(pos) != len(adj):
        raise ClosureFailure("skeleton is not connected")

    for seg, (dxa, dxb, dya, dyb) in zip(sk.segments, vectors):
        xa, xb, ya, yb = pos[seg.a]
        if pos[seg.b] != (xa + dxa, xb + dxb, ya + dya, yb + dyb):
            raise ClosureFailure(f"segment {seg.index} does not close exactly")

    d8 = 8 * d

    def to_float(node):
        xa, xb, ya, yb = pos[node]
        return (q5_float(xa, xb, d8), q5_float(ya, yb, d8) * SIN36)

    fc = [to_float(("K", i)) for i in range(1, 6)]
    frame_lengths = {}
    for i, segs in sk.frame_sides.items():
        A = sum(values[seg.index][0] for seg in segs)
        B = sum(values[seg.index][1] for seg in segs)
        frame_lengths[i] = Q5(Fraction(A, 2 * d), Fraction(B, 2 * d))

    pentagons = {}
    for v, pen in sk.pentagons.items():
        pentagons[v] = PentagonShape(
            v, to_float(pen.nodes[pen.corner_pos[1]]), sol[("v", v)],
            q5_float(*ab[("v", v)], d))

    contacts = []
    t = sk.t
    outer_index = {a: i + 1 for i, a in enumerate(t.outer)}
    for (u, w) in sorted(t.inner_edges()):
        tail, head = (u, w) if sk.x.is_directed(u, w) else (w, u)
        _, color = sk.forest.edge_data(tail, head)
        contacts.append(Contact(
            tail, head, color, to_float(("c", min(u, w), max(u, w))),
            head in outer_index))

    return PentagonLayout(fc, frame_lengths, pentagons, contacts)


# -- geometric verification ---------------------------------------------------

TOL = 1e-9


def _dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _point_to_segment(p, a, b):
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return _dist(p, a), 0.0
    s = ((px - ax) * dx + (py - ay) * dy) / L2
    proj = (ax + s * dx, ay + s * dy)
    return _dist(p, proj), s


def verify(layout, t):
    """Geometric checks on the float picture at unit frame scale."""
    rep = ValidationReport()
    shapes = layout.pentagons
    outer_index = {a: i + 1 for i, a in enumerate(t.outer)}

    for v, shape in shapes.items():
        pts = shape.corners()
        L = shape.side_float
        closing = _dist(pts[0], (pts[4][0] + L * math.cos(math.radians(36)),
                                 pts[4][1] + L * math.sin(math.radians(36))))
        if closing > TOL:
            rep.add(PentactError, f"pentagon {v} does not close")
        if L > 0:
            for i in range(5):
                got = _dist(pts[i], pts[(i + 1) % 5])
                if abs(got - L) / L > TOL:
                    rep.add(PentactError,
                            f"pentagon {v} side {i} length {got} vs {L}")

    for c in layout.contacts:
        corner = shapes[c.tail].corners()[c.color - 1]
        if _dist(corner, c.point) > TOL:
            rep.add(PentactError,
                    f"contact of edge ({c.tail},{c.head}) not at corner "
                    f"{c.color} of pentagon {c.tail}")
        if c.on_frame:
            i = outer_index[c.head]
            a = layout.frame_corners[i - 1]
            b = layout.frame_corners[i % 5]
            side_color = i
        else:
            a, b = shapes[c.head].side_endpoints(c.color)
            side_color = c.color
        d, s = _point_to_segment(c.point, a, b)
        if d > TOL or s < -TOL or s > 1 + TOL:
            rep.add(PentactError,
                    f"contact of edge ({c.tail},{c.head}) misses side "
                    f"{side_color} of {c.head} (distance {d:.2e})")
        if side_color != c.color:
            rep.add(PentactError,
                    f"corner {c.color} of {c.tail} touches side of colour "
                    f"{side_color}")

    verts = sorted(shapes)
    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            if _pentagons_overlap(shapes[u], shapes[w]):
                rep.add(PentactError,
                        f"pentagons {u} and {w} overlap beyond tolerance")
    return rep


def _pentagons_overlap(s1, s2):
    pts1, pts2 = s1.corners(), s2.corners()
    # separating-axis test; homothetic pentagons share their five normals
    for k in range(5):
        ang = math.radians(-72.0 * k + 90.0)
        nx, ny = math.cos(ang), math.sin(ang)
        p1 = [nx * x + ny * y for (x, y) in pts1]
        p2 = [nx * x + ny * y for (x, y) in pts2]
        if min(p1) >= max(p2) - TOL or min(p2) >= max(p1) - TOL:
            return False
    return True


# -- forest induced by geometry ---------------------------------------------


def induced_fcf(layout, t):
    """Read the forest off the drawing: orient each contact edge from the
    corner's owner to the side's owner and colour it by the corner label."""
    shapes = layout.pentagons
    outer_index = {a: i + 1 for i, a in enumerate(t.outer)}
    colored = []
    for (u, w) in sorted(t.inner_edges()):
        candidates = []
        for (p, q) in ((u, w), (w, u)):
            if p in outer_index:
                continue
            corners = shapes[p].corners()
            for c in range(1, 6):
                pt = corners[c - 1]
                if q in outer_index:
                    i = outer_index[q]
                    a = layout.frame_corners[i - 1]
                    b = layout.frame_corners[i % 5]
                    d, s = _point_to_segment(pt, a, b)
                    if d <= TOL and -TOL <= s <= 1 + TOL and c == i:
                        candidates.append((p, q, c, s))
                else:
                    a, b = shapes[q].side_endpoints(c)
                    d, s = _point_to_segment(pt, a, b)
                    if d <= TOL and -TOL <= s <= 1 + TOL:
                        candidates.append((p, q, c, s))
        if not candidates:
            raise PentactError(f"no geometric contact found for edge ({u},{w})")
        for (p, q, c, s) in candidates:
            if s <= TOL or s >= 1 - TOL:
                raise DegenerateContact(
                    f"edge ({u},{w}): corner-corner contact")
        if len({(p, q) for (p, q, _, _) in candidates}) > 1:
            raise DegenerateContact(
                f"edge ({u},{w}): contact direction ambiguous")
        p, q, c, _ = candidates[0]
        colored.append((p, q, c))
    f = FiveColorForest(t, colored)
    rep = validate_fcf(t, f)
    if not rep.ok:
        raise PentactError(f"induced colouring invalid: {rep}")
    return f


# -- emission -----------------------------------------------------------------


def emit_svg(layout, contact_graph=False):
    """SVG 1.1 document; y axis flipped so the frame top side is on top."""
    xs = [p[0] for p in layout.frame_corners]
    ys = [p[1] for p in layout.frame_corners]
    pad = 0.05 * (max(xs) - min(xs) or 1.0)
    x0, y0 = min(xs) - pad, -(max(ys)) - pad
    wd, ht = (max(xs) - min(xs)) + 2 * pad, (max(ys) - min(ys)) + 2 * pad

    def pt(p):
        return f"{p[0]:.9f},{-p[1]:.9f}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{x0:.9f} {y0:.9f} {wd:.9f} {ht:.9f}">',
        f'<g stroke-width="{0.004 * wd:.9f}">',
    ]
    frame_pts = " ".join(pt(p) for p in layout.frame_corners)
    lines.append(f'<polygon class="frame" points="{frame_pts}" '
                 'fill="none" stroke="#444"/>')
    for v in sorted(layout.pentagons):
        shape = layout.pentagons[v]
        pts = " ".join(pt(p) for p in shape.corners())
        lines.append(f'<path class="pentagon" d="M {pts.replace(" ", " L ")} Z" '
                     'fill="#d8d8e8" stroke="#333"/>')
    if contact_graph:
        centers = {v: _centroid(s.corners()) for v, s in layout.pentagons.items()}
        for c in layout.contacts:
            if c.on_frame:
                a, b = centers[c.tail], c.point
            else:
                a, b = centers[c.tail], centers[c.head]
            lines.append(f'<line class="contact-graph" x1="{a[0]:.9f}" '
                         f'y1="{-a[1]:.9f}" x2="{b[0]:.9f}" y2="{-b[1]:.9f}" '
                         'stroke="#a00"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _centroid(pts):
    n = len(pts)
    return (sum(p[0] for p in pts) / n, sum(p[1] for p in pts) / n)


def layout_to_json(layout):
    return {
        "frame": {
            "corners": [[x, y] for (x, y) in layout.frame_corners],
            "side_lengths": {str(i): q.to_json()
                             for i, q in sorted(layout.frame_sides.items())},
        },
        "pentagons": {
            str(v): {
                "apex": [s.apex[0], s.apex[1]],
                "side": s.side.to_json(),
                "side_float": s.side_float,
            }
            for v, s in sorted(layout.pentagons.items())
        },
        "contacts": [
            {
                "from": c.tail,
                "to": c.head,
                "color": c.color,
                "point": [c.point[0], c.point[1]],
                "on_frame": c.on_frame,
            }
            for c in layout.contacts
        ],
    }


def emit(layout, fmt, path, contact_graph=False):
    if fmt == "svg":
        text = emit_svg(layout, contact_graph)
    elif fmt == "json":
        text = json.dumps(layout_to_json(layout), indent=1, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
