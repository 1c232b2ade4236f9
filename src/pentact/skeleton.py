"""Skeleton graph of a hypothetical pentagon representation.

Nodes are pentagon corners, contact points on pentagon sides, and the five
frame corners.  Every inner vertex owns an abstract pentagon: walking its
incident edges clockwise, each outgoing edge contributes a corner (the
contact its corner makes, or the free corner poking into a face with no
outgoing edge there) and each incoming normal edge contributes a contact
point on a side.  Consecutive corners delimit the five sides; the side
following the colour-c corner clockwise has colour c-2, and a segment of
colour c must be drawn parallel to frame side c.

Faces touching at most one outer vertex become quadrilaterals whose single
concave corner is the free corner of the face's missing-outgoing vertex;
their four segment lengths, clockwise from the one entering the concave
corner, play roles 1..4 with role3 = role1 + phi*role2 and
role4 = phi*role1 + role2.  The five faces at frame corners are triangles:
role 1 is pinned to zero and the degenerate concave corner sits at the
frame corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionMismatch, PentactError
from .forests import mod5
from .orientations import StackExtension, chi, missing_corner
from .planarmap import canonical_face


@dataclass
class Segment:
    index: int
    face: tuple
    color: int
    owner: tuple          # ('v', vertex) or ('frame', i)
    a: tuple              # endpoint nodes, ordered along the owner's
    b: tuple              # clockwise traversal
    role: int = 0         # 1..4, set once face cycles are assembled

    def nodes(self):
        return (self.a, self.b)


@dataclass
class PentagonData:
    vertex: int
    nodes: list = field(default_factory=list)
    kinds: list = field(default_factory=list)   # ('corner', color, head) | ('contact', tail)
    segments: list = field(default_factory=list)
    corner_pos: dict = field(default_factory=dict)   # color -> node position
    sides: dict = field(default_factory=dict)        # color -> [Segment] cw

    def seg_before(self, pos):
        return self.segments[(pos - 1) % len(self.segments)]

    def seg_after(self, pos):
        return self.segments[pos]


@dataclass
class FaceData:
    face: tuple
    kind: str             # 'quad' | 'corner'
    anchor: tuple         # concave stack corner node, or frame corner node
    missing_vertex: int | None
    cycle_nodes: list     # [anchor, n1, n2, (n3)] in quad-clockwise order
    cycle_segs: list      # segments leaving cycle_nodes[i]; roles 2,3,4(,1)

    def seg_by_role(self, role):
        for s in self.cycle_segs:
            if s.role == role:
                return s
        raise KeyError(role)

    def corner_segments(self, node):
        """The two face segments meeting at a cycle node."""
        i = self.cycle_nodes.index(node)
        return (self.cycle_segs[i - 1], self.cycle_segs[i])


def contact_node(u, v):
    return ("c", min(u, v), max(u, v))


def stack_corner_node(face):
    return ("s", face)


def frame_corner_node(i):
    return ("K", mod5(i))


class SkeletonGraph:
    """Combinatorial skeleton of the representation encoded by a forest."""

    def __init__(self, t, forest, ext=None, orientation=None):
        self.t = t
        self.forest = forest
        self.ext = ext if ext is not None else StackExtension(t)
        self.x = orientation if orientation is not None else chi(forest, self.ext)
        self.pentagons = {}
        self.faces = {}
        self.frame_sides = {}
        self.segments = []
        self._segs_of_face = {}
        self._missing = {}
        for fv in self.ext.stack_of_face:
            self._missing[fv] = missing_corner(t, forest, fv)
        self._build_pentagons()
        self._build_frame()
        self._build_face_cycles()

    # -- construction ------------------------------------------------------

    def _new_segment(self, face, color, owner, a, b):
        seg = Segment(len(self.segments), face, color, owner, a, b)
        self.segments.append(seg)
        self._segs_of_face.setdefault(face, []).append(seg)
        return seg

    def _build_pentagons(self):
        t, f, ext, x = self.t, self.forest, self.ext, self.x
        for v in t.inner_vertices():
            pen = PentagonData(v)
            items = []          # (node, kind, g_neighbor_before)
            last_g = None
            rot = ext.map.rot[v]
            # find a normal neighbour to seed the face-gap tracking
            start = next(i for i, u in enumerate(rot) if not ext.is_stack(u))
            order = rot[start:] + rot[:start]
            for u in order:
                if ext.is_stack(u):
                    if x.is_directed(v, u):
                        fv = ext.face_of_stack[u]
                        m, color = self._missing[fv]
                        if m != v:
                            raise PentactError(
                                f"stack edge {v}->{u} not at the missing corner")
                        items.append((stack_corner_node(fv),
                                      ("corner", color, u), last_g))
                    continue
                kind, c = f.edge_data(v, u)
                if kind == "out":
                    items.append((contact_node(v, u), ("corner", c, u), u))
                else:
                    items.append((contact_node(u, v), ("contact", u), u))
                last_g = u
            # rotate so a corner slot comes first
            k = next(i for i, it in enumerate(items) if it[1][0] == "corner")
            items = items[k:] + items[:k]

            corner_colors = [kind[1] for _, kind, _ in items if kind[0] == "corner"]
            if len(corner_colors) != 5:
                raise DimensionMismatch(
                    f"pentagon of {v} has {len(corner_colors)} corners")
            c0 = corner_colors[0]
            if corner_colors != [mod5(c0 + i) for i in range(5)]:
                raise DimensionMismatch(
                    f"pentagon of {v}: corner colours {corner_colors} out of order")

            pen.nodes = [it[0] for it in items]
            pen.kinds = [it[1] for it in items]
            side_color = None
            for i, (node, kind, gap) in enumerate(items):
                if kind[0] == "corner":
                    pen.corner_pos[kind[1]] = i
                    side_color = mod5(kind[1] - 2)
                nxt = items[(i + 1) % len(items)]
                # the segment to the next node lies in the face clockwise of
                # the last base edge passed
                face = canonical_face(self._face_vertices(v, gap))
                seg = self._new_segment(face, side_color, ("v", v), node, nxt[0])
                pen.segments.append(seg)
                pen.sides.setdefault(side_color, []).append(seg)
            self.pentagons[v] = pen

    def _face_vertices(self, v, s):
        """Vertices of the base face clockwise of neighbour s at v."""
        idx = self.t.face_index(v, s)
        return tuple(h[0] for h in self.t.faces()[idx])

    def _build_frame(self):
        t = self.t
        outer = t.outer
        for i in range(1, 6):
            a = outer[i - 1]
            nxt, prv = outer[i % 5], outer[i - 2]
            rot = list(t.rot[a])
            k = rot.index(nxt)
            order = rot[k:] + rot[:k]
            if order[-1] != prv:
                raise DimensionMismatch(f"outer rotation at a{i} malformed")
            fan = order[1:-1]
            nodes = [frame_corner_node(i)]
            nodes += [contact_node(u, a) for u in reversed(fan)]
            nodes.append(frame_corner_node(i + 1))
            gaps = list(reversed(fan)) + [nxt]
            segs = []
            for j in range(len(nodes) - 1):
                face = canonical_face(self._face_vertices(a, gaps[j]))
                segs.append(self._new_segment(face, i, ("frame", i),
                                              nodes[j], nodes[j + 1]))
            self.frame_sides[i] = segs

    def _face_direction(self, seg):
        """Endpoints of seg ordered along the face-cycle traversal."""
        if seg.owner[0] == "v":
            return (seg.b, seg.a)
        return (seg.a, seg.b)

    def _build_face_cycles(self):
        outer = set(self.t.outer)
        for face, segs in self._segs_of_face.items():
            n_out = sum(1 for v in face if v in outer)
            stacked = face in self.ext.stack_of_face
            if stacked:
                anchor = stack_corner_node(face)
                want = 4
            else:
                if n_out != 2:
                    raise DimensionMismatch(f"face {face} has no stack and {n_out} outer")
                i = next(j for j in range(1, 6)
                         if self.t.outer[j - 1] in face and self.t.outer[j % 5] in face)
                anchor = frame_corner_node(i + 1)
                want = 3
            if len(segs) != want:
                raise DimensionMismatch(
                    f"face {face}: {len(segs)} segments, expected {want}")
            start = {self._face_direction(s)[0]: s for s in segs}
            nodes, cyc = [anchor], []
            cur = anchor
            for _ in range(want):
                seg = start[cur]
                cyc.append(seg)
                cur = self._face_direction(seg)[1]
                nodes.append(cur)
            if cur != anchor:
                raise DimensionMismatch(f"face {face}: boundary does not close")
            roles = (2, 3, 4, 1) if stacked else (2, 3, 4)
            for seg, role in zip(cyc, roles):
                seg.role = role
            self.faces[face] = FaceData(
                face=face,
                kind="quad" if stacked else "corner",
                anchor=anchor,
                missing_vertex=self._missing[face][0] if stacked else None,
                cycle_nodes=nodes[:-1],
                cycle_segs=cyc,
            )

    # -- queries -------------------------------------------------------------

    def side_segments(self, v, i):
        """Segments of side i of the pentagon of v, clockwise."""
        return self.pentagons[v].sides[i]

    def quad_faces(self):
        return [fd for fd in self.faces.values() if fd.kind == "quad"]

    def corner_faces(self):
        return [fd for fd in self.faces.values() if fd.kind == "corner"]


def build_skeleton(t, forest, ext=None, orientation=None):
    return SkeletonGraph(t, forest, ext, orientation)
