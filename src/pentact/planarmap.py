"""Planar combinatorial maps: inner triangulations of a polygon.

A map is stored as a rotation system: for every vertex the clockwise cyclic
order of its neighbours.  Faces are orbits of the traversal rule

    next(u -> v) = (v -> w),  w = counterclockwise successor of u around v,

under which every inner face is visited in clockwise order and the outer
face runs against the outer cycle.  All higher layers (forests, stack
extensions, skeletons) rely on this one convention.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from .errors import (
    ChordPresent,
    InvalidSize,
    NonPlanar,
    NotTriangulated,
    OuterFaceMismatch,
    ParseError,
    PentactError,
)


class Triangulation:
    """Inner triangulation of a k-gon (k=5 for pentagon instances, 3 after
    contraction).  Immutable once constructed."""

    def __init__(self, outer, rotations, reflected=False, check=True):
        self.outer = tuple(outer)
        self.rot = {v: tuple(ns) for v, ns in rotations.items()}
        self.reflected = bool(reflected)
        self._pos = {}
        for v, ns in self.rot.items():
            for i, u in enumerate(ns):
                self._pos[(v, u)] = i
        self._faces = None
        self._face_of_he = None
        if check:
            report = validate(self)
            if not report.ok:
                report.raise_first()

    # -- basic queries ---------------------------------------------------

    @property
    def vertices(self):
        return self.rot.keys()

    @property
    def n_inner(self):
        return len(self.rot) - len(self.outer)

    def inner_vertices(self):
        outer = set(self.outer)
        return [v for v in self.rot if v not in outer]

    def is_outer(self, v):
        return v in set(self.outer)

    def degree(self, v):
        return len(self.rot[v])

    def has_edge(self, u, v):
        return (u, v) in self._pos

    def edges(self):
        """Undirected edge set as sorted tuples."""
        return {(u, v) if u < v else (v, u) for (u, v) in self._pos}

    def outer_edges(self):
        k = len(self.outer)
        out = set()
        for i in range(k):
            u, v = self.outer[i], self.outer[(i + 1) % k]
            out.add((u, v) if u < v else (v, u))
        return out

    def inner_edges(self):
        return self.edges() - self.outer_edges()

    def ccw_next(self, v, u):
        ns = self.rot[v]
        return ns[(self._pos[(v, u)] - 1) % len(ns)]

    def next_halfedge(self, u, v):
        """Next half-edge around the face of (u -> v)."""
        return (v, self.ccw_next(v, u))

    # -- faces -----------------------------------------------------------

    def _build_faces(self):
        faces = []
        face_of = {}
        seen = set()
        for he in self._pos:
            if he in seen:
                continue
            orbit = []
            cur = he
            while cur not in seen:
                seen.add(cur)
                orbit.append(cur)
                cur = self.next_halfedge(*cur)
            if cur != he:
                raise PentactError("rotation system is not face-consistent")
            idx = len(faces)
            faces.append(tuple(orbit))
            for e in orbit:
                face_of[e] = idx
        self._faces = faces
        self._face_of_he = face_of

    def faces(self):
        """All face orbits as tuples of half-edges (inner faces clockwise)."""
        if self._faces is None:
            self._build_faces()
        return self._faces

    def face_index(self, u, v):
        if self._face_of_he is None:
            self._build_faces()
        return self._face_of_he[(u, v)]

    def outer_face_index(self):
        target = set(self.outer)
        for i, orbit in enumerate(self.faces()):
            if len(orbit) == len(target) and {h[0] for h in orbit} == target:
                return i
        raise OuterFaceMismatch("outer cycle is not a face")

    def inner_faces(self):
        """Inner faces as vertex tuples in clockwise boundary order."""
        out = self.outer_face_index()
        return [
            tuple(h[0] for h in orbit)
            for i, orbit in enumerate(self.faces())
            if i != out
        ]

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return {
            "outer": list(self.outer),
            "edges": sorted(list(e) for e in self.edges()),
            "rotations": {str(v): list(ns) for v, ns in sorted(self.rot.items())},
        }

    def dumps(self):
        return json.dumps(self.to_json(), indent=1, sort_keys=True)


def canonical_face(vertices):
    """Rotate a cyclic vertex tuple so the smallest label comes first."""
    k = vertices.index(min(vertices))
    return vertices[k:] + vertices[:k]


# -- validation -----------------------------------------------------------


@dataclass
class ValidationReport:
    ok: bool = True
    problems: list = field(default_factory=list)
    reflected: bool = False

    def add(self, exc_type, message):
        self.ok = False
        self.problems.append((exc_type, message))

    def raise_first(self):
        exc_type, message = self.problems[0]
        raise exc_type(message)

    def __str__(self):
        if self.ok:
            note = " (embedding was reflected)" if self.reflected else ""
            return "ok" + note
        return "; ".join(f"{t.__name__}: {m}" for t, m in self.problems)


def validate(t: Triangulation) -> ValidationReport:
    """Check all inner-triangulation invariants, reporting the violations."""
    rep = ValidationReport(reflected=t.reflected)
    outer = t.outer
    k = len(outer)
    if len(set(outer)) != k:
        rep.add(OuterFaceMismatch, f"outer vertices not distinct: {outer}")
        return rep
    for v, ns in t.rot.items():
        if v in ns:
            rep.add(PentactError, f"loop at vertex {v}")
            return rep
        if len(set(ns)) != len(ns):
            rep.add(PentactError, f"repeated neighbour in rotation of {v}")
            return rep
        for u in ns:
            if (u, v) not in t._pos:
                rep.add(PentactError, f"half-edge ({v},{u}) has no twin")
                return rep
    # connectivity
    if t.rot:
        start = outer[0]
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in t.rot[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(t.rot):
            rep.add(PentactError, "graph is not connected")
            return rep
    # outer cycle edges present
    for i in range(k):
        u, v = outer[i], outer[(i + 1) % k]
        if not t.has_edge(u, v):
            rep.add(OuterFaceMismatch, f"outer edge ({u},{v}) missing")
            return rep
    # no chords between outer vertices
    outer_set = set(outer)
    for (u, v) in t.edges():
        if u in outer_set and v in outer_set:
            if (u, v) not in t.outer_edges():
                rep.add(ChordPresent, f"chord ({u},{v}) between outer vertices")
    # outer cycle must bound a face, traversed against the clockwise order
    try:
        oi = t.outer_face_index()
    except (OuterFaceMismatch, PentactError) as exc:
        rep.add(type(exc), str(exc))
        return rep
    orbit = t.faces()[oi]
    seq = [h[0] for h in orbit]
    j = seq.index(outer[0])
    seq = seq[j:] + seq[:j]
    if tuple(seq) == tuple(outer):
        rep.add(
            OuterFaceMismatch,
            "outer cycle traversed clockwise by its own face; embedding is mirrored",
        )
    elif tuple(seq) != (outer[0],) + tuple(reversed(outer[1:])):
        rep.add(OuterFaceMismatch, f"outer face visits {seq}, expected cycle {outer}")
    # all other faces triangles
    for i, orbit in enumerate(t.faces()):
        if i == oi:
            continue
        if len(orbit) != 3:
            verts = tuple(h[0] for h in orbit)
            rep.add(NotTriangulated, f"inner face {verts} has {len(orbit)} sides")
    # Euler counts: a triangulated k-gon with n inner vertices has
    # 2n + k - 2 inner faces and 3n + k - 3 inner edges
    n = t.n_inner
    n_faces = len(t.faces()) - 1
    n_inner_edges = len(t.inner_edges())
    if rep.ok:
        want_f, want_e = 2 * n + k - 2, 3 * n + k - 3
        if n_faces != want_f:
            rep.add(PentactError, f"expected {want_f} inner faces, found {n_faces}")
        if n_inner_edges != want_e:
            rep.add(PentactError,
                    f"expected {want_e} inner edges, found {n_inner_edges}")
    return rep


# -- construction -----------------------------------------------------------


def _embed_with_networkx(edge_list):
    # imported here: networkx is about 20 MiB of resident memory, and input
    # that carries its rotation system never needs it
    import networkx as nx

    g = nx.Graph(edge_list)
    ok, emb = nx.check_planarity(g)
    if not ok:
        raise NonPlanar("graph admits no planar embedding")
    return {v: list(emb.neighbors_cw_order(v)) for v in g.nodes}


def build_from_edges(outer, edge_list, rotations=None, check=True):
    """Build a Triangulation from an edge list.

    Without explicit rotations a planar embedding is computed; the embedding
    is reflected if necessary so that the outer vertices run clockwise.
    """
    outer = tuple(outer)
    seen_pairs = set()
    for u, v in edge_list:
        if u == v:
            raise ParseError(f"loop edge ({u},{v})")
        key = (u, v) if u < v else (v, u)
        if key in seen_pairs:
            raise ParseError(f"duplicate edge ({u},{v})")
        seen_pairs.add(key)
    for i in range(len(outer)):
        u, v = outer[i], outer[(i + 1) % len(outer)]
        key = (u, v) if u < v else (v, u)
        if key not in seen_pairs:
            raise OuterFaceMismatch(f"outer edge ({u},{v}) not in edge list")

    if rotations is None:
        rot = _embed_with_networkx(sorted(seen_pairs))
    else:
        rot = {v: list(ns) for v, ns in rotations.items()}
        rot_pairs = {
            (u, v) if u < v else (v, u) for u, ns in rot.items() for v in ns
        }
        if rot_pairs != seen_pairs:
            raise ParseError("rotations do not list exactly the given edges")

    t = Triangulation(outer, rot, check=False)
    flip = _needs_reflection(t)
    if flip:
        rot = {v: list(reversed(ns)) for v, ns in rot.items()}
        t = Triangulation(outer, rot, reflected=True, check=False)
    return Triangulation(t.outer, t.rot, reflected=flip, check=check)


def _needs_reflection(t):
    """True when the outer cycle is traversed forward by its own face."""
    outer = t.outer
    for i, orbit in enumerate(t.faces()):
        if len(orbit) == len(outer) and {h[0] for h in orbit} == set(outer):
            seq = [h[0] for h in orbit]
            j = seq.index(outer[0])
            seq = seq[j:] + seq[:j]
            return tuple(seq) == tuple(outer)
    raise OuterFaceMismatch("outer cycle is not a face of the embedding")


def wheel5():
    """Smallest instance: outer vertices 0..4 clockwise, hub 5."""
    rot = {5: (0, 1, 2, 3, 4)}
    for i in range(5):
        rot[i] = ((i + 1) % 5, 5, (i - 1) % 5)
    return Triangulation((0, 1, 2, 3, 4), rot)


# -- random generation --------------------------------------------------


def _stack_vertex(rot, face, new_id):
    """Split the clockwise face (v0,v1,v2) by a degree-3 vertex."""
    tri = tuple(face)
    gaps = []
    for i, v in enumerate(tri):
        ns = rot[v]
        # the gap clockwise of the next corner must be this face: the
        # previous corner follows it
        j = ns.index(tri[(i + 1) % 3]) + 1
        if ns[j % len(ns)] != tri[i - 1]:
            raise PentactError(f"{tri} is not a clockwise face")
        gaps.append(j)
    for v, j in zip(tri, gaps):
        rot[v].insert(j, new_id)
    rot[new_id] = list(tri)


def _flip_in_rotation(rot, outer_set, u, v):
    """Flip inner edge (u,v) in place if the replacement diagonal is admissible.

    The clockwise faces on its two sides are (u,v,x) and (v,u,y); the flip
    replaces uv by xy.  Returns (x, y), or None when the flip is refused.
    """
    x = rot[v][rot[v].index(u) - 1]
    y = rot[u][rot[u].index(v) - 1]
    if x == y or y in rot[x] or (x in outer_set and y in outer_set):
        return None
    rot[u].remove(v)
    rot[v].remove(u)
    rot[x].insert(rot[x].index(u) + 1, y)
    rot[y].insert(rot[y].index(v) + 1, x)
    return x, y


def generate_random(n_inner, seed):
    """Seed-deterministic random instance: stacking then diagonal flips.

    Works on the rotation lists alone.  The inner faces stay in the order
    `Triangulation.inner_faces` lists them: by their lowest half-edge (a,b),
    ranked by a's insertion order and then by b's place in rot[a].  Stacking
    only inserts into rotations, so it keeps the ranks of all old half-edges
    in order, and each child face is inserted where that rank puts it.
    """
    if n_inner < 1:
        raise InvalidSize("need at least one inner vertex")
    rng = random.Random(seed)
    t = wheel5()
    rot = {v: list(ns) for v, ns in t.rot.items()}
    order = {v: i for i, v in enumerate(rot)}

    def rank(f):
        return order[f[0]], rot[f[0]].index(f[1])

    faces = t.inner_faces()
    for new in range(6, n_inner + 5):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        _stack_vertex(rot, (a, b, c), new)
        order[new] = len(order)
        for p, q in ((a, b), (b, c), (c, a)):
            # half-edges out of the new vertex rank last
            insort(faces, min((p, q, new), (q, new, p), key=rank), key=rank)
    outer_set = set(t.outer)
    outer_edges = t.outer_edges()
    inner = sorted((u, v) for u in rot for v in rot[u]
                   if u < v and (u, v) not in outer_edges)
    for _ in range(3 * len(inner)):
        u, v = inner[rng.randrange(len(inner))]
        if rng.random() < 0.5:
            u, v = v, u
        diagonal = _flip_in_rotation(rot, outer_set, u, v)
        if diagonal:
            del inner[bisect_left(inner, (min(u, v), max(u, v)))]
            insort(inner, (min(diagonal), max(diagonal)))
    return Triangulation(t.outer, rot)


# -- contraction for the Schnyder-wood construction -----------------------


@dataclass
class Contraction:
    """Bookkeeping of the pentagon-to-triangle contraction."""

    triangle: Triangulation
    b3: int
    b4: int
    apex_23: int  # common neighbour of a2,a3 whose triangle is maximal
    apex_45: int
    removed_23: list  # vertices strictly inside the maximal triangle c5-a2-a3
    removed_45: list
    region_23: Triangulation | None  # sub-triangulation (apex, a2, a3), if non-empty
    region_45: Triangulation | None


def _interior_of_triangle(t, c, p, q, far):
    """Vertices separated from `far` by the triangle {c,p,q}."""
    blocked = {c, p, q}
    seen = {far}
    stack = [far]
    while stack:
        v = stack.pop()
        for u in t.rot[v]:
            if u not in seen and u not in blocked:
                seen.add(u)
                stack.append(u)
    return [v for v in t.rot if v not in seen and v not in blocked]


def _maximal_apex(t, p, q, far):
    """Common neighbour of p,q whose triangle over pq contains all others."""
    common = [v for v in t.rot[p] if t.has_edge(v, q) and v not in (p, q)]
    common = [v for v in common if not t.is_outer(v)]
    interiors = {c: set(_interior_of_triangle(t, c, p, q, far)) for c in common}
    for c in common:
        others = [d for d in common if d != c]
        if all(d in interiors[c] for d in others):
            return c, sorted(interiors[c])
    raise PentactError(f"no maximal triangle over edge ({p},{q})")


def _region_triangulation(t, apex, p, q, interior):
    """The sub-map inside triangle (apex, p, q), outer cycle clockwise."""
    if not interior:
        return None
    keep = set(interior) | {apex, p, q}
    rot = {}
    for v in interior:
        rot[v] = [u for u in t.rot[v] if u in keep]
    # boundary rotations: restrict to the fan inside the triangle
    for v, start, stop in ((apex, p, q), (p, q, apex), (q, apex, p)):
        ns = t.rot[v]
        i = ns.index(start)
        fan = [start]
        while fan[-1] != stop:
            i = (i + 1) % len(ns)
            fan.append(ns[i])
        rot[v] = [u for u in fan if u in keep]
    return Triangulation((apex, p, q), rot)


def contract_for_schnyder(t):
    """Contract a2a3 and a4a5 after clearing their maximal triangles.

    Returns the inner triangulation of the triangle (a1, b3, b4) together
    with the bookkeeping needed to recolour the removed regions later.
    """
    a1, a2, a3, a4, a5 = t.outer
    c5, int23 = _maximal_apex(t, a2, a3, a1)
    c2, int45 = _maximal_apex(t, a4, a5, a1)
    region23 = _region_triangulation(t, c5, a2, a3, int23)
    region45 = _region_triangulation(t, c2, a4, a5, int45)

    removed = set(int23) | set(int45)
    keep = [v for v in t.rot if v not in removed]
    rot = {v: [u for u in t.rot[v] if u not in removed] for v in keep}

    def merge(rot, u, v, merged):
        """Contract edge (u,v) into label `merged` (one of u,v reused)."""
        # After interior removal the only common neighbour of u and v is the
        # apex of the maximal triangle, so one duplicate entry gets dropped.
        nu, nv = rot[u], rot[v]
        iu, iv = nu.index(v), nv.index(u)
        seq = nv[iv + 1:] + nv[:iv] + nu[iu + 1:] + nu[:iu]
        out = []
        for w in seq:
            if w not in out:
                out.append(w)
        del rot[u], rot[v]
        rot[merged] = out
        for w in out:
            rot[w] = [merged if x in (u, v) else x for x in rot[w]]
            dedup = []
            for x in rot[w]:
                if x != merged or merged not in dedup:
                    dedup.append(x)
            rot[w] = dedup

    b3, b4 = a3, a4
    merge(rot, a2, a3, b3)
    merge(rot, a5, a4, b4)
    tri = Triangulation((a1, b3, b4), rot)
    return Contraction(
        triangle=tri,
        b3=b3,
        b4=b4,
        apex_23=c5,
        apex_45=c2,
        removed_23=sorted(int23),
        removed_45=sorted(int45),
        region_23=region23,
        region_45=region45,
    )


# -- JSON I/O --------------------------------------------------------------


def loads(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return from_json(obj)


def from_json(obj):
    try:
        outer = [int(v) for v in obj["outer"]]
        edges = [(int(u), int(v)) for u, v in obj["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"graph object malformed: {exc}") from exc
    if len(outer) != 5:
        raise ParseError("outer must list exactly 5 vertices")
    rotations = None
    if obj.get("rotations"):
        try:
            rotations = {int(v): [int(u) for u in ns] for v, ns in obj["rotations"].items()}
        except (TypeError, ValueError) as exc:
            raise ParseError(f"rotations malformed: {exc}") from exc
    return build_from_edges(outer, edges, rotations, check=False)
