"""Stack extensions, prescribed-outdegree orientations and the flip lattice.

The stack extension of a pentagon triangulation adds one vertex inside every
inner face touching at most one outer vertex.  Orientations of its inner
edges with outdegree 5 at inner normal vertices, 2 at stack vertices and 0
at outer vertices are in bijection with five color forests: a forest maps to
the orientation whose stack vertices receive their unique incoming edge at
the face corner lacking an outgoing edge.  Colours are recovered from an
orientation by one propagation from the boundary: an edge into a_i has
colour i, and around an inner vertex one coloured edge fixes the rest,
because the five outgoing edges take consecutive colours clockwise.
"""

from __future__ import annotations

from .errors import (
    MissingEdgeAmbiguous,
    NotDirectedFace,
    PentactError,
    TooLarge,
)
from .forests import FiveColorForest, mod5, pattern_position, validate_fcf
from .planarmap import Triangulation, canonical_face


class StackExtension:
    """Base triangulation plus one stack vertex per stackable inner face."""

    def __init__(self, base):
        self.base = base
        rot = {v: list(ns) for v, ns in base.rot.items()}
        outer = set(base.outer)
        next_id = max(base.rot) + 1
        self.stack_of_face = {}
        self.face_of_stack = {}
        faces = sorted(canonical_face(f) for f in base.inner_faces())
        for fv in faces:
            if sum(1 for v in fv if v in outer) > 1:
                continue
            w = next_id
            next_id += 1
            self.stack_of_face[fv] = w
            self.face_of_stack[w] = fv
            v0, v1, v2 = fv
            rot[w] = [v0, v1, v2]
            for i, v in enumerate(fv):
                nxt = fv[(i + 1) % 3]
                ns = rot[v]
                ns.insert(ns.index(nxt) + 1, w)
        self.map = Triangulation(base.outer, rot)
        assert len(self.stack_of_face) == 2 * base.n_inner - 2

    def is_stack(self, v):
        return v in self.face_of_stack

    def stack_vertices(self):
        return sorted(self.face_of_stack)

    def alpha(self, v):
        if v in self.face_of_stack:
            return 2
        if self.map.is_outer(v):
            return 0
        return 5

    def inner_edges(self):
        return sorted(self.map.inner_edges())


def stack_extension(t):
    return StackExtension(t)


class Alpha5Orientation:
    """Orientation of the inner edges of a stack extension."""

    def __init__(self, ext, directed_edges, check=True):
        self.ext = ext
        self.head_of = {}
        for (u, v) in directed_edges:
            key = (u, v) if u < v else (v, u)
            if key in self.head_of:
                raise PentactError(f"edge {key} oriented twice")
            self.head_of[key] = v
        if check:
            missing = set(ext.inner_edges()) - set(self.head_of)
            if missing:
                raise PentactError(f"unoriented inner edges: {sorted(missing)}")
            bad = validate_alpha5(self)
            if bad:
                raise PentactError("; ".join(bad))

    def head(self, u, v):
        return self.head_of[(u, v) if u < v else (v, u)]

    def is_directed(self, u, v):
        """True when the edge {u,v} points from u to v."""
        return self.head(u, v) == v

    def out_neighbors(self, v):
        return [u for u in self.ext.map.rot[v]
                if not _is_outer_pair(self.ext, v, u) and self.is_directed(v, u)]

    def outdeg(self, v):
        return len(self.out_neighbors(v))

    def directed_edges(self):
        return sorted((u if h != u else v, h)
                      for (u, v), h in self.head_of.items())

    def key(self):
        return frozenset((u, v) for (u, v) in self.directed_edges())

    def __eq__(self, other):
        return isinstance(other, Alpha5Orientation) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def reoriented(self, edges_to_reverse):
        new = dict(self.head_of)
        for (u, v) in edges_to_reverse:
            key = (u, v) if u < v else (v, u)
            if new[key] != v:
                raise PentactError(f"edge ({u},{v}) is not directed u->v")
            new[key] = u
        return Alpha5Orientation(
            self.ext, [( (k[0] if h == k[1] else k[1]), h) for k, h in new.items()],
            check=False)

    def to_json(self):
        return {
            "stack_vertices": self.ext.stack_vertices(),
            "oriented_edges": [list(e) for e in self.directed_edges()],
        }


def _is_outer_pair(ext, u, v):
    outer = set(ext.base.outer)
    return u in outer and v in outer


def validate_alpha5(x):
    problems = []
    ext = x.ext
    for v in ext.map.rot:
        got = x.outdeg(v)
        want = ext.alpha(v)
        if got != want:
            problems.append(f"outdeg({v}) = {got}, expected {want}")
    return problems


# -- forest -> orientation --------------------------------------------------


def _missing_color_at_corner(f, v, first, second):
    """Colour of the absent outgoing edge between two rotation-consecutive
    edges of v (first, then second, clockwise), or None.

    The gap may also skip empty incoming blocks; walking the clockwise
    master pattern between the two edges finds any skipped outgoing slot.
    Two skipped slots in one gap would need an empty block flanked by two
    missing outgoing edges, which (F3) forbids.
    """
    p1 = pattern_position(*f.edge_data(v, first))
    p2 = pattern_position(*f.edge_data(v, second))
    if p1 == p2:
        return None
    hits = []
    p = (p1 + 1) % 10
    while p != p2:
        if p % 2 == 0:
            hits.append(p // 2 + 1)
        p = (p + 1) % 10
    if len(hits) > 1:
        raise MissingEdgeAmbiguous(
            f"gap at vertex {v} skips outgoing slots {hits}")
    return hits[0] if hits else None


def missing_corner(t, f, face):
    """(vertex, colour) of the unique missing-outgoing corner of a face."""
    hits = []
    for i, v in enumerate(face):
        nxt, prv = face[(i + 1) % 3], face[(i - 1) % 3]
        c = _missing_color_at_corner(f, v, nxt, prv)
        if c is not None:
            hits.append((v, c))
    if len(hits) != 1:
        raise MissingEdgeAmbiguous(
            f"face {face} has {len(hits)} missing-outgoing corners")
    return hits[0]


def chi(f, ext=None):
    """Orientation induced by a forest: stack vertices take their single
    incoming edge at the missing-outgoing corner of their face."""
    t = f.t
    if ext is None:
        ext = StackExtension(t)
    directed = [(u, v) for (u, v) in f.color_of]
    for fv, w in ext.stack_of_face.items():
        m, _ = missing_corner(t, f, fv)
        directed.append((m, w))
        for v in fv:
            if v != m:
                directed.append((w, v))
    return Alpha5Orientation(ext, directed)


# -- orientation -> forest ----------------------------------------------------


def psi(x):
    """Forest recovered from an orientation by propagating colours from the
    boundary.

    An edge into a_i has colour i.  Clockwise around an inner vertex of the
    stack extension the five outgoing edges take consecutive colours (a stack
    edge stands for the colour the forest lacks there), and an incoming base
    edge after outgoing colour c takes c + 3.  So one coloured edge fixes
    every colour at its vertex; both ends of each base edge must agree.
    """
    ext = x.ext
    t = ext.base
    color = {(a, u): i + 1 for i, a in enumerate(t.outer) for u in t.rot[a]}
    outer = set(t.outer)
    queue = [v for v in t.inner_vertices() if outer.intersection(t.rot[v])]
    reached = outer.union(queue)
    for v in queue:
        rot = ext.map.rot[v]
        out = [x.is_directed(v, u) for u in rot]
        if sum(out) != 5:
            raise PentactError(f"vertex {v} has {sum(out)} outgoing edges")
        s = out.index(True)
        rel, c = {}, -1
        for u, is_out in zip(rot[s:] + rot[:s], out[s:] + out[:s]):
            c += is_out
            if not ext.is_stack(u):
                rel[u] = c if is_out else c + 3
        k = next(color[(u, v)] - r for u, r in rel.items() if (u, v) in color)
        for u, r in rel.items():
            color[(v, u)] = mod5(r + k)
            if u not in reached:
                reached.add(u)
                queue.append(u)
    colored = []
    for (u, v) in sorted(t.inner_edges()):
        if color[(u, v)] != color[(v, u)]:
            raise PentactError(f"edge ({u},{v}) coloured {color[(u, v)]} "
                               f"at {u} and {color[(v, u)]} at {v}")
        tail, head = (u, v) if x.is_directed(u, v) else (v, u)
        colored.append((tail, head, color[(u, v)]))
    f = FiveColorForest(t, colored)
    rep = validate_fcf(t, f)
    if not rep.ok:
        raise PentactError(f"recovered colouring is not a forest: {rep}")
    return f


# -- enumeration and flips -----------------------------------------------------


ENUMERATION_EDGE_LIMIT = 30


def enumerate_alpha5(t, ext=None):
    """All valid orientations of the stack extension, by exhaustive search."""
    if ext is None:
        ext = StackExtension(t)
    edges = ext.inner_edges()
    if len(edges) > ENUMERATION_EDGE_LIMIT:
        raise TooLarge(f"{len(edges)} inner edges exceeds enumeration guard")
    alpha = {v: ext.alpha(v) for v in ext.map.rot}
    remaining = {v: 0 for v in alpha}
    for (u, v) in edges:
        remaining[u] += 1
        remaining[v] += 1
    outdeg = {v: 0 for v in alpha}
    choice = []
    results = []

    def feasible(v):
        return outdeg[v] <= alpha[v] and outdeg[v] + remaining[v] >= alpha[v]

    def rec(i):
        if i == len(edges):
            results.append(tuple(choice))
            return
        u, v = edges[i]
        remaining[u] -= 1
        remaining[v] -= 1
        for head in (v, u):
            tail = u if head == v else v
            outdeg[tail] += 1
            choice.append((tail, head))
            if feasible(u) and feasible(v):
                rec(i + 1)
            choice.pop()
            outdeg[tail] -= 1
        remaining[u] += 1
        remaining[v] += 1

    rec(0)
    results.sort()
    return [Alpha5Orientation(ext, list(r)) for r in results]


def _directed_facial_cycles(x, want_ccw):
    """Directed facial cycles; inner faces traverse clockwise, so a cycle
    running against the face orbit is counterclockwise."""
    ext = x.ext
    out = []
    outer_idx = ext.map.outer_face_index()
    for i, orbit in enumerate(ext.map.faces()):
        if i == outer_idx or len(orbit) != 3:
            continue
        if any(_is_outer_pair(ext, u, v) for (u, v) in orbit):
            continue
        if want_ccw:
            cyc = tuple((v, u) for (u, v) in orbit)
            ok = all(x.is_directed(v, u) for (u, v) in orbit)
        else:
            cyc = tuple(orbit)
            ok = all(x.is_directed(u, v) for (u, v) in orbit)
        if ok:
            out.append(cyc)
    return out


def ccw_facial_cycles(x):
    return _directed_facial_cycles(x, want_ccw=True)


def cw_facial_cycles(x):
    return _directed_facial_cycles(x, want_ccw=False)


def flip(x, cycle):
    """Reverse a directed facial cycle (flip when ccw, flop when cw)."""
    ext = x.ext
    face_edges = {frozenset(e) for e in cycle}
    match = None
    outer_idx = ext.map.outer_face_index()
    for i, orbit in enumerate(ext.map.faces()):
        if i != outer_idx and {frozenset(e) for e in orbit} == face_edges:
            match = orbit
            break
    if match is None:
        raise NotDirectedFace(f"{cycle} is not a facial cycle")
    for (u, v) in cycle:
        if not x.is_directed(u, v):
            raise NotDirectedFace(f"edge ({u},{v}) not directed as given")
    return x.reoriented(list(cycle))


def flip_lattice(t):
    """All orientations, the undirected index pairs joined by a ccw facial
    flip, whether those flips connect every orientation, and how many
    orientations have no ccw and no cw facial cycle."""
    xs = enumerate_alpha5(t)
    index = {x.key(): i for i, x in enumerate(xs)}
    flips = set()
    adj = {i: [] for i in range(len(xs))}
    no_ccw = 0
    for i, x in enumerate(xs):
        cycles = ccw_facial_cycles(x)
        no_ccw += not cycles
        for cyc in cycles:
            j = index[flip(x, cyc).key()]
            flips.add((min(i, j), max(i, j)))
            adj[i].append(j)
            adj[j].append(i)
    no_cw = sum(not cw_facial_cycles(x) for x in xs)
    reached = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in reached:
                reached.add(j)
                stack.append(j)
    return xs, flips, len(reached) == len(xs), no_ccw, no_cw
