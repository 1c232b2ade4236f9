import pytest

from pentact.planarmap import Triangulation, build_from_edges, wheel5
from pentact.forests import FiveColorForest

# the five-inner-vertex example instance used throughout the docs: outer
# vertices 0..4 clockwise, inner vertices 5..9
SAMPLE5_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 0), (5, 4), (5, 3), (5, 9), (5, 6), (5, 8),
    (6, 0), (6, 1), (6, 7), (6, 8),
    (7, 1), (7, 2), (7, 8),
    (8, 2), (8, 9),
    (9, 2), (9, 3),
]

# a hand-picked five color forest of that instance
SAMPLE5_FOREST = [
    (5, 0, 1), (5, 4, 5), (5, 3, 4), (5, 9, 3), (5, 6, 2),
    (6, 0, 1), (6, 1, 2), (6, 7, 3),
    (7, 1, 2), (7, 2, 3),
    (8, 2, 3), (8, 5, 5), (8, 6, 1), (8, 7, 2), (8, 9, 4),
    (9, 2, 3), (9, 3, 4),
]


@pytest.fixture(scope="session")
def sample5_instance():
    return build_from_edges([0, 1, 2, 3, 4], SAMPLE5_EDGES)


@pytest.fixture(scope="session")
def sample5_forest(sample5_instance):
    return FiveColorForest(sample5_instance, SAMPLE5_FOREST)


def cycle_interior(t, cyc_vertices):
    """Faces and vertices strictly inside a simple cycle of the base map."""
    cyc_edges = set()
    k = len(cyc_vertices)
    for i in range(k):
        u, v = cyc_vertices[i], cyc_vertices[(i + 1) % k]
        cyc_edges.add((min(u, v), max(u, v)))
    outer_idx = t.outer_face_index()
    comp = {outer_idx}
    stack = [outer_idx]
    while stack:
        fi = stack.pop()
        for (u, v) in t.faces()[fi]:
            if (min(u, v), max(u, v)) in cyc_edges:
                continue
            nj = t.face_index(v, u)
            if nj not in comp:
                comp.add(nj)
                stack.append(nj)
    inside_faces = [i for i in range(len(t.faces())) if i not in comp]
    inside_vertices = set()
    for fi in inside_faces:
        inside_vertices.update(h[0] for h in t.faces()[fi])
    inside_vertices -= set(cyc_vertices)
    return inside_faces, inside_vertices


def inward_edge_count(t, ext, x, cyc):
    """Oriented edges leaving the cycle into its interior, chords included."""
    from pentact.planarmap import canonical_face

    in_faces, in_verts = cycle_interior(t, cyc)
    in_face_set = set(in_faces)
    stacks = set()
    for fi in in_faces:
        fv = canonical_face(tuple(h[0] for h in t.faces()[fi]))
        stacks.add(ext.stack_of_face[fv])
    cyc_set = set(cyc)
    k = len(cyc)
    cyc_edges = {(min(cyc[i], cyc[(i + 1) % k]), max(cyc[i], cyc[(i + 1) % k]))
                 for i in range(k)}
    count = 0
    for u in cyc:
        for w in ext.map.rot[u]:
            if not x.is_directed(u, w):
                continue
            if w in stacks or w in in_verts:
                count += 1
            elif w in cyc_set and (min(u, w), max(u, w)) not in cyc_edges:
                # chord: counts only when drawn inside the cycle
                if (t.face_index(u, w) in in_face_set
                        and t.face_index(w, u) in in_face_set):
                    count += 1
    return count


def all_inner_simple_cycles(t):
    inner = sorted(t.inner_vertices())
    inner_set = set(inner)
    adj = {v: [u for u in t.rot[v] if u in inner_set] for v in inner}
    cycles = []

    def extend(path, seen):
        last = path[-1]
        for u in adj[last]:
            if u == path[0] and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif u not in seen and u > path[0]:
                extend(path + [u], seen | {u})

    for v in inner:
        extend([v], {v})
    return cycles


def stackings_upto(max_inner):
    """All labelled instances obtained from the wheel by stacking."""
    from pentact.planarmap import _stack_vertex

    level = [wheel5()]
    yield level[0]
    for _ in range(max_inner - 1):
        nxt = []
        for t in level:
            for face in t.inner_faces():
                rot = {v: list(ns) for v, ns in t.rot.items()}
                _stack_vertex(rot, face, max(rot) + 1)
                t2 = Triangulation(t.outer, rot)
                nxt.append(t2)
                yield t2
        level = nxt


def nested_stack(depth):
    """The wheel, then each new vertex stacked into the face on outer edge (0, 1)."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]
    for v in range(6, 5 + depth):
        edges += [(v, 0), (v, 1), (v, v - 1)]
    return build_from_edges((0, 1, 2, 3, 4), edges)


def hub_spread(n_inner):
    """Deterministic family whose loop runs n - 3 times (for n >= 8).

    Start from the wheel with hub 5 and ring = the hub's clockwise
    neighbours.  Each new vertex splits the face (hub, ring[i], ring[i+1])
    with i = k mod len(ring), joins the ring after ring[i], and k grows by 2.
    """
    from pentact.planarmap import _stack_vertex

    w = wheel5()
    rot = {v: list(ns) for v, ns in w.rot.items()}
    ring = list(rot[5])
    k = 0
    for new in range(6, n_inner + 5):
        i = k % len(ring)
        _stack_vertex(rot, (5, ring[i], ring[(i + 1) % len(ring)]), new)
        ring.insert(i + 1, new)
        k += 2
    return Triangulation(w.outer, rot)


# an n=8 instance on which the loop runs 10 iterations, twice hub-spread's
# count at n=8: outer cycle 0..4 clockwise plus these inner edges
LONGRUN8_INNER_EDGES = [
    (0, 7), (0, 9), (1, 9), (2, 9), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9),
    (3, 10), (3, 11), (3, 12), (4, 7), (5, 6), (5, 9), (6, 9), (6, 10),
    (7, 9), (7, 12), (8, 9), (8, 11), (8, 12), (9, 10), (9, 11), (9, 12),
    (10, 11),
]
