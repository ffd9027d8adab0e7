"""Leg-weighted multigraphs with genera and an integer twist.

The formalism is half-edge based: a graph is a set of half-edges with an
involution and an endpoint map. Edges are the 2-element involution orbits,
legs are the fixed points. A directed edge is represented by its source
half (never a leg); its target is the endpoint of the partner half. Legs
carry prescribed integer weights and the graph carries a single integer
twist. Everything downstream (flows, cones, fans) is built on top of this
module.

Identifiers can be any hashable values; a total order on heterogeneous ids
is provided by :func:`sort_key` so that all derived data is deterministic.

Each graph builds its order invariants once, on first use, into a
:class:`GraphIndex` cached on the instance: the rank of every vertex and
half-edge in ``sort_key`` order, the sorted vertices, edges and legs, the
sorted halves at each vertex and the canonical edge of each half. The
accessors and everything that orders ids read the index. The index also
numbers the vertices and edges by their sorted positions and holds
integer arrays over them: each half's edge position and its sign against
its edge, each vertex's non-leg halves as (edge position, sign, position
of the vertex at the partner half) triples, and each edge's end
positions. A flow on these arrays is a list with one source-half value
per edge position; the positive-cycle search and the catalog's
enumeration of acyclic flows run on such lists. The cycle search,
:func:`_cycle_search`, runs on these arrays too, for a graph G or for a
contracted graph G/K read off G's arrays with no graph built. The cache
relies on the graph's dicts not being mutated once it has been read; no
operation in this package mutates a graph, and :func:`contract` builds
a new one.

``sort_key`` runs only while the index of a graph built from scratch is
made. :func:`contract` hands the contracted graph an index built on the
parent's ranks: every surviving id keeps its ``sort_key``, so those ranks
already order the child's ids, and a whole chain of contractions shares
the ranks of its root.

One deterministic DFS spanning forest, :func:`_spanning_forest`, serves
the cycle basis, the components a contraction merges, the tree a
weighting is solved on and the connectivity check of
:func:`validate_graph`. The cycle basis is built once per graph and
cached on it beside the index.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import UnknownEdge, UnknownVertex


def sort_key(x):
    """Total order on heterogeneous identifiers (ints, strings, tuples)."""
    if isinstance(x, bool):
        x = int(x)
    if isinstance(x, int):
        return (0, x, "")
    if isinstance(x, str):
        return (1, 0, x)
    if isinstance(x, tuple):
        return (2, 0, tuple(sort_key(y) for y in x))
    return (3, 0, repr(x))


@dataclass(frozen=True)
class GraphIndex:
    """Order invariants of one graph, built once by :attr:`Graph.index`.

    Fields:
        rank: vertex or half-edge id -> an int that orders the ids as
            ``sort_key`` does: the position in that order for a graph
            indexed from scratch; the rank of an ancestor graph, which may
            also hold ids that are gone, for a contracted one
        vertices, edges, legs: sorted tuples of ids (edges by canonical key)
        halves_at: vertex id -> sorted tuple of the half-edges at it
        non_leg_halves_at: vertex id -> the non-leg part of ``halves_at``
        edge_of: half-edge id -> canonical key of its edge (a leg maps to
            itself)
        edge_pos: non-leg half-edge id -> position of its edge in ``edges``
        sign: non-leg half-edge id -> +1 for the canonical source half of
            its edge, -1 for the other half; a half's value is its sign
            times the value on the edge's canonical source half
        arcs: vertex position -> its non-leg halves in ``non_leg_halves_at``
            order as (edge position, sign, position of the vertex at the
            partner half): the out-arcs of the vertex, read for each flow
            by the sign of the half's value
        ends: edge position -> the positions of the vertices at its
            canonical source half and at the other half
    """

    rank: dict
    vertices: tuple
    edges: tuple
    legs: tuple
    halves_at: dict
    non_leg_halves_at: dict
    edge_of: dict
    edge_pos: dict
    sign: dict
    arcs: tuple
    ends: tuple

    @classmethod
    def build(cls, g, rank=None):
        """The index of ``g``. A given ``rank`` must order every id of ``g``
        as ``sort_key`` does; it is kept as the index's rank, and
        ``sort_key`` runs only when ``rank`` is None."""
        if rank is None:
            ids = sorted(set(g.genus_of).union(g.end), key=sort_key)
            rank = {x: i for i, x in enumerate(ids)}
        halves = sorted(g.end, key=rank.__getitem__)
        edge_of = {}
        halves_at = {}
        non_leg_halves_at = {}
        for h in halves:
            p = g.involution[h]
            edge_of[h] = h if rank[h] <= rank[p] else p
            halves_at.setdefault(g.end[h], []).append(h)
            if p != h:
                non_leg_halves_at.setdefault(g.end[h], []).append(h)
        vertices = tuple(sorted(g.genus_of, key=rank.__getitem__))
        edges = tuple(h for h in halves
                      if edge_of[h] == h and g.involution[h] != h)
        vpos = {v: i for i, v in enumerate(vertices)}
        edge_pos, sign = {}, {}
        for i, e in enumerate(edges):
            p = g.involution[e]
            edge_pos[e] = edge_pos[p] = i
            sign[e], sign[p] = 1, -1
        return cls(
            rank=rank,
            vertices=vertices,
            edges=edges,
            legs=tuple(h for h in halves if g.involution[h] == h),
            halves_at={v: tuple(hs) for v, hs in halves_at.items()},
            non_leg_halves_at={v: tuple(hs) for v, hs in non_leg_halves_at.items()},
            edge_of=edge_of,
            edge_pos=edge_pos,
            sign=sign,
            arcs=tuple(tuple((edge_pos[h], sign[h], vpos[g.end[g.involution[h]]])
                             for h in non_leg_halves_at.get(v, ()))
                       for v in vertices),
            ends=tuple((vpos[g.end[e]], vpos[g.end[g.involution[e]]])
                       for e in edges))


@dataclass(frozen=True)
class Graph:
    """A connected leg-weighted graph with twist.

    Fields:
        genus_of: vertex id -> non-negative genus
        end: half-edge id -> vertex id
        involution: half-edge id -> half-edge id (legs are fixed points)
        leg_weights: leg half-edge id -> integer weight
        twist: the integer twist k

    Instances are treated as immutable once built; none of the operations
    in this package mutate a graph. :attr:`index` caches the order
    invariants, and ``_cycle_basis`` the cycles of :func:`cycle_basis`, on
    first use; both assume the dicts do not change afterwards.
    """

    genus_of: dict
    end: dict
    involution: dict
    leg_weights: dict
    twist: int = 0

    @classmethod
    def build(cls, vertices, edges, legs=(), twist=0):
        """Assemble a graph from edge and leg descriptions.

        ``vertices`` maps vertex id -> genus, ``edges`` is an iterable of
        (edge id, from vertex, to vertex), ``legs`` of (leg id, vertex,
        weight). Half-edge ids become (edge id, 0) / (edge id, 1) for edges
        and (leg id,) for legs, matching the JSON document convention.
        """
        end = {}
        involution = {}
        leg_weights = {}
        for eid, u, v in edges:
            h0, h1 = (eid, 0), (eid, 1)
            end[h0], end[h1] = u, v
            involution[h0], involution[h1] = h1, h0
        for lid, v, w in legs:
            h = (lid,)
            end[h] = v
            involution[h] = h
            leg_weights[h] = int(w)
        return cls(dict(vertices), end, involution, leg_weights, int(twist))

    @cached_property
    def index(self):
        """The :class:`GraphIndex` of this graph, built on first use."""
        return GraphIndex.build(self)

    @cached_property
    def _cycle_basis(self):
        """The tuple of :func:`cycle_basis` cycles, built on first use."""
        return _fundamental_cycles(self)

    # -- basic accessors -------------------------------------------------

    def vertices(self):
        return list(self.index.vertices)

    def is_leg(self, h):
        return self.involution[h] == h

    def partner(self, h):
        return self.involution[h]

    def legs(self):
        return list(self.index.legs)

    def edge_of(self, h):
        """Canonical key of the edge containing a non-leg half: the smaller half id."""
        return self.index.edge_of[h]

    def edges(self):
        """Sorted canonical edge keys (one per 2-element involution orbit)."""
        return list(self.index.edges)

    def edge_halves(self, e):
        return e, self.involution[e]

    def source(self, h):
        """Source vertex of the directed edge given by source half ``h``."""
        return self.end[h]

    def target(self, h):
        return self.end[self.involution[h]]

    def is_loop(self, e):
        return self.end[e] == self.end[self.involution[e]]

    def halves_at(self, v):
        return list(self.index.halves_at.get(v, ()))

    def non_leg_halves_at(self, v):
        return list(self.index.non_leg_halves_at.get(v, ()))

    def valence(self, v):
        return len(self.index.non_leg_halves_at.get(v, ()))


# -- cycles ---------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """A directed simple cycle, stored as the ordered tuple of source halves.

    ``halves[i]`` is the half-edge at the start of the i-th directed edge;
    the target of each directed edge is the source of the next, cyclically.
    A single loop half is a valid cycle of length 1.
    """

    halves: tuple

    def edges(self, g):
        return tuple(g.edge_of(h) for h in self.halves)

    def edge_set(self, g):
        return frozenset(self.edges(g))

    def incidence(self, g):
        """Signed incidence: edge key -> +1 if traversed from its canonical
        source half, -1 otherwise."""
        out = {}
        for h in self.halves:
            e = g.edge_of(h)
            out[e] = 1 if h == e else -1
        return out

    def incidence_vector(self, g, edge_order):
        inc = self.incidence(g)
        return tuple(inc.get(e, 0) for e in edge_order)

    def reversed(self, g):
        return Cycle(tuple(g.partner(h) for h in reversed(self.halves)))

    def rotations(self):
        n = len(self.halves)
        return [self.halves[i:] + self.halves[:i] for i in range(n)]

    def canonical(self, g):
        """The lexicographically smallest rotation, keeping the direction."""
        rank = g.index.rank
        best = min(self.rotations(), key=lambda t: tuple(map(rank.__getitem__, t)))
        return Cycle(best)


# -- validation -----------------------------------------------------------


@dataclass(frozen=True)
class GraphReport:
    ok: bool
    problems: tuple = ()

    def codes(self):
        return [code for code, _ in self.problems]


def validate_graph(g: Graph) -> GraphReport:
    """Check the graph invariants on arbitrary candidate data.

    Reported codes: MalformedInvolution, NegativeGenus, Disconnected (also
    for a graph with no vertices, which is not connected), LegSumMismatch
    and LegWeightMismatch (weights not matching the fixed points of the
    involution).
    """
    problems = []
    halves = set(g.end)
    for h in halves:
        p = g.involution.get(h)
        if p is None or p not in halves:
            problems.append(("MalformedInvolution",
                             f"half-edge {h!r} has no partner inside the graph"))
        elif g.involution.get(p) != h:
            problems.append(("MalformedInvolution",
                             f"involution is not self-inverse at {h!r}"))
    if set(g.involution) - halves:
        problems.append(("MalformedInvolution",
                         "involution defined on unknown half-edges"))
    for h in halves:
        if g.end[h] not in g.genus_of:
            problems.append(("MalformedInvolution",
                             f"half-edge {h!r} ends at unknown vertex {g.end[h]!r}"))
    if problems:
        return GraphReport(False, tuple(problems))

    for v, gv in g.genus_of.items():
        if gv < 0:
            problems.append(("NegativeGenus", f"vertex {v!r} has genus {gv}"))

    legs = {h for h in halves if g.involution[h] == h}
    if set(g.leg_weights) != legs:
        problems.append(("LegWeightMismatch",
                         "leg_weights domain differs from the involution's fixed points"))
    else:
        total = sum(g.leg_weights.values())
        want = -g.twist * (2 * graph_genus(g) - 2)
        if total != want:
            problems.append(("LegSumMismatch",
                             f"leg weights sum to {total}, expected {want}"))

    if not g.genus_of:
        problems.append(("Disconnected", "graph has no vertices"))
    else:
        _, root, _ = _spanning_forest(g)
        first = g.index.vertices[0]
        unreachable = sum(1 for r in root.values() if r != first)
        if unreachable:
            problems.append(("Disconnected",
                             f"{unreachable} vertices unreachable"))
    return GraphReport(not problems, tuple(problems))


# -- numeric invariants ----------------------------------------------------


def graph_genus(g: Graph) -> int:
    """First Betti number plus the sum of the vertex genera."""
    ne = len(g.edges())
    nv = len(g.genus_of)
    return ne - nv + 1 + sum(g.genus_of.values())


def canonical_degree(g: Graph, v) -> int:
    """2 * genus(v) - 2 + valence(v), counting non-leg half-edges."""
    if v not in g.genus_of:
        raise UnknownVertex(v)
    return 2 * g.genus_of[v] - 2 + g.valence(v)


def stability_report(g: Graph):
    """Advisory: vertices violating 2g(v) - 2 + val(v) + #legs(v) > 0.

    Stability of the underlying curve is never required by the fan
    machinery; this is informational only.
    """
    bad = []
    for v in g.vertices():
        nlegs = sum(1 for h in g.halves_at(v) if g.is_leg(h))
        if 2 * g.genus_of[v] - 2 + g.valence(v) + nlegs <= 0:
            bad.append(v)
    return bad


# -- spanning forest and cycle space ----------------------------------------


def _spanning_forest(g: Graph, edge_set=None):
    """Deterministic DFS spanning forest of the subgraph on ``edge_set``
    (default: all edges), spanning every vertex.

    Trees start from the vertices in index order and read each vertex's
    halves in ``non_leg_halves_at`` order. Returns (order, root, parent):
    the vertices in visiting order, each vertex's tree root (the smallest
    vertex of its component), and for each non-root vertex the half-edge
    at that vertex pointing toward its tree parent.
    """
    index = g.index
    order, root, parent = [], {}, {}
    for r in index.vertices:
        if r in root:
            continue
        root[r] = r
        stack = [r]
        while stack:
            v = stack.pop()
            order.append(v)
            for h in index.non_leg_halves_at.get(v, ()):
                if edge_set is not None and index.edge_of[h] not in edge_set:
                    continue
                p = g.involution[h]
                w = g.end[p]
                if w not in root:
                    root[w] = r
                    parent[w] = p  # half at w toward v
                    stack.append(w)
    return order, root, parent


def _tree_path_halves(g, parent, depth, u, v):
    """Directed halves along the tree path from u to v: the deeper end
    climbs toward its parent until the two ends meet."""
    up, down = [], []
    while u != v:
        if depth[u] >= depth[v]:
            h = parent[u]
            up.append(h)
            u = g.target(h)
        else:
            h = parent[v]
            down.append(g.partner(h))
            v = g.target(h)
    return up + down[::-1]


def cycle_basis(g: Graph):
    """Fundamental cycles of the deterministic spanning forest.

    One cycle per non-tree edge, ordered by edge key. Each cycle traverses
    its non-tree edge from the edge's canonical source half and returns
    through the tree; the representative is rotated to its lexicographic
    minimum without reversal.

    The basis is computed once per graph and cached on it, as
    :attr:`Graph.index` is; each call returns a fresh list, so a caller
    may change the list without changing the next call's result.
    """
    return list(g._cycle_basis)


def _fundamental_cycles(g: Graph):
    """The tuple of cycles :func:`cycle_basis` lists, computed afresh."""
    order, _, parent = _spanning_forest(g)
    # a parent comes before its children in the visiting order
    depth = {}
    for v in order:
        depth[v] = depth[g.target(parent[v])] + 1 if v in parent else 0
    tree_edges = {g.edge_of(h) for h in parent.values()}
    out = []
    for e in g.edges():
        if e in tree_edges:
            continue
        u, w = g.source(e), g.target(e)
        halves = (e,) + tuple(_tree_path_halves(g, parent, depth, w, u))
        out.append(Cycle(halves).canonical(g))
    return tuple(out)


def enumerate_cycles(g: Graph):
    """All undirected simple cycles, one canonical representative each.

    Self-loops count as length-1 cycles; a cycle repeats no vertex and no
    undirected edge. Representatives are the lexicographically smallest
    directed form, sorted by (length, halves). This is
    :func:`_cycle_search` on ``g`` with nothing contracted.
    """
    return [Cycle(halves) for halves in _cycle_search(g)]


def _cycle_search(g: Graph, label=None, dropped=0):
    """The cycles of G/K as :func:`enumerate_cycles` lists them, each as
    its tuple of halves, where G is ``g`` and K the edges whose positions
    are set in the bit mask ``dropped``. ``label`` maps each vertex
    position of G to the least position in its component of K (None: no
    edge contracted), the vertex that :func:`contract` names the merged
    vertex after.

    The search runs on quotient arrays made from G's index: each arc of
    ``index.arcs`` moves to the label of its tail and points to the label
    of its head. G/K keeps every surviving half, and its index ranks them
    with G's ranks (see :func:`contract`), so the halves, their ranks and
    the edge order of G/K are G's, restricted. The edges of K are skipped
    as first edges only: an edge of K joins two vertices of one
    component, so its arcs are loops of the quotient, and a loop at the
    vertex a path stands on leads back onto the path, which no path takes.

    Each cycle is found once, already in its smallest form (Tiernan, CACM
    1970; Johnson, SIAM J. Comput. 1975). Edges are ordered by their
    canonical source halves, which are the smaller halves of their edges,
    so of all the halves of a cycle, in both of its orientations, the
    least is the canonical source half e0 of its first edge. The smallest
    form is thus the orientation holding e0, rotated to start at it. For
    each edge e0 in edge order a DFS runs from the target of e0 back to
    its source, on paths that repeat no vertex, hence no edge, through
    later edges only; a loop closes at once. A cycle is closed only by
    the search from its first edge, along the one path that its smallest
    form lists after e0, so it is found exactly once and no rotation or
    reversal is ever built. Which cycles are found does not depend on the
    order in which a vertex's arcs are read, and the result is sorted, so
    a merged vertex may read its members' arcs one member after another.
    """
    index = g.index
    arcs, ends, edges = index.arcs, index.ends, index.edges
    if label is not None:
        quotient = [[] for _ in arcs]
        for v, out in enumerate(arcs):
            quotient[label[v]] += [(i, s, label[t]) for i, s, t in out]
        arcs, ends = quotient, [(label[a], label[b]) for a, b in ends]
    other = [g.involution[e] for e in edges]
    on_path = [False] * len(arcs)
    found = []
    for i0, (start, v) in enumerate(ends):
        if dropped >> i0 & 1:
            continue
        path = [edges[i0]]
        if v == start:
            found.append(tuple(path))
            continue
        on_path[v] = True
        verts, stack = [v], [iter(arcs[v])]
        while stack:
            for i, s, t in stack[-1]:
                if i > i0:
                    h = edges[i] if s > 0 else other[i]
                    if t == start:
                        found.append((*path, h))
                    elif not on_path[t]:
                        on_path[t] = True
                        path.append(h)
                        verts.append(t)
                        stack.append(iter(arcs[t]))
                        break
            else:
                stack.pop()
                on_path[verts.pop()] = False
                path.pop()
    rank = index.rank
    return sorted(found, key=lambda c: (len(c), tuple(map(rank.__getitem__, c))))


# -- contraction ------------------------------------------------------------


@dataclass(frozen=True)
class ContractionResult:
    contracted: Graph
    vertex_map: dict
    contracted_set: frozenset


def contract(g: Graph, edge_set) -> ContractionResult:
    """Contract a set of edges, merging endpoints with correct genera.

    Each connected component of the contracted subgraph collapses to one
    vertex (named after its smallest member) whose genus is the sum of the
    member genera plus the first Betti number of the component, so total
    genus is preserved and the canonical degree is additive.

    The contracted graph comes with its :class:`GraphIndex` built on the
    ranks of ``g``: it keeps every surviving half-edge id and names each
    merged vertex after one of ``g``'s, so ``g``'s ranks order its ids as
    ``sort_key`` does and no id is sorted by ``sort_key`` again.
    """
    edges = set(g.edges())
    S = set()
    for e in edge_set:
        if e not in edges:
            raise UnknownEdge(e)
        S.add(e)

    _, root, _ = _spanning_forest(g, S)
    vertex_map = {v: root[v] for v in g.genus_of}

    members = {}
    for v, r in vertex_map.items():
        members.setdefault(r, []).append(v)
    internal = {}
    for e in S:
        internal[vertex_map[g.source(e)]] = internal.get(vertex_map[g.source(e)], 0) + 1

    genus_of = {}
    for r, vs in members.items():
        betti = internal.get(r, 0) - len(vs) + 1
        genus_of[r] = sum(g.genus_of[v] for v in vs) + betti

    dropped = {h for e in S for h in g.edge_halves(e)}
    end = {h: vertex_map[v] for h, v in g.end.items() if h not in dropped}
    involution = {h: p for h, p in g.involution.items() if h not in dropped}
    contracted = Graph(genus_of, end, involution, dict(g.leg_weights), g.twist)
    # a surviving id keeps its sort_key, so the parent's ranks order the
    # child's ids; the index is stored where Graph.index caches it
    vars(contracted)["index"] = GraphIndex.build(contracted, g.index.rank)
    return ContractionResult(contracted, vertex_map, frozenset(S))
