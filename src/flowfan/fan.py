"""Enumeration and verification of the fan of weighting cones.

The catalog of all cones attached to weightings of a graph G is finite:
the weightings without a positive cycle, which
:meth:`~flowfan.weightings.FlowCore.acyclic_coefficients` enumerates in
the cycle space around the base weighting, yield every cone of such a
weighting, and each weighting with a positive cycle delegates to the
contracted graph. One depth-first walk visits each contracted graph G/K,
K a union of cycles, once. It reads the key of each cone of G/K off the
cone's rays padded with zeros on K, and builds a cone, once and directly
in G's edges, only for a key that is new. Closing the catalog under
faces gives the fan.

The walk holds a node G/K as the edge set K, a bit mask over G's edge
positions, and a component label for each vertex position of G: the
least position in its component of K, which is the vertex ``contract``
names the merged vertex after. Legs are kept and the canonical degree
is additive under contraction, so the vertex demands of G/K (legs plus
twist times canonical degree) are sums of G's over each component, and
its flow bound comes with no graph. Its cycles come from one search on
G's arrays with K's edges dropped and arc ends relabelled
(:func:`~flowfan.graph._cycle_search`). A graph G/K is built, by one
``contract`` from its parent's graph, only when its flows are searched
or a witness is lifted through it; the walk's stack holds it while the
walk is below it.

Most contracted graphs have no vertex demand left: at every vertex the
legs cancel the twist times the canonical degree, so the flow bound is
0, and merging components keeps it 0 for every graph below. Such a
graph has one acyclic flow, the zero flow, whose cone is the orthant on
its edges and whose weighting is ``base_weighting``: the legs, then
each surviving edge's two halves at 0. So the walk writes down its key
and witness in closed form, on G's arrays, instead of building the graph
and searching its flows; see :func:`_visit`.

The acyclic flows are lists on the integer arrays of
:class:`~flowfan.weightings.FlowCore`, built once per graph.
:meth:`~flowfan.weightings.FlowCore.rays` reads each flow's cone off the
directed bonds of the digraph the flow orients, so no row is normalized
and no :class:`~flowfan.cones.Cone` is built for a flow. Which edges
form a bond depends only on the flow's signs, so each orientation is
solved once, from its sign pattern, and every flow of it computes only
the entries ``L / |x_e|``. Where the orientation leaves too many
vertices for the bond search, its bonds are read off one double
description of its sign pattern's cone, so past that limit too every
flow takes the same path. Only the witness of a new cone becomes a
:class:`~flowfan.weightings.Weighting`, filled in from a template of the
base weighting's halves built with the core.

Faces are closed and checked through facets, never through a cone's
whole face lattice: every face of a pointed cone other than the cone is
a face of one of its facets (Ziegler, *Lectures on Polytopes*, section
2.2), so a face-closed collection is one that holds each cone's facets.
:func:`build_fan` descends from each catalog cone through the facets not
yet expanded, on ray bitmasks over that catalog cone's sorted rays and
its row masks, computed once per catalog cone (see the
:mod:`~flowfan.cones` module docstring). It records each cone's facets
on the cone, once, as their ray tuples, which are those of the facet
cones' keys. :func:`verify_fan` checks that each cone's facets are in
the fan, reading the recorded facets, so on a fan from ``build_fan`` it
lists none anew. In both, a cone is maximal when it is no cone's facet.
"""
from dataclasses import dataclass
from math import lcm

from .errors import UnknownEdge, UnsupportedDimension
from .cones import (Cone, _face_masks, _facet_rays, _facet_row_masks,
                    _facets_of, _is_closure, _orthant_rows, _rays_of,
                    _unit_rows, canonical_key, cone_of_weighting,
                    intersect_cones)
from .graph import _cycle_search, contract
from .weightings import (FlowCore, Weighting, _complete_values, _positive_cycle,
                         _vertex_demands, restrict_weighting)


def _padding(edges, small_edges):
    """The map from rays on ``small_edges``, the edges of a contracted
    graph G/K, to those rays padded with zero coordinates on K into G's
    ``edges``, sorted. Padding keeps a ray primitive, and extreme in the
    padded cone, the product of the small cone with the origin of K."""
    pos = {e: i for i, e in enumerate(edges)}
    slots = [pos[e] for e in small_edges]

    def pad(rays):
        out = []
        for r in rays:
            v = [0] * len(edges)
            for x, i in zip(r, slots):
                v[i] = x
            out.append(tuple(v))
        return tuple(sorted(out))

    return pad


def cone_catalog(g):
    """The exact set of weighting cones with one exact witness each.

    Returns a list of (cone, weighting) pairs sorted by canonical key; for
    every pair the cone of the weighting equals the stored cone. The
    enumeration visits only weightings without a positive cycle: the cones
    of the others come from the contracted graphs G/K, K a union of cycles.

    A key's witness is that of its first occurrence in the preorder of the
    recursion into every cycle of every contracted graph. The walk keeps
    that preorder but visits each K once: a repeat of K is no descendant
    of its first visit (K grows down a branch), which has thus already
    added every key the repeat would reach, so no first occurrence moves.

    The walk reads each G/K off G's index (see :func:`_visit`): K is a bit
    mask over G's edge positions, and each vertex position of G carries
    the label of its component of K. The demands of G/K, and so its flow
    bound, are sums of G's, and its cycles come from one search on G's
    arrays. A graph G/K is built, by one ``contract`` from its parent's
    graph, only when its flows are searched or a witness is lifted through
    it. A G/K with no vertex demand gets its one cone, the orthant on its
    edges, and its witness in closed form, with no flow search; every
    other G/K goes through :func:`_acyclic_catalog`.
    """
    out = {}
    labels = list(range(len(g.index.vertices)))
    demand = _vertex_demands(g)
    _visit(g, demand, [[g, None]], 0, labels, _bound(demand, labels), out, set())
    return [pair for _, pair in sorted(out.items(), key=lambda kv: kv[0])]


def _bound(demand, labels):
    """The flow bound of the contracted graph whose vertices are the
    components that ``labels`` names: half the total of the absolute
    summed ``demand`` of each component."""
    total = [0] * len(labels)
    for d, label in zip(demand, labels):
        total[label] += d
    return sum(map(abs, total)) // 2


def _visit(g, demand, stack, contracted, labels, S, out, seen):
    """Add the cones of G/K new to ``out`` as key -> (cone, witness) in
    G's edges, then visit G/(K | C) for each cycle C of G/K whose edge set
    K | C is not in ``seen``. G is ``g``, and K = ``contracted`` is a bit
    mask over its edge positions.

    ``stack`` holds one entry per level from G down to G/K: [the level's
    graph, or None until it is built; the halves of the cycle contracted
    from its parent into it]. ``labels`` gives each vertex position of G
    the least position in its component of K, the vertex that
    :func:`~flowfan.graph.contract` names the merged vertex after, and
    ``demand`` the vertex demands of G (legs + k * kappa(v)). Legs are
    kept and the canonical degree is additive under contraction, so the
    demand of a vertex of G/K is the sum of ``demand`` over its component,
    and ``S``, the flow bound of G/K, is half the total of their absolute
    values, with no ``flow_bound`` call. Merging components keeps zero
    sums at zero, so every child of a graph with no demand has none.

    The rays of each cone of G/K, padded with zeros on K, give its key in
    G. A key new to ``out`` gets its one cone, built in G's edges from the
    padded rays and the unit rows of G (see the :mod:`~flowfan.cones`
    module docstring for its equality rows), and its witness lifted to G
    (:func:`_lift`); a key already in ``out`` costs nothing more.

    When S = 0 the one cone and witness of G/K are written down with no
    graph built and no flow search, and are those :func:`_acyclic_catalog`
    would give:

    * Every acyclic flow has ``|x_e| <= S`` (:func:`flow_bound`), so S = 0
      leaves only the zero flow.
    * ``base_weighting`` of G/K is that flow: forest flows solved leaf
      first from zero demands are zero, and legs keep their weights. Its
      values, in that key order, are :func:`_zero_flow_values`.
    * With every edge of zero flow, G/K/Z is a single vertex, so
      :meth:`FlowCore.rays` returns exactly the unit vectors of G/K.
      Padded, they are the sorted unit rows of G's edges off K.

    Otherwise G/K is built (:func:`_level_graph`) and its flows searched.
    The cycles of G/K come from :func:`~flowfan.graph._cycle_search` on
    G's arrays with K dropped and arc ends relabelled: the halves, in the
    order, that :func:`~flowfan.graph.enumerate_cycles` gives on the
    graph ``contract`` builds. A child merges the components its cycle
    passes through into one, labelled by the least of their labels."""
    index = g.index
    edges = index.edges
    n = len(edges)
    if S == 0:
        units = _unit_rows(n)
        # sorted: unit row i comes before unit row j when i > j
        found = {tuple(units[i] for i in range(n - 1, -1, -1)
                       if not contracted >> i & 1): None}
    else:
        h = _level_graph(stack, len(stack) - 1)
        found = _acyclic_catalog(h, S)
        if contracted:
            pad = _padding(edges, h.edges())
            found = {pad(rays): w for rays, w in found.items()}
    orthant = _orthant_rows(n)
    for rays, w in found.items():
        k = ((), rays)  # a pointed cone's key
        if k not in out:
            c = Cone._pointed(n, edges, None, orthant, rays)
            values = _zero_flow_values(g, contracted) if w is None else w.values
            out[k] = (c, _lift(g, stack, values))
    pos, ends = index.edge_pos, index.ends
    for halves in _cycle_search(g, labels, contracted):
        cycle = 0
        for h in halves:
            cycle |= 1 << pos[h]
        key = contracted | cycle
        if key not in seen:
            seen.add(key)
            merged = {labels[v] for h in halves for v in ends[pos[h]]}
            least = min(merged)
            child = [least if label in merged else label for label in labels]
            stack.append([None, halves])
            _visit(g, demand, stack, key, child, S and _bound(demand, child),
                   out, seen)
            stack.pop()


def _zero_flow_values(g, contracted):
    """The values of ``base_weighting`` of G/K, K = ``contracted`` a bit
    mask over G's edge positions, when G/K has no vertex demand: the legs
    with their weights, in G's ``end`` order, then each surviving edge's
    canonical source half and its partner, in edge order, at 0.

    That is the key order ``base_weighting`` gives: ``contract`` keeps
    ``end`` in its parent's order, so G/K lists its legs as G does, and
    :func:`~flowfan.weightings._complete_values` adds the halves of the
    free edges, all of them here, in edge order; solving the forest
    flows sets values already there."""
    values = {h: g.leg_weights[h] for h in g.end if g.involution[h] == h}
    for i, e in enumerate(g.index.edges):
        if not contracted >> i & 1:
            values[e] = 0
            values[g.involution[e]] = 0
    return values


def _level_graph(stack, j):
    """The graph of level ``j`` of the walk's ``stack``, built on first use
    by one ``contract`` of the level's cycle in its parent's graph."""
    level = stack[j]
    if level[0] is None:
        parent = _level_graph(stack, j - 1)
        edge_of = parent.index.edge_of
        level[0] = contract(parent, {edge_of[h] for h in level[1]}).contracted
    return level[0]


def _lift(g, stack, values):
    """The witness on G of the half-edge ``values`` of the deepest level of
    ``stack``, carried up one level at a time. Into each parent level the
    values are extended over the contracted cycle's edges, zero off a
    spanning tree of each contracted component, as
    :func:`~flowfan.weightings.lift_weighting` does; then a negative
    circulation along the cycle, one more than the largest absolute value,
    makes it positive, as :func:`~flowfan.weightings.shift_along_cycle`
    does. Each parent graph is built once (:func:`_level_graph`); the
    values stay one dict per level, and one :class:`Weighting` on G is
    made at the end."""
    inv, edge_of = g.involution, g.index.edge_of
    for j in range(len(stack) - 1, 0, -1):
        halves = stack[j][1]
        values = _complete_values(_level_graph(stack, j - 1),
                                  {edge_of[h] for h in halves}, values)
        amount = max(map(abs, values.values())) + 1
        for h in halves:
            values[h] += amount
            values[inv[h]] -= amount
    return Weighting(g, values)


def _acyclic_catalog(g, S):
    """The cones of the weightings of ``g`` without a positive cycle, as
    their sorted rays -> first witness, in enumeration order; ``S`` is
    ``flow_bound(g)``. Each flow's rays come from
    :meth:`~flowfan.weightings.FlowCore.rays`, and only the first flow of
    a cone becomes a weighting; no cone is built here."""
    core = FlowCore.build(g, S)
    out = {}
    for coeffs in core.acyclic_coefficients():
        x = core.shifted(coeffs)
        rays = core.rays(x)
        if rays not in out:
            out[rays] = core.weighting(x)
    return out


@dataclass
class Fan:
    """Face-closed collection of cones in the edge space of a graph.

    ``witnesses`` maps each cone key to a weighting whose cone contains it
    (equality for maximal cones); ``maximal_keys`` flags the maximal cones.
    """

    graph: object
    edge_order: tuple
    cones: list
    witnesses: dict
    maximal_keys: frozenset

    def ray_list(self):
        rays = set()
        for c in self.cones:
            rays.update(c.rays())
        return sorted(rays)

    def maximal_cones(self):
        return [c for c in self.cones if canonical_key(c) in self.maximal_keys]


def build_fan(g) -> Fan:
    """Close the cone catalog under faces and flag the maximal cones.

    Each catalog cone, in key order, is expanded unless it already was:
    the descent from it visits its facets, then their facets, and so on,
    but never expands a cone twice. It runs on ray masks over the sorted
    rays of the catalog cone C it starts from, with C's row masks,
    computed once. Every cone of the fan keeps the orthant's unit rows as
    its inequality rows, so C's row masks cut down to a face are that
    face's own, and :func:`~flowfan.cones._facets_of` gives its facets as
    from its own rows. Expanding a cone records its facets on it, once,
    as their sorted ray tuples. A facet not yet in the fan is built as a
    ``Cone._pointed`` with C's inequality rows, its rays and its parent's
    dimension minus one, and takes the witness of C.

    That witness is the one of the first catalog cone, in key order, that
    has the face. Let C be that cone and F the face. No cone between C
    and F in a chain of facets was expanded before C's turn: it would
    have been a face of an earlier catalog cone, and F with it. So C, even
    if it is a later catalog cone's face, is expanded in its own turn and
    reaches F; and F was not in the fan before. This is why a cone that is
    in the fan is still expanded until it has been expanded once.

    Every cone of the fan is expanded, and every proper face of a cone is
    a face of one of its facets, so a cone is maximal when it is no
    cone's facet; a face of a face is a face, so this is
    :func:`verify_fan`'s rule."""
    cones, witnesses = {}, {}
    for c, w in cone_catalog(g):
        k = canonical_key(c)
        cones[k], witnesses[k] = c, w
    expanded, facets = set(), set()
    for k in list(cones):
        if k in expanded:
            continue
        expanded.add(k)
        top = cones[k]
        rays, masks = top.rays(), _facet_row_masks(top)
        stack = [(top, (1 << len(rays)) - 1)]
        while stack:
            c, s = stack.pop()
            recorded = []
            for t in _facets_of(s, masks):
                fk = ((), _rays_of(rays, t))  # a pointed cone's key
                facets.add(fk)
                f = cones.get(fk)
                if f is None:
                    f = cones[fk] = Cone._pointed(c.ambient_dim, c.labels, None,
                                                  top.inequalities, fk[1])
                    f._dim = c.dim() - 1
                    witnesses[fk] = witnesses[k]
                recorded.append(f._rays)
                if fk not in expanded:
                    expanded.add(fk)
                    stack.append((f, t))
            c._facets = tuple(recorded)
    maximal = frozenset(cones) - facets
    ordered = sorted(cones.values(), key=lambda c: (c.dim(), c.rays()))
    return Fan(g, tuple(g.edges()), ordered, witnesses, maximal)


@dataclass(frozen=True)
class FanReport:
    ok: bool
    violations: tuple = ()


def _union(supports):
    """The union of the support masks of ``supports``, (ray, mask) pairs."""
    union = 0
    for _, m in supports:
        union |= m
    return union


def _ray_supports(rays):
    """(each ray of ``rays`` with the bitmask of its nonzero coordinates,
    the union of those masks)."""
    masks = tuple((r, sum(1 << k for k, x in enumerate(r) if x)) for r in rays)
    return masks, _union(masks)


def _pair_view(c):
    """What the pair stage of :func:`verify_fan` reads of a pointed cone in
    the orthant, computed once per cone and call: (``c``, its
    :func:`_ray_supports`)."""
    return c, _ray_supports(c.rays())


def _meet_in_common_face(view1, rays1, view2, rays2):
    """Whether two pointed cones, given by their :func:`_pair_view` and
    with ray sets ``rays1`` and ``rays2``, meet in a common face. A ray r
    meets a cone in r or in the origin. Otherwise their intersection is
    tested as a tight-set closure on each cone's row masks."""
    if len(rays1) > len(rays2):
        view1, rays1, view2, rays2 = view2, rays2, view1, rays1
    if not rays1:
        return True
    if len(rays1) == 1:
        (r,) = rays1
        return r in rays2 or not view2[0].contains(r)
    inter = intersect_cones(view1[0], view2[0]).rays()
    return all(_is_closure(inter, c.rays(), _facet_row_masks(c))
               for c, _ in (view1, view2))


def _meet_on_common_support(view1, view2):
    """:func:`_meet_in_common_face` for two pointed cones in the orthant,
    given by their :func:`_pair_view`. It is decided on G1 and G2, the
    faces spanned by the rays whose supports lie in S, the cones' common
    support, since the cones meet where G1 and G2 do; the cut is repeated
    on G1 and G2 until it keeps every ray, and faces with the same rays
    are one cone, a face of both (see :func:`verify_fan`)."""
    (supports1, union1), (supports2, union2) = view1[1], view2[1]
    s = union1 & union2
    while True:
        g1 = [(r, m) for r, m in supports1 if m | s == s]
        if not g1:
            return True
        g2 = [(r, m) for r, m in supports2 if m | s == s]
        if not g2 or len(g1) == len(g2) == 1:
            # G1 or G2 is the origin, or two rays meet in a ray or the origin
            return True
        cut = _union(g1) & _union(g2)
        if cut == s:
            break
        supports1, supports2, s = g1, g2, cut
    # both lists keep their cone's sorted ray order
    if g1 == g2:
        return True
    return _meet_in_common_face(view1, [r for r, _ in g1],
                                view2, [r for r, _ in g2])


def verify_fan(fan: Fan) -> FanReport:
    """Check the fan axioms in three stages: cones are pointed and sit in
    the non-negative orthant, every face of every cone belongs to the fan,
    and any two cones intersect in a common face. Reports every violation
    of the first stage that has any; later stages need the earlier ones
    (faces are taken of pointed cones only).

    The second stage checks only that each cone's facets are in the fan:
    those ``build_fan`` recorded on it, or else those of its own rows
    (:func:`~flowfan.cones._facet_rays`). Every proper face of a pointed
    cone is a face of one of its facets, which has a lower dimension, so
    by induction over dimension every face of every cone then is. A cone
    with a missing facet falls back to its whole face lattice, so the
    report names every missing face of it, in (ray count, rays) order.

    The third stage checks pairs of maximal cones only, which suffices in
    a face-closed collection of pointed cones (Ziegler, *Lectures on
    Polytopes*, section 7.1; Cox, Little and Schenck, *Toric Varieties*,
    section 3.1). Let maximal cones C1 and C2 meet in G, a face of both,
    and let F1 be a face of C1 and F2 a face of C2. The intersection of F1
    and G is a face of C1 inside G, so a face of G, and likewise for F2
    and G. So F1 and F2 meet in a face of G, which is a face of C1 and of
    C2 and hence of F1 and of F2. The collection is finite, so every cone
    is a face of a maximal one. A cone is maximal when its ray set is no
    cone's facet, and so no other cone's proper face; ``fan.maximal_keys``
    is not trusted.

    Two cones with at most one ray each always meet in a common face. A
    ray r meets a cone C in r or in the origin, so the pair fails exactly
    when C contains r and r is not a ray of C.

    Before a pair is tested it is cut down to the coordinates both cones
    use. Take two pointed cones C1 and C2 in the orthant; the first stage
    has checked that they are. Let supp(C) be the union of the supports
    of C's rays, and let S be the intersection of supp(C1) and supp(C2).

    * Every point of C_i has its support inside supp(C_i), so the
      intersection of C1 and C2 lies in F, the orthant's face on S.
    * The hyperplane where the coordinates outside S sum to 0 supports
      the orthant, which it cuts in F. So C_i cut by it is a face G_i of
      C_i, spanned by the rays of C_i whose support lies in S.
    * Therefore C1 and C2 meet where G1 and G2 meet, and that cone is a
      face of C_i exactly when it is a face of G_i, for a face of a face
      is a face, and a face of C_i inside G_i is a face of G_i.

    So the pair passes when G1 or G2 has no ray, or each has one. When
    one of them is a single ray r, the ray rule above decides: r lies in
    C_i exactly when it lies in G_i, and is a ray of C_i exactly when it
    is one of G_i.

    The cut is then repeated on G1 and G2, until it keeps every ray of
    both. G1 and G2 are pointed cones in the orthant, so the argument
    above holds for them with S' the intersection of supp(G1) and
    supp(G2): they meet where their faces G1' and G2' on S' do, and that
    cone is a face of G_i exactly when it is one of G_i'. A face of a face
    is a face, so after each cut C1 and C2 meet in a common face exactly
    when the new G1 and G2 do. S' lies in S, and the cut keeps every ray
    exactly when S' = S, so the cuts stop, with supp(G1) = supp(G2) = S,
    and the ray rules above apply after each. Two faces with the same
    rays are one cone, and that cone is a face of C1 and of C2, so the
    pair passes. Only when the last G1 and G2 differ and have two or more
    rays each do C1 and C2 need an intersection, which is then a common
    face when its rays form a tight-set closure on the row masks of each.
    The supports of each maximal cone's rays are computed once per call,
    not once per pair (:func:`_pair_view`), and a cone's row masks only
    for a pair that reaches an intersection. Violations are reported
    in the order of the pairs' positions in ``fan.cones``."""
    cones = fan.cones
    violations = []
    for c in cones:
        if not c.is_pointed():
            violations.append(f"cone {canonical_key(c)} not pointed")
        elif any(x < 0 for r in c.rays() for x in r):
            violations.append(f"cone {canonical_key(c)} leaves the orthant")
    if violations:
        return FanReport(False, tuple(violations))
    # pointed cones and their faces are keyed by their sorted rays alone:
    # canonical_key is ((), rays)
    ray_keys = [c.rays() for c in cones]
    known = set(ray_keys)
    facets = set()
    for c in cones:
        facet_keys = _facet_rays(c)
        if all(r in known for r in facet_keys):
            facets.update(facet_keys)
            continue
        missing = sorted({_rays_of(c.rays(), s) for s in _face_masks(c)} - known,
                         key=lambda r: (len(r), r))
        violations += [f"face {((), r)} of {canonical_key(c)} missing"
                       for r in missing]
    if violations:
        return FanReport(False, tuple(violations))
    maximal = [i for i, rs in enumerate(ray_keys) if rs not in facets]
    wide = [i for i in maximal if len(ray_keys[i]) > 1]
    views = {i: _pair_view(cones[i]) for i in maximal}
    # a cone with at most one ray is paired with the wide cones only
    for i in maximal:
        for j in (maximal if len(ray_keys[i]) > 1 else wide):
            if j > i and not _meet_on_common_support(views[i], views[j]):
                violations.append(
                    f"intersection of {canonical_key(cones[i])} and "
                    f"{canonical_key(cones[j])} is not a common face")
    return FanReport(not violations, tuple(violations))


@dataclass(frozen=True)
class CompatReport:
    ok: bool
    checked: int
    violations: tuple = ()


def check_contraction_compat(g, edge_set) -> CompatReport:
    """For every witness weighting w of the catalog: the cone of the
    restricted weighting, padded with zeros on the contracted edges, is
    contained in the cone of w; when the contracted set is a positive cycle
    for w the two agree exactly.

    The set S is a positive cycle for w when it is the edge set of a
    simple cycle along which w is positive on every source half.
    :func:`~flowfan.weightings._positive_cycle`, run on w's source-half
    values set to 0 off S, returns a simple cycle of positive arcs inside
    S or None, and S is a positive cycle exactly when that cycle takes
    every edge of S."""
    edges = g.edges()
    S = frozenset(edge_set)
    for e in S:
        if e not in edges:
            raise UnknownEdge(e)
    res = contract(g, S)
    pad = _padding(edges, res.contracted.edges())
    violations = []
    checked = 0
    for c, w in cone_catalog(g):
        checked += 1
        w_res = restrict_weighting(g, w, res)
        # the restricted cone is pointed, so it is spanned by its rays
        rays = pad(cone_of_weighting(res.contracted, w_res).rays())
        if not all(c.contains(r) for r in rays):
            violations.append(f"inclusion fails for witness {w.flows()}")
            continue
        cyc = _positive_cycle(g.index, [w.values[e] if e in S else 0 for e in edges])
        positive = cyc is not None and len(cyc) == len(S)
        if positive and ((), rays) != canonical_key(c):
            violations.append(f"equality fails for witness {w.flows()}")
    return CompatReport(not violations, checked, tuple(violations))


# -- slice geometry ----------------------------------------------------------


@dataclass(frozen=True)
class SliceCell:
    dim: int
    vertices: tuple  # primitive rays r; r / sum(r) is the barycentric point
    flows: tuple     # (edge key, flow) pairs of the witness, in edge order


@dataclass(frozen=True)
class SliceDescription:
    ambient_dim: int
    edge_order: tuple
    cells: tuple


def check_sliceable(num_edges):
    """Raise ``UnsupportedDimension`` unless the fan of a graph with
    ``num_edges`` edges can be sliced: only 2 and 3 edges can. Cheap, so
    a caller can refuse a graph before building its fan."""
    if num_edges not in (2, 3):
        raise UnsupportedDimension(f"slice requires 2 or 3 edges, got {num_edges}")


def _facet_cycle(c, first):
    """The rays of a pointed 3-cone ``c`` in R^3 in the cyclic order of its
    facets, each a pair of rays, from the ray ``first`` = p and
    counterclockwise in the (t2, t3) chart of the slice. Of p's two
    neighbours a and b, the walk steps first to a when det(p, a, b) > 0:
    adding the other two columns to the first turns each row r into
    (sum(r), r2, r3), so that determinant has the sign of the triangle
    p, a, b in the chart, as each sum(r) is positive."""
    nbrs = {}
    for u, v in _facet_rays(c):
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    (a0, a1, a2), (b0, b1, b2) = nbrs[first]
    p0, p1, p2 = first
    det = (p0 * (a1 * b2 - a2 * b1) - p1 * (a0 * b2 - a2 * b0)
           + p2 * (a0 * b1 - a1 * b0))
    cycle = [first, nbrs[first][0 if det > 0 else 1]]
    while len(cycle) < len(nbrs):
        u, v = nbrs[cycle[-1]]
        cycle.append(v if u == cycle[-2] else u)
    return tuple(cycle)


def slice_fan(fan: Fan) -> SliceDescription:
    """Cut the maximal cones with the hyperplane where the coordinates sum
    to one. Each maximal cone of dimension d >= 1 becomes a cell of
    dimension d - 1, tagged with its witness flows, whose vertices are the
    cone's primitive rays: a ray r meets the hyperplane in r / sum(r).
    Only ambient dimensions 2 and 3 are supported
    (:func:`check_sliceable`).

    A polygon lists its rays in facet order (:func:`_facet_cycle`), from
    the least in barycentric order. A fan from :func:`build_fan` has only
    one kind of polygon, the triangle of the orthant: each catalog cone is
    the orthant cut by the kernel of its equality rows, which in R^3 is
    3-dimensional only when there are none, and every other cone of the
    fan is a face of a catalog cone, of lower dimension. The facet walk
    still orders any pointed 3-cone of a fan built by hand.

    Cells sort by (dimension, vertices), each ray scaled to one common
    denominator D, the lcm of the ray sums, as the integer tuple
    D / sum(r) * r; this is the order of the barycentric points."""
    d = len(fan.edge_order)
    check_sliceable(d)
    cones = [c for c in fan.maximal_cones() if c.dim() >= 1]
    D = lcm(*(sum(r) for c in cones for r in c.rays()))

    def scaled(r):
        return tuple(x * (D // sum(r)) for x in r)

    cells = []
    for c in cones:
        cdim = c.dim()
        verts = c.rays()
        if cdim == 3:
            verts = _facet_cycle(c, min(verts, key=scaled))
        w = fan.witnesses[canonical_key(c)]
        cells.append(SliceCell(cdim - 1, verts, tuple(w.flows().items())))
    cells.sort(key=lambda cell: (cell.dim, tuple(map(scaled, cell.vertices))))
    return SliceDescription(d, fan.edge_order, tuple(cells))
