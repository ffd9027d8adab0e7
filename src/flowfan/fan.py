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

Every fan has one index, which checking, writing and slicing it read:
its sorted rays, with every cone of the fan an int mask over them (see
the :mod:`~flowfan.cones` module docstring), and each cone's facets as
masks (:class:`_Closure`). :func:`build_fan` makes it as it closes the
catalog: it sorts the catalog's rays once and descends from each catalog
cone through the facets not yet expanded, on its row masks over the
fan's rays; a face is one int, faces from different catalog cones dedup
on ints, and each cone's facets are recorded, once. No
:class:`~flowfan.cones.Cone` is built for a face. A fan built by hand
from cones gets its index on first need, each cone its own catalog
entry with the facets of its own rows, masked over the fan's rays the
same way (:func:`_index_of`), and the cones in their given order, where
a fan from ``build_fan`` is in (dimension, rays) order, sorted only
where an order is read (:meth:`_Closure.ordered`). :func:`verify_fan`
checks the orthant once per distinct ray and that each cone's facets
are in the fan, names the missing faces of a cone from its row masks,
and takes the supports of a pair of cones as ORs of per-ray supports; a
cone is maximal when it is no cone's facet.
:func:`~flowfan.io.emit_fan_json` reads each cone's ray indices off its
bits. ``Fan.cones``, ``Fan.witnesses`` and ``Fan.maximal_keys`` of a
fan from ``build_fan`` are views, built on their first read.
"""
from dataclasses import dataclass
from math import lcm

from .errors import UnknownEdge, UnsupportedDimension
from .cones import (Cone, _bits, _face_masks, _facet_rays, _facet_row_masks,
                    _facets_of, _is_closure, _orthant_rows, _rays_of,
                    _unit_rows, canonical_key, cone_of_weighting,
                    intersect_cones)
from .graph import _cycle_search, contract
from .linalg import dot
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
class _Closure:
    """The index of a fan: its cones as int masks over ``rays``, the
    sorted union of their rays. Bit i of a mask stands for ``rays[i]``, so
    a mask's rays in ascending bit order are sorted.

    * ``catalog``: each catalog cone's mask -> (cone, witness);
    * ``facets``: each cone's mask -> its facets' masks; its keys are the
      cones of the fan;
    * ``dims``: each cone's mask -> its dimension;
    * ``top``: each cone's mask -> the mask of the catalog cone whose
      witness it takes: a catalog cone's own, and a face's that of the
      first catalog cone, in key order, that has it;
    * ``maximal``: the masks of the maximal cones;
    * ``listing``: the fan's masks in the fan's order, repeats included,
      or None when each cone is listed once, in (dimension, rays) order.

    :func:`build_fan` makes the index of the fan it builds, and
    :func:`_index_of` that of a fan built by hand from cones.
    """

    rays: tuple
    catalog: dict
    facets: dict
    dims: dict
    top: dict
    maximal: frozenset
    listing: tuple = None

    def masks(self):
        """The fan's masks, repeats included, in no set order."""
        return self.facets if self.listing is None else self.listing

    def ordered(self, masks):
        """The masks of ``masks``, cones of the fan, in the fan's order,
        repeats included: as listed, or else by (dimension, rays), as
        ascending ray indices are in the order of the sorted rays."""
        if self.listing is None:
            # by rays, then, stably, by dimension
            return sorted(sorted(masks, key=_bits), key=self.dims.__getitem__)
        return [m for m in self.listing if m in masks]


def _ray_index(cones):
    """The sorted union of the rays of ``cones``, and each cone's mask over
    it, bit i standing for ray i."""
    rays = tuple(sorted({r for c in cones for r in c.rays()}))
    bit = {r: 1 << i for i, r in enumerate(rays)}
    return rays, [sum(map(bit.__getitem__, c.rays())) for c in cones]


class _RowMasks(dict):
    """Each inequality row -> the mask of the sorted ``rays`` on its
    hyperplane, computed on first use, once per distinct row."""

    def __init__(self, rays):
        self.rays = rays

    def __missing__(self, q):
        self[q] = z = sum(1 << i for i, r in enumerate(self.rays) if dot(q, r) == 0)
        return z


def _index_of(cones, witnesses, maximal_keys):
    """The index of a fan built by hand from ``cones``, with the given
    ``witnesses`` and ``maximal_keys``.

    Each cone is its own catalog entry, with its witness, if it has one.
    Two cones with the same rays are one entry: a pointed cone is fixed by
    its rays, and of a pointed and a cone that is not, the one that is not
    is kept, for the first stage of :func:`verify_fan` to find. A cone's
    facets are those of its own inequality rows, masked over the fan's
    rays as in :func:`build_fan`, and its dimension is its own. The masks
    keep the order of ``cones``, repeats included."""
    rays, listing = _ray_index(cones)
    catalog = {}
    for m, c in zip(listing, cones):
        if m not in catalog or not c.is_pointed():
            catalog[m] = (c, witnesses.get(canonical_key(c)))
    on_row = _RowMasks(rays)
    facets = {m: _facets_of(m, [on_row[q] for q in c.inequalities])
              for m, (c, _) in catalog.items()}
    dims = {m: c.dim() for m, (c, _) in catalog.items()}
    maximal = frozenset(m for m, c in zip(listing, cones)
                        if canonical_key(c) in maximal_keys)
    return _Closure(rays, catalog, facets, dims, {m: m for m in catalog}, maximal,
                    tuple(listing))


def _views(closure):
    """(cones, witnesses, maximal keys) of a fan from :func:`build_fan`, in
    the fan's order, (dimension, rays). A catalog cone is its own
    cone object; a face is built as a ``Cone._pointed`` with its rays, its
    dimension and the inequality rows of the catalog cone it was reached
    from, and takes that cone's witness."""
    rays, catalog, top, dims = closure.rays, closure.catalog, closure.top, closure.dims
    cones, witnesses = [], {}
    for m in closure.ordered(closure.facets):
        c, w = catalog[top[m]]
        if m != top[m]:
            c = Cone._pointed(c.ambient_dim, c.labels, None, c.inequalities,
                              _rays_of(rays, m))
            c._dim = dims[m]
        cones.append(c)
        witnesses[((), c.rays())] = w  # a pointed cone's key
    maximal = frozenset(((), _rays_of(rays, m)) for m in closure.maximal)
    return cones, witnesses, maximal


class Fan:
    """Face-closed collection of cones in the edge space of a graph.

    ``cones`` lists them; ``witnesses`` maps each cone key to a weighting
    whose cone contains it (equality for maximal cones); ``maximal_keys``
    flags the maximal cones.

    Every fan has one index, a :class:`_Closure` of masks over its sorted
    rays, and its rays, its entries, its maximal cones and its check are
    read off that index. A fan from :func:`build_fan` is made from its
    index, and builds the three views together, in (dimension, rays)
    order, on the first read of any of them (:func:`_views`); building,
    verifying, writing and slicing it read none of them. A fan built by
    hand holds the three as given, and builds its index on first need
    (:func:`_index_of`).
    """

    def __init__(self, graph, edge_order, cones, witnesses, maximal_keys):
        self.graph = graph
        self.edge_order = edge_order
        self._cones = cones
        self._witnesses = witnesses
        self._maximal_keys = maximal_keys
        self._closure = None

    @classmethod
    def _closed(cls, graph, closure):
        fan = cls(graph, tuple(graph.edges()), None, None, None)
        fan._closure = closure
        return fan

    def _index(self):
        if self._closure is None:
            self._closure = _index_of(self._cones, self._witnesses, self._maximal_keys)
        return self._closure

    def _view(self):
        if self._cones is None:
            self._cones, self._witnesses, self._maximal_keys = _views(self._closure)

    @property
    def cones(self):
        self._view()
        return self._cones

    @property
    def witnesses(self):
        self._view()
        return self._witnesses

    @property
    def maximal_keys(self):
        self._view()
        return self._maximal_keys

    def ray_list(self):
        return list(self._index().rays)

    def _maximal(self):
        """(cone, witness) of each maximal cone, in the fan's order."""
        index = self._index()
        return [index.catalog[m] for m in index.ordered(index.maximal)]

    def maximal_cones(self):
        return [c for c, _ in self._maximal()]

    def entries(self):
        """(the sorted rays, one (dimension, ray indices, is maximal,
        witness) entry per cone, repeats included, in no set order): what
        a FanDocument says of the fan, read off its masks."""
        index = self._index()
        catalog, top, dims, maximal = index.catalog, index.top, index.dims, index.maximal
        return index.rays, [(dims[m], _bits(m), m in maximal, catalog[top[m]][1])
                            for m in index.masks()]


def build_fan(g) -> Fan:
    """Close the cone catalog under faces and flag the maximal cones.

    The catalog's rays, sorted, index the fan: every cone is an int mask
    over them, bit i standing for ray i (:class:`_Closure`). They are all
    the fan's rays, since a face's rays are rays of the cone it is a face
    of. The map from a catalog cone's own sorted rays to this list keeps
    their order, so ascending bits are still sorted rays.

    Each catalog cone C, in key order, is expanded unless it already was:
    the descent from it visits its facets, then their facets, and so on,
    but never expands a cone twice. It runs
    :func:`~flowfan.cones._facets_of` on C's row masks over the fan's
    rays: the mask of the fan's rays on a row's hyperplane, computed once
    per distinct row, cut down to C. Every cone of the fan keeps the
    orthant's unit rows as its inequality rows, so C's row masks cut down
    to a face are that face's own, and ``_facets_of`` gives its facets as
    from its own rows, in the same order. Expanding a cone records its
    facets' masks, once. A facet not yet in the fan gets its parent's
    dimension minus one, and the witness of C.

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
    :func:`verify_fan`'s rule. No :class:`~flowfan.cones.Cone` is built
    for a face here (see :class:`Fan`)."""
    pairs = cone_catalog(g)
    rays, masks = _ray_index([c for c, _ in pairs])
    catalog = dict(zip(masks, pairs))
    on_row = _RowMasks(rays)
    top = {m: m for m in catalog}
    # each cone's mask, once expanded or on the stack, -> that one int
    # object, which every recorded facet of it then shares
    claimed = {}
    facets, dims, proper = {}, {}, set()
    for m, (c, _) in catalog.items():
        if m in claimed:
            continue
        rows = [on_row[q] & m for q in c.inequalities] if m.bit_count() > 3 else ()
        dims[m] = c.dim()
        claimed[m] = m
        stack = [m]
        while stack:
            s = stack.pop()
            d = dims[s] - 1
            recorded = []
            for t in _facets_of(s, rows):
                u = claimed.get(t)
                if u is None:
                    claimed[t] = u = t
                    dims[t] = d
                    top.setdefault(t, m)
                    stack.append(t)
                recorded.append(u)
            facets[s] = tuple(recorded)
            proper.update(recorded)
    maximal = frozenset(m for m in catalog if m not in proper)
    return Fan._closed(g, _Closure(rays, catalog, facets, dims, top, maximal))


@dataclass(frozen=True)
class FanReport:
    ok: bool
    violations: tuple = ()


def _pair_view(c, mask, supports):
    """What the pair stage of :func:`verify_fan` reads of a pointed cone
    ``c`` in the orthant whose rays are the bits of ``mask`` over a sorted
    ray list, ``supports`` holding the bitmask of each listed ray's
    nonzero coordinates: (``c``, each ray's bit with its support, the
    union of those supports). Computed once per maximal cone and call."""
    pairs = [(1 << j, supports[j]) for j in _bits(mask)]
    return c, pairs, _union(pairs)


def _union(pairs):
    """The union of the support masks of ``pairs``, (bit, support)."""
    union = 0
    for _, m in pairs:
        union |= m
    return union


def _meet_in_common_face(c1, rays1, c2, rays2):
    """Whether two pointed cones ``c1`` and ``c2``, with ray sets ``rays1``
    and ``rays2``, meet in a common face. A ray r meets a cone in r or in
    the origin. Otherwise their intersection is tested as a tight-set
    closure on each cone's row masks."""
    if len(rays1) > len(rays2):
        c1, rays1, c2, rays2 = c2, rays2, c1, rays1
    if not rays1:
        return True
    if len(rays1) == 1:
        (r,) = rays1
        return r in rays2 or not c2.contains(r)
    inter = intersect_cones(c1, c2).rays()
    return all(_is_closure(inter, c.rays(), _facet_row_masks(c)) for c in (c1, c2))


def _meet_on_common_support(rays, view1, view2):
    """:func:`_meet_in_common_face` for two pointed cones in the orthant,
    given by their :func:`_pair_view` over the sorted ``rays``. It is
    decided on G1 and G2, the faces spanned by the rays whose supports lie
    in S, the cones' common support, since the cones meet where G1 and G2
    do; the cut is repeated on G1 and G2 until it keeps every ray, and
    faces with the same rays are one cone, a face of both (see
    :func:`verify_fan`). A cone on one ray whose support leaves the other
    cone's is settled by the first cut."""
    c1, supports1, union1 = view1
    c2, supports2, union2 = view2
    s = union1 & union2
    if s != union1 and len(supports1) == 1 or s != union2 and len(supports2) == 1:
        return True
    while True:
        g1 = [(b, m) for b, m in supports1 if m | s == s]
        if not g1:
            return True
        g2 = [(b, m) for b, m in supports2 if m | s == s]
        if not g2 or len(g1) == len(g2) == 1:
            # G1 or G2 is the origin, or two rays meet in a ray or the origin
            return True
        cut = _union(g1) & _union(g2)
        if cut == s:
            break
        supports1, supports2, s = g1, g2, cut
    if g1 == g2:
        return True
    return _meet_in_common_face(c1, _rays_of(rays, sum(b for b, _ in g1)),
                                c2, _rays_of(rays, sum(b for b, _ in g2)))


def _pair_stage(rays, maximal):
    """The third stage of :func:`verify_fan`: the violations among the
    maximal cones ``maximal``, (mask over the sorted ``rays``, cone) pairs
    in the fan's order. The support of each ray is computed once."""
    supports = [sum(1 << k for k, x in enumerate(r) if x) for r in rays]
    views = [_pair_view(c, m, supports) for m, c in maximal]
    wide = [j for j, v in enumerate(views) if len(v[1]) > 1]
    violations = []
    # a cone with at most one ray is paired with the wide cones only
    for i, v in enumerate(views):
        for j in (range(i + 1, len(views)) if len(v[1]) > 1 else wide):
            if j > i and not _meet_on_common_support(rays, v, views[j]):
                violations.append(
                    f"intersection of {canonical_key(v[0])} and "
                    f"{canonical_key(views[j][0])} is not a common face")
    return FanReport(not violations, tuple(violations))


def _missing_faces(index):
    """The violations of the second stage of :func:`verify_fan` on a fan's
    ``index``: for each cone, in the fan's order, with a facet that is
    not a cone of the fan, every face of it that is not, in (ray count,
    rays) order. A cone's faces are the tight-set closures of the row
    masks, over the fan's rays, of the catalog cone whose witness it
    takes: a face keeps its catalog cone's rows."""
    rays, facets = index.rays, index.facets
    on_row = _RowMasks(rays)
    violations = []
    for m in index.ordered(facets):
        if all(t in facets for t in facets[m]):
            continue
        c = index.catalog[index.top[m]][0]
        lattice = _face_masks(m, [on_row[q] for q in c.inequalities])
        missing = sorted(lattice.difference(facets),
                         key=lambda s: (s.bit_count(), _bits(s)))
        key = ((), _rays_of(rays, m))  # a pointed cone's key
        violations += [f"face {((), _rays_of(rays, s))} of {key} missing" for s in missing]
    return violations


def verify_fan(fan: Fan) -> FanReport:
    """Check the fan axioms in three stages: cones are pointed and sit in
    the non-negative orthant, every face of every cone belongs to the fan,
    and any two cones intersect in a common face. Reports every violation
    of the first stage that has any; later stages need the earlier ones
    (faces are taken of pointed cones only).

    The second stage checks only that each cone's facets are in the fan.
    Every proper face of a pointed cone is a face of one of its facets,
    which has a lower dimension, so by induction over dimension every face
    of every cone then is. For a cone with a missing facet the report
    names every missing face of it, in (ray count, rays) order, from its
    whole face lattice (:func:`_missing_faces`).

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
    The pair stage reads each cone as a mask over the fan's sorted rays;
    the support of each ray is computed once per call, a cone's supports
    are ORs of its rays', and its row masks are computed only for a pair
    that reaches an intersection. Violations are reported in the order of
    the pairs' positions in the fan's order.

    Every fan is checked on its index (:class:`_Closure`), as one path:
    pointedness on its catalog cones, the orthant once per distinct ray,
    and the facets it holds for each cone, which :func:`build_fan`
    recorded, so a fan from it lists none anew and builds no view of its
    cones. Only should the first stage fail are the cones read one by one,
    to name every violation."""
    index = fan._index()
    rays, catalog, facets = index.rays, index.catalog, index.facets
    if (not all(c.is_pointed() for c, _ in catalog.values())
            or any(min(r) < 0 for r in rays)):
        violations = []
        for c in fan.cones:
            if not c.is_pointed():
                violations.append(f"cone {canonical_key(c)} not pointed")
            elif any(x < 0 for r in c.rays() for x in r):
                violations.append(f"cone {canonical_key(c)} leaves the orthant")
        return FanReport(False, tuple(violations))
    proper = set().union(*facets.values())
    if not proper <= facets.keys():
        return FanReport(False, tuple(_missing_faces(index)))
    # a cone is maximal when it is no cone's facet
    return _pair_stage(rays, [(m, catalog[m][0])
                              for m in index.ordered(facets.keys() - proper)])


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
    maximal = [(c, w) for c, w in fan._maximal() if c.dim() >= 1]
    D = lcm(*(sum(r) for c, _ in maximal for r in c.rays()))

    def scaled(r):
        return tuple(x * (D // sum(r)) for x in r)

    cells = []
    for c, w in maximal:
        cdim = c.dim()
        verts = c.rays()
        if cdim == 3:
            verts = _facet_cycle(c, min(verts, key=scaled))
        cells.append(SliceCell(cdim - 1, verts, tuple(w.flows().items())))
    cells.sort(key=lambda cell: (cell.dim, tuple(map(scaled, cell.vertices))))
    return SliceDescription(d, fan.edge_order, tuple(cells))
