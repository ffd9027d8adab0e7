"""Integer weightings (flows) on a leg-weighted graph.

A weighting assigns an integer to every half-edge so that opposite halves
cancel and every vertex balances the twist times its canonical degree:

    w(h) + w(h') = 0                 for non-leg pairs {h, h'},
    sum_{end(h)=v} w(h) + k*kappa(v) = 0   at every vertex v,

with prescribed values on legs. The *flow* of an edge is the value carried
by the target half of its canonical orientation; "flow a from u to v"
means the half at v carries +a. For a directed edge the value on its
source half is what enters every cone constraint downstream.

Since opposite halves cancel, a weighting is also a list with one value
per edge position, that of the edge's canonical source half. The
positive-cycle search and :class:`FlowCore`, whose
:meth:`~FlowCore.acyclic_coefficients` gives the catalog its weightings
without a positive cycle and whose :meth:`~FlowCore.rays` reads a
weighting's cone off the directed bonds of the digraph it orients, run
on such lists; the public functions keep half-edge dicts.
"""

from dataclasses import dataclass, field
from math import lcm

from .cones import Cone, _unit_rows
from .errors import BudgetExceeded, FlowFanError, MissingHalfEdge
from .graph import Graph, Cycle, _spanning_forest, canonical_degree, cycle_basis


@dataclass(frozen=True)
class Weighting:
    graph: Graph
    values: dict  # half-edge id -> int

    def flow(self, e):
        """Flow along the canonical orientation of edge ``e``."""
        return self.values[self.graph.involution[e]]

    def flows(self):
        return {e: self.flow(e) for e in self.graph.edges()}

    def max_abs(self):
        return max((abs(x) for x in self.values.values()), default=0)


def is_weighting(g: Graph, candidate):
    """Check the two weighting conditions and the prescribed leg values.

    ``candidate`` is a Weighting or a dict of half-edge values covering all
    half-edges (raises MissingHalfEdge otherwise). Returns (ok, defects)
    where defects maps each vertex to sum_{h at v} w(h) + k*kappa(v); this
    is the per-component degree the flow leaves uncancelled, so a valid
    weighting has an identically zero defect vector.
    """
    values = candidate.values if isinstance(candidate, Weighting) else candidate
    for h in g.end:
        if h not in values:
            raise MissingHalfEdge(h)
    ok = True
    for h in g.end:
        p = g.involution[h]
        if p != h and values[h] + values[p] != 0:
            ok = False
        if p == h and values[h] != g.leg_weights[h]:
            ok = False
    defects = {}
    for v in g.vertices():
        d = sum(values[h] for h in g.halves_at(v)) + g.twist * canonical_degree(g, v)
        defects[v] = d
        if d != 0:
            ok = False
    return ok, defects


def _complete_values(g: Graph, free_edges, fixed):
    """Extend ``fixed`` half-edge values over ``free_edges`` so every vertex
    balances. Free edges off the spanning forest of the free subgraph
    (:func:`~flowfan.graph._spanning_forest`) get zero flow; forest flows
    are solved leaf-first, each vertex's half toward its parent carrying
    whatever balances the vertex. Existence relies on each free component's
    fixed part summing to the right demands. The free halves follow the
    fixed ones in edge order, so the key order of the result does not
    depend on how ``free_edges`` iterates.
    """
    values = dict(fixed)
    free = set(free_edges)
    for e in g.index.edges:
        if e in free:
            values[e] = 0
            values[g.involution[e]] = 0
    order, _, parent = _spanning_forest(g, free)
    # children and non-tree halves are already set when a vertex is solved
    for v in reversed(order):
        h = parent.get(v)
        if h is None:
            continue
        residue = -g.twist * canonical_degree(g, v) - sum(
            values[x] for x in g.halves_at(v) if x != h)
        values[h] = residue
        values[g.involution[h]] = -residue
    return values


def base_weighting(g: Graph) -> Weighting:
    """Deterministic valid weighting: zero flow off the spanning forest
    that :func:`~flowfan.graph.cycle_basis` uses, forest flows solved from
    the per-vertex demands."""
    fixed = {h: g.leg_weights[h] for h in g.end if g.is_leg(h)}
    values = _complete_values(g, g.edges(), fixed)
    w = Weighting(g, values)
    ok, defects = is_weighting(g, w)
    if not ok:
        raise FlowFanError(f"base weighting failed to balance: {defects}")
    return w


def shift_by_cycles(g: Graph, w: Weighting, coeffs) -> Weighting:
    """Act by the cycle space: add ``coeffs[i]`` units of circulation along
    the i-th cycle of ``cycle_basis(g)``, which the graph caches. The flow
    difference equals the integer combination of the basis incidence
    vectors."""
    basis = cycle_basis(g)
    if len(coeffs) != len(basis):
        raise ValueError(f"expected {len(basis)} coefficients, got {len(coeffs)}")
    values = dict(w.values)
    for c, cyc in zip(coeffs, basis):
        if c == 0:
            continue
        for h in cyc.halves:
            values[h] -= c
            values[g.involution[h]] += c
    return Weighting(g, values)


def shift_along_cycle(g: Graph, w: Weighting, cyc: Cycle, amount: int) -> Weighting:
    """Add ``amount`` units of circulation along one explicit directed cycle."""
    values = dict(w.values)
    for h in cyc.halves:
        values[h] -= amount
        values[g.involution[h]] += amount
    return Weighting(g, values)


def restrict_weighting(g: Graph, w: Weighting, contraction) -> Weighting:
    """Carry a weighting over to a contracted graph (values on surviving
    half-edges are kept; balance follows from additivity of the canonical
    degree)."""
    gc = contraction.contracted
    values = {h: w.values[h] for h in gc.end}
    return Weighting(gc, values)


def lift_weighting(g: Graph, contraction, w_small: Weighting) -> Weighting:
    """Right inverse of :func:`restrict_weighting`: extend a weighting of the
    contracted graph over the contracted edges (zero flow off a spanning
    tree of each contracted component)."""
    values = _complete_values(g, contraction.contracted_set, w_small.values)
    return Weighting(g, values)


def _edge_values(g: Graph, values):
    """A weighting's half-edge values as the list of its source-half
    values in edge order (see :class:`~flowfan.graph.GraphIndex`)."""
    return [values[e] for e in g.index.edges]


def _positive_cycle(index, x):
    """A directed cycle whose halves all carry positive values, as a list
    of (edge position, sign) pairs, or None; ``x`` holds one source-half
    value per edge position.

    One DFS over the digraph with an arc for each half of positive value
    ``sign * x[edge]``. Trees start from the vertices in index order and
    read arcs in ``index.arcs`` order; the first arc back to a vertex on
    the current path closes the cycle, which is the path from that vertex
    plus the arc (a loop closes at once).
    """
    arcs = index.arcs
    depth = [-1] * len(arcs)  # -1 new, -2 done, else position on the path
    for v0 in range(len(arcs)):
        if depth[v0] != -1:
            continue
        depth[v0] = 0
        path = []  # arc k leads from the vertex at depth k to depth k + 1
        stack = [(v0, iter(arcs[v0]))]
        while stack:
            v, it = stack[-1]
            for i, s, t in it:
                if s * x[i] > 0:
                    d = depth[t]
                    if d >= 0:
                        return path[d:] + [(i, s)]
                    if d == -1:
                        depth[t] = len(stack)
                        path.append((i, s))
                        stack.append((t, iter(arcs[t])))
                        break
            else:
                stack.pop()
                depth[v] = -2
                if path:
                    path.pop()
    return None


def find_positive_cycle(g: Graph, w: Weighting):
    """A directed cycle along which the weighting is strictly positive on
    every source half, or None. Such a cycle forces its edge coordinates to
    vanish on the whole compatibility cone."""
    arcs = _positive_cycle(g.index, _edge_values(g, w.values))
    if arcs is None:
        return None
    edges = g.index.edges
    halves = tuple(edges[i] if s > 0 else g.involution[edges[i]] for i, s in arcs)
    return Cycle(halves).canonical(g)


def has_positive_cycle(g: Graph, values) -> bool:
    """Whether the weighting with these half-edge values has a positive
    cycle. Only the canonical source halves are read: the other half of
    an edge carries the opposite value in any weighting."""
    return _positive_cycle(g.index, _edge_values(g, values)) is not None


# the most vertices of G/Z whose vertex sets FlowCore._orientation
# searches; past it, the orientation's bonds come from double description
BOND_VERTEX_LIMIT = 12

# the most coefficient values FlowCore.acyclic_coefficients lists
FLOW_LIMIT = 1_000_000


def _bond_sides(succ, pred):
    """The directed bonds of a connected digraph on vertices 0..k-1, given
    by bit masks: ``succ[v]`` holds the heads of the arcs leaving v and
    ``pred[v]`` the tails of the arcs entering it.

    Returns the side containing vertex 0 of each bond, as a bit mask, in
    increasing order. A vertex set U and its complement W cut out a
    directed bond when both are connected and no two arcs cross the cut
    in opposite directions. Visits the 2^(k-1) - 1 proper sets U holding
    vertex 0; the arcs leaving and entering every vertex set are built up
    one vertex at a time, so each set costs a few bit operations plus the
    connectivity walks of the sets that pass the direction test.

    On two vertices the one cut is a bond unless arcs cross it both ways,
    so that case is read off ``succ[0]`` and ``pred[0]`` directly.
    """
    k = len(succ)
    if k == 2:
        return [] if succ[0] and pred[0] else [1]
    full = (1 << k) - 1
    out_of = [0] * (full + 1)
    into = [0] * (full + 1)
    for m in range(1, full + 1):
        low = m & -m
        v = low.bit_length() - 1
        out_of[m] = out_of[m ^ low] | succ[v]
        into[m] = into[m ^ low] | pred[v]

    def connected(m):
        reach = m & -m
        while True:
            grown = reach | (out_of[reach] | into[reach]) & m
            if grown == reach:
                return reach == m
            reach = grown

    sides = []
    for U in range(1, full, 2):
        W = full ^ U
        if out_of[U] & W and into[U] & W:
            continue
        if connected(U) and connected(W):
            sides.append(U)
    return sides


@dataclass(frozen=True)
class FlowCore:
    """The coset ``base_weighting(g)`` + cycle space on integer arrays.

    A flow is a list ``x`` of source-half values in edge order. ``base`` is
    the base weighting as such a list and ``cycles`` holds each basis cycle
    of :func:`~flowfan.graph.cycle_basis` as the (edge position, sign)
    pairs of its halves, so shifting by the basis is a list add, the
    cycle rows of a flow are a gather and the positive-cycle test is
    :func:`_positive_cycle` on the list. ``bound`` is ``flow_bound(g)``.

    What depends only on a flow's orientation is worked out once per
    graph. ``bonds`` maps each sign pattern that :meth:`rays` has met to
    the rays and directed bonds of the digraph it orients, found once,
    from the pattern alone, off the index's ``ends``, each edge's source
    and target vertex positions; past ``BOND_VERTEX_LIMIT`` vertices of
    G/Z too. ``template`` lists each half of the base weighting,
    in its key order, as (half, sign, edge position), a leg as (half, its
    weight, ``len(base)``), so :meth:`weighting` is one gather. A
    :class:`Weighting` is built only when one is asked for.
    """

    graph: Graph
    base: tuple
    cycles: tuple
    bound: int
    template: tuple
    bonds: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(cls, g: Graph, bound=None):
        """The core of ``g``; ``bound`` is ``flow_bound(g)`` when the
        caller has it already."""
        w = base_weighting(g)
        index = g.index
        cycles = tuple(tuple((index.edge_pos[h], index.sign[h]) for h in cyc.halves)
                       for cyc in cycle_basis(g))
        n = len(index.edges)
        template = tuple((h, index.sign[h], index.edge_pos[h]) if h in index.edge_pos
                         else (h, v, n) for h, v in w.values.items())
        return cls(g, tuple(_edge_values(g, w.values)), cycles,
                   flow_bound(g) if bound is None else bound, template)

    def shifted(self, coeffs):
        """The flow ``shift_by_cycles(g, base, coeffs)`` as a list."""
        x = list(self.base)
        for c, cyc in zip(coeffs, self.cycles):
            if c:
                for i, s in cyc:
                    x[i] -= c * s
        return x

    def rows(self, x):
        """The rows of :func:`~flowfan.cones.cycle_constraint_rows` over
        the basis: each basis half's value at its edge position."""
        n = len(x)
        out = []
        for cyc in self.cycles:
            row = [0] * n
            for i, s in cyc:
                row[i] = s * x[i]
            out.append(tuple(row))
        return out

    def rays(self, x):
        """The sorted primitive extreme rays of the cone of flow ``x``, the
        cone of :func:`~flowfan.cones.cone_of_weighting`.

        A vector ``t >= 0`` lies in the cone when ``(x_e t_e)`` sums to
        zero around every cycle, that is when it is a tension: the
        differences of a vertex potential. Let Z be the edges of zero flow.
        The coordinates on Z are free, so the cone is the orthant on Z
        times the cone on the other edges, where the tension is zero on Z
        and so a tension of G/Z. Orient each edge of G/Z along its flow,
        from the end whose half carries the positive value, as
        :func:`_positive_cycle` reads it; then ``|x_e| t_e`` ranges over
        the nonnegative tensions of that digraph. Their extreme rays are
        the digraph's directed bonds, its cuts between two connected
        vertex sets crossed by every arc in the same direction
        (Rockafellar, "The elementary vectors of a subspace of R^N", 1969;
        Bjoerner, Las Vergnas, Sturmfels, White and Ziegler, *Oriented
        Matroids*, 1999). So the rays are the unit vector of
        each edge in Z and, for each directed bond, the vector with
        ``L / |x_e|`` on its edges and zero elsewhere, where L is the lcm
        of those ``|x_e|``; its entries have gcd 1. An edge on a directed
        cycle of G/Z, a loop of G/Z among them, lies in no directed bond
        and is zero on the whole cone.

        Z, G/Z, its orientation and so its directed bonds depend only on
        the sign of each ``x_e``, and a bond of one edge is that edge's
        unit vector. So each orientation is solved once, from its sign
        pattern (:meth:`_orientation`), and kept in ``bonds`` under that
        pattern, past ``BOND_VERTEX_LIMIT`` vertices of G/Z too; every
        flow computes only L and the entries of its bonds of two or more
        edges.
        """
        signs = tuple([(v > 0) - (v < 0) for v in x])
        try:
            fixed, wide = self.bonds[signs]
        except KeyError:
            fixed, wide = self.bonds[signs] = self._orientation(signs)
        if not wide:
            return fixed
        out = list(fixed)
        for bond in wide:
            size = [abs(x[i]) for i in bond]
            L = lcm(*size)
            ray = [0] * len(x)
            for i, v in zip(bond, size):
                ray[i] = L // v
            out.append(tuple(ray))
        out.sort()
        return tuple(out)

    def _orientation(self, signs):
        """The entry of ``bonds`` for a sign pattern: the sorted rays every
        flow of that pattern has, the unit vectors of its zero edges and
        of its bonds of one edge, and its other directed bonds as tuples
        of edge positions.

        The vertices of G/Z are the components of Z, numbered in the order
        of their first vertex. Up to ``BOND_VERTEX_LIMIT`` of them,
        :func:`_bond_sides` searches their vertex sets, 2^(k-1) of them
        for k components. Past it, that search is too large, and one
        :meth:`~flowfan.cones.Cone.orthant_section` over ``rows(signs)``,
        double description from the orthant, solves the cone of the signs
        taken as a flow. By :meth:`rays` with every ``|x_e| = 1``, its
        rays are 0/1 vectors, one per zero edge and one per directed bond,
        so their supports are the same bonds."""
        index = self.graph.index
        arcs = index.arcs
        label = [-1] * len(arcs)
        k = 0
        for v0 in range(len(arcs)):
            if label[v0] < 0:
                label[v0] = k
                stack = [v0]
                while stack:
                    for i, _, t in arcs[stack.pop()]:
                        if not signs[i] and label[t] < 0:
                            label[t] = k
                            stack.append(t)
                k += 1
        if k > BOND_VERTEX_LIMIT:
            cone = Cone.orthant_section(len(signs), self.rows(signs))
            supports = [tuple(i for i, v in enumerate(r) if v) for r in cone.rays()]
        else:
            supports = [(i,) for i, v in enumerate(signs) if not v]
            succ, pred = [0] * k, [0] * k
            cut = []  # (edge position, tail, head) across components
            for i, (a, b) in enumerate(index.ends):
                a, b = label[a], label[b]
                if a != b:
                    if signs[i] < 0:
                        a, b = b, a
                    succ[a] |= 1 << b
                    pred[b] |= 1 << a
                    cut.append((i, a, b))
            if k > 1:
                supports += [tuple(i for i, a, b in cut if (U >> a ^ U >> b) & 1)
                             for U in _bond_sides(succ, pred)]
        units = _unit_rows(len(signs))
        return (tuple(sorted(units[s[0]] for s in supports if len(s) == 1)),
                tuple(s for s in supports if len(s) > 1))

    def acyclic_coefficients(self):
        """Every coefficient vector ``c`` whose flow ``shifted(c)`` has no
        positive cycle, in graded lexicographic order ``(sum |c_i|, c)``.

        All of them lie in the box ``max |c_i| <= S = flow_bound(g)`` (see
        :func:`flow_bound`), which is searched depth first, one
        coefficient at a time. Each edge value is the base value minus
        ``s * c_j`` for every basis cycle ``j`` crossing the edge with sign
        ``s``, so once some coefficients are fixed it lies within
        ``S * (free cycles through the edge)`` of its partial value. A
        prefix is cut when some edge's interval misses ``[-S, S]``, where
        every edge of an acyclic flow stays, or when the arcs whose sign
        the intervals already settle hold a positive cycle. Along one
        coefficient each edge value has slope -1, 0 or 1, so which arcs
        are settled, and their signs, change only at a few integer
        breakpoints, and one :func:`_positive_cycle` call decides each run
        of values between them. On the last coefficient nothing is left
        free, and the settled arcs are those of the flow itself.

        A prefix is also cut by volume, once ``sum |c_j|`` exceeds
        ``S * (|V| - 1)``. An acyclic flow splits into source-to-sink
        paths of total value S, and all paths through an edge cross it
        the same way (see :func:`flow_bound`). Each path is simple, so it
        has at most ``|V| - 1`` edges, and the absolute edge values sum to
        at most ``S * (|V| - 1)``. The non-tree edge of basis cycle j
        carries ``+-c_j``, these edges are distinct, and so ``sum |c_j|``
        is at most that volume; each coefficient is searched only within
        what the prefix leaves of it.

        The search counts the coefficient values it keeps, on every level;
        those on the last level are the flows. Before a run of values is
        listed that would take the count above ``FLOW_LIMIT``, it raises
        ``BudgetExceeded``, so huge leg weights are refused, not listed.
        """
        index = self.graph.index
        cycles = self.cycles
        h = len(cycles)
        if h == 0:
            return [()]  # a forest has no cycle
        S = self.bound
        volume = S * (len(index.vertices) - 1)
        # free[k][i]: the basis cycles after cycle k through edge i
        after = [0] * len(self.base)
        free = [after]
        for cyc in cycles[:0:-1]:
            after = list(after)
            for i, _ in cyc:
                after[i] += 1
            free.append(after)
        free.reverse()
        out = []
        listed = 0

        def shift(x, cyc, c):
            y = list(x)
            for i, s in cyc:
                y[i] -= s * c
            return y

        # depth first, one coefficient per level, from an explicit stack of
        # (level, prefix, parent flow, value, room), children pushed in
        # reverse so they are taken in order; a self-recursive closure
        # would be a reference cycle, holding the graph's index until the
        # cyclic collector runs
        stack = [(0, (), self.base, 0, volume)]
        while stack:
            k, prefix, x, value, room = stack.pop()
            if k:
                x = shift(x, cycles[k - 1], value)
            cyc, fr = cycles[k], free[k]
            last = k == h - 1
            # on (i, s) the value is s * (p - c), p = s * x[i], and the free
            # cycles move it by at most r: it can reach [-S, S] only for
            # |p - c| <= r + S, and its sign is settled for |p - c| > r
            lo, hi, cuts = -min(S, room), min(S, room), set()
            for i, s in cyc:
                p, r = s * x[i], S * fr[i]
                lo, hi = max(lo, p - r - S), min(hi, p + r + S)
                cuts.update((p - r, p + r + 1))
            if lo > hi:
                continue
            starts = [lo] + sorted(c for c in cuts if lo < c <= hi)
            kept = []
            for a, b in zip(starts, starts[1:] + [hi + 1]):
                y = shift(x, cyc, a)
                if not last:
                    y = [v if abs(v) > S * f else 0 for v, f in zip(y, fr)]
                if _positive_cycle(index, y) is None:
                    listed += b - a
                    if listed > FLOW_LIMIT:
                        raise BudgetExceeded(
                            "acyclic_coefficients: coefficient values listed",
                            listed, FLOW_LIMIT)
                    kept.extend(range(a, b))
            if last:
                out.extend(prefix + (c,) for c in kept)
            else:
                stack.extend((k + 1, prefix + (c,), x, c, room - abs(c))
                             for c in reversed(kept))
        out.sort(key=lambda c: (sum(map(abs, c)), c))
        return out

    def weighting(self, x):
        """The :class:`Weighting` of flow ``x``, keys in the base's order,
        filled in from ``template``."""
        y = [*x, 1]  # a leg's entry is its weight times this last 1
        return Weighting(self.graph, {h: s * y[i] for h, s, i in self.template})


def enumeration_bound(g: Graph, w: Weighting) -> int:
    """The paper's proved box bound N = m * phi(h): every weighting
    differing from ``w`` by a cycle-space vector of sup norm above N admits
    a positive cycle. Here m is the largest absolute half-edge value, h the
    first Betti number, and phi(0) = 1, phi(n) = sum_{j<n} phi(j).

    The catalog's enumeration rests on :func:`flow_bound` instead; the
    oracle walks its unpruned box at this bound on purpose, so that it
    checks the engine with an independent one."""
    h = len(g.edges()) - len(g.genus_of) + 1
    phi = [1]
    for n in range(1, h + 1):
        phi.append(sum(phi))
    return w.max_abs() * phi[h]


def flow_bound(g: Graph) -> int:
    """Half the total vertex demand, S = 1/2 * sum_v |d(v)| with
    d(v) = sum of the legs at v + k*kappa(v).

    Every weighting ``shift_by_cycles(g, base_weighting(g), c)`` without a
    positive cycle has ``max |c_i| <= S``:

    * With no positive cycle the weighting is an acyclic flow: each
      positively valued non-leg half h is an arc from its source to its
      target carrying w(h), and these arcs form a DAG, since a directed
      cycle of them (a loop with a nonzero value is one) would be a
      positive cycle.
    * The non-leg halves at v sum to -d(v), so the net outflow of that
      flow at v is -d(v); the d(v) sum to zero because the legs sum to
      -k*(2g - 2). Flow decomposition (Ahuja, Magnanti and Orlin, *Network
      Flows*, 1993, section 3.5) splits an acyclic flow into
      source-to-sink paths of total value S, and each path uses an arc at
      most once, so every non-leg half carries at most S in absolute value.
    * ``base_weighting`` and ``cycle_basis`` share one spanning forest,
      ``graph._spanning_forest`` over all edges, and ``base_weighting`` is
      zero off it by construction. Basis cycle i is the only basis cycle
      through its non-tree edge e_i and crosses it once, so the value on
      e_i is +-c_i and |c_i| <= S.

    The bound is linear in the legs and the twist, where
    :func:`enumeration_bound` grows exponentially in the first Betti
    number; neither is below the other on every graph.
    """
    return sum(map(abs, _vertex_demands(g))) // 2


def _vertex_demands(g: Graph):
    """The demand d(v) = sum of the legs at v + k*kappa(v) of each vertex,
    in index order: minus what the non-leg halves at v carry in any
    weighting."""
    return [sum(g.leg_weights[h] for h in g.index.halves_at.get(v, ()) if g.is_leg(h))
            + g.twist * canonical_degree(g, v) for v in g.index.vertices]
