import random
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from flowfan import (BudgetExceeded, Cycle, FlowFanError, Graph, MissingHalfEdge,
                     Weighting, base_weighting, cone_catalog, contract,
                     cycle_basis, enumerate_cycles,
                     enumeration_bound, find_positive_cycle, flow_bound,
                     graph_genus, is_weighting, lift_weighting, restrict_weighting,
                     shift_by_cycles, validate_graph)
from flowfan.graph import _spanning_forest
from flowfan.linalg import solve_left
from flowfan import weightings
from flowfan.cones import Cone, canonical_key, cone_of_weighting, cycle_constraint_rows
from flowfan.weightings import FlowCore, _positive_cycle, has_positive_cycle

from helpers import (banana, box_radius, box_vectors, complete_graph, corpus,
                     ladder, loop_graph, necklace, one_edge_genus1, path_graph,
                     ref_positive_cycle_halves, ring, span_rule_holds, two_gon)


def flows_weighting(g, flows):
    """Weighting from a flow per edge (target half carries the flow)."""
    values = {h: g.leg_weights[h] for h in g.end if g.is_leg(h)}
    for e, f in flows.items():
        values[g.involution[e]] = f
        values[e] = -f
    return Weighting(g, values)


def test_is_weighting_two_gon():
    g = two_gon(3)
    w = flows_weighting(g, {("e1", 0): 2, ("e2", 0): 1})
    ok, defects = is_weighting(g, w)
    assert ok
    assert defects == {"u": 0, "v": 0}


def test_is_weighting_bad_flows():
    g = two_gon(3)
    w = flows_weighting(g, {("e1", 0): 2, ("e2", 0): 2})
    ok, defects = is_weighting(g, w)
    assert not ok
    assert defects["u"] != 0 and defects["v"] != 0
    assert sum(defects.values()) == 0


def test_is_weighting_twisted_edge():
    g = one_edge_genus1()
    w = base_weighting(g)
    assert w.values[("e1", 0)] == 1
    ok, defects = is_weighting(g, w)
    assert ok and set(defects.values()) == {0}


def test_is_weighting_missing_half():
    g = two_gon(3)
    with pytest.raises(MissingHalfEdge):
        is_weighting(g, {("e1", 0): 0})


def test_base_weighting_examples():
    g = two_gon(3)
    assert base_weighting(g).flows() == {("e1", 0): 3, ("e2", 0): 0}
    gl = loop_graph(genus=1)
    assert set(base_weighting(gl).values.values()) == {0}
    g1 = one_edge_genus1()
    assert base_weighting(g1).flows() == {("e1", 0): -1}


def test_base_weighting_valid_on_corpus():
    for g in corpus(40, seed=5):
        ok, _ = is_weighting(g, base_weighting(g))
        assert ok


def test_base_weighting_rejects_unbalanced_values(monkeypatch):
    complete = weightings._complete_values

    def unbalanced(g, free_edges, fixed):
        values = complete(g, free_edges, fixed)
        values[("e1", 0)] += 1
        return values

    monkeypatch.setattr(weightings, "_complete_values", unbalanced)
    with pytest.raises(FlowFanError, match="failed to balance"):
        base_weighting(two_gon(3))


def test_shift_identity():
    g = two_gon(3)
    w = base_weighting(g)
    assert shift_by_cycles(g, w, [0]).values == w.values


def test_shift_two_gon():
    g = two_gon(3)
    w = base_weighting(g)  # flows (3, 0)
    w2 = shift_by_cycles(g, w, [1])
    assert w2.flows() == {("e1", 0): 2, ("e2", 0): 1}
    ok, _ = is_weighting(g, w2)
    assert ok


def test_shift_loop():
    g = loop_graph()
    w = base_weighting(g)
    w2 = shift_by_cycles(g, w, [5])
    assert abs(w2.flow(("e1", 0))) == 5
    ok, _ = is_weighting(g, w2)
    assert ok


def test_shift_matches_incidence():
    for g in corpus(25, seed=9):
        basis = cycle_basis(g)
        if not basis:
            continue
        rng = random.Random(17)
        coeffs = [rng.randint(-3, 3) for _ in basis]
        w = base_weighting(g)
        w2 = shift_by_cycles(g, w, coeffs)
        ok, _ = is_weighting(g, w2)
        assert ok
        edges = g.edges()
        diff = tuple(w2.flow(e) - w.flow(e) for e in edges)
        expect = [0] * len(edges)
        for c, cyc in zip(coeffs, basis):
            for i, x in enumerate(cyc.incidence_vector(g, edges)):
                expect[i] += c * x
        assert diff == tuple(expect)


def test_torsor_difference_is_integral_cycle():
    for g in corpus(25, seed=13):
        basis = cycle_basis(g)
        edges = g.edges()
        rng = random.Random(23)
        w1 = base_weighting(g)
        w2 = shift_by_cycles(g, w1, [rng.randint(-4, 4) for _ in basis])
        diff = tuple(w2.flow(e) - w1.flow(e) for e in edges)
        rows = [c.incidence_vector(g, edges) for c in basis]
        coeffs = solve_left(rows, diff)
        assert coeffs is not None
        assert all(x.denominator == 1 for x in coeffs)


def test_restrict_two_gon():
    g = two_gon(3)
    w = flows_weighting(g, {("e1", 0): 2, ("e2", 0): 1})
    res = contract(g, [("e1", 0)])
    wr = restrict_weighting(g, w, res)
    assert wr.flow(("e2", 0)) == 1
    ok, _ = is_weighting(res.contracted, wr)
    assert ok


def test_restrict_banana():
    g = banana(3, 10)
    w = flows_weighting(g, {("e1", 0): 3, ("e2", 0): 3, ("e3", 0): 4})
    res = contract(g, [("e1", 0)])
    wr = restrict_weighting(g, w, res)
    assert wr.flows() == {("e2", 0): 3, ("e3", 0): 4}
    ok, _ = is_weighting(res.contracted, wr)
    assert ok


def test_restrict_tree_edge():
    g = path_graph(2, leg_weights=(1, -1))
    w = base_weighting(g)
    res = contract(g, [("e0", 0)])
    wr = restrict_weighting(g, w, res)
    ok, _ = is_weighting(res.contracted, wr)
    assert ok


def test_restrict_commutes_with_shift():
    for g in corpus(20, seed=29):
        edges = g.edges()
        basis = cycle_basis(g)
        if not basis or len(edges) < 2:
            continue
        rng = random.Random(31)
        S = {edges[0]}
        res = contract(g, S)
        gc = res.contracted
        small_edges = gc.edges()
        small_basis = cycle_basis(gc)
        small_rows = [c.incidence_vector(gc, small_edges) for c in small_basis]
        # induced map on cycle spaces: each basis cycle of g restricts to a
        # closed walk of gc, decomposed over gc's basis
        induced = []
        for cyc in basis:
            inc = cyc.incidence(g)
            vec = tuple(inc.get(e, 0) for e in small_edges)
            coeffs = solve_left(small_rows, vec) if small_rows else ()
            if coeffs is None:
                coeffs = None
            induced.append(coeffs)
        if any(c is None for c in induced):
            continue
        coeffs = [rng.randint(-3, 3) for _ in basis]
        w = base_weighting(g)
        left = restrict_weighting(g, shift_by_cycles(g, w, coeffs), res)
        mapped = [sum(int(ind[j]) * coeffs[i]
                      for i, ind in enumerate(induced) for j in [jj])
                  for jj in range(len(small_basis))]
        right = shift_by_cycles(gc, restrict_weighting(g, w, res), mapped)
        assert left.values == right.values


def test_find_positive_cycle_examples():
    g = two_gon(3)
    assert find_positive_cycle(g, flows_weighting(g, {("e1", 0): 2, ("e2", 0): 1})) is None
    cyc = find_positive_cycle(g, flows_weighting(g, {("e1", 0): 4, ("e2", 0): -1}))
    assert cyc is not None
    w = flows_weighting(g, {("e1", 0): 4, ("e2", 0): -1})
    assert all(w.values[h] > 0 for h in cyc.halves)
    gl = loop_graph()
    wl = flows_weighting(gl, {("e1", 0): 5})
    loop = find_positive_cycle(gl, wl)
    assert loop is not None and len(loop.halves) == 1


def assert_closed_directed_cycle(g, cyc):
    n = len(cyc.halves)
    for i, h in enumerate(cyc.halves):
        assert g.target(h) == g.source(cyc.halves[(i + 1) % n])
    assert len({g.edge_of(h) for h in cyc.halves}) == n


def test_find_positive_cycle_loop_behind_bridge():
    # positive arcs lead across a bridge into a self-loop; the returned
    # cycle must be the loop alone, not the access path
    from flowfan import Graph
    g = Graph.build({"v0": 1, "v1": 1},
                    [("e0", "v0", "v1"), ("e1", "v1", "v1")],
                    [("l0", "v0", -2), ("l1", "v0", -2)], 1)
    w = Weighting(g, {("l0",): -2, ("l1",): -2,
                      ("e0", 0): 3, ("e0", 1): -3,
                      ("e1", 0): 4, ("e1", 1): -4})
    cyc = find_positive_cycle(g, w)
    assert cyc is not None
    assert_closed_directed_cycle(g, cyc)
    assert cyc.halves == (("e1", 0),)


def test_find_positive_cycle_is_closed_on_corpus():
    rng = random.Random(53)
    for g in corpus(30, seed=59):
        basis = cycle_basis(g)
        if not basis:
            continue
        w = base_weighting(g)
        N = enumeration_bound(g, w)
        shifted = shift_by_cycles(g, w, [rng.randint(N + 1, 2 * N + 1)
                                         for _ in basis])
        cyc = find_positive_cycle(g, shifted)
        assert cyc is not None
        assert_closed_directed_cycle(g, cyc)
        assert all(shifted.values[h] > 0 for h in cyc.halves)


def test_enumeration_bound_examples():
    g = two_gon(3)
    assert enumeration_bound(g, base_weighting(g)) == 3
    gt = path_graph(2, leg_weights=(4, -4))
    w = base_weighting(gt)
    assert enumeration_bound(gt, w) == w.max_abs()
    # phi(3) = 4, so three independent cycles with max value 2 give 8
    g3 = banana(4, 0)
    w3 = flows_weighting(g3, {e: f for e, f in zip(g3.edges(), (2, -1, 0, -1))})
    ok, _ = is_weighting(g3, w3)
    assert ok
    assert enumeration_bound(g3, w3) == 8


def test_beyond_bound_has_positive_cycle():
    rng = random.Random(41)
    checked = 0
    for g in corpus(30, seed=37):
        basis = cycle_basis(g)
        if not basis:
            continue
        w = base_weighting(g)
        N = enumeration_bound(g, w)
        if N == 0:
            continue
        for _ in range(5):
            coeffs = [rng.choice([-1, 1]) * rng.randint(N + 1, 2 * N)
                      for _ in basis]
            shifted = shift_by_cycles(g, w, coeffs)
            assert has_positive_cycle(g, shifted.values)
            checked += 1
    assert checked >= 50


def test_flow_bound_examples():
    assert flow_bound(two_gon(3)) == 3
    assert flow_bound(banana(3, 20)) == 20
    # a triangle whose demands (-4, 2, 2) come partly from the twist: the
    # legs and base flows stay at 2, so the paper's bound is the smaller
    g = Graph.build({"a": 0, "b": 1, "c": 1},
                    [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a")],
                    [("l0", "a", -2), ("l1", "a", -2)], 1)
    base = base_weighting(g)
    assert flow_bound(g) == 4
    assert enumeration_bound(g, base) == 2
    assert box_radius(g, base) == 2
    b = banana(4, 3)
    assert flow_bound(b) == 3 < enumeration_bound(b, base_weighting(b))


def test_beyond_box_radius_has_positive_cycle():
    # one coefficient beyond the catalog's radius is enough, whatever the
    # others are: the whole shell of sup norm radius + 1, then far vectors
    rng = random.Random(67)
    checked = 0
    for g in corpus():
        basis = cycle_basis(g)
        if not basis:
            continue
        w = base_weighting(g)
        r = box_radius(g, w)
        shell = [c for c in product(range(-r - 1, r + 2), repeat=len(basis))
                 if max(map(abs, c)) == r + 1]
        far = []
        for _ in range(5):
            c = [rng.randint(-3 * r - 3, 3 * r + 3) for _ in basis]
            c[rng.randrange(len(c))] = rng.choice([-1, 1]) * rng.randint(r + 1, 3 * r + 3)
            far.append(c)
        for c in shell + far:
            assert has_positive_cycle(g, shift_by_cycles(g, w, c).values), c
            checked += 1
    assert checked >= 1000


def test_base_weighting_zero_on_basis_non_tree_edges():
    # the flow bound on the box coefficients rests on this: basis cycle i
    # alone crosses its non-tree edge, once, where the base flow is zero
    checked = 0
    for g in corpus():
        basis = cycle_basis(g)
        _, _, parent = _spanning_forest(g)
        tree = {g.edge_of(h) for h in parent.values()}
        non_tree = [e for e in g.edges() if e not in tree]
        assert len(non_tree) == len(basis)
        base = base_weighting(g)
        for e, cyc in zip(non_tree, basis):
            assert base.flow(e) == 0
            assert cyc.edges(g).count(e) == 1
            assert all(e not in other.edge_set(g) for other in basis if other is not cyc)
            checked += 1
    assert checked >= 100


def test_lift_weighting_inverts_restrict():
    for g in corpus(20, seed=43):
        edges = g.edges()
        if not edges:
            continue
        S = {edges[0]}
        res = contract(g, S)
        w_small = base_weighting(res.contracted)
        w = lift_weighting(g, res, w_small)
        ok, _ = is_weighting(g, w)
        assert ok
        assert restrict_weighting(g, w, res).values == w_small.values


def _cycle_contractions():
    """(graph, contraction, base weighting, cycle basis) for every cycle
    of the corpus graphs, neck3x3 and K5, its edges contracted."""
    out = []
    for g in corpus() + [necklace(3, 3, 3), complete_graph((2, -2, 0, 0, 0))]:
        for cyc in enumerate_cycles(g):
            res = contract(g, frozenset(cyc.edges(g)))
            gc = res.contracted
            out.append((g, res, base_weighting(gc), cycle_basis(gc)))
    return out


CYCLE_CONTRACTIONS = _cycle_contractions()


@settings(deadline=None, derandomize=True, database=None, max_examples=10)
@given(st.data())
def test_restrict_undoes_lift_on_every_cycle(data):
    for g, res, base, basis in CYCLE_CONTRACTIONS:
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                                    max_size=len(basis)))
        w = shift_by_cycles(res.contracted, base, coeffs)
        assert restrict_weighting(g, lift_weighting(g, res, w), res) == w


# -- the integer-array flow core against the half-edge dict path -------------

CYCLIC_GRAPHS = [g for g in corpus() if cycle_basis(g)] + [
    banana(4, 3), loop_graph(legs=(3, -3)), loop_graph(genus=0, legs=(2, -2))]


@st.composite
def shifted_flows(draw):
    """(graph, flow core, coefficients): a corpus graph with cycles and a
    shift by up to a few units beyond the flow bound, so both acyclic and
    cyclic flows come up."""
    g = draw(st.sampled_from(CYCLIC_GRAPHS))
    core = FlowCore.build(g)
    r = flow_bound(g) + 2
    coeffs = draw(st.lists(st.integers(-r, r), min_size=len(core.cycles),
                           max_size=len(core.cycles)))
    return g, core, coeffs


FLOW_SETTINGS = settings(deadline=None, derandomize=True, database=None,
                         max_examples=400)


@FLOW_SETTINGS
@given(shifted_flows())
def test_array_positive_cycle_matches_dict_search(case):
    g, core, coeffs = case
    w = shift_by_cycles(g, base_weighting(g), coeffs)
    x = core.shifted(coeffs)
    assert x == [w.values[e] for e in g.edges()]
    ref = ref_positive_cycle_halves(g, w.values)
    assert (_positive_cycle(g.index, x) is None) == (ref is None)
    assert has_positive_cycle(g, w.values) == (ref is not None)
    cyc = find_positive_cycle(g, w)
    if ref is None:
        assert cyc is None
    else:
        assert cyc == Cycle(ref).canonical(g)
        assert all(w.values[h] > 0 for h in cyc.halves)


@FLOW_SETTINGS
@given(shifted_flows())
def test_flow_core_rows_and_witness_match_dict_path(case):
    g, core, coeffs = case
    basis = cycle_basis(g)
    w = shift_by_cycles(g, base_weighting(g), coeffs)
    x = core.shifted(coeffs)
    assert core.rows(x) == cycle_constraint_rows(g, w, basis)[1]
    # same values in the same key order as shift_by_cycles leaves them
    assert list(core.weighting(x).values.items()) == list(w.values.items())


# -- the catalog's acyclic-flow enumerator against the unpruned box ----------

def _box_survivors(g, core):
    """Reference: every point of the box at the smaller proved radius, in
    graded lexicographic order, kept when its flow has no positive cycle."""
    radius = box_radius(g, base_weighting(g))
    return [c for c in box_vectors(len(core.cycles), radius)
            if _positive_cycle(g.index, core.shifted(c)) is None]


def _with_contractions(graphs):
    """The graphs and every graph the catalog's contraction recursion
    reaches from them, each contracted edge set once."""
    out = []
    for g in graphs:
        seen = set()
        todo = [(g, frozenset())]
        while todo:
            h, done = todo.pop()
            out.append(h)
            for cyc in enumerate_cycles(h):
                key = done | frozenset(cyc.edges(h))
                if key not in seen:
                    seen.add(key)
                    todo.append((contract(h, key - done).contracted, key))
    return out


CORPUS_FAMILY = _with_contractions(corpus())
BOX_POINT_CAP = 20_000


@st.composite
def small_graphs(draw, min_betti=0, max_weight=8):
    """A connected graph on up to four vertices with first Betti number
    from ``min_betti`` to 3 (loops and parallel edges allowed), genera 0
    or 1, twist 0 or 1 and up to three legs of weight in
    [-max_weight, max_weight]."""
    nv = draw(st.integers(1, 4))
    genus_of = {f"v{i}": draw(st.integers(0, 1)) for i in range(nv)}
    ends = [(draw(st.integers(0, i - 1)), i) for i in range(1, nv)]
    ends += draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)),
                          min_size=min_betti, max_size=3))
    edges = [(f"e{j}", f"v{u}", f"v{v}") for j, (u, v) in enumerate(ends)]
    twist = draw(st.integers(0, 1))
    skeleton = Graph.build(genus_of, edges, [], twist)
    target = -twist * (2 * graph_genus(skeleton) - 2)
    head = draw(st.lists(st.integers(-max_weight, max_weight), max_size=2))
    tail = target - sum(head)
    assume(abs(tail) <= max_weight)
    legs = [(f"l{j}", f"v{draw(st.integers(0, nv - 1))}", w)
            for j, w in enumerate(head + [tail])]
    g = Graph.build(genus_of, edges, legs, twist)
    assert validate_graph(g).ok
    return g


@settings(deadline=None, derandomize=True, database=None, max_examples=400,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.one_of(st.sampled_from(CORPUS_FAMILY), small_graphs()))
def test_acyclic_coefficients_match_box_survivors(g):
    core = FlowCore.build(g)
    radius = box_radius(g, base_weighting(g))
    assume((2 * radius + 1) ** len(core.cycles) <= BOX_POINT_CAP)
    assert core.acyclic_coefficients() == _box_survivors(g, core)


@pytest.mark.parametrize("g", [banana(6, 5), banana(5, 10)])
def test_acyclic_coefficients_match_box_survivors_on_bananas(g):
    core = FlowCore.build(g)
    got = core.acyclic_coefficients()
    assert got == _box_survivors(g, core)
    assert got


@pytest.mark.parametrize("limit, estimate", [(8, 11), (12, 14), (24, 25)])
def test_acyclic_coefficients_refuse_in_depth_first_order(monkeypatch, limit,
                                                          estimate):
    # the search counts each run of kept values as it lists it, depth
    # first, each level's values in increasing order, and raises at the
    # first run past the limit: on banana(4,3) the count then stands at
    # the estimate; taking a level's values in decreasing order gives 9,
    # 13 and 27 instead
    core = FlowCore.build(banana(4, 3))
    monkeypatch.setattr(weightings, "FLOW_LIMIT", limit)
    with pytest.raises(BudgetExceeded) as info:
        core.acyclic_coefficients()
    assert (info.value.estimate, info.value.limit) == (estimate, limit)


def test_catalog_positive_cycle_calls_on_banana(monkeypatch):
    # the box at radius 5 makes 161,108 calls over banana(6,5)'s recursion
    calls = []

    def counted(index, x):
        calls.append(1)
        return _positive_cycle(index, x)

    monkeypatch.setattr(weightings, "_positive_cycle", counted)
    assert len(cone_catalog(banana(6, 5))) == 63
    assert 0 < len(calls) <= 20_000


def test_catalog_positive_cycle_calls_on_banana_8_10(monkeypatch):
    # the volume cut; without it the enumerator makes 1,485,042 calls
    calls = []

    def counted(index, x):
        calls.append(1)
        return _positive_cycle(index, x)

    monkeypatch.setattr(weightings, "_positive_cycle", counted)
    assert len(cone_catalog(banana(8, 10))) == 291
    assert 0 < len(calls) <= 100_000


# -- a flow's cone read off its directed bonds -------------------------------

def _dd_rays(core, x):
    return Cone.orthant_section(len(x), core.rows(x)).rays()


@st.composite
def any_flows(draw):
    """(flow core, x): a generated graph with first Betti number at most 3
    or a graph the corpus recursion reaches, and an integer edge vector
    that is zero on about half the edges, so that zero edges close
    directed cycles of G/Z and loops carry flow or none. The cone formula
    holds for any vector, acyclic or not."""
    g = draw(st.one_of(st.sampled_from(CORPUS_FAMILY), small_graphs()))
    core = FlowCore.build(g)
    x = draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 6)),
                      min_size=len(core.base), max_size=len(core.base)))
    return core, x


@settings(deadline=None, derandomize=True, database=None, max_examples=400,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(any_flows())
def test_bond_rays_match_orthant_section(case):
    core, x = case
    assert core.rays(x) == _dd_rays(core, x)


# graphs whose G/Z has more than BOND_VERTEX_LIMIT vertices for most sign
# patterns, so FlowCore.rays answers by double description
PAST_LIMIT = [ring(16, 8), ladder(7)]


@st.composite
def flows_sharing_signs(draw):
    """(graph, flows): a graph as in :func:`any_flows` or one of
    ``PAST_LIMIT``, and flows on one to three sign patterns, each with two
    to four magnitude vectors, in a random order."""
    g = draw(st.one_of(st.sampled_from(CORPUS_FAMILY), small_graphs(),
                       st.sampled_from(PAST_LIMIT)))
    n = len(g.edges())
    signs = st.lists(st.sampled_from((0, 1, 1, -1, -1)), min_size=n, max_size=n)
    flows = []
    for pattern in draw(st.lists(signs, min_size=1, max_size=3)):
        for _ in range(draw(st.integers(2, 4))):
            flows.append([s * draw(st.integers(1, 12)) for s in pattern])
    return g, draw(st.permutations(flows))


@settings(deadline=None, derandomize=True, database=None, max_examples=200,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(flows_sharing_signs())
def test_bond_table_answers_every_flow_of_an_orientation(case):
    # one core keeps the table of every pattern it has met; its answer
    # for each flow is that of double description and of a fresh core
    g, flows = case
    core = FlowCore.build(g)
    for x in flows:
        assert core.rays(x) == _dd_rays(core, x) == FlowCore.build(g).rays(x)
    patterns = {tuple((v > 0) - (v < 0) for v in x) for x in flows}
    assert set(core.bonds) == patterns


def test_bond_rays_match_orthant_section_on_corpus_recursion():
    flows = 0
    for g in CORPUS_FAMILY:
        core = FlowCore.build(g)
        for coeffs in core.acyclic_coefficients():
            x = core.shifted(coeffs)
            assert core.rays(x) == _dd_rays(core, x)
            flows += 1
    assert flows > len(CORPUS_FAMILY)


def _ref_bond_sides(succ, pred):
    """The directed bonds of ``weightings._bond_sides`` by their
    definition: each proper vertex set U holding vertex 0 such that U and
    its complement are connected and no two arcs cross the cut in
    opposite directions, tested set by set."""
    k = len(succ)
    arcs = [(a, b) for a in range(k) for b in range(k) if succ[a] >> b & 1]

    def connected(vs):
        reach, stack = {vs[0]}, [vs[0]]
        while stack:
            v = stack.pop()
            for a, b in arcs:
                for x, y in ((a, b), (b, a)):
                    if x == v and y in vs and y not in reach:
                        reach.add(y)
                        stack.append(y)
        return len(reach) == len(vs)

    sides = []
    for U in range(1, (1 << k) - 1, 2):
        inside = [v for v in range(k) if U >> v & 1]
        outside = [v for v in range(k) if not U >> v & 1]
        out_arc = any(U >> a & 1 and not U >> b & 1 for a, b in arcs)
        in_arc = any(U >> b & 1 and not U >> a & 1 for a, b in arcs)
        if not (out_arc and in_arc) and connected(inside) and connected(outside):
            sides.append(U)
    return sides


def _digraph_masks(k):
    """(succ, pred) bit masks of every digraph without loops on k
    vertices."""
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    for chosen in product((0, 1), repeat=len(pairs)):
        succ, pred = [0] * k, [0] * k
        for (a, b), on in zip(pairs, chosen):
            if on:
                succ[a] |= 1 << b
                pred[b] |= 1 << a
        yield succ, pred


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bond_sides_match_their_definition(k):
    # two vertices take the direct rule, more the search over vertex sets
    masks = list(_digraph_masks(k))
    assert len(masks) == 2 ** (k * (k - 1))
    for succ, pred in masks:
        assert weightings._bond_sides(succ, pred) == _ref_bond_sides(succ, pred)


TRIANGLE = Graph.build({"a": 0, "b": 0, "c": 0},
                       [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")])
LOOP_AND_EDGE = Graph.build({"u": 0, "v": 0}, [("e1", "u", "u"), ("e2", "u", "v")],
                            [("p", "u", 1), ("q", "v", -1)])


@pytest.mark.parametrize("g, x, rays", [
    # zero e3 merges c into a, so a -> b -> c closes a directed cycle of G/Z
    (TRIANGLE, [1, 1, 0], ((0, 0, 1),)),
    (TRIANGLE, [2, -3, 0], ((0, 0, 1), (3, 2, 0))),
    (TRIANGLE, [1, 2, 3], ()),
    (TRIANGLE, [1, 2, -3], ((0, 3, 2), (3, 0, 1))),
    # {v0, v2} is crossed one way only but is not connected
    (path_graph(2), [1, -1], ((0, 1), (1, 0))),
    # a loop with flow is zero on the cone, one without is free
    (LOOP_AND_EDGE, [2, 1], ((0, 1),)),
    (LOOP_AND_EDGE, [0, -1], ((0, 1), (1, 0))),
    (loop_graph(), [0], ((1,),)),
    (loop_graph(), [-4], ()),
])
def test_bond_rays_examples(g, x, rays):
    core = FlowCore.build(g)
    assert core.rays(x) == rays == _dd_rays(core, x)


@settings(deadline=None, derandomize=True, database=None, max_examples=150,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.one_of(st.sampled_from(CORPUS_FAMILY), small_graphs()))
def test_catalog_cones_match_orthant_section(g):
    # each key's cone is the orthant section of its first acyclic flow
    core = FlowCore.build(g)
    first = {}
    for coeffs in core.acyclic_coefficients():
        x = core.shifted(coeffs)
        ref = Cone.orthant_section(len(x), core.rows(x), labels=g.edges())
        first.setdefault(canonical_key(ref), ref)
    catalog = {canonical_key(c): (c, w) for c, w in cone_catalog(g)}
    for k, ref in first.items():
        c = catalog[k][0]
        assert (c.rays(), c.inequalities, c.labels) == (
            ref.rays(), ref.inequalities, ref.labels)
        assert span_rule_holds(c, ref)
    for k, (c, w) in catalog.items():
        assert canonical_key(cone_of_weighting(g, w)) == k
