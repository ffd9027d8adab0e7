import dataclasses
import gc
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flowfan import (Fan, UnknownEdge, UnsupportedDimension, base_weighting,
                     build_fan, canonical_key, check_contraction_compat,
                     cone_catalog, cone_of_weighting, faces, find_positive_cycle,
                     intersect_cones, is_face_of, slice_fan, verify_fan)
from flowfan import cones as cones_module
from flowfan import fan as fan_module
from flowfan import graph as graph_module
from flowfan.cones import Cone, cycle_constraint_rows
from flowfan.fan import (_meet_in_common_face, _meet_on_common_support,
                         _pair_view)
from flowfan.graph import (Graph, contract, cycle_basis, enumerate_cycles,
                           sort_key)
from flowfan.io import emit_fan_json, emit_graph_json, parse_graph_json
from flowfan.linalg import dot, int_rank
from flowfan import weightings
from flowfan.weightings import (FlowCore, flow_bound, lift_weighting,
                                shift_along_cycle, shift_by_cycles)

from helpers import (banana, box_radius, box_vectors, chain, complete_graph,
                     corpus, ladder, loop_graph, necklace, path_graph,
                     random_graph, ref_positive_cycle_halves, ring,
                     span_normals, span_rule_holds, two_gon, wheel)
from test_weightings import flows_weighting, small_graphs


def test_two_gon_catalog():
    for n in (1, 2, 3, 5):
        g = two_gon(n)
        cat = cone_catalog(g)
        keys = {canonical_key(c) for c, _ in cat}
        expected = {((), ())}
        for a in range(n + 1):
            r = (n - a, a)
            d = gcd(*r)
            expected.add(((), ((r[0] // max(d, 1), r[1] // max(d, 1)),)))
        assert keys == expected


def test_banana_catalog_structure():
    g = banana(3, 10)
    cat = cone_catalog(g)
    assert len(cat) == 43
    by_dim = {}
    for c, w in cat:
        by_dim.setdefault(c.dim(), []).append((c, w))
    assert len(by_dim[0]) == 1
    assert len(by_dim[1]) == 39
    assert len(by_dim[2]) == 3
    interior = [c for c, _ in by_dim[1]
                if all(x > 0 for r in c.rays() for x in r)]
    assert len(interior) == 36
    expected_interior = set()
    for a in range(1, 9):
        for b in range(1, 10 - a):
            c3 = 10 - a - b
            v = (b * c3, a * c3, a * b)
            d = gcd(gcd(v[0], v[1]), v[2])
            expected_interior.add(tuple(x // d for x in v))
    assert {c.rays()[0] for c in interior} == expected_interior


def test_tree_catalog_is_orthant():
    g = path_graph(3, leg_weights=(2, -2))
    cat = cone_catalog(g)
    assert len(cat) == 1
    c, w = cat[0]
    assert c.rays() == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def _dict_walk_catalog(g, contracted_sofar=frozenset(), memo=None):
    """The catalog walked on half-edge dicts: every box point through
    ``shift_by_cycles``, the reference positive-cycle DFS,
    ``cycle_constraint_rows`` and a cone solved from scratch; the
    contraction recursion as in the engine, where a cone of a contracted
    graph enters as the cone solved from scratch from its rows padded
    with zeros on the contracted edges plus the unit rows of those edges.
    Returns key -> (cone, witness)."""
    memo = {} if memo is None else memo
    if contracted_sofar in memo:
        return memo[contracted_sofar]
    edges = g.edges()
    base = base_weighting(g)
    basis = cycle_basis(g)
    out = {}
    seen = set()
    for coeffs in box_vectors(len(basis), box_radius(g, base)):
        w = shift_by_cycles(g, base, coeffs)
        if ref_positive_cycle_halves(g, w.values) is not None:
            continue
        c = Cone(len(edges), cycle_constraint_rows(g, w, basis)[1],
                 cones_module._unit_rows(len(edges)), labels=edges)
        if c.equalities not in seen:
            seen.add(c.equalities)
            out.setdefault(canonical_key(c), (c, w))
    for cyc in enumerate_cycles(g):
        cyc_edges = frozenset(cyc.edges(g))
        res = contract(g, cyc_edges)
        small = res.contracted.edges()
        sub = _dict_walk_catalog(res.contracted, contracted_sofar | cyc_edges, memo)
        for c_small, w_small in sub.values():
            w0 = lift_weighting(g, res, w_small)
            w_lift = shift_along_cycle(g, w0, cyc, -(w0.max_abs() + 1))
            rows = [tuple(dict(zip(small, a)).get(e, 0) for e in edges)
                    for a in c_small.equalities]
            rows += [tuple(int(f == e) for f in edges) for e in cyc_edges]
            c_big = Cone(len(edges), rows, cones_module._unit_rows(len(edges)),
                         labels=edges)
            out.setdefault(canonical_key(c_big), (c_big, w_lift))
    memo[contracted_sofar] = out
    return out


def _catalog_items(pairs):
    return [(canonical_key(c), list(w.values.items())) for c, w in pairs]


def _assert_catalog_matches_dict_walk(g):
    """The catalog of ``g`` has the keys and witnesses of the dict walk,
    and each cone's rows, by the span rule, cut out the walk's cone."""
    expected = sorted(_dict_walk_catalog(g).values(),
                      key=lambda pair: canonical_key(pair[0]))
    catalog = cone_catalog(g)
    assert _catalog_items(catalog) == _catalog_items(expected)
    for (c, _), (ref, _) in zip(catalog, expected):
        assert (c.inequalities, c.labels) == (ref.inequalities, ref.labels)
        assert span_rule_holds(c, ref)


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(st.sampled_from(corpus()))
def test_catalog_witnesses_match_dict_walk(g):
    _assert_catalog_matches_dict_walk(g)


# the necklaces and K4 contract three or more levels deep and reach some
# contracted sets by two routes
@pytest.mark.parametrize("g", [banana(3, 4), loop_graph(), loop_graph(legs=(3, -3)),
                               necklace(3, 2, 1), necklace(3, 2, 2),
                               complete_graph((2, -2, 1, -1))])
def test_catalog_witnesses_match_dict_walk_on_fixed_graphs(g):
    _assert_catalog_matches_dict_walk(g)


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _cones_built(monkeypatch):
    """The cones ``Cone._pointed`` builds, one entry per cone."""
    built = []
    pointed = Cone._pointed.__func__

    def counted(cls, *args):
        built.append(pointed(cls, *args))
        return built[-1]

    monkeypatch.setattr(Cone, "_pointed", classmethod(counted))
    return built


def test_catalog_visits_each_contracted_set_once(monkeypatch):
    g = necklace(3, 3, 3)
    counts = {}
    for name in ("_visit", "contract", "_complete_values"):
        _count_calls(monkeypatch, fan_module, name, counts)
    built = _cones_built(monkeypatch)
    catalog = cone_catalog(g)
    assert len(catalog) == 455
    h = len(cycle_basis(g))
    # 403 distinct unions of cycles and the root, each visited once
    assert counts["_visit"] == 404
    # a contracted graph is built, once, only where its flows are searched
    # (8 levels with demand) or a witness is lifted through it: 140 of 403
    assert counts["contract"] == 140
    # a witness is lifted once per contraction level, only for a new key
    assert counts["_complete_values"] <= len(catalog) * h
    # a cone is built only for a key new to the catalog, once
    assert len(built) == len(catalog)


@pytest.mark.parametrize("g, builds", [(banana(4, 3), 2), (banana(3, 20), 1)])
def test_catalog_builds_few_contracted_graphs(monkeypatch, g, builds):
    # of the graphs below the root only the one with every edge contracted
    # adds a key, the origin, and its witness is lifted through the levels
    # above it: on banana(4,3) 2 of 11 graphs, on banana(3,20) 1 of 4
    counts = {}
    _count_calls(monkeypatch, fan_module, "contract", counts)
    cone_catalog(g)
    assert counts["contract"] == builds


def test_catalog_embeds_only_new_keys(monkeypatch):
    g = necklace(3, 3, 3)
    root_rays = fan_module._acyclic_catalog(g, flow_bound(g))
    built = _cones_built(monkeypatch)
    catalog = cone_catalog(g)
    # every key of the root's own cones is new when the root is visited
    assert {canonical_key(c) for c, _ in catalog} >= {((), r) for r in root_rays}
    # one cone per key, 191 of the root's and 264 first reached in a
    # contracted graph, each built once and directly in G's edges
    assert len(root_rays) == 191
    assert len(built) == len(catalog) == 455
    assert {id(c) for c in built} == {id(c) for c, _ in catalog}
    assert all((c.ambient_dim, c.labels) == (len(g.edges()), tuple(g.edges()))
               for c in built)


def _walk_visits(g):
    """The (K, labels, S) of every graph G/K that ``cone_catalog(g)``
    visits, in visiting order: K a bit mask over G's edge positions,
    labels the walk's component label of each vertex position of G, and
    S the flow bound it computed for G/K."""
    visits = []
    original = fan_module._visit

    def recorded(g, demand, stack, contracted, labels, S, out, seen):
        visits.append((contracted, list(labels), S))
        original(g, demand, stack, contracted, labels, S, out, seen)

    fan_module._visit = recorded
    try:
        cone_catalog(g)
    finally:
        fan_module._visit = original
    return visits


def _contracted(g, mask):
    """``contract(g, K)`` for the edge positions K set in ``mask``."""
    return contract(g, [e for i, e in enumerate(g.edges()) if mask >> i & 1])


ZERO_DEMAND_GRAPHS = corpus() + [banana(4, 3), banana(3, 20), necklace(3, 3, 3),
                                 complete_graph((2, -2, 0, 0, 0)), wheel(5, 2)]


def _zero_demand_visits(g):
    """The K of each graph the walk visits whose vertex demands are all
    zero, G itself included, with that contracted graph."""
    return [(K, _contracted(g, K).contracted) for K, _, S in _walk_visits(g)
            if S == 0]


def test_zero_demand_graphs_have_the_closed_form_cone():
    checked = 0
    for g in ZERO_DEMAND_GRAPHS:
        for _, h in _zero_demand_visits(g):
            assert flow_bound(h) == 0
            units = tuple(sorted(cones_module._unit_rows(len(h.edges()))))
            ((rays, w),) = fan_module._acyclic_catalog(h, flow_bound(h)).items()
            # the orthant, whose rays span the whole space: no equalities
            assert rays == units and span_normals(rays, len(units)) == ()
            base = base_weighting(h)
            assert list(w.values.items()) == list(base.values.items())
            checked += 1
    # 287 on the corpus, 11, 4, 395 and 286 on banana(4,3), banana(3,20),
    # the necklace and K5, 104 on the wheel
    assert checked == 1087


def test_zero_flow_values_are_the_base_weighting():
    # the closed-form witness of a graph with no demand, read off G's
    # arrays, is base_weighting of the contracted graph, keys in order
    for g in ZERO_DEMAND_GRAPHS:
        for K, h in _zero_demand_visits(g):
            assert (list(fan_module._zero_flow_values(g, K).items())
                    == list(base_weighting(h).values.items()))


def _assert_walk_reads_contracted_graphs(g):
    """Every graph G/K the walk visits, read off G's arrays, is the graph
    ``contract`` builds: the same labels, flow bound and cycles."""
    index = g.index
    vpos = {v: i for i, v in enumerate(index.vertices)}
    for K, labels, S in _walk_visits(g):
        res = _contracted(g, K)
        assert labels == [vpos[res.vertex_map[v]] for v in index.vertices]
        assert S == flow_bound(res.contracted)
        want = [c.halves for c in enumerate_cycles(res.contracted)]
        assert graph_module._cycle_search(g, labels, K) == want


@pytest.mark.parametrize("g", corpus()[:60] + [
    banana(4, 3), banana(3, 20), necklace(3, 3, 3),
    complete_graph((2, -2, 0, 0, 0)), wheel(5, 2), ladder(5)])
def test_quotient_cycle_search_matches_contracted_graphs(g):
    _assert_walk_reads_contracted_graphs(g)


@settings(deadline=None, derandomize=True, database=None, max_examples=150,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(small_graphs())
def test_quotient_cycle_search_matches_contracted_graphs_generated(g):
    _assert_walk_reads_contracted_graphs(g)


@pytest.mark.parametrize("g, builds", [(banana(4, 3), 1), (banana(3, 20), 1),
                                       (necklace(3, 3, 3), 9),
                                       (complete_graph((2, -2, 0, 0, 0)), 28)])
def test_catalog_searches_flows_of_graphs_with_demand_only(monkeypatch, g, builds):
    counts = []
    original = FlowCore.build

    def counted(cls, h, *rest):
        counts.append(h)
        return original(h, *rest)

    monkeypatch.setattr(FlowCore, "build", classmethod(counted))
    cone_catalog(g)
    assert len(counts) == builds
    assert all(flow_bound(h) > 0 for h in counts)


@pytest.mark.parametrize("g", [necklace(3, 3, 3), complete_graph((2, -2, 0, 0, 0)),
                               wheel(5, 2), ladder(5)])
def test_catalog_holds_the_cones_of_sampled_flows(g):
    # far outside the search box, through double description on the cycle
    # rows: neither the bond rays nor the contraction walk is used
    keys = {canonical_key(c) for c, _ in cone_catalog(g)}
    base, basis = base_weighting(g), cycle_basis(g)
    top = 3 * flow_bound(g) + 2
    rng = random.Random(len(keys))
    for _ in range(400):
        coeffs = [rng.randint(-top, top) for _ in basis]
        w = shift_by_cycles(g, base, coeffs)
        assert canonical_key(cone_of_weighting(g, w)) in keys, coeffs


@pytest.mark.parametrize("g, built", [(banana(3, 20), 0), (necklace(3, 3, 3), 42)])
def test_build_fan_builds_each_added_face_once(monkeypatch, g, built):
    catalog = cone_catalog(g)
    monkeypatch.setattr(fan_module, "cone_catalog", lambda _: catalog)
    faces_built = _cones_built(monkeypatch)
    fan = build_fan(g)
    assert len(fan.cones) - len(catalog) == built
    # each face not in the catalog is built once, as a cone of the fan
    assert len(faces_built) == built
    assert ({id(c) for c in faces_built}
            == {id(c) for c in fan.cones} - {id(c) for c, _ in catalog})


def _recorded_facets(fan):
    """The facets ``build_fan`` recorded for each cone of ``fan``, as masks
    over its sorted rays, read back as ray tuples: rays -> facets' rays."""
    closure = fan._closure
    rays = closure.rays
    return {cones_module._rays_of(rays, m):
            tuple(cones_module._rays_of(rays, t) for t in fs)
            for m, fs in closure.facets.items()}


def _closure_fan(catalog):
    """Witnesses and maximal keys of a catalog closed under faces through
    each catalog cone's whole face lattice, in key order."""
    witnesses = {canonical_key(c): w for c, w in catalog}
    proper = set()
    for k, c in [(canonical_key(c), c) for c, _ in catalog]:
        full = (1 << len(c.rays())) - 1
        for s in cones_module._face_masks(full, cones_module._row_masks(c)):
            fk = ((), cones_module._rays_of(c.rays(), s))
            if fk != k:
                proper.add(fk)
                witnesses.setdefault(fk, witnesses[k])
    return witnesses, frozenset(witnesses) - proper


@pytest.mark.parametrize("graphs", [
    corpus(), [necklace(3, 3, 3)], [complete_graph((2, -2, 0, 0, 0))],
    [wheel(4, 2)], [wheel(5, 3)], [loop_graph()]],
    ids=["corpus", "neck3x3", "K5", "wheel(4,2)", "wheel(5,3)", "loop_graph"])
def test_facet_descent_matches_full_face_closure(graphs):
    for g in graphs:
        fan = build_fan(g)
        catalog = cone_catalog(g)
        witnesses, maximal = _closure_fan(catalog)
        assert {canonical_key(c) for c in fan.cones} == set(witnesses)
        assert {k: w.values for k, w in fan.witnesses.items()} == {
            k: w.values for k, w in witnesses.items()}
        assert fan.maximal_keys == maximal
        catalog_keys = {canonical_key(c) for c, _ in catalog}
        recorded = _recorded_facets(fan)
        assert len(recorded) == len(fan.cones)
        for c in fan.cones:
            # the facets the descent recorded, from its catalog cone's row
            # masks over the fan's rays, are those of the cone's own rows
            fresh = Cone._pointed(c.ambient_dim, c.labels, c.equalities,
                                  c.inequalities, c.rays())
            assert recorded[c.rays()] == cones_module._facet_rays(fresh)
            if canonical_key(c) in catalog_keys:
                continue
            # a face cone's dimension comes from its parent
            assert c._dim is not None
            assert c._dim == int_rank(list(c.rays()))


def _closure_through_faces(catalog):
    """The face closure of ``catalog``, (cone, witness) pairs in key order,
    built through :func:`~flowfan.cones.faces` of each catalog cone: rays
    -> (dimension, witness, maximal). A catalog cone keeps its own
    witness; any other face takes that of the first catalog cone, in key
    order, that has it."""
    out = {c.rays(): (c.dim(), w) for c, w in catalog}
    proper = set()
    for c, w in catalog:
        for f in faces(c):
            if f.rays() != c.rays():
                proper.add(f.rays())
                out.setdefault(f.rays(), (f.dim(), w))
    return {rays: (d, w, rays not in proper) for rays, (d, w) in out.items()}


@pytest.mark.parametrize("graphs", [
    [necklace(3, 3, 3)], [complete_graph((2, -2, 0, 0, 0))], [ladder(5)], corpus()],
    ids=["neck3x3", "K5", "ladder5", "corpus"])
def test_mask_closure_matches_closure_through_faces(monkeypatch, graphs):
    # the masks build_fan keeps, read back as rays, against a closure that
    # shares no mask with it: each catalog cone's whole face lattice as
    # cones, each face ranked for its dimension
    for g in graphs:
        catalog = cone_catalog(g)
        monkeypatch.setattr(fan_module, "cone_catalog", lambda _: catalog)
        closure = build_fan(g)._closure
        got = {cones_module._rays_of(closure.rays, m):
               (closure.dims[m], closure.catalog[closure.top[m]][1],
                m in closure.maximal)
               for m in closure.facets}
        expected = _closure_through_faces(catalog)
        assert got.keys() == expected.keys()
        for rays, (dim, w, maximal) in expected.items():
            assert got[rays][0] == dim
            assert got[rays][1] is w
            assert got[rays][2] == maximal


@pytest.mark.parametrize("graphs", [corpus(), [ladder(5)]], ids=["corpus", "ladder5"])
def test_build_verify_and_emit_build_no_cone_view(monkeypatch, graphs):
    # building, verifying and writing a fan read its masks only: no view
    # of its cones is built, and no cone but an intersection; the pairs
    # that reach an intersection meet the catalog's own cones
    def no_views(closure):
        raise AssertionError("a view of the fan's cones was built")

    monkeypatch.setattr(fan_module, "_views", no_views)
    met, counts = [], {}
    meet = fan_module._meet_in_common_face

    def recorded(c1, rays1, c2, rays2):
        met.append((c1, c2))
        return meet(c1, rays1, c2, rays2)

    monkeypatch.setattr(fan_module, "_meet_in_common_face", recorded)
    _count_calls(monkeypatch, fan_module, "intersect_cones", counts)
    catalogs = [cone_catalog(g) for g in graphs]
    built = _cones_built(monkeypatch)
    for g, catalog in zip(graphs, catalogs):
        monkeypatch.setattr(fan_module, "cone_catalog", lambda _: catalog)
        met.clear()
        fan = build_fan(g)
        assert verify_fan(fan).ok
        emit_fan_json(fan)
        ids = {id(c) for c, _ in catalog}
        assert all(id(c1) in ids and id(c2) in ids for c1, c2 in met)
    assert len(built) == counts.get("intersect_cones", 0)
    assert (counts.get("intersect_cones", 0) > 0) == (len(graphs) > 1)
    with pytest.raises(AssertionError, match="view"):
        fan.cones


def test_build_fan_expands_a_catalog_face_from_the_first_cone_holding_it(monkeypatch):
    # the solid orthant's 2-D faces are catalog cones too, two of them
    # after it in key order; the ray (1, 0, 0) lies in those two only, so
    # it takes the orthant's witness only if the orthant expands them
    solid = Cone.orthant_section(3)
    planes = [Cone.orthant_section(3, [u]) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    catalog = sorted([(c, f"w{i}") for i, c in enumerate([solid] + planes)],
                     key=lambda pair: canonical_key(pair[0]))
    assert [w for _, w in catalog] == ["w1", "w0", "w2", "w3"]
    monkeypatch.setattr(fan_module, "cone_catalog", lambda _: catalog)
    fan = build_fan(banana(3, 1))
    witnesses, maximal = _closure_fan(catalog)
    assert fan.witnesses == witnesses
    assert fan.witnesses[((), ((1, 0, 0),))] == "w0"
    assert fan.maximal_keys == maximal == {canonical_key(solid)}


@pytest.mark.parametrize("g", [banana(3, 20), necklace(3, 3, 3)],
                         ids=["banana(3,20)", "neck3x3"])
def test_build_and_verify_never_walk_a_face_lattice(monkeypatch, g):
    counts = {}
    _count_calls(monkeypatch, cones_module, "_face_masks", counts)
    _count_calls(monkeypatch, fan_module, "_face_masks", counts)
    assert verify_fan(build_fan(g)).ok
    assert counts.get("_face_masks", 0) == 0


@pytest.mark.parametrize("g", [banana(3, 20), necklace(3, 3, 3)],
                         ids=["banana(3,20)", "neck3x3"])
def test_dim_ranks_catalog_cones_only(monkeypatch, g):
    catalog = cone_catalog(g)
    monkeypatch.setattr(fan_module, "cone_catalog", lambda _: catalog)
    ranked = []
    rank = cones_module.int_rank

    def recorded(rows):
        ranked.append(tuple(rows))
        return rank(rows)

    monkeypatch.setattr(cones_module, "int_rank", recorded)
    for c in build_fan(g).cones:
        c.dim()
    # one rank per catalog cone on more than three rays, of its rays; a
    # cone on at most three rays counts them, and every face gets its
    # dimension
    assert sorted(ranked) == sorted(c.rays() for c, _ in catalog
                                    if len(c.rays()) > 3)


@pytest.mark.parametrize("graphs", [
    corpus(), [necklace(3, 3, 3)], [complete_graph((2, -2, 0, 0, 0))]],
    ids=["corpus", "neck3x3", "K5"])
def test_dim_of_every_fan_cone_is_the_rank_of_its_rays(graphs):
    small = 0
    for g in graphs:
        for c in build_fan(g).cones:
            assert c.dim() == int_rank(list(c.rays()))
            # a fresh cone, whose dimension no parent hands down
            fresh = Cone._pointed(c.ambient_dim, c.labels, c.equalities,
                                  c.inequalities, c.rays())
            assert fresh.dim() == c.dim()
            small += len(c.rays()) <= 2
    assert small


def _facet_computations(monkeypatch):
    """The ray masks whose facets ``_facets_of`` computes, and the cones
    whose row masks ``_row_masks`` computes, one entry per computation."""
    computed = {"facets": [], "masks": []}
    facets_of, row_masks = cones_module._facets_of, cones_module._row_masks

    def facets(s, masks):
        computed["facets"].append(s)
        return facets_of(s, masks)

    def rows(c):
        computed["masks"].append(c)
        return row_masks(c)

    for module in (cones_module, fan_module):
        monkeypatch.setattr(module, "_facets_of", facets)
    monkeypatch.setattr(cones_module, "_row_masks", rows)
    return computed


@pytest.mark.parametrize("g", [banana(3, 20), necklace(3, 3, 3)],
                         ids=["banana(3,20)", "neck3x3"])
def test_build_and_verify_compute_each_cones_facets_once(monkeypatch, g):
    catalog = cone_catalog(g)
    monkeypatch.setattr(fan_module, "cone_catalog", lambda _: catalog)
    computed = _facet_computations(monkeypatch)
    fan = build_fan(g)
    # every cone of the fan is expanded once, so its facets are recorded,
    # from the row masks of the catalog cone it was reached from; those
    # are the fan-wide masks of its rows cut down to it, so no cone's own
    # row masks are computed
    recorded = fan._closure.facets
    assert sorted(computed["facets"]) == sorted(recorded)
    assert len(recorded) == len(fan.cones)
    assert computed["masks"] == []
    before = dict(recorded)
    computed["facets"].clear()
    assert verify_fan(fan).ok
    # verify_fan reads the recorded facets and computes none anew; no
    # pair of these fans reaches an intersection, so it computes no row
    # masks either
    assert computed["facets"] == []
    assert all(recorded[m] is fs for m, fs in before.items())
    assert computed["masks"] == []


def test_verify_fan_names_every_missing_face_of_cones_with_cached_facets():
    # neck3x3's fan from build_fan, its facets recorded, with every ray
    # cone dropped: each cone on two rays misses both, and its report
    # names every missing face, in (dimension, rays) order, as the face
    # lattice gives them; so does the fan's own closure with the ray
    # masks dropped, whose recorded facets the check reads
    fan = build_fan(necklace(3, 3, 3))
    closure = fan._closure
    assert len(closure.facets) == len(fan.cones)
    kept = [c for c in fan.cones if len(c.rays()) != 1]
    known = {canonical_key(c) for c in kept}
    expected = []
    for c in kept:
        lattice = faces(c)
        if any(canonical_key(f) not in known
               for f in lattice if f.dim() == c.dim() - 1):
            expected += [f"face {canonical_key(f)} of {canonical_key(c)} missing"
                         for f in lattice if canonical_key(f) not in known]
    report = verify_fan(Fan(fan.graph, fan.edge_order, kept, fan.witnesses,
                            fan.maximal_keys))
    assert report.violations == tuple(expected)
    assert len(expected) == 2 * sum(len(c.rays()) == 2 for c in kept)
    dropped = Fan._closed(fan.graph, dataclasses.replace(closure, facets={
        m: fs for m, fs in closure.facets.items() if m.bit_count() != 1}))
    assert verify_fan(dropped).violations == tuple(expected)


def _eager_faces(fan, catalog_keys):
    """For each face of ``fan`` not in the catalog, the cone
    ``Cone.__init__`` makes of the rows of a cone the face was recorded a
    facet of, with the inequality rows zero on every ray of the face
    turned into equalities, the rule that gave a face its rows at
    construction."""
    by_rays = {c.rays(): c for c in fan.cones}
    expected = {}
    for cone_rays, facets in _recorded_facets(fan).items():
        c = by_rays[cone_rays]
        for rays in facets:
            f = by_rays[rays]
            if canonical_key(f) in catalog_keys or id(f) in expected:
                continue
            tight = [q for q in c.inequalities
                     if all(dot(q, r) == 0 for r in rays)]
            expected[id(f)] = Cone(c.ambient_dim, list(c.equalities) + tight,
                                   c.inequalities, labels=c.labels)
    return expected


@pytest.mark.parametrize("graphs", [
    corpus(), [necklace(3, 3, 3)], [complete_graph((2, -2, 0, 0, 0))],
    [banana(3, 20)], [banana(4, 3)]],
    ids=["corpus", "neck3x3", "K5", "banana(3,20)", "banana(4,3)"])
def test_rows_read_late_equal_the_eager_rules(graphs):
    for g in graphs:
        fan = build_fan(g)
        assert verify_fan(fan).ok
        emit_fan_json(fan)
        catalog_keys = {canonical_key(c) for c, _ in cone_catalog(g)}
        faces_built = _eager_faces(fan, catalog_keys)
        assert len(faces_built) == len(fan.cones) - len(catalog_keys)
        units = cones_module._unit_rows(len(fan.edge_order))
        for c in fan.cones:
            if id(c) in faces_built:
                ref = faces_built[id(c)]
            else:
                # a catalog cone: the eager cone of its witness's cycle rows
                w = fan.witnesses[canonical_key(c)]
                ref = Cone(len(units), cycle_constraint_rows(g, w)[1], units,
                           labels=fan.edge_order)
            assert c.inequalities == ref.inequalities
            assert span_rule_holds(c, ref)


def _row_computations(monkeypatch):
    """The cones whose equality rows are computed on a read, one entry
    per computation."""
    computed = []
    equalities = Cone.equalities

    def read(c):
        if c._equalities is None:
            computed.append(c)
        return equalities.fget(c)

    monkeypatch.setattr(Cone, "equalities", property(read))
    return computed


@pytest.mark.parametrize("g, cones, computed", [
    # no pair of these fans needs an intersection, and no pair of
    # banana(3,20)'s needs a ray test either
    (banana(3, 20), 178, 0),
    (banana(4, 3), 15, 0),
    (necklace(3, 3, 3), 497, 0)], ids=["banana(3,20)", "banana(4,3)", "neck3x3"])
def test_build_verify_and_emit_compute_few_rows(monkeypatch, g, cones, computed):
    rows = _row_computations(monkeypatch)
    fan = build_fan(g)
    assert verify_fan(fan).ok
    emit_fan_json(fan)
    assert len(fan.cones) == cones
    assert len(rows) == computed
    assert len({id(c) for c in rows}) == computed


LIMIT = weightings.BOND_VERTEX_LIMIT


@pytest.mark.parametrize("g, searched", [
    # G/Z's vertex count for each bond search, one per orientation
    (chain(30, 3), []),
    # the two flows zero on one half-ring leave 10 vertices, the other
    # two all 20; the contracted ring is one vertex, with no sets to search
    (ring(20, 3), [10, 10]),
    (chain(LIMIT - 1, 3), [LIMIT]),
    (chain(LIMIT, 3), []),
    # two orientations of each are searched; each orientation that leaves
    # more than LIMIT vertices is solved by one double description
    (ring(16, 8), [8, 8]),
    (ring(24, 5), [12, 12]),
])
def test_catalog_falls_back_to_dd_above_the_bond_vertex_limit(monkeypatch, g, searched):
    sizes = []
    bond_sides = weightings._bond_sides

    def counted(succ, pred):
        sizes.append(len(succ))
        return bond_sides(succ, pred)

    monkeypatch.setattr(weightings, "_bond_sides", counted)
    _assert_catalog_matches_dict_walk(g)
    assert sorted(sizes) == searched
    # each search visits the 2^(k-1) - 1 proper vertex sets holding vertex 0
    assert sum(2 ** (k - 1) - 1 for k in sizes) < 2 ** LIMIT


def _counted(monkeypatch, module, name):
    """The arguments of every call of ``module.name`` from now on."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_catalog_searches_each_orientation_once(monkeypatch):
    # banana(3,20)'s 231 acyclic flows have 7 sign patterns; 171 flows send
    # all three edges one way, the one pattern whose G/Z has two vertices.
    # Its bonds are searched on its first flow, not on each of the 171
    searches = _counted(monkeypatch, weightings, "_bond_sides")
    assert len(cone_catalog(banana(3, 20))) == 178
    assert [len(succ) for succ, _ in searches] == [2]


@pytest.mark.parametrize("g", [ring(16, 8), ring(24, 5)], ids=["ring16-8", "ring24-5"])
def test_catalog_runs_dd_once_per_orientation_past_the_limit(monkeypatch, g):
    # the flows past the limit share one sign pattern, whose bonds come
    # from one double description; one run per flow made 7 and 4
    runs = _counted(monkeypatch, cones_module, "_double_description")
    cone_catalog(g)
    assert len(runs) == 1


def test_catalog_computes_each_flow_bound_once(monkeypatch):
    # neck3x3's walk visits 404 graphs, 9 of them with vertex demand; the
    # walk sums each bound from G's vertex demands, with no flow_bound
    # call, and hands it to the flow search of each graph with demand
    visits = _counted(monkeypatch, fan_module, "_visit")
    bounds = _counted(monkeypatch, weightings, "flow_bound")
    builds = _counted(monkeypatch, FlowCore, "build")
    cone_catalog(necklace(3, 3, 3))
    assert len(visits) == 404
    assert "flow_bound" not in vars(fan_module)
    assert (len(bounds), len(builds)) == (0, 9)
    assert all(S == flow_bound(h) > 0 for h, S in builds)


@pytest.mark.parametrize("g", [chain(LIMIT, 3), ring(16, 8)], ids=["chain", "ring16-8"])
def test_flow_core_rays_solve_flows_past_the_limit_by_dd(g):
    # past the limit FlowCore.rays answers with the rays of the flow's
    # cone, from bonds read off one double description of its orientation
    core = FlowCore.build(g)
    past = 0
    for coeffs in core.acyclic_coefficients():
        x = core.shifted(coeffs)
        dd = Cone.orthant_section(len(x), core.rows(x)).rays()
        assert core.rays(x) == dd
        w = core.weighting(x)
        assert dd == cone_of_weighting(g, w).rays()
        zero = [e for e, f in w.flows().items() if f == 0]
        past += len(contract(g, zero).contracted.vertices()) > LIMIT
    assert past > 0


def test_witness_soundness():
    for g in [two_gon(4), banana(3, 6), loop_graph()]:
        for c, w in cone_catalog(g):
            assert canonical_key(cone_of_weighting(g, w)) == canonical_key(c)


def test_build_fan_counts():
    fan = build_fan(two_gon(3))
    assert len(fan.cones) == 5
    assert len(fan.maximal_keys) == 4
    fan2 = build_fan(path_graph(2, leg_weights=(3, -3)))
    assert len(fan2.cones) == 4
    assert len(fan2.maximal_keys) == 1
    fan3 = build_fan(banana(3, 10))
    assert len(fan3.maximal_keys) == 39
    assert len(fan3.cones) == 43


def test_maximal_keys_match_scan_over_all_cones():
    # build_fan flags the cones that are no catalog cone's proper face
    for g in corpus(60) + [banana(3, 10), banana(4, 3)]:
        fan = build_fan(g)
        raysets = [frozenset(c.rays()) for c in fan.cones]
        assert fan.maximal_keys == {
            canonical_key(c) for c, rs in zip(fan.cones, raysets)
            if not any(rs < other for other in raysets)}


def test_verify_fan_passes():
    for g in [two_gon(3), banana(3, 10), loop_graph(),
              path_graph(2, leg_weights=(1, -1))]:
        report = verify_fan(build_fan(g))
        assert report.ok, report.violations


def test_verify_fan_rejects_bad_collection():
    from flowfan import faces
    orthant = Cone.orthant_section(2)
    interior = Cone.orthant_section(2, [(1, -1)])
    cones = list(faces(orthant)) + list(faces(interior))
    bad = Fan(None, ((0,), (1,)), cones, {}, frozenset())
    report = verify_fan(bad)
    assert not report.ok
    assert "not a common face" in report.violations[0]


def test_verify_fan_reports_every_bad_pair():
    from flowfan import faces
    orthant = Cone.orthant_section(2)
    rays = [Cone.orthant_section(2, [row]) for row in ((1, -1), (1, -2))]
    cones = {canonical_key(f): f
             for c in [orthant] + rays for f in faces(c)}
    bad = Fan(None, ((0,), (1,)), list(cones.values()), {}, frozenset())
    report = verify_fan(bad)
    assert not report.ok
    # the orthant meets each interior ray in that ray, a face of neither
    assert len(report.violations) == 2
    assert all("not a common face" in v for v in report.violations)


def test_verify_fan_reports_every_missing_face():
    from flowfan import faces
    orthant = Cone.orthant_section(2)
    origin = Cone(2, equalities=[(1, 0), (0, 1)], inequalities=[(1, 0), (0, 1)])
    report = verify_fan(Fan(None, ((0,), (1,)), [origin, orthant], {}, frozenset()))
    assert report.violations == (
        "face ((), ((0, 1),)) of ((), ((0, 1), (1, 0))) missing",
        "face ((), ((1, 0),)) of ((), ((0, 1), (1, 0))) missing")
    # faces are reported in (dimension, rays) order
    solid = Cone.orthant_section(3)
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    origin3 = Cone(3, equalities=units, inequalities=units)
    report = verify_fan(Fan(None, ((0,), (1,), (2,)), [origin3, solid], {}, frozenset()))
    missing = [f.rays() for f in faces(solid)][1:-1]
    assert report.violations == tuple(
        f"face {((), rays)} of {canonical_key(solid)} missing" for rays in missing)


def test_verify_fan_names_every_missing_face_below_a_complete_cone():
    # the solid orthant has all its facets, so the facet check passes on
    # it; each 2-D face misses both its rays and falls back to its lattice
    solid = Cone.orthant_section(3)
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    origin = Cone(3, equalities=units, inequalities=units)
    planes = [f for f in faces(solid) if f.dim() == 2]
    assert len(planes) == 3
    report = verify_fan(Fan(None, ((0,), (1,), (2,)), [origin] + planes + [solid],
                            {}, frozenset()))
    assert report.violations == tuple(
        f"face {((), (r,))} of {canonical_key(f)} missing"
        for f in planes for r in f.rays())
    named = {v.split(" of ")[0] for v in report.violations}
    assert named == {f"face {((), (r,))}" for r in units}


def test_verify_fan_stops_after_pointedness_stage():
    line = Cone(2, equalities=[(1, -1)])
    leaves = Cone(2, equalities=[(1, 1)], inequalities=[(1, 0)])
    report = verify_fan(Fan(None, ((0,), (1,)), [line, leaves], {}, frozenset()))
    assert report.violations == (
        f"cone {canonical_key(line)} not pointed",
        f"cone {canonical_key(leaves)} leaves the orthant")


def test_verify_fan_checks_a_closure_on_its_catalog_cones_and_rays():
    # closures build_fan never makes: a catalog cone that is not pointed,
    # and one with a ray outside the orthant, which the check once per ray
    # finds; the report is that of the same cones built by hand
    half = Cone(2, inequalities=[(0, 1)])
    wedge = Cone.from_generators(2, [(0, 1), (1, -1)])
    for c, facets, dims, violations in [
            (half, {1: ()}, {1: 2},
             (f"cone {canonical_key(half)} not pointed",)),
            (wedge, {3: (1, 2), 1: (0,), 2: (0,), 0: ()}, {3: 2, 1: 1, 2: 1, 0: 0},
             ("cone ((), ((1, -1),)) leaves the orthant",
              f"cone {canonical_key(wedge)} leaves the orthant"))]:
        full = (1 << len(c.rays())) - 1
        fan = Fan(None, ((0,), (1,)), None, None, None)
        fan._closure = fan_module._Closure(c.rays(), {full: (c, None)}, facets, dims,
                                           dict.fromkeys(dims, full), frozenset({full}))
        report = verify_fan(fan)
        assert report.violations == violations
        by_hand = Fan(None, ((0,), (1,)), list(fan.cones), {}, frozenset())
        assert verify_fan(by_hand) == report


def test_fan_pipeline_leaves_no_cyclic_garbage():
    # parse, build, verify and emit free everything by reference count, so
    # a graph's index does not wait for the cyclic collector
    docs = [emit_graph_json(g) for g in [banana(4, 3)] + corpus(20)]
    gc.collect()
    gc.disable()
    try:
        for doc in docs:
            fan = build_fan(parse_graph_json(doc))
            assert verify_fan(fan).ok
            emit_fan_json(fan)
            del fan
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_verify_fan_resumes_every_intersection(monkeypatch):
    starts = []
    original = cones_module._double_description

    def recording(*args, **kwargs):
        starts.append(kwargs.get("start"))
        return original(*args, **kwargs)

    def verify_runs(fan):
        starts.clear()
        monkeypatch.setattr(cones_module, "_double_description", recording)
        assert verify_fan(fan).ok
        monkeypatch.undo()
        # every intersection resumes
        assert all(s is not None for s in starts)
        return len(starts)

    for g, cones in [
            # the 21 maximal rays have full support, so none lies in the
            # support of a 2-D cone, and the three 2-D cones pairwise share
            # one unit ray on their common support
            (banana(3, 8), 28),
            # every pair that keeps two faces of two or more rays, after
            # the cuts, keeps two equal faces
            (banana(4, 3), 15),
            (necklace(3, 3, 3), 497),
            (complete_graph((2, -2, 0, 0, 0)), 874),
            (ladder(5), 3874)]:
        fan = build_fan(g)
        # proper faces are not paired at all, and no pair needs an
        # intersection
        assert len(fan.cones) == cones
        assert verify_runs(fan) == 0
    # on the corpus, 64 pairs still keep two different faces
    assert sum(verify_runs(build_fan(g)) for g in corpus()) == 64


def _all_pairs_stage(cones):
    """The pair stage over every pair of cones, each by an intersection."""
    violations = []
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            c1, c2 = cones[i], cones[j]
            inter = intersect_cones(c1, c2)
            if not is_face_of(inter, c1) or not is_face_of(inter, c2):
                violations.append(
                    f"intersection of {canonical_key(c1)} and "
                    f"{canonical_key(c2)} is not a common face")
    return violations


def _is_ordered_subset(items, reference):
    it = iter(reference)
    return all(any(x == y for y in it) for x in items)


@st.composite
def pair_stage_cases(draw):
    """The fan of a generated corpus graph, or that fan with the faces of
    a drawn orthant section added (often not a fan any more), maybe one
    cone repeated, in a drawn order, with the fan's old maximal keys."""
    fan = build_fan(random_graph(random.Random(draw(st.integers(0, 10**6)))))
    cones = list(fan.cones)
    d = len(fan.edge_order)
    if d and draw(st.booleans()):
        row = st.tuples(*[st.integers(-3, 3)] * d)
        c = Cone.orthant_section(d, draw(st.lists(row, max_size=d - 1)),
                                 labels=fan.edge_order)
        keys = {canonical_key(x) for x in cones}
        cones += [f for f in faces(c) if canonical_key(f) not in keys]
        if draw(st.booleans()):
            cones.append(draw(st.sampled_from(cones)))
        cones = draw(st.permutations(cones))
    return Fan(fan.graph, fan.edge_order, cones, fan.witnesses,
               fan.maximal_keys)


@settings(deadline=None, derandomize=True, database=None, max_examples=150)
@given(pair_stage_cases())
def test_verify_fan_agrees_with_all_pairs_reference(fan):
    report = verify_fan(fan)
    reference = _all_pairs_stage(fan.cones)
    assert report.ok == (not reference)
    assert _is_ordered_subset(report.violations, reference)
    if report.ok:
        assert report.violations == ()


def test_verify_fan_reports_a_crossing_cone_in_neck3x3():
    # neck3x3's last maximal cone M, with one ray r tilted to r + s
    # towards a ray s of the maximal cone N that shares most rays with
    # it, gives a cone X that crosses its neighbours; X and its faces
    # replace M
    fan = build_fan(necklace(3, 3, 3))
    maximal = [c for c in fan.cones if canonical_key(c) in fan.maximal_keys]
    m = maximal[-1]
    n = max(maximal[:-1], key=lambda c: len(set(c.rays()) & set(m.rays())))
    r = next(q for q in m.rays() if q not in n.rays())
    s = next(q for q in n.rays() if q not in m.rays())
    x = Cone.from_generators(
        len(fan.edge_order),
        [q for q in m.rays() if q != r] + [tuple(map(sum, zip(r, s)))],
        labels=fan.edge_order)
    assert x.is_pointed() and len(x.rays()) == len(m.rays())
    cones = [c for c in fan.cones if c is not m]
    keys = {canonical_key(c) for c in cones}
    cones += [f for f in faces(x) if canonical_key(f) not in keys]
    report = verify_fan(Fan(fan.graph, fan.edge_order, cones, fan.witnesses,
                            fan.maximal_keys))
    # the pair stage checks the maximal cones of the new collection, in
    # its order, as the all-pairs check of them does
    maximal = [c for c in cones
               if not any(set(c.rays()) < set(o.rays()) and is_face_of(c, o)
                          for o in cones)]
    assert x in maximal
    assert len(report.violations) == 10
    assert list(report.violations) == _all_pairs_stage(maximal)


def _bad(c1, c2):
    return (f"intersection of {canonical_key(c1)} and "
            f"{canonical_key(c2)} is not a common face")


def test_meet_in_common_face_ray_rule():
    orthant = Cone.orthant_section(3)
    for ray, ok in [((1, 0, 0), True),     # an extreme ray of the orthant
                    ((1, 1, 0), False),    # inside a 2-D face
                    ((1, 1, 1), False)]:   # in the interior
        r = Cone.from_generators(3, [ray])
        for args in [(r, {ray}, orthant, set(orthant.rays())),
                     (orthant, set(orthant.rays()), r, {ray})]:
            assert _meet_in_common_face(*args) is ok
    plane = Cone.orthant_section(3, [(0, 0, 1)])
    outside = Cone.from_generators(3, [(0, 0, 1)])
    assert _meet_in_common_face(outside, {(0, 0, 1)}, plane, set(plane.rays()))


@st.composite
def orthant_cone_pairs(draw):
    """Two pointed cones in the orthant of one dimension 2-5, each from
    ``orthant_section``, ``from_generators`` of vectors in the orthant or
    ``intersect`` of two such cones. Half the time the second is spanned
    by some rays of the first and maybe the sum of others, a ray inside
    the first that is not one of its rays; such pairs often fail.

    In dimension 3-5, half the pairs are built to need a second cut (see
    :func:`_second_cut`). Coordinate y is used by C1 only, through its
    ray e_x + e_y, and coordinate x by C2 only, through its ray e_x; the
    other rays, some shared, lie on the remaining coordinates A, and C2's
    may also use x. The first cut drops e_x + e_y, so G1 lies on A while
    G2 holds e_x, and the second cut compares the faces left on A, which
    cross when the rays on A do."""
    d = draw(st.integers(2, 5))
    row = st.tuples(*[st.integers(-3, 3)] * d)
    vector = st.tuples(*[st.integers(0, 3)] * d)

    def cone():
        how = draw(st.sampled_from(("orthant", "generators", "intersect")))
        if how == "orthant":
            return Cone.orthant_section(d, draw(st.lists(row, max_size=d - 1)))
        if how == "generators":
            return Cone.from_generators(d, draw(st.lists(vector, max_size=5)))
        return intersect_cones(cone(), cone())

    if d > 2 and draw(st.booleans()):
        y, x, *a = draw(st.permutations(range(d)))

        def on(coords, **size):
            return st.lists(st.dictionaries(
                st.sampled_from(coords), st.integers(1, 2), min_size=1,
                max_size=2).map(lambda v: tuple(v.get(k, 0) for k in range(d))),
                max_size=2, **size)

        shared = draw(on(a, min_size=1))
        c1 = Cone.from_generators(d, shared + draw(on(a)) + [
            tuple(int(k in (x, y)) for k in range(d))])
        c2 = Cone.from_generators(d, shared + draw(on(a + [x])) + [
            tuple(int(k == x) for k in range(d))])
        return (c1, c2) if draw(st.booleans()) else (c2, c1)

    c1 = cone()
    rays = c1.rays()
    if not rays or draw(st.booleans()):
        return c1, cone()
    gens = set(draw(st.lists(st.sampled_from(rays), max_size=3)))
    if len(rays) > 1 and draw(st.booleans()):
        summed = draw(st.sets(st.sampled_from(rays), min_size=2))
        gens.add(tuple(map(sum, zip(*summed))))
    c2 = Cone.from_generators(d, gens)
    return (c1, c2) if draw(st.booleans()) else (c2, c1)


def _support(rays):
    return {k for r in rays for k, x in enumerate(r) if x}


def _second_cut(c1, c2):
    """Whether the common-support cut of two pointed cones in the orthant
    is repeated: the first cut leaves faces G1 and G2, not both single
    rays and neither the origin, whose supports do not both fill S."""
    s = _support(c1.rays()) & _support(c2.rays())
    g1, g2 = ([r for r in c.rays() if _support([r]) <= s] for c in (c1, c2))
    return (bool(g1 and g2) and len(g1) + len(g2) > 2
            and _support(g1) & _support(g2) != s)


def _pair_views(*cones):
    """The sorted rays of ``cones`` and each cone's :func:`_pair_view` as a
    mask over them."""
    rays = tuple(sorted({r for c in cones for r in c.rays()}))
    supports = [sum(1 << k for k, x in enumerate(r) if x) for r in rays]
    return rays, [_pair_view(c, sum(1 << rays.index(r) for r in c.rays()), supports)
                  for c in cones]


def _meets_on_common_support(c1, c2):
    rays, (v1, v2) = _pair_views(c1, c2)
    return _meet_on_common_support(rays, v1, v2)


def test_meet_on_common_support_matches_full_cones():
    repeated = []

    @settings(deadline=None, derandomize=True, database=None, max_examples=400)
    @given(orthant_cone_pairs())
    def check(pair):
        c1, c2 = pair
        assert c1.is_pointed() and c2.is_pointed()
        full = _meet_in_common_face(c1, set(c1.rays()), c2, set(c2.rays()))
        assert _meets_on_common_support(c1, c2) is full
        repeated.append((_second_cut(c1, c2), full))

    check()
    # the draws reach the second cut, and some of those pairs fail
    assert repeated.count((True, True)) >= 50
    assert repeated.count((True, False)) >= 5


def test_meet_on_common_support_examples(monkeypatch):
    orthant = Cone.orthant_section(3)
    # each ray's bit over the sorted rays (0, 0, 1), (0, 1, 0), (1, 0, 0),
    # with its support
    assert _pair_views(orthant) == (
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)), [(orthant, [(1, 4), (2, 2), (4, 1)], 7)])
    plane = Cone.orthant_section(3, [(1, 0, 0)])     # spanned by e2 and e3
    floor = Cone.orthant_section(3, [(0, 0, 1)])     # spanned by e1 and e2
    tilted = Cone.from_generators(3, [(1, 1, 0), (0, 0, 1)])
    ray = {v: Cone.from_generators(3, [v])
           for v in [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)]}

    def gens(d, *vectors):
        return Cone.from_generators(d, vectors)

    # the orthant's 3-D faces e1, e2, e3 and e1, e2, e4 in R^4
    solid = tuple(gens(4, (1, 0, 0, 0), (0, 1, 0, 0), e)
                  for e in [(0, 0, 1, 0), (0, 0, 0, 1)])
    two_cuts = (gens(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 0)),
                gens(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                     (0, 0, 0, 0, 1)))
    for c1, c2, ok in [
            (orthant, ray[(1, 0, 0)], True),     # a ray of the orthant
            (orthant, ray[(0, 1, 1)], False),    # inside a 2-D face
            (orthant, ray[(1, 1, 1)], False),    # in the interior
            (plane, ray[(1, 0, 0)], True),       # no common support
            (plane, ray[(0, 1, 0)], True),       # a ray of the plane
            (plane, ray[(0, 1, 1)], False),      # inside the plane
            (plane, ray[(1, 1, 1)], True),       # support not inside S
            (plane, floor, True),                # one common unit ray
            # on S = {0, 1} the tilted cone's face is the ray (1, 1, 0),
            # which lies inside the floor but is not one of its rays
            (floor, tilted, False),
            # on S = {1, 2} the tilted cone's face is e3, a ray of the plane
            (plane, tilted, True),
            # on S = {0, 1} the floor is a face of the orthant: equal faces
            (orthant, floor, True),
            # on S = {0, 1} both faces are cone(e1, e2): equal faces
            (*solid, True),
            # on S = {0, 1, 2} G1 is cone(e1, e2) and G2 cone(e1, e2, e3),
            # so a second cut, to S = {0, 1}, leaves equal faces
            (*two_cuts, True),
            # the same, with G2 cone(e1 + e2, e3): the second cut leaves
            # the ray e1 + e2 of G2, inside G1 and not one of its rays
            (gens(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 0)),
             gens(5, (1, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)), False),
            # on S = {0, 1} both faces have support S but different rays:
            # cone(e1, e1 + 2 e2) and cone(2 e1 + e2, e2) cross
            (gens(3, (1, 0, 0), (1, 2, 0)),
             gens(3, (2, 1, 0), (0, 1, 0), (0, 0, 1)), False)]:
        for a, b in [(c1, c2), (c2, c1)]:
            assert _meets_on_common_support(a, b) is ok
            assert _meet_in_common_face(a, set(a.rays()), b, set(b.rays())) is ok
    # equal faces, after one cut or two, pass with no intersection
    runs = _counted(monkeypatch, cones_module, "_double_description")
    for a, b in [(orthant, floor), solid, two_cuts]:
        assert _meets_on_common_support(a, b)
    assert runs == []


def test_verify_fan_reports_ray_inside_a_cone():
    orthant = Cone.orthant_section(2)
    inside = Cone.orthant_section(2, [(1, -1)])
    cones = {canonical_key(f): f for c in (orthant, inside) for f in faces(c)}
    report = verify_fan(Fan(None, ((0,), (1,)), list(cones.values()), {},
                            frozenset()))
    assert report.violations == (_bad(orthant, inside),)
    # in 3-D a ray inside a 2-D face of the orthant is reported against the
    # orthant only; the all-pairs check also names the face, not maximal
    solid = Cone.orthant_section(3)
    ray = Cone.orthant_section(3, [(1, -1, 0), (0, 0, 1)])
    cones = list({canonical_key(f): f for c in (solid, ray)
                  for f in faces(c)}.values())
    report = verify_fan(Fan(None, ((0,), (1,), (2,)), cones, {}, frozenset()))
    reference = _all_pairs_stage(cones)
    assert len(reference) == 2
    assert report.violations == (_bad(solid, ray),)
    assert _is_ordered_subset(report.violations, reference)


def test_verify_fan_with_a_repeated_cone():
    orthant = Cone.orthant_section(2)
    cones = list(faces(orthant)) + [Cone.orthant_section(2)]
    assert verify_fan(Fan(None, ((0,), (1,)), cones, {}, frozenset())).ok
    inside = Cone.orthant_section(2, [(1, -1)])
    cones += [Cone.orthant_section(2, [(1, -1)])] + faces(inside)
    report = verify_fan(Fan(None, ((0,), (1,)), cones, {}, frozenset()))
    # both copies of the orthant and of the interior ray are maximal
    assert report.violations == (_bad(orthant, inside),) * 4
    assert list(report.violations) == _all_pairs_stage(cones)


def test_verify_fan_keeps_a_cone_that_is_not_pointed_on_the_rays_of_another():
    # the line x = y has no rays, as the origin has none, so both have the
    # empty mask; the index keeps the line, in either order, and the first
    # stage reports it
    origin = Cone(2, equalities=[(1, 0), (0, 1)], inequalities=[(1, 0), (0, 1)])
    line = Cone(2, equalities=[(1, -1)])
    assert origin.rays() == line.rays() == ()
    for cones in ([origin, line], [line, origin]):
        report = verify_fan(Fan(None, ((0,), (1,)), cones, {}, frozenset()))
        assert report.violations == ("cone (((1, 1),), ()) not pointed",)


def test_verify_fan_names_the_missing_faces_of_a_repeated_cone_once_per_listing():
    solid = Cone.orthant_section(3)
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    origin = Cone(3, equalities=units, inequalities=units)
    cones = [solid, origin, Cone.orthant_section(3)]
    report = verify_fan(Fan(None, ((0,), (1,), (2,)), cones, {}, frozenset()))
    missing = tuple(f"face {canonical_key(f)} of {canonical_key(solid)} missing"
                    for f in faces(solid)[1:-1])
    assert len(missing) == 6
    assert report.violations == missing * 2


@pytest.mark.parametrize("graphs", [corpus(), [necklace(3, 3, 3)], [ladder(5)]],
                         ids=["corpus", "neck3x3", "ladder5"])
def test_hand_built_copies_give_the_same_answers(graphs):
    # a fan built by hand from a built fan's cones gets its own index, and
    # answers every question as the built fan does
    for g in graphs:
        built = build_fan(g)
        copy = Fan(built.graph, built.edge_order, list(built.cones),
                   dict(built.witnesses), built.maximal_keys)
        assert emit_fan_json(copy) == emit_fan_json(built)
        assert copy.ray_list() == built.ray_list()
        assert verify_fan(copy) == verify_fan(built)
        assert ([canonical_key(c) for c in copy.maximal_cones()]
                == [canonical_key(c) for c in built.maximal_cones()])


def test_verify_fan_ignores_maximal_keys():
    fan = build_fan(banana(3, 6))
    every = frozenset(canonical_key(c) for c in fan.cones)
    for keys in (frozenset(), every, frozenset([((), ())])):
        assert verify_fan(Fan(fan.graph, fan.edge_order, fan.cones,
                              fan.witnesses, keys)).ok
    orthant = Cone.orthant_section(2)
    inside = Cone.orthant_section(2, [(1, -1)])
    cones = list(faces(orthant)) + [inside]
    expected = (_bad(orthant, inside),)
    for keys in (frozenset(), frozenset([canonical_key(orthant)]),
                 frozenset(canonical_key(c) for c in cones)):
        report = verify_fan(Fan(None, ((0,), (1,)), cones, {}, keys))
        assert report.violations == expected


def test_fan_relabel_invariance():
    g = banana(3, 6)
    # reversed edge naming permutes the ambient coordinates; vertex names
    # do not enter the coordinates at all
    relabeled = {"e1": "z3", "e2": "z2", "e3": "z1"}
    import flowfan
    g2 = flowfan.Graph.build(
        {"a": 0, "b": 0},
        [(relabeled[f"e{i}"], "a", "b") for i in (1, 2, 3)],
        [("p", "a", 6), ("q", "b", -6)], 0)
    fan1 = build_fan(g)
    fan2 = build_fan(g2)
    # coordinate permutation: edge ei of g matches z(4-i) of g2; g2's sorted
    # edge order is (z1, z2, z3) = (e3, e2, e1)
    perm = (2, 1, 0)
    rays1 = {tuple(r[p] for p in perm) for r in fan1.ray_list()}
    assert rays1 == set(fan2.ray_list())
    assert len(fan1.cones) == len(fan2.cones)


def test_check_contraction_compat_examples():
    g = banana(3, 10)
    report = check_contraction_compat(g, [("e1", 0), ("e2", 0)])
    assert report.ok and report.checked > 0
    g2 = two_gon(3)
    report2 = check_contraction_compat(g2, g2.edges())
    assert report2.ok
    gt = path_graph(2, leg_weights=(1, -1))
    report3 = check_contraction_compat(gt, [("e0", 0)])
    assert report3.ok
    with pytest.raises(UnknownEdge):
        check_contraction_compat(g, [("nope", 0)])


def _ref_is_positive_cycle(g, w, S):
    """Reference: S is the edge set of a simple cycle of G, one of whose
    two orientations w makes positive on every half."""
    return any(all(w.values[h] > 0 for h in orient.halves)
               for cyc in enumerate_cycles(g) if cyc.edge_set(g) == S
               for orient in (cyc, cyc.reversed(g)))


def _compat_positive(monkeypatch, g, S, pairs):
    """For each (cone, weighting) of ``pairs``, whether
    ``check_contraction_compat`` takes S to be a positive cycle for the
    weighting. It is handed ``pairs`` as the catalog and a key that
    matches no cone, so it reports an equality violation for exactly
    those weightings."""
    monkeypatch.setattr(fan_module, "cone_catalog", lambda h: pairs)
    monkeypatch.setattr(fan_module, "canonical_key", lambda c: None)
    report = check_contraction_compat(g, S)
    assert report.checked == len(pairs)
    assert not any(v.startswith("inclusion") for v in report.violations)
    return [f"equality fails for witness {w.flows()}" in report.violations
            for _, w in pairs]


def test_compat_positive_cycle_rule_matches_cycle_enumeration(monkeypatch):
    # every one- and two-edge S of 40 corpus graphs, 239 sets, for every
    # witness: 1,139 verdicts, 57 of them positive
    cases = [(g, cone_catalog(g)) for g in corpus(40)]
    cycle_searches = _counted(monkeypatch, fan_module, "_cycle_search")
    checked = positive = 0
    for g, pairs in cases:
        for S in map(frozenset, _edge_sets(g, (1, 2))):
            want = [_ref_is_positive_cycle(g, w, S) for _, w in pairs]
            assert _compat_positive(monkeypatch, g, S, pairs) == want
            checked += len(want)
            positive += sum(want)
    assert cycle_searches == []
    assert (checked, positive) == (1139, 57)


def test_compat_positive_cycle_rule_on_hand_built_cases(monkeypatch):
    two_loops = Graph.build({"u": 0, "v": 0},
                            [("a", "u", "u"), ("b", "v", "v"), ("c", "u", "v")],
                            [("p", "u", 2), ("q", "v", -2)])
    theta, loop, tri = banana(3, 2), loop_graph(), ring(3, 2)
    cases = [
        # the whole theta is no cycle, though e1 and e2 form a positive one
        (theta, {("e1", 0): 2, ("e2", 0): -1, ("e3", 0): 1}, theta.edges(), False),
        (theta, {("e1", 0): 2, ("e2", 0): -1, ("e3", 0): 1}, [("e1", 0), ("e2", 0)], True),
        # two disjoint positive loops are two cycles
        (two_loops, {("a", 0): 1, ("b", 0): -2, ("c", 0): 2}, [("a", 0), ("b", 0)], False),
        (two_loops, {("a", 0): 1, ("b", 0): -2, ("c", 0): 2}, [("b", 0)], True),
        (loop, {("e1", 0): 3}, loop.edges(), True),
        (loop, {("e1", 0): 0}, loop.edges(), False),
        # e01 and e02 run along the triangle, e00 carries nothing
        (tri, {("e00", 0): 0, ("e01", 0): -2, ("e02", 0): -2}, tri.edges(), False),
        (tri, {("e00", 0): -1, ("e01", 0): -3, ("e02", 0): -3}, tri.edges(), True),
    ]
    for g, flows, S, expected in cases:
        w = flows_weighting(g, flows)
        S = frozenset(S)
        assert _ref_is_positive_cycle(g, w, S) == expected
        assert _compat_positive(monkeypatch, g, S, [(cone_of_weighting(g, w), w)]) == [
            expected]


def test_decomposition_on_positive_cycle():
    g = two_gon(3)
    w = flows_weighting(g, {("e1", 0): 4, ("e2", 0): -1})
    cyc = find_positive_cycle(g, w)
    assert cyc is not None
    c_w = cone_of_weighting(g, w)
    assert canonical_key(c_w) == ((), ())  # both sides are the origin


def test_embed_cone_inclusion_for_any_contraction():
    from flowfan import contract, restrict_weighting
    rng = random.Random(91)
    for g in corpus(15, seed=97):
        edges = g.edges()
        if not edges:
            continue
        S = frozenset(rng.sample(edges, rng.randint(1, len(edges))))
        res = contract(g, S)
        w = base_weighting(g)
        small = res.contracted.edges()
        c_small = cone_of_weighting(res.contracted, restrict_weighting(g, w, res))
        # the cone the catalog builds in G's edges from the padded rays
        emb = Cone._pointed(len(edges), tuple(edges), None,
                            cones_module._orthant_rows(len(edges)),
                            fan_module._padding(edges, small)(c_small.rays()))
        c = cone_of_weighting(g, w)
        assert all(c.contains(r) for r in emb.rays())
        # the padded rays are those a double description run finds
        rows = [tuple(dict(zip(small, a)).get(e, 0) for e in edges)
                for a in c_small.equalities]
        rows += [tuple(int(f == e) for f in edges) for e in S]
        solved = Cone.orthant_section(len(edges), rows, labels=edges)
        assert (emb.inequalities, emb.labels) == (
            solved.inequalities, solved.labels)
        assert span_rule_holds(emb, solved)
        assert (emb.rays(), emb.lineality(), emb.dim()) == (
            solved.rays(), solved.lineality(), solved.dim())


def test_slice_two_gon():
    fan = build_fan(two_gon(3))
    sl = slice_fan(fan)
    assert sl.ambient_dim == 2
    points = [c for c in sl.cells if c.dim == 0]
    assert len(points) == 4
    # a vertex is a primitive ray r, the barycentric point r / sum(r)
    coords = sorted(Fraction(r[1], sum(r)) for c in points for r in c.vertices)
    assert coords == [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]


def test_slice_banana():
    fan = build_fan(banana(3, 10))
    sl = slice_fan(fan)
    points = [c for c in sl.cells if c.dim == 0]
    segments = [c for c in sl.cells if c.dim == 1]
    assert len(points) == 36
    assert len(segments) == 3
    for c in sl.cells:
        for r in c.vertices:
            assert sum(Fraction(x, sum(r)) for x in r) == 1
            assert min(r) >= 0 and gcd(*r) == 1
        assert c.flows


def test_slice_polygon_cell():
    fan = build_fan(path_graph(3, leg_weights=(1, -1)))
    sl = slice_fan(fan)
    assert [c.dim for c in sl.cells] == [2]
    assert len(sl.cells[0].vertices) == 3


def test_slice_orders_a_polygon_by_its_facet_cycle():
    # hand-built fans with one pointed 3-cone on 3 to 7 rays: the polygon
    # starts at the least barycentric point, each two neighbours span a
    # facet, and every turn is counterclockwise in the (t2, t3) chart
    base = build_fan(path_graph(3, leg_weights=(1, -1)))
    (orthant,) = base.maximal_cones()
    witness = base.witnesses[canonical_key(orthant)]
    rng = random.Random(5)
    seen = set()
    while len(seen) < 60:
        gens = [tuple(rng.randint(0, 6) for _ in range(3))
                for _ in range(rng.randint(3, 8))]
        c = Cone.from_generators(3, [v for v in gens if any(v)])
        if c.dim() != 3 or canonical_key(c) in seen:
            continue
        seen.add(canonical_key(c))
        k = canonical_key(c)
        fan = Fan(base.graph, base.edge_order, [c], {k: witness}, frozenset({k}))
        (cell,) = slice_fan(fan).cells
        vs = cell.vertices
        assert cell.dim == 2 and sorted(vs) == sorted(c.rays())
        bary = [tuple(Fraction(x, sum(r)) for x in r) for r in vs]
        assert bary[0] == min(bary)
        facets = {frozenset(f) for f in cones_module._facet_rays(c)}
        n = len(vs)
        for i in range(n):
            assert frozenset((vs[i], vs[(i + 1) % n])) in facets
            (_, p2, p3), (_, a2, a3), (_, b2, b3) = (
                bary[i], bary[(i + 1) % n], bary[(i + 2) % n])
            assert (a2 - p2) * (b3 - p3) - (a3 - p3) * (b2 - p2) > 0


@pytest.mark.parametrize("g", [two_gon(3), banana(3, 10), path_graph(3, leg_weights=(1, -1))],
                         ids=["two_gon(3)", "banana(3,10)", "path(3)"])
def test_slice_reads_maximal_cones_off_the_index(monkeypatch, g):
    # slicing a built fan reads its maximal cones and their witnesses off
    # its index, with no view of its cones built; they are the views'
    cones, witnesses, maximal_keys = fan_module._views(build_fan(g)._closure)
    expected = [c for c in cones if canonical_key(c) in maximal_keys]

    def no_views(closure):
        raise AssertionError("a view of the fan's cones was built")

    monkeypatch.setattr(fan_module, "_views", no_views)
    fan = build_fan(g)
    description = slice_fan(fan)
    assert fan.maximal_cones() == expected
    cells = {(cell.dim, frozenset(cell.vertices)): cell.flows
             for cell in description.cells}
    assert cells == {(c.dim() - 1, frozenset(c.rays())):
                     tuple(witnesses[canonical_key(c)].flows().items())
                     for c in expected if c.dim() >= 1}
    with pytest.raises(AssertionError, match="view"):
        fan.cones


def test_slice_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        slice_fan(build_fan(loop_graph()))
    with pytest.raises(UnsupportedDimension):
        slice_fan(build_fan(banana(4, 2)))


def test_four_edge_banana_catalog():
    # first Betti number 3 exercises a two-level contraction recursion:
    # 4 facet cones {t_i = 0}, 6 coordinate planes, 4 axes and the origin
    g = banana(4, 2)
    cat = cone_catalog(g)
    assert len(cat) == 15
    by_dim = {}
    for c, w in cat:
        by_dim.setdefault(c.dim(), []).append(c)
        assert canonical_key(cone_of_weighting(g, w)) == canonical_key(c)
    assert {d: len(cs) for d, cs in by_dim.items()} == {0: 1, 1: 4, 2: 6, 3: 4}
    fan = build_fan(g)
    assert len(fan.cones) == 15
    assert len(fan.maximal_keys) == 4
    assert verify_fan(fan).ok


def test_twisted_double_loop_fan():
    # twist 1 forces the legs to balance 2g(v) - 2 + val(v) = 2; the loop
    # flows are unconstrained, so the fan is the face lattice of the orthant
    import flowfan
    g = flowfan.Graph.build({"u": 0},
                            [("e1", "u", "u"), ("e2", "u", "u")],
                            [("p", "u", -1), ("q", "u", -1)], 1)
    fan = build_fan(g)
    assert len(fan.cones) == 4
    assert len(fan.maximal_keys) == 1
    top = fan.maximal_cones()[0]
    assert top.rays() == ((0, 1), (1, 0))
    assert verify_fan(fan).ok


def test_distinct_maximal_cones_share_no_interior_vector():
    for g in [two_gon(4), banana(3, 6)]:
        fan = build_fan(g)
        maxima = fan.maximal_cones()
        for c in maxima:
            rays = c.rays()
            if not rays:
                continue
            interior = tuple(sum(col) for col in zip(*rays))
            if any(x == 0 for x in interior):
                continue  # not positive on all edges
            for other in maxima:
                if canonical_key(other) != canonical_key(c):
                    assert not other.contains(interior)


def _coordinate_face_mismatches(g, edge_sets):
    """The edge sets K for which the cones of ``build_fan(g)`` whose rays
    all vanish on K are not the cones of ``build_fan(G/K)`` padded with
    zeros on K."""
    fan = build_fan(g)
    edges = fan.edge_order
    bad = []
    for K in map(frozenset, edge_sets):
        off = [i for i, e in enumerate(edges) if e in K]
        on_face = {c.rays() for c in fan.cones
                   if all(r[i] == 0 for r in c.rays() for i in off)}
        small = contract(g, K).contracted
        pad = fan_module._padding(edges, small.edges())
        if on_face != {pad(c.rays()) for c in build_fan(small).cones}:
            bad.append(K)
    return bad


def _edge_sets(g, sizes):
    return [K for k in sizes for K in combinations(g.edges(), k)]


@pytest.mark.parametrize("g, sizes", [(banana(4, 3), (1, 2, 3, 4)),
                                      (necklace(3, 3, 3), (1, 2))],
                         ids=["banana(4,3)", "neck3x3"])
def test_coordinate_faces_are_the_fans_of_contractions(g, sizes):
    # the fan restricted to the coordinate face where K vanishes is the
    # fan of G/K: 15 edge sets of banana(4,3) and 45 of neck3x3
    edge_sets = _edge_sets(g, sizes)
    assert len(edge_sets) in (15, 45)
    assert _coordinate_face_mismatches(g, edge_sets) == []


def test_coordinate_faces_of_one_edge_on_the_corpus():
    checked = 0
    for g in corpus():
        edge_sets = _edge_sets(g, (1,))
        assert _coordinate_face_mismatches(g, edge_sets) == []
        checked += len(edge_sets)
    assert checked == 521


def test_coordinate_face_check_sees_a_dropped_catalog_cone(monkeypatch):
    # drop neck3x3's first catalog cone that is maximal in its fan, which
    # vanishes on its first edge, and with it the faces no other catalog
    # cone has; the catalogs of G/K keep all their cones
    g = necklace(3, 3, 3)
    maximal = build_fan(g).maximal_keys
    catalog = cone_catalog(g)
    dropped = next(c for c, _ in catalog if canonical_key(c) in maximal)
    original = fan_module.cone_catalog

    def mutated(h):
        if h is g:
            return [(c, w) for c, w in catalog if c is not dropped]
        return original(h)

    monkeypatch.setattr(fan_module, "cone_catalog", mutated)
    bad = _coordinate_face_mismatches(g, _edge_sets(g, (1, 2)))
    assert frozenset([g.edges()[0]]) in bad


@settings(deadline=None, derandomize=True, database=None, max_examples=100,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(small_graphs(min_betti=3, max_weight=3).filter(lambda g: flow_bound(g) > 0))
def test_coordinate_faces_of_one_edge_on_generated_graphs(g):
    # with no vertex demand the fan is the orthant's, so such graphs are
    # left out
    assert _coordinate_face_mismatches(g, _edge_sets(g, (1,))) == []


def _relabelled(g, vertex_id, edge_id):
    """``g`` with each vertex v renamed ``vertex_id(v)`` and each edge e
    renamed ``edge_id(e)``, legs kept."""
    edges = [(edge_id(e[0]), vertex_id(g.source(e)), vertex_id(g.target(e)))
             for e in g.edges()]
    legs = [(h[0], vertex_id(g.end[h]), g.leg_weights[h]) for h in g.legs()]
    return Graph.build({vertex_id(v): g.genus_of[v] for v in g.vertices()},
                       edges, legs, g.twist)


def _fan_by_position(g):
    fan = build_fan(g)
    return (fan.ray_list(),
            [(c.dim(), c.rays(), canonical_key(c) in fan.maximal_keys)
             for c in fan.cones],
            [tuple(fan.witnesses[canonical_key(c)].flows().values())
             for c in fan.cones])


@pytest.mark.parametrize("g", [necklace(3, 3, 3), complete_graph((2, -2, 0, 0, 0))],
                         ids=["neck3x3", "K5"])
def test_strictly_increasing_relabelling_keeps_the_fan(g):
    # vertices become ints and edges get a common prefix, both in the
    # order of the old ids, so every position is kept
    rank = {v: i for i, v in enumerate(sorted(g.vertices(), key=sort_key))}
    h = _relabelled(g, lambda v: 3 * rank[v] + 7, lambda e: f"x{e}")
    assert [e[0] for e in h.edges()] == [f"x{e[0]}" for e in g.edges()]
    assert ([canonical_key(c) for c, _ in cone_catalog(h)]
            == [canonical_key(c) for c, _ in cone_catalog(g)])
    assert _fan_by_position(h) == _fan_by_position(g)
