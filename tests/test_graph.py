import random
from dataclasses import fields

import pytest

from flowfan import (Graph, UnknownEdge, UnknownVertex, base_weighting,
                     canonical_degree, contract, cycle_basis, enumerate_cycles,
                     graph_genus, lift_weighting, stability_report, validate_graph)
from flowfan import fan as fan_module
from flowfan import graph as graph_module
from flowfan.graph import GraphIndex, _spanning_forest, sort_key
from flowfan.linalg import int_rank, solve_left

from helpers import (banana, complete_graph, corpus, loop_graph, necklace,
                     one_edge_genus1, path_graph, two_gon, wheel)


def test_validate_two_gon_ok():
    report = validate_graph(two_gon(3))
    assert report.ok


def test_validate_leg_sum_mismatch():
    g = Graph.build({"u": 0, "v": 0},
                    [("e1", "u", "v"), ("e2", "u", "v")],
                    [("p", "u", 3), ("q", "v", -2)], 0)
    report = validate_graph(g)
    assert not report.ok
    assert "LegSumMismatch" in report.codes()


def test_validate_malformed_involution():
    g = Graph(genus_of={"u": 0},
              end={"h1": "u", "h2": "u", "h3": "u"},
              involution={"h1": "h2", "h2": "h3", "h3": "h1"},
              leg_weights={}, twist=0)
    report = validate_graph(g)
    assert not report.ok
    assert "MalformedInvolution" in report.codes()


def test_validate_disconnected_and_negative_genus():
    g = Graph.build({"u": 0, "v": -1}, [], [], 0)
    report = validate_graph(g)
    assert "Disconnected" in report.codes()
    assert "NegativeGenus" in report.codes()
    g = Graph.build({"a": 0, "b": 0, "c": 0}, [("e", "a", "b")], [], 0)
    report = validate_graph(g)
    assert report.problems == (("Disconnected", "1 vertices unreachable"),)


def test_validate_graph_without_vertices():
    report = validate_graph(Graph({}, {}, {}, {}, 0))
    assert report.problems == (("Disconnected", "graph has no vertices"),)


def test_genus_examples():
    assert graph_genus(two_gon(3)) == 1
    assert graph_genus(banana(3, 10)) == 2
    g = Graph.build({"u": 1, "v": 1}, [("e1", "u", "v")], [], 0)
    assert graph_genus(g) == 2


def test_canonical_degree_examples():
    assert canonical_degree(two_gon(3), "u") == 0
    assert canonical_degree(banana(3, 10), "u") == 1
    assert canonical_degree(one_edge_genus1(), "v") == 1
    with pytest.raises(UnknownVertex):
        canonical_degree(two_gon(3), "w")


def test_degree_sum_identity():
    for g in [two_gon(3), banana(3, 10), loop_graph(), one_edge_genus1()]:
        total = sum(canonical_degree(g, v) for v in g.vertices())
        assert total == 2 * graph_genus(g) - 2


def test_cycle_basis_two_gon():
    g = two_gon(3)
    basis = cycle_basis(g)
    assert len(basis) == 1
    inc = basis[0].incidence(g)
    e1, e2 = g.edges()
    assert {abs(inc[e1]), abs(inc[e2])} == {1}
    assert inc[e1] == -inc[e2]


def test_cycle_basis_counts():
    assert len(cycle_basis(banana(3, 10))) == 2
    assert len(cycle_basis(path_graph(3))) == 0
    assert len(cycle_basis(loop_graph())) == 1


def test_cycle_basis_rank():
    for g in [two_gon(2), banana(3, 4), loop_graph()]:
        basis = cycle_basis(g)
        edges = g.edges()
        rows = [c.incidence_vector(g, edges) for c in basis]
        assert int_rank(rows) == len(edges) - len(g.vertices()) + 1


def test_enumerate_cycles_examples():
    assert len(enumerate_cycles(banana(3, 10))) == 3
    assert len(enumerate_cycles(loop_graph())) == 1
    assert len(enumerate_cycles(path_graph(3))) == 0


def test_enumerated_cycles_decompose_over_basis():
    for g in [banana(3, 4), two_gon(2), loop_graph()]:
        edges = g.edges()
        basis_rows = [c.incidence_vector(g, edges) for c in cycle_basis(g)]
        for cyc in enumerate_cycles(g):
            coeffs = solve_left(basis_rows, cyc.incidence_vector(g, edges))
            assert coeffs is not None
            assert all(x.denominator == 1 for x in coeffs)


def test_contract_two_gon_edge():
    g = two_gon(3)
    res = contract(g, [("e1", 0)])
    gc = res.contracted
    assert len(gc.genus_of) == 1
    assert list(gc.genus_of.values()) == [0]
    assert gc.edges() == [("e2", 0)]
    assert gc.is_loop(("e2", 0))
    assert len(gc.legs()) == 2
    assert graph_genus(gc) == 1


def test_contract_loop_increments_genus():
    g = loop_graph(genus=1)
    res = contract(g, g.edges())
    gc = res.contracted
    assert gc.edges() == []
    assert list(gc.genus_of.values()) == [2]
    assert graph_genus(gc) == 2


def test_contract_banana_edge():
    g = banana(3, 10)
    res = contract(g, [("e1", 0)])
    gc = res.contracted
    assert len(gc.genus_of) == 1
    assert len(gc.edges()) == 2
    assert all(gc.is_loop(e) for e in gc.edges())
    assert graph_genus(gc) == 2


def test_contract_unknown_edge():
    with pytest.raises(UnknownEdge):
        contract(two_gon(3), [("nope", 0)])


def test_contract_composition():
    rng = random.Random(7)
    for g in corpus(25, seed=11):
        edges = g.edges()
        if len(edges) < 2:
            continue
        k = rng.randint(1, len(edges))
        S = set(rng.sample(edges, k))
        rest = [e for e in edges if e not in S]
        S2 = set(rng.sample(rest, rng.randint(0, len(rest))))
        once = contract(g, S | S2).contracted
        twice = contract(contract(g, S).contracted, S2).contracted
        assert once == twice


def test_contract_degree_additivity():
    g = banana(4, 6)
    res = contract(g, [("e1", 0), ("e2", 0)])
    gc = res.contracted
    merged = list(gc.genus_of)[0]
    total_before = sum(canonical_degree(g, v) for v in g.vertices())
    assert canonical_degree(gc, merged) == total_before


def test_stability_report():
    # a genus-0 vertex with two half-edges and no legs is unstable
    g = two_gon(0)
    assert stability_report(g) == []
    g2 = Graph.build({"u": 0, "v": 0}, [("e1", "u", "v"), ("e2", "u", "v")], [], 0)
    assert set(stability_report(g2)) == {"u", "v"}


def test_corpus_graphs_valid():
    for g in corpus(40, seed=3):
        assert validate_graph(g).ok
        assert len(g.edges()) <= 5
        assert len(g.genus_of) <= 4
        assert len(g.edges()) - len(g.genus_of) + 1 <= 2
        total = sum(canonical_degree(g, v) for v in g.vertices())
        assert total == 2 * graph_genus(g) - 2


# -- the cached order index against per-call sort_key references ------------


def mixed_id_graph():
    """Vertices and half-edges with int, str and tuple ids side by side: a
    triangle on 0, "v", ("w", 1), a loop at 0 and two legs."""
    pairs = [(1, "a"), (("t", 0), 7), ("b", 2), (3, ("t", 1))]
    end = {1: 0, "a": "v", ("t", 0): "v", 7: ("w", 1), "b": ("w", 1), 2: 0,
           3: 0, ("t", 1): 0, "leg": 0, (5,): "v"}
    involution = {"leg": "leg", (5,): (5,)}
    for h, p in pairs:
        involution[h], involution[p] = p, h
    return Graph({0: 0, "v": 1, ("w", 1): 0}, end, involution,
                 {"leg": 1, (5,): -1}, 0)


def _sorted(ids):
    return sorted(ids, key=sort_key)


def _ref_edge_of(g, h):
    p = g.involution[h]
    return h if sort_key(h) <= sort_key(p) else p


def _ref_non_leg_halves_at(g, v):
    return _sorted(h for h, w in g.end.items() if w == v and g.involution[h] != h)


def _ref_canonical(g, halves, allow_reversal):
    cands = [halves[i:] + halves[:i] for i in range(len(halves))]
    if allow_reversal:
        back = tuple(g.involution[h] for h in reversed(halves))
        cands += [back[i:] + back[:i] for i in range(len(back))]
    return min(cands, key=lambda t: [sort_key(h) for h in t])


def _target(g, h):
    return g.end[g.involution[h]]


def _ref_enumerate_cycles(g):
    found = set()

    def extend(path, used, interior):
        v = _target(g, path[-1])
        if v == g.end[path[0]]:
            found.add(_ref_canonical(g, tuple(path), True))
        elif v not in interior:
            for h in _ref_non_leg_halves_at(g, v):
                e = _ref_edge_of(g, h)
                if e not in used:
                    extend(path + [h], used | {e}, interior | {v})

    for h in _sorted(h for h in g.end if g.involution[h] != h):
        extend([h], {_ref_edge_of(g, h)}, set())
    return sorted(found, key=lambda t: (len(t), [sort_key(h) for h in t]))


def _ref_forest(g, S=None):
    """DFS forest over the edges in S (all edges if None), trees started
    from the vertices in sort_key order: (order, root, parent)."""
    order, root, parent = [], {}, {}
    for r in _sorted(g.genus_of):
        if r in root:
            continue
        root[r] = r
        stack = [r]
        while stack:
            v = stack.pop()
            order.append(v)
            for h in _ref_non_leg_halves_at(g, v):
                w = _target(g, h)
                if (S is None or _ref_edge_of(g, h) in S) and w not in root:
                    root[w] = r
                    parent[w] = g.involution[h]
                    stack.append(w)
    return order, root, parent


def _ref_cycle_basis(g):
    _, _, parent = _ref_forest(g)

    def up(x):
        """Tree halves from x to the root."""
        out = []
        while x in parent:
            out.append(parent[x])
            x = _target(g, parent[x])
        return out

    tree = {_ref_edge_of(g, h) for h in parent.values()}
    out = []
    for e in _sorted({_ref_edge_of(g, h) for h in g.end if g.involution[h] != h}):
        if e in tree:
            continue
        a, b = up(_target(g, e)), up(g.end[e])
        while a and b and a[-1] == b[-1]:
            a.pop()
            b.pop()
        halves = (e,) + tuple(a) + tuple(g.involution[h] for h in reversed(b))
        out.append(_ref_canonical(g, halves, False))
    return out


def test_index_matches_sort_key_reference():
    for g in corpus() + [mixed_id_graph()]:
        assert g.vertices() == _sorted(g.genus_of)
        assert g.legs() == _sorted(h for h in g.end if g.involution[h] == h)
        assert g.edges() == _sorted(
            {_ref_edge_of(g, h) for h in g.end if g.involution[h] != h})
        for v in g.genus_of:
            assert g.halves_at(v) == _sorted(h for h, w in g.end.items() if w == v)
            assert g.non_leg_halves_at(v) == _ref_non_leg_halves_at(g, v)
        for h in g.end:
            assert g.edge_of(h) == _ref_edge_of(g, h)
        assert [c.halves for c in enumerate_cycles(g)] == _ref_enumerate_cycles(g)
        assert [c.halves for c in cycle_basis(g)] == _ref_cycle_basis(g)
        for e in g.edges():
            ends = (g.source(e), g.target(e))
            assert contract(g, [e]).vertex_map[ends[1]] == min(ends, key=sort_key)


def _check_inherited_index(g):
    """``g``'s index, inherited through contractions, against one built
    from scratch, and its cycles against the reference search."""
    fresh = GraphIndex.build(g)
    for f in fields(GraphIndex):
        if f.name != "rank":
            assert getattr(g.index, f.name) == getattr(fresh, f.name), f.name
    ids = set(g.genus_of).union(g.end)
    rank = g.index.rank
    assert len({rank[x] for x in ids}) == len(ids)
    assert sorted(ids, key=rank.__getitem__) == _sorted(ids)
    assert [c.halves for c in enumerate_cycles(g)] == _ref_enumerate_cycles(g)


def test_contracted_index_and_cycles_match_references():
    graphs = corpus() + [mixed_id_graph(), necklace(3, 3, 3),
                         complete_graph((2, -2, 0, 0, 0)), wheel(4, 2), wheel(5, 3)]
    checked = 0
    for g in graphs:
        for cyc in enumerate_cycles(g):
            child = contract(g, cyc.edge_set(g)).contracted
            assert child.index.rank is g.index.rank
            _check_inherited_index(child)
            checked += 1
            for cyc2 in enumerate_cycles(child):
                # G/(C | C') for every cycle C' of G/C
                _check_inherited_index(contract(child, cyc2.edge_set(child)).contracted)
                checked += 1
    assert checked >= 1000


@pytest.mark.parametrize("g", [banana(4, 3), necklace(3, 3, 3)])
def test_catalog_sorts_no_id_by_sort_key(monkeypatch, g):
    g.index  # the root's index is the one built by sort_key
    calls = []

    def counted(x):
        calls.append(x)
        return sort_key(x)

    monkeypatch.setattr(graph_module, "sort_key", counted)
    assert fan_module.cone_catalog(g)
    assert calls == []


def test_index_arrays_match_halves():
    for g in corpus() + [mixed_id_graph(), loop_graph(), banana(4, 3)]:
        index = g.index
        vertices = _sorted(g.genus_of)
        edges = _sorted({_ref_edge_of(g, h) for h in g.end if g.involution[h] != h})
        for h in g.end:
            if g.involution[h] == h:
                assert h not in index.edge_pos and h not in index.sign
                continue
            assert edges[index.edge_pos[h]] == _ref_edge_of(g, h)
            assert index.sign[h] == (1 if h == _ref_edge_of(g, h) else -1)
        assert len(index.arcs) == len(vertices)
        for v, arcs in zip(vertices, index.arcs):
            halves = _ref_non_leg_halves_at(g, v)
            assert [(edges[i], s) for i, s, _ in arcs] == [
                (_ref_edge_of(g, h), 1 if h == _ref_edge_of(g, h) else -1)
                for h in halves]
            assert [vertices[t] for _, _, t in arcs] == [_target(g, h) for h in halves]
        assert [(vertices[a], vertices[b]) for a, b in index.ends] == [
            (g.end[e], _target(g, e)) for e in edges]


def test_index_accessor_edge_cases():
    g = mixed_id_graph()
    assert validate_graph(g).ok
    assert g.edge_of("leg") == "leg"
    assert g.halves_at("nowhere") == []
    assert g.non_leg_halves_at("nowhere") == []
    for accessor in (g.vertices, g.edges, g.legs,
                     lambda: g.halves_at(0), lambda: g.non_leg_halves_at(0)):
        first = accessor()
        expected = list(first)
        first.append("junk")
        first.reverse()
        assert accessor() == expected


# -- the spanning forest against reference traversals ------------------------


def _union_find_roots(g, S):
    """Each vertex -> the sort_key-smallest vertex of its component in the
    subgraph on the edges S."""
    comp = {v: v for v in g.genus_of}

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    for e in S:
        a, b = sorted((find(g.end[e]), find(_target(g, e))), key=sort_key)
        comp[b] = a
    return {v: find(v) for v in g.genus_of}


def test_spanning_forest_on_edge_subsets():
    rng = random.Random(29)
    checked = 0
    for g in corpus() + [mixed_id_graph()]:
        edges = g.edges()
        subsets = [None, frozenset()] + [
            frozenset(rng.sample(edges, rng.randint(1, len(edges))))
            for _ in range(4) if edges]
        for S in subsets:
            order, root, parent = _spanning_forest(g, S)
            assert (order, root, parent) == _ref_forest(g, S)
            within = frozenset(edges) if S is None else S
            tree = {g.edge_of(h) for h in parent.values()}
            assert tree <= within
            assert sorted(order, key=sort_key) == _sorted(g.genus_of)
            assert root == _union_find_roots(g, within)
            assert len(tree) == len(parent) == len(g.genus_of) - len(set(root.values()))
            res = contract(g, within)
            assert res.vertex_map == root
            lifted = lift_weighting(g, res, base_weighting(res.contracted))
            assert all(lifted.flow(e) == 0 for e in within - tree)
            checked += 1
    assert checked >= 1000
