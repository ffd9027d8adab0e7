"""Shared graph constructors and the randomized test corpus."""

import random
from itertools import product
from math import gcd

from flowfan import (Cone, Graph, canonical_key, enumeration_bound, flow_bound,
                     graph_genus, validate_graph)
from flowfan.oracle import _kernel


def two_gon(n, twist=0):
    """Two vertices joined by two edges, legs +n at u and -n at v."""
    return Graph.build(
        {"u": 0, "v": 0},
        [("e1", "u", "v"), ("e2", "u", "v")],
        [("p", "u", n), ("q", "v", -n)],
        twist,
    )


def banana(num_edges, n, twist=0):
    """Two vertices joined by ``num_edges`` parallel edges, legs +n / -n."""
    edges = [(f"e{i}", "u", "v") for i in range(1, num_edges + 1)]
    return Graph.build({"u": 0, "v": 0}, edges,
                       [("p", "u", n), ("q", "v", -n)], twist)


def loop_graph(genus=1, legs=(), twist=0):
    """One vertex with a single self-loop."""
    return Graph.build({"u": genus}, [("e1", "u", "u")],
                       [(f"l{i}", "u", w) for i, w in enumerate(legs)], twist)


def one_edge_genus1(twist=1):
    """Two genus-1 vertices joined by one edge, leg -2 at u (twist 1)."""
    return Graph.build({"u": 1, "v": 1}, [("e1", "u", "v")],
                       [("p", "u", -2)], twist)


def path_graph(num_edges, leg_weights=(), twist=0):
    """A path tree on ``num_edges`` edges, legs attached to the first vertex."""
    verts = {f"v{i}": 0 for i in range(num_edges + 1)}
    edges = [(f"e{i}", f"v{i}", f"v{i+1}") for i in range(num_edges)]
    legs = [(f"l{i}", "v0", w) for i, w in enumerate(leg_weights)]
    return Graph.build(verts, edges, legs, twist)


def chain(num_edges, n):
    """A path on ``num_edges`` edges with legs +n / -n at its two ends."""
    verts = {f"v{i:02d}": 0 for i in range(num_edges + 1)}
    edges = [(f"e{i:02d}", f"v{i:02d}", f"v{i + 1:02d}") for i in range(num_edges)]
    return Graph.build(verts, edges, [("p", "v00", n), ("q", f"v{num_edges:02d}", -n)])


def ring(num_vertices, n):
    """A cycle on ``num_vertices`` vertices with legs +n / -n at two
    opposite vertices."""
    verts = {f"v{i:02d}": 0 for i in range(num_vertices)}
    edges = [(f"e{i:02d}", f"v{i:02d}", f"v{(i + 1) % num_vertices:02d}")
             for i in range(num_vertices)]
    return Graph.build(verts, edges,
                       [("p", "v00", n), ("q", f"v{num_vertices // 2:02d}", -n)])


def necklace(k, m, n):
    """``k`` vertices in a ring, ``m`` parallel edges between neighbours,
    legs +n at v0 and -n at v_{k//2}."""
    verts = {f"v{i}": 0 for i in range(k)}
    edges = [(f"e{i}_{j}", f"v{i}", f"v{(i + 1) % k}")
             for i in range(k) for j in range(m)]
    return Graph.build(verts, edges, [("p", "v0", n), ("q", f"v{k // 2}", -n)])


def complete_graph(leg_weights):
    """The complete graph on one vertex per leg weight, a leg of that
    weight at each vertex."""
    k = len(leg_weights)
    verts = {f"v{i}": 0 for i in range(k)}
    edges = [(f"e{i}{j}", f"v{i}", f"v{j}")
             for i in range(k) for j in range(i + 1, k)]
    legs = [(f"l{i}", f"v{i}", w) for i, w in enumerate(leg_weights)]
    return Graph.build(verts, edges, legs)


def wheel(k, n):
    """A hub joined to each vertex of a ``k``-cycle, legs +n at the hub and
    -n at the first rim vertex."""
    verts = {"hub": 0, **{f"r{i}": 0 for i in range(k)}}
    edges = [(f"s{i}", "hub", f"r{i}") for i in range(k)]
    edges += [(f"t{i}", f"r{i}", f"r{(i + 1) % k}") for i in range(k)]
    return Graph.build(verts, edges, [("p", "hub", n), ("q", "r0", -n)])


def ladder(k, n=2):
    """``k`` rungs a_i-b_i joined by rails a_i-a_{i+1} and b_i-b_{i+1},
    legs +n at a_0 and -n at b_{k-1}: 2k vertices, 3k - 2 edges, first
    Betti number k - 1."""
    verts = {f"{s}{i}": 0 for s in "ab" for i in range(k)}
    edges = [(f"r{i}", f"a{i}", f"b{i}") for i in range(k)]
    edges += [(f"{s}{i}_{i + 1}", f"{s}{i}", f"{s}{i + 1}")
              for s in "ab" for i in range(k - 1)]
    return Graph.build(verts, edges, [("p", "a0", n), ("q", f"b{k - 1}", -n)])


def star_tree(leg_weights, twist=0):
    """Single vertex carrying only legs."""
    return Graph.build({"u": 0}, [],
                       [(f"l{i}", "u", w) for i, w in enumerate(leg_weights)], twist)


def random_graph(rng):
    """One random corpus graph: |V| <= 4, |E| <= 5, h1 <= 2, leg weights
    in [-4, 4], twist in {0, 1}, connected and valid."""
    while True:
        nv = rng.randint(1, 4)
        names = [f"v{i}" for i in range(nv)]
        genus_of = {v: rng.randint(0, 1) for v in names}
        edges = []
        for i in range(1, nv):
            edges.append((f"e{len(edges)}", names[rng.randrange(i)], names[i]))
        for _ in range(rng.randint(0, 2)):
            if len(edges) >= 5:
                break
            u = names[rng.randrange(nv)]
            v = names[rng.randrange(nv)]
            edges.append((f"e{len(edges)}", u, v))
        skeleton = Graph.build(genus_of, edges, [], 0)
        twist = rng.randint(0, 1)
        target = -twist * (2 * graph_genus(skeleton) - 2)
        nlegs = rng.randint(0, 3)
        if target != 0:
            nlegs = max(nlegs, 1, (abs(target) + 3) // 4)
        if nlegs > 3 or abs(target) > 4 * max(nlegs, 1):
            continue
        weights = None
        for _ in range(60):
            head = [rng.randint(-4, 4) for _ in range(nlegs - 1)] if nlegs else []
            tail = target - sum(head)
            if nlegs == 0:
                if target == 0:
                    weights = []
                    break
            elif abs(tail) <= 4:
                weights = head + [tail]
                break
        if weights is None:
            continue
        legs = [(f"l{i}", names[rng.randrange(nv)], w)
                for i, w in enumerate(weights)]
        g = Graph.build(genus_of, edges, legs, twist)
        report = validate_graph(g)
        assert report.ok, report.problems
        return g


def box_radius(g, base):
    """Radius of the reference box walk: the smaller of the two proved
    bounds, neither of which is below the other on every graph."""
    return min(flow_bound(g), enumeration_bound(g, base))


def box_vectors(h, radius):
    """All integer vectors of sup norm <= radius, unpruned, in graded
    lexicographic order (sum of absolute values, then the vector)."""
    vs = product(range(-radius, radius + 1), repeat=h)
    return sorted(vs, key=lambda v: (sum(map(abs, v)), v))


def span_normals(rays, dim):
    """The normals of the span of ``rays``: the oracle's kernel basis of the
    ray matrix, one vector per column without a pivot, each divided by
    its gcd and signed so that its first nonzero entry is positive,
    sorted."""
    out = set()
    for v in _kernel(rays, dim):
        d = gcd(*v) * (1 if next(x for x in v if x) > 0 else -1)
        out.add(tuple(x // d for x in v))
    return tuple(sorted(out))


def span_rule_holds(c, reference):
    """Whether the equality rows of ``c``, a cone known by its rays, are
    the normals of the span of its rays, and with its inequality rows cut
    out ``reference``, solved from scratch."""
    cut = Cone(c.ambient_dim, c.equalities, c.inequalities, labels=c.labels)
    return (c.equalities == span_normals(c.rays(), c.ambient_dim)
            and canonical_key(cut) == canonical_key(reference))


def corpus(count=200, seed=20260809):
    rng = random.Random(seed)
    return [random_graph(rng) for _ in range(count)]


def ref_positive_cycle_halves(g, values):
    """Reference positive-cycle search on half-edge dicts: a DFS over one
    arc per positively valued non-leg half, vertices and halves in sorted
    order. Returns the cycle's halves as the DFS closes it, or None."""
    arcs = {v: [h for h in g.non_leg_halves_at(v) if values[h] > 0]
            for v in g.vertices()}
    state = {v: 0 for v in arcs}  # 0 new, 1 on stack, 2 done
    for v0 in g.vertices():
        if state[v0] != 0:
            continue
        path = []
        stack = [(v0, iter(arcs[v0]))]
        state[v0] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for h in it:
                t = g.target(h)
                if state[t] == 1:
                    if t == v:
                        return (h,)
                    for i, ph in enumerate(path):
                        if g.source(ph) == t:
                            return tuple(path[i:] + [h])
                    raise AssertionError("gray vertex missing from the path")
                if state[t] == 0:
                    path.append(h)
                    state[t] = 1
                    stack.append((t, iter(arcs[t])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                state[v] = 2
                if path:
                    path.pop()
    return None
