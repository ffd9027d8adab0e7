"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its timing. Run with ``pytest tests/test_acceptance.py -s``."""

import random
import time
from math import gcd

import pytest

from flowfan import (Weighting, base_weighting, build_fan, canonical_key,
                     cone_of_weighting, contract, cycle_basis,
                     dual_cone_generators, enumeration_bound, extreme_rays,
                     find_positive_cycle, is_weighting, monoid_generators,
                     oracle_cone_catalog, oracle_extreme_rays,
                     oracle_monoid_check, polar_dual, render_slice_svg,
                     restrict_weighting, shift_by_cycles, slice_fan,
                     verify_fan)
from flowfan.cones import Cone

from helpers import banana, corpus, two_gon

CORPUS_SEED = 20260809
CORPUS_SIZE = 200

_state = {}


def _padded(c_small, small_edges, big_edges):
    """``c_small`` on the edges of a contraction, padded with zeros on the
    contracted edges into the big graph's edges: the orthant's section
    with the padded rays of the pointed ``c_small``."""
    rays = sorted(tuple(dict(zip(small_edges, r)).get(e, 0) for e in big_edges)
                  for r in c_small.rays())
    units = tuple(tuple(int(f == e) for f in big_edges) for e in big_edges)
    return Cone._pointed(len(big_edges), tuple(big_edges), None,
                         tuple(sorted(units)), tuple(rays))


def _report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_graphs():
    return corpus(CORPUS_SIZE, seed=CORPUS_SEED)


@pytest.fixture(scope="module")
def corpus_fans(corpus_graphs):
    if "fans" not in _state:
        t0 = time.time()
        _state["fans"] = [build_fan(g) for g in corpus_graphs]
        _state["build_time"] = time.time() - t0
    return _state["fans"]


def test_criterion_1_two_gon_rays():
    worst = 0.0
    for n in range(1, 21):
        t0 = time.time()
        fan = build_fan(two_gon(n))
        rays = set(fan.ray_list())
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        expected = set()
        for a in range(n + 1):
            d = max(gcd(n - a, a), 1)
            expected.add(((n - a) // d, a // d))
        assert rays == expected, f"n={n}: {sorted(rays)} != {sorted(expected)}"
        assert len(rays) == n + 1
        assert elapsed < 1.0, f"n={n} took {elapsed:.2f}s"
    _report("criterion 1 (2-gon ray counts, n=1..20)", True,
            f"exact primitive rays (n-a, a), worst build {worst * 1000:.0f} ms")


def test_criterion_2_banana_catalog():
    t0 = time.time()
    g = banana(3, 10)
    fan = build_fan(g)
    keys = {canonical_key(c) for c in fan.cones}

    expected = {((), ())}
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i in range(3):
        expected.add(((), (units[i],)))
        plane = tuple(sorted(u for j, u in enumerate(units) if j != i))
        expected.add(((), plane))
    interior = set()
    for a in range(1, 9):
        for b in range(1, 10 - a):
            c = 10 - a - b
            v = (b * c, a * c, a * b)
            d = gcd(gcd(v[0], v[1]), v[2])
            interior.add(tuple(x // d for x in v))
    assert len(interior) == 36
    for r in interior:
        expected.add(((), (r,)))
    assert keys == expected
    assert len(fan.maximal_keys) == 39

    radius = 2 * enumeration_bound(g, base_weighting(g))
    oracle_keys = oracle_cone_catalog(g, radius)
    assert set(oracle_keys) == keys

    svg = render_slice_svg(slice_fan(fan))
    points = svg.count('<circle class="cell-point"')
    segments = svg.count('<line class="cell-segment"')
    assert (points, segments) == (36, 3)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report("criterion 2 (banana catalog, oracle, slice)", True,
            f"43 cones = oracle at radius {radius}, 36 points + 3 segments, "
            f"{elapsed:.1f} s")


def test_criterion_3_fan_axioms(corpus_graphs, corpus_fans):
    t0 = time.time()
    failures = []
    for g, fan in zip(corpus_graphs, corpus_fans):
        report = verify_fan(fan)
        if not report.ok:
            failures.append((g, report.violations))
    elapsed = _state["build_time"] + (time.time() - t0)
    ok = not failures and len(corpus_graphs) >= 200 and elapsed < 300.0
    _report("criterion 3 (fan axioms on randomized corpus)", ok,
            f"{len(corpus_graphs)} graphs, {len(failures)} failures, "
            f"{elapsed:.1f} s incl. build")


def test_criterion_4_dual_cone_lemma(corpus_graphs, corpus_fans):
    t0 = time.time()
    rng = random.Random(CORPUS_SEED + 4)
    checked = 0
    failures = 0
    for g, fan in zip(corpus_graphs, corpus_fans):
        weightings = {}
        for key in fan.maximal_keys:
            w = fan.witnesses[key]
            weightings[tuple(sorted(w.values.items()))] = w
        basis = cycle_basis(g)
        if basis:
            for _ in range(2):
                w = shift_by_cycles(g, base_weighting(g),
                                    [rng.randint(-5, 5) for _ in basis])
                weightings[tuple(sorted(w.values.items()))] = w
        for w in weightings.values():
            spanned = dual_cone_generators(g, w).spanned_cone()
            dual = polar_dual(cone_of_weighting(g, w))
            checked += 1
            if canonical_key(spanned) != canonical_key(dual):
                failures += 1
    _report("criterion 4 (dual-cone generators span the polar dual)",
            failures == 0,
            f"{checked} weightings, {failures} failures, "
            f"{time.time() - t0:.1f} s")


def test_criterion_5_decomposition(corpus_graphs):
    t0 = time.time()
    rng = random.Random(CORPUS_SEED + 5)
    equality_checked = 0
    inclusion_checked = 0
    failures = 0
    for g in corpus_graphs:
        edges = g.edges()
        basis = cycle_basis(g)
        base = base_weighting(g)
        # equality on positive cycles
        if basis:
            N = enumeration_bound(g, base)
            if N > 0:
                for _ in range(3):
                    coeffs = [rng.choice([-1, 1]) * rng.randint(N + 1, 2 * N)
                              for _ in basis]
                    w = shift_by_cycles(g, base, coeffs)
                    cyc = find_positive_cycle(g, w)
                    if cyc is None:
                        failures += 1
                        continue
                    S = cyc.edge_set(g)
                    res = contract(g, S)
                    w_res = restrict_weighting(g, w, res)
                    emb = _padded(cone_of_weighting(res.contracted, w_res),
                                  res.contracted.edges(), edges)
                    equality_checked += 1
                    if canonical_key(emb) != canonical_key(cone_of_weighting(g, w)):
                        failures += 1
        # inclusion for arbitrary contractions
        if edges:
            S = frozenset(rng.sample(edges, rng.randint(1, len(edges))))
            res = contract(g, S)
            w_res = restrict_weighting(g, base, res)
            emb = _padded(cone_of_weighting(res.contracted, w_res),
                          res.contracted.edges(), edges)
            inclusion_checked += 1
            c = cone_of_weighting(g, base)
            if not all(c.contains(r) for r in emb.rays()):
                failures += 1
    ok = failures == 0 and equality_checked >= 100
    _report("criterion 5 (decomposition under cycle contraction)", ok,
            f"{equality_checked} positive-cycle equalities, "
            f"{inclusion_checked} inclusions, {failures} failures, "
            f"{time.time() - t0:.1f} s")


def test_criterion_6_positive_cycle_bound(corpus_graphs):
    t0 = time.time()
    rng = random.Random(CORPUS_SEED + 6)
    checked = 0
    failures = 0
    for g in corpus_graphs:
        basis = cycle_basis(g)
        if not basis:
            continue
        base = base_weighting(g)
        N = enumeration_bound(g, base)
        if N == 0:
            continue
        for _ in range(6):
            coeffs = [rng.choice([-1, 1]) * rng.randint(N + 1, 2 * N)
                      for _ in basis]
            # sup norm lands in (N, 2N] by construction
            assert N < max(abs(x) for x in coeffs) <= 2 * N
            w = shift_by_cycles(g, base, coeffs)
            cyc = find_positive_cycle(g, w)
            checked += 1
            if cyc is None or not all(w.values[h] > 0 for h in cyc.halves):
                failures += 1
                continue
            n = len(cyc.halves)
            if any(g.target(h) != g.source(cyc.halves[(i + 1) % n])
                   for i, h in enumerate(cyc.halves)):
                failures += 1
    ok = failures == 0 and checked >= 500
    _report("criterion 6 (positive cycles beyond the box bound)", ok,
            f"{checked} coefficient vectors, {failures} failures, "
            f"{time.time() - t0:.1f} s")


def test_criterion_7_degree_bookkeeping(corpus_graphs, corpus_fans):
    t0 = time.time()
    checked_weightings = 0
    checked_perturbations = 0
    failures = 0
    for g, fan in zip(corpus_graphs, corpus_fans):
        seen = set()
        weightings = [base_weighting(g)]
        for key in fan.maximal_keys:
            w = fan.witnesses[key]
            sig = tuple(sorted(w.values.items()))
            if sig not in seen:
                seen.add(sig)
                weightings.append(w)
        for w in weightings:
            ok, defects = is_weighting(g, w)
            checked_weightings += 1
            if not ok or any(d != 0 for d in defects.values()):
                failures += 1
            for e in g.edges():
                values = dict(w.values)
                values[e] += 1
                values[g.involution[e]] -= 1
                ok2, defects2 = is_weighting(g, Weighting(g, values))
                nonzero = [v for v, d in defects2.items() if d != 0]
                checked_perturbations += 1
                if g.is_loop(e):
                    # both halves hit the same vertex, so the defect cancels
                    if nonzero:
                        failures += 1
                else:
                    if ok2 or len(nonzero) != 2 or sum(defects2.values()) != 0:
                        failures += 1
    _report("criterion 7 (degree-zero defect bookkeeping)", failures == 0,
            f"{checked_weightings} weightings, {checked_perturbations} edge "
            f"perturbations, {failures} failures, {time.time() - t0:.1f} s")


def test_criterion_8_oracle_equivalence(corpus_fans):
    t0 = time.time()
    distinct = {}
    for fan in corpus_fans:
        for c in fan.cones:
            distinct.setdefault((c.ambient_dim, canonical_key(c)), c)
    ray_failures = 0
    monoid_failures = 0
    for (dim, _), c in sorted(distinct.items()):
        assert dim <= 5
        if extreme_rays(c) != oracle_extreme_rays(c):
            ray_failures += 1
        if not oracle_monoid_check(c, monoid_generators(c), 5):
            monoid_failures += 1
    ok = ray_failures == 0 and monoid_failures == 0
    _report("criterion 8 (oracle equivalence for cone primitives)", ok,
            f"{len(distinct)} distinct cones, {ray_failures} ray mismatches, "
            f"{monoid_failures} monoid failures, {time.time() - t0:.1f} s")
