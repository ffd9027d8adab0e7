import random
from fractions import Fraction
from itertools import product
from math import floor, gcd

import pytest
from hypothesis import given, settings, strategies as st

from flowfan import (AmbientMismatch, Cone, NotPointed, base_weighting,
                     build_fan, canonical_key, cone_of_weighting,
                     dual_cone_generators, enumerate_cycles, extreme_rays,
                     faces, intersect_cones, is_face_of, monoid_generators,
                     oracle_extreme_rays, oracle_monoid_check, polar_dual)
from flowfan import FlowFanError, cones, linalg
from flowfan.cones import _parallelepiped_points, cycle_constraint_rows
from flowfan.linalg import dot

from helpers import banana, corpus, loop_graph, path_graph, two_gon
from test_weightings import flows_weighting


def test_cone_of_weighting_two_gon_rays():
    g = two_gon(5)
    for a in range(6):
        w = flows_weighting(g, {("e1", 0): a, ("e2", 0): 5 - a})
        c = cone_of_weighting(g, w)
        d = max(1, gcd(5 - a, a))
        assert c.rays() == (((5 - a) // d, a // d),)


def test_cone_of_weighting_banana_plane():
    g = banana(3, 10)
    w = flows_weighting(g, {("e1", 0): 0, ("e2", 0): 10, ("e3", 0): 0})
    c = cone_of_weighting(g, w)
    assert c.rays() == ((0, 0, 1), (1, 0, 0))
    assert c.dim() == 2


def test_cone_of_weighting_tree_is_orthant():
    g = path_graph(3, leg_weights=(2, -2))
    c = cone_of_weighting(g, base_weighting(g))
    assert c.rays() == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert c.equalities == ()


def test_extreme_rays_examples():
    assert extreme_rays(Cone.orthant_section(3)) == (
        (0, 0, 1), (0, 1, 0), (1, 0, 0))
    c = Cone.orthant_section(2, [(1, -1)])
    assert extreme_rays(c) == ((1, 1),)
    with pytest.raises(NotPointed):
        extreme_rays(Cone(2, inequalities=[(1, 1)]))


def test_extreme_rays_match_oracle_random_systems():
    rng = random.Random(51)
    for _ in range(40):
        d = rng.randint(2, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d))
                for _ in range(rng.randint(0, 2))]
        c = Cone.orthant_section(d, rows)
        assert c.rays() == oracle_extreme_rays(c)


def test_faces_counts():
    ray = Cone.orthant_section(2, [(1, -1)])
    assert len(faces(ray)) == 2
    for d in (1, 2, 3):
        assert len(faces(Cone.orthant_section(d))) == 2 ** d
    g = banana(3, 10)
    plane = cone_of_weighting(
        g, flows_weighting(g, {("e1", 0): 0, ("e2", 0): 10, ("e3", 0): 0}))
    assert len(faces(plane)) == 4


def test_intersect_examples():
    g = banana(3, 10)
    p1 = cone_of_weighting(
        g, flows_weighting(g, {("e1", 0): 10, ("e2", 0): 0, ("e3", 0): 0}))
    p2 = cone_of_weighting(
        g, flows_weighting(g, {("e1", 0): 0, ("e2", 0): 10, ("e3", 0): 0}))
    assert canonical_key(intersect_cones(p1, p1)) == canonical_key(p1)
    axis = intersect_cones(p1, p2)
    assert axis.rays() == ((0, 0, 1),)
    g2 = two_gon(3)
    r1 = cone_of_weighting(g2, flows_weighting(g2, {("e1", 0): 1, ("e2", 0): 2}))
    r2 = cone_of_weighting(g2, flows_weighting(g2, {("e1", 0): 2, ("e2", 0): 1}))
    assert intersect_cones(r1, r2).rays() == ()


# a fixed example sequence, so a run is reproducible and writes no database
SETTINGS = settings(deadline=None, derandomize=True, database=None,
                    max_examples=300)


@st.composite
def drawn_cones(draw, d):
    """A cone in dimension d: mostly an orthant section, sometimes cut by
    arbitrary inequalities (possibly not pointed), solved or not."""
    row = st.tuples(*[st.integers(-3, 3)] * d)
    eqs = draw(st.lists(row, max_size=d - 1))
    if draw(st.integers(0, 3)):
        c = Cone.orthant_section(d, eqs)
    else:
        c = Cone(d, eqs, draw(st.lists(row, max_size=d + 1)))
    if draw(st.booleans()):
        c.rays()
    return c


@st.composite
def cone_pairs(draw):
    """Two cones in one dimension 2-5, each solved or not before it is
    intersected."""
    d = draw(st.integers(2, 5))
    return [draw(drawn_cones(d)) for _ in range(2)]


@SETTINGS
@given(cone_pairs())
def test_intersect_matches_cold_double_description(pair):
    c1, c2 = pair
    cold = Cone(c1.ambient_dim, c1.equalities + c2.equalities,
                c1.inequalities + c2.inequalities)
    inter = intersect_cones(c1, c2)
    assert (inter.equalities, inter.inequalities) == (
        cold.equalities, cold.inequalities)
    assert canonical_key(inter) == canonical_key(cold)
    assert canonical_key(intersect_cones(c2, c1)) == canonical_key(cold)
    assert inter.dim() == cold.dim()


def _dot_product_face_test(f, c):
    """The face test taking every dot product afresh on each call."""
    fr = set(f.rays())
    cr = set(c.rays())
    if not f.is_pointed() or not fr <= cr:
        return False
    tight = [q for q in c.inequalities if all(dot(q, r) == 0 for r in fr)]
    closure = {r for r in cr if all(dot(q, r) == 0 for q in tight)}
    return fr == closure


@st.composite
def face_test_cases(draw):
    """(f, c) in one dimension 2-5. c is a drawn cone or the cone spanned
    by a few non-negative vectors (often not simplicial, so some ray
    subsets are not faces), maybe intersected with another drawn cone
    (built without ``Cone.__init__`` when an operand is solved and
    pointed); f is a face of c, an intersection of c with a drawn cone, or
    the cone spanned by some rays of c and maybe the sum of others, which
    is not a ray of c."""
    c1, c2 = draw(cone_pairs())
    d = c1.ambient_dim
    if draw(st.booleans()):
        # points of the slice where the last coordinate is 3
        vec = st.tuples(*[st.integers(0, 3)] * (d - 1), st.just(3))
        c1 = Cone.from_generators(
            d, draw(st.lists(vec, unique=True, min_size=d + 1, max_size=d + 3)))
    c = intersect_cones(c1, c2) if draw(st.booleans()) else c1
    source = draw(st.sampled_from(["subcone", "face", "intersection"]))
    if source == "face" and c.is_pointed():
        return draw(st.sampled_from(faces(c))), c
    if source == "subcone" and c.rays():
        n = len(c.rays())
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        gens = {r for r, k in zip(c.rays(), keep) if k}
        if n > 1 and draw(st.integers(0, 3)) == 0:
            summed = draw(st.sets(st.sampled_from(c.rays()), min_size=2))
            gens.add(tuple(map(sum, zip(*summed))))
        return Cone.from_generators(d, gens), c
    other = draw(drawn_cones(d))
    f = intersect_cones(c, other) if draw(st.booleans()) else intersect_cones(other, c)
    return f, c


@SETTINGS
@given(face_test_cases())
def test_is_face_of_matches_dot_product_rule(case):
    f, c = case
    assert is_face_of(f, c) == _dot_product_face_test(f, c)
    if c.is_pointed():
        for face in faces(c):
            assert is_face_of(face, c)
            # the rows a face gets from the table cut out exactly its rays,
            # and they are normalized as Cone.__init__ leaves them
            cut = Cone(c.ambient_dim, face.equalities, face.inequalities)
            assert canonical_key(cut) == canonical_key(face)
            assert (cut.equalities, cut.inequalities) == (
                face.equalities, face.inequalities)
            assert face.dim() == cut.dim()


def test_face_rows_match_init():
    # faces are built without Cone.__init__; their rows are what it makes
    # of the parent's rows with the tight inequalities as equalities
    for g in corpus():
        for c in build_fan(g).cones:
            for f in faces(c):
                tight = tuple(q for q in c.inequalities
                              if all(dot(q, r) == 0 for r in f.rays()))
                made = Cone(c.ambient_dim, c.equalities + tight,
                            c.inequalities, labels=c.labels)
                assert (f.equalities, f.inequalities, f.labels) == (
                    made.equalities, made.inequalities, made.labels)
                assert f.rays() == made.rays()
                assert f.dim() == made.dim()


def test_intersect_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        intersect_cones(Cone.orthant_section(2), Cone.orthant_section(3))


def test_is_face_of_examples():
    orthant = Cone.orthant_section(2)
    origin = Cone(2, equalities=[(1, 0), (0, 1)], inequalities=[(1, 0), (0, 1)])
    axis = Cone.orthant_section(2, [(0, 1)])
    interior = Cone.orthant_section(2, [(1, -1)])
    assert is_face_of(origin, orthant)
    assert is_face_of(axis, orthant)
    assert not is_face_of(interior, orthant)
    assert is_face_of(orthant, orthant)


def test_is_face_of_rejects_diagonal_of_square_cone():
    # cone over a square: the two diagonal rays span a 2D subcone that is
    # not a face even though it meets no other rays of the cone
    sq = Cone.from_generators(3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)])
    diag = Cone.from_generators(3, [(1, 1, 1), (-1, -1, 1)])
    assert set(diag.rays()) <= set(sq.rays())
    assert not is_face_of(diag, sq)


def test_dual_cone_generators_examples():
    g = two_gon(2)
    w = flows_weighting(g, {("e1", 0): 1, ("e2", 0): 1})
    gens = dual_cone_generators(g, w)
    assert set(gens.vectors) == {(1, 0), (0, 1), (1, -1), (-1, 1)}
    gt = path_graph(2, leg_weights=(1, -1))
    assert set(dual_cone_generators(gt, base_weighting(gt)).vectors) == {
        (1, 0), (0, 1)}
    gl = loop_graph()
    wl = flows_weighting(gl, {("e1", 0): 5})
    assert set(dual_cone_generators(gl, wl).vectors) == {(1,), (5,), (-5,)}


def test_polar_dual_examples():
    orthant = Cone.orthant_section(2)
    assert canonical_key(polar_dual(orthant)) == canonical_key(orthant)
    ray = Cone.from_generators(2, [(1, 1)])
    halfplane = polar_dual(ray)
    assert halfplane.lineality() == ((1, -1),)
    origin = Cone(1, equalities=[(1,)], inequalities=[(1,)])
    whole = polar_dual(origin)
    assert whole.lineality() == ((1,),)
    assert whole.rays() == ()


def test_double_dual_identity():
    rng = random.Random(61)
    for _ in range(30):
        d = rng.randint(2, 4)
        rows = [tuple(rng.randint(-2, 2) for _ in range(d))
                for _ in range(rng.randint(0, 2))]
        c = Cone.orthant_section(d, rows)
        again = polar_dual(polar_dual(c))
        assert canonical_key(again) == canonical_key(c)


def test_dual_cone_lemma_small():
    for g, flows in [
        (two_gon(2), {("e1", 0): 1, ("e2", 0): 1}),
        (two_gon(3), {("e1", 0): 3, ("e2", 0): 0}),
        (banana(3, 10), {("e1", 0): 3, ("e2", 0): 3, ("e3", 0): 4}),
        (banana(3, 10), {("e1", 0): 0, ("e2", 0): 10, ("e3", 0): 0}),
        (loop_graph(), {("e1", 0): 5}),
    ]:
        w = flows_weighting(g, flows)
        spanned = dual_cone_generators(g, w).spanned_cone()
        dual = polar_dual(cone_of_weighting(g, w))
        assert canonical_key(spanned) == canonical_key(dual)


def test_basis_cycle_sufficiency():
    for g in corpus(20, seed=71):
        basis_rows = cycle_constraint_rows(g, base_weighting(g))[1]
        w = base_weighting(g)
        all_rows = cycle_constraint_rows(g, w, enumerate_cycles(g))[1]
        c_basis = Cone.orthant_section(len(g.edges()), basis_rows)
        c_all = Cone.orthant_section(len(g.edges()), all_rows)
        assert canonical_key(c_basis) == canonical_key(c_all)


def test_self_loop_halves_force_zero():
    gl = loop_graph()
    w = flows_weighting(gl, {("e1", 0): 3})
    c = cone_of_weighting(gl, w)
    assert c.rays() == ()
    # zero value on the loop leaves the coordinate free
    w0 = flows_weighting(gl, {("e1", 0): 0})
    assert cone_of_weighting(gl, w0).rays() == ((1,),)


def test_monoid_generators_examples():
    assert monoid_generators(Cone.orthant_section(2)) == [(0, 1), (1, 0)]
    halfplane = Cone(2, inequalities=[(1, 1)])
    gens = monoid_generators(halfplane)
    assert oracle_monoid_check(halfplane, gens, 5)
    line = Cone(1)
    assert monoid_generators(line) == [(-1,), (1,)]


@pytest.mark.parametrize("bad_solve, message", [
    (lambda basis, target: None, "does not lie in the lattice"),
    (lambda basis, target: (Fraction(1, 2),) * len(basis), "does not lie in the lattice"),
    (lambda basis, target: (0,) * len(basis), "does not span the lattice"),
])
def test_monoid_generators_reject_bad_lattice_coordinates(monkeypatch, bad_solve, message):
    # the checks on solve_left's output are exceptions, so they survive python -O
    monkeypatch.setattr(linalg, "solve_left", bad_solve)
    with pytest.raises(FlowFanError, match=message):
        monoid_generators(Cone.orthant_section(2))


def test_monoid_generators_cover_small_points():
    rng = random.Random(81)
    for _ in range(15):
        d = rng.randint(1, 3)
        rows = [tuple(rng.randint(-2, 2) for _ in range(d))
                for _ in range(rng.randint(0, 2))]
        c = Cone.orthant_section(d, rows)
        gens = monoid_generators(c)
        assert all(c.contains(v) for v in gens)
        assert oracle_monoid_check(c, gens, 5)
    # and on a dual with lineality
    g = banana(3, 6)
    w = flows_weighting(g, {("e1", 0): 2, ("e2", 0): 2, ("e3", 0): 2})
    dual = polar_dual(cone_of_weighting(g, w))
    gens = monoid_generators(dual)
    assert all(dual.contains(v) for v in gens)
    assert oracle_monoid_check(dual, gens, 4)


def _per_point_parallelepiped_points(basis_rows, lattice_rows):
    """The rule the fold replaces: solve ``x = lam C`` for every coset
    representative ``x`` and subtract ``floor(lam) C``."""
    coords = [tuple(int(x) for x in linalg.solve_left(lattice_rows, b))
              for b in basis_rows]
    H = linalg.row_hnf(coords)
    points = []
    for x in product(*(range(H[i][i]) for i in range(len(coords)))):
        z = list(x)
        for li, row in zip(linalg.solve_left(coords, x), coords):
            z = [a - floor(li) * b for a, b in zip(z, row)]
        pt = tuple(dot(z, col) for col in zip(*lattice_rows))
        if any(pt):
            points.append(pt)
    return points


@st.composite
def lattice_simplices(draw):
    """(basis rows, lattice rows): a saturated lattice of rank k in Z^d,
    d 1-5, often not all of Z^d, and k basis vectors in it whose matrix
    ``C`` in lattice coordinates has determinant up to 30 in absolute
    value: an upper triangular matrix mixed by unimodular row operations,
    row swaps and sign flips."""
    d = draw(st.integers(1, 5))
    normals = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=d - 1))
    lattice = linalg.integer_kernel(normals, d)
    k = len(lattice)
    C = []
    budget = 30
    for i in range(k):
        a = draw(st.integers(1, budget))
        budget //= a
        C.append([draw(st.integers(-4, 4)) if j > i else a if j == i else 0
                  for j in range(k)])
    for _ in range(draw(st.integers(0, 2 * k))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i != j:
            m = draw(st.integers(-3, 3))
            C[i] = [x + m * y for x, y in zip(C[i], C[j])]
    C = draw(st.permutations(C))
    C = [[-x for x in row] if draw(st.booleans()) else row for row in C]
    basis = [tuple(dot(row, col) for col in zip(*lattice)) for row in C]
    return basis, lattice


@SETTINGS
@given(lattice_simplices())
def test_parallelepiped_points_match_per_point_rule(case):
    basis, lattice = case
    assert _parallelepiped_points(basis, lattice) == \
        _per_point_parallelepiped_points(basis, lattice)


@st.composite
def cones_with_lineality(draw):
    """A cone in dimension 1-4 spanned by small vectors plus up to two
    lines, so the simplices of ``monoid_generators`` are padded with a
    lineality basis and may span a proper subspace."""
    d = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * d)
    lines = draw(st.lists(vec, max_size=2))
    gens = draw(st.lists(vec, min_size=1, max_size=d + 1))
    return Cone.from_generators(d, gens + lines + [tuple(-x for x in v) for v in lines])


@settings(SETTINGS, max_examples=150)
@given(cones_with_lineality())
def test_monoid_generators_match_per_point_rule(c):
    gens = monoid_generators(c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_parallelepiped_points", _per_point_parallelepiped_points)
        assert monoid_generators(c) == gens


def test_from_generators_round_trip():
    rng = random.Random(111)
    for _ in range(30):
        d = rng.randint(2, 4)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(d))
                for _ in range(rng.randint(1, d + 2))]
        c = Cone.from_generators(d, vecs)
        for v in vecs:
            assert c.contains(v)
        regenerated = list(c.rays())
        for b in c.lineality():
            regenerated += [b, tuple(-x for x in b)]
        c2 = Cone.from_generators(d, regenerated)
        assert canonical_key(c2) == canonical_key(c)
        if c.is_pointed():
            assert oracle_extreme_rays(c) == c.rays()


def test_canonical_key_invariances():
    c1 = Cone.orthant_section(3, [(1, -1, 0), (0, 1, -1)])
    c2 = Cone.orthant_section(3, [(0, 1, -1), (2, -2, 0)])
    assert canonical_key(c1) == canonical_key(c2)
    g = two_gon(3)
    r1 = cone_of_weighting(g, flows_weighting(g, {("e1", 0): 1, ("e2", 0): 2}))
    r2 = cone_of_weighting(g, flows_weighting(g, {("e1", 0): 2, ("e2", 0): 1}))
    assert canonical_key(r1) != canonical_key(r2)
    assert c1 == c2 and hash(c1) == hash(c2)
