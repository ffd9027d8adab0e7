import random
import re
import time
from fractions import Fraction
from itertools import product
from math import floor, gcd

import pytest
from hypothesis import given, settings, strategies as st

from flowfan import (AmbientMismatch, Cone, NotPointed, base_weighting,
                     build_fan, canonical_key, cone_of_weighting, cycle_basis,
                     dual_cone_generators, enumerate_cycles, extreme_rays,
                     faces, intersect_cones, is_face_of, monoid_generators,
                     oracle_extreme_rays, oracle_monoid_check, polar_dual)
from flowfan import BudgetExceeded, FlowFanError, cones, graph, linalg
from flowfan.cones import _parallelepiped_points, cycle_constraint_rows
from flowfan.linalg import dot, int_rank

from helpers import (banana, corpus, loop_graph, path_graph, span_rule_holds,
                     two_gon)
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


def test_faces_sort_by_dimension_before_ray_count():
    # the cone over the pyramid over a pyramid over a lattice hexagon: its
    # hexagonal 3-D face has 6 rays, its tetrahedral 4-D faces 4 each
    hexagon = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    rays = [(1, x, y, 0, 0) for x, y in hexagon] + [(1, 0, 0, 1, 0), (1, 0, 0, 0, 1)]
    c = Cone.from_generators(5, rays)
    fs = faces(c)
    assert [(f.dim(), f.rays()) for f in fs] == sorted(
        (linalg.int_rank(list(f.rays())), f.rays()) for f in fs)
    shape = [(f.dim(), len(f.rays())) for f in fs]
    hexagonal = shape.index((3, 6))
    tetrahedral = [i for i, s in enumerate(shape) if s == (4, 4)]
    assert len(tetrahedral) == 6 and hexagonal < min(tetrahedral)
    assert shape[-1] == (5, 8)


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


@st.composite
def orthant_systems(draw):
    """(d, equality rows) in dimension 0-5: up to d + 1 rows, often
    sparse, sometimes repeated, scaled or zero."""
    d = draw(st.integers(0, 5))
    row = st.tuples(*[st.integers(-4, 4)] * d)
    rows = draw(st.lists(row, max_size=d + 1))
    if rows and draw(st.booleans()):
        rows.append(tuple(-2 * x for x in draw(st.sampled_from(rows))))
    return d, rows


@SETTINGS
@given(orthant_systems())
def test_orthant_section_matches_cold_double_description(case):
    d, rows = case
    c = Cone.orthant_section(d, rows, labels=range(d))
    units = cones._unit_rows(d)
    cold = Cone(d, rows, units, labels=range(d))
    lin, rays = cones._double_description(d, cold.equalities, cold.inequalities)
    assert (c.equalities, c.inequalities, c.labels) == (
        cold.equalities, cold.inequalities, cold.labels)
    assert lin == () and c.lineality() == ()
    assert c.rays() == rays
    assert canonical_key(c) == canonical_key(cold)
    assert c.dim() == cold.dim()


@st.composite
def pointed_cones(draw):
    """A pointed cone in dimension 1-5 from ``orthant_section``,
    ``from_generators`` (of vectors in the orthant) or ``intersect``;
    often on at most two rays."""
    d = draw(st.integers(1, 5))
    row = st.tuples(*[st.integers(-3, 3)] * d)
    how = draw(st.sampled_from(("orthant", "generators", "intersect")))
    if how == "orthant":
        return Cone.orthant_section(d, draw(st.lists(row, max_size=d)))
    if how == "generators":
        vector = st.tuples(*[st.integers(0, 3)] * d)
        return Cone.from_generators(d, draw(st.lists(vector, max_size=4)))
    return intersect_cones(draw(drawn_cones(d)),
                           Cone.orthant_section(d, draw(st.lists(row, max_size=d))))


@SETTINGS
@given(pointed_cones())
def test_dim_and_facets_of_pointed_cones(c):
    assert c.is_pointed()
    assert c.dim() == linalg.int_rank(list(c.rays()))
    # the facets are the maximal proper faces of the face lattice, as ray
    # masks, and the sorted ray tuples of those masks
    rays = c.rays()
    full = (1 << len(rays)) - 1
    proper = [s for s in cones._face_masks(full, cones._row_masks(c)) if s != full]
    maximal = {s for s in proper if not any(s != t and s | t == t for t in proper)}
    facets = cones._facets_of(full, cones._row_masks(c))
    assert len(facets) == len(maximal)
    assert set(facets) == maximal
    assert cones._facet_rays(c) == tuple(
        tuple(r for j, r in enumerate(rays) if s >> j & 1) for s in facets)


def _dot_product_face_test(f, c):
    """The face test from the definition, by dot products and a double
    description from scratch: f lies in c, and f equals c cut by the
    inequality rows of c that vanish on all of f, its rays and both signs
    of its lineality basis."""
    lineality = list(f.lineality())
    gens = list(f.rays()) + lineality
    if not all(c.contains(v) for v in gens + [tuple(-x for x in b) for b in lineality]):
        return False
    tight = [q for q in c.inequalities if all(dot(q, g) == 0 for g in gens)]
    cut = Cone(c.ambient_dim, list(c.equalities) + tight, c.inequalities)
    return canonical_key(cut) == canonical_key(f)


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
            # the rows a face keeps from c and reads off its rays cut out
            # exactly its rays, normalized as Cone.__init__ leaves them
            cut = Cone(c.ambient_dim, face.equalities, face.inequalities)
            assert canonical_key(cut) == canonical_key(face)
            assert (cut.equalities, cut.inequalities) == (
                face.equalities, face.inequalities)
            assert face.dim() == cut.dim()


def test_face_rows_match_init():
    # faces are built without Cone.__init__; their equality rows are the
    # normals of the span of their rays, and with the parent's inequality
    # rows they cut out what __init__ makes of the parent's rows with the
    # tight inequalities as equalities
    for g in corpus():
        for c in build_fan(g).cones:
            for f in faces(c):
                tight = tuple(q for q in c.inequalities
                              if all(dot(q, r) == 0 for r in f.rays()))
                made = Cone(c.ambient_dim, c.equalities + tight,
                            c.inequalities, labels=c.labels)
                assert (f.inequalities, f.labels) == (
                    made.inequalities, made.labels)
                assert span_rule_holds(f, made)
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
    # with a lineality space: every face holds it, so the origin is no
    # face of the line and the ray (0, 1) none of the half-plane y >= 0,
    # while the line is a face of itself
    line = Cone(1)
    assert not is_face_of(Cone(1, equalities=[(1,)]), line)
    assert is_face_of(line, line)
    half_plane = Cone(2, inequalities=[(0, 1)])
    assert not is_face_of(Cone.orthant_section(2, [(1, 0)]), half_plane)
    assert is_face_of(Cone(2, equalities=[(0, 1)]), half_plane)
    assert is_face_of(half_plane, half_plane)


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
    (lambda basis, targets: [None] * len(targets), "does not lie in the lattice"),
    (lambda basis, targets: [(Fraction(1, 2),) * len(basis)] * len(targets),
     "does not lie in the lattice"),
    (lambda basis, targets: [(0,) * len(basis)] * len(targets),
     "does not span the lattice"),
])
def test_monoid_generators_reject_bad_lattice_coordinates(monkeypatch, bad_solve, message):
    # the checks on the one elimination's output are exceptions, so they
    # survive python -O; the cone spans a plane in Q^3, so its lattice is
    # not Z^3 and the elimination runs
    cone = Cone.orthant_section(3, [(1, -1, 0)])
    assert cone.dim() == 2
    monkeypatch.setattr(linalg, "solve_left_many", bad_solve)
    with pytest.raises(FlowFanError, match=message):
        monoid_generators(cone)


def test_lattice_coords_on_unit_rows_still_check_the_span():
    # on Z^d the basis is its own coordinates, yet a basis of a proper
    # subspace is refused
    with pytest.raises(FlowFanError, match="does not span the lattice rationally"):
        cones._lattice_coords([(1, 0, 0), (0, 1, 0)], cones._unit_rows(3))
    basis = [(1, 1, 0), (0, 2, 0), (0, 0, 3)]
    assert cones._lattice_coords(basis, cones._unit_rows(3)) == (
        basis, linalg.row_hnf(basis))


@pytest.mark.parametrize("inequalities, gens", [
    # a coordinate plane cut by two opposite rows, and a plane with no
    # equality row at all: neither cone is full-dimensional, so its lattice
    # is not Z^3
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 1), (0, 1, 0)]),
    ([(1, -1, 0), (-1, 1, 0), (0, 0, 1), (1, 1, 0)], [(0, 0, 1), (1, 1, 0)]),
])
def test_monoid_generators_of_cones_spanning_a_plane(inequalities, gens):
    c = Cone(3, inequalities=inequalities)
    assert not c.equalities
    assert c.dim() == 2
    assert monoid_generators(c) == gens


@pytest.mark.parametrize("lattice, basis, outside", [
    ([(1, 0, 0), (0, 1, 0)], [(1, 1, 0), (0, 1, 1)], (0, 1, 1)),
    ([(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (1, 0, 2), (1, 1, 0)], (1, 0, 2)),
    # in the span, but half a lattice row away from the lattice
    ([(2, 0, 0), (0, 1, 0)], [(2, 0, 0), (1, 1, 0)], (1, 1, 0)),
])
def test_lattice_coords_name_the_basis_row_outside_the_lattice(lattice, basis, outside):
    # one elimination solves for every basis row; the row reported is the
    # one that fails, not the first
    with pytest.raises(FlowFanError,
                       match=re.escape(f"basis vector {outside} does not lie")):
        cones._lattice_coords(basis, lattice)


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


def _per_point_parallelepiped_points(basis_rows, lattice_rows, lattice_coords):
    """The rule the fold replaces: solve ``x = lam C`` for every coset
    representative ``x`` and subtract ``floor(lam) C``. Works out ``C``
    itself, ignoring ``lattice_coords``."""
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
    coords = cones._lattice_coords(basis, lattice)
    assert _parallelepiped_points(basis, lattice, coords) == \
        _per_point_parallelepiped_points(basis, lattice, coords)


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


@settings(SETTINGS, max_examples=150)
@given(cones_with_lineality())
def test_polar_dimension_by_duality(c):
    polar = c.polar()
    assert polar.dim() == int_rank(list(polar.lineality()) + list(polar.rays()))


def _closure_and_rank_triangulation(c):
    """The pulling triangulation with each face's facets taken from the
    whole face lattice, as the faces one rank below it."""
    rays = c.rays()
    if not rays:
        return []
    full = (1 << len(rays)) - 1
    face_sets = {s: [r for j, r in enumerate(rays) if s >> j & 1]
                 for s in cones._face_masks(full, cones._row_masks(c))}
    dims = {s: int_rank(rs) for s, rs in face_sets.items()}

    def pull(s):
        rlist = face_sets[s]
        if len(rlist) == dims[s]:
            return [rlist]
        r0 = rlist[0]
        return [[r0] + tri for t in face_sets
                if t != s and t | s == s and dims[t] == dims[s] - 1
                and r0 not in face_sets[t] and t
                for tri in pull(t)]

    return pull(full)


def _simplices(triangulation):
    return sorted(map(tuple, triangulation))


@st.composite
def wide_cones(draw):
    """A cone in dimension 3-5 that is seldom simplicial: an orthant
    section cut by one or two rows, most of whose unit rows cut out no
    facet of a face, or the cone spanned by five to eight small vectors
    in the orthant plus up to one line."""
    d = draw(st.integers(3, 5))
    if draw(st.booleans()):
        row = st.tuples(*[st.integers(-3, 3)] * d)
        return Cone.orthant_section(d, draw(st.lists(row, min_size=1, max_size=2)))
    vec = st.tuples(*[st.integers(0, 3)] * d)
    gens = draw(st.lists(vec, min_size=5, max_size=8))
    lines = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=1))
    return Cone.from_generators(d, gens + lines + [tuple(-x for x in v) for v in lines])


@settings(SETTINGS, max_examples=200)
@given(st.one_of(cones_with_lineality(), wide_cones()))
def test_triangulation_matches_the_closure_and_rank_rule(c):
    # the facets of each face come from its tight sets and its dimension
    # from its parent's; the simplices are those of the whole face lattice
    # ranked face by face
    assert _simplices(cones._triangulate_rays(c)) == \
        _simplices(_closure_and_rank_triangulation(c))


def test_triangulation_pulls_non_simplicial_faces():
    # the cone over a square has four rays in dimension 3 and splits into
    # two simplices; with a line added, the same in its pointed part
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    for c in (Cone.from_generators(3, square),
              Cone.from_generators(4, [v + (0,) for v in square]
                                   + [(0, 0, 0, 1), (0, 0, 0, -1)])):
        tri = cones._triangulate_rays(c)
        assert len(tri) == 2 and all(len(t) == 3 for t in tri)
        assert _simplices(tri) == _simplices(_closure_and_rank_triangulation(c))


def _counting(calls, name, fn):
    def counted(*args):
        calls.append(name)
        return fn(*args)
    return counted


def test_chart_monoid_generators_skip_the_lattice_work(monkeypatch):
    # the polar of a pointed fan cone is full-dimensional: its dimension
    # comes from duality with no rank, its lattice is Z^3 with the one
    # integer kernel of its lineality, and no elimination solves for the
    # coordinates of a basis in the unit rows
    fan = build_fan(banana(3, 6))
    calls = []
    monkeypatch.setattr(linalg, "integer_kernel",
                        _counting(calls, "integer_kernel", linalg.integer_kernel))
    monkeypatch.setattr(linalg, "solve_left_many",
                        _counting(calls, "solve_left_many", linalg.solve_left_many))
    monkeypatch.setattr(cones, "int_rank", _counting(calls, "int_rank", int_rank))
    monkeypatch.setattr(cones, "_face_masks",
                        _counting(calls, "_face_masks", cones._face_masks))
    for c in fan.cones:
        calls.clear()
        polar = c.polar()
        assert polar.dim() == 3
        assert calls == []
        assert monoid_generators(polar)
        assert calls.count("integer_kernel") == 1
        # the triangulation ranks no face and lists no face lattice
        assert "solve_left_many" not in calls
        assert "int_rank" not in calls
        assert "_face_masks" not in calls


def test_dual_cone_generators_build_one_cycle_basis_per_graph(monkeypatch):
    g = banana(3, 6)
    w = base_weighting(g)
    calls = []
    monkeypatch.setattr(graph, "_spanning_forest",
                        _counting(calls, "_spanning_forest", graph._spanning_forest))
    first = dual_cone_generators(g, w)
    assert [dual_cone_generators(g, w) for _ in range(3)] == [first] * 3
    assert calls == ["_spanning_forest"]
    basis = cycle_basis(g)
    expected = list(basis)
    basis.reverse()
    basis.pop()
    assert cycle_basis(g) == expected
    assert dual_cone_generators(g, w) == first
    assert calls == ["_spanning_forest"]


# the five-dimensional cone whose simplices hold 6,297,343,240 cosets
HUGE_CONE_ROWS = ((-3, -3, 3, -3, 1), (-2, 3, -1, 0, 2), (0, -2, -2, 2, -3),
                  (0, -1, -3, 3, 1), (1, 0, -2, 0, 0), (2, -1, -3, 1, 2))


def test_monoid_generators_refuse_before_folding(monkeypatch):
    def no_fold(*args):
        raise AssertionError("a point was folded")

    monkeypatch.setattr(cones, "_parallelepiped_points", no_fold)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        monoid_generators(Cone(5, (), HUGE_CONE_ROWS))
    assert time.perf_counter() - start < 1.0
    assert info.value.estimate == 6_297_343_240
    assert info.value.limit == cones.MONOID_POINT_LIMIT
    assert isinstance(info.value, FlowFanError)
    assert "6297343240" in str(info.value)


def test_monoid_budget_counts_every_piece(monkeypatch):
    # the square cone over (1,0), (1,2): one simplex of determinant 2 in Z^2
    c = Cone.from_generators(2, [(1, 0), (1, 2)])
    assert monoid_generators(c) == [(1, 0), (1, 1), (1, 2)]
    monkeypatch.setattr(cones, "MONOID_POINT_LIMIT", 1)
    with pytest.raises(BudgetExceeded) as info:
        monoid_generators(c)
    assert info.value.estimate == 2
    monkeypatch.setattr(cones, "MONOID_POINT_LIMIT", 2)
    assert monoid_generators(c) == [(1, 0), (1, 1), (1, 2)]


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


@st.composite
def generator_sets(draw):
    """(d, generators) in dimension 1-5: vectors with entries in -1..1
    (so that the polar duals' monoid generators stay few) plus negatives
    of some (opposite pairs), positive and negative multiples, repeats and
    zero vectors."""
    d = draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(-1, 1)] * d)
    gens = draw(st.lists(vec, max_size=d + 1))
    if gens:
        for _ in range(draw(st.integers(0, 3))):
            v = draw(st.sampled_from(gens))
            m = draw(st.sampled_from((-2, -1, 1, 2, 3)))
            gens.append(tuple(m * x for x in v))
    gens += [(0,) * d] * draw(st.integers(0, 1))
    return d, draw(st.permutations(gens))


@settings(SETTINGS, max_examples=300)
@given(generator_sets())
def test_from_generators_matches_every_generator_as_an_inequality(case):
    # opposite generators enter double description as one equality row;
    # the reference inserts each generator as an inequality of the dual
    d, gens = case
    c = Cone.from_generators(d, gens)
    lin, rays = cones._double_description(
        d, (), cones._normalize_rows(gens, equalities=False))
    ref = Cone(d, equalities=lin, inequalities=rays)
    assert (c.equalities, c.inequalities) == (ref.equalities, ref.inequalities)
    assert canonical_key(c) == canonical_key(ref)
    assert canonical_key(c.polar()) == canonical_key(ref.polar())
    assert monoid_generators(c) == monoid_generators(ref)
    assert monoid_generators(c.polar()) == monoid_generators(ref.polar())
