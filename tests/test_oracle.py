import pytest

from flowfan import (BoxTooSmall, Cone, DimensionTooLarge, base_weighting,
                     canonical_key, cone_catalog, enumeration_bound,
                     oracle_cone_catalog, oracle_extreme_rays,
                     oracle_monoid_check)

from helpers import banana, loop_graph, path_graph, two_gon
from test_weightings import flows_weighting


def test_oracle_rays_trivial():
    assert oracle_extreme_rays(Cone.orthant_section(3)) == (
        (0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert oracle_extreme_rays(Cone.orthant_section(2, [(1, -1)])) == ((1, 1),)


def test_oracle_rays_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        oracle_extreme_rays(Cone.orthant_section(6))


def test_oracle_rays_on_banana_cones():
    g = banana(3, 10)
    for flows in [(3, 3, 4), (0, 10, 0), (10, 0, 0), (2, 4, 4)]:
        w = flows_weighting(g, dict(zip(g.edges(), flows)))
        c = flowfan_cone(g, w)
        assert oracle_extreme_rays(c) == c.rays()


def flowfan_cone(g, w):
    from flowfan import cone_of_weighting
    return cone_of_weighting(g, w)


@pytest.mark.parametrize("g, radius", [
    pytest.param(two_gon(3), 6, id="two_gon3"),
    pytest.param(banana(3, 4), None, id="banana3_4"),
    pytest.param(path_graph(2, leg_weights=(1, -1)), None, id="path2"),
])
def test_oracle_catalog_two_gon(g, radius):
    if radius is None:
        radius = enumeration_bound(g, base_weighting(g))
    main = {canonical_key(c) for c, _ in cone_catalog(g)}
    assert set(oracle_cone_catalog(g, radius)) == main


def test_oracle_catalog_tree():
    g = path_graph(2, leg_weights=(2, -2))
    keys = oracle_cone_catalog(g, 5)
    assert keys == frozenset({((), ((0, 1), (1, 0)))})


def test_oracle_catalog_loop():
    g = loop_graph()
    main = {canonical_key(c) for c, _ in cone_catalog(g)}
    assert set(oracle_cone_catalog(g, 2)) == main


def test_oracle_box_too_small():
    g = two_gon(3)
    bound = enumeration_bound(g, base_weighting(g))
    with pytest.raises(BoxTooSmall):
        oracle_cone_catalog(g, bound - 1)


def test_catalog_complete_against_oracle_on_random_graphs():
    from helpers import corpus
    checked = 0
    for g in corpus(60, seed=101):
        N = enumeration_bound(g, base_weighting(g))
        h = len(g.edges()) - len(g.genus_of) + 1
        if N > 6 or h > 2:
            continue  # keep the naive enumeration affordable
        main = {canonical_key(c) for c, _ in cone_catalog(g)}
        assert set(oracle_cone_catalog(g, 2 * N)) == main
        checked += 1
        if checked >= 8:
            break
    assert checked >= 5


def test_oracle_catalog_betti_three():
    # two-level recursion case; the naive box makes this the slowest test
    g = banana(4, 2)
    main = {canonical_key(c) for c, _ in cone_catalog(g)}
    radius = enumeration_bound(g, base_weighting(g))
    assert set(oracle_cone_catalog(g, radius)) == main


def test_oracle_monoid_examples():
    orthant = Cone.orthant_section(2)
    assert oracle_monoid_check(orthant, [(1, 0), (0, 1)], 5)
    halfplane = Cone(2, inequalities=[(1, 1)])
    assert oracle_monoid_check(halfplane, [(1, 0), (1, -1), (-1, 1)], 5)
    assert not oracle_monoid_check(halfplane, [(1, 0)], 2)
    with pytest.raises(ValueError):
        oracle_monoid_check(orthant, [(1, 0)], 7)
