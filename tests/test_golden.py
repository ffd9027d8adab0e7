"""Golden bytes: the sha256 of ``emit_fan_json`` on fixed graphs, of
the charts of every fan cone, of the SVG slices of fixed fans and of
one catalog's keys and witnesses.

A change that alters any fan's output bytes, any cone's polar dual,
spanned dual or monoid generators, any slice's SVG bytes, or any key or
witness of that catalog, fails here. Run this file
under several ``PYTHONHASHSEED`` values (and under ``python -O``) to
catch bytes that depend on the hash seed or on asserts.
"""
import hashlib

import pytest

from flowfan import (Fan, build_fan, cone_catalog, emit_fan_json,
                     render_slice_svg, slice_fan)
from flowfan.cones import (Cone, canonical_key, dual_cone_generators,
                           monoid_generators)

from helpers import (banana, complete_graph, corpus, loop_graph, necklace,
                     path_graph, two_gon, wheel)


def _digest(graphs):
    h = hashlib.sha256()
    for g in graphs:
        h.update(emit_fan_json(build_fan(g)).encode())
    return h.hexdigest()


def test_corpus_fan_bytes():
    # one digest over the 200 corpus graphs' documents, in corpus order
    assert _digest(corpus()) == (
        "0eff0fd22def2aadbbfaabc11243edeb8fa2d68cd385f1374d07d207b11e8b2c")


@pytest.mark.parametrize("make, digest", [
    (lambda: banana(4, 3),
     "524a45f822e040c3e2b1145bbddb8eef8c13fa7a4748ca5fc570d76eb3f31382"),
    (lambda: banana(3, 20),
     "7fea9e3f7222ff28db45a7884b3beb7a54709fec3d5dea1b91baf35235d28b82"),
    (lambda: necklace(3, 3, 3),
     "34848d4f860f7feee7e504a31ead66f1aa44b91db799b0d632b0f1d36ceec9b2"),
    (lambda: complete_graph((2, -2, 0, 0, 0)),
     "c1ad44c47d1e1b52e53fd14ff60991ff3990cfcb4d95b6f10b316712a6ba0af5"),
    (lambda: wheel(4, 2),
     "03ed5e9261df7234be7e208facf4483a01ea0631e437ea22abafc174ccd42d6b"),
    (lambda: wheel(5, 3),
     "509486553cca3210594ca4420fcd9210e3e840217b2262c0c36b95326d20c1b5"),
    (lambda: loop_graph(),
     "a2111f8e90c57436c2b80150cb144356f3d1a225cf2db0478425915f5f458df7"),
], ids=["banana(4,3)", "banana(3,20)", "neck3x3", "K5", "wheel(4,2)",
        "wheel(5,3)", "loop_graph"])
def test_fixed_graph_fan_bytes(make, digest):
    assert _digest([make()]) == digest


def test_necklace_catalog_witnesses():
    # necklace(3, 4, 2): 3,945 keys, most of them first reached in a
    # contracted graph, with the deepest lift chains of the fixed graphs.
    # One digest over each key and its witness's half-edge value items,
    # in catalog order, so a witness that moves or changes fails here
    h = hashlib.sha256()
    catalog = cone_catalog(necklace(3, 4, 2))
    for c, w in catalog:
        h.update(repr((canonical_key(c), list(w.values.items()))).encode())
    assert len(catalog) == 3945
    assert h.hexdigest() == (
        "ac38e0fd6a1d25bfcf4f39d8989ddbf2a5066de322f2c4193e0fcdcde60f60d1")


def test_chart_bytes():
    # one digest over the charts of every fan cone of banana(3,20) and of
    # the 200 corpus graphs, in fan order: the polar dual's key, the key of
    # the cone its witness's dual generators span, and the polar dual's
    # monoid generators (2,049 charts)
    h = hashlib.sha256()
    for g in [banana(3, 20)] + corpus():
        fan = build_fan(g)
        for c in fan.cones:
            polar = c.polar()
            w = fan.witnesses[canonical_key(c)]
            spanned = dual_cone_generators(g, w).spanned_cone()
            h.update(repr((canonical_key(polar), canonical_key(spanned),
                           monoid_generators(polar))).encode())
    assert h.hexdigest() == (
        "e955114c8fbeab74db3f715a13cb117cdf806080a034f754f0f932dd5c78ea12")


def _hexagon_fan():
    """A hand-built fan on path_graph(3)'s edges: one pointed 3-cone on six
    rays whose coordinate sums differ (3, 4 and 5), with the witness of
    that graph's orthant. No fan from ``build_fan`` has a polygon with
    more than three vertices."""
    base = build_fan(path_graph(3, leg_weights=(1, -1)))
    (orthant,) = base.maximal_cones()
    c = Cone.from_generators(3, [(4, 1, 0), (1, 2, 0), (0, 3, 1),
                                 (0, 1, 2), (1, 0, 3), (3, 0, 1)])
    assert len(c.rays()) == 6 and c.dim() == 3
    k = canonical_key(c)
    return Fan(base.graph, base.edge_order, [c],
               {k: base.witnesses[canonical_key(orthant)]}, frozenset({k}))


@pytest.mark.parametrize("make, digest", [
    (lambda: build_fan(banana(3, 20)),
     "6aa9c5cbe6d77d97a1d422113282360df4fb61ddd1c9006f0104716d64ac0fc7"),
    (lambda: build_fan(two_gon(3)),
     "e8a93232c19131a06b35290acb98ae5b755e9a1b0fc1991281ca0aec50591555"),
    (lambda: build_fan(path_graph(3, leg_weights=(1, -1))),
     "3b417b9dd27f16f8e7853ae80018db9d7a48a8451b14dcab5f32887b79666165"),
    (_hexagon_fan,
     "cc25ca6233ffcccdc096d8e11f59e279f196ce90a7fbe8648968a6ad3da9ec4b"),
], ids=["banana(3,20)", "two_gon(3)", "path_graph(3)", "hexagon"])
def test_slice_svg_bytes(make, digest):
    svg = render_slice_svg(slice_fan(make()))
    assert hashlib.sha256(svg.encode()).hexdigest() == digest
