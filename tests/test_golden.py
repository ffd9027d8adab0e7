"""Golden bytes: the sha256 of ``emit_fan_json`` on fixed graphs, and of
the charts of every fan cone.

A change that alters any fan's output bytes, or any cone's polar dual,
spanned dual or monoid generators, fails here. Run this file
under several ``PYTHONHASHSEED`` values (and under ``python -O``) to
catch bytes that depend on the hash seed or on asserts.
"""
import hashlib

import pytest

from flowfan import build_fan, emit_fan_json
from flowfan.cones import canonical_key, dual_cone_generators, monoid_generators

from helpers import banana, complete_graph, corpus, loop_graph, necklace, wheel


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
