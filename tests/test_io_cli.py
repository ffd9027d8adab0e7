import contextlib
import copy
import io
import json
import sys
import time
from fractions import Fraction
from xml.dom import minidom

import pytest
from hypothesis import given, settings, strategies as st

from flowfan import (ParseError, ValidationError, build_fan, emit_fan_json,
                     emit_graph_json, parse_fan_json, parse_graph_json,
                     render_slice_svg, slice_fan, validate_graph)
from flowfan import cli
from flowfan.cli import main
from flowfan.io import _json_int, edge_doc_id, fan_to_document
from flowfan.oracle import ORACLE_BOX_LIMIT
from flowfan.svg import _fmt
from flowfan.weightings import FLOW_LIMIT, FlowCore

from helpers import banana, corpus, necklace, path_graph, star_tree, two_gon

TWO_GON_DOC = {
    "vertices": [{"id": "u", "genus": 0}, {"id": "v", "genus": 0}],
    "edges": [{"id": "e1", "from": "u", "to": "v"},
              {"id": "e2", "from": "u", "to": "v"}],
    "legs": [{"id": "p", "vertex": "u", "weight": 3},
             {"id": "q", "vertex": "v", "weight": -3}],
    "twist": 0,
}


def banana_doc(n=10, edges=3):
    return {
        "vertices": [{"id": "u", "genus": 0}, {"id": "v", "genus": 0}],
        "edges": [{"id": f"e{i}", "from": "u", "to": "v"}
                  for i in range(1, edges + 1)],
        "legs": [{"id": "p", "vertex": "u", "weight": n},
                 {"id": "q", "vertex": "v", "weight": -n}],
        "twist": 0,
    }


def test_parse_round_trip():
    g = parse_graph_json(json.dumps(TWO_GON_DOC))
    assert validate_graph(g).ok
    assert parse_graph_json(emit_graph_json(g)) == g


def test_parse_missing_twist():
    doc = dict(TWO_GON_DOC)
    del doc["twist"]
    with pytest.raises(ParseError) as err:
        parse_graph_json(json.dumps(doc))
    assert err.value.path == "/twist"


def test_parse_leg_sum_mismatch():
    doc = json.loads(json.dumps(TWO_GON_DOC))
    doc["legs"][1]["weight"] = -2
    with pytest.raises(ValidationError) as err:
        parse_graph_json(json.dumps(doc))
    assert err.value.code == "LegSumMismatch"


def test_parse_duplicate_ids_and_unknown_vertex():
    doc = json.loads(json.dumps(TWO_GON_DOC))
    doc["edges"][1]["id"] = "e1"
    with pytest.raises(ParseError) as err:
        parse_graph_json(json.dumps(doc))
    assert err.value.path == "/edges/1/id"
    doc = json.loads(json.dumps(TWO_GON_DOC))
    doc["edges"][0]["to"] = "w"
    with pytest.raises(ParseError) as err:
        parse_graph_json(json.dumps(doc))
    assert err.value.path == "/edges/0/to"


def test_emit_fan_counts():
    fan = build_fan(two_gon(3))
    doc = parse_fan_json(emit_fan_json(fan))
    assert doc["counts"] == {"rays": 4, "maximal": 4, "total": 5}
    assert doc["edge_order"] == ["e1", "e2"]
    fan_tree = build_fan(path_graph(2, leg_weights=(1, -1)))
    doc_tree = parse_fan_json(emit_fan_json(fan_tree))
    assert doc_tree["counts"]["maximal"] == 1
    fan_banana = build_fan(banana(3, 10))
    doc_banana = parse_fan_json(emit_fan_json(fan_banana))
    assert doc_banana["counts"]["maximal"] == 39


@pytest.mark.parametrize("keys, value, path, message", [
    (["rays"], 7, "/rays", "expected a list"),
    (["rays", 0], {"0": 1}, "/rays/0", "expected a list"),
    (["cones"], "cones", "/cones", "expected a list"),
    (["cones", 0, "rays"], 3, "/cones/0/rays", "expected a list"),
    (["cones", 0, "witness", "flows"], [1, 2], "/cones/0/witness/flows",
     "expected an object"),
    (["counts"], [5], "/counts", "expected an object"),
    (["cones", 0, "maximal"], "false", "/cones/0/maximal", "expected a boolean"),
    (["cones", 1, "maximal"], 1, "/cones/1/maximal", "expected a boolean"),
    (["edge_order"], "e1", "/edge_order", "expected a list"),
], ids=["rays", "ray-row", "cones", "cone-rays", "flows", "counts",
        "maximal-string", "maximal-int", "edge-order"])
def test_parse_fan_json_rejects_malformed_documents(keys, value, path, message):
    doc = json.loads(emit_fan_json(build_fan(two_gon(3))))
    node = doc
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    with pytest.raises(ParseError) as err:
        parse_fan_json(json.dumps(doc))
    assert (err.value.path, err.value.message) == (path, message)


def test_fan_document_round_trip_and_determinism():
    fan = build_fan(two_gon(4))
    text1 = emit_fan_json(fan)
    text2 = emit_fan_json(build_fan(two_gon(4)))
    assert text1 == text2
    assert parse_fan_json(text1) == fan_to_document(fan)


def test_big_integers_emit_as_strings():
    n = 1 << 60
    g = star_tree((n, -n))
    # no edges: fan is the zero-dimensional cone; witness flows are empty,
    # so exercise the graph document instead
    text = emit_graph_json(g)
    doc = json.loads(text)
    assert doc["legs"][0]["weight"] == str(n)
    assert parse_graph_json(text) == g
    # witness flows with large entries go through the fan document
    from flowfan import Graph
    gt = Graph.build({"a": 0, "b": 0}, [("e0", "a", "b")],
                     [("p", "a", n), ("q", "b", -n)], 0)
    fan = build_fan(gt)
    fdoc = json.loads(emit_fan_json(fan))
    flows = fdoc["cones"][-1]["witness"]["flows"]
    assert flows["e0"] == str(n)
    parsed = parse_fan_json(emit_fan_json(fan))
    assert parsed["cones"][-1]["witness"]["flows"]["e0"] == n


def test_emit_fan_json_matches_json_dumps():
    # the direct writer reproduces json.dumps(indent=2, sort_keys=True)
    # byte for byte: empty lists and objects, big integers, mixed id types
    from flowfan import Graph
    n = 1 << 60
    graphs = [two_gon(3), banana(3, 10), path_graph(2, leg_weights=(1, -1)),
              star_tree((3, -3)),
              Graph.build({"a": 0, "b": 0}, [("e0", "a", "b")],
                          [("p", "a", n), ("q", "b", -n)], 0),
              parse_graph_json(json.dumps({
                  "vertices": [{"id": 0, "genus": 0}, {"id": "v", "genus": 1}],
                  "edges": [{"id": 7, "from": 0, "to": "v"},
                            {"id": "é", "from": "v", "to": 0}],
                  "legs": [{"id": "p", "vertex": 0, "weight": 2},
                           {"id": "q", "vertex": "v", "weight": -2}],
                  "twist": 0})),
              # escaped, these ids sort otherwise: "\u00e9" before "z"
              # and "\"" after "A\\"
              parse_graph_json(json.dumps({
                  "vertices": [{"id": "a", "genus": 0}, {"id": "b", "genus": 0}],
                  "edges": [{"id": eid, "from": "a", "to": "b"}
                            for eid in ("z", "é", '"', "A\\")],
                  "legs": [{"id": "p", "vertex": "a", "weight": 3},
                           {"id": "q", "vertex": "b", "weight": -3}],
                  "twist": 0})),
              # face cones share their catalog cone's witness object
              necklace(3, 3, 3)]
    fan = build_fan(graphs[-1])
    assert len({id(w) for w in fan.witnesses.values()}) < len(fan.cones)
    for g in graphs:
        fan = build_fan(g)
        doc = fan_to_document(fan)
        doc["rays"] = [[_json_int(x) for x in r] for r in doc["rays"]]
        for entry in doc["cones"]:
            flows = entry["witness"]["flows"]
            entry["witness"]["flows"] = {k: _json_int(v) for k, v in flows.items()}
        assert emit_fan_json(fan) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_fan_ray_entries_sorted_and_primitive():
    fan = build_fan(banana(3, 10))
    doc = parse_fan_json(emit_fan_json(fan))
    rays = [tuple(r) for r in doc["rays"]]
    assert rays == sorted(rays)
    from math import gcd
    for r in rays:
        g = 0
        for x in r:
            g = gcd(g, x)
        assert g == 1
    for cone in doc["cones"]:
        assert cone["rays"] == sorted(cone["rays"])


def test_svg_counts():
    svg = render_slice_svg(slice_fan(build_fan(banana(3, 10))))
    assert svg.count('<circle class="cell-point"') == 36
    assert svg.count('<line class="cell-segment"') == 3
    svg2 = render_slice_svg(slice_fan(build_fan(two_gon(3))))
    assert svg2.count('<circle class="cell-point"') == 4
    svg3 = render_slice_svg(slice_fan(build_fan(path_graph(3, leg_weights=(1, -1)))))
    assert svg3.count('<polygon class="cell-polygon"') == 1


def _fmt_reference(num, den):
    scaled = round(Fraction(1000 * num, den))
    sign = "-" if scaled < 0 else ""
    return f"{sign}{abs(scaled) // 1000}.{abs(scaled) % 1000:03d}"


@pytest.mark.parametrize("den", [1, 2, 3, 7, 16, 400, 2000, 6000])
def test_fmt_rounds_as_fraction_rounding(den):
    # ties sit at 1000 * num / den = k + 1/2: den 16, 400, 2000 and 6000
    # have them, and round(Fraction) sends each to the even neighbour
    for num in range(-700, 701):
        assert _fmt(num, den) == _fmt_reference(num, den)
    assert _fmt(1, 2000) == "0.000" and _fmt(3, 2000) == "0.002"
    assert _fmt(-1, 2000) == "0.000" and _fmt(-3, 2000) == "-0.002"
    assert _fmt(-1, 16) == "-0.062" and _fmt(-3, 16) == "-0.188"


def test_svg_deterministic():
    a = render_slice_svg(slice_fan(build_fan(banana(3, 10))))
    b = render_slice_svg(slice_fan(build_fan(banana(3, 10))))
    assert a == b
    assert "<title>flows:" in a


# -- CLI ---------------------------------------------------------------------


def write_doc(tmp_path, doc, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    path = write_doc(tmp_path, TWO_GON_DOC)
    assert main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_failure(tmp_path):
    doc = json.loads(json.dumps(TWO_GON_DOC))
    doc["legs"][0]["weight"] = 1
    assert main(["validate", write_doc(tmp_path, doc)]) == 1


@pytest.mark.parametrize("command", ["validate", "genus", "fan"])
def test_cli_graph_without_vertices_is_disconnected(tmp_path, capsys, command):
    doc = {"vertices": [], "edges": [], "legs": [], "twist": 0}
    assert main([command, write_doc(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    message = "Disconnected: graph has no vertices"
    assert message in captured.out + captured.err
    if command != "validate":
        assert captured.out == ""


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
def test_cli_non_finite_id_is_a_parse_error(tmp_path, capsys, number):
    # json reads these, but NaN != NaN, so such a vertex was reported as
    # unreachable; a non-finite id is refused where it stands
    path = tmp_path / "graph.json"
    path.write_text('{"vertices": [{"id": %s, "genus": 1}], "edges": [], '
                    '"legs": [], "twist": 0}' % number)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"parse error at /vertices/0/id: expected a finite number id, "
        f"got {float(number)!r}"]


def test_cli_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    doc = json.loads(json.dumps(TWO_GON_DOC))
    del doc["twist"]
    assert main(["genus", write_doc(tmp_path, doc)]) == 2


DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="no int-string digit limit before 3.11")
MALFORMED = [
    pytest.param(b"\xff\xfe{}", "is not UTF-8: byte 0 cannot be decoded",
                 id="not-utf8"),
    pytest.param(b"[" * 100_000, "invalid JSON: nested too deeply", id="deep"),
    pytest.param(b'{"vertices": [{"id": ' + b"9" * 5000 + b', "genus": 0}]}',
                 "invalid JSON: Exceeds the limit", id="digits", marks=DIGIT_LIMIT),
]


@pytest.mark.parametrize("data, message", MALFORMED)
def test_cli_malformed_file_is_a_parse_error(tmp_path, capsys, data, message):
    # each of these raised out of the reader or json.loads as a traceback
    path = tmp_path / "graph.json"
    path.write_bytes(data)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("parse error at /: ") and message in line


@pytest.mark.parametrize("data, message", MALFORMED[1:])
@pytest.mark.parametrize("parse", [parse_graph_json, parse_fan_json])
def test_malformed_json_is_a_parse_error(parse, data, message):
    with pytest.raises(ParseError) as info:
        parse(data.decode())
    assert info.value.path == "/" and message in info.value.message


@pytest.mark.parametrize("part, key, bad", [
    ("vertices", "id", [1]),
    ("edges", "id", {"a": 1}),
    ("legs", "id", ["p"]),
    ("edges", "from", ["u"]),
    ("legs", "vertex", {}),
])
def test_cli_rejects_array_and_object_ids(tmp_path, capsys, part, key, bad):
    doc = json.loads(json.dumps(TWO_GON_DOC))
    doc[part][0][key] = bad
    assert main(["fan", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"parse error at /{part}/0/{key}: expected a string or number id"]


def test_cli_rejects_edge_ids_equal_as_strings(tmp_path, capsys):
    # the witness flows are keyed by str(id): 1 and "1" would share a key
    doc = json.loads(json.dumps(TWO_GON_DOC))
    doc["edges"][0]["id"] = 1
    doc["edges"][1]["id"] = "1"
    assert main(["fan", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "parse error at /edges/1/id: duplicate edge id '1'"]
    doc["edges"][1]["id"] = 2
    assert main(["fan", write_doc(tmp_path, doc)]) == 0
    flows = json.loads(capsys.readouterr().out)["cones"][-1]["witness"]["flows"]
    assert sorted(flows) == ["1", "2"]


def test_cli_genus_and_base_weighting(tmp_path, capsys):
    path = write_doc(tmp_path, TWO_GON_DOC)
    assert main(["genus", path]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["base-weighting", path]) == 0
    flows = json.loads(capsys.readouterr().out)["flows"]
    assert flows == {"e1": 3, "e2": 0}


def test_cli_fan_and_rays(tmp_path, capsys):
    path = write_doc(tmp_path, TWO_GON_DOC)
    out = tmp_path / "fan.json"
    assert main(["fan", path, "--out", str(out)]) == 0
    capsys.readouterr()
    doc = parse_fan_json(out.read_text())
    assert doc["counts"]["rays"] == 4
    assert main(["rays", path]) == 0
    rays = json.loads(capsys.readouterr().out)["rays"]
    assert sorted(map(tuple, rays)) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_cli_fan_stdout_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, banana_doc())
    assert main(["fan", path]) == 0
    first = capsys.readouterr().out
    assert main(["fan", path]) == 0
    assert capsys.readouterr().out == first


def test_cli_fan_prints_every_violation(tmp_path, capsys, monkeypatch):
    import flowfan.cli as cli
    from flowfan.fan import FanReport
    monkeypatch.setattr(cli, "verify_fan",
                        lambda fan: FanReport(False, ("first bad", "second bad")))
    path = write_doc(tmp_path, TWO_GON_DOC)
    assert main(["fan", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["fan verification failed: first bad",
                                         "fan verification failed: second bad"]


def test_cli_fan_unwritable_out(tmp_path, capsys):
    path = write_doc(tmp_path, TWO_GON_DOC)
    out = tmp_path / "missing" / "fan.json"
    assert main(["fan", path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: cannot write {out}: No such file or directory"]


def test_cli_dual(tmp_path, capsys):
    path = write_doc(tmp_path, banana_doc())
    assert main(["dual", path, "--flows", "e1=3,e2=3,e3=4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [1, 0, 0] in doc["generators"]
    assert [3, -3, 0] in doc["generators"]
    assert main(["dual", path, "--flows", "e1=3,e2=3,e3=5"]) == 1
    assert main(["dual", path, "--flows", "e9=1,e2=3,e3=4"]) == 1


@pytest.mark.parametrize("args", [["dual", "--flows", "e9=1,e2=3,e3=4"],
                                  ["contract", "--edges", "e9"]])
def test_cli_unknown_edge_prints_the_bare_id(tmp_path, capsys, args):
    path = write_doc(tmp_path, banana_doc())
    assert main([args[0], path] + args[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["unknown edge: e9"]


def test_cli_dual_rejects_a_repeated_edge(tmp_path, capsys):
    # the last value alone, e1=2, e2=1, would be a valid weighting
    path = write_doc(tmp_path, TWO_GON_DOC)
    assert main(["dual", path, "--flows", "e1=5,e2=1,e1=2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "validation error: BadFlows: duplicate flow for edge 'e1'"]


def test_cli_contract(tmp_path, capsys):
    path = write_doc(tmp_path, banana_doc())
    assert main(["contract", path, "--edges", "e1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["vertices"]) == 1
    assert {e["id"] for e in doc["edges"]} == {"e2", "e3"}
    assert main(["contract", path, "--edges", "zz"]) == 1


def test_cli_slice(tmp_path, capsys):
    path = write_doc(tmp_path, banana_doc())
    svg_path = tmp_path / "slice.svg"
    assert main(["slice", path, "--svg", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count('<circle class="cell-point"') == 36
    capsys.readouterr()
    # four edges cannot be sliced
    path4 = write_doc(tmp_path, banana_doc(n=2, edges=4), "four.json")
    assert main(["slice", path4, "--svg", str(tmp_path / "x.svg")]) == 1


MIXED_ID_DOC = {
    "vertices": [{"id": "u", "genus": 0}, {"id": "v", "genus": 0}],
    "edges": [{"id": 1, "from": "u", "to": "v"},
              {"id": "a", "from": "u", "to": "v"}],
    "legs": [{"id": "p", "vertex": "u", "weight": 3},
             {"id": "q", "vertex": "v", "weight": -3}],
    "twist": 0,
}


def test_cli_slice_accepts_edge_ids_of_mixed_types(tmp_path, capsys):
    # the witness flows of each cell are listed in edge order, which ranks
    # the int id 1 before the string "a"; no two ids are compared with <
    path = write_doc(tmp_path, MIXED_ID_DOC)
    out = tmp_path / "slice.svg"
    assert main(["slice", path, "--svg", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    svg = out.read_text()
    assert svg.count('<circle class="cell-point"') == 4
    assert "<title>flows: 1=2, a=1</title>" in svg


def test_cli_slice_escapes_edge_ids(tmp_path, capsys):
    # edge ids are XML character data: "<" and "&" are escaped, so the
    # file parses, and a parser reads the ids back as written
    doc = dict(MIXED_ID_DOC, edges=[{"id": "a<b", "from": "u", "to": "v"},
                                    {"id": "c&d", "from": "u", "to": "v"}])
    path = write_doc(tmp_path, doc)
    out = tmp_path / "slice.svg"
    assert main(["slice", path, "--svg", str(out)]) == 0
    capsys.readouterr()
    svg = minidom.parse(str(out))
    labels = [t.firstChild.data for t in svg.getElementsByTagName("text")]
    assert labels == ["a<b", "c&d"]
    titles = {t.firstChild.data for t in svg.getElementsByTagName("title")}
    assert "flows: a<b=2, c&d=1" in titles and len(titles) == 4
    # ids with no character to escape are written as before
    assert "<title>flows: 1=2, a=1</title>" in render_slice_svg(
        slice_fan(build_fan(parse_graph_json(json.dumps(MIXED_ID_DOC)))))


@pytest.mark.parametrize("eid", ["a\u0001", "a\ud800", "a\uffff"])
def test_cli_slice_writes_ids_xml_cannot_carry_as_text(tmp_path, capsys, eid):
    # a C0 control, a lone surrogate or U+FFFF is written as the text
    # \uXXXX: the file is well-formed, and a surrogate no longer fails to
    # encode when the file is written
    doc = dict(MIXED_ID_DOC, edges=[{"id": eid, "from": "u", "to": "v"},
                                    {"id": "b", "from": "u", "to": "v"}])
    path = write_doc(tmp_path, doc)
    out = tmp_path / "slice.svg"
    assert main(["slice", path, "--svg", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    svg = minidom.parse(str(out))
    labels = [t.firstChild.data for t in svg.getElementsByTagName("text")]
    assert labels == ["a\\u%04x" % ord(eid[1]), "b"]


def test_cli_rays_reads_the_catalog(tmp_path, capsys, monkeypatch):
    # the same bytes as the rays of the whole fan, with no fan built
    docs = [TWO_GON_DOC, banana_doc(), banana_doc(n=3, edges=4), MIXED_ID_DOC]
    docs += [json.loads(emit_graph_json(g)) for g in corpus(40)]
    expected = []
    for doc in docs:
        fan = build_fan(parse_graph_json(json.dumps(doc)))
        expected.append(cli._dumps({
            "edge_order": [edge_doc_id(e) for e in fan.edge_order],
            "rays": [[_json_int(x) for x in r] for r in fan.ray_list()]}))

    def no_fan(g):
        raise AssertionError("build_fan was called")

    monkeypatch.setattr(cli, "build_fan", no_fan)
    for i, (doc, text) in enumerate(zip(docs, expected)):
        assert main(["rays", write_doc(tmp_path, doc, f"g{i}.json")]) == 0
        assert capsys.readouterr().out == text


def test_cli_slice_refuses_before_building_the_fan(tmp_path, capsys, monkeypatch):
    # banana(4,3) has four edges: refused on its edge count alone
    def no_fan(g):
        raise AssertionError("build_fan was called")

    monkeypatch.setattr(cli, "build_fan", no_fan)
    path = write_doc(tmp_path, banana_doc(n=3, edges=4))
    out = tmp_path / "x.svg"
    assert main(["slice", path, "--svg", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "cannot slice: slice requires 2 or 3 edges, got 4"]
    assert not out.exists()


def test_cli_slice_unwritable_svg(tmp_path, capsys):
    path = write_doc(tmp_path, TWO_GON_DOC)
    out = tmp_path / "missing" / "slice.svg"
    assert main(["slice", path, "--svg", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: cannot write {out}: No such file or directory"]


def test_fan_bytes_identical_across_processes(tmp_path):
    import subprocess
    import sys
    path = write_doc(tmp_path, banana_doc())
    cmd = [sys.executable, "-m", "flowfan.cli", "fan", path]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert parse_fan_json(runs[0].decode())["counts"]["total"] == 43


def test_import_does_not_load_numpy():
    import subprocess
    import sys
    code = "import flowfan, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_cli_oracle_check(tmp_path, capsys):
    path = write_doc(tmp_path, TWO_GON_DOC)
    assert main(["oracle-check", path]) == 0
    assert "agree" in capsys.readouterr().out
    assert main(["oracle-check", path, "--box-radius", "1"]) == 1


def test_cli_oracle_check_refuses_a_box_above_the_limit(tmp_path, capsys):
    # banana(4,100) at the default radius 800: 1601^3 points, refused
    # before any is walked
    from flowfan import BudgetExceeded, oracle_cone_catalog
    path = write_doc(tmp_path, banana_doc(100, edges=4))
    t0 = time.perf_counter()
    assert main(["oracle-check", path]) == 1
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: oracle_cone_catalog: box points: estimated "
        f"{1601 ** 3}, limit {ORACLE_BOX_LIMIT}"]
    # radius 50 gives 101^3 points, the least box of three coefficients
    # above the limit
    with pytest.raises(BudgetExceeded) as exc:
        oracle_cone_catalog(banana(4, 1), 50)
    assert (exc.value.estimate, exc.value.limit) == (101 ** 3, ORACLE_BOX_LIMIT)


def test_cli_oracle_check_lists_every_missing_and_extra_cone(tmp_path, capsys,
                                                             monkeypatch):
    from flowfan import canonical_key, cli
    from flowfan.cones import Cone

    path = write_doc(tmp_path, TWO_GON_DOC)
    catalog = cli.cone_catalog(parse_graph_json(json.dumps(TWO_GON_DOC)))
    dropped = [canonical_key(c) for c, _ in catalog[1:3]]
    fake = Cone.orthant_section(2, [(1, -5)])  # the ray (5, 1), in no cone
    monkeypatch.setattr(
        cli, "cone_catalog",
        lambda g: catalog[:1] + catalog[3:] + [(fake, catalog[0][1])])
    assert main(["oracle-check", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "mismatch: 2 missing, 1 extra",
        *(f"missing cone: {k}" for k in sorted(dropped)),
        f"extra cone: {canonical_key(fake)}"]


def test_cli_fan_bytes_identical_under_python_O(tmp_path):
    # library checks raise instead of asserting, so -O changes no output
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = write_doc(tmp_path, banana_doc(n=4, edges=3))
    runs = [subprocess.run([sys.executable, *flags, "-m", "flowfan.cli", "fan", path],
                           capture_output=True, check=True, env=env).stdout
            for flags in ([], ["-O"])]
    assert runs[1] == runs[0]
    assert parse_fan_json(runs[0].decode())["counts"]["maximal"] > 0


def test_cli_fan_refuses_huge_leg_weights(tmp_path, capsys):
    path = write_doc(tmp_path, banana_doc(10**30, edges=2))
    t0 = time.perf_counter()
    assert main(["fan", path]) == 1
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"limit {FLOW_LIMIT}" in lines[0]


def test_cli_fan_lists_flows_below_the_budget(tmp_path, capsys):
    assert len(FlowCore.build(banana(2, 10**4)).acyclic_coefficients()) == 10_001
    path = write_doc(tmp_path, banana_doc(10**4, edges=2))
    assert main(["fan", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cones"]


# -- documents under Hypothesis ------------------------------------------------

BIG = 2 ** 80


@st.composite
def graph_documents(draw):
    """Connected GraphDocuments: up to four vertices of genus up to 2^60,
    a spanning tree plus up to three more edges or loops, int and string
    ids, twist and leg weights up to 2^80 in absolute value, and the last
    leg's weight set so that the legs sum to -twist * (2 genus - 2)."""
    n = draw(st.integers(1, 4))
    vids = [draw(st.sampled_from([i, f"v{i}"])) for i in range(n)]
    genera = draw(st.lists(st.integers(0, 2 ** 60), min_size=n, max_size=n))
    ends = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    ends += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3))
    twist = draw(st.integers(-BIG, BIG))
    weights = draw(st.lists(st.integers(-BIG, BIG), max_size=3))
    genus = sum(genera) + len(ends) - n + 1
    weights.append(-twist * (2 * genus - 2) - sum(weights))
    return {
        "vertices": [{"id": v, "genus": _json_int(x)}
                     for v, x in zip(vids, genera)],
        "edges": [{"id": draw(st.sampled_from([i, f"e{i}"])),
                   "from": vids[a], "to": vids[b]} for i, (a, b) in enumerate(ends)],
        "legs": [{"id": f"p{i}", "vertex": vids[draw(st.integers(0, n - 1))],
                  "weight": _json_int(x)} for i, x in enumerate(weights)],
        "twist": _json_int(twist),
    }


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(graph_documents())
def test_graph_document_round_trip(doc):
    g = parse_graph_json(json.dumps(doc))
    text = emit_graph_json(g)
    assert parse_graph_json(text) == g
    out = json.loads(text)
    numbers = [(out["twist"], g.twist)]
    numbers += [(v["genus"], g.genus_of[v["id"]]) for v in out["vertices"]]
    numbers += [(leg["weight"], g.leg_weights[(leg["id"],)]) for leg in out["legs"]]
    for written, value in numbers:
        # an int beyond the 53-bit double-safe range is written as a string
        assert written == (str(value) if abs(value) >= 2 ** 53 else value)


def _paths(node, path=()):
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-BIG, BIG), st.text(max_size=3),
    st.sampled_from(["12", "-1", "u", "e1", [], {}, [1], {"id": "u"}]),
    st.floats(allow_nan=False, allow_infinity=False, width=32))


@st.composite
def mutated_documents(draw):
    """A small valid GraphDocument with one to three edits: a node
    replaced by a JSON value, deleted, or, in a list, repeated."""
    doc = copy.deepcopy(draw(st.sampled_from(
        [TWO_GON_DOC, MIXED_ID_DOC, banana_doc(3, 3), banana_doc(2, 4)]
        + [json.loads(emit_graph_json(g)) for g in corpus(6)])))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["replace", "delete", "repeat"]))
        if not path:
            doc = draw(JSON_VALUES) if op == "replace" else {}
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "delete":
            del parent[key]
        elif op == "repeat" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = draw(JSON_VALUES)
    return doc


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(mutated_documents())
def test_cli_never_raises_on_mutated_documents(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "graph.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "fan", "genus", "base-weighting", "rays"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main([command, str(path)]) in (0, 1, 2)
