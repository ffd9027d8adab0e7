import json

import pytest

from flowfan import (ParseError, ValidationError, build_fan, emit_fan_json,
                     emit_graph_json, parse_fan_json, parse_graph_json,
                     render_slice_svg, slice_fan, validate_graph)
from flowfan.cli import main
from flowfan.io import _json_int, fan_to_document

from helpers import banana, path_graph, star_tree, two_gon

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
                  "twist": 0}))]
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


def test_cli_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    doc = json.loads(json.dumps(TWO_GON_DOC))
    del doc["twist"]
    assert main(["genus", write_doc(tmp_path, doc)]) == 2


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
