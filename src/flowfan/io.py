"""JSON document formats for graphs and fans.

GraphDocument:
    {"vertices": [{"id", "genus"}], "edges": [{"id", "from", "to"}],
     "legs": [{"id", "vertex", "weight"}], "twist": k}

FanDocument:
    {"edge_order": [...], "rays": [[...]],
     "cones": [{"rays": [indices], "dim", "maximal", "witness": {"flows": {...}}}],
     "counts": {"rays", "maximal", "total"}}

Integers beyond the 53-bit double-safe range are emitted as decimal
strings and accepted back in either form, so weightings and ray entries
of any size round-trip exactly. Output bytes are deterministic.
"""

import json

from .errors import ParseError, ValidationError
from .graph import Graph, validate_graph
from .cones import canonical_key

_SAFE = 1 << 53


def _json_int(x):
    return x if -_SAFE < x < _SAFE else str(x)


def _read_int(value, path):
    if isinstance(value, bool):
        raise ParseError(path, "expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ParseError(path, f"not an integer: {value!r}") from None
    raise ParseError(path, "expected an integer")


def _require(obj, key, path):
    if not isinstance(obj, dict):
        raise ParseError(path or "/", "expected an object")
    if key not in obj:
        raise ParseError(f"{path}/{key}", "missing required key")
    return obj[key]


def _read_id(value, path):
    if isinstance(value, (list, dict)):
        raise ParseError(path, "expected a string or number id")
    return value


def parse_graph_document(doc) -> Graph:
    vertices = _require(doc, "vertices", "")
    edges = _require(doc, "edges", "")
    legs = _require(doc, "legs", "")
    twist = _read_int(_require(doc, "twist", ""), "/twist")
    if not isinstance(vertices, list):
        raise ParseError("/vertices", "expected a list")
    genus_of = {}
    for i, v in enumerate(vertices):
        vid = _read_id(_require(v, "id", f"/vertices/{i}"), f"/vertices/{i}/id")
        if vid in genus_of:
            raise ParseError(f"/vertices/{i}/id", f"duplicate vertex id {vid!r}")
        genus_of[vid] = _read_int(_require(v, "genus", f"/vertices/{i}"),
                                  f"/vertices/{i}/genus")
    if not isinstance(edges, list):
        raise ParseError("/edges", "expected a list")
    edge_triples = []
    seen_edges = set()
    # a fan's witness flows are keyed by str(id), so 1 and "1" would collide
    seen_names = set()
    for i, e in enumerate(edges):
        eid = _read_id(_require(e, "id", f"/edges/{i}"), f"/edges/{i}/id")
        if eid in seen_edges or str(eid) in seen_names:
            raise ParseError(f"/edges/{i}/id", f"duplicate edge id {eid!r}")
        seen_edges.add(eid)
        seen_names.add(str(eid))
        u = _read_id(_require(e, "from", f"/edges/{i}"), f"/edges/{i}/from")
        v = _read_id(_require(e, "to", f"/edges/{i}"), f"/edges/{i}/to")
        for name, vid in (("from", u), ("to", v)):
            if vid not in genus_of:
                raise ParseError(f"/edges/{i}/{name}", f"unknown vertex {vid!r}")
        edge_triples.append((eid, u, v))
    if not isinstance(legs, list):
        raise ParseError("/legs", "expected a list")
    leg_triples = []
    seen_legs = set()
    for i, l in enumerate(legs):
        lid = _read_id(_require(l, "id", f"/legs/{i}"), f"/legs/{i}/id")
        if lid in seen_legs:
            raise ParseError(f"/legs/{i}/id", f"duplicate leg id {lid!r}")
        seen_legs.add(lid)
        v = _read_id(_require(l, "vertex", f"/legs/{i}"), f"/legs/{i}/vertex")
        if v not in genus_of:
            raise ParseError(f"/legs/{i}/vertex", f"unknown vertex {v!r}")
        weight = _read_int(_require(l, "weight", f"/legs/{i}"), f"/legs/{i}/weight")
        leg_triples.append((lid, v, weight))
    g = Graph.build(genus_of, edge_triples, leg_triples, twist)
    report = validate_graph(g)
    if not report.ok:
        code, message = report.problems[0]
        raise ValidationError(code, message)
    return g


def parse_graph_json(text) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("/", f"invalid JSON: {exc.msg}") from None
    return parse_graph_document(doc)


def edge_doc_id(edge_key):
    """Document-level edge id of a canonical edge key. Graphs built from a
    GraphDocument use half ids (eid, 0) / (eid, 1)."""
    if isinstance(edge_key, tuple) and len(edge_key) == 2 and edge_key[1] in (0, 1):
        return edge_key[0]
    return str(edge_key)


def _leg_doc_id(h):
    if isinstance(h, tuple) and len(h) == 1:
        return h[0]
    return str(h)


def graph_to_document(g: Graph) -> dict:
    vertices = [{"id": v, "genus": _json_int(g.genus_of[v])} for v in g.vertices()]
    edges = [{"id": edge_doc_id(e), "from": g.source(e), "to": g.target(e)}
             for e in g.edges()]
    legs = [{"id": _leg_doc_id(h), "vertex": g.end[h],
             "weight": _json_int(g.leg_weights[h])} for h in g.legs()]
    return {"vertices": vertices, "edges": edges, "legs": legs,
            "twist": _json_int(g.twist)}


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit_graph_json(g: Graph) -> str:
    return _dumps(graph_to_document(g))


def fan_to_document(fan) -> dict:
    rays = fan.ray_list()
    ray_index = {r: i for i, r in enumerate(rays)}
    cones = []
    for c in fan.cones:
        key = canonical_key(c)
        witness = fan.witnesses[key]
        flows = {str(edge_doc_id(e)): f for e, f in witness.flows().items()}
        cones.append({
            "rays": sorted(ray_index[r] for r in c.rays()),
            "dim": c.dim(),
            "maximal": key in fan.maximal_keys,
            "witness": {"flows": flows},
        })
    cones.sort(key=lambda entry: (entry["dim"], entry["rays"]))
    return {
        "edge_order": [edge_doc_id(e) for e in fan.edge_order],
        "rays": [list(r) for r in rays],
        "cones": cones,
        "counts": {
            "rays": len(rays),
            "maximal": sum(1 for entry in cones if entry["maximal"]),
            "total": len(cones),
        },
    }


_str = json.encoder.encode_basestring_ascii


def _int(x):
    x = _json_int(x)
    return _str(x) if isinstance(x, str) else str(x)


def _block(open_, close, items, indent):
    """Encoded items one per line, as ``json.dumps(indent=2)`` lays out a
    list or object at ``indent``."""
    if not items:
        return open_ + close
    inner = ",\n" + indent + "  "
    return f"{open_}\n{indent}  {inner.join(items)}\n{indent}{close}"


def _object(pairs, indent):
    return _block("{", "}", [f"{_str(k)}: {v}" for k, v in pairs], indent)


def _ints(xs, indent):
    return _block("[", "]", [_int(x) for x in xs], indent)


def emit_fan_json(fan) -> str:
    """The FanDocument of ``fan``, byte for byte what ``_dumps`` makes of
    it, written straight from its fixed layout: ``json.dumps`` with an
    indent runs the pure-Python encoder."""
    doc = fan_to_document(fan)
    cones = [_object([
        ("dim", str(entry["dim"])),
        ("maximal", "true" if entry["maximal"] else "false"),
        ("rays", _ints(entry["rays"], "      ")),
        ("witness", _object([("flows", _object(
            [(k, _int(v)) for k, v in sorted(entry["witness"]["flows"].items())],
            "        "))], "      ")),
    ], "    ") for entry in doc["cones"]]
    counts = doc["counts"]
    return _object([
        ("cones", _block("[", "]", cones, "  ")),
        ("counts", _object([(k, str(counts[k])) for k in sorted(counts)], "  ")),
        ("edge_order", _block("[", "]", [json.dumps(e) for e in doc["edge_order"]], "  ")),
        ("rays", _block("[", "]", [_ints(r, "    ") for r in doc["rays"]], "  ")),
    ], "") + "\n"


def parse_fan_json(text) -> dict:
    """Parse a FanDocument back to the plain data model (ints restored)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("/", f"invalid JSON: {exc.msg}") from None
    rays = _require(doc, "rays", "")
    out_rays = [[_read_int(x, f"/rays/{i}/{j}") for j, x in enumerate(r)]
                for i, r in enumerate(rays)]
    cones = []
    for i, entry in enumerate(_require(doc, "cones", "")):
        flows = _require(_require(entry, "witness", f"/cones/{i}"),
                         "flows", f"/cones/{i}/witness")
        cones.append({
            "rays": [_read_int(x, f"/cones/{i}/rays") for x in
                     _require(entry, "rays", f"/cones/{i}")],
            "dim": _read_int(_require(entry, "dim", f"/cones/{i}"), f"/cones/{i}/dim"),
            "maximal": bool(_require(entry, "maximal", f"/cones/{i}")),
            "witness": {"flows": {
                k: _read_int(v, f"/cones/{i}/witness/flows/{k}")
                for k, v in sorted(flows.items())}},
        })
    counts = _require(doc, "counts", "")
    return {
        "edge_order": list(_require(doc, "edge_order", "")),
        "rays": out_rays,
        "cones": cones,
        "counts": {k: _read_int(v, f"/counts/{k}") for k, v in sorted(counts.items())},
    }
