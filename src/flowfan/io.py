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

:func:`emit_fan_json` writes a FanDocument straight from a
:class:`~flowfan.fan.Fan`, with no intermediate dict: the pieces of one
generator, one per cone entry and a few for the rest, which ``flowfan
fan`` writes out as they are made and ``emit_fan_json`` joins. Each
witness object's flows block is encoded once, and each cone's ray
indices are read off its mask over the fan's sorted rays, from the
fan's index (:meth:`~flowfan.fan.Fan.entries`), whether the fan was
built or given by hand. :func:`fan_to_document` builds the same
document as plain data, from the fan's ``cones`` view; it is the
reference the writer is tested against, byte for byte, through
``json.dumps(indent=2, sort_keys=True)`` once ``_json_int`` is applied
to its rays and flows.
"""

import json
from math import isfinite

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


def _expect(value, kind, path):
    if not isinstance(value, kind):
        what = {list: "a list", dict: "an object", bool: "a boolean"}[kind]
        raise ParseError(path, f"expected {what}")
    return value


def _require(obj, key, path):
    if key not in _expect(obj, dict, path or "/"):
        raise ParseError(f"{path}/{key}", "missing required key")
    return obj[key]


def _read_id(value, path):
    if isinstance(value, (list, dict)):
        raise ParseError(path, "expected a string or number id")
    if isinstance(value, float) and not isfinite(value):
        # json reads NaN and Infinity, but NaN != NaN, so no lookup finds it
        raise ParseError(path, f"expected a finite number id, got {value!r}")
    return value


def parse_graph_document(doc) -> Graph:
    vertices = _expect(_require(doc, "vertices", ""), list, "/vertices")
    edges = _expect(_require(doc, "edges", ""), list, "/edges")
    legs = _expect(_require(doc, "legs", ""), list, "/legs")
    twist = _read_int(_require(doc, "twist", ""), "/twist")
    genus_of = {}
    for i, v in enumerate(vertices):
        vid = _read_id(_require(v, "id", f"/vertices/{i}"), f"/vertices/{i}/id")
        if vid in genus_of:
            raise ParseError(f"/vertices/{i}/id", f"duplicate vertex id {vid!r}")
        genus_of[vid] = _read_int(_require(v, "genus", f"/vertices/{i}"),
                                  f"/vertices/{i}/genus")
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


def _load_json(text):
    """``json.loads(text)``, failing on bad input only with a ParseError at
    the root: also for nesting deeper than the recursion limit and for an
    integer literal past the int-string digit limit, where ``json`` raises
    RecursionError and ValueError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("/", f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ParseError("/", "invalid JSON: nested too deeply") from None
    except ValueError as exc:
        raise ParseError("/", f"invalid JSON: {exc}") from None


def parse_graph_json(text) -> Graph:
    return parse_graph_document(_load_json(text))


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
    """``x`` encoded as ``json.dumps`` encodes ``_json_int(x)``."""
    return str(x) if -_SAFE < x < _SAFE else f'"{x}"'


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


# a cone entry as _object lays it out inside "cones", up to its witness's
# block, and a witness's block
_CONE = '{\n      "dim": %d,\n      "maximal": %s,\n      "rays": %s,\n      "witness": '
_WITNESS = '{\n        "flows": %s\n      }'


def emit_fan_json(fan) -> str:
    """The FanDocument of ``fan``: the pieces of :func:`_fan_json_pieces`,
    joined. Its bytes are what ``_dumps`` makes of :func:`fan_to_document`
    once ``_json_int`` is applied to every ray entry and flow;
    ``fan_to_document`` holds those as plain ints, which ``json.dumps``
    writes bare at any size."""
    return "".join(_fan_json_pieces(fan))


def _fan_json_pieces(fan):
    """The FanDocument of ``fan`` as consecutive pieces, made one at a
    time, straight from the fan's fixed layout (``json.dumps`` with an
    indent runs the pure-Python encoder): one piece per cone entry, in
    ``_object``'s layout, then a few for the rest. A writer can write each
    piece as it is made, so the whole document is never held.

    The cones come from :meth:`~flowfan.fan.Fan.entries`, read off the
    fan's masks over its sorted rays, with no cone object built. The
    entries are sorted by (dim, ray indices), the (dim, rays) order, since
    ray indices follow the sorted rays. Face cones share their catalog
    cone's witness object, so each witness's block is encoded once, and is
    part of every entry that holds it. A witness is a weighting on the
    fan's graph, so its flows are read along ``fan.edge_order``, keyed and
    sorted by the raw ``str`` of each edge's document id, as ``sort_keys``
    sorts them; a name shared by two edges keeps the later edge, as a dict
    would."""
    rays, entries = fan.entries()
    index = [str(i) for i in range(len(rays))]
    names = {str(edge_doc_id(e)): e for e in fan.edge_order}
    flow_keys = [(_str(k) + ": ", names[k]) for k in sorted(names)]
    witness_blocks = {}  # id of a witness object -> its encoded block
    # two entries that agree on (dim, ray indices) are of one cone, and
    # agree on the rest
    entries.sort()
    yield '{\n  "cones": ['
    maximal = 0
    for n, (dim, cone_rays, is_maximal, witness) in enumerate(entries):
        block = witness_blocks.get(id(witness))
        if block is None:
            block = _WITNESS % _block("{", "}", [
                k + _int(witness.flow(e)) for k, e in flow_keys], "        ")
            witness_blocks[id(witness)] = block
        maximal += is_maximal
        yield "".join((",\n    " if n else "\n    ", _CONE % (
            dim, "true" if is_maximal else "false",
            _block("[", "]", [index[i] for i in cone_rays], "      ")),
            block, "\n    }"))
    yield "\n  ]" if entries else "]"
    counts = (("maximal", str(maximal)), ("rays", str(len(rays))),
              ("total", str(len(entries))))
    yield ',\n  "counts": ' + _object(counts, "  ")
    yield ',\n  "edge_order": ' + _block("[", "]", [json.dumps(edge_doc_id(e))
                                                   for e in fan.edge_order], "  ")
    yield ',\n  "rays": ' + _block("[", "]", [_ints(r, "    ") for r in rays], "  ") + "\n}\n"


def parse_fan_json(text) -> dict:
    """Parse a FanDocument back to the plain data model (ints restored)."""
    doc = _load_json(text)
    rays = _expect(_require(doc, "rays", ""), list, "/rays")
    out_rays = [[_read_int(x, f"/rays/{i}/{j}")
                 for j, x in enumerate(_expect(r, list, f"/rays/{i}"))]
                for i, r in enumerate(rays)]
    cones = []
    for i, entry in enumerate(_expect(_require(doc, "cones", ""), list, "/cones")):
        path = f"/cones/{i}"
        flows = _expect(_require(_require(entry, "witness", path),
                                "flows", f"{path}/witness"),
                       dict, f"{path}/witness/flows")
        maximal = _expect(_require(entry, "maximal", path), bool, f"{path}/maximal")
        cone_rays = _expect(_require(entry, "rays", path), list, f"{path}/rays")
        cones.append({
            "rays": [_read_int(x, f"{path}/rays/{j}") for j, x in enumerate(cone_rays)],
            "dim": _read_int(_require(entry, "dim", path), f"{path}/dim"),
            "maximal": maximal,
            "witness": {"flows": {
                k: _read_int(v, f"{path}/witness/flows/{k}")
                for k, v in sorted(flows.items())}},
        })
    counts = _expect(_require(doc, "counts", ""), dict, "/counts")
    return {
        "edge_order": _expect(_require(doc, "edge_order", ""), list, "/edge_order"),
        "rays": out_rays,
        "cones": cones,
        "counts": {k: _read_int(v, f"/counts/{k}") for k, v in sorted(counts.items())},
    }
