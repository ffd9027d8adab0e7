"""Command line interface.

Every subcommand reads a GraphDocument (JSON) path. Exit codes: 0 on
success, 1 on validation or computation failure or an output file that
cannot be written, 2 on parse errors.

The leg weights of a document are the prescribed weighting values on the
marked legs. If your data is given as marked-point multiplicities a_i for
a twisted line bundle of total degree k(2g-2), store each leg weight as
-a_i; the required leg sum -k(2g-2) then matches sum a_i = k(2g-2).
Rendered labels and witness entries show edge flows, the value carried by
the half-edge at the target of each edge's canonical orientation.
"""

import argparse
import sys

from .errors import (BoxTooSmall, FlowFanError, ParseError, UnknownEdge,
                     UnsupportedDimension, ValidationError)
from .fan import build_fan, check_sliceable, cone_catalog, slice_fan, verify_fan
from .graph import contract, graph_genus, stability_report
from .io import (edge_doc_id, emit_fan_json, emit_graph_json,
                 parse_graph_json, _dumps, _json_int)
from .oracle import oracle_cone_catalog
from .svg import render_slice_svg
from .weightings import Weighting, base_weighting, enumeration_bound, is_weighting


def _load_graph(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("/", f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError("/", f"{path} is not UTF-8: byte {exc.start} "
                              f"cannot be decoded") from None
    return parse_graph_json(text)


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FlowFanError(f"cannot write {path}: {exc.strerror or exc}") from None
    print(f"wrote {path}")


def _edge_by_doc_id(g):
    return {str(edge_doc_id(e)): e for e in g.edges()}


def _cmd_validate(args):
    try:
        g = _load_graph(args.graph)
    except ValidationError as exc:
        print(f"invalid: {exc}")
        return 1
    print("ok")
    unstable = stability_report(g)
    if unstable:
        print(f"note: vertices {unstable} are unstable as curve components "
              "(the fan does not require stability)")
    return 0


def _cmd_genus(args):
    g = _load_graph(args.graph)
    print(graph_genus(g))
    return 0


def _cmd_base_weighting(args):
    g = _load_graph(args.graph)
    w = base_weighting(g)
    flows = {str(edge_doc_id(e)): _json_int(f) for e, f in w.flows().items()}
    sys.stdout.write(_dumps({"flows": flows}))
    return 0


def _cmd_fan(args):
    g = _load_graph(args.graph)
    fan = build_fan(g)
    report = verify_fan(fan)
    if not report.ok:
        for v in report.violations:
            print(f"fan verification failed: {v}", file=sys.stderr)
        return 1
    text = emit_fan_json(fan)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_rays(args):
    g = _load_graph(args.graph)
    # every cone of the fan is a face of a catalog cone, so the fan's rays
    # are those of the catalog, read without closing it under faces
    rays = sorted({r for c, _ in cone_catalog(g) for r in c.rays()})
    doc = {"edge_order": [edge_doc_id(e) for e in g.edges()],
           "rays": [[_json_int(x) for x in r] for r in rays]}
    sys.stdout.write(_dumps(doc))
    return 0


def _parse_flows(flows_text, g):
    by_id = _edge_by_doc_id(g)
    flows = {}
    for item in flows_text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValidationError("BadFlows", f"expected edge=value, got {item!r}")
        name, _, val = item.partition("=")
        name = name.strip()
        if name not in by_id:
            raise UnknownEdge(name)
        if by_id[name] in flows:
            raise ValidationError("BadFlows", f"duplicate flow for edge {name!r}")
        try:
            flows[by_id[name]] = int(val.strip())
        except ValueError:
            raise ValidationError("BadFlows", f"bad integer in {item!r}") from None
    missing = [edge_doc_id(e) for e in g.edges() if e not in flows]
    if missing:
        raise ValidationError("BadFlows", f"missing flows for edges {missing}")
    values = {h: g.leg_weights[h] for h in g.end if g.is_leg(h)}
    for e, f in flows.items():
        values[g.involution[e]] = f
        values[e] = -f
    return Weighting(g, values)


def _cmd_dual(args):
    from .cones import dual_cone_generators
    g = _load_graph(args.graph)
    try:
        w = _parse_flows(args.flows, g)
    except UnknownEdge as exc:
        # a KeyError's str is the repr of its key; print the bare id
        print(f"unknown edge: {exc.args[0]}", file=sys.stderr)
        return 1
    ok, defects = is_weighting(g, w)
    if not ok:
        bad = {str(v): d for v, d in defects.items() if d != 0}
        print(f"not a valid weighting; vertex defects {bad}", file=sys.stderr)
        return 1
    gens = dual_cone_generators(g, w)
    doc = {"edge_order": [edge_doc_id(e) for e in gens.labels],
           "generators": [[_json_int(x) for x in v] for v in gens.vectors]}
    sys.stdout.write(_dumps(doc))
    return 0


def _cmd_contract(args):
    g = _load_graph(args.graph)
    by_id = _edge_by_doc_id(g)
    keys = []
    for name in args.edges.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in by_id:
            print(f"unknown edge: {name}", file=sys.stderr)
            return 1
        keys.append(by_id[name])
    result = contract(g, keys)
    sys.stdout.write(emit_graph_json(result.contracted))
    return 0


def _cmd_slice(args):
    g = _load_graph(args.graph)
    try:
        # refuse before the fan is built, which may take long
        check_sliceable(len(g.edges()))
        svg = render_slice_svg(slice_fan(build_fan(g)))
    except UnsupportedDimension as exc:
        print(f"cannot slice: {exc}", file=sys.stderr)
        return 1
    _write_text(args.svg, svg)
    return 0


def _cmd_oracle_check(args):
    from .cones import canonical_key
    g = _load_graph(args.graph)
    base = base_weighting(g)
    radius = args.box_radius
    if radius is None:
        radius = 2 * enumeration_bound(g, base)
    try:
        reference = oracle_cone_catalog(g, radius)
    except BoxTooSmall as exc:
        print(f"box too small: {exc}", file=sys.stderr)
        return 1
    computed = {canonical_key(c) for c, _ in cone_catalog(g)}
    if computed == set(reference):
        print(f"ok: {len(computed)} cones agree at box radius {radius}")
        return 0
    missing = sorted(set(reference) - computed)
    extra = sorted(computed - set(reference))
    print(f"mismatch: {len(missing)} missing, {len(extra)} extra", file=sys.stderr)
    for label, keys in (("missing", missing), ("extra", extra)):
        for key in keys:
            print(f"{label} cone: {key}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowfan",
        description="Exact cone fans attached to integer flows on leg-weighted graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("graph", help="path to a GraphDocument JSON file")
        for flag, kwargs in extra.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate)
    add("genus", _cmd_genus)
    add("base-weighting", _cmd_base_weighting)
    add("fan", _cmd_fan, out={"default": None, "help": "write the FanDocument here"})
    add("rays", _cmd_rays)
    add("dual", _cmd_dual,
        flows={"required": True, "help": "edge flows as e1=2,e2=1,..."})
    add("contract", _cmd_contract,
        edges={"required": True, "help": "comma separated edge ids"})
    add("slice", _cmd_slice,
        svg={"required": True, "help": "output SVG path"})
    add("oracle-check", _cmd_oracle_check,
        box_radius={"type": int, "default": None,
                    "help": "coefficient box radius (default: twice the proved bound)"})

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error at {exc.path}: {exc.message}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except FlowFanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
