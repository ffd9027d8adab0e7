"""flowfan: exact cone fans attached to integer flows on leg-weighted graphs.

Build a graph with :meth:`Graph.build` or :func:`parse_graph_json`, then
compute weightings, the cones they cut out of the edge orthant, and the
finite face-closed fan they assemble into.
"""

from .errors import (AmbientMismatch, BoxTooSmall, BudgetExceeded,
                     DimensionTooLarge, FlowFanError, MissingHalfEdge,
                     NotPointed, ParseError, UnknownEdge, UnknownVertex,
                     UnsupportedDimension, ValidationError)
from .graph import (ContractionResult, Cycle, Graph, GraphReport,
                    canonical_degree, contract, cycle_basis, enumerate_cycles,
                    graph_genus, stability_report, validate_graph)
from .weightings import (Weighting, base_weighting, enumeration_bound,
                         find_positive_cycle, flow_bound, is_weighting,
                         lift_weighting, restrict_weighting, shift_along_cycle,
                         shift_by_cycles)
from .cones import (Cone, DualGenerators, canonical_key, cone_of_weighting,
                    dual_cone_generators, extreme_rays, faces, intersect_cones,
                    is_face_of, monoid_generators, polar_dual)
from .fan import (Fan, FanReport, SliceCell, SliceDescription, build_fan,
                  check_contraction_compat, cone_catalog, slice_fan, verify_fan)
from .oracle import oracle_cone_catalog, oracle_extreme_rays, oracle_monoid_check
from .io import (emit_fan_json, emit_graph_json, fan_to_document,
                 parse_fan_json, parse_graph_json)
from .svg import render_slice_svg

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatch", "BoxTooSmall", "BudgetExceeded", "Cone", "ContractionResult", "Cycle",
    "DimensionTooLarge", "DualGenerators", "Fan", "FanReport", "FlowFanError",
    "Graph", "GraphReport", "MissingHalfEdge", "NotPointed", "ParseError",
    "SliceCell", "SliceDescription", "UnknownEdge", "UnknownVertex",
    "UnsupportedDimension", "ValidationError", "Weighting", "base_weighting",
    "build_fan", "canonical_degree", "canonical_key", "check_contraction_compat",
    "cone_catalog", "cone_of_weighting", "contract", "cycle_basis",
    "dual_cone_generators", "emit_fan_json", "emit_graph_json",
    "enumerate_cycles", "enumeration_bound", "extreme_rays", "faces",
    "fan_to_document", "find_positive_cycle", "flow_bound", "graph_genus",
    "intersect_cones", "is_face_of", "is_weighting", "lift_weighting",
    "monoid_generators",
    "oracle_cone_catalog", "oracle_extreme_rays", "oracle_monoid_check",
    "parse_fan_json", "parse_graph_json", "polar_dual", "render_slice_svg",
    "restrict_weighting", "shift_along_cycle", "shift_by_cycles", "slice_fan",
    "stability_report", "validate_graph", "verify_fan",
]
