"""Spans around the public functions of each ``flowfan`` module.

The library is not changed: a :class:`Tracer` replaces each traced
function with a wrapper at every name a caller looks it up by (each
``flowfan`` module global bound to it, or the class attribute for
methods) and restores the originals on :meth:`Tracer.uninstall`.

A span records its name, parent span, op id, start and end, and a value
taken from the result where one is counted (True results of
``has_positive_cycle``, generators returned by ``monoid_generators``,
bytes returned by the emitters). Spans live in flat arrays while the run
goes on and are written out with :meth:`Tracer.write` when it ends.
"""

import gzip
import sys
from array import array
from time import perf_counter

# (defining module, attribute, span name, value taken from the result)
FUNCTIONS = (
    ("flowfan.fan", "cone_catalog", "fan.cone_catalog", None),
    ("flowfan.fan", "build_fan", "fan.build_fan", None),
    ("flowfan.fan", "verify_fan", "fan.verify_fan", None),
    ("flowfan.fan", "slice_fan", "fan.slice_fan", None),
    ("flowfan.weightings", "base_weighting", "weightings.base_weighting", None),
    ("flowfan.weightings", "shift_by_cycles", "weightings.shift_by_cycles", None),
    ("flowfan.weightings", "has_positive_cycle", "weightings.has_positive_cycle", int),
    ("flowfan.weightings", "lift_weighting", "weightings.lift_weighting", None),
    ("flowfan.graph", "cycle_basis", "graph.cycle_basis", None),
    ("flowfan.graph", "enumerate_cycles", "graph.enumerate_cycles", None),
    ("flowfan.graph", "contract", "graph.contract", None),
    ("flowfan.cones", "cycle_constraint_rows", "cones.cycle_constraint_rows", None),
    ("flowfan.cones", "_double_description", "cones.dd", None),
    ("flowfan.cones", "faces", "cones.faces", None),
    ("flowfan.cones", "intersect_cones", "cones.intersect_cones", None),
    ("flowfan.cones", "is_face_of", "cones.is_face_of", None),
    ("flowfan.cones", "canonical_key", "cones.canonical_key", None),
    ("flowfan.cones", "polar_dual", "cones.polar_dual", None),
    ("flowfan.cones", "dual_cone_generators", "cones.dual_cone_generators", None),
    ("flowfan.cones", "monoid_generators", "cones.monoid_generators", len),
    ("flowfan.linalg", "rref_int", "linalg.rref_int", None),
    ("flowfan.linalg", "int_rank", "linalg.int_rank", None),
    ("flowfan.linalg", "integer_kernel", "linalg.integer_kernel", None),
    ("flowfan.linalg", "row_hnf", "linalg.row_hnf", None),
    ("flowfan.linalg", "solve_left", "linalg.solve_left", None),
    ("flowfan.io", "parse_graph_json", "io.parse_graph_json", None),
    ("flowfan.io", "emit_fan_json", "io.emit_fan_json", len),
    ("flowfan.svg", "render_slice_svg", "svg.render_slice_svg", len),
)

# (defining module, class, method, span name)
METHODS = (
    ("flowfan.graph", "Graph", "edges", "graph.edges"),
    ("flowfan.graph", "Graph", "halves_at", "graph.halves_at"),
    ("flowfan.cones", "Cone", "orthant_section", "cones.orthant_section"),
)

ROOT = "op"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        # 1 where the span's function was already active below it; such
        # spans count as calls but not again as inclusive time
        self.reentry = array("b")
        self._active = []
        self._stack = [-1]
        self.op_id = -1
        self._restore = []
        self.t0 = perf_counter()

    def _name_id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
            self._active.append(0)
        return self._ids[label]

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.reentry.append(1 if self._active[nid] else 0)
        self.value.append(0)
        self.end.append(0.0)
        self._active[nid] += 1
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i, nid):
        self.end[i] = perf_counter()
        self._stack.pop()
        self._active[nid] -= 1

    def _wrap(self, label, fn, measure):
        nid = self._name_id(label)
        opener, closer, values = self._open, self._close, self.value

        def wrapper(*args, **kwargs):
            i = opener(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(i, nid)
            if measure is not None:
                values[i] = measure(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, fn, *args):
        """Call ``fn(*args)`` as one op: a root span with a fresh op id.
        Returns (result, seconds)."""
        self.op_id += 1
        nid = self._name_id(ROOT)
        i = self._open(nid)
        try:
            result = fn(*args)
        finally:
            self._close(i, nid)
        return result, self.end[i] - self.start[i]

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "flowfan" or n.startswith("flowfan."))]
        for modname, attr, label, measure in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(label, orig, measure)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, orig))
        for modname, clsname, attr, label in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[attr]
            if isinstance(orig, classmethod):
                wrapper = classmethod(self._wrap(label, orig.__func__, None))
            else:
                wrapper = self._wrap(label, orig, None)
            setattr(cls, attr, wrapper)
            self._restore.append((cls, attr, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore = []

    def stats(self, first_op, last_op):
        """Per span name over the ops ``first_op..last_op`` (inclusive):
        calls, inclusive seconds, self seconds and summed values. Self time
        is a span's duration minus that of its direct children."""
        n = len(self.start)
        lo = next((i for i in range(n) if self.op[i] >= first_op), n)
        hi = next((i for i in range(lo, n) if self.op[i] > last_op), n)
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out = {}
        for i in range(lo, hi):
            label = self.names[self.name[i]]
            s = out.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0})
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            if not self.reentry[i]:
                s["s"] += dur
            s["self_s"] += dur - child[i - lo]
            s["value"] += self.value[i]
        return out

    def write(self, path):
        """One line per span: op id, span id, parent span id (-1 for a
        root), name, start and end in seconds since the tracer was made,
        and the counted value."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\tvalue\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t"
                         f"{self.names[self.name[i]]}\t"
                         f"{self.start[i] - self.t0:.9f}\t{self.end[i] - self.t0:.9f}\t"
                         f"{self.value[i]}\n")
