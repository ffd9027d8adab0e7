"""One benchmark process: set up a workload, then time or trace its ops.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.
It prints ``READY {...}`` once its inputs are ready (the parent times
set-up up to that line; the line also says how long building the inputs
took and how slow the host was meanwhile), then, unless ``--mode
setup``, one JSON line with the raw results.

An op of the fan workloads takes one GraphDocument text to a verified
FanDocument, as ``flowfan fan`` does: parse, build the fan, verify it,
emit it. An op of ``charts`` takes one cone of the banana(3,20) fan with
its witness to its polar dual, the cone spanned by the dual-cone
generators of the witness, and the monoid generators of the polar dual.

Each op is checked outside its timed interval against
``reference.json``, which the brute-force oracle produced, and against
closed forms. A check result is reused for an identical output of the
same input.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from make_reference import REFERENCE, docs_digest  # noqa: E402

BANANA3_N = 20      # banana(3, n) of fan-wide and charts
WARMUP = workloads.banana_doc(3, 4)


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    return p.parse_args(argv)


# -- ops ----------------------------------------------------------------------
# Library functions are looked up on their modules at call time, so the
# tracer's wrappers are seen.

def fan_op(text):
    from flowfan import fan, io
    g = io.parse_graph_json(text)
    f = fan.build_fan(g)
    report = fan.verify_fan(f)
    return report.ok, io.emit_fan_json(f)


def chart_op(g, cone, witness):
    from flowfan import cones
    polar = cones.polar_dual(cone)
    spanned = cones.dual_cone_generators(g, witness).spanned_cone()
    gens = cones.monoid_generators(polar)
    return cones.canonical_key(polar), cones.canonical_key(spanned), gens


def slice_op(f):
    from flowfan import fan, svg
    return svg.render_slice_svg(fan.slice_fan(f))


# -- checks -------------------------------------------------------------------

def _ray_sets(catalog):
    return {frozenset(tuple(r) for r in cone) for cone in catalog}


def _maximal(sets):
    return {s for s in sets if not any(s < t for t in sets)}


def check_fan_doc(doc, catalog, closed_form_n):
    """Problems of a FanDocument against an oracle catalog: the fan is the
    face closure of the catalog, so every catalog cone is a fan cone,
    every fan cone lies in a catalog cone, and the maximal cones of both
    agree. banana(3, n) also has C(n-1, 2) + 3 maximal cones of
    C(n-1, 2) + 7."""
    rays = [tuple(int(x) for x in r) for r in doc["rays"]]
    cones = [frozenset(rays[i] for i in c["rays"]) for c in doc["cones"]]
    flagged = {s for s, c in zip(cones, doc["cones"]) if c["maximal"]}
    cat = _ray_sets(catalog)
    problems = []
    if len(set(cones)) != len(cones):
        problems.append("duplicate cones")
    if not cat <= set(cones):
        problems.append(f"{len(cat - set(cones))} catalog cones missing")
    if any(not any(s <= t for t in cat) for s in cones):
        problems.append("a cone lies in no catalog cone")
    if flagged != _maximal(cat):
        problems.append("maximal cones differ from the catalog's")
    if set(rays) != set().union(*cones) or len(set(rays)) != len(rays):
        problems.append("ray list differs from the cones' rays")
    counts = doc["counts"]
    if (counts["rays"], counts["maximal"], counts["total"]) != (
            len(rays), len(flagged), len(cones)):
        problems.append(f"counts {counts} disagree with the document")
    if closed_form_n is not None:
        k = comb(closed_form_n - 1, 2)
        if (len(flagged), len(cones)) != (k + 3, k + 7):
            problems.append(f"banana(3,{closed_form_n}) has {len(flagged)} maximal "
                            f"of {len(cones)} cones, expected {k + 3} of {k + 7}")
    return problems


def check_chart(result, cone_rays):
    """The spanned dual equals the polar dual, and the monoid generators
    lie in it and include its rays."""
    polar_key, spanned_key, gens = result
    problems = []
    if polar_key != spanned_key:
        problems.append("spanned dual differs from the polar dual")
    if any(sum(a * b for a, b in zip(u, r)) < 0 for u in gens for r in cone_rays):
        problems.append("a monoid generator lies outside the dual cone")
    if not set(polar_key[1]) <= set(gens):
        problems.append("monoid generators miss a ray of the dual cone")
    return problems


def check_slice_svg(text, n):
    """A banana(3, n) slice is a triangle with C(n-1, 2) interior points
    and its 3 sides."""
    got = tuple(text.count(f'class="cell-{kind}"')
                for kind in ("point", "segment", "polygon"))
    want = (comb(n - 1, 2), 3, 0)
    return [] if got == want else [f"slice cells {got}, expected {want}"]


# -- set-up -------------------------------------------------------------------

def setup(workload, seed):
    """Inputs of one run: a list of op argument tuples with their
    reference index, plus the fan for ``charts``."""
    pairs = workloads.seeded_inputs(workload, seed)
    if workload != "charts":
        return [(i, (json.dumps(doc),)) for i, doc in pairs], None
    from flowfan import build_fan, canonical_key, parse_graph_json
    (_, doc), = pairs
    g = parse_graph_json(json.dumps(doc))
    f = build_fan(g)
    return [(i, (g, c, f.witnesses[canonical_key(c)]))
            for i, c in enumerate(f.cones)], f


def load_reference(workload):
    ref = json.loads(REFERENCE.read_text())[workload]
    if ref["docs_sha256"] != docs_digest(workloads.base_docs(workload)):
        raise SystemExit(f"{REFERENCE.name} was derived from other {workload} "
                         "inputs; re-run make_reference.py")
    return ref["catalogs"]


class Checker:
    """Checks op outputs once per distinct (input, output) and records
    every output's digest per input, which must not change."""

    def __init__(self, workload, catalogs, fan):
        self.workload = workload
        self.catalogs = catalogs
        self.fan = fan
        self.passed = {}
        self.digest = {}
        self.problems = []
        self.fan_counts = {}

    def __call__(self, index, args, result):
        if self.workload == "charts":
            ok = True
            text = repr(result)
        else:
            ok, text = result
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest.setdefault(index, digest) != digest:
            return self.fail(f"input {index}: output changed between repeats")
        if (index, digest) in self.passed:
            return True
        problems = [] if ok else ["verify_fan reported a violation"]
        if self.workload == "charts":
            problems += check_chart(result, args[1].rays())
        else:
            doc = json.loads(text)
            counts = doc["counts"]
            self.fan_counts[index] = (counts["total"], counts["maximal"], counts["rays"])
            closed = BANANA3_N if self.workload == "fan-wide" else None
            problems += check_fan_doc(doc, self.catalogs[index], closed)
        if problems:
            return self.fail(f"input {index}: " + "; ".join(problems))
        self.passed[(index, digest)] = True
        return True

    def fail(self, message):
        self.problems.append(message)
        return False

    def check_setup_fan(self):
        """For charts: the fan built in set-up is the oracle catalog, which
        also makes every witness cone equal its cone."""
        if self.fan is None:
            return True
        from flowfan import emit_fan_json
        problems = check_fan_doc(json.loads(emit_fan_json(self.fan)),
                                 self.catalogs[0], BANANA3_N)
        rays = {frozenset(c.rays()) for c in self.fan.cones}
        if rays != _ray_sets(self.catalogs[0]):
            problems.append("fan cones differ from the catalog")
        for p in problems:
            self.fail(f"set-up fan: {p}")
        return not problems

    def check_slice(self, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest.setdefault("slice", digest) != digest:
            return self.fail("slice SVG changed between repeats")
        problems = check_slice_svg(text, BANANA3_N)
        for p in problems:
            self.fail(p)
        return not problems

    def output_sha256(self):
        """Digest over every input's output, in reference order."""
        h = hashlib.sha256()
        for key in sorted(self.digest, key=str):
            h.update(f"{key}:{self.digest[key]}\n".encode())
        return h.hexdigest()

    def doc_counts(self):
        """Cones, maximal cones and rays over the emitted documents."""
        totals = [sum(c) for c in zip(*self.fan_counts.values())] or [0, 0, 0]
        return dict(zip(("fan.cones", "fan.maximal", "fan.rays"), totals))


# -- timed passes -------------------------------------------------------------

def timed(op, args, tracer=None, sampler=None):
    """Call ``op(*args)``. Returns (result, (start, end, seconds)); the
    seconds leave out the host-speed kernel's time inside the call."""
    spent = sampler.spent if sampler else 0.0
    t0 = time.perf_counter()
    if tracer is None:
        result = op(*args)
        dt = None
    else:
        result, dt = tracer.run_op(op, *args)
    t1 = time.perf_counter()
    if dt is None:
        dt = t1 - t0 - ((sampler.spent - spent) if sampler else 0.0)
    return result, (t0, t1, dt)


def run_pass(inputs, fan, checker, tracer=None, sampler=None):
    """Run every input once. Returns (op intervals, failed ops, slice
    interval or None), as :func:`timed` gives them. The check runs
    outside the timed interval."""
    op = chart_op if fan is not None else fan_op
    intervals, failed = [], 0
    for index, args in inputs:
        result, iv = timed(op, args, tracer, sampler)
        intervals.append(iv)
        failed += not checker(index, args, result)
    slice_iv = None
    if fan is not None:
        text, slice_iv = timed(slice_op, (fan,), tracer, sampler)
        failed += not checker.check_slice(text)
    return intervals, failed, slice_iv


def _seconds(intervals, slice_iv):
    return sum(iv[2] for iv in intervals) + (slice_iv[2] if slice_iv else 0.0)


def warm_up(inputs, fan):
    """Fill lazy state (imports inside functions, interpreter caches)
    before timing, on a small graph or one chart."""
    if fan is None:
        fan_op(json.dumps(WARMUP))
    else:
        chart_op(*inputs[0][1])


def measure(inputs, fan, checker, seconds, sampler):
    """Whole passes over the inputs until ``seconds`` have passed, while
    ``sampler`` samples host speed. Every op time is scaled to the
    reference host speed (see ``hostspeed``). Busy time is the time of the
    ops plus, for charts, of the slices."""
    runs, failed, attempted = [], 0, 0
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        t, f, s = run_pass(inputs, fan, checker, sampler=sampler)
        runs.append((t, s))
        failed += f
        attempted += len(t) + (fan is not None)
    sampler.uninstall()

    def scaled(iv):
        return iv[2] / sampler.factor(iv[0], iv[1])

    passes = [[scaled(iv) for iv in t] for t, _ in runs]
    busy = sum(map(sum, passes)) + sum(scaled(s) for _, s in runs if s)
    raw = [iv[2] for t, _ in runs for iv in t]
    return {"passes": passes, "busy_s": busy, "attempted": attempted,
            "failed": failed, "raw_busy_s": sum(_seconds(t, s) for t, s in runs),
            "raw_p50_s": statistics.median(raw),
            "host_factor": statistics.median(sampler.times) / hostspeed.REFERENCE_S,
            "host_samples": len(sampler.times)}


def trace(inputs, fan, checker, seconds, workload):
    """Alternate untraced and traced passes until ``seconds`` have passed.
    Per-layer numbers are per pass: times are medians over the traced
    passes, counts must repeat exactly in every traced pass."""
    from spans import Tracer
    tracer = Tracer()
    plain_walls, traced_walls, passes = [], [], []
    failed = attempted = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t, f, s = run_pass(inputs, fan, checker)
        plain_walls.append(_seconds(t, s))
        first = tracer.op_id + 1
        tracer.install()
        try:
            t, f2, s = run_pass(inputs, fan, checker, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(_seconds(t, s))
        passes.append(tracer.stats(first, tracer.op_id))
        failed += f + f2
        attempted += 2 * (len(t) + (fan is not None))
    counts = [{f"{name}.{k}": s[k] for name, s in sorted(p.items())
               for k in ("calls", "value")} for p in passes]
    if any(c != counts[0] for c in counts):
        checker.fail("span counts differ between traced passes")
        failed += 1
    tracer.write(OUT / f"spans-{workload}.tsv.gz")
    counts = dict(counts[0], **checker.doc_counts())
    return {"passes": passes, "plain_walls": plain_walls,
            "traced_walls": traced_walls, "counts": counts,
            "attempted": attempted, "failed": failed}


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    import flowfan  # noqa: F401
    import_s = time.perf_counter() - t0
    sampler = hostspeed.Sampler()
    sampler.install()
    t0 = time.perf_counter()
    inputs, fan = setup(args.workload, args.seed)
    sampler.sample()    # an input build shorter than the period has one too
    inputs_s = time.perf_counter() - t0
    print("READY " + json.dumps({
        "import_s": import_s, "inputs_s": inputs_s, "kernel_s": sampler.spent,
        "host_factor": sampler.factor(t0, t0 + inputs_s)}), flush=True)
    if args.mode != "run":
        sampler.uninstall()
    if args.mode == "setup":
        return 0
    checker = Checker(args.workload, load_reference(args.workload), fan)
    setup_ok = checker.check_setup_fan()
    warm_up(inputs, fan)
    if args.mode == "run":
        result = measure(inputs, fan, checker, args.seconds, sampler)
    else:
        result = trace(inputs, fan, checker, args.seconds, args.workload)
    result["attempted"] += fan is not None
    result["failed"] += not setup_ok
    result["problems"] = checker.problems[:20]
    result["output_sha256"] = checker.output_sha256()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
