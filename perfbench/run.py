"""flowfan benchmark: time to a verified fan, end to end and per module.

    python3 perfbench/run.py --workload box-h3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. ``--workload all`` runs every workload
untraced and then traced, one at a time, and prints every metric. The
last line of a single-workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload runs in fresh single-threaded child processes
(``child.py``) started with this interpreter and ``src`` on the path,
with a fixed hash seed and BLAS/OpenMP thread counts of 1. Set-up is
timed from process start to ``READY`` in ``SETUP_SAMPLES`` processes and
reported as their median. Op latencies come from untraced runs only; a
traced run gives the per-layer numbers and the tracing overhead, and
writes its spans to ``perfbench/out/spans-<workload>.tsv.gz``.

Op latencies and ``ops_per_s`` are given at a reference host speed: each
op's time is scaled by how slow a fixed kernel of the benchmark's own ran
around it (``hostspeed.py``), because the shared host's speed drifts by
more than the regression bounds. The times as measured are printed
beside them. Of ``setup_s`` only the input build (on charts, building
the fan) is scaled; process start and imports are not. The per-layer
times are not scaled.

Counts from traced runs and output digests per seed are kept in
``perfbench/out/counts-<workload>.json`` for the current source tree; a
later run of the same source that disagrees fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
CHILD_LIMIT_S = 170.0   # a run must end within 180 s
MIN_TAIL_BEYOND = 10

# name, unit
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

# name, unit, what it should move (workload). Times are per pass over the
# workload's inputs, median over traced passes; counts are per pass and
# must repeat exactly.
PER_LAYER = (
    ("fan.cone_catalog.s", "s", "ops_per_s (box-h3 >> fan-wide; none on charts)"),
    ("fan.build_fan.self_s", "s", "ops_per_s (fan-wide, corpus)"),
    ("fan.verify_fan.s", "s", "ops_per_s, op_tail_s (fan-wide, corpus)"),
    ("fan.slice_fan.s", "s", "ops_per_s (charts)"),
    ("svg.render_slice_svg.s", "s", "ops_per_s (charts)"),
    ("svg.bytes_out", "bytes", "ops_per_s (charts)"),
    ("weightings.shift_by_cycles.calls", "count", "box points; ops_per_s, peak_rss_mb (box-h3)"),
    ("weightings.has_positive_cycle.calls", "count", "ops_per_s (box-h3)"),
    ("weightings.has_positive_cycle.true", "count", "pruned points; ops_per_s (box-h3)"),
    ("cones.cycle_constraint_rows.calls", "count", "constraint systems; ops_per_s (box-h3)"),
    ("weightings.box.useful_ratio", "ratio", "ops_per_s, peak_rss_mb (box-h3)"),
    ("weightings.base_weighting.s", "s", "ops_per_s (box-h3)"),
    ("weightings.lift_weighting.calls", "count", "ops_per_s (box-h3)"),
    ("graph.cycle_basis.calls", "count", "ops_per_s (box-h3), op_p50_s (corpus)"),
    ("graph.cycle_basis.s", "s", "ops_per_s (box-h3), op_p50_s (corpus)"),
    ("graph.edges.calls", "count", "ops_per_s (box-h3), op_p50_s (corpus)"),
    ("graph.halves_at.calls", "count", "ops_per_s (box-h3), op_p50_s (corpus)"),
    ("graph.enumerate_cycles.calls", "count", "ops_per_s (box-h3), op_p50_s (corpus)"),
    ("graph.contract.calls", "count", "ops_per_s (box-h3), op_p50_s (corpus)"),
    ("graph.contract.s", "s", "ops_per_s (box-h3), op_p50_s (corpus)"),
    ("cones.dd.calls", "count", "ops_per_s (fan-wide, corpus)"),
    ("cones.dd.s", "s", "ops_per_s (fan-wide, corpus)"),
    ("cones.orthant_section.calls", "count", "ops_per_s (fan-wide, corpus)"),
    ("cones.faces.calls", "count", "ops_per_s (fan-wide, corpus)"),
    ("cones.faces.s", "s", "ops_per_s (fan-wide, corpus)"),
    ("cones.intersect_cones.calls", "count", "verify pairs; ops_per_s (fan-wide, corpus)"),
    ("cones.is_face_of.s", "s", "ops_per_s (fan-wide, corpus)"),
    ("cones.canonical_key.calls", "count", "ops_per_s (fan-wide, corpus)"),
    ("cones.monoid_generators.s", "s", "ops_per_s (charts)"),
    ("cones.monoid_generators.points", "count", "ops_per_s (charts)"),
    ("cones.polar_dual.s", "s", "ops_per_s (charts)"),
    ("linalg.rref_int.calls", "count", "ops_per_s (fan-wide)"),
    ("linalg.rref_int.s", "s", "ops_per_s (fan-wide)"),
    ("linalg.int_rank.s", "s", "ops_per_s (fan-wide)"),
    ("linalg.integer_kernel.s", "s", "ops_per_s (charts)"),
    ("linalg.row_hnf.s", "s", "ops_per_s (charts)"),
    ("linalg.solve_left.s", "s", "ops_per_s (charts)"),
    ("io.parse_graph_json.s", "s", "op_p50_s (corpus)"),
    ("io.emit_fan_json.s", "s", "op_p50_s (corpus)"),
    ("io.bytes_out", "bytes", "op_p50_s (corpus)"),
    ("setup.import_s", "s", "setup_s (all workloads)"),
    ("trace.overhead_ratio", "ratio", "none: traced wall time / untraced wall time"),
)

# metrics read from a span's counted value rather than from its name
_VALUE_OF = {
    "weightings.has_positive_cycle.true": "weightings.has_positive_cycle",
    "cones.monoid_generators.points": "cones.monoid_generators",
    "svg.bytes_out": "svg.render_slice_svg",
    "io.bytes_out": "io.emit_fan_json",
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env.update(PYTHONPATH=os.pathsep.join(paths), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    return env


def run_child(workload, seed, seconds, mode, deadline):
    """Run one child to completion. Returns (set-up seconds, READY info,
    result or None)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    setup_s = ready = last = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY "):
                wall = time.perf_counter() - t0
                ready = json.loads(line[len("READY "):])
                # process start and imports as timed, the input build at
                # reference host speed
                build = ready["inputs_s"] - ready["kernel_s"]
                setup_s = wall - ready["inputs_s"] + build / ready["host_factor"]
                ready["wall_s"] = wall
            elif line.strip():
                last = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None or (mode != "setup" and last is None):
        raise BenchError(f"{workload} child ({mode}) exited with {proc.returncode}")
    return setup_s, ready, (json.loads(last) if mode != "setup" else None)


def _tail_rank(n):
    """Sorted index of the highest percentile with MIN_TAIL_BEYOND samples
    beyond it, or None when that would not lie above the median."""
    rank = n - 1 - MIN_TAIL_BEYOND
    return rank if rank >= n // 2 else None


def tail(passes):
    """(value, how it was taken) of the tail latency. The percentile is
    taken in each pass and reported as the median over passes, so that its
    rank does not depend on how many passes fit in a run; over all ops
    when a pass is too short, and the maximum when the whole run is."""
    m = len(passes[0])
    rank = _tail_rank(m)
    if rank is not None:
        value = statistics.median(sorted(p)[rank] for p in passes)
        return value, (f"p{100.0 * (rank + 1) / m:.1f} of each pass of {m} ops "
                       f"({MIN_TAIL_BEYOND} beyond), median of {len(passes)} passes")
    s = sorted(x for p in passes for x in p)
    rank = _tail_rank(len(s))
    if rank is not None:
        return s[rank], (f"p{100.0 * (rank + 1) / len(s):.1f} of {len(s)} ops "
                         f"({MIN_TAIL_BEYOND} beyond)")
    return s[-1], (f"max of {len(s)} ops (too few for a percentile above "
                   f"the median with {MIN_TAIL_BEYOND} beyond)")


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_repeats(workload, seed, counts, output_sha256):
    """Compare counts and this seed's output digest with earlier runs of
    the same source tree, and record them. Returns the problems found."""
    path = OUT / f"counts-{workload}.json"
    digest = source_digest()
    record = {"source_sha256": digest, "counts": None, "output_sha256": {}}
    if path.exists():
        old = json.loads(path.read_text())
        if old.get("source_sha256") == digest:
            record = old
    problems = []
    if counts is not None:
        if record["counts"] is None:
            record["counts"] = counts
        elif record["counts"] != counts:
            diff = sorted(k for k in set(counts) | set(record["counts"])
                          if counts.get(k) != record["counts"].get(k))
            problems.append(f"counts differ from an earlier run: {diff[:8]}")
    if record["output_sha256"].setdefault(str(seed), output_sha256) != output_sha256:
        problems.append(f"output digest for seed {seed} differs from an earlier run")
    OUT.mkdir(exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return problems


def end_to_end(result, setup_samples):
    lat = [x for p in result["passes"] for x in p]
    tail_s, tail_note = tail(result["passes"])
    error_rate = result["failed"] / result["attempted"]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(lat) / result["busy_s"],
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "success_rate": 1.0 - error_rate,
    }
    notes = {
        "setup_s": (f"median of {len(setup_samples)} fresh processes; "
                    f"{result['setup_wall_s']:.6g} s as timed"),
        "ops_per_s": (f"{len(lat)} ops in {result['busy_s']:.3f} s busy at reference "
                      f"host speed, {result['raw_busy_s']:.3f} s as timed; host "
                      f"{result['host_factor']:.3f}x slower than reference "
                      f"({result['host_samples']} samples)"),
        "op_p50_s": f"median of {len(lat)} ops; {result['raw_p50_s']:.6g} s as timed",
        "op_tail_s": tail_note,
        "success_rate": (f"error_rate {result['failed']}/{result['attempted']} "
                         f"= {error_rate:g}"),
    }
    return metrics, notes


def per_layer(result, import_samples):
    passes = result["passes"]
    counts = result["counts"]

    def timed(span, field):
        return statistics.median(p.get(span, {}).get(field, 0.0) for p in passes)

    metrics = {}
    for name, _, _ in PER_LAYER:
        if name in _VALUE_OF:
            metrics[name] = counts.get(f"{_VALUE_OF[name]}.value", 0)
        elif name.endswith(".calls"):
            metrics[name] = counts.get(name, 0)
        elif name == "weightings.box.useful_ratio":
            points = counts.get("weightings.shift_by_cycles.calls", 0)
            systems = counts.get("cones.cycle_constraint_rows.calls", 0)
            metrics[name] = systems / points if points else 0.0
        elif name == "setup.import_s":
            metrics[name] = statistics.median(import_samples)
        elif name == "trace.overhead_ratio":
            metrics[name] = (statistics.median(result["traced_walls"])
                             / statistics.median(result["plain_walls"]))
        elif name.endswith(".self_s"):
            metrics[name] = timed(name[:-len(".self_s")], "self_s")
        elif name.endswith(".s"):
            metrics[name] = timed(name[:-len(".s")], "s")
    notes = {"trace.overhead_ratio": f"{len(passes)} traced and "
                                     f"{len(result['plain_walls'])} untraced passes"}
    return metrics, notes


def run_workload(workload, seed, seconds, traced):
    """One run: set-up samples, then the measuring child. Returns the
    result object printed as the last line."""
    deadline = time.monotonic() + CHILD_LIMIT_S
    setups, walls, imports = [], [], []
    for _ in range(SETUP_SAMPLES - 1):
        setup_s, ready, _ = run_child(workload, seed, seconds, "setup", deadline)
        setups.append(setup_s)
        walls.append(ready["wall_s"])
        imports.append(ready["import_s"])
    setup_s, ready, result = run_child(workload, seed, seconds,
                                       "trace" if traced else "run", deadline)
    setups.append(setup_s)
    walls.append(ready["wall_s"])
    imports.append(ready["import_s"])
    result["setup_wall_s"] = statistics.median(walls)
    problems = list(result["problems"])
    repeat = check_repeats(workload, seed, result.get("counts"),
                           result["output_sha256"])
    problems += repeat
    failed = min(result["attempted"], result["failed"] + len(repeat))
    result["failed"] = failed
    if traced:
        metrics, notes = per_layer(result, imports)
        units = {name: unit for name, unit, _ in PER_LAYER}
        moves = {name: m for name, _, m in PER_LAYER}
    else:
        metrics, notes = end_to_end(result, setups)
        units = dict(END_TO_END)
        moves = {}
    for name, value in metrics.items():
        extra = notes.get(name) or moves.get(name, "")
        print(f"{workload:9s} {name:36s} {value:>14.6g} {units[name]:6s} {extra}")
    print(f"{workload:9s} {'output_sha256':36s} {result['output_sha256']}")
    for p in problems:
        print(f"{workload:9s} FAILED {p}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "flowfan" / "__init__.py").is_file():
        print(f"no flowfan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = ([(w, t) for w in WORKLOADS for t in (False, True)]
            if args.workload == "all" else [(args.workload, bool(args.trace))])
    try:
        for workload, traced in runs:
            result = run_workload(workload, args.seed, args.seconds, traced)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
