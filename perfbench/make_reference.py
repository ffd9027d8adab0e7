"""Derive ``perfbench/reference.json`` with the brute-force oracle.

The benchmark checks every op against these catalogs instead of against
output of the engine it times. They come from ``oracle_cone_catalog`` at
the paper's enumeration bound: an unpruned box walk whose rays are found
by the oracle's own tight-subset search. That takes minutes (banana(4,3)
alone took 102 s and the corpus 38 s on one core of a 2-core x86
container), so it runs once and the result is committed. Re-run it only
when a workload's inputs change:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, base_docs  # noqa: E402

REFERENCE = HERE / "reference.json"


def docs_digest(docs):
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_keys(doc):
    """Sorted catalog cones of ``doc``, each a sorted list of its rays."""
    from flowfan import (base_weighting, enumeration_bound,
                         oracle_cone_catalog, parse_graph_json)
    g = parse_graph_json(json.dumps(doc))
    radius = enumeration_bound(g, base_weighting(g))
    keys = oracle_cone_catalog(g, radius)
    return sorted([list(r) for r in rays] for lineality, rays in keys)


def main():
    out = {}
    for workload in WORKLOADS:
        docs = base_docs(workload)
        t0 = time.perf_counter()
        out[workload] = {"docs_sha256": docs_digest(docs),
                         "catalogs": [oracle_keys(d) for d in docs]}
        print(f"{workload}: {len(docs)} graphs, "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
