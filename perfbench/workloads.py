"""Seeded inputs for the benchmark workloads.

Everything here is plain Python and imports nothing from ``flowfan``, so
the inputs do not change when the library or its tests change. Inputs are
GraphDocument dicts, the format ``flowfan fan`` reads.

The corpus is one fixed draw of 200 graphs. Its op costs are heavily
skewed, so a fresh draw per seed moves the total work: resampling 200 of
600 graphs, each timed once, gave ops/s an interquartile range of 26% of
its median, wider than any useful regression bound.

The seed relabels vertex and edge ids and shuffles the order in which the
corpus graphs run. Relabelling keeps the relative order of the ids: the
library picks spanning trees, edge order and cycle bases by sorted id, so
a relabelling that reordered ids would change the box the catalog walks
and with it the work of an op. Order-preserving relabelling changes every
id string but none of the work, and keeps the oracle reference valid.
"""

import random
import string

WORKLOADS = ("box-h3", "fan-wide", "corpus", "charts")

CORPUS_SEED = 20260809
CORPUS_SIZE = 200

_TOKEN_LEN = 6


def banana_doc(num_edges, n):
    """Two vertices joined by ``num_edges`` parallel edges, legs +n / -n."""
    return {
        "vertices": [{"id": "u", "genus": 0}, {"id": "v", "genus": 0}],
        "edges": [{"id": f"e{i}", "from": "u", "to": "v"}
                  for i in range(1, num_edges + 1)],
        "legs": [{"id": "p", "vertex": "u", "weight": n},
                 {"id": "q", "vertex": "v", "weight": -n}],
        "twist": 0,
    }


def random_graph_doc(rng):
    """One random corpus graph: |V| <= 4, |E| <= 5, first Betti number
    <= 2, vertex genera 0/1, leg weights in [-4, 4], twist 0/1, loops
    allowed; connected and valid by construction.

    Draws from ``rng`` in the same sequence as the test-suite generator of
    the same name, so the default seed yields the acceptance corpus.
    """
    while True:
        nv = rng.randint(1, 4)
        names = [f"v{i}" for i in range(nv)]
        genus_of = {v: rng.randint(0, 1) for v in names}
        edges = []
        for i in range(1, nv):
            edges.append((f"e{len(edges)}", names[rng.randrange(i)], names[i]))
        for _ in range(rng.randint(0, 2)):
            if len(edges) >= 5:
                break
            u = names[rng.randrange(nv)]
            v = names[rng.randrange(nv)]
            edges.append((f"e{len(edges)}", u, v))
        genus = len(edges) - nv + 1 + sum(genus_of.values())
        twist = rng.randint(0, 1)
        target = -twist * (2 * genus - 2)
        nlegs = rng.randint(0, 3)
        if target != 0:
            nlegs = max(nlegs, 1, (abs(target) + 3) // 4)
        if nlegs > 3 or abs(target) > 4 * max(nlegs, 1):
            continue
        weights = None
        for _ in range(60):
            head = [rng.randint(-4, 4) for _ in range(nlegs - 1)] if nlegs else []
            tail = target - sum(head)
            if nlegs == 0:
                if target == 0:
                    weights = []
                    break
            elif abs(tail) <= 4:
                weights = head + [tail]
                break
        if weights is None:
            continue
        legs = [(f"l{i}", names[rng.randrange(nv)], w)
                for i, w in enumerate(weights)]
        return {
            "vertices": [{"id": v, "genus": g} for v, g in genus_of.items()],
            "edges": [{"id": e, "from": u, "to": v} for e, u, v in edges],
            "legs": [{"id": lid, "vertex": v, "weight": w} for lid, v, w in legs],
            "twist": twist,
        }


def corpus_docs():
    rng = random.Random(CORPUS_SEED)
    return [random_graph_doc(rng) for _ in range(CORPUS_SIZE)]


def _order_preserving_ids(ids, prefix, rng):
    """Map each id to ``prefix`` + a random token, keeping the sort order.

    Tokens have a fixed length, so documents keep their byte length."""
    tokens = set()
    while len(tokens) < len(ids):
        tokens.add("".join(rng.choice(string.ascii_lowercase)
                           for _ in range(_TOKEN_LEN)))
    return {old: prefix + tok for old, tok in zip(sorted(ids), sorted(tokens))}


def relabel(doc, rng):
    """Rename vertices and edges, keeping id order; legs keep their ids.

    Edge ids get the prefix ``e`` and every leg id in these documents
    starts with a later letter, so half-edge order is kept as well."""
    vmap = _order_preserving_ids([v["id"] for v in doc["vertices"]], "v", rng)
    emap = _order_preserving_ids([e["id"] for e in doc["edges"]], "e", rng)
    return {
        "vertices": [{"id": vmap[v["id"]], "genus": v["genus"]}
                     for v in doc["vertices"]],
        "edges": [{"id": emap[e["id"]], "from": vmap[e["from"]], "to": vmap[e["to"]]}
                  for e in doc["edges"]],
        "legs": [{"id": l["id"], "vertex": vmap[l["vertex"]], "weight": l["weight"]}
                 for l in doc["legs"]],
        "twist": doc["twist"],
    }


def base_docs(workload):
    """The unrelabelled documents of a workload, in reference order."""
    if workload == "box-h3":
        return [banana_doc(4, 3)]
    if workload in ("fan-wide", "charts"):
        return [banana_doc(3, 20)]
    if workload == "corpus":
        return corpus_docs()
    raise ValueError(f"unknown workload {workload!r}")


def seeded_inputs(workload, seed):
    """(reference index, relabelled document) pairs in run order."""
    rng = random.Random(f"{workload}/{seed}")
    pairs = [(i, relabel(doc, rng)) for i, doc in enumerate(base_docs(workload))]
    rng.shuffle(pairs)
    return pairs
