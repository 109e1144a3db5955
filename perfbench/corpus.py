"""Seeded benchmark inputs, built directly as the library's JSON documents.

Nothing here imports graphmonoid: graphs, elements and chain systems are
plain dicts in the formats `graph_from_json`, `element_from_json` and
`chain_from_json` read, so the library only ever sees them through its
parsers.  Vertex names and edge ids can carry a common prefix; a prefix keeps
the relative order of all names, so a prefixed graph has the same
presentation up to renaming (same generator order, same completion work) but
is a different object to every cache keyed on the presentation.
"""

from __future__ import annotations

import random
from itertools import combinations


def graph_doc(vertices, edges, emitters=None, prefix=""):
    """Graph JSON from (id, src, dst) edges and {v: (prefix, cycle, count)} emitters.

    Materialized edges of emitter v are e{n}^{v}, ranging as the descriptor
    prescribes; they go last in the edge array, in index order.
    """
    emitters = emitters or {}
    p = prefix
    out_edges = [{"id": p + e, "src": p + s, "dst": p + d} for e, s, d in edges]
    blocks = {}
    for v, (pre, cyc, count) in sorted(emitters.items()):
        ranges = [pre[n] if n < len(pre) else cyc[(n - len(pre)) % len(cyc)] for n in range(count)]
        out_edges += [
            {"id": f"{p}e{n}^{p}{v}", "src": p + v, "dst": p + r} for n, r in enumerate(ranges)
        ]
        blocks[p + v] = {
            "prefix": [p + w for w in pre],
            "cycle": [p + w for w in cyc],
            "materialized": count,
        }
    return {
        "vertices": sorted(p + v for v in vertices),
        "edges": out_edges,
        "infinite_emitters": blocks,
    }


def vertex_element(counts: dict[str, int]) -> dict:
    """Element JSON over vertex generators a_v."""
    return {
        "terms": [{"gen": {"kind": "v", "v": v}, "mult": m} for v, m in sorted(counts.items()) if m]
    }


# -- the fixed mixed corpus ----------------------------------------------------

def emitter_to_sink(k, prefix=""):
    return graph_doc(["v", "w"], [], {"v": ((), ("w",), k)}, prefix)


def emitter_mixed(k, prefix=""):
    return graph_doc(["u", "v", "w"], [("r", "u", "w")], {"v": (("u",), ("w",), k)}, prefix)


def random_mixed_graph(rng: random.Random, n_vertices: int, max_mat: int = 3, prefix=""):
    """Seeded graph mixing sinks, regular vertices and up to two emitters."""
    names = [f"v{i}" for i in range(n_vertices)]
    emitter_names = sorted(rng.sample(names, rng.randint(0, min(2, n_vertices))))
    edges = []
    for v in names:
        if v in emitter_names:
            continue
        for _ in range(rng.randint(0, 3)):
            edges.append((f"e{len(edges)}", v, names[rng.randrange(n_vertices)]))
    descs = {}
    for v in emitter_names:
        pre = tuple(names[rng.randrange(n_vertices)] for _ in range(rng.randint(0, 1)))
        cyc = tuple(names[rng.randrange(n_vertices)] for _ in range(rng.randint(1, 2)))
        descs[v] = (pre, cyc)
    emitters = {v: (*descs[v], rng.randint(1, max_mat)) for v in emitter_names}
    return graph_doc(names, edges, emitters, prefix)


def mixed_corpus(prefix=""):
    """The 23-graph mixed corpus: eleven fixed shapes and twelve drawn from seed 0.

    The acceptance suite's mixed corpus up to edge names, so that cost figures
    quoted for its graphs (by index) apply here.
    """
    p = prefix
    fixed = [
        graph_doc(["v"], [], prefix=p),
        graph_doc(["v", "w"], [("e", "v", "w")], prefix=p),
        graph_doc(
            ["u", "v", "w1", "w2"],
            [("a", "v", "w1"), ("b", "v", "w2"), ("c", "w1", "u"), ("d", "w2", "u")],
            prefix=p,
        ),
        graph_doc(["v"], [("e0", "v", "v"), ("e1", "v", "v")], prefix=p),
        graph_doc(["a", "b"], [("e", "a", "b"), ("f", "b", "a")], prefix=p),
        emitter_to_sink(1, p),
        emitter_to_sink(2, p),
        emitter_to_sink(3, p),
        emitter_mixed(3, p),
        graph_doc(["v"], [], {"v": ((), ("v",), 1)}, p),
        graph_doc(
            ["s", "x", "y"],
            [],
            {"x": ((), ("s",), 1), "y": (("s",), ("x",), 2)},
            p,
        ),
    ]
    rng = random.Random(0)
    seeded = [random_mixed_graph(rng, rng.randint(2, 6), prefix=p) for _ in range(12)]
    return fixed + seeded


def graph_level(doc) -> int:
    """Smallest truncation level that is safe for every generator of the graph."""
    counts = [e["materialized"] for e in doc["infinite_emitters"].values()]
    return max(2, (max(counts) + 1) if counts else 2)


# -- emitter-cold --------------------------------------------------------------

def cold_emitter_case(rng: random.Random, k: int, prefix: str):
    """An emitter graph with k materialized edges, plus a pair equal by construction.

    Shape: emitter v ranging over u and one sink, regular u -> that sink,
    sinks w and x, and in half the graphs a second emitter y with one
    materialized edge.
    The pair is a_v + c a_u against a_{v,S} + sum_{e in S} a_{r(e)} + c a_t
    (relations R2 and R1 applied by hand, no engine involved).
    """
    # every range of v ends up at the one sink u_to: with two sinks among
    # its ranges completion processes 5-10 times the S-pairs, and the cost
    # of an op would be set by the seed rather than by k
    u_to = rng.choice(["w", "x"])
    targets = ["u", u_to]
    pre = tuple(rng.choice(targets) for _ in range(rng.randint(0, 1)))
    cyc = tuple(rng.sample(targets, rng.randint(1, 2)))
    emitters = {"v": (pre, cyc, k)}
    names = ["u", "v", "w", "x"]
    if rng.random() < 0.5:
        names.append("y")
        emitters["y"] = ((), (rng.choice(["u", "w", "x"]),), 1)
    doc = graph_doc(names, [("r0", "u", u_to)], emitters, prefix)
    ranges = [pre[n] if n < len(pre) else cyc[(n - len(pre)) % len(cyc)] for n in range(k)]
    subset = sorted(rng.sample(range(k), rng.randint(1, k)))
    c = rng.randint(0, 2)
    p = prefix
    lhs = {"terms": [{"gen": {"kind": "v", "v": p + "v"}, "mult": 1}]}
    if c:
        lhs["terms"].append({"gen": {"kind": "v", "v": p + "u"}, "mult": c})
    rhs_counts: dict[str, int] = {}
    for n in subset:
        rhs_counts[p + ranges[n]] = rhs_counts.get(p + ranges[n], 0) + 1
    if c:
        rhs_counts[p + u_to] = rhs_counts.get(p + u_to, 0) + c
    rhs = vertex_element(rhs_counts)
    rhs["terms"].append(
        {"gen": {"kind": "vS", "v": p + "v", "S": [f"{p}e{n}^{p}v" for n in subset]}, "mult": 1}
    )
    return doc, lhs, rhs


# -- warm-queries --------------------------------------------------------------

def random_dag(rng: random.Random, n: int, attempts: int, prefix=""):
    """Seeded DAG on n vertices: each attempt adds an edge from a lower to a higher vertex."""
    names = [f"v{i}" for i in range(n)]
    edges = []
    for k in range(attempts):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.append((f"e{k}", names[min(i, j)], names[max(i, j)]))
    return graph_doc(names, edges, prefix=prefix)


# -- bfs-crosscheck ------------------------------------------------------------

def small_graph_family():
    """Acceptance criterion 3's family of small graphs (its random part uses seed 0)."""
    docs = []
    for n in (1, 2, 3):
        names = [f"v{i}" for i in range(n)]
        pairs = [(a, b) for a in names for b in names]
        if n < 3:
            subsets = [[k for k in range(len(pairs)) if m >> k & 1] for m in range(2 ** len(pairs))]
        else:
            subsets = [list(c) for size in range(4) for c in combinations(range(len(pairs)), size)]
        for chosen in subsets:
            docs.append(graph_doc(names, [(f"e{k}", *pairs[k]) for k in chosen]))
    for n in (1, 2, 3):
        names = [f"v{i}" for i in range(n)]
        pairs = [(a, b) for a in names[1:] for b in names]
        if n < 3:
            subsets = [[k for k in range(len(pairs)) if m >> k & 1] for m in range(2 ** len(pairs))]
        else:
            subsets = [list(c) for size in range(3) for c in combinations(range(len(pairs)), size)]
        for chosen in subsets:
            for mat in (1, 2):
                edges = [(f"b{k}", *pairs[k]) for k in chosen]
                docs.append(graph_doc(names, edges, {"v0": ((), tuple(names), mat)}))
    rng = random.Random(0)
    docs += [random_mixed_graph(rng, 4, max_mat=2) for _ in range(25)]
    return docs


# -- tails-limits --------------------------------------------------------------

def _inclusion(small, big):
    return {
        "vertex_map": {v: v for v in small["vertices"]},
        "edge_map": {e["id"]: e["id"] for e in small["edges"]},
    }


def materializing_chain(vertices, edges, emitter, desc, counts, prefix=""):
    """System JSON: one emitter materialized further at each level, joined by inclusions."""
    graphs = [
        graph_doc(vertices, edges, {emitter: (*desc, k)}, prefix) for k in counts
    ]
    return {
        "graphs": graphs,
        "morphisms": [_inclusion(a, b) for a, b in zip(graphs, graphs[1:])],
    }


def chain_corpus(prefix=""):
    """Acceptance criterion 5's materializing chains, emitter-to-sink cut at four edges."""
    p = prefix
    return [
        ("emitter-to-sink", materializing_chain(["v", "w"], [], "v", ((), ("w",)), (1, 2, 3, 4), p)),
        ("self-loop-emitter", materializing_chain(["v"], [], "v", ((), ("v",)), (0, 1, 2, 3), p)),
        (
            "mixed-ranges",
            materializing_chain(["u", "v", "w"], [("r", "u", "w")], "v", (("u",), ("w",)), (1, 2, 3), p),
        ),
    ]
