"""Corpora and report builders for the acceptance suite.

Each criterion function returns (report, elapsed_seconds) where the report is
a JSON-serializable dict with deterministic content: rerunning with the same
seeds must reproduce it byte for byte.

The small-graph family for the word-engine completeness check is a bounded
deterministic stand-in for "all graphs with at most 4 vertices": the literal
family is infinite (parallel edges), so we enumerate every simple digraph on
up to 3 vertices, every one-emitter configuration on up to 3 vertices with at
most 2 materialized edges, and a seeded sample of 4-vertex graphs.  Element
pairs are exhaustive as stated.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from itertools import combinations

from graphmonoid import kernels
from graphmonoid.desingularize import desingularize, phi, psi, psi_generator_map
from graphmonoid.engine import (
    _unvec,
    bfs_reach,
    completed_system,
    elements_up_to_degree,
    equal,
)
from graphmonoid.graphs import EdgeIndexDescriptor, Graph, materialize_edges
from graphmonoid.limits import (
    GraphChain,
    GraphMorphism,
    check_continuity,
    induced_monoid_morphism,
    is_ck_morphism,
)
from graphmonoid.oracle import check_naturality, cross_check
from graphmonoid.presentation import (
    Generator,
    MonoidElement,
    presentation_of,
)

from conftest import diamond, emitter_mixed, emitter_to_sink, rose, single_edge, single_sink


def random_element(rng: random.Random, alphabet, max_degree: int) -> MonoidElement:
    degree = rng.randint(0, max_degree)
    counts: dict[Generator, int] = {}
    for _ in range(degree):
        gen = alphabet[rng.randrange(len(alphabet))]
        counts[gen] = counts.get(gen, 0) + 1
    return MonoidElement.from_counts(counts)


def random_mixed_graph(rng: random.Random, n_vertices: int, max_mat: int = 3) -> Graph:
    """Seeded graph with a mix of sinks, regular vertices and emitters."""
    names = [f"v{i}" for i in range(n_vertices)]
    n_emitters = rng.randint(0, min(2, n_vertices))
    emitter_names = sorted(rng.sample(names, n_emitters))
    edges = []
    eid = 0
    for v in names:
        if v in emitter_names:
            continue
        for _ in range(rng.randint(0, 3)):
            edges.append((f"e{eid}", v, names[rng.randrange(n_vertices)]))
            eid += 1
    emitters = {}
    for v in emitter_names:
        prefix = tuple(names[rng.randrange(n_vertices)] for _ in range(rng.randint(0, 1)))
        cycle = tuple(names[rng.randrange(n_vertices)] for _ in range(rng.randint(1, 2)))
        emitters[v] = (EdgeIndexDescriptor(prefix, cycle), [])
    g = Graph.build(names, edges, emitters)
    for v in emitter_names:
        g = materialize_edges(g, v, rng.randint(1, max_mat))
    return g


def random_dag(rng: random.Random, max_vertices: int = 7, max_edges: int = 10) -> Graph:
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for k in range(rng.randint(0, max_edges)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        lo, hi = min(i, j), max(i, j)
        edges.append((f"e{k}", names[lo], names[hi]))
    return Graph.build(names, edges)


def inclusion(small: Graph, big: Graph) -> GraphMorphism:
    return GraphMorphism.build(
        small, big, {v: v for v in small.vertices}, {e.id: e.id for e in small.edges}
    )


def mixed_corpus(rng: random.Random) -> list[Graph]:
    """At least 20 graphs, at most 6 vertices, sinks/regular/emitters mixed."""
    fixed = [
        single_sink(),
        single_edge(),
        diamond(),
        rose(2),
        Graph.build(["a", "b"], [("e", "a", "b"), ("f", "b", "a")]),  # 2-cycle
        emitter_to_sink(1),
        emitter_to_sink(2),
        emitter_to_sink(3),
        emitter_mixed(3),
        Graph.build(  # emitter ranging back into itself
            ["v"], [("e0", "v", "v")], {"v": (EdgeIndexDescriptor((), ("v",)), ["e0"])}
        ),
        Graph.build(  # two emitters sharing a sink
            ["s", "x", "y"],
            [("a0", "x", "s"), ("b0", "y", "s"), ("b1", "y", "x")],
            {
                "x": (EdgeIndexDescriptor((), ("s",)), ["a0"]),
                "y": (EdgeIndexDescriptor(("s",), ("x",)), ["b0", "b1"]),
            },
        ),
    ]
    seeded = [random_mixed_graph(rng, rng.randint(2, 6)) for _ in range(12)]
    return fixed + seeded


def graph_level(g: Graph) -> int:
    """One truncation level that is safe for every generator of the graph."""
    counts = [len(mat) for _, _, mat in g.emitters]
    return max(2, (max(counts) + 1) if counts else 2)


def completion_corpus() -> list[Graph]:
    """The mixed corpus, its tailed graphs at their levels, the small-graph
    family and emitter_mixed(2..6): the graphs whose completions the engine
    tests pin and check."""
    graphs = mixed_corpus(random.Random(0))
    tailed = [desingularize(g, graph_level(g)).graph for g in graphs]
    return graphs + tailed + small_graph_family() + [emitter_mixed(k) for k in range(2, 7)]


# -- criterion 1: round trips through the tailed graph ------------------------

def criterion_1():
    t0 = time.perf_counter()
    rng = random.Random(0)
    graphs = mixed_corpus(rng)
    failures: list[str] = []
    records = []
    for gi, g in enumerate(graphs):
        p = presentation_of(g)
        level = graph_level(g)
        d = desingularize(g, level)
        pf = presentation_of(d.graph)
        xs = [MonoidElement.single(gen) for gen in p.alphabet]
        xs += [random_element(rng, p.alphabet, 5) for _ in range(100)]
        for x in xs:
            if not equal(p, psi(d, phi(d, x)), x):
                failures.append(f"graph {gi}: psi(phi(x)) != x for x = {x}")
        rev_alphabet = tuple(
            gen for gen in psi_generator_map(d) if gen.vertex not in d.boundary
        )
        ys = [MonoidElement.single(gen) for gen in rev_alphabet]
        ys += [random_element(rng, rev_alphabet, 5) for _ in range(100)]
        for y in ys:
            if not equal(pf, phi(d, psi(d, y)), y):
                failures.append(f"graph {gi}: phi(psi(y)) != y for y = {y}")
        records.append(
            {"graph": gi, "level": level, "forward": len(xs), "reverse": len(ys)}
        )
    report = {
        "criterion": 1,
        "graphs": len(graphs),
        "checks": records,
        "failures": failures,
    }
    return report, time.perf_counter() - t0


# -- criterion 2: relations are preserved both ways ---------------------------

def criterion_2():
    t0 = time.perf_counter()
    rng = random.Random(0)
    graphs = mixed_corpus(rng)
    failures: list[str] = []
    forward = backward = unmapped = 0
    for gi, g in enumerate(graphs):
        p = presentation_of(g)
        d = desingularize(g, graph_level(g))
        pf = presentation_of(d.graph)
        for ri, (lhs, rhs) in enumerate(p.relations):
            forward += 1
            if not equal(pf, phi(d, lhs), phi(d, rhs)):
                failures.append(f"graph {gi}: relation {ri} broken under phi")
        defined = set(psi_generator_map(d))
        for ri, (lhs, rhs) in enumerate(pf.relations):
            if d.mentions_boundary(lhs) or d.mentions_boundary(rhs):
                continue
            support = set(lhs.support()) | set(rhs.support())
            if not support <= defined:
                # tail vertices of an emitter with fewer materialized edges
                # than the shared level; the inverse map is partial there
                unmapped += 1
                continue
            backward += 1
            if not equal(p, psi(d, lhs), psi(d, rhs)):
                failures.append(f"graph {gi}: tailed relation {ri} broken under psi")
    report = {
        "criterion": 2,
        "graphs": len(graphs),
        "forward_relations": forward,
        "backward_relations": backward,
        "outside_inverse_domain": unmapped,
        "failures": failures,
    }
    return report, time.perf_counter() - t0


# -- criterion 3: completion agrees with breadth-first search -----------------

def small_graph_family() -> list[Graph]:
    graphs: list[Graph] = []
    for n in (1, 2, 3):
        names = [f"v{i}" for i in range(n)]
        pairs = [(a, b) for a in names for b in names]
        if n < 3:
            masks = range(2 ** len(pairs))
            subsets = [[k for k in range(len(pairs)) if m >> k & 1] for m in masks]
        else:
            subsets = [list(c) for size in range(4) for c in combinations(range(len(pairs)), size)]
        for chosen in subsets:
            edges = [(f"e{k}", *pairs[k]) for k in chosen]
            graphs.append(Graph.build(names, edges))
    for n in (1, 2, 3):
        names = [f"v{i}" for i in range(n)]
        cycle = tuple(names)
        others = names[1:]
        pairs = [(a, b) for a in others for b in names]
        if n < 3:
            subsets = [[k for k in range(len(pairs)) if m >> k & 1] for m in range(2 ** len(pairs))]
        else:
            subsets = [list(c) for size in range(3) for c in combinations(range(len(pairs)), size)]
        for chosen in subsets:
            for mat in (1, 2):
                edges = [(f"b{k}", *pairs[k]) for k in chosen]
                g = Graph.build(names, edges, {"v0": (EdgeIndexDescriptor((), cycle), [])})
                graphs.append(materialize_edges(g, "v0", mat))
    rng = random.Random(0)
    graphs += [random_mixed_graph(rng, 4, max_mat=2) for _ in range(25)]
    return graphs


def criterion_3():
    t0 = time.perf_counter()
    graphs = small_graph_family()
    failures: list[str] = []
    elements = 0
    verdicts = 0
    for gi, g in enumerate(graphs):
        p = presentation_of(g)
        rs = completed_system(p)
        xs = elements_up_to_degree(len(p.alphabet), 4)
        elements += xs.shape[0]
        nf = kernels.nf_batch(xs, rs.lhs, rs.rhs)
        keys = [row.tobytes() for row in nf]
        lookup = {tuple(int(c) for c in xs[i]): i for i in range(xs.shape[0])}
        groups = defaultdict(list)
        for i, key in enumerate(keys):
            groups[key].append(i)
        for i in range(xs.shape[0]):
            x = _unvec(xs[i], p)
            reach, saturated = bfs_reach(p, x, 8)
            # only the vectors of degree <= 4 have a verdict; sorting just those
            # keeps the report's failure order
            for vec in sorted(vec for vec in reach if vec in lookup):
                j = lookup[vec]
                verdicts += 1
                if keys[j] != keys[i]:
                    failures.append(
                        f"graph {gi}: BFS joins elements #{i} and #{j}, engine separates them"
                    )
            if saturated:
                for j in groups[keys[i]]:
                    verdicts += 1
                    if tuple(int(c) for c in xs[j]) not in reach:
                        failures.append(
                            f"graph {gi}: engine joins elements #{i} and #{j}, "
                            f"BFS closed the class without reaching #{j}"
                        )
    report = {
        "criterion": 3,
        "graphs": len(graphs),
        "elements": elements,
        "bfs_verdicts": verdicts,
        "failures": failures,
    }
    return report, time.perf_counter() - t0


# -- criterion 4: engine equality matches path counting on DAGs ---------------

def criterion_4():
    t0 = time.perf_counter()
    rng = random.Random(0)
    failures: list[str] = []
    agreements = 0
    for gi in range(50):
        g = random_dag(rng)
        vertex_gens = tuple(Generator(v) for v in g.vertices)
        pairs = [
            (random_element(rng, vertex_gens, 4), random_element(rng, vertex_gens, 4))
            for _ in range(100)
        ]
        report = cross_check(g, pairs)
        agreements += report.agreements
        for item in report.discrepancies:
            failures.append(f"dag {gi}: {item}")
    report = {
        "criterion": 4,
        "dags": 50,
        "pairs": 50 * 100,
        "agreements": agreements,
        "failures": failures,
    }
    return report, time.perf_counter() - t0


# -- criterion 5: chain equality is limit equality ----------------------------

def materializing_chain(base: Graph, emitter: str, counts) -> GraphChain:
    graphs = [materialize_edges(base, emitter, k) for k in counts]
    steps = [inclusion(a, b) for a, b in zip(graphs, graphs[1:])]
    return GraphChain.build(graphs, steps)


def chain_corpus() -> list[tuple[str, GraphChain]]:
    to_sink = emitter_to_sink(0)
    self_loop = Graph.build(["v"], [], {"v": (EdgeIndexDescriptor((), ("v",)), [])})
    mixed = Graph.build(
        ["u", "v", "w"],
        [("r", "u", "w")],
        {"v": (EdgeIndexDescriptor(("u",), ("w",)), [])},
    )
    return [
        ("emitter-to-sink", materializing_chain(to_sink, "v", (1, 2, 3, 4, 5))),
        ("self-loop-emitter", materializing_chain(self_loop, "v", (0, 1, 2, 3))),
        ("mixed-ranges", materializing_chain(mixed, "v", (1, 2, 3))),
    ]


def criterion_5():
    t0 = time.perf_counter()
    failures: list[str] = []
    records = []
    for name, chain in chain_corpus():
        report = check_continuity(chain, degree=3)
        if not report.ok:
            failures.extend(f"{name}: {m}" for m in report.mismatches)
            failures.extend(f"{name}: uncovered {u}" for u in report.uncovered_generators)
        top = len(chain) - 1
        top_p = presentation_of(chain.graphs[top])
        covered_at: dict[Generator, int] = {}
        for i in range(len(chain)):
            gen_map = induced_monoid_morphism(chain.morphism(i, top))
            for image in gen_map.values():
                gen = image.support()[0]
                covered_at.setdefault(gen, i)
        for gen in top_p.alphabet:
            if gen not in covered_at:
                failures.append(f"{name}: generator {gen} not hit by any level")
        records.append(
            {
                "chain": name,
                "levels": report.levels,
                "sample_sizes": list(report.sample_sizes),
                "first_cover_histogram": sorted(covered_at.values()),
            }
        )
    report = {"criterion": 5, "chains": records, "failures": failures}
    return report, time.perf_counter() - t0


# -- criterion 6: naturality of the induced maps over DAGs --------------------

def seeded_ck_between_dags(rng: random.Random) -> GraphMorphism:
    e = random_dag(rng, max_vertices=6, max_edges=8)
    vertices = list(e.vertices)
    edges = [(x.id, x.src, x.dst) for x in e.edges]
    sinks = [v for v in e.vertices if not any(x.src == v for x in e.edges)]
    fresh = 0
    for s in sinks:
        if rng.random() < 0.6:
            below = f"z{fresh}"
            vertices.append(below)
            edges.append((f"t{fresh}", s, below))
            fresh += 1
    if rng.random() < 0.5:
        vertices += [f"q{fresh}", f"q{fresh + 1}"]
        edges.append((f"t{fresh + 1}", f"q{fresh}", f"q{fresh + 1}"))
    f = Graph.build(vertices, edges)
    return GraphMorphism.build(
        e, f, {v: v for v in e.vertices}, {x.id: x.id for x in e.edges}
    )


def criterion_6():
    t0 = time.perf_counter()
    rng = random.Random(0)
    failures: list[str] = []
    checked = 0
    for mi in range(20):
        m = seeded_ck_between_dags(rng)
        ck = is_ck_morphism(m)
        if not ck.ok:
            failures.append(f"morphism {mi}: not CK: {'; '.join(ck.violations)}")
            continue
        report = check_naturality(m)
        checked += report.checked
        for item in report.mismatches:
            failures.append(f"morphism {mi}: {item}")
    report = {
        "criterion": 6,
        "morphisms": 20,
        "generators_checked": checked,
        "failures": failures,
    }
    return report, time.perf_counter() - t0


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
}
