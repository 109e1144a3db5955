import random
import re

import pytest

from graphmonoid.graphs import Graph, out_edges
from graphmonoid.limits import GraphMorphism
from graphmonoid.oracle import (
    OracleError,
    SinkVector,
    check_naturality,
    cross_check,
    gamma_acyclic,
    path_count,
    path_count_table,
    sink_transfer,
    topological_order,
)
from graphmonoid.presentation import MonoidElement, presentation_of, vgen

from conftest import diamond, emitter_to_sink, rose, single_edge, single_sink


def single(v):
    return MonoidElement.single(vgen(v))


def brute_force_paths(g: Graph, v: str) -> dict[str, int]:
    """Independent oracle: enumerate every directed path by depth-first walk."""
    outs = {u: [e.dst for e in out_edges(g, u)] for u in g.vertices}
    counts: dict[str, int] = {}

    def walk(u):
        if not outs[u]:
            counts[u] = counts.get(u, 0) + 1
            return
        for nxt in outs[u]:
            walk(nxt)

    walk(v)
    return counts


def test_sink_counts_its_empty_path():
    assert path_count(single_sink(), "v") == SinkVector((("v", 1),))


def test_single_edge():
    assert path_count(single_edge(), "v").as_dict() == {"w": 1}


def test_diamond_counts_two_paths():
    g = diamond()
    assert brute_force_paths(g, "v") == {"u": 2}
    assert path_count(g, "v").as_dict() == {"u": 2}


def test_path_count_agrees_with_brute_force_on_random_dags():
    rng = random.Random(5)
    for _ in range(20):
        g = random_dag(rng)
        for v in g.vertices:
            assert path_count(g, v).as_dict() == brute_force_paths(g, v)


def random_dag(rng: random.Random, max_v=6, max_e=9) -> Graph:
    n = rng.randint(1, max_v)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for k in range(rng.randint(0, max_e)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        lo, hi = min(i, j), max(i, j)
        edges.append((f"e{k}", names[lo], names[hi]))
    return Graph.build(names, edges)


def test_gamma_examples():
    g = diamond()
    assert gamma_acyclic(g, 2 * single("v")).as_dict() == {"u": 4}
    assert gamma_acyclic(g, MonoidElement()) == SinkVector()
    assert gamma_acyclic(g, single("u")).as_dict() == {"u": 1}


def test_gamma_is_additive():
    g = diamond()
    x, y = single("v") + single("w1"), 2 * single("w2")
    assert gamma_acyclic(g, x + y) == gamma_acyclic(g, x) + gamma_acyclic(g, y)


def test_gamma_rejects_cofinite_generators():
    g = emitter_to_sink(1)
    from graphmonoid.presentation import sgen

    with pytest.raises(OracleError):
        gamma_acyclic(single_edge(), MonoidElement.single(sgen(g, "v", ["e0"])))


def test_count_recursion_matches_out_edges():
    g = diamond()
    table = path_count_table(g)
    for v in g.vertices:
        edges = out_edges(g, v)
        if edges:
            total = SinkVector()
            for e in edges:
                total = total + table[e.dst]
            assert table[v] == total


def test_rejects_cycles_and_emitters():
    with pytest.raises(OracleError):
        topological_order(rose(1))
    with pytest.raises(OracleError):
        topological_order(emitter_to_sink(1))


def test_cross_check_diamond_examples():
    g = diamond()
    report = cross_check(
        g,
        [
            (single("v"), 2 * single("u")),
            (single("w1"), single("w2")),
            (single("v"), single("u")),
        ],
    )
    assert report.ok and report.agreements == 3
    p = presentation_of(g)
    from graphmonoid.engine import equal

    assert equal(p, single("v"), 2 * single("u"))
    assert equal(p, single("w1"), single("w2"))
    assert not equal(p, single("v"), single("u"))


def test_cross_check_random_pairs():
    rng = random.Random(7)
    g = diamond()
    gens = [vgen(v) for v in g.vertices]
    pairs = []
    for _ in range(60):
        pairs.append(
            (
                MonoidElement.from_counts({rng.choice(gens): rng.randint(0, 3) for _ in range(2)}),
                MonoidElement.from_counts({rng.choice(gens): rng.randint(0, 3) for _ in range(2)}),
            )
        )
    assert cross_check(g, pairs).ok


def test_sink_transfer_and_naturality():
    # eta embeds the diamond; its sink u gains an out-edge downstream
    e = diamond()
    f = Graph.build(
        ["u", "v", "w1", "w2", "z"],
        [
            ("a", "v", "w1"),
            ("b", "v", "w2"),
            ("c", "w1", "u"),
            ("d", "w2", "u"),
            ("t", "u", "z"),
        ],
    )
    m = GraphMorphism.build(
        e, f, {v: v for v in e.vertices}, {x.id: x.id for x in e.edges}
    )
    report = check_naturality(m)
    assert report.ok and report.checked == 4
    sv = gamma_acyclic(e, single("v"))
    assert sink_transfer(m, sv).as_dict() == {"z": 2}


def test_sink_vector_json_round_trip():
    from graphmonoid.oracle import sink_vector_from_json, sink_vector_to_json

    sv = gamma_acyclic(diamond(), 2 * single("v") + single("w1"))
    assert sink_vector_from_json(sink_vector_to_json(sv)) == sv
    assert sink_vector_to_json(sv) == {"u": 5}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"u": 1.7, "w": "3", "z": True, "y": -2}, "path count of sink 'u' must be an integer, got 1.7"),
        ({"w": "3"}, "path count of sink 'w' must be an integer, got '3'"),
        ({"z": True}, "path count of sink 'z' must be an integer, got True"),
        ({"y": -2}, "path count of sink 'y' must be >= 0, got -2"),
        ({1: 2}, "sink id must be a string, got 1"),
        ([["u", 1]], "sink vector must be an object"),
    ],
)
def test_sink_vector_json_rejects_what_it_would_coerce(data, message):
    from graphmonoid.oracle import sink_vector_from_json

    with pytest.raises(OracleError, match=re.escape(message)):
        sink_vector_from_json(data)
    assert sink_vector_from_json({"u": 2, "w": 0}) == SinkVector.from_dict({"u": 2})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SinkVector.from_dict({"u": 1.7}), "path count of sink 'u' must be an integer, got 1.7"),
        (lambda: SinkVector.from_dict({"w": "3"}), "path count of sink 'w' must be an integer, got '3'"),
        (lambda: SinkVector.from_dict({"z": True}), "path count of sink 'z' must be an integer, got True"),
        (lambda: SinkVector.from_dict({"z": False}), "path count of sink 'z' must be an integer, got False"),
        (lambda: SinkVector.from_dict({"y": -1}), "path count of sink 'y' must be >= 0, got -1"),
        (lambda: SinkVector.from_dict({"u": 2}) * 2.5, "scalar must be an integer, got 2.5"),
        (lambda: 2.5 * SinkVector(), "scalar must be an integer, got 2.5"),
        (lambda: SinkVector.from_dict({"u": 2}) * True, "scalar must be an integer, got True"),
        (lambda: SinkVector.from_dict({"u": 2}) * -1, "scalar must be >= 0, got -1"),
    ],
)
def test_sink_vectors_reject_what_they_would_coerce(make, message):
    with pytest.raises(OracleError, match=re.escape(message)):
        make()


def test_sink_vectors_take_integer_counts():
    import numpy as np

    sv = SinkVector.from_dict({"w": np.int64(3), "u": 1, "z": 0})
    assert sv.counts == (("u", 1), ("w", 3)) and type(sv.counts[1][1]) is int
    assert sv * 2 == np.int64(2) * sv == SinkVector((("u", 2), ("w", 6)))
    assert sv * 0 == SinkVector()


def test_naturality_on_seeded_morphisms():
    rng = random.Random(3)
    for _ in range(10):
        e = random_dag(rng)
        m = extend_dag(rng, e)
        report = check_naturality(m)
        assert report.ok, report.mismatches


def extend_dag(rng: random.Random, e: Graph) -> GraphMorphism:
    """Inclusion of e into a DAG that adds edges below e's sinks only."""
    vertices = list(e.vertices)
    edges = [(x.id, x.src, x.dst) for x in e.edges]
    sinks = [v for v in e.vertices if not any(x.src == v for x in e.edges)]
    for i, s in enumerate(sinks):
        if rng.random() < 0.6:
            fresh = f"z{i}"
            vertices.append(fresh)
            edges.append((f"t{i}", s, fresh))
    f = Graph.build(vertices, edges)
    return GraphMorphism.build(e, f, {v: v for v in e.vertices}, {x.id: x.id for x in e.edges})


def path_graph(n: int) -> Graph:
    names = [f"v{i:05d}" for i in range(n)]
    return Graph.build(names, [(f"e{i:05d}", names[i], names[i + 1]) for i in range(n - 1)])


@pytest.fixture
def sweeps(monkeypatch):
    """Graphs that path counting sorted topologically, one entry per sweep."""
    import graphmonoid.oracle as oracle

    seen: list[Graph] = []
    real = oracle.topological_order

    def counted(g):
        seen.append(g)
        return real(g)

    monkeypatch.setattr(oracle, "topological_order", counted)
    return seen


def test_naturality_builds_each_table_once(sweeps):
    rng = random.Random(3)
    for _ in range(5):
        m = extend_dag(rng, random_dag(rng))
        del sweeps[:]
        assert check_naturality(m).ok
        assert len(sweeps) == 2 and sweeps[0] is m.source and sweeps[1] is m.target
        assert check_naturality(m).ok and len(sweeps) == 2


def test_cross_check_builds_the_table_once(sweeps):
    g = diamond()
    gens = [vgen(v) for v in g.vertices]
    pairs = [(MonoidElement.single(a), MonoidElement.single(b)) for a in gens for b in gens]
    assert cross_check(g, pairs).agreements == len(pairs)
    assert sweeps == [g]


def test_naturality_on_a_long_path_is_one_table(sweeps):
    g = path_graph(1600)
    m = GraphMorphism.build(g, g, {v: v for v in g.vertices}, {e.id: e.id for e in g.edges})
    report = check_naturality(m)
    assert report.ok and report.checked == 1600
    assert len(sweeps) == len({id(x) for x in (m.source, m.target)}) == 1


def test_returned_table_is_a_copy():
    g = diamond()
    table = path_count_table(g)
    table["v"] = SinkVector((("u", 99),))
    del table["u"]
    assert path_count(g, "v").as_dict() == {"u": 2}
    assert gamma_acyclic(g, single("v") + single("u")).as_dict() == {"u": 3}
    assert path_count_table(g)["v"].as_dict() == {"u": 2}


def test_rejected_graphs_raise_on_every_call(sweeps):
    for g in (rose(1), emitter_to_sink(1)):
        for _ in range(2):
            with pytest.raises(OracleError):
                gamma_acyclic(g, MonoidElement())
    assert len(sweeps) == 4
