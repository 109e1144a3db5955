import json

import pytest
from hypothesis import given, strategies as st

from graphmonoid.graphs import (
    Edge,
    EdgeIndexDescriptor,
    Graph,
    GraphError,
    VertexClass,
    graph_from_json,
    graph_to_json,
    materialize_edges,
    out_edges,
    validate_graph,
    vertex_class,
)

from conftest import diamond, emitter_to_sink, single_edge, single_sink


def test_validate_unknown_range_vertex():
    g = Graph.build(["v"], [("e", "v", "nowhere")])
    report = validate_graph(g)
    assert not report.ok
    assert any("'e'" in v and "nowhere" in v for v in report.violations)


def test_validate_single_sink_is_clean():
    assert validate_graph(single_sink()).ok


def test_validate_materialized_range_contradiction():
    desc = EdgeIndexDescriptor((), ("w",))
    g = Graph(
        ("v", "w"),
        (Edge("e0", "v", "v"),),
        (("v", desc, ("e0",)),),
    )
    report = validate_graph(g)
    assert any("index 0" in v for v in report.violations)


def test_validate_stray_emitter_out_edge():
    desc = EdgeIndexDescriptor((), ("w",))
    g = Graph(
        ("v", "w"),
        (Edge("e0", "v", "w"), Edge("x", "v", "w")),
        (("v", desc, ("e0",)),),
    )
    assert any("materialized list" in v for v in validate_graph(g).violations)


def test_vertex_class_trivials():
    g = emitter_to_sink(0)
    assert vertex_class(g, "v") is VertexClass.INFINITE_EMITTER
    assert vertex_class(g, "w") is VertexClass.SINK
    assert vertex_class(single_edge(), "v") is VertexClass.REGULAR
    with pytest.raises(GraphError):
        vertex_class(g, "zz")


def test_materialize_cycle_descriptor():
    g = materialize_edges(emitter_to_sink(0), "v", 3)
    ids = g.materialized("v")
    assert ids == ("e0^v", "e1^v", "e2^v")
    assert all(g.edge(eid).dst == "w" for eid in ids)


def test_materialize_idempotent():
    g = emitter_to_sink(2)
    assert materialize_edges(g, "v", 2) == g


def test_materialize_prefix_then_cycle():
    desc = EdgeIndexDescriptor(("u",), ("w",))
    g = Graph.build(["u", "v", "w"], [], {"v": (desc, [])})
    g2 = materialize_edges(g, "v", 2)
    assert g2.edge("e0^v").dst == "u"
    assert g2.edge("e1^v").dst == "w"


def test_materialize_refuses_shrink_and_non_emitters():
    g = emitter_to_sink(2)
    with pytest.raises(GraphError):
        materialize_edges(g, "v", 1)
    with pytest.raises(GraphError):
        materialize_edges(g, "w", 1)


def test_materialize_composes():
    g = emitter_to_sink(0)
    via_two = materialize_edges(materialize_edges(g, "v", 2), "v", 5)
    assert via_two == materialize_edges(g, "v", 5)


def test_emitter_class_stable_under_materialization():
    g = emitter_to_sink(0)
    for k in range(4):
        assert vertex_class(materialize_edges(g, "v", k), "v") is VertexClass.INFINITE_EMITTER


def test_out_edges():
    assert out_edges(single_sink(), "v") == ()
    g = diamond()
    assert [e.id for e in out_edges(g, "v")] == ["a", "b"]
    e3 = emitter_to_sink(3)
    assert [e.id for e in out_edges(e3, "v")] == ["e0", "e1", "e2"]


@given(
    prefix=st.lists(st.sampled_from("uvw"), max_size=4),
    cycle=st.lists(st.sampled_from("uvw"), min_size=1, max_size=4),
    n=st.integers(min_value=0, max_value=40),
)
def test_descriptor_matches_naive_unrolling(prefix, cycle, n):
    desc = EdgeIndexDescriptor(tuple(prefix), tuple(cycle))
    unrolled = list(prefix)
    while len(unrolled) <= n:
        unrolled.extend(cycle)
    assert desc.range_at(n) == unrolled[n]


def test_descriptor_needs_cycle():
    with pytest.raises(GraphError):
        EdgeIndexDescriptor((), ())


def test_json_round_trip_plain():
    g = diamond()
    assert graph_from_json(graph_to_json(g)) == g


def test_json_round_trip_emitter_keeps_index_order():
    g = emitter_to_sink(3)
    doc = graph_to_json(g)
    g2 = graph_from_json(doc)
    assert g2 == g
    assert g2.materialized("v") == ("e0", "e1", "e2")


def test_json_materialized_count_mismatch():
    doc = graph_to_json(emitter_to_sink(2))
    doc["infinite_emitters"]["v"]["materialized"] = 1
    with pytest.raises(GraphError):
        graph_from_json(doc)


def test_json_rejects_malformed_sections():
    with pytest.raises(GraphError):
        graph_from_json({"vertices": "v"})
    with pytest.raises(GraphError):
        graph_from_json({"vertices": ["v"], "infinite_emitters": ["v"]})
    with pytest.raises(GraphError):
        graph_from_json({"vertices": ["v"], "infinite_emitters": {"v": "cycle"}})
    # a string is not a list of one-character vertex ids
    with pytest.raises(GraphError, match="arrays"):
        graph_from_json({"vertices": ["v", "w"], "infinite_emitters": {"v": {"cycle": "ww"}}})
    with pytest.raises(GraphError, match="arrays"):
        graph_from_json({"vertices": ["v", "w"], "infinite_emitters": {"v": {"prefix": "ww", "cycle": ["w"]}}})
    with pytest.raises(GraphError):
        graph_from_json({"edges": []})


def test_json_boundary_annotation():
    from graphmonoid.graphs import boundary_from_json

    g = single_edge()
    doc = graph_to_json(g, boundary=frozenset({"w"}))
    assert {"id": "w", "boundary": True} in doc["vertices"]
    assert graph_from_json(json.loads(json.dumps(doc))) == g
    assert boundary_from_json(doc) == frozenset({"w"})
