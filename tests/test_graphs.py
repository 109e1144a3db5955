import json

import pytest
from hypothesis import given, settings, strategies as st

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

from graphmonoid.oracle import OracleError, topological_order

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
    # edge fields and descriptor entries are strings, never converted with str()
    for edge in ({"id": None, "src": "v", "dst": "w"}, {"id": "e", "src": 0, "dst": "w"}, {"id": "e", "src": "v"}):
        with pytest.raises(GraphError, match="malformed edge entry"):
            graph_from_json({"vertices": ["v", "w"], "edges": [edge]})
    with pytest.raises(GraphError, match="strings"):
        graph_from_json({"vertices": ["v", "w"], "infinite_emitters": {"v": {"cycle": [None]}}})


def test_json_boundary_annotation():
    from graphmonoid.graphs import boundary_from_json

    g = single_edge()
    doc = graph_to_json(g, boundary=frozenset({"w"}))
    assert {"id": "w", "boundary": True} in doc["vertices"]
    assert graph_from_json(json.loads(json.dumps(doc))) == g
    assert boundary_from_json(doc) == frozenset({"w"})
    # a malformed document is a GraphError, as graph_from_json makes it
    for bad in ({"vertices": [{"boundary": True}]}, {"vertices": [{"id": 3, "boundary": True}]}, ["v"], "v",
                {"vertices": "ab"}, {"vertices": {"w": True}}):
        with pytest.raises(GraphError):
            boundary_from_json(bad)


# -- the graph's lookups against the scans they replaced -----------------------

def _scan_edge(g, eid):
    for e in g.edges:
        if e.id == eid:
            return e
    raise GraphError(f"unknown edge id {eid!r}")


def _scan_descriptor(g, v):
    for u, desc, _ in g.emitters:
        if u == v:
            return desc
    return None


def _scan_materialized(g, v):
    for u, _, mat in g.emitters:
        if u == v:
            return mat
    raise GraphError(f"{v!r} is not an infinite emitter")


def _scan_is_infinite_emitter(g, v):
    return any(u == v for u, _, _ in g.emitters)


def _scan_vertex_class(g, v):
    if v not in g.vertices:
        raise GraphError(f"unknown vertex id {v!r}")
    if _scan_is_infinite_emitter(g, v):
        return VertexClass.INFINITE_EMITTER
    if any(e.src == v for e in g.edges):
        return VertexClass.REGULAR
    return VertexClass.SINK


def _scan_out_edges(g, v):
    if v not in g.vertices:
        raise GraphError(f"unknown vertex id {v!r}")
    if _scan_is_infinite_emitter(g, v):
        return tuple(_scan_edge(g, eid) for eid in _scan_materialized(g, v))
    return tuple(e for e in g.edges if e.src == v)


def _scan_topological_order(g):
    report = validate_graph(g)
    if not report.ok:
        raise GraphError("invalid graph: " + "; ".join(report.violations))
    if g.emitters:
        raise OracleError("graph has infinite emitters; the oracle needs row-finite input")
    indeg = {v: 0 for v in g.vertices}
    for e in g.edges:
        indeg[e.dst] += 1
    ready = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for e in g.edges:
            if e.src == v:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    ready.append(e.dst)
        ready.sort()
    if len(order) != len(g.vertices):
        raise OracleError("graph has a cycle; the oracle needs acyclic input")
    return tuple(order)


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except (GraphError, OracleError) as exc:
        return type(exc), str(exc)


_NAMES = ["a", "b", "c", "d"]
_IDS = ["e0", "e1", "e2", "e3"]
_descriptors = st.builds(
    EdgeIndexDescriptor,
    st.lists(st.sampled_from(_NAMES + ["x"]), max_size=2).map(tuple),
    st.lists(st.sampled_from(_NAMES + ["x"]), min_size=1, max_size=2).map(tuple),
)


@st.composite
def _valid_graphs(draw):
    """Unique ids; acyclic or not; emitters materialized through materialize_edges."""
    names = _NAMES[: draw(st.integers(1, len(_NAMES)))]
    emitters = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    acyclic = draw(st.booleans())
    edges = []
    for i, j in draw(st.lists(st.tuples(st.integers(0, len(names) - 1), st.integers(0, len(names) - 1)), max_size=7)):
        if acyclic:
            if i == j:
                continue
            i, j = min(i, j), max(i, j)
        if names[i] not in emitters:
            edges.append((f"e{len(edges)}", names[i], names[j]))
    cycle = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=2)))
    g = Graph.build(names, edges, {v: (EdgeIndexDescriptor((), cycle), []) for v in emitters})
    for v in emitters:
        g = materialize_edges(g, v, draw(st.integers(0, 3)))
    return g


# repeated vertex and edge ids, edges from or to unknown vertices, emitters
# that are not vertices or list unknown, repeated or foreign edges
_any_graphs = st.builds(
    Graph,
    st.lists(st.sampled_from(_NAMES), max_size=4).map(tuple),
    st.lists(
        st.builds(Edge, st.sampled_from(_IDS), st.sampled_from(_NAMES + ["x"]), st.sampled_from(_NAMES + ["x"])),
        max_size=6,
    ).map(tuple),
    st.lists(
        st.tuples(st.sampled_from(_NAMES + ["x"]), _descriptors, st.lists(st.sampled_from(_IDS + ["f"]), max_size=3).map(tuple)),
        max_size=2,
    ).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(g=st.one_of(_valid_graphs(), _any_graphs))
def test_lookups_match_the_scans_they_replace(g):
    for eid in _IDS + ["e4", "e0^a", "f"]:
        assert _outcome(g.edge, eid) == _outcome(_scan_edge, g, eid)
    for v in _NAMES + ["x"]:
        assert _outcome(g.descriptor, v) == _outcome(_scan_descriptor, g, v)
        assert _outcome(g.materialized, v) == _outcome(_scan_materialized, g, v)
        assert g.is_infinite_emitter(v) == _scan_is_infinite_emitter(g, v)
        assert _outcome(vertex_class, g, v) == _outcome(_scan_vertex_class, g, v)
        assert _outcome(out_edges, g, v) == _outcome(_scan_out_edges, g, v)
    assert g.validation == validate_graph(g)
    assert _outcome(topological_order, g) == _outcome(_scan_topological_order, g)


def test_a_copied_or_unpickled_graph_carries_no_derived_data():
    import copy
    import pickle

    from conftest import emitter_mixed
    from graphmonoid.engine import completed_system, equal
    from graphmonoid.presentation import MonoidElement, presentation_of, vgen

    g = emitter_mixed(8)
    bare = len(pickle.dumps(g))
    p = presentation_of(g)
    completed_system(p)
    # the lookups, alphabet, presentation and completed systems stay behind
    assert len(pickle.dumps(g)) == bare < 1000
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and hash(twin) == hash(g)
        assert set(vars(twin)) == {"vertices", "edges", "emitters"}
        q = presentation_of(twin)
        assert q is not p and q == p and "_completed_system" not in vars(q)
        assert equal(q, MonoidElement.single(vgen("u")), MonoidElement.single(vgen("w")))
        assert "_completed_system" in vars(q)
