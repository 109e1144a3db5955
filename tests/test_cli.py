import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from graphmonoid.cli import EXIT_INVALID, EXIT_OK, EXIT_UNDECIDED, run
from graphmonoid.engine import completed_system
from graphmonoid.graphs import EdgeIndexDescriptor, Graph, graph_to_json
from graphmonoid.presentation import MonoidElement, element_to_json, presentation_of, sgen, vgen

from conftest import diamond, emitter_mixed, emitter_to_sink, single_edge


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return write


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(files, capsys):
    path = files("g.json", graph_to_json(diamond()))
    code, out = invoke(capsys, "validate", "--graph", path)
    assert code == EXIT_OK
    assert json.loads(out) == {"valid": True, "violations": []}


def test_validate_reports_violations_with_exit_zero(files, capsys):
    path = files("g.json", {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "q"}]})
    code, out = invoke(capsys, "validate", "--graph", path)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["valid"] is False and doc["violations"]


def test_malformed_json_exit_code_and_location(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [', encoding="utf-8")
    code, out = invoke(capsys, "validate", "--graph", str(bad))
    assert code == EXIT_INVALID
    assert "line" in json.loads(out)["error"]


def test_present(files, capsys):
    path = files("g.json", graph_to_json(single_edge()))
    code, out = invoke(capsys, "present", "--graph", path)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["generators"] == [{"kind": "v", "v": "v"}, {"kind": "v", "v": "w"}]
    assert len(doc["relations"]) == 1


def test_normal_form(files, capsys):
    g = files("g.json", graph_to_json(single_edge()))
    x = files("x.json", element_to_json(MonoidElement.single(vgen("v"))))
    code, out = invoke(capsys, "normal-form", "--graph", g, "--element", x)
    assert code == EXIT_OK
    assert json.loads(out)["normal_form"] == {"terms": [{"gen": {"kind": "v", "v": "w"}, "mult": 1}]}


def test_equal_true_and_false_both_exit_zero(files, capsys):
    g = emitter_to_sink(2)
    gp = files("g.json", graph_to_json(g))
    aw = MonoidElement.single(vgen("w"))
    s0 = MonoidElement.single(sgen(g, "v", ["e0"])) + aw
    s1 = MonoidElement.single(sgen(g, "v", ["e1"])) + aw
    u = files("u.json", element_to_json(s0))
    v = files("v.json", element_to_json(s1))
    z = files("z.json", element_to_json(MonoidElement()))
    code, out = invoke(capsys, "equal", "--graph", gp, "--lhs", u, "--rhs", v)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["equal"] is True and doc["certificate"]["kind"] == "chain"
    code, out = invoke(capsys, "equal", "--graph", gp, "--lhs", u, "--rhs", z)
    assert code == EXIT_OK
    assert json.loads(out)["equal"] is False


def _term(mult):
    return {"terms": [{"gen": {"kind": "v", "v": "w"}, "mult": mult}]}


_EMITTER = graph_to_json(emitter_to_sink(1))
# emitter v with materialized edges a and b: a string or object S would name them
_EMITTER_AB = graph_to_json(
    Graph.build(["v", "w"], [("a", "v", "w"), ("b", "v", "w")], {"v": (EdgeIndexDescriptor((), ("w",)), ["a", "b"])})
)


def _vs_term(s):
    return {"terms": [{"gen": {"kind": "vS", "v": "v", "S": s}, "mult": 1}]}


_EDGE_E = {"vertices": ["v", "w"], "edges": [{"id": "e", "src": "v", "dst": "w"}]}
_EDGE_1 = {"vertices": ["v", "w"], "edges": [{"id": "1", "src": "v", "dst": "w"}]}


def _nf(graph, element):
    return "normal-form", {"graph": graph, "element": element}


@pytest.mark.parametrize(
    "command, docs",
    [
        _nf(_EMITTER, _term("x")),
        _nf(_EMITTER, {"terms": 5}),
        _nf(_EMITTER, _term(2**63)),
        _nf(_EMITTER, _term(1.7)),
        _nf({**_EMITTER, "infinite_emitters": {"v": {"cycle": ["w"], "materialized": "x"}}}, _term(1)),
        _nf(_EMITTER, {"terms": [{"gen": {"kind": "v", "v": ["w"]}, "mult": 1}]}),
        _nf({**_EMITTER, "infinite_emitters": {"v": {"cycle": "ww", "materialized": 1}}}, _term(1)),
        _nf(_EMITTER_AB, _vs_term("ab")),
        _nf(_EMITTER_AB, _vs_term({"a": 0, "b": 0})),
        _nf(_EMITTER_AB, _vs_term(["a", 0])),
        _nf(_EMITTER_AB, _vs_term(["a", "a"])),
        _nf(_EMITTER, _term(True)),
        _nf({"vertices": ["v", "w"], "edges": [{"id": None, "src": "v", "dst": "w"}]}, _term(1)),
        _nf({"vertices": ["v", "w"], "edges": [{"id": "e", "src": "v", "dst": 1}]}, _term(1)),
        _nf({**_EMITTER, "infinite_emitters": {"v": {"prefix": [1], "cycle": ["w"], "materialized": 1}}}, _term(1)),
        ("ck-check", {"source": {"vertices": ["v"]}, "target": {"vertices": ["1"]}, "morphism": {"vertex_map": {"v": 1}}}),
        ("ck-check", {"source": _EDGE_E, "target": _EDGE_1, "morphism": {"vertex_map": {"v": "v", "w": "w"}, "edge_map": {"e": 1}}}),
    ],
    ids=[
        "string-mult",
        "terms-not-array",
        "mult-past-int64",
        "float-mult",
        "string-materialized",
        "list-vertex",
        "string-cycle",
        "string-edge-set",
        "object-edge-set",
        "number-in-edge-set",
        "repeated-edge-in-edge-set",
        "bool-mult-of-a-graph-generator",
        "null-edge-id",
        "number-edge-range",
        "number-in-prefix",
        "number-vertex-map-value",
        "number-edge-map-value",
    ],
)
def test_hostile_json_is_invalid_input(files, capsys, command, docs):
    argv = [command]
    for flag, doc in docs.items():
        argv += [f"--{flag}", files(f"{flag}.json", doc)]
    code, out = invoke(capsys, *argv)
    assert code == EXIT_INVALID
    assert "error" in json.loads(out)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_G = emitter_mixed(2)
_DOCS = {
    "graph": graph_to_json(_G),
    "element": element_to_json(
        MonoidElement.single(vgen("u"), 2) + MonoidElement.single(sgen(_G, "v", ["e0", "e1"]))
    ),
}


def _positions(doc, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _positions(value, path + (key,))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_field_replaced_by_any_json_is_answered_or_invalid(tmp_path_factory, data):
    which = data.draw(st.sampled_from(sorted(_DOCS)))
    path = data.draw(st.sampled_from(list(_positions(_DOCS[which]))))
    value = data.draw(_JSON)
    docs = copy.deepcopy(_DOCS)
    if path:
        node = docs[which]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        docs[which] = value
    d = tmp_path_factory.mktemp("hostile")
    for name, doc in docs.items():
        (d / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    graph, element = str(d / "graph.json"), str(d / "element.json")
    for argv in (
        ["validate", "--graph", graph],
        ["present", "--graph", graph],
        ["normal-form", "--graph", graph, "--element", element],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(argv)
        assert code in (EXIT_OK, EXIT_INVALID), (argv, out.getvalue())
        assert isinstance(json.loads(out.getvalue()), dict)


def _graphs_that_need_spairs():
    # the Tietze pass leaves most small presentations with no S-pair to
    # reduce; these two of the seeded mixed corpus still need 9 and 3
    import random

    from acceptance_support import mixed_corpus

    corpus = mixed_corpus(random.Random(0))
    return [corpus[15], corpus[19]]


def test_budget_exhaustion_exit_code(files, capsys):
    g = _graphs_that_need_spairs()[0]
    gp = files("g.json", graph_to_json(g))
    u = files("u.json", element_to_json(MonoidElement.single(presentation_of(g).alphabet[0])))
    code, out = invoke(capsys, "--budget", "0", "equal", "--graph", gp, "--lhs", u, "--rhs", u)
    assert code == EXIT_UNDECIDED
    assert json.loads(out)["undecided"] is True


@settings(max_examples=30, deadline=None)
@given(g=st.sampled_from(_graphs_that_need_spairs()), data=st.data())
def test_budget_below_the_needed_spairs_exits_undecided(tmp_path_factory, g, data):
    p = presentation_of(g)
    need = completed_system(p).spairs_processed
    assert need > 0
    budget = data.draw(st.integers(0, need - 1), label="budget")
    d = tmp_path_factory.mktemp("budget")
    docs = {"graph": graph_to_json(g)}
    for side in ("lhs", "rhs"):
        docs[side] = element_to_json(MonoidElement.single(data.draw(st.sampled_from(p.alphabet), label=side)))
    argv = ["equal"]
    for name, doc in docs.items():
        (d / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        argv += [f"--{name}", str(d / f"{name}.json")]
    for b, want in ((budget, EXIT_UNDECIDED), (need, EXIT_OK)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["--budget", str(b), *argv])
        doc = json.loads(out.getvalue())
        assert code == want, doc
        assert ("error" in doc and doc["undecided"] is True) if want == EXIT_UNDECIDED else "equal" in doc


@pytest.mark.parametrize(
    "argv",
    [
        ["--budget", "-5", "equal", "--graph", "{graph}", "--lhs", "{x}", "--rhs", "{x}"],
        ["oracle-check", "--graph", "{graph}", "--samples", "-1"],
        ["oracle-check", "--graph", "{graph}", "--degree", "-1"],
        ["continuity-check", "--system", "{system}", "--degree", "-1"],
        # a(v) given as 3 then -1 is not read as 2·a(v)
        ["equal", "--graph", "{graph}", "--lhs", "{minus}", "--rhs", "{twice}"],
    ],
    ids=["budget", "oracle-samples", "oracle-degree", "continuity-degree", "element-term"],
)
def test_negative_counts_are_invalid_input(files, capsys, argv):
    g = diamond()
    v = element_to_json(MonoidElement.single(vgen("v")))["terms"][0]["gen"]
    paths = {
        "graph": files("g.json", graph_to_json(g)),
        "x": files("x.json", element_to_json(MonoidElement.single(vgen("v")))),
        "system": files("sys.json", {"graphs": [graph_to_json(g)], "morphisms": []}),
        "minus": files("minus.json", {"terms": [{"gen": v, "mult": 3}, {"gen": v, "mult": -1}]}),
        "twice": files("twice.json", element_to_json(MonoidElement.single(vgen("v"), 2))),
    }
    code, out = invoke(capsys, *(arg.format(**paths) for arg in argv))
    assert code == EXIT_INVALID
    assert "error" in json.loads(out)


def test_desingularize_with_boundary(files, capsys):
    gp = files("g.json", graph_to_json(emitter_to_sink(1)))
    code, out = invoke(capsys, "desingularize", "--graph", gp, "--level", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    flagged = [v["id"] for v in doc["vertices"] if isinstance(v, dict) and v.get("boundary")]
    assert sorted(flagged) == ["w2(v)", "w2(w)"]


def test_phi_psi_round_trip(files, capsys):
    g = emitter_to_sink(2)
    gp = files("g.json", graph_to_json(g))
    x = MonoidElement.single(sgen(g, "v", ["e1"]))
    xp = files("x.json", element_to_json(x))
    code, out = invoke(capsys, "phi", "--graph", gp, "--element", xp)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["level"] == 3
    yp = files("y.json", doc["element"])
    code, out = invoke(capsys, "psi", "--graph", gp, "--element", yp, "--level", "3")
    assert code == EXIT_OK


def test_phi_truncation_error_reports_level(files, capsys):
    g = emitter_to_sink(3)
    gp = files("g.json", graph_to_json(g))
    x = files("x.json", element_to_json(MonoidElement.single(sgen(g, "v", ["e2"]))))
    code, out = invoke(capsys, "phi", "--graph", gp, "--element", x, "--level", "1")
    assert code == EXIT_INVALID
    assert json.loads(out)["required_level"] == 4


def test_ck_check_and_induced_map(files, capsys):
    e2, e3 = emitter_to_sink(2), emitter_to_sink(3)
    sp = files("s.json", graph_to_json(e2))
    tp = files("t.json", graph_to_json(e3))
    mp = files(
        "m.json",
        {
            "vertex_map": {v: v for v in e2.vertices},
            "edge_map": {e.id: e.id for e in e2.edges},
        },
    )
    code, out = invoke(capsys, "ck-check", "--morphism", mp, "--source", sp, "--target", tp)
    assert code == EXIT_OK
    assert json.loads(out) == {"ck": True, "violations": []}
    code, out = invoke(capsys, "induced-map", "--morphism", mp, "--source", sp, "--target", tp)
    assert code == EXIT_OK
    assert len(json.loads(out)["map"]) == 2 + (2**2 - 1)


def test_ck_check_structural_error_is_invalid_input(files, capsys):
    e2 = emitter_to_sink(2)
    sp = files("s.json", graph_to_json(e2))
    mp = files("m.json", {"vertex_map": {}, "edge_map": {}})
    code, out = invoke(capsys, "ck-check", "--morphism", mp, "--source", sp, "--target", sp)
    assert code == EXIT_INVALID


def test_colimit_and_continuity(files, capsys):
    graphs = [emitter_to_sink(k) for k in (1, 2, 3)]
    morphs = []
    for small, big in zip(graphs, graphs[1:]):
        morphs.append(
            {
                "vertex_map": {v: v for v in small.vertices},
                "edge_map": {e.id: e.id for e in small.edges},
            }
        )
    sp = files("sys.json", {"graphs": [graph_to_json(g) for g in graphs], "morphisms": morphs})
    code, out = invoke(capsys, "colimit", "--system", sp)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["graph"] == graph_to_json(graphs[-1])
    assert len(doc["injections"]) == 3
    code, out = invoke(capsys, "continuity-check", "--system", sp, "--degree", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is True and doc["merged_classes"] == [0, 0, 0]


@pytest.mark.parametrize("key", ["graphs", "morphisms"])
@pytest.mark.parametrize("value", [True, 3, "ab", {}])
def test_system_lists_that_are_not_arrays_are_invalid(files, capsys, key, value):
    system = {"graphs": [{"vertices": ["a"]}], "morphisms": [], key: value}
    sp = files("sys.json", system)
    for argv in (["colimit"], ["continuity-check"]):
        code, out = invoke(capsys, *argv, "--system", sp)
        assert code == EXIT_INVALID
        assert "'graphs' and 'morphisms' must be arrays" in json.loads(out)["error"]


def test_continuity_against_extension_top(files, capsys):
    graphs = [emitter_to_sink(k) for k in (1, 2)]
    morphs = [
        {
            "vertex_map": {v: v for v in graphs[0].vertices},
            "edge_map": {e.id: e.id for e in graphs[0].edges},
        }
    ]
    sp = files("sys.json", {"graphs": [graph_to_json(g) for g in graphs], "morphisms": morphs})
    big = emitter_to_sink(3)
    tp = files("top.json", graph_to_json(big))
    ip = files(
        "into.json",
        {
            "vertex_map": {v: v for v in graphs[1].vertices},
            "edge_map": {e.id: e.id for e in graphs[1].edges},
        },
    )
    code, out = invoke(capsys, "continuity-check", "--system", sp, "--top", tp, "--into", ip)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is False and doc["uncovered_generators"]  # e2 generators unreached
    assert doc["mismatches"] == []


def test_continuity_needs_top_and_into_together(files, capsys):
    g = emitter_to_sink(1)
    sp = files("sys.json", {"graphs": [graph_to_json(g)], "morphisms": []})
    tp = files("top.json", graph_to_json(g))
    # a morphism naming a vertex that does not exist must not be ignored
    ip = files("into.json", {"vertex_map": {"nowhere": "v"}, "edge_map": {}})
    for flags in (["--top", tp], ["--into", ip]):
        code, out = invoke(capsys, "continuity-check", "--system", sp, *flags)
        assert code == EXIT_INVALID
        assert "--top and --into go together" in json.loads(out)["error"]


def test_continuity_reports_merged_classes(files, capsys):
    from graphmonoid.graphs import EdgeIndexDescriptor, Graph, materialize_edges
    from graphmonoid.limits import chain_from_json, check_continuity

    # materializing a second edge of a self-loop emitter merges level-0 classes
    base = Graph.build(["v"], [], {"v": (EdgeIndexDescriptor((), ("v",)), [])})
    g1, g2 = materialize_edges(base, "v", 1), materialize_edges(base, "v", 2)
    step = {"vertex_map": {"v": "v"}, "edge_map": {e.id: e.id for e in g1.edges}}
    system = {"graphs": [graph_to_json(g1), graph_to_json(g2)], "morphisms": [step]}
    code, out = invoke(capsys, "continuity-check", "--system", files("sys.json", system))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is True and doc["merged_classes"][0] > 0
    assert doc["merged_classes"] == list(check_continuity(chain_from_json(system)).merged_classes)


def test_degree_and_chain_past_their_limits_are_invalid_input(files, capsys):
    two_edges = {
        "vertices": ["v", "w"],
        "edges": [{"id": "e", "src": "v", "dst": "w"}, {"id": "f", "src": "v", "dst": "w"}],
        "infinite_emitters": {},
    }
    v, w = {"kind": "v", "v": "v"}, {"kind": "v", "v": "w"}
    gp = files("g.json", graph_to_json(single_edge()))
    big = files("big.json", {"terms": [{"gen": v, "mult": 2**62}, {"gen": w, "mult": 2**62}]})
    small = files("w.json", {"terms": [{"gen": w, "mult": 1}]})
    runs = [
        ("normal-form", "--graph", gp, "--element", big),
        ("equal", "--graph", gp, "--lhs", big, "--rhs", small),
        ("equal", "--graph", files("g2.json", two_edges), "--lhs", files("u.json", {"terms": [{"gen": v, "mult": 2**61}]}),
         "--rhs", files("v.json", {"terms": [{"gen": w, "mult": 2**62}]})),
    ]
    for argv, message in zip(runs, ("exceeds the int64 range",) * 2 + ("longer than a tuple can hold",)):
        code, out = invoke(capsys, *argv)
        assert code == EXIT_INVALID
        assert message in json.loads(out)["error"]


def test_continuity_refuses_non_ck_into(files, capsys):
    # a graph morphism into a graph where the regular v has a second out-edge
    small = single_edge()
    big = {
        "vertices": ["v", "w", "z"],
        "edges": [{"id": "e", "src": "v", "dst": "w"}, {"id": "x", "src": "v", "dst": "z"}],
        "infinite_emitters": {},
    }
    sp = files("sys.json", {"graphs": [graph_to_json(small)], "morphisms": []})
    tp = files("top.json", big)
    ip = files("into.json", {"vertex_map": {"v": "v", "w": "w"}, "edge_map": {"e": "e"}})
    code, out = invoke(capsys, "continuity-check", "--system", sp, "--top", tp, "--into", ip)
    assert code == EXIT_INVALID
    assert "into_top is not CK" in json.loads(out)["error"]


def test_induced_map_refuses_non_ck(files, capsys):
    small = single_edge()
    big_doc = {
        "vertices": ["v", "w", "z"],
        "edges": [
            {"id": "e", "src": "v", "dst": "w"},
            {"id": "x", "src": "v", "dst": "z"},
        ],
        "infinite_emitters": {},
    }
    sp = files("s.json", graph_to_json(small))
    tp = files("t.json", big_doc)
    mp = files("m.json", {"vertex_map": {"v": "v", "w": "w"}, "edge_map": {"e": "e"}})
    code, out = invoke(capsys, "induced-map", "--morphism", mp, "--source", sp, "--target", tp)
    assert code == EXIT_INVALID
    assert "CK" in json.loads(out)["error"]


def test_oracle_check_deterministic(files, capsys):
    gp = files("g.json", graph_to_json(diamond()))
    code, first = invoke(capsys, "oracle-check", "--graph", gp, "--samples", "25", "--seed", "7")
    assert code == EXIT_OK
    doc = json.loads(first)
    assert doc["agreements"] == 25 and doc["discrepancies"] == 0
    _, second = invoke(capsys, "oracle-check", "--graph", gp, "--samples", "25", "--seed", "7")
    assert first == second


def test_text_format(files, capsys):
    gp = files("g.json", graph_to_json(diamond()))
    code, out = invoke(capsys, "--format", "text", "validate", "--graph", gp)
    assert code == EXIT_OK
    assert "valid: True" in out


def test_unknown_flag_is_invalid(files, capsys):
    gp = files("g.json", graph_to_json(diamond()))
    assert run(["validate", "--graph", gp, "--nonsense"]) == EXIT_INVALID


_FRESH_RUN = """
import json, sys
from graphmonoid.cli import run
code = run(sys.argv[1:])
lazy = [m for m in ("desingularize", "limits", "oracle") if "graphmonoid." + m in sys.modules]
print(json.dumps({"exit": code, "numpy": "numpy" in sys.modules, "loaded": lazy}))
"""


def _run_fresh(*argv):
    # the CLI in a new interpreter, as a shell would start it
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    *out, status = proc.stdout.splitlines()
    return json.loads(status), json.loads("\n".join(out))


def test_query_commands_never_import_numpy(files):
    g = emitter_mixed(3)
    gp = files("g.json", graph_to_json(g))
    u = MonoidElement.single(vgen("v")) + MonoidElement.single(vgen("w"))
    v = MonoidElement.single(sgen(g, "v", ["e0", "e2"])) + 3 * MonoidElement.single(vgen("w"))
    up, vp = files("u.json", element_to_json(u)), files("v.json", element_to_json(v))
    docs = []
    for argv in (
        ["validate", "--graph", gp],
        ["present", "--graph", gp],
        ["normal-form", "--graph", gp, "--element", up],
        ["equal", "--graph", gp, "--lhs", up, "--rhs", up],
        ["equal", "--graph", gp, "--lhs", up, "--rhs", vp],
    ):
        status, doc = _run_fresh(*argv)
        # nor the modules for approximations, limits and the oracle
        assert status == {"exit": EXIT_OK, "numpy": False, "loaded": []}, argv
        docs.append(doc)
    assert docs[0]["valid"] is True and docs[-1]["equal"] is True
    assert len(docs[-1]["certificate"]["steps"]) == 3
    # an invalid query still exits 2 with its message
    status, doc = _run_fresh("equal", "--graph", gp, "--lhs", up, "--rhs", gp)
    assert status["exit"] == EXIT_INVALID and doc["error"].startswith("malformed element")


def test_commands_load_their_modules_on_use(files):
    g = emitter_to_sink(2)
    gp = files("g.json", graph_to_json(g))
    xp = files("x.json", element_to_json(MonoidElement.single(sgen(g, "v", ["e0", "e1"]))))
    status, doc = _run_fresh("desingularize", "--graph", gp, "--level", "2")
    assert status == {"exit": EXIT_OK, "numpy": False, "loaded": ["desingularize"]}
    # a command's own error is still told apart from the others
    status, doc = _run_fresh("phi", "--graph", gp, "--element", xp, "--level", "1")
    assert status["exit"] == EXIT_INVALID and doc["required_level"] == 3


def test_package_names_resolve_on_first_use():
    # desingularize names the function, also once its submodule is loaded
    import graphmonoid
    import graphmonoid.desingularize
    from graphmonoid import desingularize, limits

    assert callable(desingularize) and graphmonoid.desingularize is desingularize
    assert graphmonoid.check_continuity is limits.check_continuity
    assert {"psi", "cross_check", "GraphChain", "oracle"} <= set(dir(graphmonoid))
    with pytest.raises(AttributeError):
        graphmonoid.no_such_name
    # every name the package lists resolves: no stale export or _LAZY entry;
    # completed_system is the one completion entry point
    for name in dir(graphmonoid):
        getattr(graphmonoid, name)
    assert "complete" not in dir(graphmonoid) and not hasattr(graphmonoid.engine, "complete")
    # the lazy loader's helpers are not exports
    assert not {"sys", "import_module", "ModuleType", "_Package"} & set(dir(graphmonoid))
    with pytest.raises(AttributeError):
        graphmonoid.complete


def test_continuity_check_runs_in_a_fresh_interpreter(files):
    graphs = [emitter_to_sink(k) for k in (1, 2)]
    morph = {"vertex_map": {v: v for v in graphs[0].vertices}, "edge_map": {e.id: e.id for e in graphs[0].edges}}
    sp = files("sys.json", {"graphs": [graph_to_json(g) for g in graphs], "morphisms": [morph]})
    status, doc = _run_fresh("continuity-check", "--system", sp, "--degree", "2")
    assert status == {"exit": EXIT_OK, "numpy": False, "loaded": ["limits"]}
    assert doc["ok"] is True
