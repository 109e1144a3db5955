import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphmonoid.engine import (
    BudgetExceededError,
    EngineError,
    EqualityResult,
    bfs_reach,
    certificate_to_json,
    completed_system,
    congruence_bfs,
    elements_up_to_degree,
    equal,
    normal_form,
    replay_chain,
)
from graphmonoid.presentation import (
    Generator,
    MonoidElement,
    Presentation,
    PresentationError,
    presentation_of,
    sgen,
    vgen,
)

from acceptance_support import completion_corpus
from conftest import diamond, emitter_to_sink, rose, single_edge, single_sink
from test_graphs import _valid_graphs


def single(v):
    return MonoidElement.single(vgen(v))


def pres(gens, rels):
    return Presentation(tuple(vgen(v) for v in gens), tuple(rels))


def _plain_completion(p, budget=None):
    """p completed as its relations are given, with no Tietze pass.

    The reference completed_system is checked against, and the input on
    which completion reduces many S-pairs: after the pass, the corpora here
    leave few or none.
    """
    from graphmonoid.engine import RewriteSystem, _complete_equations, _vec, resolve_budget

    budget = resolve_budget(budget)
    index = p.index()
    equations = ((_vec(u, index), _vec(v, index), ((i, +1),)) for i, (u, v) in enumerate(p.relations))
    rules, proofs, spairs = _complete_equations(equations, budget)
    return RewriteSystem(presentation=p, rules=rules, proofs=proofs, spairs_processed=spairs, eliminated=())


def test_complete_empty_relations():
    rs = completed_system(pres("vw", []))
    assert rs.rule_count == 0


def test_complete_single_relation_orientation():
    rs = completed_system(pres("vw", [(single("v"), single("w"))]))
    assert rs.rule_count == 1
    lhs, rhs = rs.rule(0)
    assert (lhs, rhs) == (single("v"), single("w"))  # a_v is greater in the order


def test_complete_doubling_rule():
    # hand completion: a single rule 2a_v -> a_v, no critical pairs arise
    rs = completed_system(pres("vw", [(2 * single("v"), single("v"))]))
    assert rs.rule_count == 1
    assert rs.rule(0) == (2 * single("v"), single("v"))
    assert normal_form(rs, 2 * single("v")) == single("v")
    assert normal_form(rs, single("w")) == single("w")
    assert normal_form(rs, MonoidElement()) == MonoidElement()


def test_rose_normal_form_matches_bfs_oracle():
    p = presentation_of(rose(2))
    # BFS over relation applications at depth <= 2 already identifies 3a_v with a_v
    reach = congruence_bfs(p, 3 * single("v"), 2)
    assert single("v") in reach and 2 * single("v") in reach
    rs = completed_system(p)
    assert normal_form(rs, 3 * single("v")) == single("v")


def test_acyclic_normal_form():
    rs = completed_system(presentation_of(single_edge()))
    assert normal_form(rs, single("v")) == single("w")
    assert normal_form(rs, MonoidElement()) == MonoidElement()


def test_normal_form_refuses_a_rule_that_is_not_downhill():
    # reduction with such a rule cycles: the system is refused instead
    from dataclasses import replace

    from conftest import emitter_mixed
    from graphmonoid import kernels

    g = emitter_mixed(3)
    rs = _plain_completion(presentation_of(g))
    k = 7
    lhs, rhs = kernels.rule_sides(rs.rules[k], len(rs.presentation.alphabet))
    x = single("w") + MonoidElement.single(sgen(g, "v", ["e1"])) + MonoidElement.single(sgen(g, "v", ["e1", "e2"]))
    assert normal_form(rs, x) == 2 * MonoidElement.single(sgen(g, "v", ["e2"]))
    for rule, text in (
        (kernels.compile_rule(rhs, lhs), "a(v,{e2}) -> a(w) + a(v,{e1,e2})"),
        (kernels.compile_rule(lhs, lhs), "a(w) + a(v,{e1,e2}) -> a(w) + a(v,{e1,e2})"),
    ):
        bad = replace(rs, rules=rs.rules[:k] + (rule,) + rs.rules[k + 1 :])
        with pytest.raises(EngineError, match=f"rule 7, {re.escape(text)}, is not downhill"):
            normal_form(bad, x)
    empty = replace(rs, rules=(kernels.compile_rule([0] * len(lhs), [0] * len(lhs)),))
    with pytest.raises(EngineError, match="rule 0, 0 -> 0, is not downhill"):
        normal_form(empty, MonoidElement())


def test_normal_form_refuses_a_flipped_definition_rule():
    # the eliminated system is downhill in the block order only: W -> x puts
    # an eliminated generator back, and reduction with it would cycle
    from dataclasses import replace

    from conftest import emitter_mixed
    from graphmonoid import kernels

    g = emitter_mixed(3)
    p = presentation_of(g)
    rs = completed_system(p)
    x = single("v") + MonoidElement.single(sgen(g, "v", ["e1"]))
    nf = normal_form(rs, x)
    assert rs.eliminated
    width = len(p.alphabet)
    for k, column in enumerate(rs.eliminated):
        lhs, rhs = kernels.rule_sides(rs.rules[k], width)
        assert lhs == [int(c == column) for c in range(width)]
        flipped = replace(rs, rules=rs.rules[:k] + (kernels.compile_rule(rhs, lhs),) + rs.rules[k + 1 :])
        with pytest.raises(EngineError, match=f"rule {k}, .* is not downhill in the block order"):
            normal_form(flipped, x)
    assert normal_form(rs, nf) == nf


def test_equal_emitter_examples():
    g = emitter_to_sink(2)
    p = presentation_of(g)
    aw, av = single("w"), single("v")
    s0 = MonoidElement.single(sgen(g, "v", ["e0"]))
    s1 = MonoidElement.single(sgen(g, "v", ["e1"]))
    s01 = MonoidElement.single(sgen(g, "v", ["e0", "e1"]))
    assert equal(p, s0 + aw, s1 + aw)
    assert equal(p, av, s01 + 2 * aw)
    assert not equal(p, av, MonoidElement())


def test_equality_of_zero_is_syntactic():
    for g in (single_sink(), diamond(), emitter_to_sink(2)):
        p = presentation_of(g)
        assert equal(p, MonoidElement(), MonoidElement())
        for gen in p.alphabet:
            assert not equal(p, MonoidElement.single(gen), MonoidElement())


def test_bfs_examples():
    p = presentation_of(rose(2))
    av = single("v")
    assert congruence_bfs(p, av, 0) == {av}
    assert congruence_bfs(p, av, 1) == {av, 2 * av}
    q = presentation_of(single_edge())
    assert congruence_bfs(q, single("v"), 1) == {single("v"), single("w")}


def test_bfs_rejects_negative_depth():
    with pytest.raises(EngineError):
        congruence_bfs(presentation_of(single_sink()), MonoidElement(), -1)


def test_certificate_replays():
    g = emitter_to_sink(3)
    p = presentation_of(g)
    u = single("v") + single("w")
    v = MonoidElement.single(sgen(g, "v", ["e0", "e2"])) + 3 * single("w")
    result = equal(p, u, v)
    assert result.equal
    assert replay_chain(p, u, result.chain) == v
    doc = certificate_to_json(p, u, result)
    assert doc["kind"] == "chain"
    assert all(set(step) == {"relation", "direction", "context"} for step in doc["steps"])


def test_replay_rejects_broken_chains():
    p = presentation_of(diamond())
    x = p.relations[0][0]
    there_and_back = ((0, +1), (0, -1)) * 600
    assert replay_chain(p, x, there_and_back) == x
    with pytest.raises(EngineError, match="does not apply"):
        replay_chain(p, x, there_and_back + ((0, -1),))
    with pytest.raises(EngineError, match="unknown relation"):
        replay_chain(p, x, there_and_back + ((len(p.relations), +1),))


def _emitter_chain_case():
    # contexts that hold a_{v,S} columns after a_v columns, in one context
    from conftest import emitter_mixed

    g = emitter_mixed(3)
    p = presentation_of(g)
    top, s0 = MonoidElement.single(sgen(g, "v", ["e0", "e1", "e2"])), MonoidElement.single(sgen(g, "v", ["e0"]))
    x, y = single("v") + s0 + single("u"), 2 * top + 5 * single("w") + single("u")
    result = equal(p, x, y)
    assert result.equal and result.chain
    return p, x, result


def _result_with_chain(p, x, chain):
    # an equality result whose chain is one proof, joined once
    from graphmonoid.engine import _vec

    vec = tuple(_vec(x, p.index()))
    return EqualityResult(True, p, (vec, vec), (chain,), ((0, 1),) if chain else ())


def _long_chain_case():
    p = presentation_of(diamond())
    x = p.relations[0][0] + 2 * single("u")
    return p, x, _result_with_chain(p, x, ((0, +1), (0, -1)) * 600)


def _empty_chain_case():
    p = presentation_of(diamond())
    return p, single("u"), _result_with_chain(p, single("u"), ())


def _reference_walk(p, start, chain):
    """Replay chain from start one step at a time on generator counts.

    Returns the end element and each step's context, the part of the element
    the step leaves untouched; raises EngineError as the engine's walk does.
    """
    cur = start.counts()
    contexts = []
    for rel, d in chain:
        if not 0 <= rel < len(p.relations):
            raise EngineError(f"chain names unknown relation {rel}")
        src, dst = p.relations[rel] if d == 1 else p.relations[rel][::-1]
        for gen, m in src.terms:
            if cur.get(gen, 0) < m:
                raise EngineError(f"relation {rel} does not apply at this chain position")
            cur[gen] -= m
        contexts.append(MonoidElement.from_counts(cur))
        for gen, m in dst.terms:
            cur[gen] = cur.get(gen, 0) + m
    return MonoidElement.from_counts(cur), contexts


def _reference_certificate(p, start, result):
    from graphmonoid.presentation import element_to_json

    _, contexts = _reference_walk(p, start, result.chain)
    steps = [
        {"relation": rel, "direction": "forward" if d == 1 else "backward", "context": element_to_json(ctx)}
        for (rel, d), ctx in zip(result.chain, contexts)
    ]
    return {"kind": "chain", "normal_form": element_to_json(result.lhs_normal_form), "steps": steps}


@pytest.mark.parametrize("case", [_emitter_chain_case, _long_chain_case, _empty_chain_case])
def test_certificate_contexts_match_element_json(case):
    # certificate_to_json writes contexts straight from the walk's vectors; the
    # reference goes through MonoidElement and element_to_json one step at a time
    import json

    p, start, result = case()
    doc = certificate_to_json(p, start, result)
    assert len(doc["steps"]) == len(result.chain)
    if case is _emitter_chain_case:
        kinds = [[t["gen"]["kind"] for t in step["context"]["terms"]] for step in doc["steps"]]
        assert ["v", "vS"] in [sorted(set(k)) for k in kinds]
    assert json.dumps(doc) == json.dumps(_reference_certificate(p, start, result))


def _query_corpus():
    import random

    from acceptance_support import mixed_corpus
    from conftest import emitter_mixed

    return mixed_corpus(random.Random(0)) + [emitter_mixed(k) for k in range(2, 6)]


def test_certificates_and_replays_match_the_step_by_step_reference():
    import json
    import random

    rng = random.Random(41)
    chains = stuck_steps = 0
    for g in _query_corpus():
        p = presentation_of(g)
        pairs = []
        for _ in range(10):
            u = MonoidElement.from_counts({rng.choice(p.alphabet): rng.randint(0, 2) for _ in range(3)})
            v = MonoidElement.from_counts({rng.choice(p.alphabet): rng.randint(0, 2) for _ in range(3)})
            pairs.append((u, v))
        for _ in range(10 if p.relations else 0):
            x = MonoidElement.from_counts({rng.choice(p.alphabet): rng.randint(0, 2) for _ in range(2)})
            lhs, rhs = rng.choice(p.relations)
            pairs.append((x + lhs, x + rhs))
        for u, v in pairs:
            result = equal(p, u, v)
            if not result.equal:
                continue
            chains += 1
            end, _ = _reference_walk(p, u, result.chain)
            assert end == v == replay_chain(p, u, result.chain)
            assert json.dumps(certificate_to_json(p, u, result)) == json.dumps(_reference_certificate(p, u, result))
            # an unknown relation, then a step that does not apply, at the end of the chain
            n = len(p.relations)
            stuck = [
                ((k, d), f"relation {k} does not apply at this chain position")
                for k in range(n)
                for d in (1, -1)
                if any(v.exponent(gen) < m for gen, m in p.relations[k][0 if d == 1 else 1].terms)
            ]
            stuck_steps += bool(stuck)
            for bad, message in [((n, 1), f"chain names unknown relation {n}")] + stuck[:1]:
                chain = result.chain + (bad,)
                with pytest.raises(EngineError) as want:
                    _reference_walk(p, u, chain)
                with pytest.raises(EngineError) as got:
                    replay_chain(p, u, chain)
                assert str(got.value) == str(want.value) == message
    assert chains > 100 and stuck_steps > 100


@pytest.mark.parametrize(
    "step, message",
    [
        ((0, 5), "direction 5 is not"),
        ((0, 0), "direction 0 is not"),
        ((0, 1.0), "direction 1.0 is not"),
        ((0, True), "direction True is not"),
        ((0.5, 1), "unknown relation 0.5"),
        (("0", 1), "unknown relation '0'"),
        ((True, 1), "unknown relation True"),
        ((2**70, 1), f"unknown relation {2**70}"),
        ((-1, 1), "unknown relation -1"),
        ((0,), "is not a \\(relation, direction\\) pair"),
        ((0, 1, 1), "is not a \\(relation, direction\\) pair"),
        (0, "is not a \\(relation, direction\\) pair"),
    ],
)
def test_replay_rejects_malformed_steps(step, message):
    p = presentation_of(diamond())
    x = p.relations[0][0]
    assert replay_chain(p, x, ((0, 1), (0, -1))) == x
    with pytest.raises(EngineError, match=message):
        replay_chain(p, x, ((0, 1), step))
    with pytest.raises(EngineError, match=message):
        certificate_to_json(p, x, _result_with_chain(p, x, ((0, 1), step)))


@pytest.mark.parametrize("chain", [None, 5, 1.5, True])
def test_replay_rejects_a_chain_that_is_not_a_sequence(chain):
    p = presentation_of(diamond())
    x = p.relations[0][0]
    with pytest.raises(EngineError, match=f"chain {chain!r} is not a sequence of steps"):
        replay_chain(p, x, chain)


def test_certificate_json_builds_documents_only_for_context_generators(monkeypatch):
    # a deterministic count of the generator documents certificate_to_json
    # builds: one per generator its steps' contexts hold, none for the rest
    # of the 34 columns of emitter_mixed(5)
    import graphmonoid.engine as engine
    from conftest import emitter_mixed

    p = presentation_of(emitter_mixed(5))
    built = []
    real = engine.generator_to_json
    monkeypatch.setattr(engine, "generator_to_json", lambda gen: built.append(gen) or real(gen))
    alphabet = p.alphabet
    counts = []
    # each relation alone (its certificate's contexts are all zero), then in
    # the context of a_u + a_{v,{e0,e1}} + 2 a_w
    context = MonoidElement.from_counts({vgen("u"): 1, vgen("w"): 2, Generator("v", ("e0", "e1")): 1})
    for c in (MonoidElement(), context):
        for lhs, rhs in p.relations:
            result = equal(p, c + lhs, c + rhs)
            built.clear()
            certificate_to_json(p, c + lhs, result)
            _, contexts = _reference_walk(p, c + lhs, result.chain)
            used = {gen for ctx in contexts for gen in ctx.support()}
            assert len(built) == len(set(built)) and set(built) == used
            counts.append(len(built))
    assert len(alphabet) == 34 and len(p.relations) == 32
    # every call used to build all 34: 2,176 documents over these 64 certificates
    assert (sum(counts[:32]), sum(counts[32:]), max(counts)) == (0, 142, 5)


def test_unvec_matches_element_of():
    # lists of ints, tuples and int64 rows, zero included, over alphabets of
    # vertices alone and of vertices and emitter generators
    from graphmonoid.engine import _unvec
    from graphmonoid.presentation import element_of
    from conftest import emitter_mixed

    rng = np.random.default_rng(3)
    for p in (presentation_of(emitter_mixed(3)), presentation_of(emitter_mixed(4)), presentation_of(diamond())):
        n = len(p.alphabet)
        rows = np.concatenate([np.zeros((1, n), dtype=np.int64), rng.integers(0, 4, size=(40, n)) * (rng.random((40, n)) < 0.4)])
        for row in rows:
            vec = row.tolist()
            want = element_of(p.alphabet, {c: m for c, m in enumerate(vec) if m})
            for v in (vec, tuple(vec), row):
                x = _unvec(v, p)
                assert x == want and all(type(m) is int for _, m in x.terms)
                assert all(any(g is gen for gen in p.alphabet) for g, _ in x.terms)
        assert _unvec([0] * n, p) == MonoidElement()
        big = [2**70] + [0] * (n - 1)
        assert _unvec(big, p) == element_of(p.alphabet, {0: 2**70})
        for bad in ([-1] + [0] * (n - 1), [1.5] + [0] * (n - 1)):
            with pytest.raises(PresentationError) as want:
                element_of(p.alphabet, {0: bad[0]})
            with pytest.raises(PresentationError) as got:
                _unvec(bad, p)
            assert str(got.value) == str(want.value)


def test_reduce_with_no_rules_returns_the_vector_read():
    from graphmonoid.engine import _reduce

    x, trace = [0, 2, 1], []
    assert _reduce(x, (), trace, 3) is x and trace == []


def test_equality_results_build_their_elements_and_chain_on_first_access():
    from graphmonoid.engine import _cat, _invert, _power, _vec
    from graphmonoid import kernels
    from conftest import emitter_mixed

    g = emitter_mixed(3)
    p = presentation_of(g)
    rs = completed_system(p)
    u = single("v") + single("w")
    v = MonoidElement.single(sgen(g, "v", ["e0", "e2"])) + 3 * single("w")
    for x, y in ((u, v), (u, u), (v, single("w"))):
        result = equal(p, x, y)
        assert not {"lhs_normal_form", "rhs_normal_form", "chain"} & set(vars(result))
        assert result.lhs_normal_form == normal_form(rs, x) and result.rhs_normal_form == normal_form(rs, y)
        assert result.lhs_normal_form is result.lhs_normal_form
        if not result.equal:
            assert result.chain is None and result.normal_form is None
            continue
        su, sv = [], []
        kernels.reduce(_vec(x, p.index()), rs.rules, su)
        kernels.reduce(_vec(y, p.index()), rs.rules, sv)
        eager = _cat(
            *[_power(rs.proofs[k], t) for k, t in su],
            *[_power(_invert(rs.proofs[k]), t) for k, t in reversed(sv)],
        )
        assert result.chain == eager and result.chain is result.chain
        assert result.normal_form == result.lhs_normal_form


def _two_reduction_result(p, u, v):
    """equal(p, u, v) as it was before identical sides skipped reduction:
    both sides reduced with a trace, the traces cancelled where they meet."""
    from graphmonoid import kernels
    from graphmonoid.engine import _vec

    rs = completed_system(p)
    su, sv = [], []
    nfu = kernels.reduce(_vec(u, p.index()), rs.rules, su)
    nfv = kernels.reduce(_vec(v, p.index()), rs.rules, sv)
    assert nfu == nfv
    while su and sv and su[-1][0] == sv[-1][0]:
        (k, a), (_, b) = su.pop(), sv.pop()
        if a != b:
            (su if a > b else sv).append((k, abs(a - b)))
    runs = (*su, *[(k, -t) for k, t in reversed(sv)])
    return EqualityResult(True, p, (tuple(nfu), tuple(nfv)), rs.proofs, runs)


def test_identical_sides_reduce_once_when_the_normal_form_is_read(monkeypatch):
    import json

    from graphmonoid import kernels
    from graphmonoid.engine import _unvec, exponent_vectors

    reduce = kernels.reduce
    calls = []

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    checked = 0
    for g in completion_corpus():
        p = presentation_of(g)
        for vec in exponent_vectors(len(p.alphabet), 2):
            x = _unvec(vec, p)
            want = _two_reduction_result(p, x, x)
            monkeypatch.setattr(kernels, "reduce", counted)
            calls.clear()
            result = equal(p, x, MonoidElement(x.terms))
            assert result.equal and calls == []
            assert result.chain == want.chain == () and result.runs == want.runs == ()
            assert (result.lhs_vector, result.rhs_vector) == (want.lhs_vector, want.rhs_vector)
            assert result.normal_form == result.rhs_normal_form == want.lhs_normal_form
            doc = certificate_to_json(p, x, result)
            assert len(calls) == 1 and len(calls[0]) == 2  # reduced once, without a trace
            monkeypatch.setattr(kernels, "reduce", reduce)
            assert json.dumps(doc) == json.dumps(certificate_to_json(p, x, want))
            checked += 1
    assert checked > 5000


def test_certificate_separates():
    p = presentation_of(diamond())
    result = equal(p, single("v"), single("u"))
    assert not result.equal
    assert result.lhs_normal_form != result.rhs_normal_form
    assert certificate_to_json(p, single("v"), result)["kind"] == "separated"


def test_equal_iff_normal_forms_match():
    g = emitter_to_sink(2)
    p = presentation_of(g)
    rs = completed_system(p)
    vectors = elements_up_to_degree(len(p.alphabet), 3)
    from graphmonoid.engine import _unvec

    elems = [_unvec(v, p) for v in vectors]
    for x in elems[:40]:
        for y in elems[:40]:
            assert bool(equal(p, x, y)) == (normal_form(rs, x) == normal_form(rs, y))


def test_normal_form_idempotent():
    p = presentation_of(emitter_to_sink(2))
    rs = completed_system(p)
    for v in elements_up_to_degree(len(p.alphabet), 3):
        from graphmonoid.engine import _unvec

        x = _unvec(v, p)
        nf = normal_form(rs, x)
        assert normal_form(rs, nf) == nf
        assert equal(p, nf, x)


def test_completion_is_deterministic():
    p = presentation_of(emitter_to_sink(3))
    a, b = _plain_completion(p), _plain_completion(p)
    assert np.array_equal(a.lhs, b.lhs)
    assert np.array_equal(a.rhs, b.rhs)
    assert a.proofs == b.proofs


@pytest.mark.parametrize(
    "k, spairs, rules, proof_steps, longest_proof",
    [(4, 20, 22, 66, 8), (5, 40, 42, 130, 8), (6, 70, 79, 246, 12)],
)
def test_completion_counters_are_pinned(k, spairs, rules, proof_steps, longest_proof):
    from conftest import emitter_mixed

    rs = _plain_completion(presentation_of(emitter_mixed(k)))
    lengths = [len(proof) for proof in rs.proofs]
    assert rs.spairs_processed == spairs
    assert rs.rule_count == rules
    assert sum(lengths) == proof_steps
    assert max(lengths) == longest_proof


def _graph_16(level):
    # two infinite emitters on a 2-cycle, with 3 and 2 materialized edges:
    # its tailed presentations make many S-pairs for their size
    import random

    from acceptance_support import mixed_corpus
    from graphmonoid.desingularize import desingularize

    return desingularize(mixed_corpus(random.Random(0))[16], level).graph


def test_completion_work_on_a_tailed_two_emitter_cycle_is_pinned():
    # deterministic counters stand in for a timing: the S-pairs the chain
    # criterion and the disjoint-support skip leave to reduce
    rs = _plain_completion(presentation_of(_graph_16(6)))
    assert rs.spairs_processed == 1872
    assert rs.rule_count == 145


@pytest.mark.parametrize(
    "k, level, spairs, rules, eliminated",
    [
        (4, None, 0, 16, 16),
        (5, None, 0, 32, 32),
        (6, None, 0, 64, 64),
        *[(None, level, 0, 2 * level, 2 * level - 1) for level in range(4, 10)],
    ],
)
def test_eliminated_completion_counters_are_pinned(k, level, spairs, rules, eliminated):
    # emitter_mixed(k), or graph 16 tailed at level: after the Tietze pass
    # they leave one equation or none, and completion pairs nothing
    from conftest import emitter_mixed

    p = presentation_of(emitter_mixed(k) if level is None else _graph_16(level))
    rs = completed_system(p)
    assert (rs.spairs_processed, rs.rule_count, len(rs.eliminated)) == (spairs, rules, eliminated)
    for r, proof in enumerate(rs.proofs):
        lhs, rhs = rs.rule(r)
        assert replay_chain(p, lhs, proof) == rhs


@pytest.mark.parametrize("k", range(1, 7))
def test_an_emitter_to_a_sink_keeps_only_its_top_and_the_sink(k):
    # one relation per a_{v,S} with S a proper subset of M: the Tietze pass
    # defines each away by its own relation, one step, and keeps a_w and a_{v,M}
    g = emitter_to_sink(k)
    p = presentation_of(g)
    rs = completed_system(p)
    kept = set(p.alphabet) - {p.alphabet[c] for c in rs.eliminated}
    assert kept == {vgen("w"), sgen(g, "v", g.emitters[0][2])}
    assert (rs.spairs_processed, rs.rule_count) == (0, 2**k - 1)
    assert [len(proof) for proof in rs.proofs] == [1] * (2**k - 1)


def test_emitter_mixed_14_is_counted_not_timed():
    # 16,386 generators; covering steps S -> S+e would have been 114,689 relations
    from conftest import emitter_mixed

    p = presentation_of(emitter_mixed(14))
    rs = completed_system(p)
    assert len(p.relations) == 2**14
    assert (rs.spairs_processed, sum(map(len, rs.proofs))) == (0, 24_576)


def _double_edge_path(n):
    # v0 => v1 => ... => vn, two edges per step: a(v0) = 2^n a(vn)
    from graphmonoid.graphs import Graph

    names = [f"v{i}" for i in range(n + 1)]
    return Graph.build(names, [(f"{c}{i}", names[i], names[i + 1]) for i in range(n) for c in "ef"])


def _diamond_ladder(n):
    # v_i -> x_i, v_i -> y_i, x_i -> v_{i+1}, y_i -> v_{i+1}: a(v0) = 2^n a(vn)
    from graphmonoid.graphs import Graph

    edges = []
    for i in range(n):
        for m in (f"x{i}", f"y{i}"):
            edges += [(f"{m}in", f"v{i}", m), (f"{m}out", m, f"v{i + 1}")]
    return Graph.build([f"v{i}" for i in range(n + 1)] + [e[2] for e in edges[::2]], edges)


@pytest.mark.parametrize("g", [_double_edge_path(70), _diamond_ladder(70)], ids=["double-edge path", "diamond ladder"])
def test_the_growth_guard_keeps_definitions_small(g):
    # every step doubles a(v0) in terms of the vertices below: unguarded,
    # definitions and their proofs grow as 2^70
    import time

    p = presentation_of(g)
    n = len(p.alphabet)
    start = time.perf_counter()
    rs = completed_system(p)
    assert time.perf_counter() - start < 1.0
    assert rs.eliminated
    for k in range(len(rs.eliminated)):
        lhs, rhs = rs.rule(k)
        assert len(rs.proofs[k]) <= n * n and rhs.degree() <= n
        assert replay_chain(p, lhs, rs.proofs[k]) == rhs
    result = equal(p, single("v0"), 2 * single("v1"))
    assert result.equal and replay_chain(p, single("v0"), result.chain) == 2 * single("v1")
    with pytest.raises(EngineError, match=f"element of total degree {2**70} exceeds the int64 range"):
        equal(p, single("v0"), 2**70 * single("v70"))


def test_a_generator_held_many_times_is_not_eliminated():
    # eliminating y would read a(x) = 2^62 a(y) as a chain of 2^62 copies of
    # y's proof; y stays, and only a(u) = a(z) is eliminated
    p = pres(
        "uwxyz",
        [(single("u"), single("z")), (single("x"), 2**62 * single("y")), (single("y"), single("z") + single("w"))],
    )
    rs = completed_system(p)
    assert rs.eliminated == (p.index()[vgen("u")],)
    assert rs.lhs.max() == 2**62
    result = equal(p, single("x") + single("u"), 2**62 * single("y") + single("z"))
    assert result.equal and len(result.chain) == 2
    assert replay_chain(p, single("x") + single("u"), result.chain) == 2**62 * single("y") + single("z")


def test_completed_rules_are_pinned():
    # a confluent, interreduced system is unique for its presentation and
    # term order, so skipping S-pairs may change proofs but never the rules;
    # the digest was taken with every overlapping S-pair reduced
    import hashlib

    h = hashlib.sha256()
    for g in completion_corpus() + [_graph_16(level) for level in (4, 5, 6, 7)]:
        h.update(repr(_plain_completion(presentation_of(g)).rules).encode())
    assert h.hexdigest() == "187b1ab87179879204b319c0e0656dc42d8bc5fb602068f5a3211c7e463d707c"


def test_completion_keeps_its_compiled_rules_in_step_with_its_matrices():
    # completion retires and collapses rules on this corpus; every rule it
    # keeps must have a proof that replays from its left side to its right
    # side, a right side no rule reduces, and matrices that compile back to it
    from graphmonoid import kernels
    from graphmonoid.engine import _vec

    for g in completion_corpus():
        p = presentation_of(g)
        rs = _plain_completion(p)
        assert rs.rules == kernels.compile_rules(rs.lhs, rs.rhs)
        assert rs.lhs.shape == rs.rhs.shape == (rs.rule_count, len(p.alphabet))
        for k, proof in enumerate(rs.proofs):
            lhs, rhs = rs.rule(k)
            assert replay_chain(p, lhs, proof) == rhs
            assert kernels.reduce(_vec(rhs, p.index()), rs.rules) == _vec(rhs, p.index())


def _block_compare(u, v, eliminated):
    """Sign of u - v in the block order: graded-lex on the eliminated columns
    first, then graded-lex on the rest; plain graded-lex when none is eliminated."""
    from graphmonoid.engine import _compare

    top = sorted(eliminated)
    rest = [c for c in range(len(u)) if c not in eliminated]
    for cols in (top, rest):
        sign = _compare([u[c] for c in cols], [v[c] for c in cols])
        if sign:
            return sign
    return 0


def _confluence_violations(rs):
    """What keeps rs from being a completion of its presentation, checked
    without rerunning completion; empty when it is one.

    (a) every rule is downhill in the system's block order (graded-lex when
    nothing is eliminated) and its proof replays from its left side to its
    right side, so the rules lie in the presentation's congruence;
    (b) every pair of rules with overlapping left sides joins at its peak, so
    the rules are confluent (critical-pair lemma, Newman's lemma);
    (c) both sides of every relation have one normal form, so the rules
    generate the whole congruence.

    (b) and (c) reduce with the rules, which ends only when every rule is
    downhill, so they run only after (a) finds every rule downhill.
    """
    from graphmonoid import kernels
    from graphmonoid.engine import _vec

    p = rs.presentation
    index = p.index()
    sides = [kernels.rule_sides(rule, len(p.alphabet)) for rule in rs.rules]
    uphill = [k for k, (l, r) in enumerate(sides) if _block_compare(l, r, rs.eliminated) <= 0]
    out = [f"rule {k} is not downhill" for k in uphill]
    for k, proof in enumerate(rs.proofs):
        lhs, rhs = rs.rule(k)
        try:
            if replay_chain(p, lhs, proof) != rhs:
                out.append(f"proof of rule {k} ends elsewhere")
        except EngineError:
            out.append(f"proof of rule {k} does not replay")
    if uphill:
        return out
    for i, (li, ri) in enumerate(sides):
        for j in range(i + 1, len(sides)):
            lj, rj = sides[j]
            if not any(a and b for a, b in zip(li, lj)):
                continue
            peak = list(map(max, li, lj))
            via_i = [a - b + c for a, b, c in zip(peak, li, ri)]
            via_j = [a - b + c for a, b, c in zip(peak, lj, rj)]
            if kernels.reduce(via_i, rs.rules) != kernels.reduce(via_j, rs.rules):
                out.append(f"rules {i} and {j} do not join at their peak")
    for n, (u, v) in enumerate(p.relations):
        if kernels.reduce(_vec(u, index), rs.rules) != kernels.reduce(_vec(v, index), rs.rules):
            out.append(f"relation {n} has two normal forms")
    return out


def test_completed_systems_pass_the_confluence_check():
    for g in completion_corpus():
        p = presentation_of(g)
        assert _confluence_violations(_plain_completion(p)) == []
        assert _confluence_violations(completed_system(p)) == []


def _assert_the_check_fails_without_a_rule_or_with_one_flipped(rs):
    from dataclasses import replace

    from graphmonoid import kernels
    from graphmonoid.engine import _invert

    assert _confluence_violations(rs) == []
    width = len(rs.presentation.alphabet)
    for k in range(rs.rule_count):
        smaller = replace(rs, rules=rs.rules[:k] + rs.rules[k + 1 :], proofs=rs.proofs[:k] + rs.proofs[k + 1 :])
        assert _confluence_violations(smaller), f"the check passes without rule {k}"
        lhs, rhs = kernels.rule_sides(rs.rules[k], width)
        flipped = replace(
            rs,
            rules=rs.rules[:k] + (kernels.compile_rule(rhs, lhs),) + rs.rules[k + 1 :],
            proofs=rs.proofs[:k] + (_invert(rs.proofs[k]),) + rs.proofs[k + 1 :],
        )
        assert _confluence_violations(flipped), f"the check passes with rule {k} flipped"


def test_confluence_check_fails_without_a_rule_or_with_one_flipped():
    from conftest import emitter_mixed

    _assert_the_check_fails_without_a_rule_or_with_one_flipped(_plain_completion(presentation_of(emitter_mixed(3))))


def test_confluence_check_fails_on_eliminated_systems_without_a_rule_or_with_one_flipped():
    # emitter_mixed(3) keeps definitions only; graph 15 of the mixed corpus
    # keeps completed rules beside them
    import random

    from acceptance_support import mixed_corpus
    from conftest import emitter_mixed

    for g in (emitter_mixed(3), mixed_corpus(random.Random(0))[15]):
        rs = completed_system(presentation_of(g))
        assert rs.eliminated
        _assert_the_check_fails_without_a_rule_or_with_one_flipped(rs)


def _elimination_violations(g, degree):
    """Where completed_system, after the Tietze pass, disagrees with plain
    completion on g's elements up to degree, or fails the confluence check."""
    from graphmonoid import kernels
    from graphmonoid.engine import _unvec, exponent_vectors

    p = presentation_of(g)
    rs, reference = completed_system(p), _plain_completion(p)
    out = _confluence_violations(rs)
    vectors = list(exponent_vectors(len(p.alphabet), degree))
    ours = [tuple(kernels.reduce(x, rs.rules)) for x in vectors]
    plain = [tuple(kernels.reduce(x, reference.rules)) for x in vectors]
    # one partition: the normal forms of either system determine the other's
    if not len(set(ours)) == len(set(zip(ours, plain))) == len(set(plain)):
        out.append("the partitions differ")
    first = {}
    for vector, nf in zip(vectors, ours):
        x = _unvec(vector, p)
        y = first.setdefault(nf, x)
        result = equal(p, y, x)
        if not result.equal or replay_chain(p, y, result.chain) != x:
            out.append(f"no replayable certificate for {y} = {x}")
    return out


def _sample_degree(g):
    # degree 3 while the sample stays in the hundreds
    return 3 if len(presentation_of(g).alphabet) <= 9 else 2


@settings(max_examples=100, deadline=None)
@given(g=_valid_graphs())
def test_elimination_agrees_with_plain_completion(g):
    assert _elimination_violations(g, _sample_degree(g)) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_elimination_agrees_with_plain_completion_on_tailed_graphs(seed):
    import random

    from acceptance_support import graph_level, mixed_corpus
    from graphmonoid.desingularize import desingularize

    for g in mixed_corpus(random.Random(seed)):
        tailed = desingularize(g, graph_level(g)).graph
        assert _elimination_violations(tailed, _sample_degree(tailed)) == []


def test_cat_cancels_inverse_steps_across_junctions():
    from graphmonoid.engine import _cat

    # the middle part cancels whole, then the cancellation reaches the first part
    assert _cat(((0, 1), (1, 1)), ((1, -1),), ((0, -1),)) == ()
    assert _cat(((0, 1), (1, 1)), ((1, -1), (2, 1)), ((2, 1), (3, -1))) == ((0, 1), (2, 1), (2, 1), (3, -1))
    # survivors keep their order; a repeated step or another relation is no inverse
    assert _cat(((2, 1), (0, -1)), ((0, -1), (2, -1))) == ((2, 1), (0, -1), (0, -1), (2, -1))
    assert _cat(((1, 1),), ((2, -1),)) == ((1, 1), (2, -1))
    assert _cat() == _cat((), ()) == ()
    assert _cat(((5, -1), (4, 1))) == ((5, -1), (4, 1))


def _free_reduction(chain):
    out = []
    for rel, d in chain:
        if out and out[-1] == (rel, -d):
            out.pop()
        else:
            out.append((rel, d))
    return tuple(out)


def _has_inverse_pair(chain):
    return any(a == (b[0], -b[1]) for a, b in zip(chain, chain[1:]))


def test_proofs_and_chains_are_freely_reduced():
    import random

    from graphmonoid.engine import _invert, _vec
    from graphmonoid import kernels
    from conftest import emitter_mixed

    rng = random.Random(31)
    for g in (emitter_mixed(3), emitter_to_sink(2), diamond()):
        p = presentation_of(g)
        rs = completed_system(p)
        assert not any(_has_inverse_pair(proof) for proof in rs.proofs)
        chains = 0
        for _ in range(40):
            u = MonoidElement.from_counts({rng.choice(p.alphabet): rng.randint(0, 2) for _ in range(3)})
            v = MonoidElement.from_counts({rng.choice(p.alphabet): rng.randint(0, 2) for _ in range(3)})
            result = equal(p, u, v)
            if not result.equal:
                continue
            chains += 1
            su, sv = [], []
            kernels.reduce(_vec(u, p.index()), rs.rules, su)
            kernels.reduce(_vec(v, p.index()), rs.rules, sv)
            # every rule application of each side, runs expanded
            su, sv = [k for k, t in su for _ in range(t)], [k for k, t in sv for _ in range(t)]
            plain = sum((rs.proofs[k] for k in su), ()) + sum((_invert(rs.proofs[k]) for k in reversed(sv)), ())
            assert result.chain == _free_reduction(plain)
            assert not _has_inverse_pair(result.chain)
            assert replay_chain(p, u, result.chain) == v
        assert chains > 0


_STEPS = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_STEPS, max_size=12), st.integers(1, 6))
def test_power_is_the_free_reduction_of_repeated_copies(steps, t):
    from graphmonoid.engine import _power, _power_length

    p = _free_reduction(steps)
    assert _power(p, t) == _free_reduction(p * t)
    assert _power_length(p, t) == len(_power(p, t))


def _two_edges_to_a_sink():
    from graphmonoid.graphs import Graph

    return presentation_of(Graph.build(["v", "w"], [("e", "v", "w"), ("f", "v", "w")]))


def test_large_multiplicity_reduces_in_one_run_per_rule():
    from graphmonoid import kernels
    from graphmonoid.engine import _vec

    p = _two_edges_to_a_sink()
    rs = completed_system(p)
    m = 10**5
    u, v = m * single("v"), 2 * m * single("w")
    for x in (u, v):
        runs = []
        kernels.reduce(_vec(x, p.index()), rs.rules, runs)
        assert len({k for k, _ in runs}) == len(runs)
    result = equal(p, u, v)
    assert result.equal and len(result.chain) == m
    assert replay_chain(p, u, result.chain) == v


def test_degree_past_int64_is_an_engine_error():
    from graphmonoid.engine import bfs_reach

    p = presentation_of(single_edge())
    past = 2**62 * single("v") + 2**62 * single("w")  # each term fits in int64, the sum does not
    # the running degree passes int64 before a count that is not an int is read
    later = MonoidElement(((vgen("v"), 2**62), (vgen("w"), 2**62), (vgen("v"), "1")))
    rs = completed_system(p)
    for x in (past, later):
        for call in (
            lambda: normal_form(rs, x),
            lambda: equal(p, x, single("w")),
            lambda: equal(p, single("w"), x),
            lambda: equal(p, x, x),
            lambda: bfs_reach(p, x, 1),
            lambda: replay_chain(p, x, ()),
        ):
            with pytest.raises(EngineError, match="total degree 9223372036854775808 exceeds the int64 range"):
                call()
    # one short of the limit still reduces, in one run
    y = (2**62 - 1) * single("v") + 2**62 * single("w")
    assert normal_form(rs, y) == (2**63 - 1) * single("w")
    # a_v = 2a_v raises the degree by one per step: two steps from 2^63 - 1
    # pass the int64 range of the BFS frontier rows
    q, z = presentation_of(rose(2)), (2**63 - 1) * single("v")
    for call in (lambda: bfs_reach(q, z, 2), lambda: congruence_bfs(q, z, 2)):
        with pytest.raises(
            EngineError,
            match="total degree 9223372036854775807 may reach degree 9223372036854775809 in 2 relation steps, "
            "which exceeds the int64 range",
        ):
            call()
    assert bfs_reach(q, z, 0) == ({(2**63 - 1,)}, False)
    # a_v = a_w keeps the degree: any depth is safe
    reached, _ = bfs_reach(p, y, 2)
    assert len(reached) == 5 and {sum(t) for t in reached} == {2**63 - 1}


def test_normal_form_at_degree_2_62_is_one_run():
    from graphmonoid import kernels
    from graphmonoid.engine import _vec

    p = presentation_of(single_edge())
    rs, index, m = completed_system(p), p.index(), 2**62
    runs = []
    assert kernels.reduce(_vec(m * single("v"), index), rs.rules, runs) == _vec(m * single("w"), index)
    assert runs == [(0, m)]
    assert normal_form(rs, m * single("v")) == m * single("w")
    with pytest.raises(EngineError, match="exceeds the int64 range"):
        _vec(2**63 * single("v"), index)


def test_chain_longer_than_a_tuple_is_refused_before_it_is_built():
    import sys

    p = _two_edges_to_a_sink()
    m = 2**61  # a chain of m steps needs 2**64 bytes of pointers
    assert m > sys.maxsize // 8
    with pytest.raises(EngineError, match=f"certificate chain of {m} steps is longer than a tuple can hold"):
        equal(p, m * single("v"), 2 * m * single("w"))
    # runs that cancel where the two sides meet leave nothing to build
    assert equal(p, m * single("v"), m * single("v")).chain == ()


def test_budget_exhaustion_is_explicit():
    p = presentation_of(emitter_to_sink(3))
    with pytest.raises(BudgetExceededError) as err:
        _plain_completion(p, budget=0)
    assert err.value.budget == 0


def test_completeness_against_bfs_small():
    # exhaustive degree-3 pairs on a few small graphs, BFS verdicts at depth 6
    from graphmonoid.engine import _unvec, bfs_reach

    for g in (single_edge(), rose(2), diamond(), emitter_to_sink(1)):
        p = presentation_of(g)
        rs = completed_system(p)
        vecs = elements_up_to_degree(len(p.alphabet), 3)
        nfs = [normal_form(rs, _unvec(v, p)) for v in vecs]
        elems = [_unvec(v, p) for v in vecs]
        index = {tuple(int(c) for c in v): i for i, v in enumerate(vecs)}
        for i, x in enumerate(elems):
            reach, saturated = bfs_reach(p, x, 6)
            for key, j in index.items():
                if key in reach:
                    assert nfs[i] == nfs[j], f"BFS joins {x} and {elems[j]}, engine separates"
                elif saturated:
                    assert nfs[i] != nfs[j], f"engine joins {x} and {elems[j]}, BFS class is closed"


def _expand_two_pass(front, lhs, rhs):
    """expand_frontier as one pass per direction."""
    parts = [np.empty((0, front.shape[1]), dtype=np.int64)]
    for a, b in ((lhs, rhs), (rhs, lhs)):
        ii, kk = np.nonzero((front[:, None, :] >= a[None, :, :]).all(axis=2))
        parts.append(front[ii] - a[kk] + b[kk])
    return np.concatenate(parts)


def _relation_matrices(p):
    """p's relations as dense int64 left and right sides."""
    from graphmonoid import kernels
    from graphmonoid.engine import _relation_rules

    return kernels.rule_matrices(_relation_rules(p)[0], len(p.alphabet))


def _bfs_reach_by_rows(p, x, depth, max_size=None):
    """bfs_reach as a loop that deduplicates one row at a time, over the dense relation sides."""
    from graphmonoid.engine import _vec

    lhs, rhs = _relation_matrices(p)
    start = np.array(_vec(x, p.index()), dtype=np.int64)
    seen, reached, frontier = {start.tobytes()}, [start], start.reshape(1, -1)
    saturated = lhs.shape[0] == 0
    for _ in range(depth):
        fresh = []
        for row in _expand_two_pass(frontier, lhs, rhs):
            if row.tobytes() not in seen:
                seen.add(row.tobytes())
                fresh.append(row)
        if not fresh:
            saturated = True
            break
        reached.extend(fresh)
        if max_size is not None and len(seen) > max_size:
            break
        frontier = np.stack(fresh)
    return set(map(tuple, np.stack(reached).tolist())), saturated


@st.composite
def _small_presentations(draw):
    gens = [vgen(f"x{i}") for i in range(draw(st.integers(1, 3)))]
    side = st.dictionaries(st.sampled_from(gens), st.integers(1, 2), min_size=1).map(MonoidElement.from_counts)
    rels = draw(st.lists(st.tuples(side, side), max_size=3))
    x = draw(st.dictionaries(st.sampled_from(gens), st.integers(1, 3)).map(MonoidElement.from_counts))
    return Presentation(tuple(gens), tuple(rels)), x


_DOUBLING = pres("vw", [(single("v"), 2 * single("v")), (single("w"), 2 * single("w"))])
# six steps; levels of 1, 3, 6, 10, 15, 21 rows: the frontier of 10 rows costs
# 60 rule tests, so depths 1-3 run in Python and depths 4-6 over the step table
_TRIPLING = (pres("uvw", [(single(c), 2 * single(c)) for c in "uvw"]), single("u") + single("v") + single("w"))


@settings(max_examples=150, deadline=None)
@given(_small_presentations(), st.integers(0, 6), st.none() | st.integers(0, 40))
@example((_DOUBLING, single("v") + single("w")), 3, 4)  # level sizes 1, 2, 3: the cap falls inside level 2
@example(_TRIPLING, 6, None)  # switches to the step table after three depths
@example(_TRIPLING, 6, 15)  # 20 vectors after depth 3: the cap falls in a Python depth
@example(_TRIPLING, 6, 30)  # 35 vectors after depth 4: the cap falls in a step-table depth
@example(_TRIPLING, 6, 35)  # a cap met exactly does not stop the search
@example(_TRIPLING, 0, None)
@example((pres("uv", []), 2 * single("u")), 3, None)  # no relations: saturated at once
def test_bfs_reach_matches_the_row_by_row_loop(px, depth, max_size):
    p, x = px
    assert bfs_reach(p, x, depth, max_size) == _bfs_reach_by_rows(p, x, depth, max_size)


@st.composite
def _graph_presentations(draw):
    """A drawn valid graph's presentation, or a tailed one, and an element of at most three terms."""
    g = draw(_valid_graphs() | st.sampled_from([3, 4]).map(_graph_16))
    p = presentation_of(g)
    counts = draw(st.dictionaries(st.sampled_from(p.alphabet), st.integers(1, 2), max_size=3))
    return p, MonoidElement.from_counts(counts)


# six steps; 4, 12 and 23 vectors after depths 1-3 in Python, 33 and 41 after
# depths 4 and 5 over the step table
_DIAMOND_BFS = (presentation_of(diamond()), 2 * single("u") + 2 * single("v"))


@settings(max_examples=100, deadline=None)
@given(_graph_presentations(), st.integers(0, 5), st.none() | st.integers(0, 60))
@example(_DIAMOND_BFS, 5, None)
@example(_DIAMOND_BFS, 5, 8)  # the cap falls in depth 2, in Python
@example(_DIAMOND_BFS, 5, 33)  # depth 4 meets the cap and depth 5 passes it, both over the step table
@example(_DIAMOND_BFS, 0, None)
@example((presentation_of(single_sink()), 3 * single("v")), 2, None)  # no relations
def test_bfs_reach_matches_the_row_by_row_loop_on_graphs(px, depth, max_size):
    # R1 and R2 sides of several terms, loops, sinks and materialized emitters
    from graphmonoid.engine import _step_table

    p, x = px
    assert bfs_reach(p, x, depth, max_size) == _bfs_reach_by_rows(p, x, depth, max_size)
    table = _step_table(p)
    assert _step_table(p) is table and not any(m.flags.writeable for m in table)


def test_bfs_reach_switches_to_the_step_table_once(monkeypatch):
    from graphmonoid import engine

    switches = []
    over_table = engine._bfs_over_table

    def spy(p, seen, frontier, depth, max_size):
        switches.append((len(seen), depth))
        return over_table(p, seen, frontier, depth, max_size)

    monkeypatch.setattr(engine, "_bfs_over_table", spy)
    # six steps: frontiers of 6 and 10 rows fall on either side of the switch
    assert 6 * 6 <= engine._PYTHON_BFS_TESTS < 6 * 10
    p, x = _TRIPLING
    assert bfs_reach(p, x, 6) == _bfs_reach_by_rows(p, x, 6)
    assert switches == [(20, 3)]  # after depth 3, for the three depths left
    switches.clear()
    bfs_reach(p, x, 3)
    bfs_reach(p, x, 6, 15)
    assert switches == []  # the search ends, or is capped, before the frontier grows
    assert bfs_reach(*_DIAMOND_BFS, 5) == _bfs_reach_by_rows(*_DIAMOND_BFS, 5)
    assert switches == [(23, 2)]


def test_bfs_reach_refuses_a_negative_cap_or_count():
    p, x = _DOUBLING, single("v") + single("w")
    for call in (lambda: bfs_reach(p, x, 3, max_size=-1), lambda: congruence_bfs(p, x, 3, max_size=-1)):
        with pytest.raises(EngineError, match="max_size must be >= 0, got -1"):
            call()
    # a cap of 0 keeps the first level, unsaturated
    assert bfs_reach(p, x, 3, max_size=0) == ({(1, 1), (2, 1), (1, 2)}, False)
    # the step test reads only support columns, which holds for nonnegative rows
    with pytest.raises(EngineError, match="has a negative count"):
        bfs_reach(p, MonoidElement(((vgen("v"), -1),)), 1)


def test_repeated_generators_are_summed():
    from graphmonoid.engine import _relation_rules

    p = presentation_of(single_edge())
    w = MonoidElement.single(vgen("w"))
    x = MonoidElement(((vgen("w"), 1), (vgen("w"), 2)))
    assert x.degree() == 3
    assert equal(p, x, 3 * w).equal
    assert normal_form(completed_system(p), x) == 3 * w
    assert bfs_reach(p, x, 0) == ({(0, 3)}, False)
    assert replay_chain(p, x, ()) == 3 * w
    # a relation side that lists a generator twice reads as the sum too
    v = MonoidElement.single(vgen("v"))
    q = pres("vw", [(v, MonoidElement(((vgen("w"), 1), (vgen("w"), 1))))])
    assert _relation_rules(q) == _relation_rules(pres("vw", [(v, 2 * MonoidElement.single(vgen("w")))]))


def test_negative_counts_are_refused_on_the_query_path():
    # a hand-built element is not checked when it is made; every query that
    # reads it as a vector refuses it, naming the generator it holds
    # (a negative count, or one that is not an int: a float, or a bool)
    p = presentation_of(single_edge())
    certificate = equal(p, single("v"), single("w"))
    for bad, named in (
        (-1, r"negative count -1 of generator a\(v\)$"),
        (1.5, r"count 1\.5 of generator a\(v\) that is not an int$"),
        (True, r"count True of generator a\(v\) that is not an int$"),
    ):
        x = MonoidElement(((vgen("v"), bad),))
        y = MonoidElement(((vgen("w"), bad),))
        for call in (
            lambda: equal(p, x, y),
            lambda: equal(p, single("w"), x),
            lambda: normal_form(completed_system(p), x),
            lambda: replay_chain(p, x, ()),
            lambda: certificate_to_json(p, x, certificate),
            lambda: bfs_reach(p, x, 1),
        ):
            with pytest.raises(EngineError, match=named):
                call()
    # per term: a later term does not make up for it
    with pytest.raises(EngineError, match=r"negative count -1 of generator a\(w\)$"):
        equal(p, MonoidElement(((vgen("w"), -1), (vgen("w"), 2))), single("w"))


def test_identical_sides_are_read_once_with_every_check():
    # equal(p, x, x) reads x once; it refuses what reading both sides refuses,
    # with the same error, and an equal copy of x with counts of another type
    # is still read and refused
    p = presentation_of(emitter_to_sink(2))
    v, outside = vgen("v"), vgen("nowhere")
    for bad in (
        MonoidElement(((v, -1),)),
        MonoidElement(((v, 1.5),)),
        MonoidElement(((v, True),)),
        MonoidElement(((v, np.int64(1)),)),
        MonoidElement(((outside, 1),)),
        MonoidElement(((v, 2**62), (vgen("w"), 2**62))),
    ):
        with pytest.raises(EngineError) as two_reads:
            equal(p, bad, single("w"))
        for other in (bad, MonoidElement(bad.terms)):
            with pytest.raises(EngineError) as one_read:
                equal(p, bad, other)
            assert str(one_read.value) == str(two_reads.value)
    for counts in ((True,), (1.0,), (np.int64(1),)):
        with pytest.raises(EngineError, match=r"count .* of generator a\(v\) that is not an int$"):
            equal(p, single("v"), MonoidElement(((v, *counts),)))
    rs = completed_system(p)
    q = MonoidElement.single(sgen(emitter_to_sink(2), "v", ["e0"]))
    for x in (MonoidElement(), single("v"), 3 * single("v") + q):
        for y in (x, MonoidElement(x.terms)):
            res = equal(p, x, y)
            assert res.equal and res.runs == () and res.chain == ()
            assert res.normal_form == res.rhs_normal_form == normal_form(rs, x)


@settings(max_examples=100, deadline=None)
@given(_small_presentations(), st.data())
def test_expand_frontier_matches_two_passes(px, data):
    from graphmonoid import kernels

    p, _ = px
    g = len(p.alphabet)
    front = np.array(
        data.draw(st.lists(st.lists(st.integers(0, 3), min_size=g, max_size=g), max_size=6)), dtype=np.int64
    ).reshape(-1, g)
    lhs, rhs = _relation_matrices(p)
    got = kernels.expand_frontier(front, lhs, rhs)
    assert got.dtype == np.int64 and got.shape[1] == g
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, _expand_two_pass(front, lhs, rhs).tolist()))


def test_bfs_reach_cap_keeps_the_level_it_falls_in():
    reach = {(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)}
    assert bfs_reach(_DOUBLING, single("v") + single("w"), 3, 4) == (reach, False)


def test_bfs_reach_without_relations():
    from graphmonoid.graphs import Graph

    assert bfs_reach(presentation_of(Graph()), MonoidElement(), 3) == ({()}, True)
    p = pres("vw", [])
    assert bfs_reach(p, 2 * single("v"), 3) == ({(2, 0)}, True)
    assert bfs_reach(p, MonoidElement(), 0) == ({(0, 0)}, True)


def test_presentation_data_is_built_once():
    import pickle

    from conftest import emitter_mixed
    from graphmonoid import kernels
    from graphmonoid.engine import _relation_rules, _step_table, _vec

    p, q = presentation_of(emitter_mixed(3)), presentation_of(emitter_mixed(3))
    assert p is not q and p == q and hash(p) == hash(q)
    assert p.index() is p.index()
    lhs, rhs = _relation_matrices(p)
    index = p.index()
    assert np.array_equal(lhs, np.array([_vec(l, index) for l, _ in p.relations]))
    assert np.array_equal(rhs, np.array([_vec(r, index) for _, r in p.relations]))
    forward, backward = _relation_rules(p)
    assert _relation_rules(p)[0] is forward
    assert forward == kernels.compile_rules(lhs, rhs) and backward == kernels.compile_rules(rhs, lhs)
    # every repeated (column, count) pair, and every repeated side or difference, is one object
    parts = [part for rule in forward + backward for part in rule]
    pairs = [t for part in parts for t in part]
    assert len({id(t) for t in pairs}) == len(set(pairs)) < len(pairs)
    assert len({id(part) for part in parts}) == len(set(parts)) < len(parts)
    # the step table: the forward steps, then the backward ones, kept on p read-only
    table = _step_table(p)
    assert _step_table(p) is table and not any(m.flags.writeable for m in table)
    want = kernels.step_table(np.concatenate((lhs, rhs)), np.concatenate((rhs, lhs)))
    assert all(np.array_equal(a, b) for a, b in zip(table, want))
    rs = completed_system(p)
    assert rs.lhs is rs.lhs and not rs.lhs.flags.writeable and not rs.rhs.flags.writeable
    # a copy in another process must rehash: string hashes differ between processes
    assert set(vars(pickle.loads(pickle.dumps(p)))) == {"alphabet", "relations"}


def test_completed_systems_live_on_their_graph():
    import gc
    import random
    import weakref

    from acceptance_support import mixed_corpus
    from graphmonoid.engine import DEFAULT_BUDGET

    g = mixed_corpus(random.Random(0))[19]  # its completion reduces S-pairs
    p = presentation_of(g)
    assert presentation_of(g) is p
    rs = completed_system(p)
    need = rs.spairs_processed
    assert need > 0
    # one system per presentation, for every budget it fits in
    assert completed_system(p) is rs is completed_system(p, DEFAULT_BUDGET)
    assert completed_system(p, need) is rs
    # a completion that runs out of budget keeps nothing, and a larger budget then completes
    q = presentation_of(mixed_corpus(random.Random(0))[19])
    assert q is not p and q == p
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            completed_system(q, need - 1)
    assert "_completed_system" not in vars(q)
    assert completed_system(q, need + 1).rules == rs.rules
    assert vars(q)["_completed_system"] is completed_system(q)
    # the presentation and its system live as long as the graph does
    ref = weakref.ref(rs)
    del p, rs
    gc.collect()
    assert ref() is not None
    del g
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("i", [19, 15])  # 3 and 9 S-pairs
def test_a_kept_system_answers_every_budget_as_a_cold_run(i):
    import copy
    import random

    from acceptance_support import mixed_corpus

    p = presentation_of(mixed_corpus(random.Random(0))[i])
    need = completed_system(p).spairs_processed
    assert need > 0
    for budget in range(need + 2):
        twin = copy.copy(p)
        assert twin == p and "_completed_system" not in vars(twin)
        answers = []
        for q in (p, twin):
            try:
                rs = completed_system(q, budget)
            except BudgetExceededError as e:
                answers.append((e.processed, e.budget, str(e)))
            else:
                answers.append((rs.rules, rs.proofs, rs.spairs_processed, rs.eliminated))
        assert answers[0] == answers[1]
        if budget < need:
            assert answers[0][:2] == (budget + 1, budget) and "_completed_system" not in vars(twin)
        else:
            assert vars(twin)["_completed_system"].spairs_processed == need


@pytest.mark.parametrize("budget", [True, 2.9, 0.5, "7"])
def test_a_budget_that_is_not_an_int_is_refused(budget):
    from graphmonoid.engine import resolve_budget

    p = presentation_of(single_edge())
    message = re.escape(f"budget {budget!r} is not an int")
    for call in (
        lambda: resolve_budget(budget),
        lambda: completed_system(p, budget),
        lambda: equal(p, single("v"), single("w"), budget),
    ):
        with pytest.raises(EngineError, match=message):
            call()
    assert "_completed_system" not in vars(p)
    assert completed_system(p) is vars(p)["_completed_system"]


def test_a_long_path_listed_from_source_to_sink_completes_in_time():
    # each definition is put into every earlier one, and their proofs grow
    # in place: 499,500 steps stored, none copied again
    import time

    from graphmonoid.graphs import Graph

    names = [f"p{i:04d}" for i in range(1000)]
    p = presentation_of(Graph.build(names, [(f"e{i:04d}", names[i], names[i + 1]) for i in range(999)]))
    first, last = single(names[0]), single(names[-1])
    start = time.perf_counter()
    rs = completed_system(p)
    result = equal(p, first, last)
    assert time.perf_counter() - start < 10.0
    assert len(rs.eliminated) == 999 and sum(map(len, rs.proofs)) == 999 * 1000 // 2
    assert result.equal and len(result.chain) == 999
    assert replay_chain(p, first, result.chain) == last

def test_alphabet_mismatch_rejected():
    p = presentation_of(single_sink())
    with pytest.raises(EngineError):
        equal(p, single("zz"), MonoidElement())
    with pytest.raises(EngineError, match="outside the alphabet"):
        equal(p, single("zz"), single("zz"))


def test_negative_generator_count_is_an_engine_error():
    from graphmonoid.engine import exponent_vectors

    with pytest.raises(EngineError, match="generator count must be >= 0, got -1"):
        list(exponent_vectors(-1, 1))
    with pytest.raises(EngineError, match="generator count must be >= 0, got -1"):
        elements_up_to_degree(-1, 1)
    assert list(exponent_vectors(0, 1)) == [[]]


@pytest.mark.parametrize("n, degree", [(2, 2.5), (2, True), (2.0, 1), (False, 1), (2, "2"), (2, None)])
def test_a_size_that_is_not_an_int_is_an_engine_error(n, degree):
    from graphmonoid.engine import exponent_vectors

    with pytest.raises(EngineError, match="must be ints"):
        list(exponent_vectors(n, degree))
    with pytest.raises(EngineError, match="must be ints"):
        elements_up_to_degree(n, degree)


def test_certificates_replay_on_seeded_pairs():
    import random

    from conftest import emitter_mixed

    rng = random.Random(17)
    for g in (emitter_mixed(3), emitter_to_sink(2), diamond()):
        p = presentation_of(g)
        for _ in range(30):
            counts_u = {rng.choice(p.alphabet): rng.randint(0, 2) for _ in range(3)}
            counts_v = {rng.choice(p.alphabet): rng.randint(0, 2) for _ in range(3)}
            u = MonoidElement.from_counts(counts_u)
            v = MonoidElement.from_counts(counts_v)
            result = equal(p, u, v)
            if result.equal:
                assert replay_chain(p, u, result.chain) == v


def test_confluence_under_random_application_order():
    # a completed system must reach the same normal form no matter which
    # applicable rule fires at each step, not just lowest-index-first
    import random

    from graphmonoid.engine import _unvec, _vec
    from conftest import emitter_mixed

    rng = random.Random(23)
    for g in (emitter_to_sink(3), emitter_mixed(3), diamond(), rose(3)):
        p = presentation_of(g)
        rs = completed_system(p)
        index = p.index()
        for _ in range(25):
            counts = {rng.choice(p.alphabet): rng.randint(1, 3) for _ in range(rng.randint(0, 4))}
            x = MonoidElement.from_counts(counts)
            expected = normal_form(rs, x)
            y = _vec(x, index)
            while True:
                applicable = [k for k in range(rs.rule_count) if (rs.lhs[k] <= y).all()]
                if not applicable:
                    break
                k = rng.choice(applicable)
                y = y - rs.lhs[k] + rs.rhs[k]
            assert _unvec(y, p) == expected


# -- substitution first: the definitions read in one pass --------------------

def _substitution_first(rs, x):
    """x read through rs's definitions, then reduced by the completed rules,
    as equal and normal_form do: the normal form and the runs."""
    from graphmonoid.engine import _read, _reduce

    runs = []
    v = _read(rs, x, runs)
    return _reduce(v, rs._completed_rules, runs, len(rs.eliminated)), runs


def _reduction_over_all_rules(rs, x):
    from graphmonoid import kernels
    from graphmonoid.engine import _vec

    runs = []
    return kernels.reduce(_vec(x, rs.presentation.index()), rs.rules, runs), runs


def _drawn_elements(rng, alphabet, count, top):
    """count seeded elements of one to four terms, multiplicities up to top."""
    out = []
    for _ in range(count):
        counts = {}
        for _ in range(rng.randint(1, 4)):
            gen = rng.choice(alphabet)
            counts[gen] = counts.get(gen, 0) + rng.randint(1, top)
        out.append(MonoidElement.from_counts(counts))
    return out


def _substitution_mismatches(p, rng):
    """Elements of p where substitution first and kernels.reduce over all the
    rules disagree on the normal form or the runs; and how many elements hit
    two definitions or more."""
    rs = completed_system(p)
    xs = [MonoidElement.single(gen) for gen in p.alphabet]
    xs += _drawn_elements(rng, p.alphabet, 6, 3)
    xs += _drawn_elements(rng, p.alphabet, 2, 1000)
    bad, several = [], 0
    for x in xs:
        got, want = _substitution_first(rs, x), _reduction_over_all_rules(rs, x)
        if got != want:
            bad.append(str(x))
        several += sum(k < len(rs.eliminated) for k, _ in want[1]) > 1
    return bad, several


def test_substitution_first_matches_reduction_over_all_rules_on_the_completion_corpus():
    import random

    rng = random.Random(5)
    several = 0
    for g in completion_corpus():
        bad, hits = _substitution_mismatches(presentation_of(g), rng)
        assert bad == [], (g, bad[:3])
        several += hits
    assert several > 50  # runs of several definitions, whose order matters


@pytest.mark.parametrize("seed", [1, 2])
def test_substitution_first_matches_reduction_over_all_rules_on_tailed_graphs(seed):
    import random

    from acceptance_support import graph_level, mixed_corpus
    from graphmonoid.desingularize import desingularize

    rng = random.Random(seed)
    for g in mixed_corpus(random.Random(seed)):
        for h in (g, desingularize(g, graph_level(g)).graph):
            bad, _ = _substitution_mismatches(presentation_of(h), rng)
            assert bad == [], (h, bad[:3])


@settings(max_examples=40, deadline=None)
@given(g=_valid_graphs(), seed=st.integers(0, 2**16))
def test_substitution_first_matches_reduction_over_all_rules_on_drawn_graphs(g, seed):
    import random

    bad, _ = _substitution_mismatches(presentation_of(g), random.Random(seed))
    assert bad == []


def test_a_reversed_alphabet_is_refused():
    # column order is canonical order, so an alphabet out of that order is
    # refused, naming the first pair out of order
    import random

    from acceptance_support import mixed_corpus
    from conftest import emitter_mixed

    for g in (emitter_mixed(3), emitter_mixed(4), mixed_corpus(random.Random(0))[15]):
        p = presentation_of(g)
        first, second = p.alphabet[-1], p.alphabet[-2]
        with pytest.raises(PresentationError, match=re.escape(f"lists {second} after {first}, out of canonical order")):
            Presentation(p.alphabet[::-1], p.relations)


def _read_reference(rs, x):
    """_vec's vector of x, then each definition applied in rule order, with its runs."""
    from graphmonoid.engine import _vec

    v = _vec(x, rs.presentation.index())
    runs = []
    for k, c in enumerate(rs.eliminated):
        m = v[c]
        if m:
            v[c] = 0
            for d, n in rs.rules[k][1]:
                if d != c:
                    v[d] += m * n
            runs.append((k, m))
    return v, runs


def _read_corpus():
    import random

    from acceptance_support import graph_level, mixed_corpus
    from graphmonoid.desingularize import desingularize

    graphs = mixed_corpus(random.Random(0))
    return [presentation_of(h) for g in graphs for h in (g, desingularize(g, graph_level(g)).graph)]


_READ_CORPUS = _read_corpus()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_read_is_vec_then_the_definitions_on_the_mixed_and_tailed_corpora(data):
    # hand-built elements: generators listed twice, zero counts and large ones
    from graphmonoid.engine import _read

    p = data.draw(st.sampled_from(_READ_CORPUS))
    rs = completed_system(p)
    cols = st.integers(0, len(p.alphabet) - 1)
    counts = st.one_of(st.integers(0, 3), st.integers(0, 2**40))
    terms = data.draw(st.lists(st.tuples(cols, counts), max_size=6))
    x = MonoidElement(tuple((p.alphabet[c], m) for c, m in terms))
    trace = []
    assert (_read(rs, x, trace), trace) == _read_reference(rs, x)


def test_equal_keeps_the_type_and_message_of_every_malformed_element_error():
    from graphmonoid.engine import _vec

    p = presentation_of(single_edge())
    v, w = vgen("v"), vgen("w")
    half = 2**62
    malformed = [
        ((v, 1), (w, -2)),
        ((v, 1), (w, True)),
        ((v, True),),
        ((v, 1), (w, "2")),
        ((v, 1), (vgen("x"), 1)),
        ((vgen("x"), -1),),
        ((v, half), (w, half)),
        ((v, half), (w, half), (vgen("x"), 1)),
    ]
    good = single("v")
    for terms in malformed:
        bad = MonoidElement(terms)
        with pytest.raises(EngineError) as want:
            _vec(bad, p.index())
        for call in (lambda: equal(p, bad, good), lambda: equal(p, good, bad), lambda: normal_form(completed_system(p), bad)):
            with pytest.raises(EngineError) as got:
                call()
            assert type(got.value) is EngineError and str(got.value) == str(want.value)
    # the last element's degree passes int64 before its foreign generator is
    # read; the error names the degree of the terms read so far
    assert str(want.value) == f"element of total degree {2 * half} exceeds the int64 range"


def test_equal_checks_a_budget_against_the_kept_system():
    import dataclasses
    import random

    from acceptance_support import mixed_corpus
    from graphmonoid.engine import DEFAULT_BUDGET

    p = presentation_of(mixed_corpus(random.Random(0))[19])
    rs = completed_system(p)
    need = rs.spairs_processed
    x = single(p.alphabet[0].vertex)
    for budget in range(need):
        with pytest.raises(BudgetExceededError) as err:
            equal(p, x, x, budget=budget)
        assert (err.value.processed, err.value.budget) == (budget + 1, budget)
    assert equal(p, x, x, budget=need) and equal(p, x, x)
    # with no budget, a kept system past the default budget raises as completed_system does
    p.__dict__["_completed_system"] = dataclasses.replace(rs, spairs_processed=DEFAULT_BUDGET + 1)
    with pytest.raises(BudgetExceededError) as err:
        equal(p, x, x)
    assert (err.value.processed, err.value.budget) == (DEFAULT_BUDGET + 1, DEFAULT_BUDGET)


def test_normal_form_reduces_only_when_there_are_completed_rules(monkeypatch):
    import random

    from acceptance_support import mixed_corpus
    from graphmonoid import engine, kernels

    calls = []
    reduce = kernels.reduce
    monkeypatch.setattr(engine.kernels, "reduce", lambda *a: calls.append(1) or reduce(*a))
    bare = completed_system(presentation_of(emitter_to_sink(2)))
    assert bare._completed_rules == () and bare.eliminated
    x = 3 * single("v") + single("w")
    vector = _read_reference(bare, x)[0]
    assert normal_form(bare, x) == MonoidElement.from_counts(dict(zip(bare.presentation.alphabet, vector)))
    assert calls == []
    p = presentation_of(mixed_corpus(random.Random(0))[19])
    rs = completed_system(p)
    assert rs._completed_rules
    calls.clear()  # completion reduces too
    y = MonoidElement.from_counts({gen: 2 for gen in p.alphabet})
    vector = reduce(_read_reference(rs, y)[0], rs._completed_rules)
    assert normal_form(rs, y) == MonoidElement.from_counts(dict(zip(p.alphabet, vector)))
    assert calls == [1]
