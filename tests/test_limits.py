import random
import re

import numpy as np
import pytest

from graphmonoid import kernels
from graphmonoid.engine import EngineError, completed_system, elements_up_to_degree, equal
from graphmonoid.graphs import EdgeIndexDescriptor, Graph, materialize_edges
from graphmonoid.limits import (
    ContinuityReport,
    GraphChain,
    GraphMorphism,
    LimitElement,
    MonoidChain,
    MorphismError,
    check_continuity,
    colimit_graph,
    colimit_monoid,
    compose,
    identity_morphism,
    induced_monoid_morphism,
    is_ck_morphism,
    monoid_chain,
    structural_violations,
    universal_map,
)
from graphmonoid.presentation import (
    MonoidElement,
    Presentation,
    PresentationError,
    apply_generator_map,
    elem_sum,
    presentation_of,
    sgen,
    vgen,
)

from conftest import diamond, emitter_to_sink, single_edge, single_sink


def single(v):
    return MonoidElement.single(vgen(v))


def inclusion(small: Graph, big: Graph) -> GraphMorphism:
    return GraphMorphism.build(
        small, big, {v: v for v in small.vertices}, {e.id: e.id for e in small.edges}
    )


def emitter_chain(counts=(1, 2, 3)):
    graphs = [emitter_to_sink(k) for k in counts]
    steps = [inclusion(graphs[i], graphs[i + 1]) for i in range(len(graphs) - 1)]
    return GraphChain.build(graphs, steps)


def test_identity_is_ck():
    for g in (single_sink(), diamond(), emitter_to_sink(2)):
        assert is_ck_morphism(identity_morphism(g)).ok


def test_out_edge_bijection_violation():
    small = single_edge()
    big = Graph.build(["v", "w", "z"], [("e", "v", "w"), ("x", "v", "z")])
    m = inclusion(small, big)
    report = is_ck_morphism(m)
    assert not report.ok
    assert any("biject" in v for v in report.violations)


def test_materializing_inclusion_is_ck():
    e2, e3 = emitter_to_sink(2), emitter_to_sink(3)
    assert is_ck_morphism(inclusion(e2, e3)).ok


def test_emitter_must_map_to_emitter():
    e1 = emitter_to_sink(1)
    plain = Graph.build(["v", "w"], [("e0", "v", "w")])
    report = is_ck_morphism(GraphMorphism.build(e1, plain, {"v": "v", "w": "w"}, {"e0": "e0"}))
    assert not report.ok
    assert any("emitter" in v for v in report.violations)


def test_structural_invalidity_raises():
    m = GraphMorphism.build(single_edge(), single_sink(), {"v": "v"}, {})
    assert structural_violations(m)
    with pytest.raises(MorphismError):
        is_ck_morphism(m)


def test_composition_of_ck_is_ck():
    chain = emitter_chain()
    composed = compose(chain.steps[1], chain.steps[0])
    assert is_ck_morphism(composed).ok
    assert composed.vertex_map()["v"] == "v" and composed.edge_map()["e0"] == "e0"


def test_induced_map_identity():
    g = emitter_to_sink(2)
    gen_map = induced_monoid_morphism(identity_morphism(g))
    for gen, img in gen_map.items():
        assert img == MonoidElement.single(gen)


def test_induced_map_sends_relations_to_equalities():
    e2, e3 = emitter_to_sink(2), emitter_to_sink(3)
    gen_map = induced_monoid_morphism(inclusion(e2, e3))
    target = presentation_of(e3)
    for lhs, rhs in presentation_of(e2).relations:
        assert equal(target, apply_generator_map(gen_map, lhs), apply_generator_map(gen_map, rhs))


def test_induced_map_refuses_non_ck():
    small = single_edge()
    big = Graph.build(["v", "w", "z"], [("e", "v", "w"), ("x", "v", "z")])
    with pytest.raises(MorphismError):
        induced_monoid_morphism(inclusion(small, big))


def test_colimit_of_chain_is_top():
    chain = emitter_chain()
    result = colimit_graph(chain)
    assert result.graph == chain.graphs[-1]
    assert len(result.injections) == 3
    assert result.injections[-1] == identity_morphism(chain.graphs[-1])
    for inj in result.injections:
        assert is_ck_morphism(inj).ok


def test_colimit_single_object():
    chain = GraphChain.build([diamond()], [])
    assert colimit_graph(chain).graph == diamond()


def test_colimit_identity_chain():
    g = emitter_to_sink(1)
    chain = GraphChain.build([g, g], [identity_morphism(g)])
    assert colimit_graph(chain).graph == g


def test_colimit_rejects_non_ck_chain():
    small = single_edge()
    big = Graph.build(["v", "w", "z"], [("e", "v", "w"), ("x", "v", "z")])
    chain = GraphChain.build([small, big], [inclusion(small, big)])
    with pytest.raises(MorphismError):
        colimit_graph(chain)


def test_limit_element_equivalences():
    chain = monoid_chain(emitter_chain())
    limit = colimit_monoid(chain)
    g1 = emitter_to_sink(1)
    s0 = MonoidElement.single(sgen(g1, "v", ["e0"]))
    a = limit.inject(0, s0)
    b = limit.inject(1, s0)
    assert limit.equivalent(a, b)  # same image upstairs
    assert limit.equivalent(limit.inject(0, MonoidElement()), limit.inject(2, MonoidElement()))
    assert not limit.equivalent(limit.inject(0, single("v")), limit.inject(0, MonoidElement()))


def test_limit_equivalence_is_transitive_across_levels():
    chain = monoid_chain(emitter_chain())
    limit = colimit_monoid(chain)
    g1, g2, g3 = (emitter_to_sink(k) for k in (1, 2, 3))
    aw = single("w")
    # three representatives of one class, one per level
    a = limit.inject(0, MonoidElement.single(sgen(g1, "v", ["e0"])) + aw)
    b = limit.inject(1, MonoidElement.single(sgen(g2, "v", ["e1"])) + aw)
    c = limit.inject(2, MonoidElement.single(sgen(g3, "v", ["e2"])) + aw)
    assert limit.equivalent(a, b) and limit.equivalent(b, c) and limit.equivalent(a, c)
    assert limit.equivalent(a, a)


def test_limit_element_addition():
    chain = monoid_chain(emitter_chain())
    limit = colimit_monoid(chain)
    a = limit.inject(0, single("w"))
    b = limit.inject(2, single("w"))
    total = limit.add(a, b)
    assert total.level == 2
    assert total.element == 2 * single("w")


def test_inject_checks_the_level():
    limit = colimit_monoid(monoid_chain(emitter_chain()))
    assert limit.inject(2, single("w")).level == 2
    for level in (-1, 3, 10):
        with pytest.raises(MorphismError, match=f"level {level} is not a chain level"):
            limit.inject(level, single("w"))


def test_levels_that_are_not_ints_are_refused():
    # a bool or a float is no chain level, even where it compares as one
    graphs = emitter_chain((1, 2))
    chain = monoid_chain(graphs)
    limit = colimit_monoid(chain)
    p = chain.presentations[1]
    ident = {gen: MonoidElement.single(gen) for gen in p.alphabet}
    u = universal_map(limit, p, [chain.steps[0].as_dict(), ident])
    x = single("w")
    for level in (True, False, 1.0, 0.0, 0.5):
        refused = (
            lambda: limit.inject(level, x),
            lambda: limit.to_top(LimitElement(level, x)),
            lambda: limit.add(LimitElement(level, x), LimitElement(1, x)),
            lambda: chain.map_up(0, level, x),
            lambda: chain.map_up(level, 1, x),
            lambda: graphs.morphism(0, level),
            lambda: graphs.morphism(level, 1),
            lambda: u(LimitElement(level, x)),
        )
        for call in refused:
            with pytest.raises(MorphismError, match=re.escape(str(level))):
                call()
    assert limit.inject(1, x).level == 1 and chain.map_up(0, 1, x) == x and u(LimitElement(1, x)) == x


def test_limit_rejects_foreign_generators():
    limit = colimit_monoid(monoid_chain(emitter_chain()))
    g3 = emitter_to_sink(3)
    s2 = MonoidElement.single(sgen(g3, "v", ["e2"]))
    with pytest.raises(MorphismError):
        limit.inject(0, s2)  # e2 does not exist at level 0


def test_universal_map_constant_system():
    g = diamond()
    p = presentation_of(g)
    ident = {gen: MonoidElement.single(gen) for gen in p.alphabet}
    chain = MonoidChain.build([p, p], [ident])
    limit = colimit_monoid(chain)
    psi = universal_map(limit, p, [ident, ident])
    x = single("v") + single("u")
    assert psi(limit.inject(0, x)) == x
    assert psi(limit.inject(1, x)) == x


def test_universal_map_factors_injections():
    graph_chain = emitter_chain()
    chain = monoid_chain(graph_chain)
    limit = colimit_monoid(chain)
    top_p = chain.presentations[-1]
    maps = [
        induced_monoid_morphism(graph_chain.morphism(i, len(graph_chain) - 1))
        for i in range(len(graph_chain))
    ]
    psi = universal_map(limit, top_p, maps)
    # psi . mu_{i,infty} agrees with the directly induced map on every generator
    for i, p_i in enumerate(chain.presentations):
        for gen in p_i.alphabet:
            le = limit.inject(i, MonoidElement.single(gen))
            assert psi(le) == maps[i][gen]


def _per_term(mapping, x):
    """The additive extension as a sum of per-term products, the reference."""
    return elem_sum(mapping[gen] * mult for gen, mult in x.terms)


def test_limit_maps_match_a_sum_of_per_term_products():
    rng = random.Random(17)
    chain = monoid_chain(emitter_chain((1, 2, 3, 4)))
    limit = colimit_monoid(chain)
    top = len(chain) - 1
    targets = [vgen(f"t{i}") for i in range(5)]
    target = Presentation(tuple(targets), ())
    # a seeded map on the top level, pulled back along the chain: a compatible family
    h = {
        gen: MonoidElement.from_counts({rng.choice(targets): rng.randint(1, 2**20) for _ in range(3)})
        for gen in chain.presentations[top].alphabet
    }

    def up(i, j, x):
        for k in range(i, j):
            x = _per_term(chain.step_map(k), x)
        return x

    maps = [
        {gen: _per_term(h, up(i, top, MonoidElement.single(gen))) for gen in p.alphabet}
        for i, p in enumerate(chain.presentations)
    ]
    u = universal_map(limit, target, maps)
    for i, p in enumerate(chain.presentations):
        for _ in range(25):
            x = MonoidElement.from_counts(
                {rng.choice(p.alphabet): rng.randint(1, 2**40) for _ in range(rng.randint(0, 4))}
            )
            for j in range(i, len(chain)):
                assert chain.map_up(i, j, x) == up(i, j, x)
            assert u(limit.inject(i, x)) == _per_term(maps[i], x) == _per_term(h, up(i, top, x))
    unmapped = single("nope")
    with pytest.raises(PresentationError):
        chain.map_up(0, 1, unmapped)
    with pytest.raises(PresentationError):
        u(LimitElement(0, unmapped))
    partial = [dict(m) for m in maps]
    del partial[0][chain.presentations[0].alphabet[0]]
    with pytest.raises(PresentationError):
        universal_map(limit, target, partial)


def test_universal_map_rejects_incompatible_family():
    g = Graph.build(["u", "w"])  # two separate sinks: a_u and a_w never merge
    p = presentation_of(g)
    ident = {gen: MonoidElement.single(gen) for gen in p.alphabet}
    collapse = {vgen("u"): single("u"), vgen("w"): single("u")}
    chain = MonoidChain.build([p, p], [ident])
    limit = colimit_monoid(chain)
    with pytest.raises(MorphismError) as err:
        universal_map(limit, p, [ident, collapse])
    assert "a(w)" in str(err.value)


def test_monoid_chain_rejects_incoherent_maps():
    p = presentation_of(single_edge())
    with pytest.raises(MorphismError):
        MonoidChain.build([p, p], [{}])


def test_chain_and_family_maps_refuse_images_outside_their_codomain():
    chain = monoid_chain(emitter_chain((1, 2)))
    p0, p1 = chain.presentations
    step = chain.step_map(0)
    gen = p0.alphabet[0]
    # an image outside the next level names the level and the generator
    with pytest.raises(MorphismError) as err:
        MonoidChain.build([p0, p1], [{**step, gen: single("elsewhere")}])
    assert "level 1" in str(err.value) and str(gen) in str(err.value)
    # so does an extra key, outside level 0, whose image lies outside level 1
    extra = {**step, vgen("nope"): single("elsewhere")}
    with pytest.raises(MorphismError) as err:
        MonoidChain.build([p0, p1], [extra])
    assert "level 1" in str(err.value) and "a(nope)" in str(err.value)
    # in a family of maps into the top, the same extra key is refused too
    limit = colimit_monoid(chain)
    ident = {g: MonoidElement.single(g) for g in p1.alphabet}
    assert universal_map(limit, p1, [step, ident])(limit.inject(0, MonoidElement.single(gen))) == step[gen]
    with pytest.raises(PresentationError, match=r"a\(nope\)"):
        universal_map(limit, p1, [extra, ident])
    # a compiled map is taken only over the alphabets of its levels
    with pytest.raises(MorphismError, match="other alphabets"):
        MonoidChain.build([p1, p1], [chain.steps[0]])


def test_chain_and_family_maps_refuse_keys_outside_their_level():
    # an extra key whose image does lie in the codomain: map_up and to_top
    # would otherwise apply it to an element that is not of its level
    chain = monoid_chain(emitter_chain((1, 2)))
    p0, p1 = chain.presentations
    extra = {**chain.step_map(0), vgen("nope"): single("w")}
    with pytest.raises(MorphismError) as err:
        MonoidChain.build([p0, p1], [extra])
    assert "level 1" in str(err.value) and "a(nope) outside the map's domain" in str(err.value)
    limit = colimit_monoid(chain)
    ident = {g: MonoidElement.single(g) for g in p1.alphabet}
    with pytest.raises(PresentationError, match=r"a\(nope\) outside the map's domain"):
        universal_map(limit, p1, [extra, ident])
    # the chain as built refuses the generator when it is applied
    for apply in (lambda x: chain.map_up(0, 1, x), lambda x: limit.to_top(LimitElement(0, x))):
        with pytest.raises(PresentationError):
            apply(single("nope"))


def test_universal_map_refuses_levels_outside_the_chain():
    p = presentation_of(diamond())
    ident = {gen: MonoidElement.single(gen) for gen in p.alphabet}
    limit = colimit_monoid(MonoidChain.build([p, p], [ident]))
    u = universal_map(limit, p, [ident, ident])
    for level in (-1, 2):
        a = LimitElement(level, single("v"))
        with pytest.raises(MorphismError, match=rf"level {level} is not a chain level \(0 to 1\)"):
            u(a)
        with pytest.raises(MorphismError):
            limit.to_top(a)


def test_induced_map_refuses_generators_outside_its_source():
    from graphmonoid.limits import _induced_map

    mu = _induced_map(emitter_chain((1, 2)).morphism(0, 1))
    for gen in (vgen("nope"), sgen(emitter_to_sink(2), "v", ["e1"])):
        with pytest.raises(PresentationError, match="outside the map's domain"):
            mu(MonoidElement.single(gen))


def test_continuity_on_materializing_chain():
    report = check_continuity(emitter_chain(), degree=2)
    assert report.ok, (report.mismatches, report.uncovered_generators)
    assert report.levels == 3


def test_continuity_rejects_negative_degree():
    # a negative degree is invalid input, not a sample of the zero element alone
    with pytest.raises(EngineError, match="degree"):
        elements_up_to_degree(3, -1)
    g = emitter_to_sink(2)
    with pytest.raises(EngineError, match="degree"):
        check_continuity(GraphChain.build([g], []), degree=-1)
    assert "_completed_system" not in vars(presentation_of(g))  # refused before any completion
    assert elements_up_to_degree(3, 0).tolist() == [[0, 0, 0]]


@pytest.mark.parametrize("size", [2.5, True, "2"])
def test_a_size_that_is_not_an_int_is_refused(size):
    # bools included, as the budget is: True is no count of 1
    from graphmonoid.desingularize import desingularize
    from graphmonoid.engine import bfs_reach
    from graphmonoid.graphs import GraphError

    g = emitter_to_sink(2)
    bare = Graph.build(["v"], [], {"v": (EdgeIndexDescriptor((), ("v",)), [])})
    x = MonoidElement.single(vgen("v"))
    p = presentation_of(g)
    for error, text, call in (
        (GraphError, f"truncation level {size!r} is not an int", lambda: desingularize(g, size)),
        (GraphError, f"edge count {size!r} is not an int", lambda: materialize_edges(bare, "v", size)),
        (EngineError, f"depth {size!r} and max_size None must be ints", lambda: bfs_reach(p, x, size)),
        (EngineError, f"depth 2 and max_size {size!r} must be ints", lambda: bfs_reach(p, x, 2, size)),
        (EngineError, f"degree {size!r} is not an int", lambda: check_continuity(GraphChain.build([g], []), degree=size)),
    ):
        with pytest.raises(error, match=re.escape(text)):
            call()


def test_continuity_example_pair():
    # a level-2 pair merged by the exchange relations: a_{v,{e0}}+a_w vs a_{v,{e1}}+a_w
    chain = emitter_chain()
    g2 = chain.graphs[1]
    p2 = presentation_of(g2)
    top = chain.graphs[-1]
    ptop = presentation_of(top)
    x = MonoidElement.single(sgen(g2, "v", ["e0"])) + single("w")
    y = MonoidElement.single(sgen(g2, "v", ["e1"])) + single("w")
    assert equal(p2, x, y)
    gen_map = induced_monoid_morphism(chain.morphism(1, 2))
    assert equal(ptop, apply_generator_map(gen_map, x), apply_generator_map(gen_map, y))


def test_continuity_distinct_sinks_stay_distinct():
    g = Graph.build(["u", "w"])
    chain = GraphChain.build([g, g], [identity_morphism(g)])
    report = check_continuity(chain, degree=3)
    assert report.ok
    p = presentation_of(g)
    assert not equal(p, single("u"), single("w"))


def test_continuity_reports_uncovered_generators_of_strict_extension():
    e2, e3 = emitter_to_sink(2), emitter_to_sink(3)
    chain = GraphChain.build([e2], [])
    report = check_continuity(chain, into_top=inclusion(e2, e3), degree=2)
    assert not report.ok
    assert not report.mismatches  # equality still coincides
    assert any("e2" in name for name in report.uncovered_generators)


def test_continuity_tolerates_levelwise_merges():
    # with edges ranging back into the emitter, materializing a second edge
    # collapses a_{v,{e0}} with 2 a_{v,{e0}}; that is a property of the
    # monoids, not a continuity failure, and is reported as a merge count
    from graphmonoid.graphs import EdgeIndexDescriptor, materialize_edges

    base = Graph.build(["v"], [], {"v": (EdgeIndexDescriptor((), ("v",)), [])})
    graphs = [materialize_edges(base, "v", k) for k in (1, 2)]
    chain = GraphChain.build(graphs, [inclusion(graphs[0], graphs[1])])
    g1 = graphs[0]
    p1, p2 = presentation_of(graphs[0]), presentation_of(graphs[1])
    s0 = MonoidElement.single(sgen(g1, "v", ["e0^v"]))
    assert not equal(p1, s0, 2 * s0)
    gen_map = induced_monoid_morphism(chain.steps[0])
    assert equal(p2, apply_generator_map(gen_map, s0), apply_generator_map(gen_map, 2 * s0))
    report = check_continuity(chain, degree=2)
    assert report.ok, report.mismatches
    assert report.merged_classes[0] > 0


def _self_loop_emitter(k):
    base = Graph.build(["v"], [], {"v": (EdgeIndexDescriptor((), ("v",)), [])})
    return materialize_edges(base, "v", k)


def test_continuity_reports_a_merge_in_the_top_graph():
    # materializing a second edge of a self-loop emitter merges classes that
    # the one-level chain keeps apart; the report names the first pair found
    g1, g2 = _self_loop_emitter(1), _self_loop_emitter(2)
    chain = GraphChain.build([g1], [])
    report = check_continuity(chain, into_top=inclusion(g1, g2), degree=2)
    assert not report.ok
    assert report.mismatches == (
        "level 0: elements #2 and #5 have equal images in the top graph but differ in the limit",
    )
    assert report.merged_classes == (0,)
    assert report.sample_sizes == (6,)
    report = check_continuity(chain, into_top=inclusion(g1, g2), degree=3)
    assert report.mismatches == (
        "level 0: elements #2 and #5 have equal images in the top graph but differ in the limit",
        "level 0: elements #2 and #9 have equal images in the top graph but differ in the limit",
    )
    assert report.merged_classes == (0,)


def test_continuity_checks_each_composite_into_the_top_for_ck():
    # v -> w, then v an emitter with e materialized, then with e and e1: each
    # map is CK, but the composite sends the regular v to an emitter with
    # two out-edges, so it is not
    desc = EdgeIndexDescriptor((), ("w",))
    plain = Graph.build(["v", "w"], [("e", "v", "w")])
    one = Graph.build(["v", "w"], [("e", "v", "w")], {"v": (desc, ["e"])})
    two = Graph.build(["v", "w"], [("e", "v", "w"), ("e1", "v", "w")], {"v": (desc, ["e", "e1"])})
    chain = GraphChain.build([plain, one], [inclusion(plain, one)])
    assert is_ck_morphism(chain.steps[0]).ok and is_ck_morphism(inclusion(one, two)).ok
    with pytest.raises(MorphismError, match="not a CK-morphism: out-edges of regular vertex 'v' do not biject"):
        check_continuity(chain, into_top=inclusion(one, two), degree=1)


# -- check_continuity against the batch reducer ------------------------------

def _reference_generator_matrix(mapping, dom, cod):
    cod_index = cod.index()
    rows = []
    for gen in dom.alphabet:
        row = [0] * len(cod.alphabet)
        for tgen, mult in mapping[gen].terms:
            row[cod_index[tgen]] += mult
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(cod.alphabet))


def _reference_first_rows(nf):
    first = {}
    return [first.setdefault(row.tobytes(), r) for r, row in enumerate(nf)]


def _reference_check_continuity(chain, into_top=None, degree=2, budget=None):
    """check_continuity as it was on the batch reducer nf_batch, with the top partition always computed."""
    colimit = colimit_graph(chain)
    last = len(chain) - 1
    if into_top is None:
        into_top = identity_morphism(chain.graphs[last])
    elif into_top.source != chain.graphs[last]:
        raise MorphismError("into_top must start at the chain's top graph")
    report = is_ck_morphism(into_top)
    if not report.ok:
        raise MorphismError("into_top is not CK: " + "; ".join(report.violations))

    top_graph = into_top.target
    top_p = presentation_of(top_graph)
    top_rs = completed_system(top_p, budget)
    mid_p = top_p if top_graph == chain.graphs[last] else presentation_of(chain.graphs[last])
    mid_rs = completed_system(mid_p, budget)
    mismatches, sizes, merges, covered = [], [], [], set()
    for i, (g, to_last) in enumerate(zip(chain.graphs, colimit.injections)):
        p_i = mid_p if i == last else presentation_of(g)
        rs_i = completed_system(p_i, budget)
        mu_i = induced_monoid_morphism(to_last)
        phi_i = induced_monoid_morphism(compose(into_top, to_last))
        covered.update(img.support()[0] for img in phi_i.values())
        sample = elements_up_to_degree(len(p_i.alphabet), degree)
        sizes.append(sample.shape[0])
        mid_images = sample @ _reference_generator_matrix(mu_i, p_i, mid_p)
        top_images = sample @ _reference_generator_matrix(phi_i, p_i, top_p)
        here = _reference_first_rows(kernels.nf_batch(sample, rs_i.lhs, rs_i.rhs))
        mid = _reference_first_rows(kernels.nf_batch(mid_images, mid_rs.lhs, mid_rs.rhs))
        top = _reference_first_rows(kernels.nf_batch(top_images, top_rs.lhs, top_rs.rhs))
        checks = (
            (here, top, "are equal at the level but their images differ in the top graph"),
            (mid, top, "are equal in the limit but their images differ in the top graph"),
            (top, mid, "have equal images in the top graph but differ in the limit"),
        )
        for row in range(len(here)):
            for first, other, text in checks:
                if other[first[row]] != other[row]:
                    mismatches.append(f"level {i}: elements #{first[row]} and #{row} {text}")
        merges.append(len(set(here)) - len(set(mid)))

    uncovered = tuple(str(gen) for gen in top_p.alphabet if gen not in covered)
    return ContinuityReport(
        ok=not mismatches and not uncovered,
        levels=len(chain),
        sample_sizes=tuple(sizes),
        mismatches=tuple(mismatches),
        uncovered_generators=uncovered,
        merged_classes=tuple(merges),
    )


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except (EngineError, MorphismError) as exc:
        return type(exc).__name__, str(exc)


def _continuity_cases():
    from acceptance_support import chain_corpus, mixed_corpus

    cases = [(name, chain, None) for name, chain in chain_corpus()]
    e2, e3 = emitter_to_sink(2), emitter_to_sink(3)
    g1, g2 = _self_loop_emitter(1), _self_loop_emitter(2)
    desc = EdgeIndexDescriptor((), ("w",))
    plain = Graph.build(["v", "w"], [("e", "v", "w")])
    one = Graph.build(["v", "w"], [("e", "v", "w")], {"v": (desc, ["e"])})
    two = Graph.build(["v", "w"], [("e", "v", "w"), ("e1", "v", "w")], {"v": (desc, ["e", "e1"])})
    sinks = Graph.build(["u", "w"])
    empty = Graph.build([])
    # the Tietze pass leaves this graph 9 S-pairs: budgets 0, 1 and 3 run out
    spairs = mixed_corpus(random.Random(0))[15]
    cases += [
        ("strict extension", GraphChain.build([e2], []), inclusion(e2, e3)),
        ("merge in the top graph", GraphChain.build([g1], []), inclusion(g1, g2)),
        ("composite not CK", GraphChain.build([plain, one], [inclusion(plain, one)]), inclusion(one, two)),
        ("materializing", emitter_chain(), None),
        ("distinct sinks", GraphChain.build([sinks, sinks], [identity_morphism(sinks)]), None),
        ("levelwise merges", GraphChain.build([g1, g2], [inclusion(g1, g2)]), None),
        ("one level", GraphChain.build([e2], []), None),
        ("no generators", GraphChain.build([empty, empty], [identity_morphism(empty)]), None),
        ("no generators, into itself", GraphChain.build([empty], []), identity_morphism(empty)),
        ("needs S-pairs", GraphChain.build([spairs], []), None),
    ]
    return cases


def test_continuity_matches_the_batch_reference():
    seen = set()
    for name, chain, into_top in _continuity_cases():
        for degree in range(4):
            for budget in (None, 0, 1, 3, 10, 30):
                got = _outcome(check_continuity, chain, into_top, degree, budget)
                want = _outcome(_reference_check_continuity, chain, into_top, degree, budget)
                assert got == want, (name, degree, budget)
                seen.add(type(got).__name__ if isinstance(got, ContinuityReport) else got[0])
    # the cases reach reports, budget errors and CK errors
    assert seen == {"ContinuityReport", "BudgetExceededError", "MorphismError"}


def _drawn_chains(seed: int, count: int):
    """Seeded chains that materialize one more edge of an emitter per level, on mixed graphs."""
    from acceptance_support import materializing_chain, random_mixed_graph

    rng = random.Random(seed)
    chains = []
    while len(chains) < count:
        g = random_mixed_graph(rng, rng.randint(2, 4), max_mat=2)
        if g.emitters:
            v, _, mat = g.emitters[rng.randrange(len(g.emitters))]
            chains.append(materializing_chain(g, v, range(len(mat), len(mat) + rng.randint(2, 3))))
    return chains


def test_sparse_continuity_sample_matches_the_dense_reference(monkeypatch):
    # the degree <= d sample as column combinations, pushed through the maps'
    # column images, against exponent_vectors rows pushed by GeneratorMap.vector
    from graphmonoid import limits
    from graphmonoid.engine import exponent_vectors

    cases = [(chain, into_top) for _, chain, into_top in _continuity_cases()]
    cases += [(chain, None) for chain in _drawn_chains(23, 8)]
    for degree in range(4):
        for n in range(5):
            rows = [[combo.count(c) for c in range(n)] for combo in limits._sample(n, degree)]
            assert rows == list(exponent_vectors(n, degree))
    for chain, _ in cases:
        for g, to_last in zip(chain.graphs, colimit_graph(chain).injections):
            for f in (limits._induced_map(to_last), completed_system(presentation_of(g))._definitions):
                n = len(f.domain)
                assert list(limits._pushed(f, limits._sample(n, 2))) == list(map(f.vector, exponent_vectors(n, 2)))

    def outcomes():
        return [_outcome(check_continuity, chain, into_top, degree) for chain, into_top in cases for degree in (-1, 0, 2, 3)]

    sparse = outcomes()
    with monkeypatch.context() as m:
        m.setattr(limits, "_sample", lambda n, degree: list(exponent_vectors(n, degree)))
        m.setattr(limits, "_pushed", lambda f, sample: map(f.vector, sample))
        assert outcomes() == sparse
    # negative degrees keep their error; the cases reach mismatches and merged classes
    assert ("EngineError", "degree must be >= 0, got -1") in sparse
    reports = [r for r in sparse if isinstance(r, ContinuityReport)]
    assert any(r.mismatches for r in reports) and any(any(r.merged_classes) for r in reports)


def test_continuity_reduces_each_vector_once_per_system(monkeypatch):
    # every sample is pushed and read through the definitions of the system
    # it is reduced in, by one compiled map, and then reduced once by that
    # system's completed rules: no eliminated generator is left in it
    from acceptance_support import chain_corpus
    from graphmonoid.presentation import presentation_of

    reduce = kernels.reduce
    calls: list[tuple[int, tuple[int, ...]]] = []

    def counted(x, rules, trace=None):
        calls.append((id(rules), tuple(x)))
        return reduce(x, rules, trace)

    for name, chain in chain_corpus():
        want = check_continuity(chain, degree=3)  # completes the systems outside the count
        # systems by their completed rules (systems without any share the empty tuple)
        systems: dict[int, list] = {}
        for g in chain.graphs:
            rs = completed_system(presentation_of(g))
            systems.setdefault(id(rs._completed_rules), []).append(rs)
        calls.clear()
        monkeypatch.setattr(kernels, "reduce", counted)
        assert check_continuity(chain, degree=3) == want
        monkeypatch.setattr(kernels, "reduce", reduce)
        assert calls and len(calls) == len(set(calls)), name
        assert any(rs.eliminated for group in systems.values() for rs in group), name
        for rules, x in calls:
            assert any(
                len(x) == len(rs.presentation.alphabet) and not any(x[c] for c in rs.eliminated) for rs in systems[rules]
            ), name


def _owned(x, alphabet) -> bool:
    ids = {id(gen) for gen in alphabet}
    return all(id(gen) in ids for gen in x.support())


def test_induced_and_chain_maps_are_compiled_over_the_alphabets():
    from acceptance_support import chain_corpus
    from graphmonoid.limits import _induced_map
    from graphmonoid.presentation import generators

    rng = random.Random(8)
    checked = 0
    for name, chain in [*chain_corpus(), ("emitters", emitter_chain((1, 2, 3, 4)))]:
        top = len(chain) - 1
        mc = monoid_chain(chain)
        for i, g in enumerate(chain.graphs):
            m = chain.morphism(i, top)
            images = induced_monoid_morphism(m)
            source, target = generators(g), generators(chain.graphs[top])
            assert list(images) == list(source) and all(a is b for a, b in zip(images, source))
            assert all(_owned(img, target) for img in images.values())
            mu = _induced_map(m)
            for _ in range(10):
                x = MonoidElement.from_counts({rng.choice(source): rng.randint(1, 2**20) for _ in range(rng.randint(1, 4))})
                want = apply_generator_map(images, x)
                assert mu(x) == want == mc.map_up(i, top, x) and _owned(mu(x), target)
                assert _owned(mc.map_up(i, top, x), mc.presentations[top].alphabet)
                index = {gen: c for c, gen in enumerate(source)}
                v = [0] * len(source)
                for gen, k in x.terms:
                    v[index[gen]] = k
                assert mu.vector(v) == [want.exponent(gen) for gen in target]
                checked += 1
        for k in range(top):
            step = mc.step_map(k)
            assert all(_owned(img, mc.presentations[k + 1].alphabet) for img in step.values())
            # the compiled map itself, every column read when the chain was built
            f = mc.steps[k]
            assert f.domain is mc.presentations[k].alphabet and f.codomain is mc.presentations[k + 1].alphabet
            assert None not in f._columns
        assert mc != monoid_chain(chain) and mc == mc  # chains compare by identity
    assert checked > 50


def test_universal_map_refuses_an_image_outside_the_target():
    p = presentation_of(single_sink())
    ident = {gen: MonoidElement.single(gen) for gen in p.alphabet}
    chain = MonoidChain.build([p, p], [ident])
    limit = colimit_monoid(chain)
    outside = {gen: single("elsewhere") for gen in p.alphabet}
    with pytest.raises(PresentationError):
        universal_map(limit, p, [outside, ident])
