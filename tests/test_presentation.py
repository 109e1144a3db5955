import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphmonoid.graphs import GraphError
from graphmonoid.presentation import (
    Generator,
    MonoidElement,
    PresentationError,
    ZERO,
    apply_generator_map,
    elem_sum,
    element_from_json,
    element_to_json,
    generators,
    relations,
    sgen,
    vgen,
)

from conftest import diamond, emitter_to_sink, single_edge, single_sink


def single(v):
    return MonoidElement.single(vgen(v))


def test_generators_single_sink():
    assert generators(single_sink()) == (vgen("v"),)


def test_generators_emitter_subset_count():
    g = emitter_to_sink(3)
    gens = generators(g)
    cofinite = [x for x in gens if x.is_cofinite]
    assert len(cofinite) == 2**3 - 1
    assert set(x for x in gens if not x.is_cofinite) == {vgen("v"), vgen("w")}


def test_generators_regular_edge():
    assert generators(single_edge()) == (vgen("v"), vgen("w"))


def test_generators_reject_invalid_graph():
    from graphmonoid.graphs import Graph

    with pytest.raises(GraphError):
        generators(Graph.build(["v"], [("e", "v", "gone")]))


def test_relation_regular_vertex():
    g = diamond()
    rels = relations(g)
    assert (single("v"), single("w1") + single("w2")) in rels


def test_relation_emitter_r2():
    g = emitter_to_sink(2)
    s = MonoidElement.single(sgen(g, "v", ["e0", "e1"]))
    assert (s + 2 * single("w"), single("v")) in relations(g)


def test_relations_sink_empty():
    assert relations(single_sink()) == ()


def test_relation_counts_for_emitter():
    g = emitter_to_sink(2)
    rels = relations(g)
    n_subsets = 2**2 - 1
    assert len(rels) == n_subsets + math.comb(n_subsets, 2)


def test_relation_sides_nonzero():
    for g in (diamond(), emitter_to_sink(3)):
        for lhs, rhs in relations(g):
            assert lhs and rhs


def test_elem_add_examples():
    av = single("v")
    assert av + av == 2 * av
    assert av + ZERO == av
    assert (av + single("w")) + single("w") == av + 2 * single("w")


elements = st.dictionaries(
    st.sampled_from([vgen("u"), vgen("v"), vgen("w")]),
    st.integers(min_value=0, max_value=5),
    max_size=3,
).map(MonoidElement.from_counts)


@given(elements, elements)
def test_elem_add_commutative(x, y):
    assert x + y == y + x


@given(elements, elements, elements)
def test_elem_add_associative(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(elements)
def test_zero_is_identity(x):
    assert x + ZERO == x


def test_apply_generator_map_examples():
    av, aw = single("v"), single("w")
    ident = {vgen("v"): av, vgen("w"): aw}
    assert apply_generator_map(ident, av + 2 * aw) == av + 2 * aw
    assert apply_generator_map({vgen("v"): aw}, 3 * av) == 3 * aw
    m = {vgen("v"): single("w1") + single("w2")}
    assert apply_generator_map(m, 2 * av) == 2 * single("w1") + 2 * single("w2")


@given(elements, elements)
def test_apply_generator_map_is_additive(x, y):
    m = {vgen("u"): single("z"), vgen("v"): single("z") + single("w"), vgen("w"): ZERO + single("u")}
    assert apply_generator_map(m, x + y) == apply_generator_map(m, x) + apply_generator_map(m, y)
    assert apply_generator_map(m, ZERO) == ZERO


def test_apply_generator_map_missing_generator():
    with pytest.raises(PresentationError):
        apply_generator_map({}, single("v"))


def test_apply_generator_map_matches_a_sum_of_per_term_products():
    rng = random.Random(5)
    sources = [vgen(f"s{i}") for i in range(8)]
    targets = [vgen(f"t{i}") for i in range(6)] + [Generator("t0", ("e0", "e1"))]
    for _ in range(200):
        mapping = {
            gen: MonoidElement.from_counts(
                {rng.choice(targets): rng.randint(0, 2**20) for _ in range(rng.randint(0, 4))}
            )
            for gen in sources
        }
        x = MonoidElement.from_counts(
            {rng.choice(sources): rng.randint(1, 2**40) for _ in range(rng.randint(0, 5))}
        )
        expected = elem_sum(mapping[gen] * mult for gen, mult in x.terms)
        assert apply_generator_map(mapping, x) == expected
        with pytest.raises(PresentationError, match="outside the map's domain"):
            apply_generator_map(mapping, x + single("unmapped"))


def test_multiplicities_must_be_integers():
    av = vgen("v")
    for bad in (0.4, 1.7, 2.0, True, False, "1", None, np.float64(2.0), np.True_):
        with pytest.raises(PresentationError) as want:
            MonoidElement.from_counts({av: bad})
        with pytest.raises(PresentationError):
            single("v") * bad
        # single builds its term itself, with from_counts' checks and messages
        with pytest.raises(PresentationError) as got:
            MonoidElement.single(av, bad)
        assert str(got.value) == str(want.value)
    for negative in (-1, np.int64(-3), -(2**70)):
        with pytest.raises(PresentationError) as want:
            MonoidElement.from_counts({av: negative})
        with pytest.raises(PresentationError) as got:
            MonoidElement.single(av, negative)
        assert str(got.value) == str(want.value) == "negative multiplicity for a(v)"
    for mult in (0, 1, 2**70, np.uint8(7)):
        x = MonoidElement.single(av, mult)
        assert x == MonoidElement.from_counts({av: mult}) and all(type(m) is int for _, m in x.terms)
    with pytest.raises(PresentationError):
        2.5 * single("v")
    for good in (np.int64(3), np.int32(3), np.uint8(3), 3):
        x = MonoidElement.from_counts({av: good})
        assert x == MonoidElement.single(av, 3) == single("v") * good
        assert type(x.terms[0][1]) is int and type((single("v") * good).terms[0][1]) is int
    assert not MonoidElement.from_counts({av: np.int64(0)})


def test_sgen_sorts_by_edge_index():
    g = emitter_to_sink(3)
    assert sgen(g, "v", ["e2", "e0"]).edges == ("e0", "e2")
    with pytest.raises(GraphError):
        sgen(g, "v", ["nope"])


def test_generator_needs_nonempty_edge_set():
    with pytest.raises(PresentationError):
        Generator("v", ())


def test_element_json_round_trip():
    g = emitter_to_sink(2)
    x = 2 * single("v") + MonoidElement.single(sgen(g, "v", ["e1", "e0"]), 3)
    doc = element_to_json(x)
    assert element_from_json(doc, g) == x
    kinds = [t["gen"]["kind"] for t in doc["terms"]]
    assert kinds == sorted(kinds)  # vertex generators serialize first


def test_element_json_rejects_garbage():
    with pytest.raises(PresentationError):
        element_from_json({"terms": [{"gen": {"kind": "zz"}, "mult": 1}]})


def test_presentation_rejects_unknown_generator_in_relation():
    from graphmonoid.presentation import Presentation

    with pytest.raises(PresentationError):
        Presentation((vgen("v"),), ((single("v"), single("w")),))


def test_presentation_rejects_repeated_generator_in_alphabet():
    # the engine sizes vectors by distinct generators and matrices by alphabet entries
    from graphmonoid.presentation import Presentation

    with pytest.raises(PresentationError, match="twice"):
        Presentation((vgen("v"), vgen("w"), vgen("v")), ((single("v"), single("w")),))


def _owned(x: MonoidElement, alphabet) -> bool:
    """Whether every generator of x is an object of alphabet itself, not an equal copy."""
    ids = {id(gen) for gen in alphabet}
    return all(id(gen) in ids for gen in x.support())


def test_one_generator_object_per_alphabet_entry():
    from acceptance_support import completion_corpus
    from graphmonoid.presentation import presentation_of

    for g in completion_corpus()[::3]:
        alphabet = generators(g)
        assert generators(g) is alphabet
        p = presentation_of(g)
        assert p.alphabet is alphabet and p.rank is None
        assert all(_owned(side, alphabet) for rel in relations(g) for side in rel)
        assert relations(g) == p.relations
        # the sides are the canonical elements, term order included
        assert all(side == MonoidElement.from_counts(side.counts()) for rel in p.relations for side in rel)
        for gen in alphabet:
            x = element_from_json(element_to_json(3 * MonoidElement.single(gen) + MonoidElement.single(alphabet[0])), g)
            assert _owned(x, alphabet) and x == 3 * MonoidElement.single(gen) + MonoidElement.single(alphabet[0])


def test_element_from_json_keeps_a_generator_outside_the_graph():
    # a vertex the graph lacks is read as it stands, as before
    x = element_from_json({"terms": [{"gen": {"kind": "v", "v": "zz"}, "mult": 2}]}, single_edge())
    assert x == 2 * single("zz")
