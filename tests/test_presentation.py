import math
import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphmonoid.engine import completed_system, equal, replay_chain
from graphmonoid.graphs import GraphError, VertexClass, out_edges, vertex_class
from graphmonoid.presentation import (
    Generator,
    MonoidElement,
    Presentation,
    PresentationError,
    ZERO,
    apply_generator_map,
    elem_sum,
    element_from_json,
    element_to_json,
    generator_from_json,
    generator_to_json,
    generators,
    graph_alphabet,
    presentation_of,
    relations,
    sgen,
    vgen,
)

from conftest import diamond, emitter_mixed, emitter_to_sink, single_edge, single_sink
from test_graphs import _any_graphs, _valid_graphs


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
    # the relation at a_v reads a_{v,M} + sum_M a_{r(e)} = a_v; R2 for
    # S = {e0} is not listed, and holds by derivation, with a certificate
    # that replays against the presentation
    g = emitter_to_sink(2)
    p = presentation_of(g)
    s0, top = (MonoidElement.single(sgen(g, "v", ids)) for ids in (["e0"], ["e0", "e1"]))
    lhs = s0 + single("w")
    assert (top + 2 * single("w"), single("v")) in p.relations
    assert (s0, top + single("w")) in p.relations
    assert (lhs, single("v")) not in p.relations
    result = equal(p, lhs, single("v"))
    assert result.equal and replay_chain(p, lhs, result.chain) == single("v")


def test_relations_sink_empty():
    assert relations(single_sink()) == ()


def test_relation_counts_for_emitter():
    # one relation per proper subset S of the materialized edges: 2^k - 1
    for k in range(1, 7):
        assert len(relations(emitter_to_sink(k))) == 2**k - 1
        assert len(relations(emitter_mixed(k))) == 2**k - 1 + 1  # and u's R1


def _full_relations(g):
    """The relations as once listed: R1, an R2 for every non-empty S and an
    R3 for every unordered pair {S, T}, (2^k - 1) * 2^(k-1) per emitter."""
    rels = [
        (single(v), elem_sum(single(e.dst) for e in out_edges(g, v)))
        for v in g.vertices
        if vertex_class(g, v) is VertexClass.REGULAR
    ]
    for v, _, mat in g.emitters:

        def q(sub):
            return MonoidElement.single(Generator(v, sub))

        def ranges(ids):
            return elem_sum(single(g.edge(e).dst) for e in ids)

        subsets = [sub for r in range(1, len(mat) + 1) for sub in combinations(mat, r)]
        rels += [(q(s) + ranges(s), single(v)) for s in subsets]
        for s, t in combinations(subsets, 2):
            rels.append((q(s) + ranges(e for e in s if e not in t), q(t) + ranges(e for e in t if e not in s)))
    return rels


def test_covering_relations_generate_the_full_list():
    # drawn graphs with up to two emitters of up to 5 materialized edges
    from acceptance_support import random_element, random_mixed_graph

    rng = random.Random(21)
    graphs = [emitter_to_sink(5), emitter_mixed(5)]
    graphs += [random_mixed_graph(rng, rng.randint(2, 5), max_mat=5) for _ in range(20)]
    derived = agreed = 0
    for g in graphs:
        p = presentation_of(g)
        full = _full_relations(g)
        # every listed relation is one of the full list, sides in its orientation
        assert set(p.relations) <= set(full)
        # every relation of the full list holds, with a certificate that replays
        for lhs, rhs in full:
            result = equal(p, lhs, rhs)
            assert result.equal and replay_chain(p, lhs, result.chain) == rhs, (lhs, rhs)
            derived += 1
        # drawn pairs, some of them a full relation in a context, get one verdict
        reference = Presentation(p.alphabet, tuple(full))
        pool = [random_element(rng, p.alphabet, 3) for _ in range(8)]
        for _ in range(4):
            x, (lhs, rhs) = random_element(rng, p.alphabet, 2), rng.choice(full)
            pool += [x + lhs, x + rhs]
        for x, y in combinations(pool, 2):
            assert equal(p, x, y).equal == equal(reference, x, y).equal, (x, y)
            agreed += 1
    assert derived > 4000 and agreed == 22 * math.comb(16, 2)


def test_emitter_mixed_12_is_presented_and_completed_at_scale():
    # 4,098 generators: the full list would hold about 8.4 M relations
    g = emitter_mixed(12)
    p = presentation_of(g)
    assert len(p.alphabet) == 4098 and len(p.relations) == 2**12
    assert completed_system(p).spairs_processed == 0
    mat = g.emitters[0][2]
    a_v = single("v")
    top = MonoidElement.single(sgen(g, "v", mat)) + elem_sum(single(g.edge(e).dst) for e in mat)
    result = equal(p, a_v, top)
    assert result.equal and replay_chain(p, a_v, result.chain) == top


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


def _scaled_reference(x, n):
    # counts summed per generator, times n, then from_counts
    counts = {}
    for g, m in x.terms:
        counts[g] = counts.get(g, 0) + m
    return MonoidElement.from_counts({g: m * n for g, m in counts.items()})


def test_scaling_sums_a_generator_listed_twice():
    a = vgen("v")
    x = MonoidElement(((a, 1), (a, 2)))
    assert x.degree() == 3
    assert x * 1 == x + ZERO == MonoidElement.single(a, 3)
    assert x * 2 == 2 * x == MonoidElement.single(a, 6)
    assert x * 0 == ZERO
    # out of order, and a generator listed twice around another
    b, c = vgen("w"), Generator("v", ("e0",))
    y = MonoidElement(((c, 1), (b, 2), (a, 1), (b, 1)))
    assert y * 1 == MonoidElement(((a, 1), (b, 3), (c, 1))) == elem_sum((y,))
    assert y * 3 == _scaled_reference(y, 3)
    # counts and exponent read the sum too, as degree and x * 1 do
    z = MonoidElement(((a, 2), (b, 1), (a, 3)))
    assert z.counts() == {a: 5, b: 1} == dict((z * 1).terms)
    assert (z.exponent(a), z.exponent(b), z.exponent(c)) == (5, 1, 0)
    assert z.exponent(a) + z.exponent(b) == z.degree()
    # a count that is not an integer (a bool included), or is negative, raises
    for bad in ((a, 0.5), (a, -1), (a, "1"), (a, True)):
        for n in (0, 1, 2):
            with pytest.raises(PresentationError):
                MonoidElement((bad,)) * n
        for read in (lambda x: x.counts(), lambda x: x.exponent(a), lambda x: x.exponent(b)):
            with pytest.raises(PresentationError):
                read(MonoidElement(((b, 1), bad)))


def test_scaling_a_canonical_element_by_one_is_the_element():
    g = emitter_mixed(3)
    alphabet = presentation_of(g).alphabet
    for x in (ZERO, MonoidElement.single(alphabet[0]), MonoidElement.from_counts({gen: 2 for gen in alphabet})):
        assert x * 1 is x and 1 * x is x
        assert (x * 5).terms == tuple((gen, 5 * m) for gen, m in x.terms)


_scaling_generators = st.sampled_from(
    [vgen("u"), vgen("v"), Generator("u", ("e0",)), Generator("u", ("e0", "e1")), Generator("v", ("e1",))]
)
_hand_built = st.lists(st.tuples(_scaling_generators, st.integers(min_value=0, max_value=4)), max_size=6).map(
    lambda terms: MonoidElement(tuple(terms))
)


@given(st.one_of(_hand_built.map(lambda x: x + ZERO), _hand_built), st.integers(min_value=0, max_value=7))
def test_scaling_matches_the_summed_reference(x, n):
    # drawn canonical elements and hand-built ones, out of order or listing a generator twice
    assert x * n == n * x == _scaled_reference(x, n)
    assert (x * n).degree() == n * x.degree()


def test_sgen_sorts_by_edge_index():
    g = emitter_to_sink(3)
    assert sgen(g, "v", ["e2", "e0"]).edges == ("e0", "e2")
    with pytest.raises(GraphError):
        sgen(g, "v", ["nope"])


def test_generator_needs_nonempty_edge_set():
    # edges other than a tuple, a list say, would build, then raise TypeError at the first hash
    for edges in ((), ["e0"], [], "e0", {"e0"}, 0):
        with pytest.raises(PresentationError, match=re.escape(f"non-empty tuple of edges, got {edges!r}")):
            Generator("v", edges)
    assert Generator("v", ("e0",)).edges == ("e0",) and Generator("v").edges is None


def test_generator_is_an_immutable_value():
    import copy
    import pickle

    for vertex, edges in (("v", None), ("v", ("e0", "e2"))):
        gen = Generator(vertex, edges)
        assert (gen.vertex, gen.edges) == (vertex, edges)
        assert repr(gen) == f"Generator(vertex={vertex!r}, edges={edges!r})"
        # tuple's hash of the fields, so set and dict orders are those of the pairs
        assert hash(gen) == hash((vertex, edges))
        for twin in (
            Generator(vertex, edges),
            copy.copy(gen),
            copy.deepcopy(gen),
            *(pickle.loads(pickle.dumps(gen, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        ):
            assert type(twin) is Generator and twin == gen and not twin != gen and hash(twin) == hash(gen)
        # equal only to a Generator: not to the plain pair, from either side
        pair = (vertex, edges)
        assert not gen == pair and not pair == gen
        assert gen != pair and pair != gen
        assert gen != Generator("w", edges) and gen != Generator(vertex, ("e1",))
        for name in ("vertex", "edges", "other"):
            with pytest.raises(AttributeError):
                setattr(gen, name, "w")


def test_element_and_edge_are_slotted_immutable_values():
    import copy
    import dataclasses
    import pickle

    from graphmonoid.graphs import Edge

    g = emitter_to_sink(2)
    x = 2 * single("v") + MonoidElement.single(sgen(g, "v", ["e0"]), 3)
    e = Edge("e", "v", "w")
    for value, field in ((x, "terms"), (e, "id")):
        assert not hasattr(value, "__dict__")
        for twin in (
            copy.copy(value),
            copy.deepcopy(value),
            *(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        ):
            assert type(twin) is type(value) and twin == value and not twin != value and hash(twin) == hash(value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, None)
    assert hash(x) == hash(MonoidElement(x.terms)) and x != MonoidElement(x.terms[:1])
    assert x.terms == ((vgen("v"), 2), (sgen(g, "v", ["e0"]), 3))
    assert str(x) == "2*a(v) + 3*a(v,{e0})" and str(ZERO) == "0"
    assert dataclasses.replace(x, terms=()) == ZERO


@pytest.mark.parametrize(
    "bad, message",
    [
        (True, "multiplicity of a(v) must be an integer, got True"),
        ("2", "multiplicity of a(v) must be an integer, got '2'"),
        (1.5, "multiplicity of a(v) must be an integer, got 1.5"),
        (-1, "negative multiplicity for a(v)"),
    ],
    ids=["bool", "str", "float", "negative"],
)
def test_elem_sum_checks_each_term_count(bad, message):
    # a hand-built element is not checked when it is made; a sum checks each
    # term before adding it, so a negative count is not hidden by a larger one
    x = MonoidElement(((vgen("v"), bad),))
    y = MonoidElement.single(vgen("v"), 2)
    for add in (lambda: elem_sum([y, x]), lambda: y + x, lambda: x + y):
        with pytest.raises(PresentationError) as err:
            add()
        assert str(err.value) == message
    # numpy integers pass, as from_counts passes them
    assert elem_sum([MonoidElement(((vgen("v"), np.int64(3)),)), y]) == MonoidElement.single(vgen("v"), 5)


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


def test_presentation_rejects_relation_counts_that_are_not_positive_ints():
    # a hand-built element is not checked when it is made: a relation
    # (-1)*a = b would complete to b -> -a and let the BFS reach (-1, 0)
    from graphmonoid.presentation import Presentation

    a, b = vgen("a"), vgen("b")
    for bad in (-1, 0, 1.5, True):
        odd = MonoidElement(((a, bad),))
        for rel in ((odd, single("b")), (single("b"), odd), (single("b"), MonoidElement(((b, 1), (a, bad))))):
            with pytest.raises(PresentationError, match=rf"relation count {bad!r} of a\(a\) is not a positive integer"):
                Presentation((a, b), (rel,))
    assert Presentation((a, b), ((MonoidElement(((a, 2),)), single("b")),)).relations[0][0].degree() == 2


def test_presentation_rejects_repeated_generator_in_alphabet():
    # the engine sizes vectors by distinct generators and matrices by alphabet entries
    from graphmonoid.presentation import Presentation

    with pytest.raises(PresentationError, match="twice"):
        Presentation((vgen("v"), vgen("w"), vgen("v")), ((single("v"), single("w")),))


def test_presentation_refuses_an_alphabet_out_of_canonical_order():
    # column order is canonical order (Generator.sort_key): every a_v by
    # vertex, then every a_{v,S} by (vertex, edges)
    from graphmonoid.presentation import Presentation

    v, w, vs, ws = vgen("v"), vgen("w"), Generator("v", ("e1",)), Generator("w", ("e0",))
    for alphabet, first, second in (
        ((w, v), w, v),
        ((v, vs, w), vs, w),
        ((v, w, ws, vs), ws, vs),
        ((v, Generator("v", ("e1", "e2")), Generator("v", ("e1",))), Generator("v", ("e1", "e2")), Generator("v", ("e1",))),
    ):
        with pytest.raises(PresentationError, match=re.escape(f"alphabet lists {second} after {first}, out of canonical order")):
            Presentation(alphabet, ())
    alphabet = (v, w, Generator("v", ("e0",)), vs, Generator("v", ("e1", "e2")), ws)
    assert Presentation(alphabet, ()).alphabet == tuple(sorted(alphabet, key=Generator.sort_key))


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
        assert p.alphabet is alphabet
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


# -- the element reader against a term-by-term reference ---------------------

def _reference_element_from_json(data, g=None):
    """element_from_json read term by term: every generator through
    generator_from_json, summed by generator, mapped to the graph's own
    objects and sorted by from_counts."""
    counts = {}
    try:
        terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise PresentationError(f"malformed element {data!r}: {exc}") from exc
    if not isinstance(terms, list):
        raise PresentationError(f"element terms must be an array, got {terms!r}")
    for term in terms:
        try:
            gen = generator_from_json(term["gen"], g)
            mult = term["mult"]
        except (KeyError, TypeError) as exc:
            raise PresentationError(f"malformed term {term!r}: {exc}") from exc
        if isinstance(mult, bool) or not isinstance(mult, int):
            raise PresentationError(f"multiplicity must be an integer, got {mult!r}")
        if mult < 0:
            raise PresentationError(f"negative multiplicity for {gen}")
        counts[gen] = counts.get(gen, 0) + mult
    if g is not None:
        alphabet, index, _ = graph_alphabet(g)
        counts = {alphabet[index[gen]] if gen in index else gen: m for gen, m in counts.items()}
    return MonoidElement.from_counts(counts)


_HOSTILE = (
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False) | st.text(max_size=2)
    | st.lists(st.text(max_size=1), max_size=2) | st.dictionaries(st.text(max_size=1), st.integers(), max_size=1)
)
_MULTS = st.integers(1, 4) | st.sampled_from([0, -1, -(2**70), 2**70, True, False, 1.0, 2.5, "1", None])


@st.composite
def _generator_docs(draw, g):
    """Generator documents over g: canonical entries of its alphabet, S out of
    index order or with a repeated edge, unknown edges or vertices, keys left
    out, bad kinds and ids, and values that are no document at all."""
    alphabet = generators(g) if g.validation.ok else ()
    cofinite = [gen for gen in alphabet if gen.is_cofinite]
    vertices = [*g.vertices, "zz"]
    edge_ids = [e.id for e in g.edges] + ["zz", "e0^zz"]
    shape = draw(st.integers(0, 11))
    if shape <= 3 and alphabet:
        return generator_to_json(draw(st.sampled_from(alphabet)))
    if shape <= 5 and cofinite:
        gen = draw(st.sampled_from(cofinite))
        edges = list(draw(st.permutations(gen.edges)))
        if draw(st.booleans()):
            edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(edges)))
        return {"kind": "vS", "v": gen.vertex, "S": edges}
    # any vertex with any edges: unknown edges, non-emitters, vertices outside g
    doc = {
        "kind": draw(st.sampled_from(["v", "vS"])),
        "v": draw(st.sampled_from(vertices)),
        "S": draw(st.lists(st.sampled_from(edge_ids), max_size=3)),
    }
    if shape == 7:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif shape == 8:
        doc["kind"] = draw(_HOSTILE)
    elif shape == 9:
        doc["v"] = draw(_HOSTILE)
    elif shape == 10:  # S not a list, or a list with an id that is no string
        doc["S"] = draw(_HOSTILE | _HOSTILE.map(lambda eid: [*doc["S"], eid]))
    elif shape == 11:
        return draw(_HOSTILE)
    return doc


@st.composite
def _element_docs(draw, g):
    terms = []
    for _ in range(draw(st.sampled_from([1, 2, 3, 4, 0]))):
        term = {"gen": draw(_generator_docs(g)), "mult": draw(_MULTS)}
        shape = draw(st.integers(0, 12))
        if shape == 11:
            del term[draw(st.sampled_from(["gen", "mult"]))]
        elif shape == 12:
            term = draw(_HOSTILE)
        terms.append(term)
    shape = draw(st.integers(0, 15))
    if shape == 14:
        return draw(_HOSTILE)
    if shape == 15:
        return {"terms": draw(_HOSTILE)}
    return {"terms": terms}


def _vs(v, S):
    return {"kind": "vS", "v": v, "S": S}


# over emitter_to_sink(3): emitter v with edges e0, e1, e2 to the sink w
_READER_CASES = [
    _vs("v", ["e0", "e2"]),  # S canonical
    _vs("v", ["e2", "e0"]),  # reversed
    _vs("v", ["e0", "e2", "e0"]),  # a repeated edge
    _vs("v", []),
    _vs("v", ["e0", "e3"]),  # an unknown edge
    _vs("w", ["e0"]),  # a vertex that is not an emitter
    _vs("zz", ["e0"]),  # a vertex outside the graph
    {"kind": "v", "v": "zz"},
    {"kind": "zz", "v": "v"},  # a bad kind
    {"kind": ["v"], "v": "v"},
    {"kind": "v", "v": 1},  # ids that are no strings
    {"kind": "v", "v": ["v"]},
    _vs("v", [0]),
    _vs("v", ["e0", ["e1"]]),
    _vs("v", "e0"),
    _vs("v", {"e0": 1}),
    {"kind": "v"},  # keys left out
    {"v": "v"},
    {"kind": "vS", "v": "v"},
    "v",  # no document
    None,
]


def test_element_reader_cases_match_the_reference():
    g = emitter_to_sink(3)
    w = {"gen": {"kind": "v", "v": "w"}, "mult": 2}
    for gen in _READER_CASES:
        for mult in (1, 0, True, 1.0, -1, 2**70):
            for doc in (
                {"terms": [{"gen": gen, "mult": mult}]},
                {"terms": [w, {"gen": gen, "mult": mult}, w]},  # summed, and raised at its own term
                {"terms": [{"gen": gen}]},
                {"terms": [{"mult": mult}, {"gen": gen, "mult": mult}]},
            ):
                _same_reading(doc, g)
                _same_reading(doc, None)
        for doc in ({"terms": {"gen": gen}}, {"terms": gen}, {"term": []}, [gen], None):
            _same_reading(doc, g)
    # S out of index order reads as the alphabet's own generator, summed with its canonical term
    doc = {"terms": [{"gen": _vs("v", ["e2", "e0"]), "mult": 1}, {"gen": _vs("v", ["e0", "e2"]), "mult": 2}]}
    assert _same_reading(doc, g) == MonoidElement.single(sgen(g, "v", ["e0", "e2"]), 3)


def _outcome(read, doc, g):
    try:
        return read(doc, g)
    except Exception as exc:
        return type(exc), str(exc)


def _same_reading(doc, g):
    got = _outcome(element_from_json, doc, g)
    assert got == _outcome(_reference_element_from_json, doc, g)
    if isinstance(got, MonoidElement):
        assert all(type(m) is int for _, m in got.terms)
        if g is not None and g.validation.ok:
            alphabet, index, _ = graph_alphabet(g)
            # a generator of the graph is its alphabet's own object; one outside it stays as read
            assert _owned(MonoidElement(tuple(t for t in got.terms if t[0] in index)), alphabet)
    return got


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_element_reader_matches_the_term_by_term_reference(data):
    # the same element or the same exception type and message, raised at the same term
    g = data.draw(_valid_graphs() if data.draw(st.integers(0, 4)) else _any_graphs, label="graph")
    doc = data.draw(_element_docs(g), label="element")
    _same_reading(doc, g)
    _same_reading(doc, None)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_element_reader_sums_well_formed_terms_by_column(data):
    # documents every term of which names a generator of the graph, listed in
    # any order and repeated, with S canonical, reversed or shuffled
    g = data.draw(_valid_graphs(), label="graph")
    alphabet = generators(g)
    terms, counts = [], {}
    for _ in range(data.draw(st.integers(0, 6))):
        gen = data.draw(st.sampled_from(alphabet))
        mult = data.draw(st.integers(0, 3) | st.just(2**70))
        doc = generator_to_json(gen)
        if gen.is_cofinite:
            doc["S"] = list(data.draw(st.permutations(gen.edges)))
        terms.append({"gen": doc, "mult": mult})
        counts[gen] = counts.get(gen, 0) + mult
    x = _same_reading({"terms": terms}, g)
    assert x == MonoidElement.from_counts(counts) and _owned(x, alphabet)
