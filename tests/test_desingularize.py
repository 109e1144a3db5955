import random

import pytest

from graphmonoid.desingularize import (
    MaterializationError,
    TruncationError,
    desingularize,
    phi,
    phi_generator_map,
    psi,
    psi_generator_map,
    required_truncation,
    w_name,
)
from graphmonoid.engine import equal
from graphmonoid.graphs import (
    GraphError,
    VertexClass,
    graph_to_json,
    out_edges,
    validate_graph,
    vertex_class,
)
from graphmonoid.presentation import (
    Generator,
    MonoidElement,
    PresentationError,
    elem_sum,
    generators,
    presentation_of,
    sgen,
    vgen,
)

from acceptance_support import graph_level, mixed_corpus
from conftest import emitter_mixed, emitter_to_sink, single_edge, single_sink


def single(v):
    return MonoidElement.single(vgen(v))


def b(name):
    return MonoidElement.single(Generator(name))


def test_regular_vertex_keeps_edges_sink_grows_tail():
    d = desingularize(single_edge(), 3)
    # v is regular, so no tail: just its edge re-rooted at w0(v).
    # w is a sink, hence singular, and grows the tail w1(w)..w3(w).
    assert set(d.graph.vertices) == {"w0(v)", "w0(w)", "w1(w)", "w2(w)", "w3(w)"}
    assert [e.id for e in out_edges(d.graph, "w0(v)")] == ["f0^v"]
    assert d.graph.edge("f0^v").dst == "w0(w)"
    assert d.boundary == frozenset({"w3(w)"})


def test_sink_tail_level_two():
    d = desingularize(single_sink(), 2)
    assert set(d.graph.vertices) == {"w0(v)", "w1(v)", "w2(v)"}
    assert {e.id for e in d.graph.edges} == {"g0^v", "g1^v"}
    assert d.boundary == frozenset({"w2(v)"})
    assert d.graph.edge("g0^v").dst == "w1(v)"


def test_emitter_tail_level_two():
    d = desingularize(emitter_to_sink(2), 2)
    for n in range(2):
        assert d.graph.edge(f"g{n}^v").src == f"w{n}(v)"
        assert d.graph.edge(f"f{n}^v").src == f"w{n}(v)"
        assert d.graph.edge(f"f{n}^v").dst == "w0(w)"
    # the sink w is singular too, so it grows its own tail
    assert "w2(w)" in d.graph.vertices
    assert validate_graph(d.graph).ok


def test_desingularized_graph_is_row_finite():
    for g in (single_sink(), single_edge(), emitter_to_sink(3), emitter_mixed()):
        d = desingularize(g, 3)
        assert not d.graph.emitters
        for v in d.graph.vertices:
            if v not in d.boundary:
                assert out_edges(d.graph, v)
            else:
                assert not out_edges(d.graph, v)


def test_level_must_be_positive():
    with pytest.raises(GraphError):
        desingularize(single_sink(), 0)


def test_phi_on_generators():
    g = emitter_to_sink(2)
    d = desingularize(g, 3)
    assert phi(d, single("v")) == b("w0(v)")
    assert phi(d, MonoidElement.single(sgen(g, "v", ["e0"]))) == b("w1(v)")
    # n = 1, lambda(T_1)\lambda(S) = {f_0^v}, whose range is w0(w)
    assert phi(d, MonoidElement.single(sgen(g, "v", ["e1"]))) == b("w2(v)") + b("w0(w)")


def test_phi_is_additive():
    g = emitter_to_sink(2)
    d = desingularize(g, 3)
    x = 2 * single("v") + MonoidElement.single(sgen(g, "v", ["e1"]), 2)
    assert phi(d, x) == 2 * phi(d, single("v")) + 2 * phi(d, MonoidElement.single(sgen(g, "v", ["e1"])))


def test_phi_truncation_error_reports_required_level():
    g = emitter_to_sink(3)
    d = desingularize(g, 2)
    x = MonoidElement.single(sgen(g, "v", ["e2"]))
    with pytest.raises(TruncationError) as err:
        phi(d, x)
    assert err.value.required == 4


def test_psi_on_generators():
    g = emitter_to_sink(2)
    d = desingularize(g, 3)
    assert psi(d, b("w0(v)")) == single("v")
    assert psi(d, b("w3(w)")) == single("w")  # sink tail collapses
    assert psi(d, b("w1(v)")) == MonoidElement.single(sgen(g, "v", ["e0"]))
    assert psi(d, b("w2(v)")) == MonoidElement.single(sgen(g, "v", ["e0", "e1"]))


def test_psi_needs_materialized_prefix():
    g = emitter_to_sink(1)
    d = desingularize(g, 3)
    with pytest.raises(MaterializationError):
        psi(d, b("w2(v)"))


def test_required_truncation():
    g = emitter_to_sink(4)
    assert required_truncation(g, single("v")) == 2
    assert required_truncation(g, MonoidElement()) == 2
    x = MonoidElement.single(sgen(g, "v", ["e0", "e3"]))
    assert required_truncation(g, x) == 5


def test_round_trip_on_generators():
    for g in (emitter_to_sink(2), emitter_mixed(), single_edge(), single_sink()):
        p = presentation_of(g)
        level = max(required_truncation(g, MonoidElement.single(x)) for x in p.alphabet)
        d = desingularize(g, level)
        for gen in p.alphabet:
            x = MonoidElement.single(gen)
            assert equal(p, psi(d, phi(d, x)), x), f"psi(phi({gen})) != {gen}"


def test_reverse_round_trip_on_non_boundary_generators():
    for g in (emitter_to_sink(2), emitter_mixed(), single_edge()):
        p = presentation_of(g)
        level = max(required_truncation(g, MonoidElement.single(x)) for x in p.alphabet)
        d = desingularize(g, level)
        pf = presentation_of(d.graph)
        for gen, image in psi_generator_map(d).items():
            if gen.vertex in d.boundary:
                continue
            y = MonoidElement.single(gen)
            assert equal(pf, phi(d, psi(d, y)), y), f"phi(psi({gen})) != {gen}"


def test_relations_are_preserved_both_ways():
    g = emitter_to_sink(2)
    p = presentation_of(g)
    level = max(required_truncation(g, MonoidElement.single(x)) for x in p.alphabet)
    d = desingularize(g, level)
    pf = presentation_of(d.graph)
    for lhs, rhs in p.relations:
        assert equal(pf, phi(d, lhs), phi(d, rhs))
    defined = set(psi_generator_map(d))
    for lhs, rhs in pf.relations:
        support = set(lhs.support()) | set(rhs.support())
        if d.mentions_boundary(lhs) or d.mentions_boundary(rhs):
            continue
        assert support <= defined
        assert equal(p, psi(d, lhs), psi(d, rhs))


def test_generator_maps_cover_alphabets():
    g = emitter_to_sink(2)
    d = desingularize(g, 3)
    assert set(phi_generator_map(d)) == set(generators(g))
    pf_gens = set(generators(d.graph))
    assert set(psi_generator_map(d)) <= pf_gens


def test_boundary_serialization():
    d = desingularize(emitter_to_sink(1), 2)
    doc = graph_to_json(d.graph, d.boundary)
    flagged = {v["id"] for v in doc["vertices"] if isinstance(v, dict) and v.get("boundary")}
    assert flagged == set(d.boundary)


def test_tailing_preserves_path_counts_on_dags():
    # engine-free triangulation: paths v -> s in a DAG correspond one to one
    # to paths w0(v) -> wN(s) in its tailed graph, so the oracle vectors
    # must match up to the sink renaming s -> wN(s)
    import random

    from graphmonoid.desingularize import w_name
    from graphmonoid.graphs import Graph
    from graphmonoid.oracle import path_count_table

    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(1, 6)
        names = [f"v{i}" for i in range(n)]
        edges = []
        for k in range(rng.randint(0, 9)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                edges.append((f"e{k}", names[min(i, j)], names[max(i, j)]))
        e = Graph.build(names, edges)
        d = desingularize(e, 3)
        table_e = path_count_table(e)
        table_f = path_count_table(d.graph)
        for v in e.vertices:
            renamed = {w_name(s, 3): c for s, c in table_e[v].as_dict().items()}
            assert table_f[w_name(v, 0)].as_dict() == renamed


# -- the compiled maps against the per-term maps they replaced -----------------

def reference_phi(d, x):
    """phi as it was computed term by term, before the compiled maps."""
    g = d.source
    parts = []
    for gen, mult in x.terms:
        if not gen.is_cofinite:
            if not g.has_vertex(gen.vertex):
                raise PresentationError(f"unknown vertex generator {gen}")
            parts.append(MonoidElement.single(Generator(w_name(gen.vertex, 0)), mult))
            continue
        v = gen.vertex
        indices = sorted(g.edge_index(v, eid) for eid in gen.edges)
        n = indices[-1]
        if n + 1 > d.level:
            raise TruncationError(
                f"level {d.level} too small for edge index {n} of {v!r}; "
                f"required truncation is {n + 2}",
                required=n + 2,
            )
        in_s = set(indices)
        desc = g.descriptor(v)
        image = MonoidElement.single(Generator(w_name(v, n + 1))) + elem_sum(
            MonoidElement.single(Generator(w_name(desc.range_at(k), 0)))
            for k in range(n + 1)
            if k not in in_s
        )
        parts.append(image * mult)
    return elem_sum(parts)


def reference_psi(d, y):
    """psi as it was computed term by term, before the compiled maps."""
    g = d.source
    parts = []
    for gen, mult in y.terms:
        if gen.is_cofinite:
            raise PresentationError(f"tailed graph is row-finite; {gen} is not a vertex generator")
        try:
            v, n = d.origin[gen.vertex]
        except KeyError:
            raise PresentationError(f"{gen.vertex!r} is not a vertex of the tailed graph") from None
        if n == 0 or vertex_class(g, v) is VertexClass.SINK:
            parts.append(MonoidElement.single(Generator(v), mult))
            continue
        mat = g.materialized(v)
        if len(mat) < n:
            raise MaterializationError(
                f"mapping w_{n}({v}) back needs edges e_0..e_{n - 1} of {v!r} "
                f"materialized, only {len(mat)} are"
            )
        parts.append(MonoidElement.single(sgen(g, v, mat[:n]), mult))
    return elem_sum(parts)


def reference_psi_generator_map(d):
    out = {}
    for name, (v, n) in sorted(d.origin.items()):
        gen = Generator(name)
        if n > 0 and vertex_class(d.source, v) is VertexClass.INFINITE_EMITTER:
            if len(d.source.materialized(v)) < n:
                continue
        out[gen] = reference_psi(d, MonoidElement.single(gen))
    return out


def outcome(f, d, x):
    """The image, or the error's type, message and required level."""
    try:
        return f(d, x)
    except (TruncationError, MaterializationError, PresentationError, GraphError) as exc:
        return type(exc), str(exc), getattr(exc, "required", None)


def seeded_elements(rng, alphabet, count):
    """Elements of up to four generators with multiplicities up to 2^40."""
    out = []
    for _ in range(count):
        gens = rng.sample(alphabet, min(len(alphabet), rng.randint(1, 4)))
        out.append(MonoidElement.from_counts({gen: rng.randint(1, 2**40) for gen in gens}))
    return out


def test_image_tables_match_the_per_term_maps():
    rng = random.Random(2024)
    graphs = mixed_corpus(random.Random(0))
    graphs += [emitter_mixed(k) for k in range(2, 6)]
    graphs += [emitter_to_sink(k) for k in range(1, 5)]
    checked = 0
    for g in graphs:
        p = presentation_of(g)
        # one level below the required one, too, where phi raises TruncationError
        for level in (graph_level(g) - 1, graph_level(g), graph_level(g) + 1):
            d = desingularize(g, level)
            pf = presentation_of(d.graph)
            assert phi_generator_map(d) == {
                gen: reference_phi(d, MonoidElement.single(gen)) for gen in generators(g)
            }
            assert psi_generator_map(d) == reference_psi_generator_map(d)
            xs = [MonoidElement.single(gen) for gen in p.alphabet]
            xs += seeded_elements(rng, p.alphabet, 20)
            xs += [side for rel in p.relations for side in rel]
            ys = [MonoidElement.single(gen) for gen in pf.alphabet]
            ys += seeded_elements(rng, pf.alphabet, 20)
            ys += [side for rel in pf.relations for side in rel]
            for x in xs:
                assert outcome(phi, d, x) == outcome(reference_phi, d, x), x
            for y in ys:
                assert outcome(psi, d, y) == outcome(reference_psi, d, y), y
            checked += len(xs) + len(ys)
    assert checked > 5000


def test_lone_generators_read_their_stored_image(monkeypatch):
    # once a generator's image is in its table, phi and psi of that generator
    # alone return the stored image and build no element
    from graphmonoid.presentation import apply_generator_map

    from_counts = MonoidElement.from_counts.__func__
    calls = []

    def counted(cls, counts):
        calls.append(counts)
        return from_counts(cls, counts)

    checked = 0
    for g in mixed_corpus(random.Random(0)):
        d = desingularize(g, graph_level(g))
        maps = ((phi, d._to_tailed, phi_generator_map(d)), (psi, d._from_tailed, psi_generator_map(d)))
        for f, table, images in maps:
            for gen, image in images.items():
                x = MonoidElement.single(gen)
                monkeypatch.setattr(MonoidElement, "from_counts", classmethod(counted))
                calls.clear()
                got = f(d, x)
                assert calls == [] and got is table[gen]
                monkeypatch.undo()
                # the element the sum over x's terms builds, as phi and psi did for every element
                assert got == image == apply_generator_map(table, x)
                checked += 1
    assert checked > 200


def _stored(m, gen) -> bool:
    """Whether the compiled map m keeps an image of gen: only a column of its domain alphabet can."""
    c = m.index.get(gen)
    return c is not None and (m._columns[c] is not None or m._elements[c] is not None)


@pytest.mark.parametrize(
    "graph, level, forward, good, bad, error",
    [
        # a_{v,{e2}} needs level 3 (required truncation 4)
        (emitter_to_sink(3), 2, True, Generator("v", ("e0",)), Generator("v", ("e2",)), TruncationError),
        # w2(v) needs e_0, e_1 of v materialized, only e_0 is
        (emitter_to_sink(1), 3, False, Generator("w1(v)"), Generator("w2(v)"), MaterializationError),
        (emitter_to_sink(2), 3, True, Generator("v"), Generator("nope"), PresentationError),
        (emitter_to_sink(2), 3, False, Generator("w0(v)"), Generator("nope"), PresentationError),
        (emitter_to_sink(2), 3, False, Generator("w1(v)"), Generator("w0(v)", ("f0^v",)), PresentationError),
        (emitter_to_sink(2), 3, True, Generator("v", ("e1",)), Generator("v", ("x",)), GraphError),
    ],
    ids=["truncation", "materialization", "unknown-vertex", "unknown-tail-vertex", "cofinite-to-psi", "unknown-edge"],
)
def test_failed_generators_are_not_cached(graph, level, forward, good, bad, error):
    d = desingularize(graph, level)
    f, table = (phi, d._to_tailed) if forward else (psi, d._from_tailed)
    x, y = MonoidElement.single(good, 3), MonoidElement.single(bad)
    first = f(d, x)
    raised = []
    for _ in range(2):
        with pytest.raises(error) as err:
            f(d, y)
        raised.append((str(err.value), getattr(err.value, "required", None)))
        assert not _stored(table, bad)
    assert raised[0] == raised[1]
    if error is TruncationError:
        assert raised[0][1] == 4
        assert bad in table.index  # a column of the domain alphabet, left empty
    assert f(d, x) == first
    assert _stored(table, good)


def _owned(x, alphabet) -> bool:
    ids = {id(gen) for gen in alphabet}
    return all(id(gen) in ids for gen in x.support())


def test_phi_and_psi_return_the_codomain_alphabets_own_generators():
    from graphmonoid.presentation import apply_generator_map

    rng = random.Random(3)
    checked = 0
    for g in mixed_corpus(random.Random(0)):
        d = desingularize(g, graph_level(g))
        source, tailed = generators(g), generators(d.graph)
        to_tailed, from_tailed = phi_generator_map(d), psi_generator_map(d)
        assert all(gen is source[i] for i, gen in enumerate(to_tailed))
        assert all(any(gen is t for t in tailed) for gen in from_tailed)
        assert all(_owned(img, tailed) for img in to_tailed.values())
        assert all(_owned(img, source) for img in from_tailed.values())
        defined = tuple(from_tailed)
        for _ in range(20):
            x = MonoidElement.from_counts({rng.choice(source): rng.randint(1, 50) for _ in range(rng.randint(1, 4))})
            y = MonoidElement.from_counts({rng.choice(defined): rng.randint(1, 50) for _ in range(rng.randint(1, 4))})
            fx, fy = phi(d, x), psi(d, y)
            assert _owned(fx, tailed) and fx == apply_generator_map(to_tailed, x)
            assert _owned(fy, source) and fy == apply_generator_map(from_tailed, y)
            # the compiled map on exponent vectors agrees with it on elements
            index = presentation_of(g).index()
            vx = [0] * len(source)
            for gen, m in x.terms:
                vx[index[gen]] = m
            assert d._to_tailed.vector(vx) == [fx.exponent(gen) for gen in tailed]
            checked += 1
    assert checked > 400


def test_phi_and_psi_check_multiplicities_as_apply_generator_map_does():
    # an element built term by term, past from_counts's checks
    from graphmonoid.presentation import apply_generator_map

    d = desingularize(single_edge(), 2)
    source, tailed = generators(d.source), generators(d.graph)
    for bad in (-1, 1.5, True, "2"):
        for f, images, alphabet in ((phi, phi_generator_map(d), source), (psi, psi_generator_map(d), tailed)):
            for x in (MonoidElement(((alphabet[0], 2), (alphabet[1], bad))), MonoidElement(((alphabet[1], bad),))):
                with pytest.raises(PresentationError) as want:
                    apply_generator_map(images, x)
                with pytest.raises(PresentationError) as got:
                    f(d, x)
                # checked once per term, naming the generator of the input
                assert str(got.value) == str(want.value)
                assert str(got.value).endswith(f"for {alphabet[1]}" if bad == -1 else f"got {bad!r}")
                assert str(alphabet[1]) in str(got.value)
