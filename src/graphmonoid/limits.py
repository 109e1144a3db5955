"""CK-morphisms, chains of graphs, induced monoid maps, and direct limits.

A graph morphism is CK when it is injective on vertices and edges, restricts
to a bijection on the out-edges of every regular vertex, and sends infinite
emitters to infinite emitters.  Direct systems are restricted to finite
chains; the colimit of a chain is its top object, and equality of limit
representatives is decided by mapping both to the top and running the word
engine there.

A MonoidChain's connecting maps and a UniversalMap's family are compiled
GeneratorMaps, each built once with every image read, so a missing image, one
outside the codomain or a key outside the domain is refused at build time;
both, and a DirectLimit, compare by identity.  A chain level is an int: any
other level, a bool or a float included, is refused with MorphismError.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Mapping, Sequence

from . import kernels
from .engine import EngineError, RewriteSystem, completed_system, degree_combinations, equal
from .graphs import (
    Graph,
    GraphError,
    GraphmonoidError,
    Record,
    VertexClass,
    graph_from_json,
    lazy,
    out_edges,
    require_valid,
    vertex_class,
)
from .presentation import (
    Generator,
    GeneratorMap,
    Image,
    MonoidElement,
    Presentation,
    PresentationError,
    graph_alphabet,
    mapping_image,
    presentation_of,
    sgen,
)


class MorphismError(GraphmonoidError):
    """Not a (CK) graph morphism, chain or compatible family, or not a chain level."""


class GraphMorphism(Record):
    _fields = ("source", "target", "vertex_pairs", "edge_pairs")
    source: Graph
    target: Graph
    vertex_pairs: tuple[tuple[str, str], ...]
    edge_pairs: tuple[tuple[str, str], ...]

    def __init__(
        self,
        source: Graph,
        target: Graph,
        vertex_pairs: tuple[tuple[str, str], ...],
        edge_pairs: tuple[tuple[str, str], ...],
    ):
        self.__dict__.update(source=source, target=target, vertex_pairs=vertex_pairs, edge_pairs=edge_pairs)

    @classmethod
    def build(
        cls,
        source: Graph,
        target: Graph,
        vertex_map: Mapping[str, str],
        edge_map: Mapping[str, str],
    ) -> "GraphMorphism":
        return cls(
            source,
            target,
            tuple(sorted(vertex_map.items())),
            tuple(sorted(edge_map.items())),
        )

    @lazy
    def _maps(self) -> tuple[dict[str, str], dict[str, str]]:
        # built once and shared by every caller: read them, never mutate them
        return dict(self.vertex_pairs), dict(self.edge_pairs)

    def vertex_map(self) -> dict[str, str]:
        return self._maps[0]

    def edge_map(self) -> dict[str, str]:
        return self._maps[1]


def identity_morphism(g: Graph) -> GraphMorphism:
    return GraphMorphism.build(g, g, {v: v for v in g.vertices}, {e.id: e.id for e in g.edges})


def compose(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    if outer.source != inner.target:
        raise MorphismError("composition mismatch: inner target differs from outer source")
    vmap = outer.vertex_map()
    emap = outer.edge_map()
    return GraphMorphism.build(
        inner.source,
        outer.target,
        {a: vmap[b] for a, b in inner.vertex_pairs},
        {a: emap[b] for a, b in inner.edge_pairs},
    )


def structural_violations(m: GraphMorphism) -> tuple[str, ...]:
    """Ways in which m fails to be a graph morphism at all."""
    bad: list[str] = []
    for g, label in ((m.source, "source"), (m.target, "target")):
        rep = g.validation
        if not rep.ok:
            bad.append(f"{label} graph invalid: {rep.violations[0]}")
    vmap = m.vertex_map()
    emap = m.edge_map()
    for v in m.source.vertices:
        if v not in vmap:
            bad.append(f"vertex {v!r} has no image")
        elif not m.target.has_vertex(vmap[v]):
            bad.append(f"vertex {v!r} maps to unknown vertex {vmap[v]!r}")
    for e in m.source.edges:
        if e.id not in emap:
            bad.append(f"edge {e.id!r} has no image")
            continue
        img = emap[e.id]
        try:
            te = m.target.edge(img)
        except GraphError:
            bad.append(f"edge {e.id!r} maps to unknown edge {img!r}")
            continue
        if e.src in vmap and te.src != vmap[e.src]:
            bad.append(f"edge {e.id!r}: image source {te.src!r} != image of source {vmap[e.src]!r}")
        if e.dst in vmap and te.dst != vmap[e.dst]:
            bad.append(f"edge {e.id!r}: image range {te.dst!r} != image of range {vmap[e.dst]!r}")
    return tuple(bad)


class CKReport(Record):
    _fields = ("ok", "violations")
    ok: bool
    violations: tuple[str, ...]

    def __init__(self, ok: bool, violations: tuple[str, ...] = ()):
        self.__dict__.update(ok=ok, violations=violations)

    def __bool__(self) -> bool:
        return self.ok


def is_ck_morphism(m: GraphMorphism) -> CKReport:
    """Decide the CK conditions; structural invalidity raises instead of reporting."""
    structural = structural_violations(m)
    if structural:
        raise MorphismError("not a graph morphism: " + "; ".join(structural))
    bad: list[str] = []
    vmap = m.vertex_map()
    emap = m.edge_map()
    if len(set(vmap.values())) != len(vmap):
        bad.append("vertex map is not injective")
    if len(set(emap.values())) != len(emap):
        bad.append("edge map is not injective")
    for v in m.source.vertices:
        cls = vertex_class(m.source, v)
        if cls is VertexClass.REGULAR:
            images = {emap[e.id] for e in out_edges(m.source, v)}
            targets = {e.id for e in out_edges(m.target, vmap[v])}
            if images != targets:
                bad.append(
                    f"out-edges of regular vertex {v!r} do not biject onto "
                    f"out-edges of {vmap[v]!r}"
                )
        elif cls is VertexClass.INFINITE_EMITTER:
            if not m.target.is_infinite_emitter(vmap[v]):
                bad.append(f"infinite emitter {v!r} maps to non-emitter {vmap[v]!r}")
    return CKReport(not bad, tuple(bad))


def _induced_map(m: GraphMorphism) -> GeneratorMap:
    """The induced monoid morphism compiled over the two graphs' alphabets; CK inputs only."""
    report = is_ck_morphism(m)
    if not report.ok:
        raise MorphismError("not a CK-morphism: " + "; ".join(report.violations))
    vmap = m.vertex_map()
    emap = m.edge_map()
    source, index, _ = graph_alphabet(m.source)
    target, _, columns = graph_alphabet(m.target)

    def image(gen: Generator) -> Image:
        if gen not in index:
            raise PresentationError(f"generator {gen} outside the map's domain")
        if gen.is_cofinite:
            img = sgen(m.target, vmap[gen.vertex], [emap[eid] for eid in gen.edges])
            return ((columns[img.vertex, img.edges], 1),)
        return ((columns[vmap[gen.vertex], None], 1),)

    return GeneratorMap(source, index, target, image)


def induced_monoid_morphism(m: GraphMorphism) -> dict[Generator, MonoidElement]:
    """Generator map a_v -> b_{eta(v)}, a_{v,S} -> b_{eta(v),eta(S)}; CK inputs only.

    Keys and images are the two alphabets' own generators.
    """
    return _induced_map(m).as_dict()


def _check_indices(i: int, j: int, length: int) -> None:
    if type(i) is not int or type(j) is not int or not 0 <= i <= j < length:
        raise MorphismError(f"bad chain indices {i!r}, {j!r}")


class GraphChain(Record):
    _fields = ("graphs", "steps")
    graphs: tuple[Graph, ...]
    steps: tuple[GraphMorphism, ...]

    def __init__(self, graphs: tuple[Graph, ...], steps: tuple[GraphMorphism, ...]):
        self.__dict__.update(graphs=graphs, steps=steps)

    @classmethod
    def build(cls, graphs: Sequence[Graph], steps: Sequence[GraphMorphism]) -> "GraphChain":
        graphs = tuple(graphs)
        steps = tuple(steps)
        if not graphs:
            raise MorphismError("a chain needs at least one graph")
        if len(steps) != len(graphs) - 1:
            raise MorphismError("a chain of k graphs needs k-1 connecting morphisms")
        for i, step in enumerate(steps):
            if step.source != graphs[i] or step.target != graphs[i + 1]:
                raise MorphismError(f"connecting morphism {i} does not join levels {i} and {i + 1}")
        for g in graphs:
            require_valid(g)
        return cls(graphs, steps)

    def __len__(self) -> int:
        return len(self.graphs)

    def morphism(self, i: int, j: int) -> GraphMorphism:
        _check_indices(i, j, len(self))
        m = identity_morphism(self.graphs[i])
        for k in range(i, j):
            m = compose(self.steps[k], m)
        return m


class GraphColimit(Record):
    _fields = ("graph", "injections")
    graph: Graph
    injections: tuple[GraphMorphism, ...]

    def __init__(self, graph: Graph, injections: tuple[GraphMorphism, ...]):
        self.__dict__.update(graph=graph, injections=injections)


def colimit_graph(chain: GraphChain) -> GraphColimit:
    """Colimit of a CK chain: the top graph with the composed injections."""
    for i, step in enumerate(chain.steps):
        report = is_ck_morphism(step)
        if not report.ok:
            raise MorphismError(
                f"connecting morphism {i} is not CK: " + "; ".join(report.violations)
            )
    top = len(chain) - 1
    return GraphColimit(chain.graphs[top], tuple(chain.morphism(i, top) for i in range(len(chain))))


def _compiled(dom: Presentation, cod: Presentation, m: Mapping[Generator, MonoidElement] | GeneratorMap) -> GeneratorMap:
    """m over dom's and cod's alphabets (a GeneratorMap as it is, a mapping copied and compiled),
    with every domain column read, so a missing image, one outside cod or a mapping key outside
    dom raises PresentationError here."""
    if isinstance(m, GeneratorMap):
        if m.domain != dom.alphabet or m.codomain != cod.alphabet:
            raise PresentationError("the map is compiled over other alphabets")
        f, keys = m, ()
    else:
        keys = dict(m)
        f = GeneratorMap(dom.alphabet, dom.index(), cod.alphabet, mapping_image(keys, cod.index()))
    for gen in keys:
        if gen not in f.index:
            raise PresentationError(f"generator {gen} outside the map's domain")
    for c in range(len(f.domain)):
        f.column(c)
    return f


class MonoidChain(Record):
    _fields = ("presentations", "steps")
    presentations: tuple[Presentation, ...]
    steps: tuple[GeneratorMap, ...]  # step i compiled over levels i and i + 1

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, presentations: tuple[Presentation, ...], steps: tuple[GeneratorMap, ...]):
        self.__dict__.update(presentations=presentations, steps=steps)

    @classmethod
    def build(
        cls,
        presentations: Sequence[Presentation],
        steps: Sequence[Mapping[Generator, MonoidElement] | GeneratorMap],
    ) -> "MonoidChain":
        presentations = tuple(presentations)
        if not presentations:
            raise MorphismError("a chain needs at least one presentation")
        if len(steps) != len(presentations) - 1:
            raise MorphismError("a chain of k presentations needs k-1 connecting maps")
        compiled = []
        for i, step in enumerate(steps):
            try:
                compiled.append(_compiled(presentations[i], presentations[i + 1], step))
            except PresentationError as exc:
                raise MorphismError(f"incoherent connecting map {i} to level {i + 1}: {exc}") from None
        return cls(presentations, tuple(compiled))

    def __len__(self) -> int:
        return len(self.presentations)

    def step_map(self, i: int) -> dict[Generator, MonoidElement]:
        return self.steps[i].as_dict()

    def map_up(self, i: int, j: int, x: MonoidElement) -> MonoidElement:
        _check_indices(i, j, len(self))
        for k in range(i, j):
            x = self.steps[k](x)
        return x


def monoid_chain(chain: GraphChain) -> MonoidChain:
    """Monoid presentations and induced connecting maps of a CK graph chain."""
    return MonoidChain.build([presentation_of(g) for g in chain.graphs], [_induced_map(step) for step in chain.steps])


class LimitElement(Record):
    _fields = ("level", "element")
    level: int
    element: MonoidElement

    def __init__(self, level: int, element: MonoidElement):
        self.__dict__.update(level=level, element=element)


class DirectLimit(Record):
    """Colimit of a monoid chain, realized on leveled representatives.

    Two representatives are equivalent iff their images at the top of the
    chain are congruent there; for a chain this is the existential condition
    over all higher levels.  It compares by identity, as its chain does.
    """

    _fields = ("chain",)
    chain: MonoidChain

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, chain: MonoidChain):
        self.__dict__["chain"] = chain

    @property
    def top(self) -> int:
        return len(self.chain) - 1

    def _level(self, level: int) -> int:
        if type(level) is not int or not 0 <= level <= self.top:
            raise MorphismError(f"level {level!r} is not a chain level (0 to {self.top})")
        return level

    def inject(self, level: int, x: MonoidElement) -> LimitElement:
        index = self.chain.presentations[self._level(level)].index()
        for gen in x.support():
            if gen not in index:
                raise MorphismError(f"{gen} is not a generator at level {level}")
        return LimitElement(level, x)

    def to_top(self, a: LimitElement) -> MonoidElement:
        return self.chain.map_up(a.level, self.top, a.element)

    def equivalent(self, a: LimitElement, b: LimitElement, budget: int | None = None) -> bool:
        top_p = self.chain.presentations[self.top]
        return bool(equal(top_p, self.to_top(a), self.to_top(b), budget))

    def add(self, a: LimitElement, b: LimitElement) -> LimitElement:
        k = max(self._level(a.level), self._level(b.level))
        return LimitElement(
            k, self.chain.map_up(a.level, k, a.element) + self.chain.map_up(b.level, k, b.element)
        )


def colimit_monoid(chain: MonoidChain) -> DirectLimit:
    return DirectLimit(chain)


class UniversalMap(Record):
    _fields = ("limit", "target", "maps")
    limit: DirectLimit
    target: Presentation
    maps: tuple[GeneratorMap, ...]  # level i's map compiled over its alphabet and the target's

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, limit: DirectLimit, target: Presentation, maps: tuple[GeneratorMap, ...]):
        self.__dict__.update(limit=limit, target=target, maps=maps)

    def __call__(self, a: LimitElement) -> MonoidElement:
        return self.maps[self.limit._level(a.level)](a.element)  # one map per level of the chain


def universal_map(
    limit: DirectLimit,
    target: Presentation,
    maps: Sequence[Mapping[Generator, MonoidElement]],
    budget: int | None = None,
) -> UniversalMap:
    """Factor a compatible family of maps through the limit.

    Each map is compiled over its level's alphabet and the target's, so a
    missing image, or an image outside the target, raises PresentationError.
    Compatibility (each map agrees with the next one composed with the
    connecting map) is verified generator by generator in the target monoid;
    an incompatible family is refused naming a witnessing generator.
    """
    chain = limit.chain
    if len(maps) != len(chain):
        raise MorphismError("one map per chain level is required")
    compiled = tuple(_compiled(p, target, m) for p, m in zip(chain.presentations, maps))
    for i, step in enumerate(chain.steps):
        lower, upper = compiled[i], compiled[i + 1]
        for gen in chain.presentations[i].alphabet:
            if not equal(target, lower[gen], upper(step[gen]), budget):
                raise MorphismError(
                    f"incompatible family: maps at levels {i} and {i + 1} disagree on {gen}"
                )
    return UniversalMap(limit, target, compiled)


class ContinuityReport(Record):
    _fields = ("ok", "levels", "sample_sizes", "mismatches", "uncovered_generators", "merged_classes")
    ok: bool
    levels: int
    sample_sizes: tuple[int, ...]
    mismatches: tuple[str, ...]
    uncovered_generators: tuple[str, ...]
    merged_classes: tuple[int, ...]

    def __init__(
        self,
        ok: bool,
        levels: int,
        sample_sizes: tuple[int, ...],
        mismatches: tuple[str, ...],
        uncovered_generators: tuple[str, ...],
        merged_classes: tuple[int, ...] = (),
    ):
        self.__dict__.update(
            ok=ok,
            levels=levels,
            sample_sizes=sample_sizes,
            mismatches=mismatches,
            uncovered_generators=uncovered_generators,
            merged_classes=merged_classes,
        )


def _first_rows(
    rows: Iterable[list[int]], rules: Sequence[kernels.Rule], nfs: dict[tuple[int, ...], tuple[int, ...]]
) -> list[int]:
    """For each row, the first row with the same normal form.

    nfs maps rows (as tuples) already reduced against rules to their normal
    forms; each row not in it is reduced once and added.  So is its normal
    form, which is its own: the rows of one class share one normal-form tuple.
    """
    first: dict[tuple[int, ...], int] = {}
    out = []
    for r, x in enumerate(rows):
        x = tuple(x)
        nf = nfs.get(x)
        if nf is None:
            nf = tuple(kernels.reduce(x, rules))
            nf = nfs[x] = nfs.setdefault(nf, nf)
        out.append(first.setdefault(nf, r))
    return out


def _pushed(f: GeneratorMap, sample: list[tuple[int, ...]]) -> Iterator[list[int]]:
    """f.vector of each sampled element, summed from the images of its columns.

    The images are read first, in column order: past degree 0 the sample
    lists each column alone in that order, so the same image raises first.
    """
    n = len(f.codomain)
    images = [f.column(c) for c in range(len(f.domain))] if len(sample) > 1 else []
    for combo in sample:
        y = [0] * n
        for c in combo:
            for d, m in images[c]:
                y[d] += m
        yield y


def check_continuity(
    chain: GraphChain,
    into_top: GraphMorphism | None = None,
    degree: int = 2,
    budget: int | None = None,
) -> ContinuityReport:
    """Check limit behaviour of the chain against the top graph.

    For every level, all elements of total degree <= degree are pushed up and
    three things are verified on the induced normal-form partitions, which is
    equivalent to checking every pair of sampled elements:

      * soundness: elements congruent at their level have congruent images in
        the top graph;
      * limit equality: images are congruent at the top of the chain iff they
        are congruent in the top graph (representative equality in the limit
        is decided at the chain top, so this is the two-sided check);
      * coverage: every top generator is the image of a generator at some
        level.

    Without into_top, phi_i is mu_i and the top partition is the chain top's.

    Connecting maps may genuinely merge classes (a class distinct at one
    level can collapse once more edges are materialized), so levelwise
    injectivity is not checked; the number of merged classes per level is
    reported instead.
    """
    if type(degree) is not int:
        raise EngineError(f"degree {degree!r} is not an int")
    if degree < 0:
        raise EngineError(f"degree must be >= 0, got {degree}")
    colimit = colimit_graph(chain)  # raises unless every step is CK
    last = len(chain) - 1
    if into_top is not None:
        if into_top.source != chain.graphs[last]:
            raise MorphismError("into_top must start at the chain's top graph")
        report = is_ck_morphism(into_top)
        if not report.ok:
            raise MorphismError("into_top is not CK: " + "; ".join(report.violations))
    top_graph = chain.graphs[last] if into_top is None else into_top.target
    top_p = presentation_of(top_graph)
    top_rs = completed_system(top_p, budget)
    mid_p = top_p if top_graph == chain.graphs[last] else presentation_of(chain.graphs[last])
    mid_rs = completed_system(mid_p, budget)
    mismatches: list[str] = []
    sizes: list[int] = []
    merges: list[int] = []
    covered: set[int] = set()  # top columns that are images of generators
    # the normal forms found in this call, per system: an image pushed along
    # inclusions into the chain's last graph is also in the last level's
    # sample, which is reduced against the same system
    nfs: defaultdict[RewriteSystem, dict[tuple[int, ...], tuple[int, ...]]] = defaultdict(dict)

    for i, (g, to_last) in enumerate(zip(chain.graphs, colimit.injections)):
        p_i = mid_p if i == last else presentation_of(g)
        rs_i = completed_system(p_i, budget)
        mu_i = _induced_map(to_last)
        # checked on its own: a composite of CK morphisms need not be CK
        phi_i = mu_i if into_top is None else _induced_map(compose(into_top, to_last))
        covered.update(phi_i.column(c)[0][0] for c in range(len(phi_i.domain)))
        sample = list(degree_combinations(len(p_i.alphabet), degree))
        sizes.append(len(sample))
        # each sample pushed and read through the definitions of the system
        # it is reduced in, in one map; the rows are then reduced by the rest
        here = _first_rows(_pushed(rs_i._definitions, sample), rs_i._completed_rules, nfs[rs_i])
        if i == last:
            mid = here  # mu_i is the identity of the last graph, and rs_i is mid_rs
        else:
            mid = _first_rows(_pushed(mu_i.then(mid_rs._definitions), sample), mid_rs._completed_rules, nfs[mid_rs])
        if into_top is None:
            top = mid
        else:
            to_top = phi_i.then(top_rs._definitions)
            top = _first_rows(_pushed(to_top, sample), top_rs._completed_rules, nfs[top_rs])
        # (classes, other side, message): rows in one class must agree on the other side
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

    uncovered = tuple(str(gen) for c, gen in enumerate(top_p.alphabet) if c not in covered)
    return ContinuityReport(
        ok=not mismatches and not uncovered,
        levels=len(chain),
        sample_sizes=tuple(sizes),
        mismatches=tuple(mismatches),
        uncovered_generators=uncovered,
        merged_classes=tuple(merges),
    )


# -- JSON ---------------------------------------------------------------------

def morphism_to_json(m: GraphMorphism) -> dict:
    return {"vertex_map": dict(m.vertex_pairs), "edge_map": dict(m.edge_pairs)}  # the caller owns it


def morphism_from_json(data: dict, source: Graph, target: Graph) -> GraphMorphism:
    try:
        vmap = dict(data["vertex_map"].items())
        emap = dict(data.get("edge_map", {}).items())
    except (KeyError, TypeError, AttributeError) as exc:
        raise MorphismError(f"malformed morphism document: {exc}") from exc
    for k, v in (*vmap.items(), *emap.items()):
        if not (isinstance(k, str) and isinstance(v, str)):
            raise MorphismError(f"malformed morphism entry {k!r}: {v!r}; ids must be strings")
    return GraphMorphism.build(source, target, vmap, emap)


def chain_from_json(data: dict) -> GraphChain:
    try:
        raw_gs = data["graphs"]
        raw_ms = data.get("morphisms", [])
        if not isinstance(raw_gs, list) or not isinstance(raw_ms, list):
            raise MorphismError("'graphs' and 'morphisms' must be arrays")
        graphs = [graph_from_json(g) for g in raw_gs]
    except (KeyError, TypeError) as exc:
        raise MorphismError(f"malformed system document: {exc}") from exc
    if not graphs:
        raise MorphismError("a chain needs at least one graph")
    if len(raw_ms) != len(graphs) - 1:
        raise MorphismError("system must list one morphism between consecutive graphs")
    steps = [
        morphism_from_json(raw, graphs[i], graphs[i + 1]) for i, raw in enumerate(raw_ms)
    ]
    return GraphChain.build(graphs, steps)
