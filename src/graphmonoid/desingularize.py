"""Row-finite approximations of a graph by attaching tails to singular vertices.

Every singular vertex v grows a tail w_0(v) -> w_1(v) -> ... -> w_N(v) of
fresh vertices joined by edges g_n^v.  Out-edges are redistributed: a finite
emitter keeps its edges at w_0(v); the n-th out-edge of an infinite emitter
leaves from w_n(v) instead.  The construction is truncated at a level N, and
the tail ends w_N(v) (the boundary) carry no out-edges, so every relation of
the untruncated graph that only mentions indices below N holds verbatim.

The two generator maps realize the isomorphism between the monoid of the
original graph and the monoid of its row-finite approximation:

  to_tailed:   a_v -> b_{w_0(v)}
               a_{v,S} -> b_{w_{n+1}(v)} + sum of b over redistributed edges
               missing from S, where n is the largest index in S;
  from_tailed: b_{w_0(v)} -> a_v,
               b_{w_n(v)} -> a_{v, {e_0..e_{n-1}}} for emitters, a_v for sinks.

phi and psi are their additive extensions, each compiled once per
approximation into a GeneratorMap over the two graphs' alphabets
(presentation.generators, one Generator object per entry): per column of
its domain, the image as sparse (column, count) pairs over the other alphabet,
computed the first time it is used and then kept.  An element's terms are
summed by column, and the image is built in column order, which is the
canonical order, from the codomain alphabet's own generators; a lone
generator gets its stored image element as it is.  A generator whose image
raises (TruncationError, MaterializationError, PresentationError,
GraphError) gets no entry, so the error is raised again on every call.
"""

from __future__ import annotations

from functools import partial

from .graphs import (
    Graph,
    GraphError,
    GraphmonoidError,
    Record,
    VertexClass,
    lazy,
    require_valid,
    vertex_class,
)
from .presentation import (
    Generator,
    GeneratorMap,
    Image,
    Key,
    MonoidElement,
    PresentationError,
    generators,
    graph_alphabet,
)


class TruncationError(GraphmonoidError):
    """Truncation level too small for the element; carries the required level."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class MaterializationError(GraphmonoidError):
    """The map would need a generator over edges that are not materialized."""


def w_name(v: str, n: int) -> str:
    return f"w{n}({v})"


def f_name(v: str, n: int) -> str:
    return f"f{n}^{v}"


def g_name(v: str, n: int) -> str:
    return f"g{n}^{v}"


class Desingularization(Record):
    _fields = ("source", "level", "graph", "boundary")
    source: Graph
    level: int
    graph: Graph
    boundary: frozenset[str]
    # each tail vertex name -> (source vertex, tail index); determined by the
    # fields, so equality, hash and repr leave it out
    origin: dict[str, tuple[str, int]]

    def __init__(
        self,
        source: Graph,
        level: int,
        graph: Graph,
        boundary: frozenset[str],
        origin: dict[str, tuple[str, int]],
    ):
        self.__dict__.update(source=source, level=level, graph=graph, boundary=boundary, origin=origin)

    def mentions_boundary(self, y: MonoidElement) -> bool:
        boundary = self.boundary
        for g, _ in y.terms:
            if g[0] in boundary:
                return True
        return False

    # phi and psi compiled over the two alphabets, each generator's image
    # computed on its first use; equality and hash still compare the
    # fields.  The image rules hold the graphs and the origin map, not the
    # Desingularization, so there is no reference cycle.

    @lazy
    def _to_tailed(self) -> GeneratorMap:
        """phi: the source alphabet into the tailed graph's."""
        source, index, _ = graph_alphabet(self.source)
        tailed, _, columns = graph_alphabet(self.graph)
        return GeneratorMap(source, index, tailed, partial(_to_tailed_image, self.source, self.level, columns))

    @lazy
    def _from_tailed(self) -> GeneratorMap:
        """psi: the tailed graph's alphabet into the source alphabet."""
        tailed, index, _ = graph_alphabet(self.graph)
        source, _, columns = graph_alphabet(self.source)
        return GeneratorMap(tailed, index, source, partial(_from_tailed_image, self.source, self.origin, columns))


def desingularize(g: Graph, level: int) -> Desingularization:
    """Build the truncated row-finite approximation at the given level."""
    require_valid(g)
    if type(level) is not int:
        raise GraphError(f"truncation level {level!r} is not an int")
    if level < 1:
        raise GraphError(f"truncation level must be >= 1, got {level}")
    edges: list[tuple[str, str, str]] = []
    boundary: set[str] = set()
    origin: dict[str, tuple[str, int]] = {}  # every tailed vertex
    emitters = g._emitter_by_vertex
    for v, out in g._out_edges.items():  # the vertices in order, each with its out-edges
        w0 = w_name(v, 0)
        origin[w0] = (v, 0)
        if out and v not in emitters:  # v is regular
            for n, e in enumerate(out):
                edges.append((f_name(v, n), w0, w_name(e.dst, 0)))
            continue
        tail = [w0]
        for n in range(1, level + 1):
            tail.append(w_name(v, n))
            origin[tail[n]] = (v, n)
        boundary.add(tail[level])
        for n in range(level):
            edges.append((g_name(v, n), tail[n], tail[n + 1]))
        if v in emitters:
            desc = emitters[v][0]
            for n in range(level):
                edges.append((f_name(v, n), tail[n], w_name(desc.range_at(n), 0)))
    tailed = Graph.build(origin, edges)
    require_valid(tailed)
    return Desingularization(g, level, tailed, frozenset(boundary), origin)


def _max_index(g: Graph, gen: Generator) -> int:
    return max(g.edge_index(gen.vertex, eid) for eid in gen.edges)


def required_truncation(g: Graph, x: MonoidElement) -> int:
    """Smallest safe level for mapping x into the tailed graph: max index + 2, floor 2."""
    best = 0
    for gen in x.support():
        if gen.is_cofinite:
            best = max(best, _max_index(g, gen))
    return max(2, best + 2)


def _to_tailed_image(g: Graph, level: int, columns: dict[Key, int], gen: Generator) -> Image:
    """gen's image under phi over the tailed alphabet's columns."""
    if not gen.is_cofinite:
        if not g.has_vertex(gen.vertex):
            raise PresentationError(f"unknown vertex generator {gen}")
        return ((columns[w_name(gen.vertex, 0), None], 1),)
    v = gen.vertex
    indices = sorted(g.edge_index(v, eid) for eid in gen.edges)
    n = indices[-1]
    if n + 1 > level:
        raise TruncationError(
            f"level {level} too small for edge index {n} of {v!r}; "
            f"required truncation is {n + 2}",
            required=n + 2,
        )
    in_s = set(indices)
    desc = g.descriptor(v)
    counts = {columns[w_name(v, n + 1), None]: 1}
    for k in range(n + 1):
        if k not in in_s:
            c = columns[w_name(desc.range_at(k), 0), None]
            counts[c] = counts.get(c, 0) + 1
    return tuple(sorted(counts.items()))


def _from_tailed_image(g: Graph, origin: dict[str, tuple[str, int]], columns: dict[Key, int], gen: Generator) -> Image:
    """gen's image under psi over the source alphabet's columns."""
    if gen.is_cofinite:
        raise PresentationError(f"tailed graph is row-finite; {gen} is not a vertex generator")
    try:
        v, n = origin[gen.vertex]
    except KeyError:
        raise PresentationError(f"{gen.vertex!r} is not a vertex of the tailed graph") from None
    if n == 0 or vertex_class(g, v) is VertexClass.SINK:
        return ((columns[v, None], 1),)
    mat = g.materialized(v)
    if len(mat) < n:
        raise MaterializationError(
            f"mapping w_{n}({v}) back needs edges e_0..e_{n - 1} of {v!r} "
            f"materialized, only {len(mat)} are"
        )
    return ((columns[v, mat[:n]], 1),)


def phi(d: Desingularization, x: MonoidElement) -> MonoidElement:
    """Map an element of the source monoid into the tailed graph's monoid, over its alphabet's generators."""
    return d._to_tailed(x)


def psi(d: Desingularization, y: MonoidElement) -> MonoidElement:
    """Map an element of the tailed graph's monoid back to the source monoid, over its alphabet's generators."""
    return d._from_tailed(y)


def phi_generator_map(d: Desingularization) -> dict[Generator, MonoidElement]:
    return d._to_tailed.as_dict()


def psi_generator_map(d: Desingularization) -> dict[Generator, MonoidElement]:
    """Images of all tailed-graph generators for which the inverse map is defined."""
    out = {}
    for gen in generators(d.graph):  # all vertex generators, in name order
        try:
            out[gen] = d._from_tailed[gen]
        except MaterializationError:
            pass
    return out
