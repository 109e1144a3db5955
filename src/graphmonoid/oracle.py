"""Independent ground truth on finite acyclic row-finite graphs.

On such a graph the monoid is free on the sinks, and the class of a_v is
determined by the vector of path counts from v to each sink: forward
rewriting by the regular-vertex relations terminates (ranges sit strictly
lower in the DAG) and is confluent (left-hand sides are single generators),
so the normal form of a_v counts paths.  This gives a second, completion-free
route to equality against which the word engine is cross-checked.
"""

from __future__ import annotations

import heapq
import operator
from typing import Iterable, Mapping

from .engine import equal
from .graphs import Graph, GraphError, GraphmonoidError, Record, VertexClass, lazy, out_edges, require_valid, vertex_class
from .limits import GraphMorphism, _induced_map
from .presentation import (
    Generator,
    MonoidElement,
    presentation_of,
)


class OracleError(GraphmonoidError):
    """A graph or query outside the oracle's domain: emitters, cycles, cofinite generators, bad counts."""


def _count(n, what: str) -> int:
    """n as a Python int >= 0: ints and numpy integers pass; floats, bools and negatives raise."""
    if not isinstance(n, bool):
        try:
            n = operator.index(n)
        except TypeError:
            pass
        else:
            if n < 0:
                raise OracleError(f"{what} must be >= 0, got {n}")
            return n
    raise OracleError(f"{what} must be an integer, got {n!r}")


class SinkVector(Record):
    _fields = ("counts",)
    counts: tuple[tuple[str, int], ...]

    def __init__(self, counts: tuple[tuple[str, int], ...] = ()):
        self.__dict__["counts"] = counts

    @classmethod
    def from_dict(cls, d: Mapping[str, int]) -> "SinkVector":
        """Sink ids mapped to path counts; a count that is not an integer >= 0 raises OracleError."""
        items = []
        for k, v in d.items():
            if type(v) is not int or v < 0:
                v = _count(v, f"path count of sink {k!r}")
            if v:
                items.append((k, v))
        return cls(tuple(sorted(items)))

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)

    def __add__(self, other: "SinkVector") -> "SinkVector":
        d = self.as_dict()
        for k, v in other.counts:
            d[k] = d.get(k, 0) + v
        return SinkVector.from_dict(d)

    def __mul__(self, n: int) -> "SinkVector":
        if type(n) is not int or n < 0:
            n = _count(n, "scalar")
        return SinkVector.from_dict({k: v * n for k, v in self.counts})

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.counts)


def topological_order(g: Graph) -> tuple[str, ...]:
    """Vertices with every edge pointing forward, smallest ready vertex first; raises on cycles."""
    require_valid(g)
    if g.emitters:
        raise OracleError("graph has infinite emitters; the oracle needs row-finite input")
    indeg = {v: 0 for v in g.vertices}
    for e in g.edges:
        indeg[e.dst] += 1
    ready = sorted(v for v, d in indeg.items() if d == 0)  # a sorted list is a heap
    order: list[str] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for e in out_edges(g, v):
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                heapq.heappush(ready, e.dst)
    if len(order) != len(g.vertices):
        raise OracleError("graph has a cycle; the oracle needs acyclic input")
    return tuple(order)


@lazy
def _path_counts(g: Graph) -> dict[str, SinkVector]:
    """Path-count vectors of every vertex, one reverse-topological sweep, built once per graph.

    Shared by every caller, so the dict itself is never handed out.
    """
    table = {}
    for v in reversed(topological_order(g)):
        if vertex_class(g, v) is VertexClass.SINK:
            table[v] = SinkVector(((v, 1),))
        else:
            table[v] = _weighted_sum((table[e.dst], 1) for e in out_edges(g, v))
    return table


def _weighted_sum(terms: Iterable[tuple[SinkVector, int]]) -> SinkVector:
    """Σ mult·sv over (sv, mult) terms, added into one dict."""
    total: dict[str, int] = {}
    for sv, mult in terms:
        for w, n in sv.counts:
            total[w] = total.get(w, 0) + n * mult
    return SinkVector.from_dict(total)


def path_count_table(g: Graph) -> dict[str, SinkVector]:
    """Path-count vectors of every vertex, as a fresh dict."""
    return dict(_path_counts(g))


def path_count(g: Graph, v: str) -> SinkVector:
    """Number of directed paths from v to each sink; a sink counts its empty path."""
    if not g.has_vertex(v):
        raise GraphError(f"unknown vertex id {v!r}")
    return _path_counts(g)[v]


def gamma_acyclic(g: Graph, x: MonoidElement) -> SinkVector:
    """Additive extension of path counting to elements over vertex generators."""
    table = _path_counts(g)
    for gen, _ in x.terms:
        if gen.is_cofinite:
            raise OracleError(f"{gen} is a cofinite generator; the oracle domain is row-finite")
        if gen.vertex not in table:
            raise GraphError(f"unknown vertex generator {gen}")
    return _weighted_sum((table[gen.vertex], mult) for gen, mult in x.terms)


class CrossCheckReport(Record):
    _fields = ("agreements", "discrepancies")
    agreements: int
    discrepancies: tuple[str, ...]

    def __init__(self, agreements: int, discrepancies: tuple[str, ...] = ()):
        self.__dict__.update(agreements=agreements, discrepancies=discrepancies)

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def cross_check(
    g: Graph,
    pairs: Iterable[tuple[MonoidElement, MonoidElement]],
    budget: int | None = None,
) -> CrossCheckReport:
    """Compare the word engine against path counting on each pair of elements."""
    p = presentation_of(g)
    agreements = 0
    bad: list[str] = []
    for u, v in pairs:
        by_engine = bool(equal(p, u, v, budget))
        by_counts = gamma_acyclic(g, u) == gamma_acyclic(g, v)
        if by_engine == by_counts:
            agreements += 1
        else:
            bad.append(
                f"engine says {by_engine}, path counts say {by_counts} for {u} vs {v}"
            )
    return CrossCheckReport(agreements, tuple(bad))


def sink_transfer(m: GraphMorphism, sv: SinkVector) -> SinkVector:
    """Push a source sink vector through a morphism into the target's sink basis.

    The unit at a source sink w contributes the target path-count vector of
    its image; this is the matrix the morphism induces on free sink bases.
    """
    table = _path_counts(m.target)
    vmap = m.vertex_map()
    return _weighted_sum((table[vmap[w]], mult) for w, mult in sv.counts)


class NaturalityReport(Record):
    _fields = ("checked", "mismatches")
    checked: int
    mismatches: tuple[str, ...]

    def __init__(self, checked: int, mismatches: tuple[str, ...] = ()):
        self.__dict__.update(checked=checked, mismatches=mismatches)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_naturality(m: GraphMorphism) -> NaturalityReport:
    """Verify the square: induced map then oracle equals oracle then transfer.

    Both graphs must be finite acyclic row-finite; checked exactly on every
    vertex generator of the source.
    """
    _path_counts(m.source)
    _path_counts(m.target)
    mu = _induced_map(m)
    checked = 0
    bad: list[str] = []
    for v in m.source.vertices:
        x = MonoidElement.single(Generator(v))
        via_map = gamma_acyclic(m.target, mu(x))
        via_transfer = sink_transfer(m, gamma_acyclic(m.source, x))
        checked += 1
        if via_map != via_transfer:
            bad.append(
                f"square does not commute at a_({v}): {via_map.as_dict()} vs "
                f"{via_transfer.as_dict()}"
            )
    return NaturalityReport(checked, tuple(bad))


def sink_vector_to_json(sv: SinkVector) -> dict:
    return sv.as_dict()


def sink_vector_from_json(data: dict) -> SinkVector:
    """Read sink ids mapped to path counts; every count must be an integer >= 0."""
    if not isinstance(data, dict):
        raise OracleError(f"sink vector must be an object, got {data!r}")
    for sink in data:
        if not isinstance(sink, str):
            raise OracleError(f"sink id must be a string, got {sink!r}")
    return SinkVector.from_dict(data)
