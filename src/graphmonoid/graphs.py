"""Directed graphs with sinks and finitely presented infinite emitters.

A vertex may be declared an infinite emitter by attaching an
:class:`EdgeIndexDescriptor`, an eventually periodic list of range vertices
for its out-edge family e_0, e_1, e_2, ...  Only finitely many of those
edges are ever materialized as concrete edges; the descriptor fixes the
range of every index, materialized or not.
"""

from __future__ import annotations

import enum
import functools
import operator
from typing import Iterable, Mapping


class GraphmonoidError(ValueError):
    """Every error the library raises: invalid input, or (BudgetExceededError) an undecided instance."""


class GraphError(GraphmonoidError):
    """Raised for operations on malformed graphs or unknown ids."""


_MISSING = object()
_setattr = object.__setattr__  # past Record's __setattr__, one global read


class lazy:
    """A value computed once from one object, kept in its __dict__ under the function's name.

    Every such value is kept this way but the completed system, which
    depends on a budget (engine.completed_system).  On a class, a field as
    functools.cached_property makes one, without its class-wide lock.  On a
    function f of one object, named as no attribute of its class, f(obj) is
    the kept value, or computes and keeps it; a failed call keeps nothing.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        functools.update_wrapper(self, func)

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value

    def __call__(self, obj):
        value = obj.__dict__.get(self.name, _MISSING)
        if value is _MISSING:
            value = obj.__dict__[self.name] = self.func(obj)
        return value


class Record:
    """An immutable value with named fields, compared and hashed by them.

    A subclass lists its fields in order in _fields and sets them in its own
    __init__: through object.__setattr__ on a slotted class, into __dict__
    otherwise.  After that no attribute can be set or deleted.  Equality
    (same class, equal fields), hash and repr ("Name(field=value, ...)")
    follow the fields, read by one operator.attrgetter per class; a class
    compared by identity puts object's __eq__ and __hash__ back.  lazy keeps
    derived values in __dict__, which equality and hash do not read.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = operator.attrgetter(*cls._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Edge(Record):
    __slots__ = _fields = ("id", "src", "dst")
    id: str
    src: str
    dst: str

    def __init__(self, id: str, src: str, dst: str):
        _setattr(self, "id", id)
        _setattr(self, "src", src)
        _setattr(self, "dst", dst)

    # Record's eq and hash with the fields read inline: attrgetter's
    # generic reads take 1.4-1.8 times as long on CPython 3.11
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.id, self.src, self.dst) == (other.id, other.src, other.dst)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.id, self.src, self.dst))

    def __reduce__(self):
        return Edge, (self.id, self.src, self.dst)


class EdgeIndexDescriptor(Record):
    """Eventually periodic range assignment n -> range_at(n) for an out-edge family."""

    _fields = ("prefix", "cycle")
    prefix: tuple[str, ...]
    cycle: tuple[str, ...]

    def __init__(self, prefix: tuple[str, ...], cycle: tuple[str, ...]):
        if not cycle:
            raise GraphError("descriptor cycle must be non-empty")
        self.__dict__.update(prefix=prefix, cycle=cycle)

    def range_at(self, n: int) -> str:
        if n < 0:
            raise GraphError(f"edge index must be >= 0, got {n}")
        if n < len(self.prefix):
            return self.prefix[n]
        return self.cycle[(n - len(self.prefix)) % len(self.cycle)]


class VertexClass(enum.Enum):
    REGULAR = "regular"
    SINK = "sink"
    INFINITE_EMITTER = "infinite_emitter"


class Graph(Record):
    """Immutable directed graph.

    ``emitters`` holds one entry per declared infinite emitter:
    (vertex, descriptor, materialized edge ids in index order).  A vertex
    with a descriptor is singular no matter how many edges are
    materialized; regularity is never inferred from counts.
    """

    _fields = ("vertices", "edges", "emitters")
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    emitters: tuple[tuple[str, EdgeIndexDescriptor, tuple[str, ...]], ...]

    def __init__(
        self,
        vertices: tuple[str, ...] = (),
        edges: tuple[Edge, ...] = (),
        emitters: tuple[tuple[str, EdgeIndexDescriptor, tuple[str, ...]], ...] = (),
    ):
        self.__dict__.update(vertices=vertices, edges=edges, emitters=emitters)

    @classmethod
    def build(
        cls,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str, str]] = (),
        emitters: Mapping[str, tuple[EdgeIndexDescriptor, Iterable[str]]] | None = None,
    ) -> "Graph":
        """Canonical constructor from plain data; (id, src, dst) edge triples."""
        es = tuple(sorted((Edge(*t) for t in edges), key=lambda e: e.id))
        ems = tuple(
            (v, desc, tuple(mat))
            for v, (desc, mat) in sorted((emitters or {}).items())
        )
        return cls(tuple(sorted(vertices)), es, ems)

    # Lookups derived from the fields, built once by lazy (equality and hash
    # still compare the fields); reversed, so that the first of repeated ids
    # wins, as a scan would find it.

    def __getstate__(self) -> dict:
        # a copy or unpickled graph carries no derived data: it builds its
        # own lookups, alphabet and presentation
        return {"vertices": self.vertices, "edges": self.edges, "emitters": self.emitters}

    @lazy
    def _edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in reversed(self.edges)}

    @lazy
    def _emitter_by_vertex(self) -> dict[str, tuple[EdgeIndexDescriptor, tuple[str, ...]]]:
        return {v: (desc, mat) for v, desc, mat in reversed(self.emitters)}

    @lazy
    def _out_edges(self) -> dict[str, list[Edge]]:
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.src in out:
                out[e.src].append(e)
        return out

    @lazy
    def validation(self) -> "ValidationReport":
        """``validate_graph(self)``, computed once."""
        return validate_graph(self)

    def has_vertex(self, v: str) -> bool:
        return v in self._out_edges

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge_by_id[eid]
        except KeyError:
            raise GraphError(f"unknown edge id {eid!r}") from None

    def descriptor(self, v: str) -> EdgeIndexDescriptor | None:
        desc, _ = self._emitter_by_vertex.get(v, (None, ()))
        return desc

    def materialized(self, v: str) -> tuple[str, ...]:
        """Materialized out-edge ids of emitter v, in index order."""
        try:
            return self._emitter_by_vertex[v][1]
        except KeyError:
            raise GraphError(f"{v!r} is not an infinite emitter") from None

    def is_infinite_emitter(self, v: str) -> bool:
        return v in self._emitter_by_vertex

    def edge_index(self, v: str, eid: str) -> int:
        """Index n of materialized edge e_n of emitter v."""
        mat = self.materialized(v)
        try:
            return mat.index(eid)
        except ValueError:
            raise GraphError(f"edge {eid!r} is not a materialized edge of {v!r}") from None


class ValidationReport(Record):
    _fields = ("violations",)
    violations: tuple[str, ...]

    def __init__(self, violations: tuple[str, ...] = ()):
        self.__dict__["violations"] = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_graph(g: Graph) -> ValidationReport:
    """Report every invariant violation; an empty report means the graph is valid."""
    bad: list[str] = []
    vset: set[str] = set()
    for v in g.vertices:
        if v in vset:
            bad.append(f"duplicate vertex id {v!r}")
        vset.add(v)
    by_id: dict[str, Edge] = {}
    by_src: dict[str, list[str]] = {}
    for e in g.edges:
        if e.id in by_id:
            bad.append(f"duplicate edge id {e.id!r}")
        by_id[e.id] = e
        by_src.setdefault(e.src, []).append(e.id)
        if e.src not in vset:
            bad.append(f"edge {e.id!r} has unknown source {e.src!r}")
        if e.dst not in vset:
            bad.append(f"edge {e.id!r} has unknown range {e.dst!r}")

    emitter_vs = set()
    for v, desc, mat in g.emitters:
        if v in emitter_vs:
            bad.append(f"duplicate emitter declaration for {v!r}")
        emitter_vs.add(v)
        if v not in vset:
            bad.append(f"emitter {v!r} is not a vertex")
        unknown = [w for w in desc.prefix + desc.cycle if w not in vset]
        bad.extend(f"descriptor of {v!r} names unknown vertex {w!r}" for w in unknown)
        seen_mat: set[str] = set()
        for n, eid in enumerate(mat):
            if eid in seen_mat:
                bad.append(f"emitter {v!r} lists edge {eid!r} twice")
            seen_mat.add(eid)
            e = by_id.get(eid)
            if e is None:
                bad.append(f"emitter {v!r} lists unknown edge {eid!r}")
                continue
            if e.src != v:
                bad.append(f"materialized edge {eid!r} of {v!r} has source {e.src!r}")
            if not unknown and e.dst != desc.range_at(n):
                bad.append(
                    f"materialized edge {eid!r} of {v!r} at index {n} has range "
                    f"{e.dst!r}, descriptor prescribes {desc.range_at(n)!r}"
                )
        # every concrete out-edge of an emitter must be one of its indexed edges
        for eid in by_src.get(v, ()):
            if eid not in seen_mat:
                bad.append(f"edge {eid!r} leaves emitter {v!r} but is not in its materialized list")
    return ValidationReport(tuple(bad))


def require_valid(g: Graph) -> Graph:
    rep = g.validation
    if not rep.ok:
        raise GraphError("invalid graph: " + "; ".join(rep.violations))
    return g


def vertex_class(g: Graph, v: str) -> VertexClass:
    """Classify v as regular, sink or infinite emitter."""
    if not g.has_vertex(v):
        raise GraphError(f"unknown vertex id {v!r}")
    if g.is_infinite_emitter(v):
        return VertexClass.INFINITE_EMITTER
    return VertexClass.REGULAR if g._out_edges[v] else VertexClass.SINK


def out_edges(g: Graph, v: str) -> tuple[Edge, ...]:
    """Materialized out-edges of v; index order for emitters, id order otherwise."""
    if not g.has_vertex(v):
        raise GraphError(f"unknown vertex id {v!r}")
    if g.is_infinite_emitter(v):
        return tuple(g.edge(eid) for eid in g.materialized(v))
    return tuple(g._out_edges[v])


def materialize_edges(g: Graph, v: str, k: int) -> Graph:
    """Return g with edges e_0..e_{k-1} of emitter v instantiated.

    Idempotent when k equals the current count; refuses to shrink.
    """
    mat = g.materialized(v)  # raises unless v is an infinite emitter
    desc = g.descriptor(v)
    if type(k) is not int:
        raise GraphError(f"edge count {k!r} is not an int")
    if k < len(mat):
        raise GraphError(f"cannot shrink materialized edges of {v!r} from {len(mat)} to {k}")
    if k == len(mat):
        return g
    new_edges = []
    for n in range(len(mat), k):
        eid = f"e{n}^{v}"
        if eid in g._edge_by_id:
            raise GraphError(f"generated edge id {eid!r} already in use")
        new_edges.append(Edge(eid, v, desc.range_at(n)))
    edges = tuple(sorted(g.edges + tuple(new_edges), key=lambda e: e.id))
    new_ids = tuple(e.id for e in new_edges)
    emitters = tuple(
        (u, d, (m + new_ids) if u == v else m) for u, d, m in g.emitters
    )
    return Graph(g.vertices, edges, emitters)


def graph_to_json(g: Graph, boundary: frozenset[str] | set[str] = frozenset()) -> dict:
    """Graph JSON document; boundary vertices get a {"boundary": true} annotation."""
    verts: list = []
    for v in g.vertices:
        if v in boundary:
            verts.append({"id": v, "boundary": True})
        else:
            verts.append(v)
    # per-emitter blocks last, in index order (array order carries the indices)
    in_emitters = {eid for _, _, mat in g.emitters for eid in mat}
    rest = sorted((e for e in g.edges if e.id not in in_emitters), key=lambda e: e.id)
    blocks = [g.edge(eid) for _, _, mat in g.emitters for eid in mat]
    edges = [{"id": e.id, "src": e.src, "dst": e.dst} for e in rest + blocks]
    emitters = {
        v: {"prefix": list(d.prefix), "cycle": list(d.cycle), "materialized": len(mat)}
        for v, d, mat in g.emitters
    }
    return {"vertices": verts, "edges": edges, "infinite_emitters": emitters}


def graph_from_json(data: dict) -> Graph:
    """Parse the Graph JSON format; materialized edge indices follow array order."""
    if not isinstance(data, dict):
        raise GraphError("graph document must be a JSON object")
    try:
        raw_vs = data["vertices"]
    except KeyError as exc:
        raise GraphError("graph document lacks a 'vertices' array") from exc
    raw_es = data.get("edges", [])
    raw_em = data.get("infinite_emitters", {})
    if not isinstance(raw_vs, list) or not isinstance(raw_es, list):
        raise GraphError("'vertices' and 'edges' must be arrays")
    if not isinstance(raw_em, dict):
        raise GraphError("'infinite_emitters' must be an object")
    vertices = []
    for item in raw_vs:
        if isinstance(item, str):
            vertices.append(item)
        elif isinstance(item, dict) and isinstance(item.get("id"), str):
            vertices.append(item["id"])
        else:
            raise GraphError(f"malformed vertex entry {item!r}")
    edges = []
    by_src: dict[str, list[str]] = {}
    for item in raw_es:
        if not isinstance(item, dict) or not all(isinstance(item.get(k), str) for k in ("id", "src", "dst")):
            raise GraphError(f"malformed edge entry {item!r}")
        edges.append((item["id"], item["src"], item["dst"]))
        by_src.setdefault(item["src"], []).append(item["id"])
    emitters = {}
    for v, entry in raw_em.items():
        if not isinstance(entry, dict):
            raise GraphError(f"emitter entry for {v!r} must be an object")
        prefix, cycle = entry.get("prefix", []), entry.get("cycle")
        # a string would otherwise be read as a list of one-character vertex ids
        if not isinstance(prefix, list) or not isinstance(cycle, list):
            raise GraphError(f"emitter {v!r}: 'prefix' and 'cycle' must be arrays")
        if not all(isinstance(x, str) for x in prefix + cycle):
            raise GraphError(f"emitter {v!r}: 'prefix' and 'cycle' must list vertex ids as strings")
        desc = EdgeIndexDescriptor(tuple(prefix), tuple(cycle))
        count = entry.get("materialized", 0)
        if isinstance(count, bool) or not isinstance(count, int):
            raise GraphError(f"emitter {v!r}: 'materialized' must be an integer, got {count!r}")
        mat = by_src.get(v, [])
        if len(mat) != count:
            raise GraphError(
                f"emitter {v!r} declares {count} materialized edges but "
                f"{len(mat)} edges have source {v!r}"
            )
        emitters[v] = (desc, mat)
    return Graph.build(vertices, edges, emitters)


def boundary_from_json(data: dict) -> frozenset[str]:
    """The vertices a Graph JSON document marks with "boundary"; GraphError on a malformed document."""
    raw_vs = data.get("vertices", []) if isinstance(data, dict) else None
    if not isinstance(raw_vs, list):
        raise GraphError("graph document must be a JSON object whose 'vertices' is an array")
    out = set()
    for item in raw_vs:
        if isinstance(item, dict) and item.get("boundary"):
            if not isinstance(item.get("id"), str):
                raise GraphError(f"malformed vertex entry {item!r}")
            out.add(item["id"])
    return frozenset(out)

