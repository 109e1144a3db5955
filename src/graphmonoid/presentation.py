"""Generators, relations and free-commutative-monoid arithmetic for graph monoids.

The monoid attached to a graph is presented by one generator a_v per vertex
and one generator a_{v,S} per infinite emitter v and non-empty set S of its
materialized out-edges.  Relations:

  (R1)  a_v = sum of a_{r(e)} over out-edges e, for every regular v;
  (R2)  a_{v,S} = a_{v,M} + sum of a_{r(e)} over e in M\\S, for every proper
        subset S of the materialized edges M of an emitter v (a_{v,{}} = a_v).

Sinks contribute nothing.  R2 is the paper's q_Z = q_Y + sum_{Y\\Z} a_{r(e)}
for finite Z <= Y (q_S = a_{v,S}, with q_{} = a_v) at Y = M; the relation for
any Z <= Y follows from those for Z and Y.  So an emitter with k materialized
edges has 2^k - 1 relations, one per generator a_{v,S} other than a_{v,M}.

A graph's alphabet is built once and kept on the graph (graph_alphabet):
its relations, its presentation, element_from_json and every GeneratorMap
over it use the same Generator objects, so a lookup finds the key object
itself.  element_from_json reads an element by column: each term's
generator document is looked up among the graph's columns by (vertex,
edges), counts are summed by column and the element is built with an int
sort; a document in no canonical form goes through generator_from_json,
which checks it and raises its errors.  A GeneratorMap is a monoid
morphism compiled over a pair of alphabets, one sparse image per domain
column; phi and psi, induced maps, the connecting maps of a chain, the
family of a universal map and a completed system's definitions are all
GeneratorMaps.  A chain and a universal map store the compiled maps
themselves, not a second copy of their images, and compare by identity.
apply_generator_map stays as the reference for a plain dict of images.

A Presentation's alphabet is strictly increasing in canonical order
(Generator.sort_key), so its column order is canonical order: an element
built by column, in column order, is in canonical term order.  A
Presentation refuses any other alphabet, and a relation count that is not a
positive int.  A graph's presentation is kept on the graph too
(presentation_of).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterable, Mapping

from .graphs import Graph, lazy, require_valid


class PresentationError(ValueError):
    pass


class Generator(tuple):
    """a_v when edges is None, else a_{v,S} with S = edges in index order.

    An immutable value: the pair (vertex, edges), kept as a tuple, so it
    hashes as that tuple does with tuple's C hash.  It equals another
    Generator with the same fields and nothing else, a plain tuple included.
    """

    __slots__ = ()

    def __new__(cls, vertex: str, edges: tuple[str, ...] | None = None):
        if edges is not None and (type(edges) is not tuple or not edges):
            raise PresentationError(f"cofinite generator needs a non-empty tuple of edges, got {edges!r}")
        return tuple.__new__(cls, (vertex, edges))

    vertex = property(operator.itemgetter(0))
    edges = property(operator.itemgetter(1))

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return isinstance(other, Generator) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"Generator(vertex={self[0]!r}, edges={self[1]!r})"

    @property
    def is_cofinite(self) -> bool:
        return self.edges is not None

    def sort_key(self):
        v, edges = self
        return (0, v) if edges is None else (1, v, edges)

    def __str__(self):
        v, edges = self
        return f"a({v})" if edges is None else f"a({v},{{{','.join(edges)}}})"


def _term_key(term: tuple[Generator, int]):
    """A term's place in canonical order: its generator's sort_key."""
    v, edges = term[0]
    return (0, v) if edges is None else (1, v, edges)


def _precedes(a: Generator, b: Generator) -> bool:
    """Whether a comes strictly before b in canonical order (Generator.sort_key), compared
    without building keys: every a_v first, by vertex, then every a_{v,S}, by (vertex, edges)
    as a tuple."""
    if a[1] is None:
        return b[1] is not None or a[0] < b[0]
    return b[1] is not None and a < b


def vgen(v: str) -> Generator:
    return Generator(v)


def sgen(g: Graph, v: str, edge_ids: Iterable[str]) -> Generator:
    """Cofinite generator a_{v,S}, with S canonically sorted by edge index."""
    ids = list(edge_ids)
    if not g.is_infinite_emitter(v):
        raise PresentationError(f"{v!r} is not an infinite emitter")
    indexed = sorted((g.edge_index(v, eid), eid) for eid in ids)
    if len(set(ids)) != len(ids):
        raise PresentationError(f"edge set for a_({v},S) lists an edge twice")
    return Generator(v, tuple(eid for _, eid in indexed))


def _integer(m, what: str) -> int:
    """m as a Python int: ints and numpy integers pass, floats and bools do not."""
    if not isinstance(m, bool):
        try:
            return operator.index(m)
        except TypeError:
            pass
    raise PresentationError(f"{what} must be an integer, got {m!r}")


def _count(m, gen: Generator) -> int:
    """m as a count of gen, an int of at least 0; callers skip it for an int count that passes."""
    if type(m) is not int:
        m = _integer(m, f"multiplicity of {gen}")
    if m < 0:
        raise PresentationError(f"negative multiplicity for {gen}")
    return m


@dataclass(frozen=True, slots=True)
class MonoidElement:
    """Finite formal sum of generators with positive integer multiplicities."""

    terms: tuple[tuple[Generator, int], ...] = ()

    @classmethod
    def from_counts(cls, counts: Mapping[Generator, int]) -> "MonoidElement":
        """The element with these multiplicities: zero counts dropped, terms in canonical generator order.

        Raises PresentationError on a negative count or one that is not an
        integer.  Only two or more terms are sorted.
        """
        items = []
        for gen, mult in counts.items():
            if type(mult) is not int or mult < 1:
                mult = _count(mult, gen)
                if not mult:
                    continue
            items.append((gen, mult))
        if len(items) > 1:
            items.sort(key=_term_key)
        return cls(tuple(items))

    @classmethod
    def single(cls, gen: Generator, mult: int = 1) -> "MonoidElement":
        """mult * gen, checked as from_counts({gen: mult}) checks it."""
        if type(mult) is not int or mult < 0:
            mult = _count(mult, gen)
        return cls(((gen, mult),) if mult else ())

    def counts(self) -> dict[Generator, int]:
        """Each generator's count, summed over the terms that list it and checked, as elem_sum does."""
        return dict(elem_sum((self,)).terms)

    def support(self) -> tuple[Generator, ...]:
        return tuple([g for g, _ in self.terms])

    def exponent(self, gen: Generator) -> int:
        return self.counts().get(gen, 0)

    def degree(self) -> int:
        return sum(m for _, m in self.terms)

    def __add__(self, other: "MonoidElement") -> "MonoidElement":
        return elem_sum((self, other))

    def __mul__(self, n: int) -> "MonoidElement":
        """n * self, in canonical form.

        Scaling keeps the canonical term order, so a canonical element (see
        _canonical) is scaled term by term, and ``x * 1`` is x itself.  Any
        other element is made canonical first: each term is checked as
        single checks it (a count that is not an integer, or is negative,
        raises) and the terms are summed as elem_sum sums them, so a
        generator listed twice gets the sum of its counts.
        """
        if type(n) is not int:
            n = _integer(n, "scalar")
        if n < 0:
            raise PresentationError("multiplicity must be non-negative")
        terms = self.terms
        if not _canonical(terms):
            terms = elem_sum(MonoidElement.single(g, m) for g, m in terms).terms
        elif n == 1:
            return self
        return MonoidElement(tuple([(g, m * n) for g, m in terms])) if n else ZERO

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self):
        """The terms as "m*a(v)" or "a(v,{e,f})" joined by " + ", each Generator formatted inline."""
        if not self.terms:
            return "0"
        parts = []
        for g, m in self.terms:
            if type(g) is Generator:
                v, edges = g
                g = f"a({v})" if edges is None else f"a({v},{{{','.join(edges)}}})"
            parts.append(f"{m}*{g}" if m != 1 else f"{g}")
        return " + ".join(parts)


ZERO = MonoidElement()


def _canonical(terms: tuple[tuple[Generator, int], ...]) -> bool:
    """Whether terms are as from_counts builds them: int counts of at least 1,
    generators strictly increasing in canonical order (Generator.sort_key)."""
    prev = None
    for g, m in terms:
        if type(m) is not int or m < 1 or prev is not None and not _precedes(prev, g):
            return False
        prev = g
    return True


def elem_sum(items: Iterable[MonoidElement]) -> MonoidElement:
    """Sum of any number of elements, counted in one dict and sorted once.

    Each term's count is checked as from_counts checks it before it is
    added (a sum would hide a negative count), naming the term's generator.
    """
    counts: dict[Generator, int] = {}
    get = counts.get
    for it in items:
        for g, m in it.terms:
            if type(m) is not int or m < 0:
                m = _count(m, g)
            counts[g] = get(g, 0) + m
    return MonoidElement.from_counts(counts)


def apply_generator_map(
    mapping: Mapping[Generator, MonoidElement], x: MonoidElement
) -> MonoidElement:
    """Additive extension of a generator assignment; a monoid morphism.

    mult * image is summed over x's terms in one dict, which is sorted once.
    Each term's count is checked first, as from_counts checks it, naming
    the term's generator.  A mapping may fill itself on a miss
    (``__missing__``) and raise its own error there; a plain KeyError means
    the generator is outside its domain.
    """
    counts: dict[Generator, int] = {}
    get = counts.get
    for gen, mult in x.terms:
        if type(mult) is not int or mult < 0:
            mult = _count(mult, gen)
        try:
            image = mapping[gen]
        except KeyError:
            raise PresentationError(f"generator {gen} outside the map's domain") from None
        for g, m in image.terms:
            counts[g] = get(g, 0) + m * mult
    return MonoidElement.from_counts(counts)


Image = tuple[tuple[int, int], ...]  # ((codomain column, count), ...) in column order


class GeneratorMap:
    """A monoid morphism compiled over a pair of alphabets: one sparse image per domain column.

    ``image(gen)`` gives the image of a generator as an Image over the
    codomain's columns.  A domain column's image is computed on its first use
    and kept; an image that raises is not kept, so every use raises afresh.
    A generator outside the domain alphabet has its image computed on every
    use.  The map applies to exponent vectors (``vector``) and to elements
    (calling it): an element's terms are summed by codomain column, and the
    result is built in column order, which is canonical order, from the
    codomain's own generators.  A lone generator of multiplicity 1 gets its
    stored image element as it is.  Each term's count is checked as
    apply_generator_map checks it.
    """

    def __init__(
        self,
        domain: tuple[Generator, ...],
        index: Mapping[Generator, int],
        codomain: tuple[Generator, ...],
        image,
    ):
        self.domain = domain
        self.index = index  # domain generator -> column
        self.codomain = codomain
        self._image = image
        self._columns: list[Image | None] = [None] * len(domain)
        self._elements: list[MonoidElement | None] = [None] * len(domain)

    def column(self, c: int) -> Image:
        """The image of domain column c."""
        img = self._columns[c]
        if img is None:
            img = self._columns[c] = self._image(self.domain[c])
        return img

    def image_of(self, gen: Generator) -> Image:
        """The image of gen, kept when gen is in the domain alphabet."""
        c = self.index.get(gen)
        return self._image(gen) if c is None else self.column(c)

    def __getitem__(self, gen: Generator) -> MonoidElement:
        """The image of one generator as an element."""
        c = self.index.get(gen)
        if c is None:
            return element_of(self.codomain, dict(self._image(gen)))
        x = self._elements[c]
        if x is None:
            x = self._elements[c] = element_of(self.codomain, dict(self.column(c)))
        return x

    def __call__(self, x: MonoidElement) -> MonoidElement:
        """``apply_generator_map`` of this map to x, in one pass over x's terms."""
        terms = x.terms
        if len(terms) == 1:
            gen, mult = terms[0]
            if mult == 1 and type(mult) is int:
                c = self.index.get(gen)
                img = None if c is None else self._elements[c]
                return self[gen] if img is None else img
        index, columns = self.index, self._columns
        counts: dict[int, int] = {}
        get = counts.get
        for gen, mult in terms:
            if type(mult) is not int or mult < 0:
                mult = _count(mult, gen)
            c = index.get(gen)
            img = None if c is None else columns[c]
            if img is None:
                img = self.image_of(gen)
            for d, m in img:
                counts[d] = get(d, 0) + m * mult
        return element_of(self.codomain, counts)

    def vector(self, x) -> list[int]:
        """The image of exponent vector x over the domain, over the codomain."""
        y = [0] * len(self.codomain)
        for c, n in enumerate(x):
            if n:
                for d, m in self.column(c):
                    y[d] += n * m
        return y

    def then(self, outer: "GeneratorMap") -> "GeneratorMap":
        """outer after this map, compiled over this map's domain and outer's codomain."""

        def image(gen: Generator) -> Image:
            counts: dict[int, int] = {}
            for c, m in self.image_of(gen):
                for d, n in outer.column(c):
                    counts[d] = counts.get(d, 0) + m * n
            return tuple(sorted(counts.items()))

        return GeneratorMap(self.domain, self.index, outer.codomain, image)

    def as_dict(self) -> dict[Generator, MonoidElement]:
        """Every domain generator with its image element."""
        return {gen: self[gen] for gen in self.domain}


def element_of(alphabet: tuple[Generator, ...], counts: Mapping[int, int] | list[int]) -> MonoidElement:
    """The sum of counts[c] * alphabet[c], built from the alphabet's own generators.

    counts maps columns to counts: a mapping, or a list over the whole
    alphabet (an exponent vector), read at its nonzero entries.  The terms
    are in column order, which is canonical order (a mapping's columns get
    an int sort), and are built in one pass that checks each count as
    from_counts checks it and drops zero counts.
    """
    cols = compress(range(len(counts)), counts) if type(counts) is list else sorted(counts)
    terms = []
    for c in cols:
        n = counts[c]
        if type(n) is not int or n < 1:
            n = _count(n, alphabet[c])
            if not n:
                continue
        terms.append((alphabet[c], n))
    return MonoidElement(tuple(terms))


def mapping_image(mapping: Mapping[Generator, MonoidElement], index: Mapping[Generator, int]):
    """The image function of a GeneratorMap that reads mapping, as apply_generator_map reads it,
    over the codomain columns of index."""

    def image(gen: Generator) -> Image:
        try:
            x = mapping[gen]
        except KeyError:
            raise PresentationError(f"generator {gen} outside the map's domain") from None
        for g, _ in x.terms:
            if g not in index:
                raise PresentationError(f"the image of {gen} uses generator {g} outside the codomain")
        return tuple(sorted((index[g], m) for g, m in x.terms if m))

    return image


@dataclass(frozen=True)
class Presentation:
    alphabet: tuple[Generator, ...]
    relations: tuple[tuple[MonoidElement, MonoidElement], ...]

    def __post_init__(self):
        alphabet = self.alphabet
        known = set(alphabet)
        if len(known) != len(alphabet):
            twice = next(g for i, g in enumerate(alphabet) if g in alphabet[:i])
            raise PresentationError(f"alphabet lists generator {twice} twice")
        for a, b in zip(alphabet, alphabet[1:]):
            if not _precedes(a, b):
                raise PresentationError(f"alphabet lists {b} after {a}, out of canonical order")
        own = set(map(id, alphabet))  # the alphabet's own objects pass without a hash
        for lhs, rhs in self.relations:
            if not lhs.terms or not rhs.terms:
                raise PresentationError("relation sides must be non-zero")
            for side in (lhs, rhs):
                for g, m in side.terms:
                    if id(g) not in own and g not in known:
                        raise PresentationError(f"relation uses unknown generator {g}")
                    if type(m) is not int or m < 1:
                        raise PresentationError(f"relation count {m!r} of {g} is not a positive integer")

    # A presentation is queried many times over; what it derives from its
    # fields is computed once and kept in the instance __dict__
    # (graphs.lazy writes there past the frozen __setattr__; the engine
    # keeps its compiled relations, step table and completed system there
    # too).  Equality and hash still compare the fields.

    def __getstate__(self) -> dict:
        # a copy or unpickled presentation carries no derived data: it
        # builds its own index and completes its own system
        return {"alphabet": self.alphabet, "relations": self.relations}

    @lazy
    def _index(self) -> dict[Generator, int]:
        return {g: i for i, g in enumerate(self.alphabet)}

    def index(self) -> dict[Generator, int]:
        """Position of each generator in the alphabet.

        One dict, built once and shared by every caller: read it, never mutate it.
        """
        return self._index


Key = tuple[str, tuple[str, ...] | None]  # a generator's (vertex, edges)


def graph_alphabet(g: Graph) -> tuple[tuple[Generator, ...], dict[Generator, int], dict[Key, int]]:
    """g's alphabet, its index and its columns by (vertex, edges), built once per graph.

    Kept in g's instance __dict__, as Graph keeps its lookups, so every
    caller shares one Generator object per alphabet entry: read them, never
    mutate them.
    """
    alphabet = g.__dict__.get("_alphabet")
    if alphabet is None:
        require_valid(g)
        gens = [Generator(v) for v in g.vertices]
        for v, _, mat in g.emitters:
            for r in range(1, len(mat) + 1):
                gens.extend(Generator(v, sub) for sub in combinations(mat, r))
        gens.sort(key=Generator.sort_key)
        gens = tuple(gens)
        index = dict(zip(gens, range(len(gens))))
        columns = dict(zip(map(tuple, gens), range(len(gens))))
        alphabet = g.__dict__["_alphabet"] = (gens, index, columns)
    return alphabet


def generators(g: Graph) -> tuple[Generator, ...]:
    """Alphabet of the graph monoid: all a_v plus all a_{v,S} over materialized S, in canonical order.

    The same tuple of the same objects on every call for one graph.
    """
    return graph_alphabet(g)[0]


def relations(g: Graph) -> tuple[tuple[MonoidElement, MonoidElement], ...]:
    """Defining relations R1 and R2 of the graph monoid: per emitter, one per proper subset S of M.

    S runs in size-then-index order.  S = {} reads a_{v,M} + sum_M a_{r(e)} = a_v,
    any other S reads a_{v,S} = a_{v,M} + sum_{M\\S} a_{r(e)}.  Every side is
    built by column over the graph's alphabet, whose order is the canonical
    one, from the alphabet's own generators; one term of multiplicity 1 is
    one shared object per generator.
    """
    alphabet, _, columns = graph_alphabet(g)
    units = [(gen, 1) for gen in alphabet]

    def side(cols: list[int]) -> MonoidElement:
        cols.sort()
        terms = [units[cols[0]]]
        for c in cols[1:]:
            if terms[-1][0] is alphabet[c]:
                terms[-1] = (alphabet[c], terms[-1][1] + 1)
            else:
                terms.append(units[c])
        return MonoidElement(tuple(terms))

    rels: list[tuple[MonoidElement, MonoidElement]] = []
    emitters = g._emitter_by_vertex
    for v, edges in g._out_edges.items():  # the vertices in order, each with its out-edges
        if edges and v not in emitters:  # v is regular
            a_v = MonoidElement((units[columns[v, None]],))
            rels.append((a_v, side([columns[e.dst, None] for e in edges])))
    for v, _, mat in g.emitters:
        ranges = {eid: columns[g.edge(eid).dst, None] for eid in mat}
        for r in range(len(mat)):
            for sub in combinations(mat, r):
                q = MonoidElement((units[columns[v, sub or None]],))
                top = side([columns[v, mat]] + [ranges[e] for e in mat if e not in sub])
                rels.append((q, top) if sub else (top, q))
    return tuple(rels)


def presentation_of(g: Graph) -> Presentation:
    """g's presentation, over g's alphabet: the generators are the objects generators(g) returns.

    Built once per graph and kept on it as graph_alphabet is, and with it the systems completed for it.
    """
    p = g.__dict__.get("_presentation")
    if p is None:
        alphabet, index, _ = graph_alphabet(g)
        p = g.__dict__["_presentation"] = Presentation(alphabet, relations(g))
        p.__dict__["_index"] = index  # the graph's index of the same alphabet
    return p


# -- JSON -------------------------------------------------------------------

def generator_to_json(gen: Generator) -> dict:
    if gen.is_cofinite:
        return {"kind": "vS", "v": gen.vertex, "S": list(gen.edges)}
    return {"kind": "v", "v": gen.vertex}


def generator_from_json(data: dict, g: Graph | None = None) -> Generator:
    try:
        kind = data["kind"]
        v = data["v"]
    except (KeyError, TypeError) as exc:
        raise PresentationError(f"malformed generator {data!r}: {exc}") from exc
    if not isinstance(v, str):
        raise PresentationError(f"generator vertex must be a string, got {v!r}")
    if kind == "v":
        return Generator(v)
    if kind == "vS":
        ids = data.get("S", [])
        if not isinstance(ids, list) or not all(isinstance(x, str) for x in ids):
            raise PresentationError(f"generator edge set must be an array of strings, got {ids!r}")
        if g is not None:
            return sgen(g, v, ids)
        return Generator(v, tuple(ids))
    raise PresentationError(f"unknown generator kind {kind!r}")


def element_to_json(x: MonoidElement) -> dict:
    return {"terms": [{"gen": generator_to_json(g), "mult": m} for g, m in x.terms]}


def _column(doc, columns: Mapping[Key, int]) -> int | None:
    """The column of a generator document in canonical form, or None (a miss).

    A hit names an alphabet entry exactly: kind "v" with a vertex of the
    graph, or kind "vS" with S in index order; generator_from_json would
    read it as that entry's generator.
    """
    if type(doc) is not dict or "kind" not in doc:
        return None
    kind, v = doc["kind"], doc.get("v")
    if type(v) is not str:
        return None
    if kind == "v":
        return columns.get((v, None))
    if kind == "vS":
        ids = doc.get("S")
        if type(ids) is list and all(type(eid) is str for eid in ids):
            return columns.get((v, tuple(ids)))
    return None


def element_from_json(data: dict, g: Graph | None = None) -> MonoidElement:
    """Read an element document, summing the counts of repeated generators.

    Over a graph, each term's generator document is looked up among the
    graph's columns by (vertex, edges); a hit gives the alphabet's own
    generator.  A miss is read by generator_from_json, with its checks,
    normal form and errors, and is the alphabet's own generator when it
    names one (S out of index order).  Without a graph, or over an invalid
    one, every term is a miss, and an invalid graph raises after its terms
    are read.
    """
    try:
        terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise PresentationError(f"malformed element {data!r}: {exc}") from exc
    if not isinstance(terms, list):
        raise PresentationError(f"element terms must be an array, got {terms!r}")
    valid = g is not None and g.validation.ok
    alphabet, index, columns = graph_alphabet(g) if valid else ((), {}, {})
    counts: dict[int, int] = {}  # by column
    others: dict[Generator, int] = {}  # generators outside the alphabet
    for term in terms:
        try:
            doc = term["gen"]
            c = _column(doc, columns)
            if c is None:
                gen = generator_from_json(doc, g)
                c = index.get(gen)
            else:
                gen = alphabet[c]
            mult = term["mult"]
        except (KeyError, TypeError) as exc:
            raise PresentationError(f"malformed term {term!r}: {exc}") from exc
        if isinstance(mult, bool) or not isinstance(mult, int):
            raise PresentationError(f"multiplicity must be an integer, got {mult!r}")
        if mult < 0:  # checked per term: a sum would hide it
            raise PresentationError(f"negative multiplicity for {gen}")
        if c is None:
            others[gen] = others.get(gen, 0) + mult
        else:
            counts[c] = counts.get(c, 0) + mult
    if g is not None and not valid:
        require_valid(g)
    if others:
        return MonoidElement.from_counts({**{alphabet[c]: n for c, n in counts.items()}, **others})
    return element_of(alphabet, counts)


def presentation_to_json(p: Presentation) -> dict:
    return {
        "generators": [generator_to_json(g) for g in p.alphabet],
        "relations": [
            {"lhs": element_to_json(l), "rhs": element_to_json(r)} for l, r in p.relations
        ],
    }

