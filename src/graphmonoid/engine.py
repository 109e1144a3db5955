"""Decision procedure for the word problem of a finitely presented commutative monoid.

Elements are exponent vectors over the presentation's alphabet.  completed_system
first eliminates the generators the relations define (a Tietze pass): a
relation x = W with x absent from W, as it reads once earlier definitions are
substituted, is dropped and W is put for x everywhere else, under a guard that
keeps every degree within the alphabet's size.  What is left is completed over
the kept generators; the system holds the definitions x -> W first, then those
rules, and is confluent and terminating under the block order that puts the
eliminated generators above the rest.  Normal forms are over the kept
generators, and completed_system is the one completion entry point.
Queries apply the definitions as one substitution: an element is read into
its exponent vector through them in one pass (a GeneratorMap of the alphabet
into itself), which reports their runs in rule order, and only the completed
rules are left for kernels.reduce to scan.  The vector and the runs are
those of reducing with every rule.

Completion turns equations into a confluent, terminating rewrite system under
the graded lexicographic order (total degree first, ties by the canonical
generator order), by orienting every equation downhill and resolving critical pairs:
for rules with overlapping left-hand sides the componentwise maximum is a
peak whose two reducts must join.  Two criteria skip peaks known to join
(Buchberger 1979).  Rules with disjoint left-hand supports make no pair: both
reducts step to the same element.  A pair whose peak an older live rule also
reduces is skipped (the chain criterion): that rule's pairs with both were
resolved first, and join the two reducts through a third.  Completion keeps one
compiled copy of each live rule, in the list its reductions scan; a retired
rule is deleted from that list and keeps its index for proofs.

Every rule carries a proof: a chain of original-relation applications
transforming its left side into its right side; a definition's proof expands
each substitution it went through.  Equality certificates are
assembled from those chains and replay step by step against the presentation.
Wherever chains are joined, a step followed by its own inverse is cancelled,
so no stored proof and no certificate holds such a pair.  Reduction reports
runs of one rule, and a run of t applications joins its rule's proof raised to
the t-th power, so joining costs per run, not per application.  Two sides with
one exponent vector need no reduction to be decided: their traces would be
the same and cancel, so equal returns an empty chain at once and reduces the
common normal form only when it is read.

The query path (completion, reduction, equality, certificates and their
replay) works on Python ints and never imports numpy; so does the continuity
check, which samples by column combinations.  numpy is imported only by the
batch oracles: bfs_reach once its frontier grows, elements_up_to_degree, the
rule matrices of a system and the step table of a presentation's relations,
built on first access from the compiled rules.

bfs_reach, the oracle that checks verdicts against the congruence itself,
steps by the relations compiled forward and backward (_relation_rules, which
chain walks read too).  A depth runs in Python, testing each frontier row
against each step's sparse left side, while the frontier costs at most
_PYTHON_BFS_TESTS rule tests (rows times steps); most searches never pass
that.  From the first depth that would, the rest of the search steps over
one step table per presentation (kernels.step_table): one test of every
frontier row against every step's support columns, and one gather-and-add of
the steps that pass, with new rows found by a set of row bytes.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations_with_replacement, compress
from typing import TYPE_CHECKING

from . import kernels
from .graphs import GraphmonoidError, Record, lazy
from .presentation import (
    Generator,
    GeneratorMap,
    Image,
    MonoidElement,
    Presentation,
    element_to_json,
    element_of,
    generator_to_json,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BUDGET = 100_000
_INT64_MAX = (1 << 63) - 1
_MAX_CHAIN = sys.maxsize // 8  # steps one tuple can hold: 8 bytes per step, sys.maxsize bytes in all
# Rule tests (frontier rows times relation steps) past which a BFS depth, and
# every depth after it, runs over the numpy step table instead of in Python.
# A numpy depth has a fixed cost (about 9 us on a one-row frontier, 2-core
# x86 host) that a Python depth of a few dozen tests undercuts; past that,
# numpy's vectorised test wins.  The mean bfs_reach time over warm-queries'
# and bfs-crosscheck's inputs is lowest near 48 (the sweep in BENCH_29.json).
_PYTHON_BFS_TESTS = 48


class EngineError(GraphmonoidError):
    """An element, system, chain or size the engine refuses."""


class BudgetExceededError(EngineError):
    """Completion ran out of its S-pair budget; the instance is undecided, not unequal."""

    def __init__(self, processed: int, budget: int):
        super().__init__(f"completion budget exhausted after {processed} S-pair reductions (budget {budget})")
        self.processed = processed
        self.budget = budget


def resolve_budget(budget: int | None) -> int:
    if budget is None:
        return DEFAULT_BUDGET
    if type(budget) is not int:
        raise EngineError(f"budget {budget!r} is not an int")
    if budget < 0:
        raise EngineError(f"budget must be >= 0, got {budget}")
    return budget


Step = tuple[int, int]  # (relation index, +1 forward / -1 backward)


class RewriteSystem(Record):
    """A completed rewrite system, as completed_system returns it: completion raises instead of
    returning an unfinished one.

    Rules are oriented by the block order with the eliminated columns on top: an element's
    eliminated part is compared first, then the rest, each graded-lex (total degree first, ties
    by the canonical generator order); with nothing eliminated, that is graded-lex.  Queries read
    them through _defined, which checks them once.  Compared by identity.
    """

    _fields = ("presentation", "rules", "proofs", "spairs_processed", "eliminated")
    presentation: Presentation
    rules: tuple[kernels.Rule, ...]  # compiled for kernels.reduce
    proofs: tuple[tuple[Step, ...], ...]
    spairs_processed: int
    eliminated: tuple[int, ...]  # columns of the generators the Tietze pass defined away

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        presentation: Presentation,
        rules: tuple[kernels.Rule, ...],
        proofs: tuple[tuple[Step, ...], ...],
        spairs_processed: int,
        eliminated: tuple[int, ...],
    ):
        self.__dict__.update(
            presentation=presentation,
            rules=rules,
            proofs=proofs,
            spairs_processed=spairs_processed,
            eliminated=eliminated,
        )

    @property
    def rule_count(self) -> int:
        return len(self.rules)

    def rule(self, k: int) -> tuple[MonoidElement, MonoidElement]:
        p = self.presentation
        lhs, rhs = kernels.rule_sides(self.rules[k], len(p.alphabet))
        return _unvec(lhs, p), _unvec(rhs, p)

    # The definitions x -> W, rules 0 .. len(eliminated) - 1, applied as one
    # substitution: a vector is read through _definitions (W for an
    # eliminated column, the column itself for a kept one) and then reduced
    # by _completed_rules only.  No other rule's sides hold an eliminated
    # column, so reduction over all the rules applies exactly the
    # definitions first, each as one run, in rule order; _read reports those
    # runs, and the vector and the runs are the same.

    @lazy
    def _defined(self) -> dict[int, int]:
        """Eliminated column -> the index of its definition, once every rule is
        checked to step downhill and every definition to read x -> W.

        Every query reads this before it reduces, so that reduction ends.  A
        rule steps downhill in the block order when the part of rhs - lhs that
        decides lowers the degree, or keeps it and its first nonzero entry is
        negative.  The part on the eliminated columns decides when it is
        nonzero, the rest otherwise.
        """
        top = set(self.eliminated)
        for k, (_, delta) in enumerate(self.rules):
            part = [(c, d) for c, d in delta if c in top] or delta
            drop = sum(d for _, d in part)
            if drop > 0 or drop == 0 and (not part or part[0][1] > 0):
                lhs, rhs = self.rule(k)
                order = "the block order" if top else "graded-lex order"
                raise EngineError(f"rule {k}, {lhs} -> {rhs}, is not downhill in {order}")
        for k, x in enumerate(self.eliminated):
            need, delta = self.rules[k]
            if need != ((x, 1),) or (x, -1) not in delta:
                raise EngineError(f"rule {k} does not define the eliminated generator {self.presentation.alphabet[x]}")
        return {x: k for k, x in enumerate(self.eliminated)}

    @lazy
    def _definitions(self) -> GeneratorMap:
        """The definitions as one map of the alphabet into itself."""
        p, rules, defined = self.presentation, self.rules, self._defined
        index = p.index()

        def image(gen: Generator) -> Image:
            try:
                c = index[gen]
            except KeyError:
                raise EngineError(f"element uses generator {gen} outside the alphabet") from None
            k = defined.get(c)
            return ((c, 1),) if k is None else tuple(t for t in rules[k][1] if t[0] != c)

        return GeneratorMap(p.alphabet, index, p.alphabet, image)

    @lazy
    def _completed_rules(self) -> tuple[kernels.Rule, ...]:
        """The rules after the definitions: what reduces a vector once it is read through them."""
        return self.rules[len(self.eliminated) :]

    @lazy
    def _matrices(self) -> tuple[np.ndarray, np.ndarray]:
        return kernels.rule_matrices(self.rules, len(self.presentation.alphabet))

    @property
    def lhs(self) -> np.ndarray:
        """Left sides as a read-only (r, g) int64 matrix, row k for rule k, for the
        batch kernels; built with the right sides on first access."""
        return self._matrices[0]

    @property
    def rhs(self) -> np.ndarray:
        return self._matrices[1]


def _vec(x: MonoidElement, index: dict[Generator, int]) -> list[int]:
    """x as an exponent vector, a list of ints; its total degree must fit in int64.

    A generator that x lists more than once gets the sum of its counts, as
    degree() and the generator maps read it.  A count that is not an int
    (bools included) or is negative raises, naming its generator: a
    hand-built element is not checked when it is made.  A degree past int64
    raises at the term that takes the running sum past it, naming that sum,
    before any later term is read.

    Reduction is in Python ints, which cannot overflow.  Rules over kept
    generators never raise the degree, but a definition x -> W raises it by
    deg W - 1 per application, so a normal form may leave the int64 range
    that x's own degree was checked against.  A relation step may raise it
    too: bfs_reach checks the degree its steps can reach against int64
    before it fills int64 rows (_degree_gain).
    """
    out = [0] * len(index)
    degree = 0
    for gen, mult in x.terms:
        if type(mult) is not int:
            raise EngineError(f"element has a count {mult!r} of generator {gen} that is not an int")
        if mult < 0:
            raise EngineError(f"element has a negative count {mult} of generator {gen}")
        degree += mult
        if degree > _INT64_MAX:
            raise EngineError(f"element of total degree {degree} exceeds the int64 range")
        try:
            c = index[gen]
        except KeyError:
            raise EngineError(f"element uses generator {gen} outside the alphabet") from None
        out[c] += mult
    return out


def _read(rs: RewriteSystem, x: MonoidElement, trace: list[tuple[int, int]] | None = None) -> list[int]:
    """x as an exponent vector read through rs's definitions, in one pass.

    The vector is _vec's with each eliminated generator replaced by its
    definition; when trace is a list, the definitions' runs (rule index,
    times) are appended to it in rule order, as kernels.reduce over all of
    rs's rules would report them before any other run.  A term or a total
    degree that fails a check of _vec's sends x through _vec, which raises.
    """
    defined = rs._defined
    index = rs.presentation._index
    out = [0] * len(index)
    hits: list[int] = []
    degree = 0
    for gen, mult in x.terms:
        if type(mult) is not int or mult < 0:
            _vec(x, index)
        c = index.get(gen)
        if c is None:
            _vec(x, index)
        out[c] += mult
        degree += mult
        if c in defined:
            hits.append(c)
    if degree > _INT64_MAX:
        _vec(x, index)
    if hits:
        definitions = rs._definitions
        images = definitions._columns
        hits.sort()  # definitions are in column order
        for c in hits:
            m = out[c]
            if m:
                out[c] = 0
                for d, n in images[c] or definitions.column(c):
                    out[d] += m * n
                if trace is not None:
                    trace.append((defined[c], m))
    return out


@lazy
def _relation_rules(p: Presentation) -> tuple[tuple[kernels.Rule, ...], tuple[kernels.Rule, ...]]:
    """p's relations compiled forward (left side to right) and backward, built once per presentation.

    Built from the sides' terms by column, not from dense vectors, with
    every repeated (column, count) pair and side stored once.
    """
    index = p.index()
    shared = {}
    intern = shared.setdefault

    def side(x: MonoidElement) -> dict[int, int]:
        out = {}
        for gen, m in x.terms:
            c = index[gen]
            out[c] = out.get(c, 0) + m  # as _vec reads a term
        return out

    def rule(a: dict[int, int], b: dict[int, int]) -> kernels.Rule:
        # kernels.compile_rule of the dense sides
        need = tuple(intern(t, t) for t in sorted(a.items()) if t[1])
        delta = ((c, b.get(c, 0) - a.get(c, 0)) for c in sorted(a.keys() | b.keys()))
        step = tuple(intern(t, t) for t in delta if t[1])
        return intern(need, need), intern(step, step)

    sides = [(side(u), side(v)) for u, v in p.relations]
    return tuple(rule(a, b) for a, b in sides), tuple(rule(b, a) for a, b in sides)


@lazy
def _degree_gain(p: Presentation) -> int:
    """The most one relation step, either way, raises an element's degree, computed once per presentation."""
    return max((abs(sum(d for _, d in delta)) for _, delta in _relation_rules(p)[0]), default=0)


@lazy
def _step_table(p: Presentation) -> kernels.StepTable:
    """The steps of p's relations, forward then backward, as a read-only step table built once per presentation.

    Shared by every BFS whose frontier passes _PYTHON_BFS_TESTS rule tests
    at some depth; a search that never does never builds it.
    """
    forward, backward = _relation_rules(p)
    return kernels.step_table(*kernels.rule_matrices(forward + backward, len(p.alphabet)))


def _unvec(v: Iterable[int], p: Presentation) -> MonoidElement:
    """The element with exponent vector v over p's alphabet (a list or tuple of ints, or an int64 row).

    element_of reads v as a list, with its count checks, and builds the terms in one pass over v.
    """
    return element_of(p.alphabet, v if type(v) is list else list(v))


def _compare(u: list[int], v: list[int]) -> int:
    """Graded-lex comparison: sign of u - v in the term order."""
    du, dv = sum(u), sum(v)
    if du != dv:
        return 1 if du > dv else -1
    return (u > v) - (u < v)  # lists compare at their first differing component


def _stepped(x: list[int], rule: kernels.Rule) -> list[int]:
    """x after one application of rule, which must apply to x."""
    y = x.copy()
    for c, d in rule[1]:
        y[c] += d
    return y


def _support(x: list[int]) -> int:
    """The columns where x is nonzero, as the bits of an int."""
    return sum(1 << c for c, n in enumerate(x) if n)


def _invert(chain: tuple[Step, ...]) -> tuple[Step, ...]:
    return tuple([(rel, -d) for rel, d in reversed(chain)])


def _join(out: list[Step], part: Sequence[Step]) -> None:
    """Append part to the chain out in place, cancelling each step of out against a following inverse step.

    A step and its inverse undo each other at any element, so the result
    replays wherever the plain concatenation does.  When out and part hold
    no such pair already, cancellation only happens where they meet, and
    out becomes the free reduction of the concatenation.
    """
    i = 0
    for rel, d in part:  # stops at the first step that survives
        if not out or out[-1] != (rel, -d):
            break
        out.pop()
        i += 1
    out.extend(part[i:])


def _cat(*parts: Sequence[Step]) -> tuple[Step, ...]:
    """The free reduction of the chains' concatenation, for parts without an inverse pair (see _join)."""
    out: list[Step] = []
    for part in parts:
        _join(out, part)
    return tuple(out)


def _split(p: tuple[Step, ...]) -> int:
    """Length of the longest x with p = x + w + _invert(x)."""
    n, k = len(p), 0
    while k < n // 2 and p[k] == (p[n - 1 - k][0], -p[n - 1 - k][1]):
        k += 1
    return k


def _power(p: tuple[Step, ...], t: int) -> tuple[Step, ...]:
    """Free reduction of t copies of p, for p without an inverse pair.

    With p = x + w + _invert(x) and x longest, the copies of w meet without
    cancelling, so the result is x + w * t + _invert(x).
    """
    if t == 1:
        return p
    n, k = len(p), _split(p)
    return p[:k] + p[k : n - k] * t + p[n - k :]


def _power_length(p: tuple[Step, ...], t: int) -> int:
    return len(p) + (t - 1) * (len(p) - 2 * _split(p))


Equation = tuple[list[int], list[int], tuple[Step, ...]]  # u, v and a chain of relation steps from u to v


def _complete_equations(
    equations: Iterable[Equation], budget: int
) -> tuple[tuple[kernels.Rule, ...], tuple[tuple[Step, ...], ...], int]:
    """Complete vector equations into a confluent rewrite system, graded-lex.

    The equations' vectors share one width, and each chain leads from u to v
    in steps of the presentation's relations, so every proof is one too.
    Returns the compiled rules, sorted by left side, their proofs and the
    S-pairs processed; raises BudgetExceededError past budget S-pairs.
    """
    # rule k has the sides lhs[k] and rhs[k], their supports as the bits of
    # masks[k] and rmasks[k], and proofs[k]; a retired rule keeps its index k,
    # which proofs and reduction traces name
    lhs: list[list[int]] = []
    rhs: list[list[int]] = []
    masks: list[int] = []
    rmasks: list[int] = []
    alive: list[bool] = []
    proofs: list[list[Step]] = []  # each extended in place as its right side is reduced
    # the live rules in index order, compiled as kernels.reduce scans them, and their indices
    live: list[kernels.Rule] = []
    ids: list[int] = []
    collapsed: deque[Equation] = deque()
    # FIFO: pairs leave in the order their later rule was created, which the
    # chain criterion below relies on
    pairs: deque[tuple[int, int]] = deque()
    spairs = 0

    def reduce_trace(x: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
        runs: list[tuple[int, int]] = []
        y = kernels.reduce(x, live, runs)
        return y, [(ids[k], t) for k, t in runs]

    def add_rule(nfu, su, nfv, sv, *chain):
        # nfu and nfv differ; su and sv reduced u and v to them, and chain's
        # parts lead from u to v, so nfu -> u -> v -> nfv
        full = _cat(
            *[_power(_invert(proofs[k]), t) for k, t in reversed(su)], *chain, *[_power(proofs[k], t) for k, t in sv]
        )
        if _compare(nfu, nfv) < 0:
            nfu, nfv, full = nfv, nfu, _invert(full)
        k_new = len(lhs)
        new = kernels.compile_rule(nfu, nfv)
        need = new[0]
        mask = _support(nfu)
        lhs.append(nfu)
        rhs.append(nfv)
        masks.append(mask)
        rmasks.append(_support(nfv))
        alive.append(True)
        proofs.append(list(full))
        live.append(new)
        ids.append(k_new)
        # in index order: a collapse reduces with the new rule and the older
        # rules still live.  A side the new rule applies to holds its
        # support, so the masks rule out most sides before any count is read.
        pos = 0
        while pos < len(ids) - 1:
            k = ids[pos]
            l, r = lhs[k], rhs[k]
            if not mask & ~masks[k] and all(l[c] >= n for c, n in need):
                collapsed.append((l, r, proofs[k]))
                del live[pos], ids[pos]
                alive[k] = False
                continue
            if not mask & ~rmasks[k] and all(r[c] >= n for c, n in need):
                rhs[k], sr = reduce_trace(r)
                rmasks[k] = _support(rhs[k])
                live[pos] = kernels.compile_rule(l, rhs[k])
                for j, t in sr:
                    _join(proofs[k], _power(proofs[j], t))
            pos += 1
        # a rule whose left side is disjoint from the new one's makes no pair:
        # both reducts of their peak step to the same element, so it joins
        pairs.extend((k, k_new) for k in ids[:-1] if masks[k] & mask)

    def process_equation(u, v, *chain):
        nfu, su = reduce_trace(u)
        nfv, sv = reduce_trace(v)
        if nfu != nfv:
            add_rule(nfu, su, nfv, sv, *chain)

    for u, v, chain in equations:
        process_equation(u, v, chain)
    while collapsed or pairs:
        if collapsed:
            process_equation(*collapsed.popleft())
            continue
        i, j = pairs.popleft()
        if not (alive[i] and alive[j]):
            continue
        peak = list(map(max, lhs[i], lhs[j]))
        # Chain criterion (Buchberger 1979; Gebauer-Moeller 1988): skip the
        # pair when a live rule k < i also applies at the peak.  Its pairs
        # (k, i) and (k, j) are already done: each was enqueued when its
        # later rule, i or j, was created, and pairs leave in creation order
        # of their later rule, so before (i, j).  The peak's three reducts
        # are then joined through the k-reduct below the peak.  Rule i applies
        # at the peak, so the first live rule that applies has index <= i.
        if ids[kernels.first_applicable(peak, live)] < i:
            continue
        spairs += 1
        if spairs > budget:
            raise BudgetExceededError(spairs, budget)
        nfu, su = reduce_trace(_stepped(peak, live[ids.index(i)]))
        nfv, sv = reduce_trace(_stepped(peak, live[ids.index(j)]))
        if nfu != nfv:
            add_rule(nfu, su, nfv, sv, _invert(proofs[i]), proofs[j])

    final = sorted(ids, key=lambda k: (sum(lhs[k]), lhs[k], rhs[k]))
    compiled = dict(zip(ids, live))
    return tuple(compiled[k] for k in final), tuple(tuple(proofs[k]) for k in final), spairs


def _defines(a: dict[int, int], b: dict[int, int]) -> int | None:
    """The generator the relation a = b defines through its side a, if any: a is
    one generator of multiplicity 1, absent from b."""
    if len(a) == 1:
        ((x, m),) = a.items()
        if m == 1 and x not in b:
            return x
    return None


def _eliminate(p: Presentation) -> tuple[list[tuple[int, dict[int, int], list[Step]]], list[Equation]]:
    """The Tietze pass: p's relations with the generators they define substituted away.

    Every relation with a side of one generator is read in order, with each
    generator defined so far replaced by its definition.  Read as x = W
    (either way round) with x absent from W, it defines x: the relation is
    dropped, and W is put for x in every definition that holds x; the
    relation's chain, from x to W, becomes x's proof.  Then the relations not
    taken are read once, with every definition in place, and kept as
    equations unless their sides are equal.  A side read with m copies of W
    for x has its chain joined with x's proof m times, inverted on the left,
    so every chain stays one of p's relation steps.

    Growth guard: x is defined only when W, and every definition W is put
    into, stays within degree n, the size of the alphabet, and when no
    relation holds x more than n times.  No side is empty, so no
    substitution lowers a degree: each definition ends within degree n, and
    its proof expands each of those generators through fewer than n
    definitions.  A side of degree d then reads within degree d*n, and its
    chain grows by at most n proofs per term.  Unguarded, a path of double
    edges doubles a degree per vertex, and a relation y = 2^62 x with x
    defined would read as 2^62 copies of x's proof.

    Returns the definitions (x, W, proof) by column, W over kept columns, and
    the equations, dense over p's alphabet and zero on defined columns.
    """
    n = len(p.alphabet)
    index = p.index()
    # x -> (W, proof from x to W, extended in place as W is, degree of W)
    defined: dict[int, tuple[dict[int, int], list[Step], int]] = {}
    inside: list[set[int]] = [set() for _ in range(n)]  # the defined generators whose W holds a column
    heavy = {index[gen] for sides in p.relations for x in sides for gen, m in x.terms if m > n}

    def read(x: MonoidElement, parts: list[tuple[Step, ...]], backward: bool) -> dict[int, int]:
        # x as columns with every defined one replaced, the proofs that lead
        # there (backward: back from there) appended to parts
        out: dict[int, int] = {}
        total = 0
        for gen, m in x.terms:
            total += m
            c = index[gen]
            if c in defined:
                w, proof, _ = defined[c]
                for col, k in w.items():
                    out[col] = out.get(col, 0) + m * k
                parts.append(_power(_invert(proof) if backward else proof, m))
            else:
                out[c] = out.get(c, 0) + m
        if total > _INT64_MAX:
            raise EngineError(f"element of total degree {total} exceeds the int64 range")
        return out

    def read_relation(i: int) -> tuple[dict[int, int], dict[int, int], tuple[Step, ...]] | None:
        # relation i read and its chain, or None when its sides read equal
        pre: list[tuple[Step, ...]] = []
        post: list[tuple[Step, ...]] = []
        a, b = p.relations[i]
        u, v = read(a, pre, True), read(b, post, False)
        return None if u == v else (u, v, _cat(*pre, ((i, +1),), *post))

    def define(x: int, w: dict[int, int], degree: int, proof: list[Step]) -> None:
        for y in inside[x]:
            wy, py, dy = defined[y]
            m = wy.pop(x)
            for c, k in w.items():
                wy[c] = wy.get(c, 0) + m * k
                inside[c].add(y)
            _join(py, _power(proof, m))
            defined[y] = (wy, py, dy + m * (degree - 1))
        inside[x].clear()
        defined[x] = (w, proof, degree)
        for c in w:
            inside[c].add(x)

    rest = []
    for i, (a, b) in enumerate(p.relations):
        # a side that reads as one generator is one generator as given, since
        # a generator is only ever replaced by a non-empty side
        if not (len(a.terms) == 1 == a.terms[0][1] or len(b.terms) == 1 == b.terms[0][1]):
            rest.append(i)
            continue
        relation = read_relation(i)
        if relation is None:
            continue
        u, v, chain = relation
        for x, w, backward in ((_defines(u, v), v, False), (_defines(v, u), u, True)):
            if x is None or x in heavy:
                continue
            degree = sum(w.values())
            grow = degree - 1
            if degree <= n and all(defined[y][2] + defined[y][0][x] * grow <= n for y in inside[x]):
                define(x, w, degree, list(_invert(chain) if backward else chain))
                break
        else:
            rest.append(i)
    equations = [(_dense(u, n), _dense(v, n), chain) for u, v, chain in filter(None, map(read_relation, rest))]
    return [(x, *defined[x][:2]) for x in sorted(defined)], equations


def _dense(x: dict[int, int], n: int) -> list[int]:
    out = [0] * n
    for c, m in x.items():
        out[c] = m
    return out


def completed_system(p: Presentation, budget: int | None = None) -> RewriteSystem:
    """p completed after the Tietze pass: one system over p's whole alphabet.

    Its first rules are the definitions x -> W, one per eliminated generator
    x (RewriteSystem.eliminated), W over kept generators; the rest complete
    the equations left over the kept generators.  No other rule's left side
    holds an eliminated generator, so no definition overlaps another rule and
    the union is confluent under the block order.  Every proof is a chain of
    p's relations.

    Kept on p, one system for as long as p lives; a completion that runs out
    of budget keeps nothing.  Completion is deterministic, so a budget below
    the kept system's spairs_processed raises what a cold run would.
    """
    budget = resolve_budget(budget)
    rs = p.__dict__.get("_completed_system")
    if rs is None:
        definitions, equations = _eliminate(p)
        rules, proofs, spairs = _complete_equations(equations, budget)
        # x -> W compiled: x's column leaves, W's columns come in, in column order
        defs = tuple((((x, 1),), tuple(sorted([(x, -1), *w.items()]))) for x, w, _ in definitions)
        rs = p.__dict__["_completed_system"] = RewriteSystem(
            presentation=p,
            rules=defs + rules,
            proofs=tuple(tuple(proof) for _, _, proof in definitions) + proofs,
            spairs_processed=spairs,
            eliminated=tuple(x for x, _, _ in definitions),
        )
    elif rs.spairs_processed > budget:
        raise BudgetExceededError(budget + 1, budget)  # where _complete_equations stops
    return rs


def normal_form(rs: RewriteSystem, x: MonoidElement) -> MonoidElement:
    """Unique irreducible element congruent to x under rs, a system completed_system returned.

    The normal form is over the generators rs keeps.  Raises EngineError when
    rs holds a rule that is not downhill in its order: the block order when
    it has eliminated generators, else graded-lex.  With no completed rules,
    the vector read is the normal form, as in equal.
    """
    x = _read(rs, x)
    rules = rs._completed_rules
    return _unvec(kernels.reduce(x, rules) if rules else x, rs.presentation)


class EqualityResult(Record):
    """Decision plus certificate: a replayable chain when equal, separating
    normal forms when not.

    The sides are kept as exponent vectors over the presentation's alphabet
    and the chain as runs of proofs: (k, t) stands for proofs[k] joined t
    times, inverted when t < 0.  vectors holds the two normal forms, or, when
    rules is set, the one vector that both sides share, read through the
    definitions, whose normal form rules (the completed rules) give on first
    read.  The normal forms, the elements and the chain are built on first
    access, so a caller that reads only the verdict pays for none of them.
    """

    _fields = ("equal", "presentation", "vectors", "proofs", "runs", "rules")
    equal: bool
    presentation: Presentation
    vectors: tuple[tuple[int, ...], tuple[int, ...]]
    proofs: tuple[tuple[Step, ...], ...]
    runs: tuple[tuple[int, int], ...]
    rules: tuple[kernels.Rule, ...] | None

    def __init__(
        self,
        equal: bool,
        presentation: Presentation,
        vectors: tuple[tuple[int, ...], tuple[int, ...]],
        proofs: tuple[tuple[Step, ...], ...] = (),
        runs: tuple[tuple[int, int], ...] = (),
        rules: tuple[kernels.Rule, ...] | None = None,
    ):
        d = self.__dict__
        d["equal"] = equal
        d["presentation"] = presentation
        d["vectors"] = vectors
        d["proofs"] = proofs
        d["runs"] = runs
        d["rules"] = rules

    def __bool__(self) -> bool:
        return self.equal

    @property
    def alphabet(self) -> tuple[Generator, ...]:
        return self.presentation.alphabet

    @lazy
    def _normal_forms(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if self.rules is None:
            return self.vectors
        nf = tuple(kernels.reduce(self.vectors[0], self.rules))
        return nf, nf

    @property
    def lhs_vector(self) -> tuple[int, ...]:
        return self._normal_forms[0]

    @property
    def rhs_vector(self) -> tuple[int, ...]:
        return self._normal_forms[1]

    @lazy
    def lhs_normal_form(self) -> MonoidElement:
        return _unvec(self.lhs_vector, self.presentation)

    @lazy
    def rhs_normal_form(self) -> MonoidElement:
        return _unvec(self.rhs_vector, self.presentation)

    @lazy
    def chain(self) -> tuple[Step, ...] | None:
        if not self.equal:
            return None
        proofs = self.proofs
        return _cat(*[_power(proofs[k] if t > 0 else _invert(proofs[k]), abs(t)) for k, t in self.runs])

    @property
    def normal_form(self) -> MonoidElement | None:
        return self.lhs_normal_form if self.equal else None


def equal(p: Presentation, u: MonoidElement, v: MonoidElement, budget: int | None = None) -> EqualityResult:
    """Decide u = v in the monoid presented by p.

    Sides with the same exponent vector are equal with no runs and are not
    reduced here (see EqualityResult).  v is not read when it is u, or
    equals u with int counts: u's read checks what v's would.  Raises
    BudgetExceededError if completion cannot finish in budget; that is an
    explicit undecided outcome, never a wrong answer.  With no budget, the
    system kept on p is used as it is when it fits the default budget.
    """
    rs = p.__dict__.get("_completed_system") if budget is None else None
    if rs is None or rs.spairs_processed > DEFAULT_BUDGET:
        rs = completed_system(p, budget)
    su: list[tuple[int, int]] = []
    sv: list[tuple[int, int]] = []
    x = _read(rs, u, su)
    # v equal to u (of u's type with u's terms, as == compares elements),
    # with counts of u's type (1 == True, but True is no count), reads as u
    # does: u's read made every check v's would
    same = v is u
    if not same and type(v) is type(u) and v.terms == u.terms:
        for _, m in v.terms:
            if type(m) is not int:
                break
        else:
            same = True
    y = x if same else _read(rs, v, sv)
    rules = rs._completed_rules
    if same or x == y and su == sv:
        # u and v have one exponent vector: both traces would be one trace,
        # and cancel to no runs at all
        vec = tuple(x)
        return EqualityResult(True, p, (vec, vec), rs.proofs, (), rules)
    if rules:  # x and y become the normal forms
        x = _reduce(x, rules, su, len(rs.eliminated))
        y = _reduce(y, rules, sv, len(rs.eliminated))
    if x != y:
        return EqualityResult(False, p, (tuple(x), tuple(y)))
    # the chain is u's proofs, then v's inverted; runs of one rule that
    # meet in the middle cancel: p^a + p^-b reduces to p^(a-b)
    while su and sv and su[-1][0] == sv[-1][0]:
        (k, a), (_, b) = su.pop(), sv.pop()
        if a != b:
            (su if a > b else sv).append((k, abs(a - b)))
    proofs = rs.proofs
    # len(proof) * t bounds each run's length; the exact lengths only when that bound is too long
    steps = sum([len(proofs[k]) * t for k, t in su + sv])
    if steps > _MAX_CHAIN:
        steps = sum(_power_length(proofs[k], t) for k, t in su + sv)
    if steps > _MAX_CHAIN:
        raise EngineError(f"certificate chain of {steps} steps is longer than a tuple can hold ({_MAX_CHAIN})")
    runs = (*su, *[(k, -t) for k, t in reversed(sv)])
    vec = tuple(x)
    return EqualityResult(True, p, (vec, vec), proofs, runs)


def _reduce(x: list[int], rules: tuple[kernels.Rule, ...], trace: list[tuple[int, int]], offset: int) -> list[int]:
    """kernels.reduce of x by rules, its runs appended to trace with rule indices offset.

    With no rules, x is its own normal form and is returned as it is, not copied.
    """
    if not rules:
        return x
    if not offset:
        return kernels.reduce(x, rules, trace)
    runs: list[tuple[int, int]] = []
    y = kernels.reduce(x, rules, runs)
    trace += [(k + offset, t) for k, t in runs]
    return y


def _walk_chain(
    p: Presentation, start: MonoidElement, chain: Iterable[Step], contexts: list[list[int]] | None = None
) -> list[int]:
    """Apply a chain from start, one relation instance at a time, and return the end vector.

    Raises EngineError when the chain is not iterable, when a step is not a
    pair of a relation index (an int in range, not a bool) and a direction
    of exactly +1 or -1, or when its relation does not apply to the element
    reached so far.  When contexts is a list, each step's context (the part
    of the element the step leaves untouched) is appended to it.  The sums
    are Python ints: no step can overflow.
    """
    forward, backward = _relation_rules(p)
    n = len(forward)
    cur = _vec(start, p.index())
    try:
        steps = iter(chain)
    except TypeError:
        raise EngineError(f"chain {chain!r} is not a sequence of steps") from None
    for step in steps:
        try:
            rel, d = step
        except (TypeError, ValueError):
            raise EngineError(f"chain step {step!r} is not a (relation, direction) pair") from None
        if type(rel) is not int or not 0 <= rel < n:
            raise EngineError(f"chain names unknown relation {rel!r}")
        if type(d) is not int or (d != 1 and d != -1):
            raise EngineError(f"chain step direction {d!r} is not +1 or -1")
        need, delta = forward[rel] if d == 1 else backward[rel]
        for c, m in need:
            if cur[c] < m:
                raise EngineError(f"relation {rel} does not apply at this chain position")
        if contexts is not None:
            ctx = cur.copy()
            for c, m in need:
                ctx[c] -= m
            contexts.append(ctx)
        for c, m in delta:
            cur[c] += m
    return cur


def replay_chain(p: Presentation, start: MonoidElement, chain: tuple[Step, ...]) -> MonoidElement:
    """Replay a certificate chain from start, one relation instance at a time."""
    return _unvec(_walk_chain(p, start, chain), p)


def certificate_to_json(p: Presentation, start: MonoidElement, result: EqualityResult) -> dict:
    """Serialize a certificate; chain steps carry their context element.

    Made for json.dumps: the steps' contexts share one document per
    generator, built only for the generators some context holds.
    """
    if not result.equal:
        return {
            "kind": "separated",
            "lhs_normal_form": element_to_json(result.lhs_normal_form),
            "rhs_normal_form": element_to_json(result.rhs_normal_form),
        }
    chain = result.chain or ()
    contexts: list[list[int]] = []
    _walk_chain(p, start, chain, contexts)
    # a context's terms in column order, which is the canonical order element_to_json writes
    alphabet = p.alphabet
    columns = range(len(alphabet))
    used = [list(compress(columns, ctx)) for ctx in contexts]
    gens = {c: generator_to_json(alphabet[c]) for c in set().union(*used)}
    steps = [
        {
            "relation": rel,
            "direction": "forward" if direction > 0 else "backward",
            "context": {"terms": [{"gen": gens[c], "mult": ctx[c]} for c in cols]},
        }
        for (rel, direction), ctx, cols in zip(chain, contexts, used)
    ]
    return {
        "kind": "chain",
        "normal_form": element_to_json(result.lhs_normal_form),
        "steps": steps,
    }


def congruence_bfs(
    p: Presentation, x: MonoidElement, depth: int, max_size: int | None = None
) -> set[MonoidElement]:
    """All elements reachable from x by at most depth bidirectional relation steps.

    bfs_reach's set as elements: each depth runs in Python until its frontier
    passes _PYTHON_BFS_TESTS rule tests, then over the step table.  A cap
    (max_size) is checked after each whole depth, so the level it falls in is
    kept whole.
    """
    reached, _ = bfs_reach(p, x, depth, max_size)
    return {_unvec(t, p) for t in reached}


def bfs_reach(
    p: Presentation, x: MonoidElement, depth: int, max_size: int | None = None
) -> tuple[set[tuple[int, ...]], bool]:
    """Reachable exponent vectors and whether the class was fully saturated.

    Saturation means the breadth-first closure stopped producing new elements
    before the depth bound (and before any size cap), so the congruence class
    of x is exactly the returned set.  max_size is checked after each whole
    depth, so a cap keeps the level it falls in.  Raises EngineError on a
    depth or cap that is not an int, on a negative depth, cap or count of x,
    and when depth steps could take an element past the int64 range of the
    step table's rows.

    A depth steps in Python over p's sparse relation rules while its frontier
    rows times the steps come to at most _PYTHON_BFS_TESTS; from the first
    depth past that, the rest of the search runs over p's step table
    (_bfs_over_table).  The set of vectors is the same either way.
    """
    if type(depth) is not int or max_size is not None and type(max_size) is not int:
        raise EngineError(f"depth {depth!r} and max_size {max_size!r} must be ints")
    if depth < 0:
        raise EngineError("depth must be >= 0")
    if max_size is not None and max_size < 0:
        raise EngineError(f"max_size must be >= 0, got {max_size}")
    x_vec = _vec(x, p.index())
    degree = sum(x_vec)
    reach = degree + depth * _degree_gain(p)
    if reach > _INT64_MAX:
        raise EngineError(
            f"element of total degree {degree} may reach degree {reach} in {depth} relation steps, "
            "which exceeds the int64 range"
        )
    forward, backward = _relation_rules(p)
    steps = forward + backward
    start = tuple(x_vec)
    seen = {start}
    frontier = (start,)
    for level in range(depth):
        if len(frontier) * len(steps) > _PYTHON_BFS_TESTS:
            return _bfs_over_table(p, seen, frontier, depth - level, max_size)
        fresh = set()
        for row in frontier:
            for need, delta in steps:
                for c, m in need:
                    if row[c] < m:
                        break
                else:
                    y = list(row)
                    for c, d in delta:
                        y[c] += d
                    fresh.add(tuple(y))
        fresh -= seen
        if not fresh:
            return seen, True
        seen |= fresh
        if max_size is not None and len(seen) > max_size:
            return seen, False  # capped before closing the class: not saturated
        frontier = fresh
    return seen, not p.relations


def _bfs_over_table(
    p: Presentation, seen: set[tuple[int, ...]], frontier: Iterable[tuple[int, ...]], depth: int,
    max_size: int | None,
) -> tuple[set[tuple[int, ...]], bool]:
    """bfs_reach's last depth levels over p's step table, from the frontier among the vectors seen.

    New rows are found with a set of row bytes, and turned into tuples once,
    column by column, when the search ends; they are added to seen.
    """
    import numpy as np

    g = len(p.alphabet)
    table = _step_table(p)
    row = np.dtype((np.void, 8 * g))  # an int64 row's bytes as one hashable key
    keys = set(np.array(list(seen), np.int64).view(row).ravel().tolist())
    front = np.array(list(frontier), np.int64)
    levels = []
    saturated = False
    for _ in range(depth):
        fresh = set(kernels.expand(front, table).view(row).ravel().tolist())
        fresh -= keys
        if not fresh:
            saturated = True
            break
        keys |= fresh
        levels.append(b"".join(fresh))
        if max_size is not None and len(keys) > max_size:
            break  # capped before closing the class: not saturated
        front = np.frombuffer(levels[-1], np.int64).reshape(len(fresh), g)
    rows = np.frombuffer(b"".join(levels), np.int64).reshape(-1, g)
    seen.update(zip(*rows.T.tolist()))
    return seen, saturated


def degree_combinations(n_generators: int, degree: int) -> Iterator[tuple[int, ...]]:
    """The elements of total degree <= degree over n generators, each as the columns it counts,
    with repetition, by degree and then lexicographically; exponent_vectors checks the sizes."""
    columns = range(n_generators)
    return (combo for d in range(degree + 1) for combo in combinations_with_replacement(columns, d))


def exponent_vectors(n_generators: int, degree: int) -> Iterator[list[int]]:
    """degree_combinations as exponent vectors, lists of ints; the sizes are checked first."""
    if type(n_generators) is not int or type(degree) is not int:
        raise EngineError(f"generator count {n_generators!r} and degree {degree!r} must be ints")
    if n_generators < 0:
        raise EngineError(f"generator count must be >= 0, got {n_generators}")
    if degree < 0:
        raise EngineError(f"degree must be >= 0, got {degree}")
    for combo in degree_combinations(n_generators, degree):
        row = [0] * n_generators
        for i in combo:
            row[i] += 1
        yield row


def elements_up_to_degree(n_generators: int, degree: int) -> np.ndarray:
    """exponent_vectors as the rows of an int64 matrix."""
    import numpy as np

    return np.array(list(exponent_vectors(n_generators, degree)), dtype=np.int64)
