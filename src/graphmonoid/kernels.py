"""Exponent-vector kernels: normal-form reduction and congruence-step expansion.

These inner loops dominate completion, equality checks and BFS oracles.

Reduction works on one element at a time: a plain list of Python ints,
reduced by rules compiled once into sparse form (compile_rule).  The systems
are small (tens of rules, tens of generators) and a reduction takes few
steps, so a step costs a short scan over the rules' supports, with no array
call.  The batch kernels, nf_batch and expand, are numpy, vectorised over the
rules: expand steps the BFS oracle's large frontiers (a depth runs in Python
over the sparse relation rules until its frontier passes the engine's
_PYTHON_BFS_TESTS rule tests), and nf_batch, which reduces independently of
reduce(), is the batch reference of acceptance criterion 3 and the
benchmark.  numpy is imported inside the functions that use it, so reduction
alone never loads it.

A rule applies to a vector when its left side is componentwise at most the
vector, and reduction always applies the lowest-index applicable rule.  A
rule is tested at the first column of its left side before the rest of its
support, since most rules that do not apply fail there; a left side must
therefore be nonempty, as every rule of a completed system's is.
Arrays are int64: rule matrices come in lhs/rhs pairs of shape (r, g), every
one derived from compiled rules by rule_matrices, and frontiers have g
columns.

A BFS depth steps over a step table, which step_table builds once for a set
of steps (the engine keeps one per presentation): each step's source side as
its support columns and counts, padded to the widest support, and its delta,
target minus source.  A depth is one applicability test of every frontier row
against every step, over the support columns only, and one gather-and-add,
frontier[i] + delta[k], for each pair (i, k) that passes.  Frontier rows are
never negative, so a padded slot (column 0, count 0) always passes and a
column outside a support needs no test.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

BACKEND = "numpy"
# applications of one rule in a row before the rest of its run is computed in
# one step: most runs are shorter and never pay for that computation
_RUN_AFTER = 8

# A compiled rule: its left side's support with counts, ((column, count), ...),
# and the nonzero entries of rhs - lhs, ((column, difference), ...), both in
# column order.
Rule = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]

# A step table: the support columns (s, w) and counts (s, w) of s steps'
# source sides, padded to the widest support w with column 0 and count 0, and
# their deltas (s, g), target minus source; all three read-only.
StepTable = tuple["np.ndarray", "np.ndarray", "np.ndarray"]


def compile_rule(lhs: Sequence[int], rhs: Sequence[int]) -> Rule:
    """The rule lhs -> rhs in the sparse form reduce() reads."""
    return (
        tuple([(c, n) for c, n in enumerate(lhs) if n]),
        tuple([(c, b - a) for c, (a, b) in enumerate(zip(lhs, rhs)) if a != b]),
    )


def compile_rules(lhs: np.ndarray, rhs: np.ndarray) -> tuple[Rule, ...]:
    """The rows of a pair of rule matrices, compiled in order."""
    return tuple(map(compile_rule, lhs.tolist(), rhs.tolist()))


def rule_sides(rule: Rule, width: int) -> tuple[list[int], list[int]]:
    """The dense left and right sides of a compiled rule: compile_rule undone."""
    lhs = [0] * width
    for c, n in rule[0]:
        lhs[c] = n
    rhs = lhs.copy()
    for c, d in rule[1]:
        rhs[c] += d
    return lhs, rhs


def rule_matrices(rules: Sequence[Rule], width: int) -> tuple[np.ndarray, np.ndarray]:
    """The left and right sides of rules as a read-only pair of (r, width) int64 matrices, row k for rules[k]."""
    import numpy as np

    sides = [rule_sides(rule, width) for rule in rules]
    pair = tuple(np.array([side[i] for side in sides], dtype=np.int64).reshape(len(sides), width) for i in (0, 1))
    for m in pair:
        m.flags.writeable = False
    return pair


def reduce(x: Sequence[int], rules: Sequence[Rule], trace: list[tuple[int, int]] | None = None) -> list[int]:
    """Reduce one vector to normal form, lowest-index applicable rule first.

    Returns a new list; x is not changed.  Once one rule has applied
    _RUN_AFTER times in a row, the rest of its run is applied in one step, so
    the cost follows the number of runs, not the multiplicities of x.  When
    trace is a list, the runs are appended to it as (rule index, times), in
    order of application; consecutive runs name different rules.
    """
    y = list(x)
    i, times = -1, 0  # the run in progress
    while True:
        for k, (need, step) in enumerate(rules):
            c, n = need[0]
            if y[c] < n:
                continue  # most rules that do not apply fail at their first column
            for c, n in need:
                if y[c] < n:
                    break
            else:
                break  # rule k applies
        else:
            break  # no rule applies
        if k != i:
            if trace is not None and times:
                trace.append((i, times))
            i, times = k, 0
        elif times >= _RUN_AFTER:
            t = _run_length(y, rules, i)
            for c, d in step:
                y[c] += t * d
            times += t
            continue
        for c, d in step:
            y[c] += d
        times += 1
    if trace is not None and times:
        trace.append((i, times))
    return y


def first_applicable(x: Sequence[int], rules: Sequence[Rule]) -> int:
    """Index of the first rule that applies to x, or len(rules) when none does."""
    for k, (need, _) in enumerate(rules):
        c, n = need[0]
        if x[c] < n:
            continue
        for c, n in need:
            if x[c] < n:
                break
        else:
            return k
    return len(rules)


def _run_length(y: list[int], rules: Sequence[Rule], i: int) -> int:
    """How often in a row rule i applies from y.

    Rule i applies at y and no lower rule does.  The run ends when rule i
    stops applying or a lower rule j starts to: j applies after s more steps
    exactly when y[c] + s*d[c] >= n for every (c, n) of its left side, which
    holds for s in an interval [lo, hi].  Columns outside j's support need no
    check: while rule i applies they stay at least its left side, so at
    least 0.  A rule that decreases no component (which no terminating system
    holds) is applied once.
    """
    need, step = rules[i]
    own = dict(need)
    bounds = [(y[c] - own[c]) // -d for c, d in step if d < 0]
    if not bounds:
        return 1
    t = min(bounds) + 1
    delta = dict(step)
    for lower, _ in rules[:i]:
        lo, hi = 0, t  # a start at t or later does not shorten the run
        for c, n in lower:
            d, gap = delta.get(c, 0), n - y[c]
            if d > 0:
                lo = max(lo, -(-gap // d))
            elif d < 0:
                hi = min(hi, gap // d)
            elif gap > 0:
                break
            if lo > hi:
                break
        else:
            t = lo
    return t


def nf_batch(xs: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Reduce every row of xs to normal form, as reduce() does one vector."""
    import numpy as np

    out = xs.copy()
    if lhs.shape[0] == 0 or out.shape[0] == 0:
        return out
    active = np.arange(out.shape[0])
    while active.size:
        sub = out[active]
        ok = (sub[:, None, :] >= lhs[None, :, :]).all(axis=2)
        any_ok = ok.any(axis=1)
        hit = active[any_ok]
        if hit.size == 0:
            break
        first = np.argmax(ok[any_ok], axis=1)
        out[hit] += rhs[first] - lhs[first]
        active = hit
    return out


def step_table(src: np.ndarray, dst: np.ndarray) -> StepTable:
    """The steps src[k] -> dst[k] of two (s, g) int64 matrices as a step table (see StepTable)."""
    import numpy as np

    rows, columns = np.nonzero(src)  # row by row, each row's columns in order
    sizes = np.bincount(rows, minlength=src.shape[0])
    slots = np.arange(rows.size) - (np.cumsum(sizes) - sizes)[rows]
    cols = np.zeros((src.shape[0], sizes.max(initial=0)), dtype=np.intp)
    need = np.zeros(cols.shape, dtype=np.int64)
    cols[rows, slots] = columns
    need[rows, slots] = src[rows, columns]
    table = (cols, need, dst - src)
    for m in table:
        m.flags.writeable = False
    return table


def expand(front: np.ndarray, table: StepTable) -> np.ndarray:
    """Every step of table from every frontier row that it applies to (with duplicates, in no set order).

    Frontier rows must be nonnegative: columns outside a step's support are
    not tested.
    """
    cols, need, delta = table
    ii, kk = (front[:, cols] >= need).all(axis=2).nonzero()
    return front[ii] + delta[kk]


def expand_frontier(front: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One bidirectional congruence step from every frontier row (with duplicates, in no set order).

    expand over the steps lhs -> rhs and rhs -> lhs of the relations lhs[k] = rhs[k].
    """
    import numpy as np

    return expand(front, step_table(np.concatenate((lhs, rhs)), np.concatenate((rhs, lhs))))
