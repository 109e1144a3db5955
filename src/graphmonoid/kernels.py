"""Exponent-vector kernels: normal-form reduction and congruence-step expansion.

These inner loops dominate completion, equality checks and BFS oracles.  They
are plain numpy, vectorised over the rules of a system.

All arrays are int64.  Rule matrices come in lhs/rhs pairs of shape (r, g);
vectors and frontiers have g columns.  A rule applies to a vector when its
left side is componentwise at most the vector, and reduction always applies
the lowest-index applicable rule.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"
# applications of one rule in a row before the rest of its run is computed:
# computing a run costs about as much as eight single applications
_RUN_AFTER = 8


def as_matrix(rows, width) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.size == 0:
        return np.empty((0, width), dtype=np.int64)
    return a.reshape(-1, width)


def reduce(
    x: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, trace: list[tuple[int, int]] | None = None
) -> np.ndarray:
    """Reduce one vector to normal form, lowest-index applicable rule first.

    Once one rule has applied _RUN_AFTER times in a row, the rest of its run
    is applied in one step, so the cost follows the number of runs, not the
    multiplicities of x.  When trace is a list, the runs are appended to it
    as (rule index, times), in order of application; consecutive runs name
    different rules.
    """
    y = x.copy()
    if lhs.shape[0] == 0:
        return y
    i, times = -1, 0  # the run in progress
    while True:
        ok = (lhs <= y).all(axis=1)
        k = int(ok.argmax())
        if not ok[k]:
            break
        if k != i:
            if trace is not None and times:
                trace.append((i, times))
            i, times = k, 0
        elif times >= _RUN_AFTER:
            d = rhs[i] - lhs[i]
            t = _run_length(y, d, lhs[i], lhs[:i])
            y += t * d
            times += t
            continue
        y += rhs[i] - lhs[i]
        times += 1
    if trace is not None and times:
        trace.append((i, times))
    return y


def _run_length(y: np.ndarray, d: np.ndarray, own: np.ndarray, lower: np.ndarray) -> int:
    """How often in a row the rule with left side own and step d applies from y.

    The rule applies at y and no rule of lower does.  The run ends when the
    rule stops applying or the first rule of lower starts to: rule j applies
    after s more steps exactly when lower[j] - y <= s*d, which holds for s in
    an interval [lo_j, hi_j].  A rule that decreases no component (which no
    terminating system holds) is applied once.
    """
    neg = d < 0
    if not neg.any():
        return 1
    t = int(((y[neg] - own[neg]) // -d[neg]).min()) + 1
    if lower.shape[0]:
        need = lower - y
        pos = d > 0
        lo = np.max(-(-need[:, pos] // d[pos]), axis=1, initial=0)
        hi = (need[:, neg] // d[neg]).min(axis=1)
        starts = lo[(lo <= hi) & (need[:, d == 0] <= 0).all(axis=1)]
        if starts.size:
            t = min(t, int(starts.min()))
    return t


def nf_batch(xs: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Reduce every row of xs to normal form, as reduce() does one vector."""
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


def expand_frontier(front: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One bidirectional congruence step from every frontier row (with duplicates, in no set order).

    Both directions are one broadcast over the stacked sides: a row steps
    by (lhs; rhs) -> (rhs; lhs) wherever that side is at most the row.
    """
    src = np.concatenate((lhs, rhs))
    dst = np.concatenate((rhs, lhs))
    ii, kk = np.nonzero((front[:, None, :] >= src[None, :, :]).all(axis=2))
    return front[ii] - src[kk] + dst[kk]
