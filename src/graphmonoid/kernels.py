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


def as_matrix(rows, width) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.size == 0:
        return np.empty((0, width), dtype=np.int64)
    return a.reshape(-1, width)


def reduce(x: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, trace: list[int] | None = None) -> np.ndarray:
    """Reduce one vector to normal form, lowest-index applicable rule first.

    When trace is a list, the index of every applied rule is appended to it,
    in order of application.
    """
    y = x.copy()
    if lhs.shape[0] == 0:
        return y
    while True:
        ok = (lhs <= y).all(axis=1)
        i = int(ok.argmax())
        if not ok[i]:
            return y
        y += rhs[i] - lhs[i]
        if trace is not None:
            trace.append(i)


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
    """One bidirectional congruence step from every frontier row (with duplicates)."""
    g = front.shape[1]
    parts = []
    for a, b in ((lhs, rhs), (rhs, lhs)):
        if a.shape[0] == 0 or front.shape[0] == 0:
            continue
        mask = (front[:, None, :] >= a[None, :, :]).all(axis=2)
        ii, kk = np.nonzero(mask)
        if ii.size:
            parts.append(front[ii] - a[kk] + b[kk])
    if not parts:
        return np.empty((0, g), dtype=np.int64)
    return np.concatenate(parts, axis=0)
