import numpy as np

from graphmonoid import kernels


def random_rules(rng, n_rules, width):
    """Rule pairs strictly decreasing in graded-lex order, so reduction terminates."""
    lhs, rhs = [], []
    while len(lhs) < n_rules:
        a = rng.integers(0, 3, size=width)
        b = rng.integers(0, 3, size=width)
        ka, kb = (int(a.sum()), tuple(a)), (int(b.sum()), tuple(b))
        if ka == kb:
            continue
        hi, lo = (a, b) if ka > kb else (b, a)
        lhs.append(hi)
        rhs.append(lo)
    return np.array(lhs, dtype=np.int64), np.array(rhs, dtype=np.int64)


def test_batch_matches_vector():
    rng = np.random.default_rng(11)
    lhs, rhs = random_rules(rng, 3, 5)
    xs = rng.integers(0, 4, size=(12, 5)).astype(np.int64)
    batch = kernels.nf_batch(xs, lhs, rhs)
    for i, row in enumerate(xs):
        assert np.array_equal(batch[i], kernels.reduce(row, lhs, rhs))


def test_reduce_trace_replays_to_normal_form():
    rng = np.random.default_rng(5)
    lhs, rhs = random_rules(rng, 4, 5)
    for row in rng.integers(0, 4, size=(10, 5)).astype(np.int64):
        trace: list[int] = []
        nf = kernels.reduce(row, lhs, rhs, trace)
        assert np.array_equal(nf, kernels.reduce(row, lhs, rhs))
        y = row.copy()
        for k in trace:
            assert (lhs[k] <= y).all()
            assert not (lhs[:k] <= y).all(axis=1).any()  # lowest-index applicable rule
            y += rhs[k] - lhs[k]
        assert np.array_equal(y, nf)


def test_normal_forms_are_irreducible():
    rng = np.random.default_rng(3)
    lhs, rhs = random_rules(rng, 4, 5)
    xs = rng.integers(0, 4, size=(15, 5)).astype(np.int64)
    out = kernels.nf_batch(xs, lhs, rhs)
    reducible = (out[:, None, :] >= lhs[None, :, :]).all(axis=2)
    assert not reducible.any()


def test_expand_both_directions():
    lhs = np.array([[1, 0]], dtype=np.int64)
    rhs = np.array([[0, 2]], dtype=np.int64)
    front = np.array([[1, 2]], dtype=np.int64)
    got = {tuple(r) for r in kernels.expand_frontier(front, lhs, rhs)}
    assert got == {(0, 4), (2, 0)}


def test_empty_rules_are_identities():
    empty = np.empty((0, 3), dtype=np.int64)
    x = np.array([1, 2, 3], dtype=np.int64)
    assert np.array_equal(kernels.reduce(x, empty, empty), x)
    assert kernels.expand_frontier(x.reshape(1, 3), empty, empty).shape == (0, 3)


def test_backend_is_declared():
    # perfbench/run.py records kernels.BACKEND among the machine facts of each report
    assert kernels.BACKEND == "numpy"
