import functools

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    rules = kernels.compile_rules(lhs, rhs)
    for i, row in enumerate(xs):
        assert batch[i].tolist() == kernels.reduce(row.tolist(), rules)


def test_reduce_trace_replays_to_normal_form():
    rng = np.random.default_rng(5)
    lhs, rhs = random_rules(rng, 4, 5)
    rules = kernels.compile_rules(lhs, rhs)
    for row in rng.integers(0, 4, size=(10, 5)).astype(np.int64):
        runs: list[tuple[int, int]] = []
        nf = kernels.reduce(row.tolist(), rules, runs)
        assert nf == kernels.reduce(row.tolist(), rules)
        y = row.copy()
        for k in (k for k, t in runs for _ in range(t)):
            assert (lhs[k] <= y).all()
            assert not (lhs[:k] <= y).all(axis=1).any()  # lowest-index applicable rule
            y += rhs[k] - lhs[k]
        assert y.tolist() == nf


def test_first_applicable_is_the_rule_reduction_applies_first():
    rng = np.random.default_rng(19)
    lhs, rhs = random_rules(rng, 5, 4)
    rules = kernels.compile_rules(lhs, rhs)
    for row in rng.integers(0, 3, size=(40, 4)).astype(np.int64):
        ok = (lhs <= row).all(axis=1)
        expected = int(ok.argmax()) if ok.any() else len(rules)
        assert kernels.first_applicable(row.tolist(), rules) == expected


def step_by_step(x, lhs, rhs):
    """Reference reducer on the rule matrices: one numpy rule application per
    step, lowest-index applicable rule first."""
    y, trace = x.copy(), []
    while True:
        ok = (lhs <= y).all(axis=1)
        if not ok.any():
            return y, trace
        k = int(ok.argmax())
        y += rhs[k] - lhs[k]
        trace.append(k)


@st.composite
def rules_and_vector(draw):
    width = draw(st.integers(1, 4))
    # large entries let a lower rule start to apply deep into a run
    side = st.tuples(*[st.integers(0, 3) | st.integers(0, 20)] * width)
    pairs = draw(st.lists(st.tuples(side, side).filter(lambda ab: ab[0] != ab[1]), min_size=1, max_size=4))
    # each rule goes down in the graded-lex order, so reduction terminates
    rules = [sorted(ab, key=lambda s: (sum(s), s), reverse=True) for ab in pairs]
    lhs = np.array([l for l, _ in rules], dtype=np.int64)
    rhs = np.array([r for _, r in rules], dtype=np.int64)
    x = np.array(draw(st.tuples(*[st.integers(0, 10**4)] * width)), dtype=np.int64)
    return lhs, rhs, x


# rule 1 (a -> b) runs until b reaches 12 and rule 0 (12b -> c) applies mid-run
_INTERRUPTED = np.array([[0, 12, 0], [1, 0, 0]]), np.array([[0, 0, 1], [0, 1, 0]])
# while rule 1 (2b -> d) runs, rule 0 (b + 12d -> c) applies from the twelfth
# step on for as long as a b is left: from 30b within the run, from 24b never
_WINDOW = np.array([[0, 1, 0, 12], [0, 2, 0, 0]]), np.array([[0, 0, 1, 0], [0, 0, 0, 1]])


@settings(max_examples=150, deadline=None)
@given(rules_and_vector())
@example((*_INTERRUPTED, np.array([10**4, 0, 0])))
@example((*_WINDOW, np.array([0, 30, 0, 0])))
@example((*_WINDOW, np.array([0, 24, 0, 0])))
def test_run_trace_expands_to_the_step_by_step_trace(case):
    lhs, rhs, x = case
    runs: list[tuple[int, int]] = []
    nf = kernels.reduce(x.tolist(), kernels.compile_rules(lhs, rhs), runs)
    ref_nf, ref_trace = step_by_step(x, lhs, rhs)
    assert nf == ref_nf.tolist()
    assert [k for k, t in runs for _ in range(t)] == ref_trace
    assert all(t >= 1 for _, t in runs)
    assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))


def test_a_lower_rule_interrupts_a_run():
    runs: list[tuple[int, int]] = []
    kernels.reduce([10**4, 0, 0], kernels.compile_rules(*_INTERRUPTED), runs)
    assert runs == [(1, 12), (0, 1)] * 833 + [(1, 4)]
    for b, expected in ((30, [(1, 12), (0, 1), (1, 2)]), (24, [(1, 12)])):
        runs = []
        kernels.reduce([0, b, 0, 0], kernels.compile_rules(*_WINDOW), runs)
        assert runs == expected


def loop_reduce(x, rules, trace=None):
    """kernels.reduce as it was before the first-column test: every rule test
    loops over the rule's whole support."""
    y = list(x)
    i, times = -1, 0
    while True:
        for k, (need, step) in enumerate(rules):
            for c, n in need:
                if y[c] < n:
                    break
            else:
                break
        else:
            break
        if k != i:
            if trace is not None and times:
                trace.append((i, times))
            i, times = k, 0
        elif times >= kernels._RUN_AFTER:
            t = kernels._run_length(y, rules, i)
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


def loop_first_applicable(x, rules):
    """kernels.first_applicable as it was before the first-column test."""
    for k, (need, _) in enumerate(rules):
        for c, n in need:
            if x[c] < n:
                break
        else:
            return k
    return len(rules)


@functools.lru_cache(maxsize=1)
def completed_corpus_rules():
    """The compiled rules of the completed systems of acceptance_support.completion_corpus()."""
    from acceptance_support import completion_corpus
    from graphmonoid.engine import completed_system
    from graphmonoid.presentation import presentation_of

    return [completed_system(presentation_of(g)).rules for g in completion_corpus()]


@st.composite
def systems_and_vectors(draw):
    if draw(st.booleans()):
        width = draw(st.integers(1, 6))
        seed = draw(st.integers(0, 2**32 - 1))
        rules = kernels.compile_rules(*random_rules(np.random.default_rng(seed), draw(st.integers(1, 8)), width))
    else:
        corpus = completed_corpus_rules()
        rules = corpus[draw(st.integers(0, len(corpus) - 1))]
        width = 1 + max((c for need, step in rules for c, _ in need + step), default=0)
    # small counts, where most rule tests fail, and larger ones, where runs
    # form; runs that alternate between rules cost per application, so the
    # counts stay in the hundreds
    count = st.integers(0, 3) | st.integers(0, 300)
    return rules, draw(st.lists(count, min_size=width, max_size=width))


# the first draw from the corpus completes its systems, about 0.5 s
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems_and_vectors())
def test_reduce_and_first_applicable_match_the_support_loop(case):
    rules, x = case
    runs, loop_runs = [], []
    assert kernels.reduce(x, rules, runs) == loop_reduce(x, rules, loop_runs)
    assert runs == loop_runs
    assert kernels.first_applicable(x, rules) == loop_first_applicable(x, rules)


def test_rules_compile_to_their_supports_and_steps():
    # rule 1 of _WINDOW, 2b -> d: support {b: 2}, step -2 at b and +1 at d
    assert kernels.compile_rules(*_WINDOW) == (
        (((1, 1), (3, 12)), ((1, -1), (2, 1), (3, -12))),
        (((1, 2),), ((1, -2), (3, 1))),
    )
    # and back to their dense sides
    for rule, lhs, rhs in zip(kernels.compile_rules(*_WINDOW), *_WINDOW):
        assert kernels.rule_sides(rule, 4) == (lhs.tolist(), rhs.tolist())
    # and to read-only rule matrices, row k for rule k
    pair = kernels.rule_matrices(kernels.compile_rules(*_WINDOW), 4)
    for m, side in zip(pair, _WINDOW):
        assert m.dtype == np.int64 and not m.flags.writeable
        assert np.array_equal(m, side)


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


def test_step_table_holds_padded_supports_and_deltas():
    rng = np.random.default_rng(7)
    src = rng.integers(0, 3, size=(9, 5)).astype(np.int64)
    src[0] = 0  # a step from the zero vector: an empty support, all padding
    dst = rng.integers(0, 3, size=(9, 5)).astype(np.int64)
    cols, need, delta = kernels.step_table(src, dst)
    assert not any(m.flags.writeable for m in (cols, need, delta))
    assert np.array_equal(delta, dst - src)
    assert cols.shape == need.shape == (9, int((src > 0).sum(axis=1).max()))
    for k in range(9):
        support = np.flatnonzero(src[k])
        n = support.size
        assert cols[k, :n].tolist() == support.tolist() and need[k, :n].tolist() == src[k, support].tolist()
        assert not cols[k, n:].any() and not need[k, n:].any()
    # the support test is the dense test on nonnegative rows
    front = rng.integers(0, 3, size=(12, 5)).astype(np.int64)
    got = kernels.expand(front, (cols, need, delta))
    ii, kk = np.nonzero((front[:, None, :] >= src[None, :, :]).all(axis=2))
    assert np.array_equal(got, front[ii] + delta[kk])


def test_empty_rules_are_identities():
    empty = np.empty((0, 3), dtype=np.int64)
    x = np.array([1, 2, 3], dtype=np.int64)
    assert kernels.compile_rules(empty, empty) == ()
    assert kernels.reduce([1, 2, 3], ()) == [1, 2, 3]
    assert kernels.expand_frontier(x.reshape(1, 3), empty, empty).shape == (0, 3)
    # no columns: every step applies, to every row
    table = kernels.step_table(np.zeros((2, 0), dtype=np.int64), np.zeros((2, 0), dtype=np.int64))
    assert kernels.expand(np.zeros((3, 0), dtype=np.int64), table).shape == (6, 0)
    for width in (3, 0):
        for m in kernels.rule_matrices((), width):
            assert m.shape == (0, width) and m.dtype == np.int64 and not m.flags.writeable


def test_backend_is_declared():
    # perfbench/run.py records kernels.BACKEND among the machine facts of each report
    assert kernels.BACKEND == "numpy"
