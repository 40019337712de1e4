"""Exact enumeration oracle: expectation identities and their breakdown."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detavg import linalg, oracle
from detavg.errors import EnumerationBudgetExceeded
from detavg.objective import Dataset, LossKind, Objective
from detavg.oracle import (
    Component,
    IdentityReport,
    RandomRankOneSum,
    _det_times_inverse,
    _expect_each,
    expect_adjugate,
    expect_det,
    expect_inverse,
    expect_uniform_newton_bias,
    expect_weighted_inverse,
    hand_checked_instance,
    hessian_sketch_model,
    identity_suite,
    random_model,
    rank_two_counterexample,
)
from detavg.sketch import SketchMask, block_size, local_hessian


def per_outcome(model):
    """Slow path: (probability, matrix) one outcome at a time, in
    itertools.product order of the supports."""
    supports = [list(zip(c.values, c.probs)) for c in model.components]
    for combo in itertools.product(*supports):
        prob = 1.0
        A = model.base.copy()
        for (value, p), c in zip(combo, model.components):
            prob *= p
            A += value * c.matrix
        yield prob, A


def per_outcome_expectations(model):
    """E[det A], E[adj A] and E[det(A) inv(A)] / E[det A], outcome by outcome."""
    det = 0.0
    adj = np.zeros((model.dim, model.dim))
    det_inv = np.zeros((model.dim, model.dim))
    for p, A in per_outcome(model):
        det_A = linalg.det_cofactor(A)
        det += p * det_A
        adj += p * linalg.adjugate_cofactor(A)
        det_inv += p * det_A * np.linalg.inv(A)
    return det, adj, det_inv / det


def rel_err(got, want):
    return np.abs(np.asarray(got) - want).max() / max(1.0, np.abs(want).max())


def test_hand_checked_instance_values():
    model = hand_checked_instance()
    assert expect_det(model) == pytest.approx(0.75, abs=1e-12)
    assert np.allclose(model.mean(), [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)
    assert linalg.det_cofactor(model.mean()) == pytest.approx(0.75, abs=1e-15)
    adj = expect_adjugate(model)
    assert np.allclose(adj, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-12)


def test_identities_on_random_models():
    # E[det] = det(E), E[adj] = adj(E) over mixed finite-support scale laws
    rng = np.random.default_rng(89)
    for _ in range(50):
        model = random_model(rng, max_n=8, max_d=3)
        mean = model.mean()
        det_mean = linalg.det_cofactor(mean)
        assert abs(expect_det(model) - det_mean) <= 1e-12 * max(1.0, abs(det_mean))
        adj_mean = linalg.adjugate_cofactor(mean)
        assert np.abs(expect_adjugate(model) - adj_mean).max() <= 1e-12 * max(
            1.0, np.abs(adj_mean).max()
        )


def test_weighted_inverse_identity():
    # E[det(A) inv(A)] / E[det A] recovers inv(E[A]); inversion goes through
    # LAPACK while the determinant comes from cofactor expansion
    rng = np.random.default_rng(97)
    for _ in range(20):
        model = random_model(rng, max_n=6, max_d=3)
        target = np.linalg.inv(model.mean())
        got = expect_weighted_inverse(model)
        assert np.abs(got - target).max() <= 1e-12 * max(1.0, np.abs(target).max())


def test_non_bernoulli_two_point_law():
    # s_i in {0.5, 1.5} with equal probability: identity still exact
    rng = np.random.default_rng(101)
    comps = tuple(
        Component(np.outer(z, z), (0.5, 1.5), (0.5, 0.5))
        for z in rng.standard_normal((3, 2))
    )
    model = RandomRankOneSum(components=comps, base=0.7 * np.eye(2))
    det_mean = linalg.det_cofactor(model.mean())
    assert abs(expect_det(model) - det_mean) <= 1e-13 * max(1.0, abs(det_mean))


def test_rank_two_component_breaks_identity():
    model = rank_two_counterexample()
    gap = abs(expect_det(model) - linalg.det_cofactor(model.mean()))
    # E[det(s I)] = 2 while det(E[s] I) = 1
    assert gap == pytest.approx(1.0, abs=1e-12)
    assert gap >= 1e-6


def test_unweighted_inverse_is_biased():
    # the quantity uniform averaging converges to differs from inv(E[A])
    rng = np.random.default_rng(103)
    X = rng.standard_normal((4, 2))
    obj = Objective(Dataset(X=X, y=rng.standard_normal(4)), LossKind.SQUARE, lam=0.1)
    model = hessian_sketch_model(obj, np.zeros(2), k=2)
    plain = expect_inverse(model)
    target = np.linalg.inv(model.mean())
    assert np.abs(plain - target).max() >= 1e-3


def test_sketch_model_mean_is_the_hessian():
    rng = np.random.default_rng(107)
    X = rng.standard_normal((6, 3))
    y = (rng.random(6) < 0.5).astype(float)
    obj = Objective(Dataset(X=X, y=y), LossKind.LOGISTIC, lam=0.3)
    w = rng.standard_normal(3)
    model = hessian_sketch_model(obj, w, k=2)
    assert np.allclose(model.mean(), obj.hessian(w), atol=1e-12)


def test_weighted_inverse_solves_newton_step():
    # determinant weighting recovers the exact step through the sketch model
    rng = np.random.default_rng(109)
    X = rng.standard_normal((5, 2))
    obj = Objective(Dataset(X=X, y=rng.standard_normal(5)), LossKind.SQUARE, lam=0.2)
    w = np.zeros(2)
    model = hessian_sketch_model(obj, w, k=2)
    step = expect_weighted_inverse(model) @ obj.gradient(w)
    assert np.allclose(step, obj.exact_newton_step(w), atol=1e-12)


def test_uniform_newton_bias_two_routes_agree():
    # mask enumeration through the sketch pipeline vs the rank-one-sum model
    rng = np.random.default_rng(113)
    X = rng.standard_normal((5, 2))
    obj = Objective(Dataset(X=X, y=rng.standard_normal(5)), LossKind.SQUARE, lam=0.15)
    w = np.array([0.2, -0.4])
    k = 2
    bias = expect_uniform_newton_bias(obj, w, k)
    model = hessian_sketch_model(obj, w, k)
    via_model = expect_inverse(model) @ obj.gradient(w) - obj.exact_newton_step(w)
    assert np.allclose(bias, via_model, atol=1e-12)
    assert np.linalg.norm(bias) > 0


def reference_uniform_newton_bias(obj, w, k):
    """expect_uniform_newton_bias as it was before it kept its gradient: the
    exact step is Objective.exact_newton_step, which takes the gradient again."""
    g = obj.gradient(w)
    p = obj.exact_newton_step(w)
    gamma = k / obj.data.n
    mean_step = np.zeros(obj.data.d)
    for bits in itertools.product((False, True), repeat=obj.data.n):
        include = np.array(bits)
        prob = float(np.prod(np.where(include, gamma, 1.0 - gamma)))
        H_hat = local_hessian(obj, w, SketchMask(include=include, k=k, n=obj.data.n))
        mean_step += prob * np.linalg.solve(H_hat, g)
    return mean_step - p


def test_uniform_newton_bias_takes_the_gradient_once(monkeypatch):
    # criterion 2's instance
    rng = np.random.default_rng(42)
    data = Dataset(X=rng.standard_normal((4, 2)), y=rng.standard_normal(4))
    obj = Objective(data=data, loss=LossKind.SQUARE, lam=0.1)
    w, k = np.zeros(2), 2
    want = reference_uniform_newton_bias(obj, w, k)
    calls = []
    gradient = Objective.gradient
    monkeypatch.setattr(Objective, "gradient",
                        lambda self, w: calls.append(w) or gradient(self, w))
    bias = expect_uniform_newton_bias(obj, w, k)
    assert len(calls) == 1
    assert bias.tobytes() == want.tobytes()


def test_uniform_newton_bias_vanishes_at_huge_ridge():
    # lam -> infinity: every subsampled Hessian collapses to lam I
    rng = np.random.default_rng(127)
    X = rng.standard_normal((4, 2))
    obj = Objective(Dataset(X=X, y=rng.standard_normal(4)), LossKind.SQUARE, lam=1e8)
    bias = expect_uniform_newton_bias(obj, np.zeros(2), k=2)
    assert np.linalg.norm(bias) <= 1e-10


def test_enumeration_budget():
    z = np.ones((1, 1))
    comps = tuple(Component(z, (0.0, 1.0), (0.5, 0.5)) for _ in range(21))
    with pytest.raises(EnumerationBudgetExceeded):
        list(RandomRankOneSum(components=comps, base=np.eye(1)).outcome_blocks())
    # 3^13 outcomes exceed the 2^20 outcome cap even with few components
    comps3 = tuple(Component(z, (0.0, 1.0, 2.0), (0.3, 0.3, 0.4)) for _ in range(13))
    with pytest.raises(EnumerationBudgetExceeded):
        list(RandomRankOneSum(components=comps3, base=np.eye(1)).outcome_blocks())
    rng = np.random.default_rng(1)
    big = Dataset(X=rng.standard_normal((21, 2)), y=rng.standard_normal(21))
    with pytest.raises(EnumerationBudgetExceeded):
        expect_uniform_newton_bias(
            Objective(big, LossKind.SQUARE, lam=0.1), np.zeros(2), k=5
        )
    for max_n in (13, 21):
        with pytest.raises(EnumerationBudgetExceeded, match="max_n"):
            identity_suite(models=1, max_n=max_n)


def test_model_validation():
    with pytest.raises(ValueError):
        Component(np.eye(2), (1.0,), (0.9,))  # probs do not sum to 1
    with pytest.raises(ValueError):
        Component(np.eye(2), (1.0, 2.0), (0.5,))
    with pytest.raises(ValueError):
        RandomRankOneSum(components=(), base=np.eye(2))
    with pytest.raises(ValueError):
        RandomRankOneSum(
            components=(Component(np.eye(2), (1.0,), (1.0,)),), base=np.eye(3)
        )
    with pytest.raises(ValueError):
        RandomRankOneSum.bernoulli([np.eye(2)], gamma=0.0, base=np.eye(2))
    nan, inf = float("nan"), float("inf")
    # a NaN probability passes the sum-to-one check, since NaN compares false
    for field, args in [
        ("probabilities", (np.eye(2), (1.0, 2.0), (nan, 0.5))),
        ("probabilities", (np.eye(2), (1.0, 2.0), (inf, 0.5))),
        ("values", (np.eye(2), (1.0, inf), (0.5, 0.5))),
        ("values", (np.eye(2), (nan,), (1.0,))),
        ("matrix", (np.array([[1.0, 0.0], [0.0, nan]]), (1.0,), (1.0,))),
        ("matrix", (np.array([[1.0, -inf], [0.0, 1.0]]), (1.0,), (1.0,))),
    ]:
        with pytest.raises(ValueError, match=field):
            Component(*args)
    comp = Component(np.eye(2), (1.0,), (1.0,))
    for bad in (inf, nan):
        with pytest.raises(ValueError, match="base"):
            RandomRankOneSum(components=(comp,), base=np.diag([1.0, bad]))
    for max_d in (0, 6):
        with pytest.raises(ValueError, match="max_d"):
            identity_suite(models=1, max_d=max_d)
    with pytest.raises(ValueError, match="max_n"):
        identity_suite(models=1, max_n=1)


def test_identity_suite_report():
    report = identity_suite(models=25, max_n=6, max_d=3, seed=5)
    assert report.models == 25
    assert report.max_identity_dev <= 1e-12
    assert report.hand_instance_dev <= 1e-12
    assert report.counterexample_gap >= 1e-6


@settings(max_examples=40, deadline=None)
@given(max_n=st.integers(2, 6), max_d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_batched_expectations_match_per_outcome_loop(max_n, max_d, seed):
    model = random_model(np.random.default_rng(seed), max_n=max_n, max_d=max_d)
    det, adj, weighted_inverse = per_outcome_expectations(model)
    assert rel_err(expect_det(model), det) <= 1e-12
    assert rel_err(expect_adjugate(model), adj) <= 1e-12
    assert rel_err(expect_weighted_inverse(model), weighted_inverse) <= 1e-12


def spanning_model():
    """A d=1 model of 18 Bernoulli components: 2^18 outcomes, many chunks."""
    rng = np.random.default_rng(131)
    z = rng.uniform(0.5, 2.0, size=18)
    return RandomRankOneSum.bernoulli(
        [np.array([[v]]) for v in z], gamma=rng.uniform(0.2, 0.9, size=18), base=np.eye(1)
    )


def test_outcome_blocks_span_chunks_in_product_order():
    # 2^18 outcomes at d=1 fill several chunks; the identity still holds and
    # every chunk boundary continues itertools.product order
    model = spanning_model()
    blocks = list(model.outcome_blocks())
    assert len(blocks) >= 2
    p = np.concatenate([b[0] for b in blocks])
    A = np.concatenate([b[1] for b in blocks])
    assert A.shape == (2**18, 1, 1)
    assert abs(p.sum() - 1.0) <= 1e-12
    starts = np.cumsum([0] + [len(b[0]) for b in blocks])
    supports = [list(zip(c.values, c.probs)) for c in model.components]
    for i in sorted({0, len(p) - 1, *starts[1:-1], *(starts[1:-1] - 1)}):
        # outcome i of itertools.product: the binary digits of i, last
        # component fastest
        combo = [support[int(bit)] for support, bit in zip(supports, f"{i:018b}")]
        prob = np.prod([q for _, q in combo])
        A_i = model.base + sum(v * c.matrix for (v, _), c in zip(combo, model.components))
        assert p[i] == pytest.approx(prob, rel=1e-14)
        assert np.abs(A[i] - A_i).max() <= 1e-13 * np.abs(A_i).max()
    det_mean = linalg.det_cofactor(model.mean())
    assert abs(expect_det(model) - det_mean) <= 1e-12 * abs(det_mean)


SUITE_FS = (linalg.det_cofactor, linalg.adjugate_cofactor, _det_times_inverse)


def expect_alone(model, *fs):
    """Reference: each E[f(A)] of one model alone, summed chunk by chunk."""
    return [sum(np.einsum("b,b...->...", p, f(A)) for p, A in model.outcome_blocks()) for f in fs]


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@settings(max_examples=30, deadline=None)
@given(count=st.integers(1, 6), max_n=st.integers(2, 7), max_d=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_pass_equals_the_pass_over_each_model(count, max_n, max_d, seed):
    rng = np.random.default_rng(seed)
    models = [random_model(rng, max_n=max_n, max_d=max_d) for _ in range(count)]
    for model, got in zip(models, _expect_each(models, *SUITE_FS)):
        assert_same_bits(got, expect_alone(model, *SUITE_FS))


def test_stacked_pass_with_a_model_across_stacks():
    # the 2^18-outcome model among small d=1 models closes a stack mid-suite
    # and spreads over several stacks
    rng = np.random.default_rng(137)
    small = [random_model(rng, max_n=7, max_d=1) for _ in range(4)]
    models = [small[0], small[1], spanning_model(), small[2], small[3]]
    assert {model.dim for model in models} == {1}
    stacks = []

    def recorded_det(A):
        stacks.append(len(A))
        return linalg.det_cofactor(A)

    got = _expect_each(models, recorded_det, *SUITE_FS[1:])
    assert len(stacks) >= 3 and max(stacks) <= block_size(1, oracle._CHUNK_BYTES)
    assert sum(stacks) == sum(model.n_outcomes for model in models)
    for model, row in zip(models, got):
        assert_same_bits(row, expect_alone(model, *SUITE_FS))


def rel_dev(lhs, rhs):
    """One model's deviation, |lhs - rhs|_max / max(1, |rhs|_max)."""
    lhs = np.atleast_2d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_2d(np.asarray(rhs, dtype=float))
    return float(np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()))


def identity_suite_alone(models, max_n, max_d, seed):
    """Reference for identity_suite: one model at a time, through expect_alone."""
    rng = np.random.default_rng(seed)
    dev_det = dev_adj = dev_winv = 0.0
    for _ in range(models):
        model = random_model(rng, max_n=max_n, max_d=max_d)
        mean = model.mean()
        e_det, e_adj, e_det_inv = expect_alone(model, *SUITE_FS)
        dev_det = max(dev_det, rel_dev(e_det, linalg.det_cofactor(mean)))
        dev_adj = max(dev_adj, rel_dev(e_adj, linalg.adjugate_cofactor(mean)))
        dev_winv = max(dev_winv, rel_dev(e_det_inv / e_det, np.linalg.inv(mean)))
    hand = hand_checked_instance()
    hand_det, hand_adj = expect_alone(hand, linalg.det_cofactor, linalg.adjugate_cofactor)
    hand_dev = max(rel_dev(hand_det, 0.75), rel_dev(hand_adj, [[1.0, -0.5], [-0.5, 1.0]]))
    dev_det = max(dev_det, rel_dev(hand_det, linalg.det_cofactor(hand.mean())))
    dev_adj = max(dev_adj, rel_dev(hand_adj, linalg.adjugate_cofactor(hand.mean())))
    counter = rank_two_counterexample()
    (counter_det,) = expect_alone(counter, linalg.det_cofactor)
    gap = abs(counter_det - linalg.det_cofactor(counter.mean()))
    return IdentityReport(models, dev_det, dev_adj, dev_winv, hand_dev, gap)


@pytest.mark.parametrize("models, seed", [(20, P) for P in range(11)] + [(50, 0)])
def test_identity_suite_report_is_the_model_by_model_report(models, seed):
    # the benchmark's suite (20, 8, 3, 0..10) and criterion 1's (50, 8, 3, 0)
    got = identity_suite(models=models, max_n=8, max_d=3, seed=seed)
    assert got == identity_suite_alone(models, 8, 3, seed)


@settings(max_examples=40, deadline=None)
@given(models=st.integers(1, 8), max_n=st.integers(2, 6), max_d=st.integers(1, 5),
       seed=st.integers(0, 2**64 - 1))
def test_identity_suite_report_is_the_model_by_model_report_anywhere(models, max_n, max_d,
                                                                     seed):
    got = identity_suite(models=models, max_n=max_n, max_d=max_d, seed=seed)
    assert got == identity_suite_alone(models, max_n, max_d, seed)


def random_model_one_by_one(rng, max_n, max_d):
    """Reference draw: one Component per component, built as it is drawn."""
    d = int(rng.integers(1, max_d + 1))
    n = int(rng.integers(2, max_n + 1))
    lam = float(rng.uniform(0.5, 2.0))
    comps = []
    for _ in range(n):
        z = rng.standard_normal(d)
        Z = np.outer(z, z)
        kind = int(rng.integers(0, 4))
        if kind < 2:
            g = float(rng.uniform(0.2, 0.9))
            comps.append(Component(Z, (0.0, 1.0 / g if kind == 0 else 1.0), (1.0 - g, g)))
        elif kind == 2:
            comps.append(Component(Z, (0.5, 1.5), (0.5, 0.5)))
        else:
            p = rng.uniform(0.1, 1.0, size=3)
            p = p / p.sum()
            comps.append(Component(Z, (0.0, 1.0, 2.0), tuple(p)))
    return RandomRankOneSum(components=tuple(comps), base=lam * np.eye(d))


@pytest.mark.parametrize("max_n, max_d", [(2, 1), (8, 3), (12, 1), (6, 5)])
def test_random_model_keeps_the_draw_stream(max_n, max_d):
    # every report depends on this stream: a draw batched, reordered or
    # added moves the models, and the rng's end state shows it
    for seed in range(41):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            got = random_model(rng, max_n=max_n, max_d=max_d)
            want = random_model_one_by_one(reference, max_n, max_d)
            assert got.base.tobytes() == want.base.tobytes()
            assert len(got.components) == len(want.components)
            for c, w in zip(got.components, want.components):
                assert c.matrix.shape == w.matrix.shape
                assert c.matrix.tobytes() == w.matrix.tobytes()
                assert c.values == w.values and c.probs == w.probs
        assert rng.bit_generator.state == reference.bit_generator.state


def test_identity_suite_evaluates_in_bounded_groups(monkeypatch):
    events = []
    det, draw = linalg.det_cofactor, oracle.random_model

    def recorded_det(M):
        M = np.asarray(M)
        if M.ndim == 3:
            events.append(("stack", len(M), M.shape[-1]))
        return det(M)

    def recorded_draw(*args, **kwargs):
        model = draw(*args, **kwargs)
        events.append(("draw", model.n_outcomes, model.dim))
        return model

    monkeypatch.setattr(linalg, "det_cofactor", recorded_det)
    monkeypatch.setattr(oracle, "random_model", recorded_draw)
    report = identity_suite(models=100, max_n=8, max_d=3)
    monkeypatch.undo()
    assert report.max_identity_dev <= 1e-12
    draws = [i for i, (kind, _, _) in enumerate(events) if kind == "draw"]
    assert len(draws) == 100
    # more outcomes than one group holds, and a group evaluated before the
    # last model is drawn
    assert sum(events[i][1] for i in draws) > block_size(3 * 3, oracle._CHUNK_BYTES)
    assert any(kind == "stack" for kind, _, _ in events[draws[0]:draws[-1]])
    for kind, size, d in events:
        if kind == "stack":
            assert size <= block_size(d * d, oracle._CHUNK_BYTES)
