"""Objective calculus against finite-difference oracles and hand values."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from detavg.objective import Dataset, LossKind, Objective, gram, gram_tail, hessian_rows


def fd_gradient(obj, w):
    h = 1e-5 * (1.0 + np.linalg.norm(w))
    g = np.empty(len(w))
    for j in range(len(w)):
        e = np.zeros(len(w))
        e[j] = h
        g[j] = (obj.loss_value(w + e) - obj.loss_value(w - e)) / (2 * h)
    return g


def fd_hessian(obj, w):
    h = 1e-5 * (1.0 + np.linalg.norm(w))
    H = np.empty((len(w), len(w)))
    for j in range(len(w)):
        e = np.zeros(len(w))
        e[j] = h
        H[:, j] = (obj.gradient(w + e) - obj.gradient(w - e)) / (2 * h)
    return 0.5 * (H + H.T)


def random_instance(rng):
    n = int(rng.integers(3, 30))
    d = int(rng.integers(1, 7))
    X = rng.standard_normal((n, d))
    loss = LossKind.SQUARE if rng.random() < 0.5 else LossKind.LOGISTIC
    if loss is LossKind.LOGISTIC:
        y = (rng.random(n) < 0.5).astype(float)
    else:
        y = rng.standard_normal(n)
    lam = float(rng.uniform(1e-3, 1.0))
    return Objective(data=Dataset(X=X, y=y), loss=loss, lam=lam)


def test_loss_hand_instances():
    # single point x=1, y=1, lam=2 at w=0: (0-1)^2 + 0 ridge
    obj = Objective(Dataset(X=[[1.0]], y=[1.0]), LossKind.SQUARE, lam=2.0)
    assert obj.loss_value(np.zeros(1)) == pytest.approx(1.0)
    # interpolating w leaves only the ridge term
    obj = Objective(
        Dataset(X=[[1.0, 0.0], [0.0, 1.0]], y=[1.0, 1.0]), LossKind.SQUARE, lam=1.0
    )
    assert obj.loss_value(np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_pure_ridge_on_zero_rows():
    # rows of zeros carry no data signal: only the ridge acts
    data = Dataset(X=np.zeros((4, 3)), y=np.zeros(4))
    obj = Objective(data, LossKind.SQUARE, lam=1.0)
    w = np.array([0.3, -1.2, 2.0])
    assert np.allclose(obj.gradient(w), w)
    obj3 = Objective(data, LossKind.SQUARE, lam=3.0)
    assert np.allclose(obj3.hessian(w), 3.0 * np.eye(3))
    # Newton step of a pure quadratic ridge recovers w itself
    assert np.allclose(obj3.exact_newton_step(w), w)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    for _ in range(25):
        obj = random_instance(rng)
        w = rng.standard_normal(obj.d)
        g = obj.gradient(w)
        g_fd = fd_gradient(obj, w)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g_fd))


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(37)
    for _ in range(25):
        obj = random_instance(rng)
        w = rng.standard_normal(obj.d)
        H = obj.hessian(w)
        H_fd = fd_hessian(obj, w)
        assert np.abs(H - H_fd).max() <= 1e-4 * max(1.0, np.abs(H_fd).max())


def test_hessian_dominates_ridge():
    rng = np.random.default_rng(41)
    for _ in range(20):
        obj = random_instance(rng)
        w = rng.standard_normal(obj.d)
        eigs = np.linalg.eigvalsh(obj.hessian(w))
        assert eigs.min() >= obj.lam - 1e-10


def test_square_hessian_is_constant_in_w():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((12, 4))
    obj = Objective(Dataset(X=X, y=rng.standard_normal(12)), LossKind.SQUARE, lam=0.5)
    H0 = obj.hessian(np.zeros(4))
    H1 = obj.hessian(rng.standard_normal(4))
    assert np.array_equal(H0, H1)


def test_square_newton_step_reaches_stationarity():
    # square loss is quadratic, so one exact step lands on the minimizer
    rng = np.random.default_rng(47)
    X = rng.standard_normal((40, 5))
    obj = Objective(Dataset(X=X, y=rng.standard_normal(40)), LossKind.SQUARE, lam=0.2)
    w = rng.standard_normal(5)
    w_next = w - obj.exact_newton_step(w)
    assert np.linalg.norm(obj.gradient(w_next)) <= 1e-10


def test_ridge_stationary_point_has_zero_gradient():
    rng = np.random.default_rng(53)
    X = rng.standard_normal((30, 4))
    y = rng.standard_normal(30)
    lam = 0.3
    obj = Objective(Dataset(X=X, y=y), LossKind.SQUARE, lam=lam)
    # closed-form ridge solution of (2/n) X^T(Xw - y) + lam w = 0
    n = 30
    w_star = np.linalg.solve(2.0 * X.T @ X / n + lam * np.eye(4), 2.0 * X.T @ y / n)
    assert np.linalg.norm(obj.gradient(w_star)) <= 1e-10


def test_logistic_curvature_shape():
    obj = Objective(
        Dataset(X=[[1.0], [2.0]], y=[1.0, 0.0]), LossKind.LOGISTIC, lam=1.0
    )
    z = np.array([0.0, 100.0, -100.0])
    curv = obj.loss.d2value(z)
    assert curv[0] == pytest.approx(0.25)
    assert curv[1] >= 0 and curv[2] >= 0  # saturates but never goes negative
    assert np.all(curv <= 0.25 + 1e-15)


def ulp_distance(a, b):
    """Floats from a to b, for arrays of nonnegative floats."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_logistic_sigmoid_agrees_with_scipy_expit():
    # expit (scipy is a test dependency only) computes 1 / (1 + exp(-z)) with
    # the C library's exp; the package's sigmoid uses numpy's exp, which can
    # differ from it by an ulp.  For z >= 0 the two formulas are the same, so
    # they agree within 2 ulp.  Below 0 the package divides exp(z) by
    # 1 + exp(z), and expit's own form is up to 2.3 ulp off the sigmoid near
    # z = -36.7, so there they differ by up to 4 ulp: of 1.2e8 uniform draws
    # from six intervals within [-691, 40], 97% were within 1 ulp, 0.1% at 3
    # and 70 draws at 4.
    rng = np.random.default_rng(0)
    z = np.concatenate([np.linspace(-745.0, 745.0, 200_001), rng.uniform(-40.0, 40.0, 400_000),
                        rng.uniform(-700.0, 0.0, 400_000)])
    y = np.zeros_like(z)
    s = LossKind.LOGISTIC.dvalue(z, y)
    want = expit(z)
    kept = want >= 1e-300
    assert kept.sum() > 0.9 * len(z)
    distance = ulp_distance(s[kept], want[kept])
    assert distance.max() <= 4
    assert distance[z[kept] >= 0].max() <= 2
    assert np.array_equal(LossKind.LOGISTIC.dvalue(z, y + 1.0), s - 1.0)
    # the curvature s (1 - s), even in z, against expit(z) expit(-z) for |z|
    # up to 700: within 4 ulp wherever that is at least 1e-300 (of these
    # 980111 points, 62% agree exactly and 21 differ by 4 ulp).  s (1 - s) itself
    # cancels as s nears 1: 1e-3 relative off at z = 30, exactly 0 past 36.7.
    z = np.abs(z[np.abs(z) <= 700.0])
    curv = LossKind.LOGISTIC.d2value(z)
    assert np.array_equal(LossKind.LOGISTIC.d2value(-z), curv)
    want = expit(z) * expit(-z)
    kept = want >= 1e-300
    assert kept.sum() > 0.9 * len(z)
    assert ulp_distance(curv[kept], want[kept]).max() <= 4


def test_logistic_sigmoid_is_quiet_at_extremes():
    z = np.array([745.0, -745.0, 1e300, -1e300, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = LossKind.LOGISTIC.dvalue(z, np.zeros(6))
        curv = LossKind.LOGISTIC.d2value(z)
    assert np.array_equal(s, [1.0, 5e-324, 1.0, 0.0, 1.0, 0.0])
    # e^-745 is the smallest subnormal on either side of 0
    assert np.array_equal(curv, [5e-324, 5e-324, 0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (65, 65), (3, 10, 10), (1024, 10, 10),
                                   (31, 65, 65)])
@pytest.mark.parametrize("with_ridge", [False, True])
def test_gram_tail_in_place_equals_a_separate_buffer(shape, with_ridge):
    # gram_tail divides an exactly symmetric product in place and adds the
    # scalar ridge to each diagonal through a view: it returns G itself, with
    # the bytes of G / scale plus the ridge on the diagonal of a separate
    # buffer, for one matrix and for stacks past numpy's ufunc buffer (8192
    # elements).  The default ridge 0.0 leaves the bytes of G / scale, and an
    # off-diagonal -0.0 stays -0.0.
    rng = np.random.default_rng(sum(shape))
    A = rng.standard_normal(shape) * 1e3
    raw = A + np.swapaxes(A, -1, -2)
    d = shape[-1]
    if d > 1:
        raw[..., 0, 1] = raw[..., 1, 0] = -0.0
    want = raw / 7
    G = raw.copy()
    if with_ridge:
        want[..., np.arange(d), np.arange(d)] += 0.3
        assert gram_tail(G, 7, 0.3) is G
    else:
        assert gram_tail(G, 7) is G
    assert G.tobytes() == want.tobytes()


def test_hessian_entry_past_half_float_max_stays_finite():
    # 1.1e154^2 = 1.21e308 lies in (float max / 2, float max]: the Hessian
    # reads it, where adding the Gram to its own transpose overflowed
    obj = Objective(Dataset(X=[[1.1e154], [1e-3]], y=[0.0, 1.0]), LossKind.SQUARE, lam=1.0)
    H = obj.hessian(np.zeros(1))
    assert np.isfinite(H).all() and H[0, 0] == pytest.approx(1.21e308, rel=1e-15)


@pytest.mark.parametrize("d", [1, 2, 10, 65, 257])
def test_gram_of_every_operand_the_package_passes_is_exactly_symmetric(d):
    # gram_tail does not symmetrize, so gram must: every operand the package
    # passes it (the dataset's rows, both losses' weighted rows and any
    # machine's compressed rows, none and one of them included) is
    # C-contiguous, which numpy hands to syrk, whose triangle it mirrors
    rng = np.random.default_rng(d)
    n = 400
    data = Dataset(X=rng.standard_normal((n, d)), y=(rng.random(n) < 0.5).astype(float))
    w = 0.1 * rng.standard_normal(d)
    masks = [np.zeros(n, dtype=bool), np.arange(n) == 7, rng.random(n) < 0.5]
    for Z in [data.X, *(hessian_rows(loss, data.X, w)[0] for loss in LossKind)]:
        for operand in [Z, *(Z.compress(include, axis=0) for include in masks)]:
            G = gram(np.empty((d, d)), operand)
            assert G.tobytes() == G.T.tobytes()


@pytest.mark.parametrize("loss", list(LossKind))
def test_column_strided_features_give_the_contiguous_hessian(loss):
    # a view of every other column is stored as a contiguous copy, so its
    # Hessian is the copy's to the byte, and its Gram is syrk's, exactly
    # symmetric
    rng = np.random.default_rng(151)
    strided = rng.standard_normal((400, 130))[:, ::2]
    y = (rng.random(400) < 0.5).astype(float)
    w = 0.1 * rng.standard_normal(65)
    data = Dataset(X=strided, y=y)
    assert data.X.flags.c_contiguous
    H = Objective(data, loss, lam=1e-3).hessian(w)
    H_copy = Objective(Dataset(X=strided.copy(), y=y), loss, lam=1e-3).hessian(w)
    assert H.tobytes() == H_copy.tobytes()
    G = gram(np.empty((65, 65)), data.X)
    assert np.array_equal(G, G.T)
    assert np.array_equal(H, H.T)


def test_logistic_rejects_bad_labels():
    with pytest.raises(ValueError):
        Objective(Dataset(X=[[1.0]], y=[-1.0]), LossKind.LOGISTIC, lam=1.0)


def test_validation():
    with pytest.raises(ValueError):
        Objective(Dataset(X=[[1.0]], y=[1.0]), LossKind.SQUARE, lam=0.0)
    with pytest.raises(ValueError):
        Objective(Dataset(X=[[1.0]], y=[1.0]), LossKind.SQUARE, lam=np.inf)
    with pytest.raises(ValueError):
        Dataset(X=[[1.0], [2.0]], y=[1.0])
    with pytest.raises(ValueError):
        Dataset(X=[[np.nan]], y=[1.0])
    with pytest.raises(ValueError):
        Dataset(X=np.empty((0, 2)), y=np.empty(0))


def test_dataset_refuses_a_one_dimensional_x():
    with pytest.raises(ValueError, match=r"X must be 2-d, got shape \(3,\)"):
        Dataset(X=np.ones(3), y=np.ones(3))
