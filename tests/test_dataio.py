"""Dataset parsing, feature expansion, standardization, synthesis."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detavg.dataio import (
    expand_degree2,
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
    standardize,
    synth_regression,
)
from detavg.errors import EmptyDataset, ParseError
from detavg.objective import Dataset


SAMPLE = """\
1.0 1:0.5 3:-2.0  # trailing comment
-1 2:1.5
# a full comment line

2 1:1 2:2 3:3
"""


def test_parse_basic():
    data = parse_libsvm(SAMPLE)
    assert (data.n, data.d) == (3, 3)
    assert np.allclose(data.X, [[0.5, 0.0, -2.0], [0.0, 1.5, 0.0], [1.0, 2.0, 3.0]])
    assert np.allclose(data.y, [1.0, -1.0, 2.0])


def test_parse_crlf_and_file_object(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_bytes(b"1 1:2\r\n0 1:1 2:-3\r\n")
    data = load_libsvm(path)
    assert (data.n, data.d) == (2, 2)
    assert np.allclose(data.X, [[2.0, 0.0], [1.0, -3.0]])


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("x 1:1", 1),
        ("1 a:b", 1),
        ("1 1:1\n2 0:3", 2),
        ("1 1:1\n\n2 2:1 2:2", 3),
        ("1 3:1 2:1", 1),
        ("1 11", 1),
        ("1 2:", 1),
        ("0 1:2\n1 1:nan", 2),
        ("0 1:2\n\n1 1:inf", 3),
        ("nan 1:1", 1),
        ("0 1:1\n1 1099511627776:1\n0 2:1", 2),  # 2^40 columns: refused, not allocated
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_libsvm(text)
    assert err.value.lineno == lineno
    assert f"line {lineno}" in str(err.value)


@pytest.mark.parametrize("text", ["", "   \n\n", "# nothing\n# here\n"])
def test_empty_input(text):
    with pytest.raises(EmptyDataset):
        parse_libsvm(text)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = st.one_of(st.just(0.0), finite)
    X = draw(st.lists(cells, min_size=n * d, max_size=n * d))
    y = draw(st.lists(finite, min_size=n, max_size=n))
    return Dataset(X=np.reshape(X, (n, d)), y=y)


@settings(max_examples=200, deadline=None)
@given(datasets())
@example(parse_libsvm("1.5 1:0.001 3:-2.25e-3\n-0.5 2:7.125\n3 1:-1 2:0.3333333333333333 3:9\n"))
@example(Dataset(X=[[1.0, 0.0], [2.0, 0.0]], y=[0.0, 1.0]))  # trailing all-zero column
def test_round_trip(data):
    # only nonzero entries are written, so trailing all-zero columns come back
    # narrower: the parsed width is the last column holding a nonzero, and at
    # least 1; every value and label comes back exactly
    again = parse_libsvm(serialize_libsvm(data))
    nonzero_cols = np.flatnonzero(np.any(data.X != 0.0, axis=0))
    width = int(nonzero_cols[-1]) + 1 if len(nonzero_cols) else 1
    assert again.X.shape == (data.n, width)
    assert np.array_equal(again.X, data.X[:, :width])
    assert not np.any(data.X[:, width:])
    assert np.array_equal(again.y, data.y)


def test_round_trip_with_all_zero_row():
    data = Dataset(X=[[1.0, 2.0], [0.0, 0.0], [0.0, 3.0]], y=[1.0, 0.0, -1.0])
    again = parse_libsvm(serialize_libsvm(data))
    assert np.array_equal(again.X, data.X)
    assert np.array_equal(again.y, data.y)


def test_expand_degree2_generic_width():
    # without exact collisions: d originals plus all d(d+1)/2 products
    data = Dataset(X=[[1.0, 2.0], [3.0, 4.0]], y=[0.0, 1.0])
    out = expand_degree2(data)
    assert out.d == 2 + 3
    assert np.allclose(out.X.T, [[1, 3], [2, 4], [1, 9], [2, 12], [4, 16]])
    assert np.array_equal(out.y, data.y)


def test_expand_degree2_drops_square_of_binary_column():
    data = Dataset(X=[[0.0], [1.0], [0.0]], y=[0.0, 0.0, 0.0])
    out = expand_degree2(data)
    assert out.d == 1  # x^2 duplicates x exactly


def test_expand_degree2_drops_constant_columns():
    data = Dataset(X=[[1.0, 2.0], [1.0, 3.0]], y=[0.0, 0.0])
    out = expand_degree2(data)
    # x1 constant, x1^2 constant, x1*x2 duplicates x2; only x2 and x2^2 stay
    assert out.d == 2
    assert np.allclose(out.X.T, [[2.0, 3.0], [4.0, 9.0]])


def test_expand_degree2_deterministic():
    rng = np.random.default_rng(131)
    data = Dataset(X=rng.standard_normal((20, 4)), y=rng.standard_normal(20))
    a = expand_degree2(data)
    b = expand_degree2(data)
    assert a.d == 4 + 10
    assert np.array_equal(a.X, b.X)


def test_standardize():
    rng = np.random.default_rng(137)
    X = rng.standard_normal((50, 3)) * np.array([5.0, 0.1, 2.0]) + 7.0
    X[:, 1] = 4.2  # constant column
    data = standardize(Dataset(X=X, y=rng.standard_normal(50)))
    assert np.abs(data.X.mean(axis=0)).max() <= 1e-10
    assert np.allclose(data.X.std(axis=0), [1.0, 0.0, 1.0], atol=1e-10)
    assert np.all(data.X[:, 1] == 0.0)


def test_synth_regression_deterministic_per_seed():
    a = synth_regression(30, 4, 0.5, seed=9)
    b = synth_regression(30, 4, 0.5, seed=9)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = synth_regression(30, 4, 0.5, seed=10)
    assert not np.array_equal(a.X, c.X)


def test_synth_regression_recovers_planted_weights():
    data, w_true = synth_regression(5000, 5, 0.1, seed=3, return_planted=True)
    G = data.X.T @ data.X
    w_hat = np.linalg.solve(G, data.X.T @ data.y)
    # classic normal-equations standard errors
    se = 0.1 * np.sqrt(np.diag(np.linalg.inv(G)))
    assert np.all(np.abs(w_hat - w_true) <= 3 * se)


def test_synth_regression_noise_free():
    data, w_true = synth_regression(40, 3, 0.0, seed=4, return_planted=True)
    assert np.allclose(data.y, data.X @ w_true, atol=1e-14)


def test_synth_regression_validation():
    with pytest.raises(ValueError):
        synth_regression(0, 3, 0.1, seed=0)
    with pytest.raises(ValueError):
        synth_regression(5, 0, 0.1, seed=0)
    with pytest.raises(ValueError):
        synth_regression(5, 3, -0.1, seed=0)
