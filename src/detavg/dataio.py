"""Dataset input, feature expansion, and synthetic instance generation.

The on-disk format is the plain sparse text format used by the libsvm
family of tools: one example per line, a real label followed by
``index:value`` pairs with strictly increasing 1-based indices, ``#``
starting a comment.  Parsing is strict, and every complaint carries the
offending line number.
"""

from __future__ import annotations

import io
import math
from typing import Iterable, TextIO, Union

import numpy as np

from .objective import Dataset
from .errors import EmptyDataset, ParseError

Source = Union[str, TextIO, Iterable[str]]

# Most entries of a parsed dense matrix: 2^27 float64 entries are 1 GiB.
_MAX_ENTRIES = 1 << 27


def _iter_lines(source: Source) -> Iterable[str]:
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def parse_libsvm(source: Source) -> Dataset:
    """Parse sparse ``label index:value ...`` lines into a dense Dataset.

    Parameters
    ----------
    source : str, file object, or iterable of lines
        A string is treated as the file content, not a path.

    Returns
    -------
    Dataset
        Dense features of width equal to the largest index seen; entries
        never mentioned are zero.

    Raises
    ------
    ParseError
        On a malformed or non-finite label or pair, indices that are not
        strictly increasing within a line, or an index so wide that the
        dense matrix would exceed ``_MAX_ENTRIES`` entries (checked before
        allocating).  The error carries the line number.
    EmptyDataset
        If no data lines remain after stripping comments and blanks.
    """
    labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    width = width_line = 0
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(lineno, f"bad label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise ParseError(lineno, f"label {tokens[0]!r} is not finite")
        pairs: list[tuple[int, float]] = []
        prev = 0
        for token in tokens[1:]:
            idx_str, sep, val_str = token.partition(":")
            if not sep:
                raise ParseError(lineno, f"expected index:value, got {token!r}")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise ParseError(lineno, f"bad pair {token!r}") from None
            if not math.isfinite(val):
                raise ParseError(lineno, f"value in {token!r} is not finite")
            if idx < 1:
                raise ParseError(lineno, f"index {idx} is not positive")
            if idx <= prev:
                raise ParseError(lineno, f"index {idx} not increasing after {prev}")
            prev = idx
            pairs.append((idx, val))
        if prev > width:
            width, width_line = prev, lineno
        labels.append(label)
        rows.append(pairs)
    if not rows:
        raise EmptyDataset("no data lines in input")
    if len(rows) * width > _MAX_ENTRIES:
        raise ParseError(
            width_line, f"index {width} makes a {len(rows)} x {width} matrix, over the cap "
            f"of {_MAX_ENTRIES} entries"
        )
    X = np.zeros((len(rows), max(width, 1)))
    for i, pairs in enumerate(rows):
        for idx, val in pairs:
            X[i, idx - 1] = val
    return Dataset(X=X, y=np.array(labels))


def load_libsvm(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as f:
        return parse_libsvm(f)


def serialize_libsvm(data: Dataset) -> str:
    """Inverse of :func:`parse_libsvm` for datasets without explicit zeros.

    Nonzero entries only, shortest round-tripping float repr, LF endings.
    """
    lines = []
    for i in range(data.n):
        parts = [repr(float(data.y[i]))]
        row = data.X[i]
        for j in np.flatnonzero(row):
            parts.append(f"{j + 1}:{repr(float(row[j]))}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def expand_degree2(data: Dataset) -> Dataset:
    """All degree-2 monomial features with redundant columns removed.

    The output columns are the original features followed by the products
    ``x_j * x_l`` for ``j <= l`` in lexicographic order.  A column that is
    exactly constant, or an exact duplicate of an earlier kept column, is
    dropped; the scan order makes the result deterministic.  A 0/1 column
    therefore loses its square, which duplicates it.
    """
    X = data.X
    d = data.d
    columns = [X[:, j] for j in range(d)]
    for j in range(d):
        for l in range(j, d):
            columns.append(X[:, j] * X[:, l])
    kept: list[np.ndarray] = []
    for col in columns:
        if np.all(col == col[0]):
            continue
        if any(np.array_equal(col, prev) for prev in kept):
            continue
        kept.append(col)
    if not kept:
        raise EmptyDataset("every expanded column was constant")
    return Dataset(X=np.column_stack(kept), y=data.y)


def standardize(data: Dataset) -> Dataset:
    """Center each column and scale it to unit variance.

    Zero-variance columns are centered only (they become zero), so the
    result is always finite.
    """
    mean = data.X.mean(axis=0)
    sd = data.X.std(axis=0)
    # a constant column can pick up sd of a few ulp from the mean subtraction
    degenerate = sd <= 1e-12 * (np.abs(mean) + 1.0)
    Z = (data.X - mean) / np.where(degenerate, 1.0, sd)
    Z[:, degenerate] = 0.0
    return Dataset(X=Z, y=data.y)


def synth_regression(
    n: int, d: int, noise_sd: float, seed: int, return_planted: bool = False
):
    """Gaussian design with labels from a planted linear model.

    Draws, in a fixed order from one seeded generator: the planted weight
    vector, the n-by-d design, and the label noise.  The same seed always
    yields the same instance.

    Parameters
    ----------
    noise_sd : float
        Standard deviation of the additive label noise, may be zero.
    return_planted : bool
        Also return the planted weight vector.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be nonnegative, got {noise_sd}")
    rng = np.random.default_rng(seed)
    w_planted = rng.standard_normal(d)
    X = rng.standard_normal((n, d))
    y = X @ w_planted + noise_sd * rng.standard_normal(n)
    data = Dataset(X=X, y=y)
    return (data, w_planted) if return_planted else data
