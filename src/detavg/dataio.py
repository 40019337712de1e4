"""Dataset input, feature expansion, and synthetic instance generation.

The on-disk format is the plain sparse text format used by the libsvm
family of tools: one example per line, a real label followed by
``index:value`` pairs with strictly increasing 1-based indices, ``#``
starting a comment.  Parsing is strict, and every complaint carries the
offending line number.  Lines are read in blocks of ``BLOCK_LINES``: a
block of plain dense lines (ASCII, single spaces, LF endings, no comment
or blank line, the same indices on every line) is converted at once, any
other block line by line, with the same bytes and the same errors.
"""

from __future__ import annotations

import io
import math
from itertools import islice, repeat
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

from .objective import Dataset
from .errors import EmptyDataset, ParseError

Source = Union[str, TextIO, Iterable[str]]

# Most entries of an array sized from user input, checked before allocating:
# a parsed dense matrix here, a fleet's outputs in sketch.local_fleet.  2^27
# float64 entries are 1 GiB.
MAX_ENTRIES = 1 << 27

# Lines per block of parse_libsvm.  A block of plain dense lines is
# converted at once, so its text and fields are held at once: parsing a
# 2000-line d=65 file peaks at about 4 MB under tracemalloc, against 26 MB
# for the whole file as one block.
BLOCK_LINES = 256
# Every printable ASCII character but the space and the two that structure a
# line, ":" and "#"
_TOKEN_BYTES = bytes(c for c in range(0x21, 0x7F) if chr(c) not in ":#")


def _iter_lines(source: Source) -> Iterable[str]:
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def parse_libsvm(source: Source) -> Dataset:
    """Parse sparse ``label index:value ...`` lines into a dense Dataset.

    Lines are read in blocks of ``BLOCK_LINES``.  A block of plain dense
    lines is converted at once: every line ASCII, LF-terminated (the last
    line of the input may lack the LF), fields separated by single spaces,
    no comment, no blank line, and the same index text as the block's first
    line.  Any other block is converted line by line: each line's fields in
    bulk, by ``np.array(..., dtype)`` with the semantics of ``int()`` and
    ``float()``, and only a line that fails that test token by token, which
    names its fault.  Both routes give the same bytes and the same errors.

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
        dense matrix would exceed ``MAX_ENTRIES`` entries (checked before
        allocating).  The error carries the line number.
    EmptyDataset
        If no data lines remain after stripping comments and blanks.
    """
    labels: list[float] = []
    # (first row, indices, values) of dense blocks, and (row, indices,
    # values) of the lines converted one at a time
    blocks: list[tuple[int, np.ndarray, np.ndarray]] = []
    rows: list[tuple[int, Sequence[int], Sequence[float]]] = []
    width = width_line = lineno = 0
    previous: dict[str, np.ndarray | None] = {}
    lines = iter(_iter_lines(source))
    for block in iter(lambda: list(islice(lines, BLOCK_LINES)), []):
        dense = _dense_block(block, previous)
        if dense is not None:
            block_labels, indices, values = dense
            if len(indices) and indices[-1] > width:
                width, width_line = int(indices[-1]), lineno + 1
            blocks.append((len(labels), indices, values))
            labels.extend(block_labels.tolist())
            lineno += len(block)
            continue
        for lineno, raw in enumerate(block, start=lineno + 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            label, indices, values = _bulk_row(line, previous) or _checked_row(lineno, line)
            top = int(indices[-1]) if len(indices) else 0
            if top > width:
                width, width_line = top, lineno
            rows.append((len(labels), indices, values))
            labels.append(label)
    if not labels:
        raise EmptyDataset("no data lines in input")
    if len(labels) * width > MAX_ENTRIES:
        raise ParseError(
            width_line, f"index {width} makes a {len(labels)} x {width} matrix, over the cap "
            f"of {MAX_ENTRIES} entries"
        )
    X = np.zeros((len(labels), max(width, 1)))
    for start, indices, values in blocks:
        X[start:start + len(values), indices - 1] = values
    counts = [len(indices) for _, indices, _ in rows]
    if sum(counts):
        columns = np.concatenate([indices for _, indices, _ in rows]) - 1
        X[np.repeat([row for row, _, _ in rows], counts), columns] = np.concatenate(
            [values for _, _, values in rows])
    return Dataset(X=X, y=np.array(labels))


def _dense_block(lines: list[str], previous: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Labels, indices and values of a block of plain dense lines (see
    :func:`parse_libsvm`), each converted at once, or None if the block is
    not plain dense or any field fails a check of :func:`_checked_row`.

    ``previous`` is :func:`_bulk_row`'s cache of the last index text.
    """
    # a cheap miss first: the first and last lines of a sparse block rarely
    # share their indices
    first, last = (line.replace(":", " ").split(" ")[1::2] for line in (lines[0], lines[-1]))
    if first != last:
        return None
    text = "".join(lines)
    # ASCII, so that encode cannot fail, and one line per item, so that the
    # lines of the text are the block's
    if not (text.isascii() and all(map(str.endswith, lines[:-1], repeat("\n")))):
        return None
    if not text.endswith("\n"):
        text += "\n"
    # with every token character deleted, a plain dense line of k pairs
    # reads " :" k times, then its LF; a tab, a CR, a comment, a blank line
    # or a leading, trailing or doubled space leaves something else
    k = lines[0].count(":")
    if text.encode().translate(None, _TOKEN_BYTES) != (b" :" * k + b"\n") * len(lines):
        return None
    # per line: label, then index and value k times, then "\n"; the indices
    # and the "\n" are the odd fields, the label and the values the even ones
    fields = text.replace(":", " ").replace("\n", " \n ").split(" ")
    fields.pop()
    head = fields[1:2 * k + 2:2]
    if fields[1::2] != head * len(lines):
        return None
    index_text = " ".join(head[:-1])
    try:
        numbers = np.array(fields[0::2], dtype=float).reshape(len(lines), k + 1)
        if index_text not in previous:
            previous.clear()
            previous[index_text] = _indices(index_text)
    except (ValueError, OverflowError):
        return None
    indices = previous[index_text]
    # one empty index (":5") joins to the text of no indices
    if indices is None or len(indices) != k or not np.isfinite(numbers).all():
        return None
    return numbers[:, 0], indices, numbers[:, 1:]


def _bulk_row(line: str, previous: dict) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Label, indices and values of a well-formed data line, converted in
    bulk, or None if any of them fails a check of :func:`_checked_row`
    (or an index does not fit in int64).

    ``previous`` maps the index text of the last line converted to its
    indices, which the next line reuses when it has the same ones, as every
    line of a dense file does.
    """
    tokens = line.split()
    pairs = tokens[1:]
    # a colon in every pair and as many colons as pairs: one in each pair,
    # none in the label
    if line.count(":") != len(pairs) or not all(map(str.__contains__, pairs, repeat(":"))):
        return None
    fields = ":".join(pairs).split(":")
    text = " ".join(fields[0::2])
    try:
        label = float(tokens[0])
        values = np.array(fields[1::2], dtype=float)
        if text not in previous:
            previous.clear()
            previous[text] = _indices(text)
    except (ValueError, OverflowError):
        return None
    indices = previous[text]
    # one empty index (":5") joins to the text of no indices
    if (indices is None or len(indices) != len(values)
            or not (math.isfinite(label) and np.isfinite(values).all())):
        return None
    return label, indices, values


def _indices(text: str) -> np.ndarray | None:
    """The space-separated indices of a line as int64, or None unless they
    are positive and strictly increasing."""
    indices = np.array(text.split(" ") if text else [], dtype=np.int64)
    if not ((indices[:1] > 0).all() and (indices[1:] > indices[:-1]).all()):
        return None
    return indices


def _checked_row(lineno: int, line: str) -> tuple[float, list[int], list[float]]:
    """Label, indices and values of a data line, token by token: the
    ParseError naming the line's first fault, or, for a line that only has
    an index past int64, the row (which the width cap then refuses)."""
    tokens = line.split()
    try:
        label = float(tokens[0])
    except ValueError:
        raise ParseError(lineno, f"bad label {tokens[0]!r}") from None
    if not math.isfinite(label):
        raise ParseError(lineno, f"label {tokens[0]!r} is not finite")
    indices: list[int] = []
    values: list[float] = []
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
        indices.append(idx)
        values.append(val)
    return label, indices, values


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
    with np.errstate(over="ignore"):  # a non-finite label is refused by Dataset
        y = X @ w_planted + noise_sd * rng.standard_normal(n)
    data = Dataset(X=X, y=y)
    return (data, w_planted) if return_planted else data
