"""Dataset input, feature expansion, and synthetic instance generation.

The on-disk format is the plain sparse text format used by the libsvm
family of tools: one example per line, a real label followed by
``index:value`` pairs with strictly increasing 1-based indices, ``#``
starting a comment.  Parsing is strict, and every complaint carries the
offending line number.  Lines are read in blocks of ``BLOCK_LINES``, and
one converter, :func:`_block`, converts a block of plain lines (ASCII,
single spaces, LF endings, no comment or blank line, any indices) at once:
one float conversion for its labels and values, one index check per
distinct index text.  Any other block is normalized line by line and given
to the same converter; only a block that still fails goes token by token,
to name its fault.  Every route gives the same bytes and the same errors.
"""

from __future__ import annotations

import io
import math
import re
from itertools import islice, repeat
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

from .objective import Dataset
from .errors import EmptyDataset, ParseError

Source = Union[str, TextIO, Iterable[str]]

# Most entries of an array sized from user input, checked before allocating
# by refuse_above_cap (parse_libsvm's own ParseError names the line): a
# synthetic design, the d x d matrices of every data subcommand (so d <=
# 11,585), a fleet's outputs and an output table.  2^27 float64 entries are
# 1 GiB.
MAX_ENTRIES = 1 << 27

# Lines per block of parse_libsvm.  A block of plain lines is converted at
# once, so its text and fields are held at once: parsing a
# 2000-line d=65 file peaks at about 4 MB under tracemalloc, against 26 MB
# for the whole file as one block.
BLOCK_LINES = 256
# Every printable ASCII character but the space and the two that structure a
# line, ":" and "#"
_TOKEN_BYTES = bytes(c for c in range(0x21, 0x7F) if chr(c) not in ":#")
# What the "surrogateescape" error handler makes of a byte that is not UTF-8
_ESCAPED = re.compile("[\udc80-\udcff]")


def refuse_above_cap(count: int, what: str) -> None:
    """Raise ValueError naming ``what`` if it would hold more than
    ``MAX_ENTRIES`` values; called before ``what`` is allocated."""
    if count > MAX_ENTRIES:
        raise ValueError(f"{what} would hold {count} values, more than {MAX_ENTRIES}")


def _iter_lines(source: Source) -> Iterable[str]:
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def parse_libsvm(source: Source) -> Dataset:
    """Parse sparse ``label index:value ...`` lines into a dense Dataset.

    Lines are read in blocks of ``BLOCK_LINES``, and a block of plain lines
    is converted at once by :func:`_block`: every line ASCII, LF-terminated
    (the last line of the input may lack the LF), fields separated by single
    spaces, no comment, no blank line, any indices.  Any other block is
    normalized line by line (comment cut, whitespace runs made one space,
    blank lines dropped) and converted at once again; only a block that
    still fails, say for a faulty line, is converted token by token by
    :func:`_checked_row`, which names the fault.  Every route gives the same
    bytes and the same errors.

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
        strictly increasing within a line, a byte that is not UTF-8 (read by
        :func:`load_libsvm` as a surrogate escape), or an index so wide that
        the dense matrix would exceed ``MAX_ENTRIES`` entries (checked
        before allocating).  The error carries the line number.
    EmptyDataset
        If no data lines remain after stripping comments and blanks.
    """
    labels: list[float] = []
    # (first row, pair counts, indices, values) of each block
    blocks: list[tuple[int, Sequence[int], Sequence[int], Sequence[float]]] = []
    width = width_line = 0
    first = 1  # the line number of the block's first line
    lines = iter(_iter_lines(source))
    for block in iter(lambda: list(islice(lines, BLOCK_LINES)), []):
        linenos: Sequence[int] = range(first, first + len(block))
        converted = _block(block)
        if converted is None:
            linenos, converted = _normalized_block(block, first)
        block_labels, counts, indices, values = converted
        top = np.max(indices, initial=0)
        if top > width:
            # the first of the largest index is the last of its line's
            at = np.searchsorted(np.cumsum(counts), np.argmax(indices), "right")
            width, width_line = int(top), linenos[int(at)]
        blocks.append((len(labels), counts, indices, values))
        labels.extend(block_labels)
        first += len(block)
    if not labels:
        raise EmptyDataset("no data lines in input")
    if len(labels) * width > MAX_ENTRIES:
        raise ParseError(
            width_line, f"index {width} makes a {len(labels)} x {width} matrix, over the cap "
            f"of {MAX_ENTRIES} entries"
        )
    X = np.zeros((len(labels), max(width, 1)))
    flat = X.reshape(-1)
    for start, counts, indices, values in blocks:
        # the flat position of entry (i, j) of X, with j = index - 1, in the
        # shape of the indices, a dense block's (n, k) like its values
        indices = np.asarray(indices, dtype=np.int64)
        heads = np.arange(start, start + len(counts)) * X.shape[1] - 1
        flat[np.repeat(heads, counts).reshape(indices.shape) + indices] = values
    return Dataset(X=X, y=np.array(labels))


def _block(lines: list[str]) -> tuple[list[float], np.ndarray, np.ndarray, np.ndarray] | None:
    """Labels (floats, as :func:`_checked_row` gives them), pair counts,
    indices and values of a block of plain lines (see :func:`parse_libsvm`),
    each converted at once, or None if the block is not plain or any field
    fails a check of :func:`_checked_row` (or an index does not fit in
    int64)."""
    split = _plain_fields(lines)
    if split is None:
        return None
    numbers, texts = split
    try:
        numbers = np.array(numbers, dtype=float)
        table = {text: _indices(text[1:]) for text in set(texts)}
    except (ValueError, OverflowError):
        return None
    # one empty index (":5") joins to the text of no indices
    if not (all(ix is not None and len(ix) == text.count(" ") for text, ix in table.items())
            and np.isfinite(numbers).all()):
        return None
    n = len(lines)
    if len(texts) == 1:
        ix = table[texts[0]]
        numbers = numbers.reshape(n, len(ix) + 1)
        return (numbers[:, 0].tolist(), np.full(n, len(ix)), np.broadcast_to(ix, (n, len(ix))),
                numbers[:, 1:])
    per_line = [table[text] for text in texts]
    counts = np.fromiter(map(len, per_line), dtype=np.intp, count=n)
    heads = np.cumsum(counts + 1) - (counts + 1)
    return numbers[heads].tolist(), counts, np.concatenate(per_line), np.delete(numbers, heads)


def _plain_fields(lines: list[str]) -> tuple[list[str], list[str]] | None:
    """The label and value strings of a block of plain lines, and each
    line's index text, a space before each index (" 1 2 3", or ""): one
    text if every line has line 0's indices.  None if the block is not
    plain.  The rest of the split is freed before the caller converts,
    which keeps the parse's heap small."""
    text = "".join(lines)
    # ASCII, so that encode cannot fail, and one line per item, so that the
    # lines of the text are the block's
    if not (text.isascii() and all(map(str.endswith, lines[:-1], repeat("\n")))):
        return None
    if not lines[-1].endswith("\n"):
        text += "\n"
    # with every token character deleted, a plain line of k pairs reads
    # " :" k times, then its LF; a tab, a CR, a comment, a blank line or a
    # leading, trailing or doubled space leaves something else.  The first
    # compare is the quick one for a block whose lines all have line 0's k
    n, k = len(lines), lines[0].count(":")
    shape = text.encode().translate(None, _TOKEN_BYTES)
    if shape != (b" :" * k + b"\n") * n and shape.replace(b" :", b"") != b"\n" * n:
        return None
    # freed before the split, which ran about 3% slower with it alive
    del shape
    # per line: label, then index and value per pair, then "\n"; the indices
    # and the "\n" are the odd fields, the label and the values the even ones
    fields = text.replace(":", " ").replace("\n", " \n ").split(" ")
    fields.pop()
    odd = fields[1::2]
    if odd == odd[:k + 1] * n:
        return fields[0::2], [" ".join(["", *odd[:k]])]
    return fields[0::2], (" " + " ".join(odd)).split(" \n")[:-1]


def _normalized_block(block: list[str], first: int) -> tuple[Sequence[int], tuple]:
    """The line numbers of a block's data lines and their labels, pair
    counts, indices and values: the lines normalized and converted at once
    by :func:`_block`, or, if that fails, token by token by
    :func:`_checked_row`, which raises the first line's fault."""
    normal = [" ".join(raw.split("#", 1)[0].split()) for raw in block]
    linenos = [lineno for lineno, line in enumerate(normal, start=first) if line]
    text = "".join(block)
    if linenos and (text.isascii() or _ESCAPED.search(text) is None):
        converted = _block([line + "\n" for line in normal if line])
        if converted is not None:
            return linenos, converted
    labels, counts, indices, values = [], [], [], []
    for lineno, raw, line in zip(range(first, first + len(block)), block, normal):
        escaped = _ESCAPED.search(raw)
        if escaped:
            raise ParseError(lineno, f"byte {ord(escaped[0]) - 0xDC00:#04x} is not UTF-8")
        if line:
            label, row_indices, row_values = _checked_row(lineno, line)
            labels.append(label)
            counts.append(len(row_indices))
            indices += row_indices
            values += row_values
    return linenos, (labels, counts, indices, values)


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
    """:func:`parse_libsvm` of a UTF-8 file; a byte that is not UTF-8 is a
    ParseError naming its line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        return parse_libsvm(f)


def serialize_libsvm(data: Dataset) -> str:
    """Inverse of :func:`parse_libsvm` for datasets without explicit zeros.

    Nonzero entries only, shortest round-tripping float repr, LF endings.
    Each row is one ``%`` of a template, ``"%r 1:%r 2:%r ..."``, built from
    its nonzero columns (:func:`_row_template`) and filled with its label
    and nonzero values as Python floats: ``%r`` is ``float.__repr__``, so
    the text is what a repr per entry gives.  Rows with no zero share the
    template built at the first of them.  Per row, work and memory are
    O(its nonzeros) beyond the scan for them; the floor is
    ``float.__repr__`` itself, and a faster formatter would change the
    bytes.
    """
    lines = []
    dense = None  # the template of a row with no zero
    for label, row in zip(data.y.tolist(), data.X):
        cols = np.flatnonzero(row)
        if len(cols) == data.d:
            if dense is None:
                dense = _row_template(cols)
            lines.append(dense % (label, *row.tolist()))
        else:
            lines.append(_row_template(cols) % (label, *row[cols].tolist()))
    return "\n".join(lines) + "\n"


def _row_template(cols: np.ndarray) -> str:
    """``"%r"`` for the label, then ``" j:%r"`` for each 0-based column in
    ``cols``, with j its 1-based index."""
    return "%r" + "".join(map(" {}:%r".format, (cols + 1).tolist()))


def expand_degree2(data: Dataset) -> Dataset:
    """All degree-2 monomial features with redundant columns removed.

    The output columns are the original features followed by the products
    ``x_j * x_l`` for ``j <= l`` in lexicographic order.  A column that is
    exactly constant, or an exact duplicate (``==`` in every entry, so -0.0
    matches 0.0) of an earlier kept column, is dropped; the scan order makes
    the result deterministic.  A 0/1 column therefore loses its square,
    which duplicates it.  Kept columns are bucketed by the hash of their
    bytes with -0.0 made 0.0, so a column is compared only with the kept
    columns of its bucket.
    """
    X = data.X
    d = data.d
    columns = [X[:, j] for j in range(d)]
    for j in range(d):
        for l in range(j, d):
            columns.append(X[:, j] * X[:, l])
    kept: list[np.ndarray] = []
    buckets: dict[int, list[np.ndarray]] = {}
    for col in columns:
        if np.all(col == col[0]):
            continue
        # + 0.0 turns -0.0 into 0.0, and leaves every other entry's bytes
        bucket = buckets.setdefault(hash((col + 0.0).tobytes()), [])
        if any(np.array_equal(col, prev) for prev in bucket):
            continue
        bucket.append(col)
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


def synth_regression(n: int, d: int, noise_sd: float, seed: int) -> Dataset:
    """Gaussian design with labels from a planted linear model, plus label
    noise of standard deviation ``noise_sd`` (may be zero).

    Draws, in a fixed order from one seeded generator: the planted weight
    vector, ``default_rng(seed).standard_normal(d)``, then the n-by-d
    design, then the label noise.  The same seed always yields the same
    instance.  A design past :func:`refuse_above_cap`, or a noise_sd that
    is negative or not finite, is refused with a ValueError before the first
    draw.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    refuse_above_cap(n * d, f"a synthetic design of n={n} rows and d={d} columns")
    if not 0 <= noise_sd < math.inf:
        raise ValueError(f"noise_sd must be finite and nonnegative, got {noise_sd}")
    rng = np.random.default_rng(seed)
    w_planted = rng.standard_normal(d)
    X = rng.standard_normal((n, d))
    with np.errstate(over="ignore"):  # a non-finite label is refused by Dataset
        y = X @ w_planted + noise_sd * rng.standard_normal(n)
    return Dataset(X=X, y=y)
