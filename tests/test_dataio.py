"""Dataset parsing, feature expansion, standardization, synthesis."""

import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detavg import dataio
from detavg.dataio import (
    BLOCK_LINES,
    MAX_ENTRIES,
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


def reference_parse_libsvm(text):
    """The token-by-token parser that the bulk parse_libsvm replaced, kept
    as the reference for its bytes and its errors."""
    labels = []
    rows = []
    width = width_line = 0
    for lineno, raw in enumerate(io.StringIO(text), start=1):
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
        pairs = []
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
    if len(rows) * width > MAX_ENTRIES:
        raise ParseError(
            width_line, f"index {width} makes a {len(rows)} x {width} matrix, over the cap "
            f"of {MAX_ENTRIES} entries"
        )
    X = np.zeros((len(rows), max(width, 1)))
    for i, pairs in enumerate(rows):
        for idx, val in pairs:
            X[i, idx - 1] = val
    return Dataset(X=X, y=np.array(labels))



def reference_serialize_libsvm(data):
    """The entry-by-entry writer that serialize_libsvm replaced, kept as the
    reference for its bytes."""
    lines = []
    for i in range(data.n):
        parts = [repr(float(data.y[i]))]
        row = data.X[i]
        for j in np.flatnonzero(row):
            parts.append(f"{j + 1}:{repr(float(row[j]))}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


BIG = np.finfo(float).max
TINY = 5e-324  # the least subnormal
# edge values the writer must spell as float.__repr__ does
edge_floats = st.sampled_from([-0.0, TINY, -TINY, 2.2250738585072014e-308, BIG, -BIG, 1e16, 0.1])
nonzero_floats = st.one_of(edge_floats, finite).filter(bool)


@st.composite
def writer_datasets(draw):
    """Rows each dense (no zero), sparse (some zeros, -0.0 among them) or
    all zero, in any mix, d from 1; labels may be -0.0 or 0.0."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["dense", "sparse", "zero"]))
        if kind == "dense":
            cells = nonzero_floats
        elif kind == "sparse":
            cells = st.one_of(st.sampled_from([0.0, -0.0]), nonzero_floats)
        else:
            cells = st.sampled_from([0.0, -0.0])
        rows.append(draw(st.lists(cells, min_size=d, max_size=d)))
    y = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), edge_floats, finite),
                      min_size=n, max_size=n))
    return Dataset(X=rows, y=y)


@settings(max_examples=300, deadline=None)
@given(writer_datasets())
@example(Dataset(X=[[-0.0]], y=[-0.0]))  # d = 1, one all-zero row
@example(Dataset(X=[[TINY, -BIG], [0.0, 0.0], [BIG, -TINY], [0.0, 2.0]], y=[-0.0, 0.0, 1.0, 3.0]))
@example(Dataset(X=np.eye(3) + 1.0, y=np.ones(3)))  # dense rows only
def test_writer_writes_the_reference_bytes(data):
    assert serialize_libsvm(data) == reference_serialize_libsvm(data)


def test_writer_memory_follows_the_nonzeros():
    # eight rows of 2^20 columns, one nonzero each: a writer whose per-row
    # work or memory is O(d), such as a table of every index text or a list
    # of every entry of a row, peaks far above this bound
    n, d = 8, 1 << 20
    X = np.zeros((n, d))
    X[np.arange(n), np.arange(n) * 1001 + 7] = np.arange(1.0, n + 1)
    data = Dataset(X=X, y=np.arange(n, dtype=float))
    tracemalloc.start()
    try:
        text = serialize_libsvm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert text == reference_serialize_libsvm(data)

def outcome(parse, text):
    """What a parser makes of ``text``: the dataset's bytes, or its error."""
    try:
        data = parse(text)
    except ParseError as err:
        return "ParseError", err.lineno, str(err)
    except EmptyDataset as err:
        return "EmptyDataset", str(err)
    return data.X.shape, data.X.tobytes(), data.y.tobytes()


# decimal digits int() and float() accept besides ASCII
DIGITS = ["\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",  # Arabic-Indic
          "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",  # Devanagari
          "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"]  # fullwidth
SEPARATORS = [" ", "  ", "\t", " \t "]
COMMENTS = ["", " # note", "\t#x:y 1:2", "#"]


@st.composite
def spelled(draw, number):
    """``number`` as a token: its repr, with an underscore between two of its
    digits (``1_0``) or with non-ASCII digits."""
    text = repr(number)
    style = draw(st.sampled_from(["plain", "underscore", "digits"]))
    if style == "underscore":
        at = next((i for i in range(1, len(text)) if text[i - 1:i + 1].isdigit()), None)
        if at is not None:
            text = text[:at] + "_" + text[at:]
    elif style == "digits":
        text = text.translate(str.maketrans("0123456789", draw(st.sampled_from(DIGITS))))
    return text


values = st.one_of(finite, st.integers(-1000, 1000).map(float))


@st.composite
def data_line(draw):
    """The tokens of a valid data line, possibly label only."""
    label = draw(values.flatmap(spelled))
    indices = sorted(draw(st.sets(st.integers(1, 12), max_size=6)))
    pairs = [f"{draw(spelled(i))}:{draw(values.flatmap(spelled))}" for i in indices]
    return [label, *pairs]


@st.composite
def libsvm_lines(draw):
    """Lines of a file: data lines (as token lists), comments and blanks."""
    kinds = st.one_of(data_line(), st.sampled_from(["# comment 1:2", "", "   ", "\t"]))
    return draw(st.lists(kinds, max_size=8))


def render(draw, lines):
    """File text: tokens joined by spaces or tabs, a comment after some lines,
    LF or CRLF endings."""
    out = []
    for line in lines:
        if isinstance(line, list):
            sep = draw(st.sampled_from(SEPARATORS))
            line = draw(st.sampled_from(["", " ", "\t"])) + sep.join(line)
            line += draw(st.sampled_from(COMMENTS))
        out.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bulk_parse_equals_token_parse(data):
    text = render(data.draw, data.draw(libsvm_lines()))
    assert outcome(parse_libsvm, text) == outcome(reference_parse_libsvm, text)


CORRUPT_PAIRS = [
    "5",  # no colon
    "1:2:3", ":5", "5:",
    "0:1", "-2:1",  # non-positive index
    "3:nan", "3:inf", "3:-inf", "3:1e400",
    "1180591620717411303424:1",  # past int64
    "1099511627776:1",  # fits int64, over the width cap
]
CORRUPT_LINES = [
    ["1", "1", "2:3:4"],  # misaligned: today "expected index:value, got '1'"
    ["1", "3:1", "3:2"], ["1", "4:1", "2:1"],  # not increasing
    ["0", "1:1", "1180591620717411303424:1", "5:nan"],
]


@st.composite
def corrupted_line(draw):
    """A data line with one fault: a bad pair among good ones, a bad label,
    or a whole bad line."""
    kind = draw(st.sampled_from(["pair", "label", "line"]))
    if kind == "line":
        return draw(st.sampled_from(CORRUPT_LINES))
    tokens = draw(data_line())
    if kind == "label":
        return [draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "x", "1:1"])), *tokens[1:]]
    at = draw(st.integers(1, len(tokens)))
    return [*tokens[:at], draw(st.sampled_from(CORRUPT_PAIRS)), *tokens[at:]]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
@example(data=None)
def test_bulk_parse_reports_what_token_parse_reports(data):
    # one or two corrupted lines among valid ones: the same ParseError, line
    # and message, or, for an index past the width cap, the same refusal
    if data is None:
        text = "0 1:1\n1 1180591620717411303424:1"
    else:
        lines = data.draw(libsvm_lines())
        for _ in range(data.draw(st.integers(1, 2))):
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(corrupted_line()))
        text = render(data.draw, lines)
    got = outcome(parse_libsvm, text)
    assert got == outcome(reference_parse_libsvm, text)
    assert got[0] == "ParseError"


def dense_tokens(seed, n, d):
    """The tokens of n plain dense lines of d pairs: a label, then
    ``j:value`` for j = 1..d, values of magnitudes 1e-8 to 1e8."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(-1, 2, n).astype(float).tolist()
    values = (rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, (n, d))).tolist()
    return [[repr(y), *(f"{j}:{v!r}" for j, v in enumerate(row, start=1))]
            for y, row in zip(labels, values)]


def _set(tokens, at, token):
    tokens = list(tokens)
    tokens[at] = token
    return " ".join(tokens)


ARABIC = str.maketrans("0123456789", DIGITS[0])
# faults of pair c, of the label or of the last pair; all but the label
# "1:1" keep a plain dense line's shape, one space and one colon per pair,
# so the block route's conversion and index checks must catch them
FAULTS_KEEPING_SHAPE = {
    "3:nan": lambda t, c: _set(t, c, f"{c}:nan"),
    "3:1e400": lambda t, c: _set(t, c, f"{c}:1e400"),
    "5:": lambda t, c: _set(t, c, f"{c}:"),
    ":5": lambda t, c: _set(t, c, t[c][t[c].index(":"):]),
    "1_0": lambda t, c: _set(t, c, f"{c}:1_0"),
    "label 1:1": lambda t, c: _set(t, 0, "1:1"),
    "index 01": lambda t, c: _set(t, c, "0" + t[c]),
    "index past int64": lambda t, c: _set(t, -1, f"{1 << 70}:1"),
    "width over the cap": lambda t, c: _set(t, -1, f"{1 << 40}:1"),
}
# valid lines that are not plain dense: each sends its block line by line
FAULTS_BREAKING_SHAPE = {
    "tab": lambda t, c: " ".join(t[:c]) + "\t" + " ".join(t[c:]),
    "comment": lambda t, c: " ".join(t) + " # note",
    "CRLF": lambda t, c: " ".join(t) + "\r",
    "non-ASCII digit": lambda t, c: _set(t, c, t[c].translate(ARABIC)),
}
FAULTS = {**FAULTS_KEEPING_SHAPE, **FAULTS_BREAKING_SHAPE}


def dense_case(seed, n, d, fault=None, at=(), column=1, final_newline=True):
    """The text of a dense file with ``fault`` on the lines numbered ``at``
    (from 0), and the text of the same file without it."""
    tokens = dense_tokens(seed, n, d)
    lines = [" ".join(t) for t in tokens]
    clean = "\n".join(lines) + "\n" * final_newline
    for i in at:
        lines[i] = FAULTS[fault](tokens[i], column)
    return "\n".join(lines) + "\n" * final_newline, clean, fault, at


@st.composite
def dense_files(draw):
    n = draw(st.one_of(st.integers(1, 9), st.integers(BLOCK_LINES + 1, 3 * BLOCK_LINES)))
    d = draw(st.integers(1, 6))
    fault = draw(st.sampled_from([None, *FAULTS]))
    at = () if fault is None else draw(st.sampled_from([
        (draw(st.integers(0, n - 1)),), tuple(range(n))]))
    return dense_case(draw(st.integers(0, 2**32 - 1)), n, d, fault, at,
                      draw(st.integers(1, d)), draw(st.booleans()))


def token_routes(text):
    """What parse_libsvm makes of ``text``, and the line numbers it converted
    token by token."""
    checked = []
    checked_row = dataio._checked_row

    def spy(lineno, line):
        checked.append(lineno)
        return checked_row(lineno, line)

    with mock.patch.object(dataio, "_checked_row", spy):
        return outcome(parse_libsvm, text), checked


def check_dense_case(case):
    """The same bytes, or the same ParseError line and message, as the
    token-by-token parser; only a block holding a faulty or non-ASCII line
    is converted token by token, and a non-ASCII one is, every line of it."""
    text, clean, fault, at = case
    got, checked = token_routes(text)
    assert got == outcome(reference_parse_libsvm, text)
    faulty = {i // BLOCK_LINES for i in at}
    assert {(lineno - 1) // BLOCK_LINES for lineno in checked} <= faulty
    if fault in FAULTS_BREAKING_SHAPE:
        assert got == outcome(reference_parse_libsvm, clean)
        n = len(text.splitlines())
        assert checked == ([lineno for lineno in range(1, n + 1) if (lineno - 1) // BLOCK_LINES in faulty]
                           if fault == "non-ASCII digit" else [])


@settings(max_examples=150, deadline=None)
@given(dense_files())
@example(dense_case(6, 1, 1, ":5", at=(0,)))  # one empty index: the text of no indices
@example(dense_case(7, 300, 1, ":5", at=tuple(range(300))))
def test_dense_blocks_parse_as_token_parse(case):
    check_dense_case(case)


N_FAULT = 2 * BLOCK_LINES + 5


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("at", [(0,), (BLOCK_LINES,), (N_FAULT - 1,), tuple(range(N_FAULT))],
                         ids=["first line", "first of block 2", "last line", "every line"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["LF", "no final LF"])
def test_each_fault_in_a_dense_file(fault, at, final_newline):
    check_dense_case(dense_case(11, N_FAULT, 3, fault, at, 2, final_newline))


def block_results(text):
    """What parse_libsvm makes of ``text``, and for each block conversion
    it tried, whether it converted the block at once."""
    results = []
    block = dataio._block

    def spy(lines):
        result = block(lines)
        results.append(result is not None)
        return result

    with mock.patch.object(dataio, "_block", spy):
        return outcome(parse_libsvm, text), results


def test_label_only_lines_take_the_block_route():
    text = "".join(f"{i}\n" for i in range(BLOCK_LINES + 3))
    got, results = block_results(text)
    assert results == [True, True]
    assert got == outcome(reference_parse_libsvm, text)
    assert got[0] == (BLOCK_LINES + 3, 1)


def test_blocks_of_varying_indices_convert_at_once():
    text = serialize_libsvm(Dataset(X=np.eye(BLOCK_LINES + 1), y=np.ones(BLOCK_LINES + 1)))
    got, results = block_results(text)
    assert results == [True, True]  # the last block is one line
    assert got == outcome(reference_parse_libsvm, text)


def sparse_text(seed, n, width=40):
    """n lines of up to 8 pairs at varying indices, some label only."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        indices = np.sort(rng.choice(width, rng.integers(0, 9), replace=False)) + 1
        values = (rng.standard_normal(len(indices)) * 10.0 ** rng.integers(-8, 9, len(indices)))
        lines.append(" ".join([repr(float(rng.integers(-1, 2)))]
                              + [f"{j}:{v!r}" for j, v in zip(indices, values.tolist())]))
    return "\n".join(lines) + "\n"


def messy(text, seed):
    """``text`` with its spaces made tabs or runs, comments, blank lines and
    CRLF endings here and there: the same data, no plain block."""
    rng = np.random.default_rng(seed)
    out = []
    for line in text.splitlines():
        line = line.replace(" ", str(rng.choice([" ", "\t", "  ", " \t"])))
        kind = rng.integers(0, 4)
        if kind == 0:
            out.append("# a comment 1:2")
        elif kind == 1:
            out.append("")
        out.append(line + (" # note" if kind == 2 else "") + ("\r" if kind == 3 else ""))
    return "\n".join(out) + "\n"


N_CLEAN = 2 * BLOCK_LINES + 7
CLEAN_FILES = {
    "dense": lambda: dense_case(3, N_CLEAN, 4)[0],
    "sparse": lambda: sparse_text(3, N_CLEAN),
    "tab-separated": lambda: sparse_text(4, N_CLEAN).replace(" ", "\t"),
    "commented": lambda: messy(sparse_text(5, N_CLEAN), 5),
}


@pytest.mark.parametrize("kind", CLEAN_FILES)
def test_a_file_with_no_faulty_line_is_never_converted_token_by_token(kind):
    text = CLEAN_FILES[kind]()
    got, checked = token_routes(text)
    assert checked == []
    assert got == outcome(reference_parse_libsvm, text)
    assert got[0][0] == N_CLEAN


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3 * BLOCK_LINES),
       tidy=st.booleans(), fault=st.sampled_from([None, *CORRUPT_PAIRS]), data=st.data())
def test_sparse_files_parse_as_token_parse(seed, n, tidy, fault, data):
    # varying indices, plain or messy, with at most one faulty pair: the
    # same outcome, and only the faulty line's block token by token
    lines = sparse_text(seed, n).splitlines()
    if fault is not None:
        lines[data.draw(st.integers(0, n - 1))] += " " + fault
    text = "\n".join(lines) + "\n"
    if not tidy:
        text = messy(text, seed)
    got, checked = token_routes(text)
    assert got == outcome(reference_parse_libsvm, text)
    if fault is None:
        assert checked == []
    else:
        assert got[0] == "ParseError"
        assert {(lineno - 1) // BLOCK_LINES for lineno in checked} <= {(got[1] - 1) // BLOCK_LINES}


@pytest.mark.parametrize("lines", [["1 1:2\n0 1:3\n", ""], ["1 1:2\n0", " 1:3\n"]])
def test_iterable_items_are_parsed_as_lines(lines):
    # an item holding more or less than one line is still one line, whose
    # third token has no colon, even where the joined text reads dense
    with pytest.raises(ParseError, match="line 1: expected index:value, got '0'"):
        parse_libsvm(lines)


def test_a_lone_surrogate_is_a_bad_label():
    # a str item need not be encodable; it fails as a label, not in the
    # block route's encode
    with pytest.raises(ParseError) as err:
        parse_libsvm(["1 1:2\n", "\ud800 1:3\n"])
    assert str(err.value) == "line 2: bad label '\\ud800'"


def bad_byte_file(path, at, fault=b"\xff", comment=False):
    """A dense file of three blocks with ``fault`` put into line ``at``
    (from 1), inside a value or inside a comment after it."""
    lines = [" ".join(t).encode() for t in dense_tokens(2, 3 * BLOCK_LINES, 3)]
    line = lines[at - 1]
    lines[at - 1] = line + b" # caf" + fault if comment else line[:-2] + fault + line[-2:]
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


@pytest.mark.parametrize("at", [3, 2 * BLOCK_LINES + 5], ids=["block 1", "block 3"])
@pytest.mark.parametrize("comment", [False, True], ids=["in a value", "in a comment"])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, at, comment):
    path = bad_byte_file(tmp_path / "bad.svm", at, comment=comment)
    with pytest.raises(ParseError) as err:
        load_libsvm(path)
    assert err.value.lineno == at
    assert str(err.value) == f"line {at}: byte 0xff is not UTF-8"


def test_a_byte_that_is_not_utf8_is_named_in_file_order(tmp_path):
    # the first of two bad bytes is named, and a faulty line before it
    # in the same block first of all
    path = bad_byte_file(tmp_path / "bad.svm", BLOCK_LINES + 9, b"\xe9(")
    with path.open("ab") as f:
        f.write(b"1 1:\xfe\n")
    with pytest.raises(ParseError, match=f"^line {BLOCK_LINES + 9}: byte 0xe9 is not UTF-8$"):
        load_libsvm(path)
    lines = path.read_bytes().split(b"\n")
    lines[BLOCK_LINES + 1] += b" 0:1"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError, match=f"^line {BLOCK_LINES + 2}: index 0 is not positive$"):
        load_libsvm(path)


def test_dense_parse_memory_stays_under_twice_the_text(tmp_path):
    # the tracemalloc peak of a 2000-line d=65 file, under a bound set from
    # the text's size, not from a measured peak; converting the whole file
    # at once breaks it
    path = tmp_path / "d65.svm"
    size = path.write_text("".join(" ".join(t) + "\n" for t in dense_tokens(7, 2000, 65)))
    bound = 2 * size

    def peak():
        tracemalloc.start()
        try:
            load_libsvm(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < bound
    with mock.patch.object(dataio, "BLOCK_LINES", 1 << 30):
        assert peak() > bound



def reference_expand_degree2(data):
    """expand_degree2 with the pairwise duplicate scan it replaced: every
    column is compared with every kept one.  Its result (width and bytes)
    or its error is the reference."""
    X, d = data.X, data.d
    columns = [X[:, j] for j in range(d)]
    for j in range(d):
        for l in range(j, d):
            columns.append(X[:, j] * X[:, l])
    kept = []
    for col in columns:
        if np.all(col == col[0]):
            continue
        if any(np.array_equal(col, prev) for prev in kept):
            continue
        kept.append(col)
    if not kept:
        raise EmptyDataset("every expanded column was constant")
    return Dataset(X=np.column_stack(kept), y=data.y)


def expanded(expand, data):
    try:
        out = expand(data)
    except EmptyDataset as e:
        return ("EmptyDataset", str(e))
    return (out.X.shape, out.X.tobytes(), out.y.tobytes())


@st.composite
def integer_matrices(draw):
    """Small integer-valued matrices, zeros of either sign, with constant
    and 0/1 columns and columns that repeat another up to the sign of its
    zeros."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["any", "constant", "binary", "repeat"]))
        if kind == "constant":
            columns.append([draw(cells)] * n)
        elif kind == "binary":
            columns.append(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
        elif kind == "repeat" and columns:
            col = draw(st.sampled_from(columns))
            flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            columns.append([-x if flip and x == 0.0 else x for x, flip in zip(col, flips)])
        else:
            columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    return Dataset(X=np.array(columns).T.reshape(n, d), y=np.arange(n, dtype=float))


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example(Dataset(X=[[0.0, -0.0], [1.0, 1.0]], y=[0.0, 1.0]))
@example(Dataset(X=[[2.0, 0.0], [2.0, 1.0]], y=[0.0, 1.0]))
@example(Dataset(X=[[1.0], [1.0]], y=[0.0, 1.0]))  # every column constant
def test_expand_degree2_keeps_the_pairwise_scan(data):
    assert expanded(expand_degree2, data) == expanded(reference_expand_degree2, data)


def test_expand_degree2_drops_a_column_equal_up_to_the_sign_of_zero():
    # x2 == x1 entrywise (-0.0 == 0.0) though their bytes differ
    data = Dataset(X=[[0.0, -0.0], [1.0, 1.0], [2.0, 2.0]], y=[0.0, 0.0, 0.0])
    out = expand_degree2(data)
    # x1, x1^2; x2, x1*x2 and x2^2 repeat them
    assert out.d == 2
    assert out.X.tobytes() == np.column_stack([[0.0, 1.0, 2.0], [0.0, 1.0, 4.0]]).tobytes()

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
    data = synth_regression(5000, 5, 0.1, seed=3)
    w_true = np.random.default_rng(3).standard_normal(5)  # the first draw
    G = data.X.T @ data.X
    w_hat = np.linalg.solve(G, data.X.T @ data.y)
    # classic normal-equations standard errors
    se = 0.1 * np.sqrt(np.diag(np.linalg.inv(G)))
    assert np.all(np.abs(w_hat - w_true) <= 3 * se)


def test_synth_regression_noise_free():
    data = synth_regression(40, 3, 0.0, seed=4)
    w_true = np.random.default_rng(4).standard_normal(3)  # the first draw
    assert np.allclose(data.y, data.X @ w_true, atol=1e-14)


def test_synth_regression_validation():
    with pytest.raises(ValueError):
        synth_regression(0, 3, 0.1, seed=0)
    with pytest.raises(ValueError):
        synth_regression(5, 0, 0.1, seed=0)
    with pytest.raises(ValueError):
        synth_regression(5, 3, -0.1, seed=0)
    # a design past MAX_ENTRIES is refused before the first draw
    with pytest.raises(ValueError, match="more than"):
        synth_regression(10**9, 1000, 1.0, seed=0)
