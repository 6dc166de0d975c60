"""Experiment data types and ingestion of cross-validation score files.

The canonical input is a long-format CSV with header
``dataset,classifier,run,fold,score``: one row per cross-validation fold
result, run and fold as 0-based integers.  Scores may be fractions in
[0, 1] or percentages in [0, 100]; if any value in the file exceeds 1 the
whole file is treated as percentages and divided by 100.  The scale rule
is applied per file, never per row.  Records end at LF or CRLF; a quoted
field keeps any commas and line breaks it holds.  Quote-free text whose
numbers are plain decimals is read in bulk from its bytes, exactly as
Python's int() and float() read each field.

Every method reads a classifier pair as one :class:`PairDifferences`, built
from the table's score grid by :func:`paired_differences`: the cross-dataset
tests read its means, the t-tests one dataset's row, and the hierarchical
model every row's mean and spread.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .errors import CoverageError, ParseError, ShapeError

__all__ = [
    "CSV_HEADER",
    "Rope",
    "ScoreTable",
    "PairDifferences",
    "parse_scores",
    "paired_differences",
]

CSV_HEADER = ("dataset", "classifier", "run", "fold", "score")

# characters of records parse_scores splits and converts at a time; its peak
# memory grows with one chunk's fields, not with the whole file's
_CHUNK = 1 << 20


@dataclass(frozen=True)
class Rope:
    """Region of practical equivalence around a zero mean difference."""

    lower: float = -0.01
    upper: float = 0.01

    def __post_init__(self) -> None:
        if not (self.lower <= 0.0 <= self.upper):
            raise ValueError(f"rope must contain zero, got [{self.lower}, {self.upper}]")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"rope bounds must be finite, got [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class ScoreTable:
    """Per-dataset, per-classifier matrices of cross-validation scores.

    Every matrix has the same runs x folds shape; scores are fractions in
    [0, 1] after ingestion.  ``datasets`` and ``classifiers`` list the ids
    in order of first appearance in ``entries``.  The table is immutable:
    the matrices are copied into one read-only array at construction, and
    ``entries`` then holds read-only views of that copy (a table from
    :func:`parse_scores` holds the array the parse filled, with no copy).
    """

    entries: dict[tuple[str, str], np.ndarray]
    runs: int
    folds: int
    datasets: tuple[str, ...] = field(init=False, repr=False, compare=False)
    classifiers: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    _index: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("score table has no entries")
        shape = (self.runs, self.folds)
        keys, matrices = list(self.entries), list(self.entries.values())
        # ids and shapes are checked up to the first failure; the scores of
        # the entries before it come first, checked as one array
        ok = next(
            (i for i, ((d, c), s) in enumerate(zip(keys, matrices)) if not d or not c or s.shape != shape),
            len(keys),
        )
        grid = np.stack(matrices[:ok]) if ok else np.empty((0, *shape))
        outside = np.flatnonzero(~((grid >= 0.0) & (grid <= 1.0)).all(axis=(1, 2)))  # NaN too
        if outside.size:
            dataset, classifier = keys[outside[0]]
            raise ValueError(f"({dataset}, {classifier}) has scores outside [0, 1]")
        if ok < len(keys):
            (dataset, classifier), scores = keys[ok], matrices[ok]
            if not dataset or not classifier:
                raise ValueError("dataset and classifier ids must be non-empty")
            raise ShapeError(f"({dataset}, {classifier}) has shape {scores.shape}, expected {shape}")
        self._hold(keys, grid)

    @classmethod
    def _of_grid(cls, keys: list[tuple[str, str]], grid: np.ndarray, runs: int, folds: int) -> "ScoreTable":
        """The table whose scores are ``grid`` itself, entry i at row i, without
        the constructor's checks and copy: for :func:`parse_scores`, which has
        checked the ids and scores and hands over a grid that nothing else holds."""
        table = object.__new__(cls)
        object.__setattr__(table, "runs", runs)
        object.__setattr__(table, "folds", folds)
        table._hold(keys, grid)
        return table

    def _hold(self, keys: list[tuple[str, str]], grid: np.ndarray) -> None:
        """Make ``grid`` the table's read-only scores, entry i at row i."""
        grid.flags.writeable = False
        object.__setattr__(self, "entries", dict(zip(keys, grid)))
        object.__setattr__(self, "datasets", tuple(dict.fromkeys(d for d, _ in keys)))
        object.__setattr__(self, "classifiers", tuple(dict.fromkeys(c for _, c in keys)))
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_index", {key: i for i, key in enumerate(keys)})

    def to_csv(self) -> str:
        """Serialize back to the long CSV schema (round-trips bit-exactly)."""
        key, run, fold = np.indices(self._grid.shape).reshape(3, -1)
        datasets = np.array([_csv_field(d) for d, _ in self.entries], dtype=object)[key]
        classifiers = np.array([_csv_field(c) for _, c in self.entries], dtype=object)[key]
        scores = self._grid.astype(float).ravel()
        return _csv_text(CSV_HEADER, [a.tolist() for a in (datasets, classifiers, run, fold, scores)])


def _csv_field(value: str) -> str:
    """``value`` as one CSV field, quoted when it holds a comma, a quote or a
    line-break character.  ``csv.writer`` leaves a lone CR unquoted, which
    would not read back: records end only at LF or CRLF."""
    if any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _csv_text(header, columns: list[list]) -> str:
    """``header`` and one record per row of ``columns`` as CSV text.  Columns hold
    Python ints, Python floats (``str`` is the shortest text that reads back to the
    same float) and ids quoted by :func:`_csv_field`; no rows give the header alone."""
    record = ",".join(["{}"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(map(record.format, *columns))


def _check_rho(rho: float) -> None:
    """A cross-validation correlation must lie in [0, 1)."""
    if not 0.0 <= rho < 1.0:  # NaN fails this test too
        raise ValueError(f"rho must lie in [0, 1), got {rho}")


def _row_means(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean of each row of ``x`` and whether the row is constant; a constant
    row's mean is its value exactly, with no 1-ulp residue, so the degenerate
    case stays exact."""
    constant = (x == x[:, :1]).all(axis=1)
    return np.where(constant, x[:, 0], x.mean(axis=1)), constant


@dataclass(frozen=True)
class PairDifferences:
    """One classifier pair's score differences (first minus second), one row
    per dataset.

    ``x`` is a read-only copy of the (q, n) matrix: row i holds dataset i's
    n differences, one per (run, fold) cell.  ``means`` and ``sds`` are each
    row's mean and sample standard deviation (divisor n - 1), computed once;
    a constant row's mean is its value exactly and its sd is 0, and a row of
    one difference, which carries a mean alone, counts as constant.  ``rho``
    is the cross-validation correlation, None when it is unknown.  The
    methods that read ``sds``, ``ss`` or ``rho`` call :meth:`within` first,
    so a matrix of means alone still serves those that read ``means``.
    """

    datasets: tuple[str, ...]
    x: np.ndarray
    rho: float | None = None
    means: np.ndarray = field(init=False, repr=False)
    sds: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"difference matrix must be two-dimensional, got shape {x.shape}")
        if x.size == 0:
            raise ValueError(f"difference matrix must be non-empty, got shape {x.shape}")
        if len(self.datasets) != len(x):
            raise ValueError("dataset labels and rows have different lengths")
        if not np.all(np.abs(x) <= 1.0):  # NaN fails this test too
            raise ValueError("score differences must lie in [-1, 1]")
        if self.rho is not None:
            _check_rho(self.rho)
        means, constant = _row_means(x)
        # x.std(ddof=1) warns on a one-column matrix, whose rows are all constant
        sds = np.zeros(len(x)) if x.shape[1] == 1 else np.where(constant, 0.0, x.std(axis=1, ddof=1))
        object.__setattr__(self, "datasets", tuple(self.datasets))
        for name, value in (("x", x), ("means", means), ("sds", sds)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def q(self) -> int:
        return len(self.x)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def ss(self) -> np.ndarray:
        """Centred sums of squares, sds^2 * (n - 1)."""
        return self.sds * self.sds * (self.n - 1)

    def row(self, i: int) -> "PairDifferences":
        """Dataset i's differences alone, for the per-dataset tests."""
        return PairDifferences((self.datasets[i],), self.x[i][np.newaxis], self.rho)

    def within(self) -> float:
        """``rho``, once the spread within each dataset can be read: ``sds``
        need two differences per row, and ``rho`` must be known."""
        if self.n < 2:
            raise ValueError("difference series needs at least two observations")
        if self.rho is None:
            raise ValueError("rho defaults to 1/folds, which is 1 for a one-fold table, so rho must be given")
        return self.rho

    def series(self) -> tuple[str, float, float, float]:
        """The dataset, mean, sd and rho of a one-dataset ``PairDifferences``,
        for the per-dataset tests, after :meth:`within`'s checks."""
        if self.q != 1:
            raise ValueError(f"a per-dataset test reads one dataset, got {self.q}")
        rho = self.within()
        return self.datasets[0], float(self.means[0]), float(self.sds[0]), rho


def _read_text(source) -> str:
    """The text of ``source``, without one leading byte-order mark (spreadsheet
    "CSV UTF-8" exports write one); a U+FEFF anywhere else is kept."""
    text = source.read() if hasattr(source, "read") else source
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if not isinstance(text, str):
        raise TypeError(f"cannot read scores from {type(source)!r}")
    return text.removeprefix("\ufeff")


def _tokenize(text: str):
    """Split ``text`` into records and fields, about ``_CHUNK`` characters of
    records at a time.

    Records end at LF or CRLF outside quoted fields.  Returns an iterator of
    chunks, one per stretch of records after the header: the fields of the
    chunk's non-blank records, five per record, or for quote-free text
    mostly ``_bulk_columns``' arrays.  It yields None instead when the
    header is not ``CSV_HEADER`` or a record of the chunk has another field
    count, and raises :class:`ParseError` on a carriage return outside a
    quoted field that does not start a CRLF and on a record that
    ``csv.reader`` cannot read.  Text without a quote is split with
    ``str.split``, which gives the fields ``csv.reader`` would.
    """
    if '"' in text:
        return _quoted_chunks(text)
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            line = text.count("\n", 0, text.index("\r")) + 1
            raise ParseError("carriage return outside a quoted field", line=line)
    return _plain_chunks(text)


def _quoted_chunks(text: str):
    """``_tokenize``'s chunks of text that holds a quote: ``csv.reader`` finds
    where records end, as a line break may lie inside a quoted field, and a
    chunk holds the records whose last line is in one ``_plain_lines`` chunk,
    their fields flattened as they are read."""
    chunk = [0]
    reader = _quoted_reader(text, chunk)
    if _header_fault(next(reader)[1]):
        yield None
        return
    for _, records in itertools.groupby(reader, lambda _: chunk[0]):
        fields, widths = [], set()
        for _, record in records:
            if record:
                fields += record
                widths.add(len(record))
        yield fields if widths <= {5} else None


def _quoted_reader(text: str, chunk: list[int]):
    """The records ``csv.reader`` reads from the lines of ``_plain_lines`` with
    their line feeds put back, which read as ``text`` itself, each with the
    line it starts on; ``chunk[0]`` is kept at the index of the chunk that
    holds the last line read.  Raises :class:`ParseError` at the first
    record the reader cannot read.

    ``csv.reader`` fails on a CR outside a quoted field that text follows on
    its line, but ends a record at one that only line breaks follow.  Such a
    record ends on a line that ends in a CR outside a CRLF, where a quoted
    field would read on, and is refused too.
    """
    last = [""]

    def lines():
        for chunk[0], part in enumerate(_plain_lines(text, 0, "\n")):
            for last[0] in part:
                yield last[0]
        last[0] = ""  # an open quoted field ends at the end of the text

    reader = csv.reader(lines())
    line = 1
    try:
        for record in reader:
            if last[0].endswith(("\r", "\r\r\n")):
                break
            yield line, record
            line = reader.line_num + 1
        else:
            return
    except csv.Error as exc:
        if "new-line" not in str(exc):
            raise ParseError(f"malformed record: {exc}", line=reader.line_num) from None
    raise ParseError("carriage return outside a quoted field", line=reader.line_num)


def _plain_chunks(text: str):
    """``_tokenize``'s chunks of quote-free text with LF line ends: each one
    read from its bytes by ``_bulk_columns``, or split by ``_split_records``
    where that reader declines it."""
    header = text.partition("\n")[0]
    if _header_fault(header.split(",")):
        yield None
        return
    for part in _plain_parts(text, len(header) + 1):
        columns = _bulk_columns(part)
        yield _split_records(part) if columns is None else columns


def _split_records(part: str) -> list[str] | None:
    """The fields of the non-blank records of ``part``, five per record, or
    None when a record has another field count."""
    rows = list(filter(None, part.split("\n")))
    if set(map(str.count, rows, itertools.repeat(","))) - {4}:
        return None
    return ",".join(rows).split(",") if rows else []


# 10**k for k = 0, ..., 16, each exact in binary64, from literals rather than pow
_POW10 = np.array([1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16])
# the first k bytes of a little-endian 8-byte word, for k = 0, ..., 8
_FIRST_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _bulk_columns(part: str):
    """The records of ``part``, quote-free lines with LF ends, read from its
    UTF-8 bytes by a few passes over whole byte columns, or None when a
    record lies outside this reader's grammar:

    - a non-blank line holds exactly four commas;
    - run and fold are 1 to 18 ASCII digits, which int64 holds;
    - a score is at most 17 ASCII digits and points, with at most one point
      and at least one digit, whose digits read as an integer m <= 2**53.

    Run and fold then equal int() of their text.  A score is m / 10**k, with
    k the digits after its point; both operands are exact, so the quotient is
    the correctly rounded decimal, equal to float() of the text (Clinger 1990,
    "How to read floating point numbers accurately").  Signs, spaces,
    underscores, exponents, other digits and longer fields are left to
    ``_split_records`` and numpy's string casts; a field that is too long
    declines the chunk before any digit is read.

    Returns ``(repeats, (datasets, classifiers, run, fold, score))``: the
    dataset and classifier texts only at the records whose
    ``dataset,classifier`` bytes differ from the record before, each holding
    for ``repeats`` records, and the numbers of every record.
    """
    try:
        buf = part.encode()
    except UnicodeEncodeError:  # a lone surrogate
        return None
    if not buf.endswith(b"\n"):
        buf += b"\n"
    a = np.frombuffer(buf, np.uint8)
    end = np.flatnonzero(a == ord("\n"))
    start = np.concatenate(([0], end[:-1] + 1))
    full = start < end  # blank lines are skipped
    start, end = start[full], end[full]
    n = len(start)
    commas = np.flatnonzero(a == ord(","))
    if len(commas) != 4 * n:
        return None
    # the commas, four per line in order, each line's four inside it
    comma = commas.reshape(n, 4).T
    if (comma[0] < start).any() or (comma[3] > end).any():
        return None
    lengths = (comma[2] - comma[1] - 1, comma[3] - comma[2] - 1, end - comma[3] - 1)
    if (lengths[2] > 17).any() or (lengths[0] > 18).any() or (lengths[1] > 18).any():
        return None
    buf += bytes(32)  # room for the reads below, which run at most 17 bytes past the last line
    a = np.frombuffer(buf, np.uint8)
    numbers = [_digits(a, comma[i] + 1, length) for i, length in zip((1, 2, 3), lengths)]
    if None in numbers:
        return None
    (run, _, run_point), (fold, _, fold_point), (m, after, _) = numbers
    if run_point.any() or fold_point.any() or (m > 2**53).any():
        return None

    # a record starts a new stretch of one key where its key's length or bytes differ
    key_length = comma[1] - start
    new = np.ones(n, bool)
    new[1:] = key_length[1:] != key_length[:-1]
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))  # the 8 bytes from each offset
    for j in range(0, int(key_length.max(initial=0)), 8):
        word = words[np.minimum(start + j, len(words) - 1)] & _FIRST_BYTES[np.clip(key_length - j, 0, 8)]
        new[1:] |= word[1:] != word[:-1]
    first = np.flatnonzero(new)
    bounds = start[first].tolist(), comma[0][first].tolist(), comma[1][first].tolist()
    datasets = [buf[i:j].decode() for i, j in zip(bounds[0], bounds[1])]
    classifiers = [buf[i + 1:j].decode() for i, j in zip(bounds[1], bounds[2])]
    return np.diff(first, append=n), (datasets, classifiers, run, fold, m / _POW10[after])


def _digits(a: np.ndarray, start: np.ndarray, length: np.ndarray):
    """The ASCII fields of ``a`` at ``start`` of ``length`` bytes read by
    Horner's rule, one pass per byte position, skipping a point: the integer
    their digits read as, the count of digits after the point and whether
    there is one.  None when a field holds another byte, two points or no
    digit."""
    m = np.zeros(len(start), np.int64)
    after = np.zeros(len(start), np.int64)
    point = np.zeros(len(start), bool)
    bad = np.zeros(len(start), bool)
    for j in range(int(length.max(initial=0))):
        inside = j < length
        byte = a[start + j] - ord("0")  # uint8: "." reads 254, and the bytes below "0" wrap above 9
        digit = inside & (byte <= 9)
        is_point = inside & (byte == 254)
        bad |= (inside ^ digit ^ is_point) | (is_point & point)
        m = np.where(digit, m * 10 + byte, m)
        after += digit & point
        point |= is_point
    if (bad | (length <= point)).any():
        return None
    return m, after, point


def _plain_parts(text: str, start: int):
    """The text of ``text`` from ``start`` on, in chunks of whole LF-ended
    lines that end with the line holding each chunk's ``_CHUNK``-th
    character; the last may lack its line feed."""
    while start < len(text):
        stop = text.find("\n", start + _CHUNK)
        stop = len(text) if stop < 0 else stop + 1
        yield text[start:stop]
        start = stop


def _plain_lines(text: str, start: int, end: str = ""):
    """The lines of ``_plain_parts(text, start)``, a list per chunk.  Each
    line's line feed is replaced by ``end``; a last line without one gets
    none."""
    for part in _plain_parts(text, start):
        lines = part.split("\n")
        last = lines.pop()  # "" after the line break ending the chunk's last line
        if end:
            for i, line in enumerate(lines):  # in place, so the chunk's lines are held once
                lines[i] = line + end
        if last:
            lines.append(last)
        yield lines


def _header_fault(header: list[str]) -> str | None:
    """What is wrong with the header's fields, or None."""
    if tuple(h.strip().lower() for h in header) != CSV_HEADER:
        return f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
    return None


def _codes(position: dict, values: list) -> np.ndarray:
    """The position of each value in ``position``, which first gains the
    values it lacks, in order of first appearance."""
    for value in dict.fromkeys(values):
        position.setdefault(value, len(position))
    return np.fromiter(map(position.__getitem__, values), dtype=np.intp, count=len(values))


def _ids(position: dict, codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct ids of ``position``'s texts, stripped of surrounding
    whitespace, in order of first appearance, and the id of each code."""
    ids = {}
    merged = _codes(ids, [value.strip() for value in position])
    return list(ids), merged[codes]


def _columns(chunks) -> tuple[tuple[dict, dict], list[np.ndarray]] | None:
    """The records of ``_tokenize``'s ``chunks`` as columns, each chunk's
    fields converted to arrays and then freed.

    Returns the dataset and classifier texts, each mapped to its position
    in order of first appearance, and the columns, joined over the chunks:
    each row's dataset and classifier position, run, fold and score.
    Returns None at the first chunk that is None or holds a value that
    numpy's string casts do not convert.
    """
    texts = ({}, {})
    parts = tuple([np.empty(0, dtype)] for dtype in (np.intp, np.intp, np.int64, np.int64, float))
    try:
        for chunk in chunks:
            if chunk is None:
                return None
            # split fields, five per record, or _bulk_columns' ids and numbers
            repeats, columns = (1, (chunk[i::5] for i in range(5))) if isinstance(chunk, list) else chunk
            for i, values in enumerate(columns):
                if i < 2:
                    parts[i].append(np.repeat(_codes(texts[i], values), repeats))
                else:
                    parts[i].append(np.asarray(values, dtype=parts[i][0].dtype))
    except (ValueError, OverflowError):
        return None
    return texts, [np.concatenate(part) for part in parts]


def _table(text: str) -> ScoreTable | None:
    """The table of ``text`` after the checks over whole columns, or None
    when a row fails one of them."""
    if not text:
        raise ParseError("no rows")
    columns = _columns(_tokenize(text))
    if columns is None:
        return None
    texts, (d, c, run, fold, score) = columns
    del columns
    if not run.size:
        raise ParseError("no rows")
    datasets, d = _ids(texts[0], d)
    classifiers, c = _ids(texts[1], c)
    if "" in datasets or "" in classifiers or (run < 0).any() or (fold < 0).any():
        return None
    if not ((score >= 0.0) & (score <= 100.0)).all():  # NaN too
        return None
    # keys numbered in order of first appearance
    nc = len(classifiers)
    pairs, first, inverse = np.unique(d * nc + c, return_index=True, return_inverse=True)
    order = np.argsort(first)
    ids = np.argsort(order)[inverse]
    sort = np.lexsort((fold, run, ids))
    if ((np.diff(ids[sort]) == 0) & (np.diff(run[sort]) == 0) & (np.diff(fold[sort]) == 0)).any():
        return None  # a repeated cell
    keys = [(datasets[p // nc], classifiers[p % nc]) for p in pairs[order].tolist()]

    # the first key fixes the grid; without repeats, a key is complete when
    # it has runs * folds cells and none outside the grid
    runs, folds = int(run[ids == 0].max()) + 1, int(fold[ids == 0].max()) + 1
    cells = np.bincount(ids, minlength=len(keys))
    incomplete = cells != runs * folds
    incomplete[ids[(run >= runs) | (fold >= folds)]] = True
    if incomplete.any():
        k = int(incomplete.argmax())
        raise ShapeError(
            f"{keys[k]} has {cells[k]} cells, expected a complete {runs} x {folds} grid"
        )
    grid = np.empty((len(keys), runs, folds))
    grid[ids, run, fold] = score / 100.0 if score.max() > 1.0 else score
    return ScoreTable._of_grid(keys, grid, runs, folds)


def _row_fault(record: list[str], seen: set) -> str | None:
    """What is wrong with one row, in the order the checks apply, or None;
    ``seen`` holds the cells of the rows before it and gains this one's."""
    if not record:
        return None
    if len(record) != 5:
        return f"expected 5 columns, got {len(record)}"
    dataset, classifier, run_text, fold_text, score_text = record
    # interned, so the cells in ``seen`` share one string per id
    dataset, classifier = sys.intern(dataset.strip()), sys.intern(classifier.strip())
    if not dataset or not classifier:
        return "empty dataset or classifier id"
    try:
        run, fold = int(run_text), int(fold_text)
    except ValueError:
        return f"run/fold must be integers, got {run_text!r}/{fold_text!r}"
    if not (-(2**63) <= run < 2**63 and -(2**63) <= fold < 2**63):
        return f"run/fold {run_text!r}/{fold_text!r} do not fit in 64 bits"
    if run < 0 or fold < 0:
        return "run and fold must be non-negative"
    try:
        score = float(score_text)
    except ValueError:
        return f"non-numeric score {score_text!r}"
    if not 0.0 <= score <= 100.0:  # NaN too
        return f"score {score!r} outside [0, 100]"
    cell = (dataset, classifier, run, fold)
    if cell in seen:
        return f"duplicate cell for {(dataset, classifier)} run={run} fold={fold}"
    seen.add(cell)
    return None


def _raise_first_fault(text: str) -> NoReturn:
    """Read ``text`` again, one record at a time, and raise
    :class:`ParseError` for the first record that fails a check; a check
    over whole columns has failed.

    A record that ``csv.reader`` cannot read is reported first, wherever it
    lies.  A fault is named by the line its record starts on, so a quoted
    field holding a line break moves the records after it one line down.
    Run, fold and score convert by Python's int() and float() and int64's
    range, the rules of numpy's string casts.
    """
    if '"' in text:
        records = _quoted_reader(text, [0])
    else:  # split as _tokenize splits; it has rejected a carriage return outside a CRLF
        lines = itertools.chain.from_iterable(_plain_lines(text.replace("\r\n", "\n"), 0))
        records = enumerate((line.split(",") if line else [] for line in lines), start=1)
    seen = set()
    for line, record in records:
        fault = _header_fault(record) if line == 1 else _row_fault(record, seen)
        if fault:
            for _ in records:  # a record csv.reader cannot read is reported first
                pass
            raise ParseError(fault, line=line)
    raise AssertionError("unreachable: a check over whole columns failed, but no row fails one")


def parse_scores(source) -> ScoreTable:
    """Parse the long CSV schema into a validated :class:`ScoreTable`.

    ``source`` may be a str, bytes, or a file-like object (UTF-8, records
    ending at LF or CRLF).  Raises :class:`ParseError` with the line number
    of the earliest malformed row and :class:`ShapeError` for ragged
    matrices.

    Each check first runs over whole columns and answers only whether some
    row fails it.  The text is read about ``_CHUNK`` characters of records
    at a time, so besides the input text its peak memory holds one chunk's
    fields and the column arrays (five 8-byte values per row), not a string
    per field of the whole file; the table keeps the score grid the parse
    fills, with no second copy.  A quote-free chunk of plain decimal
    numbers is read from its UTF-8 bytes in a few passes over whole byte
    columns, decoding the ids only where the ``dataset,classifier`` key
    changes; any other chunk is split into field strings and converted by
    numpy's string casts.  Both give the same values.  Only when a check
    fails is the text read again, one record at a time, applying the checks
    in the order they apply to one row, to name the first row that fails
    and the line its record starts on.
    """
    text = _read_text(source)
    table = _table(text)
    if table is None:
        _raise_first_fault(text)
    return table


def paired_differences(
    table: ScoreTable, a: str, b: str, rho: float | None = None
) -> PairDifferences:
    """Every dataset's differences ``scores(a) - scores(b)``, in table order,
    one run-major row per dataset.

    Fold alignment is positional (both classifiers were run on the same
    splits).  Raises :class:`CoverageError` naming every dataset that lacks
    either classifier.  ``rho`` defaults to the n_te / n_tot heuristic,
    which is 1 / folds for k-fold cross-validation.  That is 1 for a
    one-fold table, so there ``rho`` stays unset, and the methods that
    read it ask for one; those that read the means alone do not.
    """
    missing = [
        d for d in table.datasets
        if (d, a) not in table.entries or (d, b) not in table.entries
    ]
    if missing:
        raise CoverageError(f"classifiers {a!r}/{b!r} missing for datasets: {', '.join(missing)}")
    first = [table._index[(d, a)] for d in table.datasets]
    second = [table._index[(d, b)] for d in table.datasets]
    x = (table._grid[first] - table._grid[second]).reshape(len(first), -1)
    if rho is None and table.folds > 1:
        rho = 1.0 / table.folds
    return PairDifferences(table.datasets, x, rho)
