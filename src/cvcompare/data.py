"""Experiment data types and ingestion of cross-validation score files.

The canonical input is a long-format CSV with header
``dataset,classifier,run,fold,score``: one row per cross-validation fold
result, run and fold as 0-based integers.  Scores may be fractions in
[0, 1] or percentages in [0, 100]; if any value in the file exceeds 1 the
whole file is treated as percentages and divided by 100.  The scale rule
is applied per file, never per row.  Records end at LF or CRLF; a quoted
field keeps any commas and line breaks it holds.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, ParseError, ShapeError

__all__ = [
    "CSV_HEADER",
    "Rope",
    "ScoreTable",
    "DiffSeries",
    "MeanDiffVector",
    "parse_scores",
    "paired_differences",
    "mean_differences",
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
    ``entries`` then holds read-only views of that copy.
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
class DiffSeries:
    """Paired score differences (first minus second classifier) for one dataset.

    Carries the cross-validation correlation ``rho`` and the sufficient
    statistics (mean, sample standard deviation with divisor n-1) derived
    from ``x``.
    """

    dataset: str
    x: np.ndarray
    rho: float
    n: int = field(init=False)
    mean: float = field(init=False)
    sd: float = field(init=False)

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"difference series must be one-dimensional, got shape {x.shape}")
        if x.size < 2:
            raise ValueError("difference series needs at least two observations")
        if not np.all(np.abs(x) <= 1.0):  # NaN fails this test too
            raise ValueError("score differences must lie in [-1, 1]")
        _check_rho(self.rho)
        (mean,), (constant,) = _row_means(x[np.newaxis])
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "n", int(x.size))
        object.__setattr__(self, "mean", float(mean))
        object.__setattr__(self, "sd", 0.0 if constant else float(x.std(ddof=1)))

    @property
    def ss(self) -> float:
        """Centred sum of squares, sd^2 * (n - 1)."""
        return self.sd * self.sd * (self.n - 1)


@dataclass(frozen=True)
class MeanDiffVector:
    """Per-dataset mean differences for a classifier pair."""

    z: np.ndarray
    datasets: tuple[str, ...]

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "datasets", tuple(self.datasets))
        if z.ndim != 1:
            raise ValueError(f"mean-difference vector must be one-dimensional, got shape {z.shape}")
        if z.size == 0:
            raise ValueError("mean-difference vector must be non-empty")
        if len(self.datasets) != z.size:
            raise ValueError("dataset labels and values have different lengths")
        if not np.all(np.abs(z) <= 1.0):  # NaN fails this test too
            raise ValueError("mean differences must lie in [-1, 1]")

    @property
    def q(self) -> int:
        return int(self.z.size)


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

    Records end at LF or CRLF outside quoted fields.  Returns the header's
    fields (None for an empty text) and an iterator of chunks, one per
    stretch of records after the header.  A chunk holds the fields of its
    non-blank records, five per record, and the line numbers of those
    records, up to the first record with another field count; it then also
    holds ``(line, field count)`` of that record, else None, and is the
    last chunk.  Line numbers count records from 1 for the header, blank
    ones included.  Text without a quote is split with ``str.split``, which
    gives the fields ``csv.reader`` would.
    """
    quoted = '"' in text
    if quoted:
        stream = io.StringIO(text, newline="\n")
        reader = csv.reader(stream)

        def read(size):
            # the records up to the one holding the size-th character from here (a line break may
            # lie inside a quoted field, so the reader finds where records end)
            end = stream.tell() + size
            records = []
            try:
                for record in reader:
                    records.append(record)
                    if stream.tell() > end:
                        break
            except csv.Error as exc:
                raise ParseError(f"malformed record: {exc}", line=reader.line_num) from None
            return records

        header = next(iter(read(0)), None)
        batches = (
            (data, np.fromiter(map(len, data), dtype=np.intp, count=len(data)))
            for data in iter(lambda: read(_CHUNK), [])
        )

        def flatten(rows):
            return list(itertools.chain.from_iterable(rows))
    else:
        if "\r" in text:
            text = text.replace("\r\n", "\n")
            if "\r" in text:
                line = text.count("\n", 0, text.index("\r")) + 1
                raise ParseError("carriage return outside a quoted field", line=line)
        end = text.find("\n")
        end = len(text) if end < 0 else end
        header = text[:end].split(",") if text else None
        batches = _plain_batches(text, end + 1)

        def flatten(rows):
            return ",".join(rows).split(",")

    def chunks():
        line = 2
        for data, widths in batches:
            nonblank = widths > 0
            wrong = np.flatnonzero(nonblank & (widths != 5))
            stop = int(wrong[0]) if wrong.size else len(data)
            lines = np.flatnonzero(nonblank[:stop]) + line
            fields = flatten(itertools.compress(data[:stop], nonblank[:stop].tolist())) if lines.size else []
            if wrong.size:
                if quoted:
                    # csv.reader still reads the rest, so a malformed record there is reported first
                    for _ in batches:
                        pass
                yield fields, lines, (line + stop, int(widths[stop]))
                return
            yield fields, lines, None
            line += len(data)

    return header, chunks()


def _plain_batches(text: str, start: int):
    """The records of quote-free ``text`` from ``start`` on, in chunks that
    end with the record holding each chunk's ``_CHUNK``-th character, with
    each record's field count (0 for an empty line, which ``csv.reader``
    reads as no fields)."""
    while start < len(text):
        stop = text.find("\n", start + _CHUNK)
        stop = len(text) if stop < 0 else stop + 1
        data = text[start:stop].split("\n")
        if data[-1] == "":
            data.pop()  # the line break ending the chunk's last record
        widths = np.fromiter(map(str.count, data, itertools.repeat(",")), dtype=np.intp, count=len(data)) + 1
        if "" in data:
            widths[np.fromiter(map(len, data), dtype=np.intp, count=len(data)) == 0] = 0
        yield data, widths
        start = stop


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


def _convert(values: list[str], dtype) -> np.ndarray:
    """``values`` converted by Python's int() or float() rules, up to the
    first value that does not convert (or overflows int64)."""
    try:
        return np.array(values, dtype=dtype)
    except (ValueError, OverflowError):
        pass
    for i, value in enumerate(values):
        try:
            np.array(value, dtype=dtype)
        except (ValueError, OverflowError):
            return np.array(values[:i], dtype=dtype)
    raise AssertionError("unreachable: the whole column converted one value at a time")


def _columns(chunks) -> tuple[tuple[dict, dict], list[np.ndarray], list, tuple[int, int] | None]:
    """The records of ``_tokenize``'s ``chunks`` as columns, each chunk's
    fields converted to arrays and then freed.

    Returns the dataset and classifier texts, each mapped to its position
    in order of first appearance; the columns, joined over the chunks: each
    row's dataset and classifier position, run, fold, score and line
    number; the texts of the first values that do not convert; and the
    record with a wrong field count, or None.  Run and fold, as a pair, and
    score convert up to their first value that does not (``_convert``'s
    rule), whose text is kept (else None); the column then takes nothing
    from later chunks.
    """
    texts = ({}, {})
    # dataset and classifier positions, run, fold, score, line numbers: one array per chunk
    parts = tuple([np.empty(0, dtype)] for dtype in (np.intp, np.intp, np.int64, np.int64, float, np.intp))
    faults = [None, None]
    bad = None
    for fields, lines, bad in chunks:
        for i in (0, 1):
            parts[i].append(_codes(texts[i], fields[i::5]))
        if faults[0] is None:
            run_text, fold_text = fields[2::5], fields[3::5]
            run, fold = _convert(run_text, np.int64), _convert(fold_text, np.int64)
            m = min(run.size, fold.size)
            parts[2].append(run[:m])
            parts[3].append(fold[:m])
            if m < len(lines):
                faults[0] = run_text[m], fold_text[m]
        if faults[1] is None:
            score_text = fields[4::5]
            score = _convert(score_text, float)
            parts[4].append(score)
            if score.size < len(lines):
                faults[1] = score_text[score.size]
        parts[5].append(lines)
    return texts, [np.concatenate(part) for part in parts], faults, bad


def _first_repeat(ids: np.ndarray, run: np.ndarray, fold: np.ndarray) -> int | None:
    """Index of the earliest row whose (id, run, fold) an earlier row has."""
    order = np.lexsort((fold, run, ids))  # stable: equal cells keep row order
    ids, run, fold = ids[order], run[order], fold[order]
    repeat = (ids[1:] == ids[:-1]) & (run[1:] == run[:-1]) & (fold[1:] == fold[:-1])
    return int(order[1:][repeat].min()) if repeat.any() else None


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def parse_scores(source) -> ScoreTable:
    """Parse the long CSV schema into a validated :class:`ScoreTable`.

    ``source`` may be a str, bytes, or a file-like object (UTF-8, records
    ending at LF or CRLF).  Raises :class:`ParseError` with the line number
    of the earliest malformed row and :class:`ShapeError` for ragged
    matrices.  Each check runs once over a whole column.

    The text is split and converted about ``_CHUNK`` characters of records
    at a time, so besides the input text its peak memory holds one chunk's
    field strings and the column arrays (six 8-byte values per row), not a
    string per field of the whole file; the finished table then holds its
    scores twice while :class:`ScoreTable` copies them.
    """
    header, chunks = _tokenize(_read_text(source))
    texts, columns, faults, bad = _columns(chunks)
    if header is None:
        raise ParseError("no rows")
    if tuple(h.strip().lower() for h in header) != CSV_HEADER:
        raise ParseError(f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}", line=1)
    d, c, run, fold, score, lines = columns
    del columns
    n = len(lines)
    if not n and bad is None:
        raise ParseError("no rows")

    # (row, line, message) of the first failure of each check, in the order
    # the checks apply to one row; a check runs on the rows whose values it
    # needs converted, and the earliest row wins
    failures = []
    if bad is not None:
        failures.append((n, bad[0], f"expected 5 columns, got {bad[1]}"))
    datasets, d = _ids(texts[0], d)
    classifiers, c = _ids(texts[1], c)
    empty = [_first(codes == ids.index("")) for ids, codes in ((datasets, d), (classifiers, c)) if "" in ids]
    if empty:
        failures.append((min(empty), lines[min(empty)], "empty dataset or classifier id"))
    m = run.size
    if faults[0] is not None:
        run_text, fold_text = faults[0]
        values = f"{run_text!r}/{fold_text!r}"
        try:
            int(run_text), int(fold_text)
        except ValueError:
            failures.append((m, lines[m], f"run/fold must be integers, got {values}"))
        else:
            failures.append((m, lines[m], f"run/fold {values} do not fit in 64 bits"))
    i = _first((run < 0) | (fold < 0))
    if i is not None:
        failures.append((i, lines[i], "run and fold must be non-negative"))
    if faults[1] is not None:
        failures.append((score.size, lines[score.size], f"non-numeric score {faults[1]!r}"))
    i = _first(~np.isfinite(score) | (score < 0.0) | (score > 100.0))
    if i is not None:
        failures.append((i, lines[i], f"score {float(score[i])!r} outside [0, 100]"))

    # keys numbered in order of first appearance
    nc = len(classifiers)
    pairs, first, inverse = np.unique(d * nc + c, return_index=True, return_inverse=True)
    order = np.argsort(first)
    ids = np.argsort(order)[inverse]
    keys = [(datasets[p // nc], classifiers[p % nc]) for p in pairs[order].tolist()]
    i = _first_repeat(ids[:m], run, fold)
    if i is not None:
        failures.append(
            (i, lines[i], f"duplicate cell for {keys[ids[i]]} run={run[i]} fold={fold[i]}")
        )
    if failures:
        _, line, message = min(failures, key=lambda f: f[0])
        raise ParseError(message, line=int(line))

    # the first key fixes the grid; without duplicates, a key is complete
    # when it has runs * folds cells and none outside the grid
    runs, folds = int(run[ids == 0].max()) + 1, int(fold[ids == 0].max()) + 1
    cells = np.bincount(ids, minlength=len(keys))
    incomplete = cells != runs * folds
    incomplete[ids[(run >= runs) | (fold >= folds)]] = True
    k = _first(incomplete)
    if k is not None:
        raise ShapeError(
            f"{keys[k]} has {cells[k]} cells, expected a complete {runs} x {folds} grid"
        )
    grid = np.empty((len(keys), runs, folds))
    grid[ids, run, fold] = score / 100.0 if score.max() > 1.0 else score
    del d, c, run, fold, score, lines, inverse, ids  # freed before ScoreTable copies the grid
    return ScoreTable(entries=dict(zip(keys, grid)), runs=runs, folds=folds)


def _differences(table: ScoreTable, a: str, b: str) -> np.ndarray:
    """``scores(a) - scores(b)``, one run-major row per dataset in table order.

    Fold alignment is positional (both classifiers were run on the same
    splits).  Raises :class:`CoverageError` naming every dataset that lacks
    either classifier.
    """
    missing = [
        d for d in table.datasets
        if (d, a) not in table.entries or (d, b) not in table.entries
    ]
    if missing:
        raise CoverageError(f"classifiers {a!r}/{b!r} missing for datasets: {', '.join(missing)}")
    first = [table._index[(d, a)] for d in table.datasets]
    second = [table._index[(d, b)] for d in table.datasets]
    return np.asarray(table._grid[first] - table._grid[second], dtype=float).reshape(len(first), -1)


def paired_differences(
    table: ScoreTable, a: str, b: str, rho: float | None = None
) -> list[DiffSeries]:
    """Per-dataset difference series ``scores(a) - scores(b)``, in table order.

    Each series needs at least two scores per (dataset, classifier) cell.
    ``rho`` defaults to the n_te / n_tot heuristic, which is 1 / folds for
    k-fold cross-validation; that is 1 for a one-fold table, which must
    therefore be given a ``rho``.
    """
    x = _differences(table, a, b)
    if rho is None and table.folds == 1 and table.runs > 1:  # one score per cell fails on its length first
        raise ValueError("rho defaults to 1/folds, which is 1 for a one-fold table, so rho must be given")
    rho = 1.0 / table.folds if rho is None else rho
    return [DiffSeries(dataset, row, rho) for dataset, row in zip(table.datasets, x)]


def mean_differences(table: ScoreTable, a: str, b: str) -> MeanDiffVector:
    """Per-dataset mean differences ``scores(a) - scores(b)``, in table order.

    Read straight from the table, so one score per (dataset, classifier)
    cell is enough; each mean equals the ``mean`` of the dataset's
    :class:`DiffSeries` from :func:`paired_differences` bit for bit.
    """
    z, _ = _row_means(_differences(table, a, b))
    return MeanDiffVector(z=z, datasets=table.datasets)
