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


def _series_stats(x: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Validate difference series, one per row of ``x``, and return their
    means and sample standard deviations (divisor n-1).

    A constant row gets mean ``x[0]`` and sd 0 exactly, with no 1-ulp
    residue, so the degenerate case stays exact.
    """
    if x.shape[1] < 2:
        raise ValueError("difference series needs at least two observations")
    if not np.all(np.abs(x) <= 1.0):  # NaN fails this test too
        raise ValueError("score differences must lie in [-1, 1]")
    _check_rho(rho)
    constant = (x == x[:, :1]).all(axis=1)
    mean = np.where(constant, x[:, 0], x.mean(axis=1))
    sd = np.where(constant, 0.0, x.std(axis=1, ddof=1))
    return mean, sd


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
        (mean,), (sd,) = _series_stats(x[np.newaxis], self.rho)
        self._set(x, float(mean), float(sd))

    def _set(self, x: np.ndarray, mean: float, sd: float) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "n", int(x.size))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sd", sd)

    @classmethod
    def _batch(cls, datasets: tuple[str, ...], x: np.ndarray, rho: float) -> list[DiffSeries]:
        """One series per row of ``x``, validated and summarised in one pass."""
        means, sds = _series_stats(x, rho)
        out = []
        for dataset, row, mean, sd in zip(datasets, x, means.tolist(), sds.tolist()):
            series = object.__new__(cls)
            object.__setattr__(series, "dataset", dataset)
            object.__setattr__(series, "rho", rho)
            series._set(row, mean, sd)
            out.append(series)
        return out

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


def _tokenize(text: str) -> tuple[list[str] | None, list[str], np.ndarray, tuple[int, int] | None]:
    """Split ``text`` into records and fields.

    Records end at LF or CRLF outside quoted fields.  Returns the header's
    fields (None for an empty text); the fields of the non-blank records
    after it, five per record, up to the first record with another field
    count; the line numbers of those records; and ``(line, field count)``
    of that record, or None.  Line numbers count records from 1 for the
    header, blank ones included.  Text without a quote is split with
    ``str.split``, which gives the fields ``csv.reader`` would.
    """
    if '"' in text:
        reader = csv.reader(io.StringIO(text, newline="\n"))
        try:
            records = list(reader)
        except csv.Error as exc:
            raise ParseError(f"malformed record: {exc}", line=reader.line_num) from None
        header = records[0] if records else None
        data = records[1:]
        widths = np.fromiter(map(len, data), dtype=np.intp, count=len(data))

        def flatten(rows):
            return list(itertools.chain.from_iterable(rows))
    else:
        if "\r" in text:
            text = text.replace("\r\n", "\n")
            if "\r" in text:
                line = text.count("\n", 0, text.index("\r")) + 1
                raise ParseError("carriage return outside a quoted field", line=line)
        records = text.split("\n")
        if records[-1] == "":
            records.pop()  # the line break ending the last record
        header = records[0].split(",") if records else None
        data = records[1:]
        widths = np.fromiter(map(str.count, data, itertools.repeat(",")), dtype=np.intp, count=len(data)) + 1
        if "" in data:
            # csv.reader reads an empty line as a record with no fields
            widths[np.fromiter(map(len, data), dtype=np.intp, count=len(data)) == 0] = 0

        def flatten(rows):
            return ",".join(rows).split(",")
    nonblank = widths > 0
    wrong = np.flatnonzero(nonblank & (widths != 5))
    stop = int(wrong[0]) if wrong.size else len(data)
    lines = np.flatnonzero(nonblank[:stop]) + 2
    fields = flatten(itertools.compress(data[:stop], nonblank[:stop].tolist())) if lines.size else []
    bad = (stop + 2, int(widths[stop])) if wrong.size else None
    return header, fields, lines, bad


def _factorize(values: list) -> tuple[list, np.ndarray]:
    """The distinct values in order of first appearance, and the position of
    each value among them."""
    position = {value: i for i, value in enumerate(dict.fromkeys(values))}
    codes = np.fromiter(map(position.__getitem__, values), dtype=np.intp, count=len(values))
    return list(position), codes


def _ids(values: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ids, stripped of surrounding whitespace, in order of
    first appearance, and the position of each value's id among them."""
    raw, codes = _factorize(values)
    ids, merged = _factorize([value.strip() for value in raw])
    return ids, merged[codes]


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
    """
    header, fields, lines, bad = _tokenize(_read_text(source))
    if header is None:
        raise ParseError("no rows")
    if tuple(h.strip().lower() for h in header) != CSV_HEADER:
        raise ParseError(f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}", line=1)
    n = len(lines)
    if not n and bad is None:
        raise ParseError("no rows")

    # (row, line, message) of the first failure of each check, in the order
    # the checks apply to one row; a check runs on the rows whose values it
    # needs converted, and the earliest row wins
    failures = []
    if bad is not None:
        failures.append((n, bad[0], f"expected 5 columns, got {bad[1]}"))
    datasets, d = _ids(fields[0::5])
    classifiers, c = _ids(fields[1::5])
    empty = [_first(codes == ids.index("")) for ids, codes in ((datasets, d), (classifiers, c)) if "" in ids]
    if empty:
        failures.append((min(empty), lines[min(empty)], "empty dataset or classifier id"))
    run_text, fold_text, score_text = fields[2::5], fields[3::5], fields[4::5]
    del fields
    run, fold = _convert(run_text, np.int64), _convert(fold_text, np.int64)
    m = min(run.size, fold.size)
    run, fold = run[:m], fold[:m]
    if m < n:
        values = f"{run_text[m]!r}/{fold_text[m]!r}"
        try:
            int(run_text[m]), int(fold_text[m])
        except ValueError:
            failures.append((m, lines[m], f"run/fold must be integers, got {values}"))
        else:
            failures.append((m, lines[m], f"run/fold {values} do not fit in 64 bits"))
    i = _first((run < 0) | (fold < 0))
    if i is not None:
        failures.append((i, lines[i], "run and fold must be non-negative"))
    score = _convert(score_text, float)
    if score.size < n:
        failures.append((score.size, lines[score.size], f"non-numeric score {score_text[score.size]!r}"))
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
    return ScoreTable(entries=dict(zip(keys, grid)), runs=runs, folds=folds)


def paired_differences(
    table: ScoreTable, a: str, b: str, rho: float | None = None
) -> list[DiffSeries]:
    """Per-dataset difference series ``scores(a) - scores(b)``.

    Fold alignment is positional (both classifiers were run on the same
    splits).  ``rho`` defaults to the n_te / n_tot heuristic, which is
    1 / folds for k-fold cross-validation.
    """
    missing = [
        d for d in table.datasets
        if (d, a) not in table.entries or (d, b) not in table.entries
    ]
    if missing:
        raise CoverageError(f"classifiers {a!r}/{b!r} missing for datasets: {', '.join(missing)}")
    if rho is None:
        rho = 1.0 / table.folds
    first = [table._index[(d, a)] for d in table.datasets]
    second = [table._index[(d, b)] for d in table.datasets]
    x = table._grid[first] - table._grid[second]
    return DiffSeries._batch(table.datasets, np.asarray(x, dtype=float).reshape(len(first), -1), rho)


def mean_differences(diffs: list[DiffSeries]) -> MeanDiffVector:
    """Collapse difference series to the per-dataset means, order preserved."""
    if not diffs:
        raise ValueError("need at least one difference series")
    return MeanDiffVector(
        z=np.array([d.mean for d in diffs]),
        datasets=tuple(d.dataset for d in diffs),
    )
