import csv
import io
import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvcompare import data
from cvcompare.data import (
    CSV_HEADER,
    PairDifferences,
    Rope,
    ScoreTable,
    _csv_field,
    _csv_text,
    paired_differences,
    parse_scores,
)
from cvcompare.errors import CoverageError, ParseError, ShapeError

from conftest import make_table


def csv_for(cells, header="dataset,classifier,run,fold,score"):
    lines = [header]
    lines += [",".join(str(v) for v in row) for row in cells]
    return "\n".join(lines) + "\n"


STRIPPED_IDS = st.text(min_size=1, max_size=6).filter(lambda s: s == s.strip())


def full_grid(dataset, classifier, scores):
    """Rows for a complete runs x folds grid from a 2-d array."""
    rows = []
    for r, row in enumerate(scores):
        for f, s in enumerate(row):
            rows.append((dataset, classifier, r, f, s))
    return rows


class TestParseScores:
    def test_percent_normalization_whole_file(self):
        scores_a = np.full((10, 10), 95.0)
        scores_a[0, 0] = 94.44
        rows = full_grid("anneal", "nbc", scores_a) + full_grid("anneal", "aode", np.full((10, 10), 96.5))
        table = parse_scores(csv_for(rows))
        assert table.runs == 10 and table.folds == 10
        assert table.entries[("anneal", "nbc")][0, 0] == pytest.approx(0.9444, abs=1e-12)
        assert table.entries[("anneal", "aode")][0, 0] == pytest.approx(0.965, abs=1e-12)

    def test_fraction_file_not_rescaled(self):
        rows = full_grid("d", "a", [[0.5, 0.75]])
        table = parse_scores(csv_for(rows))
        assert table.entries[("d", "a")][0, 1] == 0.75

    def test_empty_file(self):
        with pytest.raises(ParseError, match="no rows"):
            parse_scores("")
        with pytest.raises(ParseError, match="no rows"):
            parse_scores("dataset,classifier,run,fold,score\n")
        with pytest.raises(ParseError, match="no rows"):
            parse_scores("dataset,classifier,run,fold,score\n\n\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_scores("a,b,c\n1,2,3\n")

    def test_wrong_column_count_reports_line(self):
        text = csv_for([("d", "a", 0, 0, 0.5)]) + "d,a,0,1\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_scores(text)

    def test_non_numeric_score_reports_line(self):
        with pytest.raises(ParseError, match="line 2.*non-numeric"):
            parse_scores(csv_for([("d", "a", 0, 0, "oops")]))

    def test_score_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse_scores(csv_for([("d", "a", 0, 0, 101.0)]))
        with pytest.raises(ParseError, match="outside"):
            parse_scores(csv_for([("d", "a", 0, 0, -0.2)]))

    def test_duplicate_cell(self):
        rows = [("d", "a", 0, 0, 0.5), ("d", "a", 0, 0, 0.6)]
        with pytest.raises(ParseError, match="duplicate"):
            parse_scores(csv_for(rows))

    def test_missing_fold_is_shape_error(self):
        rows = full_grid("d", "a", [[0.5, 0.6], [0.7, 0.8]])
        rows += full_grid("d", "b", [[0.5, 0.6], [0.7, 0.8]])
        rows_broken = [r for r in rows if not (r[1] == "b" and r[2] == 1 and r[3] == 1)]
        with pytest.raises(ShapeError, match="'d', 'b'"):
            parse_scores(csv_for(rows_broken))

    def test_crlf_accepted(self):
        text = csv_for(full_grid("d", "a", [[0.5, 0.6]])).replace("\n", "\r\n")
        table = parse_scores(text)
        assert table.entries[("d", "a")][0, 0] == 0.5

    def test_bytes_and_stream_inputs(self):
        import io

        text = csv_for(full_grid("d", "a", [[0.5, 0.6]]))
        assert parse_scores(text.encode()).folds == 2
        assert parse_scores(io.StringIO(text)).folds == 2
        with pytest.raises(TypeError, match="^cannot read scores from <class 'int'>$"):
            parse_scores(123)

    def test_round_trip_bit_exact(self):
        table = make_table(n_datasets=2, runs=3, folds=4, seed=5)
        again = parse_scores(table.to_csv())
        assert again.runs == table.runs and again.folds == table.folds
        for key, scores in table.entries.items():
            assert np.array_equal(again.entries[key], scores)

    @pytest.mark.parametrize(
        "bad_rows, line, message",
        [
            ({3: ("d", "a", "x", 0, 0.5), 5: ("d", "a", 2, 0, "oops")}, 3, "run/fold must be integers"),
            ({3: ("d", "a", 1, 0, "oops"), 5: ("d", "a", "x", 0, 0.5)}, 3, "non-numeric score"),
            ({3: ("d", "a", 1, 0, 101.0), 5: ("", "a", 2, 0, 0.5)}, 3, "outside"),
            ({3: ("d", "a", 0, 0, 0.5), 5: ("d", "a", -1, 0, 0.5)}, 3, "duplicate"),
            ({3: ("d", "a", 0, -1, 0.5), 5: ("d", "a", 2, 0)}, 3, "non-negative"),
            ({3: ("d", "a", 1), 5: ("d", "a", "x", 0, "oops")}, 3, "expected 5 columns, got 3"),
            ({3: (" ", "a", 1, 0, 0.5), 5: ("d", "a", 2, 0, 0.5, 9)}, 3, "empty dataset"),
            # two faults in one row: the check the row meets first
            ({3: ("d", "a", "x", 0, "oops")}, 3, "run/fold must be integers"),
            ({3: ("d", "a", -1, 0, 101.0)}, 3, "non-negative"),
            # an integer run that int64 cannot hold
            ({3: ("d", "a", 99999999999999999999, 1, 0.5)}, 3,
             "run/fold '99999999999999999999'/'1' do not fit in 64 bits"),
        ],
    )
    def test_earliest_bad_line_is_reported(self, bad_rows, line, message):
        rows = [("d", "a", r, 0, 0.5) for r in range(5)]
        for lineno, row in bad_rows.items():
            rows[lineno - 2] = row
        with pytest.raises(ParseError, match=f"^line {line}: .*{message}"):
            parse_scores(csv_for(rows))

    def test_line_numbers_count_blank_lines(self):
        text = "dataset,classifier,run,fold,score\n\nd,a,0,0,0.5\n\n\nd,a,0,1,oops\n"
        with pytest.raises(ParseError, match="^line 6: non-numeric score 'oops'"):
            parse_scores(text)
        with pytest.raises(ParseError, match="^line 6: non-numeric"):
            parse_scores(text.replace("\n", "\r\n"))

    @pytest.mark.parametrize(
        "second, message",
        [
            # the whole 2 x 2 grid plus one cell in a third run
            (full_grid("d", "b", [[0.5, 0.6], [0.7, 0.8]]) + [("d", "b", 2, 0, 0.5)],
             "'d', 'b'\\) has 5 cells, expected a complete 2 x 2 grid"),
            # three cells of the grid and one in a fold it lacks
            (full_grid("d", "b", [[0.5, 0.6], [0.7, 0.8]])[:-1] + [("d", "b", 0, 7, 0.5)],
             "'d', 'b'\\) has 4 cells"),
        ],
    )
    def test_cell_beyond_first_grid_is_shape_error(self, second, message):
        rows = full_grid("d", "a", [[0.5, 0.6], [0.7, 0.8]]) + second
        with pytest.raises(ShapeError, match=message):
            parse_scores(csv_for(rows))

    def test_ids_are_stripped(self):
        rows = [(" d ", "\ta  ", 0, 0, 0.5), ("d", "a", 0, 1, 0.25)]
        table = parse_scores(csv_for(rows))
        assert list(table.entries) == [("d", "a")]
        assert table.datasets == ("d",) and table.classifiers == ("a",)

    def test_quoted_and_unquoted_spellings_agree(self):
        table = make_table(n_datasets=3, classifiers=("a", "b", "c"), runs=2, folds=3, seed=4)
        plain = table.to_csv()
        assert '"' not in plain
        out = io.StringIO()
        writer = csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\r\n")
        writer.writerows(csv.reader(io.StringIO(plain)))
        quoted = parse_scores(out.getvalue())
        again = parse_scores(plain)
        assert list(quoted.entries) == list(again.entries) == list(table.entries)
        for key, scores in again.entries.items():
            assert quoted.entries[key].tobytes() == scores.tobytes() == table.entries[key].tobytes()

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_records_end_only_at_lf_or_crlf(self, sep):
        text = csv_for([(f"d{sep}x", "a", 0, 0, 0.5), (f"d{sep}x", "a", 0, 1, 0.25)])
        for eol in ("\n", "\r\n"):
            table = parse_scores(text.replace("\n", eol))
            assert list(table.entries) == [(f"d{sep}x", "a")]

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
    def test_quoted_line_break_is_kept(self, brk):
        text = f'dataset,classifier,run,fold,score\n"d{brk}x",a,0,0,0.5\n"d{brk}x",a,0,1,0.25\n'
        table = parse_scores(text)
        assert list(table.entries) == [(f"d{brk}x", "a")]
        assert parse_scores(table.to_csv()).entries.keys() == table.entries.keys()

    def test_carriage_return_outside_quotes(self):
        text = csv_for([("d", "a", 0, 0, 0.5)]) + "d\rx,a,0,1,0.25\n"
        with pytest.raises(ParseError, match="^line 3: carriage return"):
            parse_scores(text)
        with pytest.raises(ParseError, match="^line 3: carriage return"):
            parse_scores(text.replace("d,a", '"d",a'))

    @pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv-reader"])
    @pytest.mark.parametrize("end", ["\r", "\r\r\n", "\r\r\n\n", "\n\r"])
    def test_carriage_return_before_a_line_end(self, quoted, end):
        # csv.reader would end a record at these CRs
        text = csv_for([("d", "a", 0, 0, 0.5)]) + "d,a,0,1,0.25" + end
        if quoted:
            text = text.replace("d,a", '"d",a')
        line = 4 if end == "\n\r" else 3
        with pytest.raises(ParseError, match=f"^line {line}: carriage return outside a quoted field"):
            parse_scores(text)

    @pytest.mark.parametrize("bad, line", [("d3,a,x,0,0.5", 5), ('"d3\n\ny",a,x,0,0.5', 5)])
    def test_rows_are_named_by_the_line_their_record_starts_on(self, bad, line):
        # the quoted field on lines 2 and 3 holds a line break
        text = f'dataset,classifier,run,fold,score\n"d\nx",a,0,0,0.5\nd2,a,0,0,0.5\n{bad}\n'
        with pytest.raises(ParseError, match=f"^line {line}: run/fold must be integers"):
            parse_scores(text)
        assert outcome(parse_scores, text) == outcome(reference_parse, text)

    def test_carriage_returns_in_quoted_fields_are_kept(self):
        text = csv_for(full_grid('"d\r\r\nx\ry"', "a", [[0.5, 0.25]]))
        assert list(parse_scores(text + "\r\n").entries) == [("d\r\r\nx\ry", "a")]
        # an open quoted field at the end of the text still ends there
        assert list(parse_scores(text.rpartition(",")[0] + ',"0.25\r').entries) == [("d\r\r\nx\ry", "a")]
        # a CR outside quotes after them is reported at its own line
        with pytest.raises(ParseError, match="^line 6: carriage return outside a quoted field"):
            parse_scores(text + "d\r\r\n")

    @pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv-reader"])
    def test_leading_byte_order_mark_is_dropped(self, quoted):
        # spreadsheet "CSV UTF-8" exports start with U+FEFF
        text = csv_for(full_grid("d", "a", [[0.5, 0.6], [0.7, 0.8]]))
        if quoted:
            text = text.replace("d,a", '"d",a')
        plain = parse_scores(text)
        marked = "\ufeff" + text
        for source in (marked, marked.encode("utf-8"), io.BytesIO(marked.encode("utf-8")), io.StringIO(marked)):
            table = parse_scores(source)
            assert list(table.entries) == list(plain.entries)
            for key, scores in plain.entries.items():
                assert table.entries[key].tobytes() == scores.tobytes()

    @pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv-reader"])
    def test_byte_order_mark_keeps_line_numbers(self, quoted):
        text = "\ufeff" + csv_for([("d", "a", 0, 0, 0.5), ("d", "a", 0, 1, "oops")])
        if quoted:
            text = text.replace("d,a", '"d",a')
        with pytest.raises(ParseError, match="^line 3: non-numeric score"):
            parse_scores(text)

    def test_only_one_leading_byte_order_mark_is_dropped(self):
        text = csv_for([("d\ufeff", "a", 0, 0, 0.5), ("d\ufeff", "a", 0, 1, 0.25)])
        assert list(parse_scores("\ufeff" + text).entries) == [("d\ufeff", "a")]
        with pytest.raises(ParseError, match="^line 1: expected header"):
            parse_scores("\ufeff\ufeff" + text)

    @staticmethod
    def _table(ids, runs, folds, seed):
        rng = np.random.default_rng(seed)
        split = len(ids) // 2
        keys = [(d, c) for d in ids[:split] for c in ids[split:]]
        entries = {key: rng.uniform(0.0, 1.0, size=(runs, folds)) for key in keys}
        return ScoreTable(entries=entries, runs=runs, folds=folds)

    @given(
        ids=st.lists(STRIPPED_IDS, min_size=2, max_size=5, unique=True),
        runs=st.integers(1, 3),
        folds=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_any_ids(self, ids, runs, folds, seed):
        table = self._table(ids, runs, folds, seed)
        again = parse_scores(table.to_csv())
        assert (again.runs, again.folds) == (runs, folds)
        assert list(again.entries) == list(table.entries)
        for key, scores in table.entries.items():
            assert again.entries[key].tobytes() == scores.tobytes()

    @given(
        ids=st.lists(
            STRIPPED_IDS.filter(lambda s: "\r" not in s and "\n" not in s),
            min_size=2, max_size=5, unique=True,
        ),
        runs=st.integers(1, 3),
        folds=st.integers(1, 3),
        percent=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_shuffled_rows_and_percent(self, ids, runs, folds, percent, seed):
        # ids without line breaks, so every record is one line of to_csv
        table = self._table(ids, runs, folds, seed)
        header, *records = [line + "\n" for line in table.to_csv().split("\n")[:-1]]
        expected = dict(table.entries)
        if percent:
            expected = {key: scores * 100.0 for key, scores in expected.items()}
            next(iter(expected.values()))[0, 0] = 99.5  # at least one value above 1
            cells = [(key, r, f) for key in expected for r in range(runs) for f in range(folds)]
            records = [
                f"{record.rsplit(',', 1)[0]},{float(expected[key][r, f])!r}\n"
                for record, (key, r, f) in zip(records, cells)
            ]
            expected = {key: scores / 100.0 for key, scores in expected.items()}
        random.Random(seed).shuffle(records)
        again = parse_scores(header + "".join(records))
        assert (again.runs, again.folds) == (runs, folds)
        assert set(again.entries) == set(expected)
        for key, scores in expected.items():
            assert again.entries[key].tobytes() == scores.tobytes()


def reference_parse(text):
    """The row-at-a-time parser the columnar one replaced, kept as the
    reference: same checks in the same order, first bad row raises, named
    by the line its record starts on."""
    reader = csv.reader(io.StringIO(text, newline="\n"))
    rows, start = [], 1
    for row in reader:
        rows.append((start, row))
        start = reader.line_num + 1
    if not rows:
        raise ParseError("no rows")
    header = tuple(h.strip().lower() for h in rows[0][1])
    if header != ("dataset", "classifier", "run", "fold", "score"):
        raise ParseError(f"expected header dataset,classifier,run,fold,score, got {','.join(rows[0][1])}", line=1)
    cells = {}
    for lineno, row in rows[1:]:
        if not row:
            continue
        if len(row) != 5:
            raise ParseError(f"expected 5 columns, got {len(row)}", line=lineno)
        dataset, classifier = row[0].strip(), row[1].strip()
        if not dataset or not classifier:
            raise ParseError("empty dataset or classifier id", line=lineno)
        try:
            run, fold = int(row[2]), int(row[3])
        except ValueError:
            raise ParseError(f"run/fold must be integers, got {row[2]!r}/{row[3]!r}", line=lineno) from None
        if not (-(2**63) <= run < 2**63 and -(2**63) <= fold < 2**63):
            raise ParseError(f"run/fold {row[2]!r}/{row[3]!r} do not fit in 64 bits", line=lineno)
        if run < 0 or fold < 0:
            raise ParseError("run and fold must be non-negative", line=lineno)
        try:
            score = float(row[4])
        except ValueError:
            raise ParseError(f"non-numeric score {row[4]!r}", line=lineno) from None
        if not np.isfinite(score) or score < 0.0 or score > 100.0:
            raise ParseError(f"score {score!r} outside [0, 100]", line=lineno)
        grid = cells.setdefault((dataset, classifier), {})
        if (run, fold) in grid:
            raise ParseError(f"duplicate cell for {(dataset, classifier)} run={run} fold={fold}", line=lineno)
        grid[(run, fold)] = score
    if not cells:
        raise ParseError("no rows")
    percent = max(max(grid.values()) for grid in cells.values()) > 1.0
    first = next(iter(cells.values()))
    runs, folds = 1 + max(r for r, _ in first), 1 + max(f for _, f in first)
    entries = {}
    for key, grid in cells.items():
        if len(grid) != runs * folds or any((r, f) not in grid for r in range(runs) for f in range(folds)):
            raise ShapeError(f"{key} has {len(grid)} cells, expected a complete {runs} x {folds} grid")
        scores = np.empty((runs, folds))
        for (r, f), value in grid.items():
            scores[r, f] = value / 100.0 if percent else value
        entries[key] = scores
    return entries, runs, folds


JUNK = ["x", "", " ", "1.5", "-1", "+1", "1_0", " 2 ", "nan", "inf", "101", "-0.0", "1e2", "3", "0.5", " d0", "c1\t"]


def mutated_file(seed):
    """A small score file, shuffled and then broken in a few seeded ways."""
    rng = random.Random(seed)
    percent = rng.random() < 0.3
    shape = [rng.randint(1, 3) for _ in range(4)]
    rows = [
        [f"d{i}", f"c{j}", str(r), str(f), repr(round(rng.uniform(0, 100 if percent else 1), rng.randint(0, 6)))]
        for i in range(shape[0]) for j in range(shape[1]) for r in range(shape[2]) for f in range(shape[3])
    ]
    if rng.random() < 0.5:
        rng.shuffle(rows)
    for _ in range(rng.choice([0, 1, 1, 2, 3, 5])):
        k = rng.randrange(len(rows))
        kind = rng.randrange(6)
        if kind == 0:
            rows.pop(k)
        elif kind == 1:
            rows.insert(rng.randrange(len(rows) + 1), list(rows[k]))
        elif kind == 2:
            rows.insert(rng.randrange(len(rows) + 1), [])
        elif kind == 3:
            rows[k] = rows[k][:rng.randrange(6)] + ["z"] * rng.randint(0, 1)
        elif len(rows[k]) == 5:
            rows[k][rng.randrange(5)] = rng.choice(JUNK) if kind == 4 else str(rng.randint(0, 4))
        if not rows:
            break
    quote = rng.random() < 0.3
    lines = ["dataset,classifier,run,fold,score"] + [
        ",".join(f'"{v}"' if quote and rng.random() < 0.5 else v for v in row) for row in rows
    ]
    eol = rng.choice(["\n", "\r\n"])
    return eol.join(lines) + (eol if rng.random() < 0.8 else "")


def outcome(parse, text):
    try:
        result = parse(text)
    except (ParseError, ShapeError) as exc:
        return type(exc).__name__, str(exc)
    if not isinstance(result, tuple):
        result = result.entries, result.runs, result.folds
    entries, runs, folds = result
    return runs, folds, [(key, scores.tobytes()) for key, scores in entries.items()]


def memory_table(quoted=False):
    """100,000 rows of about 33 characters; ``quoted`` quotes the fifth record's
    dataset, which sends the whole text through ``csv.reader``."""
    classifiers = tuple(f"clf{j}" for j in range(10))
    text = make_table(n_datasets=100, classifiers=classifiers, runs=10, folds=10, seed=1).to_csv()
    if quoted:
        lines = text.split("\n")
        dataset, rest = lines[5].split(",", 1)
        lines[5] = f'"{dataset}",{rest}'
        text = "\n".join(lines)
    return text


def parse_peak(text, error=None):
    """The tracemalloc peak of parsing ``text``, above what was allocated before,
    expecting the ParseError ``error`` when one is given."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        if error is None:
            parse_scores(text)
        else:
            with pytest.raises(ParseError, match=error):
                parse_scores(text)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_parse_memory_grows_with_the_columns_not_the_fields():
    # a parse holding a string per field of the whole text peaks at 11.3
    # times its length, chunk by chunk at 6.8
    text = memory_table()
    assert parse_peak(text) < 9 * len(text)


def test_parse_memory_grows_with_the_columns_not_the_fields_quoted():
    # quoted text takes csv.reader over the same chunked lines, with no
    # StringIO of the whole text
    text = memory_table(quoted=True)
    assert parse_peak(text) < 9 * len(text)


def test_parse_memory_on_the_error_path():
    # the record loop that names the bad row reads the text one record at a time
    # and keeps only the cells it has seen, so it stays within the same bound
    text = memory_table()
    text = text[:text.rstrip("\n").rindex(",") + 1] + "oops\n"
    assert parse_peak(text, "^line 100001: non-numeric score 'oops'$") < 9 * len(text)


def test_parse_memory_on_the_error_path_quoted():
    text = memory_table(quoted=True)
    text = text[:text.rstrip("\n").rindex(",") + 1] + "oops\n"
    assert parse_peak(text, "^line 100001: non-numeric score 'oops'$") < 9 * len(text)


class TestAgainstRowLoop:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_same_table_or_same_error(self, seed):
        text = mutated_file(seed)
        assert outcome(parse_scores, text) == outcome(reference_parse, text)

    @pytest.mark.parametrize("chunk", [1, 40])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_same_table_or_same_error_chunk_by_chunk(self, chunk, seed):
        # one or a few records per chunk, on quoted and quote-free text alike
        text = mutated_file(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_CHUNK", chunk)
            assert outcome(parse_scores, text) == outcome(reference_parse, text)


@pytest.fixture(scope="module")
def long_rows():
    """Rows of a valid table that spans two default chunks: 170 keys of 10 x 10
    cells with long ids, and the index of the second chunk's first record."""
    scores = np.random.default_rng(5).uniform(size=17000).tolist()
    rows = [
        [f"dataset-{k // 5:04d}-of-a-benchmark-suite", f"classifier-{k % 5}", str(r), str(f), repr(scores[i])]
        for i, (k, r, f) in enumerate(itertools.product(range(170), range(10), range(10)))
    ]
    return rows, second_chunk_start(csv_for(rows))


def second_chunk_start(text):
    """Index of the first record that the second default chunk of ``text`` holds."""
    cut = text.find("\n", text.index("\n") + 1 + data._CHUNK) + 1
    return text.count("\n", 0, cut) - 1


class TestChunkBoundary:
    """Faults after the first default chunk give the row loop's error and line."""

    # (record, fields, value) edits; record counts from the second chunk's first record
    @pytest.mark.parametrize("edits", [
        [],
        [(0, slice(3, None), [])],
        [(0, 2, "x")],
        [(1, 3, "1.5")],
        [(0, 3, "-1")],
        [(0, 4, "oops")],
        [(2, 4, "100.5")],
        [(0, 0, " ")],
        [(0, slice(0, 4), ["dataset-0000-of-a-benchmark-suite", "classifier-0", "0", "0"])],
        # a failure in the first chunk wins over a later one in another column
        [(-1000, 4, "oops"), (0, 2, "x")],
        [(-1000, 2, "x"), (0, 4, "oops")],
    ], ids=["none", "wrong-width", "bad-run", "bad-fold", "negative-fold", "non-numeric-score",
            "score-out-of-range", "empty-id", "duplicate-of-first-chunk", "score-fault-first",
            "run-fault-first"])
    def test_fault_after_the_first_chunk(self, long_rows, edits):
        rows, b = [list(row) for row in long_rows[0]], long_rows[1]
        assert 1000 < b < len(rows) - 1000
        for record, fields, value in edits:
            rows[b + record][fields] = value
        text = csv_for(rows)
        assert outcome(parse_scores, text) == outcome(reference_parse, text)

    @pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv-reader"])
    def test_valid_table_is_never_read_record_by_record(self, long_rows, monkeypatch, quoted):
        def record_loop(text):
            raise AssertionError("a valid table was read again record by record")

        monkeypatch.setattr(data, "_raise_first_fault", record_loop)
        rows, b = [list(row) for row in long_rows[0]], long_rows[1]
        if quoted:
            rows[b][0] = f'"{rows[b][0]}"'
        text = csv_for(rows)
        assert text.count('"') == (2 if quoted else 0)
        assert outcome(parse_scores, text) == outcome(reference_parse, text)

    @pytest.mark.parametrize("fault", [False, True], ids=["table", "fault"])
    def test_blank_lines_at_the_boundary(self, long_rows, fault):
        rows, b = [list(row) for row in long_rows[0]], long_rows[1]
        if fault:
            rows[b + 4][4] = "oops"
        rows[b - 1:b + 1] = [rows[b - 1], [], [], rows[b], []]
        text = csv_for(rows)
        assert outcome(parse_scores, text) == outcome(reference_parse, text)

    def test_malformed_record_after_a_wrong_width_is_reported(self, long_rows):
        rows, b = [list(row) for row in long_rows[0]], long_rows[1]
        rows[0][0] = f'"{rows[0][0]}"'  # quoted text goes through csv.reader
        rows[3] = rows[3][:4]
        rows[b + 10][0] = "d\rx"
        with pytest.raises(ParseError, match=f"^line {b + 12}: carriage return outside a quoted field"):
            parse_scores(csv_for(rows))

    @pytest.mark.parametrize("fault", [False, True], ids=["table", "fault"])
    def test_quoted_line_breaks_across_the_boundary(self, long_rows, fault):
        rows, b = [list(row) for row in long_rows[0]], long_rows[1]
        # every record from 200 before the cut to 200 after it names a dataset holding a line break
        for row in rows[b - 200:b + 200]:
            row[0] = f'"{row[0]}\nx"'
        if fault:
            rows[b + 300][4] = "oops"
        text = csv_for(rows)
        assert outcome(parse_scores, text) == outcome(reference_parse, text)


BULK_ROWS = [
    [dataset, "a", str(run), str(fold), score]
    for dataset in ("d", "e")
    for (run, fold), score in zip(itertools.product(range(2), repeat=2), ("0.5", "0.25", "0.75", "1"))
]


def bulk_text(*edits, order=range(8), blank=(), eol="\n", final=True):
    """``BULK_ROWS`` as a score file: each (row, field, text) edit applied,
    the rows in ``order``, a blank line before each row in ``blank``, and
    ``eol`` after every line, the last one only when ``final``."""
    rows = [list(row) for row in BULK_ROWS]
    for row, field, value in edits:
        rows[row][field] = value
    lines = ["dataset,classifier,run,fold,score"]
    for i in order:
        lines += [""] * (i in blank) + [",".join(rows[i])]
    return eol.join(lines) + eol * final


def renamed(field, names):
    """Edits giving rows 0-3 the first of ``names`` in ``field`` and rows 4-7 the second."""
    return [(row, field, names[row // 4]) for row in range(8)]


class TestBulkReader:
    """Quote-free chunks are read from their bytes when they keep to the bulk
    reader's grammar and split field by field when not; either way a file
    gives the row loop's table or error."""

    @pytest.mark.parametrize("chunk", [None, 1, 40], ids=["whole", "chunk-1", "chunk-40"])
    @pytest.mark.parametrize("text, bulk", [
        pytest.param(bulk_text(), True, id="valid"),
        pytest.param(bulk_text((5, 2, "000"), (5, 3, "0001"), (5, 4, "0000.5000")), True, id="leading-zeros"),
        pytest.param(bulk_text((5, 4, "5.")), True, id="point-last"),
        pytest.param(bulk_text((5, 4, ".5")), True, id="point-first"),
        pytest.param(bulk_text((5, 4, ".")), False, id="point-alone"),
        pytest.param(bulk_text((5, 4, ".9007199254740991")), True, id="mantissa-below-2^53"),
        pytest.param(bulk_text((5, 4, ".9007199254740992")), True, id="mantissa-2^53"),
        pytest.param(bulk_text((5, 4, ".9007199254740993")), False, id="mantissa-above-2^53"),
        pytest.param(bulk_text((5, 4, "9007199254740992")), True, id="whole-2^53"),
        pytest.param(bulk_text((5, 4, "00000000000000.25")), True, id="score-17-bytes"),
        pytest.param(bulk_text((5, 4, "000000000000000.25")), False, id="score-18-bytes"),
        pytest.param(bulk_text((5, 2, "000000000000000000")), True, id="run-18-digits"),
        pytest.param(bulk_text((5, 2, "0000000000000000000")), False, id="run-19-digits"),
        pytest.param(bulk_text((5, 2, "999999999999999999")), True, id="run-18-nines"),
        pytest.param(bulk_text((5, 2, "9223372036854775807")), False, id="run-int64-max"),
        pytest.param(bulk_text((5, 2, "9223372036854775808")), False, id="run-beyond-int64"),
        pytest.param(bulk_text((5, 2, "-0")), False, id="minus-zero"),
        pytest.param(bulk_text((5, 3, "+1")), False, id="plus-sign"),
        pytest.param(bulk_text((5, 3, " 1 ")), False, id="spaces"),
        pytest.param(bulk_text((7, 2, "0_1")), False, id="underscore"),
        pytest.param(bulk_text((7, 3, "\u0661")), False, id="arabic-indic-digit"),  # ARABIC-INDIC DIGIT ONE
        pytest.param(bulk_text((5, 4, "25e-2")), False, id="exponent"),
        pytest.param(bulk_text((5, 4, "nan")), False, id="nan"),
        pytest.param(bulk_text((5, 4, "")), False, id="empty-score"),
        pytest.param(bulk_text((5, 2, "")), False, id="empty-run"),
        pytest.param(bulk_text((5, 4, "0.2.5")), False, id="two-points"),
        pytest.param(bulk_text(*renamed(0, ("dä", "数据"))), True, id="non-ascii-datasets"),
        pytest.param(bulk_text(*renamed(1, ("ä", "ö"))), True, id="non-ascii-classifiers"),
        pytest.param(bulk_text((4, 0, " e"), (5, 0, "e\t"), (6, 0, "\te "), (1, 1, "a ")), True, id="spaced-ids"),
        pytest.param(bulk_text((4, 0, " ")), True, id="blank-id"),
        # keys of one length that differ only in their second or third 8 bytes
        pytest.param(bulk_text(*renamed(0, ("dataset-number-one", "dataset-number-two"))), True, id="long-datasets"),
        pytest.param(bulk_text(*renamed(1, ("classifier-a-1", "classifier-a-2"))), True, id="long-classifiers"),
        pytest.param(bulk_text(*renamed(0, ("ds,", "d,s"))), False, id="wrong-width"),
        # a key that recurs after another
        pytest.param(bulk_text(order=(0, 1, 4, 5, 2, 3, 6, 7)), True, id="recurring-key"),
        pytest.param(bulk_text(order=(0, 4, 1, 5, 2, 6, 3, 7), blank=(0, 5, 7)), True, id="interleaved-keys-and-blank-lines"),
        pytest.param(bulk_text(final=False), True, id="no-final-lf"),
        pytest.param(bulk_text(eol="\r\n"), True, id="crlf"),
        pytest.param(bulk_text(blank=(7,)) + "\n", True, id="trailing-blank-line"),
        pytest.param(bulk_text((5, 4, "oops")), False, id="non-numeric-score"),
        pytest.param(bulk_text((5, 4, "101")), True, id="score-above-100"),
        pytest.param(bulk_text((5, 3, "0")), True, id="duplicate-cell"),
    ])
    def test_same_table_or_same_error(self, text, bulk, chunk, monkeypatch):
        body = text.replace("\r\n", "\n").partition("\n")[2]
        assert (data._bulk_columns(body) is not None) == bulk
        if chunk:
            monkeypatch.setattr(data, "_CHUNK", chunk)
        assert outcome(parse_scores, text) == outcome(reference_parse, text)

    def test_numbers_equal_int_and_float_of_their_text(self):
        rng = random.Random(11)
        runs, scores = [], []
        for _ in range(20000):
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 18)))
            runs.append(digits)
            n = rng.randint(1, 16)  # the digits read as an integer up to 2**53
            digits = str(rng.randrange(min(10**n, 2**53 + 1))).zfill(n)
            point = rng.randint(0, len(digits))
            scores.append(digits[:point] + "." * (rng.random() < 0.8) + digits[point:])
        scores[:4] = ["9007199254740992", ".9007199254740992", "4.503599627370497", "0.1"]
        body = "".join(f"d,a,{run},{run},{score}\n" for run, score in zip(runs, scores))
        repeats, (datasets, classifiers, run, fold, score) = data._bulk_columns(body)
        assert (list(repeats), datasets, classifiers) == ([20000], ["d"], ["a"])
        assert run.tolist() == fold.tolist() == [int(text) for text in runs]
        assert score.tobytes() == np.array([float(text) for text in scores]).tobytes()

    def test_benchmark_shaped_table_is_read_in_bulk(self, monkeypatch):
        def split(part):
            raise AssertionError("a chunk of a benchmark-shaped table was split field by field")

        table = make_table(n_datasets=40, classifiers=tuple(f"clf{j}" for j in range(5)), runs=10, folds=10, seed=3)
        entries = {key: np.round(scores, 4) for key, scores in table.entries.items()}
        text = ScoreTable(entries, table.runs, table.folds).to_csv()
        monkeypatch.setattr(data, "_split_records", split)
        monkeypatch.setattr(data, "_CHUNK", 4096)
        assert outcome(parse_scores, text) == outcome(reference_parse, text)


def score_table_csv_loop(table):
    """Reference: the per-row writer that ``ScoreTable.to_csv`` replaced."""
    out = [",".join(CSV_HEADER) + "\n"]
    for (dataset, classifier), scores in table.entries.items():
        ids = f"{_csv_field(dataset)},{_csv_field(classifier)}"
        for run in range(table.runs):
            for fold in range(table.folds):
                out.append(f"{ids},{run},{fold},{float(scores[run, fold])!r}\n")
    return "".join(out)


class TestToCsv:
    @pytest.mark.parametrize("runs, folds", [(1, 1), (2, 5), (3, 4)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_the_row_loop(self, runs, folds, dtype):
        rng = np.random.default_rng(runs * 10 + folds)
        datasets = ["iris", 'iris, "binary"', "d\rx", "d\r\ny", "d\nz"]
        classifiers = ["knn 1", "svm,rbf", 'say "hi"']
        entries = {
            (d, c): rng.uniform(0.0, 1.0, size=(runs, folds)).astype(dtype)
            for d in datasets for c in classifiers
        }
        entries[("iris", "knn 1")][0, 0] = 0.0
        entries[("d\nz", "svm,rbf")][-1, -1] = 1.0
        table = ScoreTable(entries=entries, runs=runs, folds=folds)
        text = table.to_csv()
        assert text == score_table_csv_loop(table)
        assert list(parse_scores(text).entries) == list(entries)

    def test_header_alone_without_rows(self):
        assert _csv_text(["dataset", "level", "lo", "hi"], [[], [], [], []]) == "dataset,level,lo,hi\n"

    def test_fields_take_the_shortest_round_trip_text(self):
        values = [0.1, -0.0, 1e-300, 5e-324, 1e16, 2.0, 1 / 3]
        text = _csv_text(["k", "v"], [list(range(len(values))), values])
        assert text == "k,v\n" + "".join(f"{k},{v!r}\n" for k, v in enumerate(values))


class TestPairedDifferences:
    def test_identity_pair_is_zero(self):
        d = paired_differences(make_table(), "alpha", "alpha")
        assert np.all(d.x == 0.0)
        assert np.all(d.means == 0.0) and np.all(d.sds == 0.0)

    def test_constant_shift(self):
        base = np.random.default_rng(1).uniform(0.3, 0.7, size=(2, 5))
        table_entries = {("d", "a"): base + 0.02, ("d", "b"): base}
        from cvcompare.data import ScoreTable

        table = ScoreTable(entries=table_entries, runs=2, folds=5)
        d = paired_differences(table, "a", "b")
        assert d.means[0] == pytest.approx(0.02, abs=1e-15)
        assert d.sds[0] == pytest.approx(0.0, abs=1e-15)

    def test_antisymmetry(self):
        table = make_table(seed=7)
        ab = paired_differences(table, "alpha", "beta")
        ba = paired_differences(table, "beta", "alpha")
        assert np.array_equal(ab.x, -ba.x)

    def test_rho_default_and_override(self):
        table = make_table(folds=5)
        assert paired_differences(table, "alpha", "beta").rho == pytest.approx(1.0 / 5.0)
        assert paired_differences(table, "alpha", "beta", rho=0.0).rho == 0.0
        # 1/folds would be 1 for one fold, so rho stays unset there
        assert paired_differences(make_table(runs=10, folds=1), "alpha", "beta").rho is None

    def test_run_major_flattening(self):
        from cvcompare.data import ScoreTable

        a = np.array([[0.5, 0.6], [0.7, 0.8]])
        b = np.zeros((2, 2))
        table = ScoreTable(entries={("d", "a"): a, ("d", "b"): b}, runs=2, folds=2)
        d = paired_differences(table, "a", "b")
        assert np.array_equal(d.x, [[0.5, 0.6, 0.7, 0.8]])

    def test_coverage_error_lists_datasets(self):
        table = make_table(n_datasets=2)
        entries = dict(table.entries)
        del entries[("ds1", "beta")]
        from cvcompare.data import ScoreTable

        broken = ScoreTable(entries=entries, runs=table.runs, folds=table.folds)
        with pytest.raises(CoverageError, match="ds1"):
            paired_differences(broken, "alpha", "beta")

    def test_coverage_error_text(self):
        table = make_table(n_datasets=3)
        entries = dict(table.entries)
        del entries[("ds0", "beta")], entries[("ds2", "alpha")]
        broken = ScoreTable(entries=entries, runs=table.runs, folds=table.folds)
        with pytest.raises(CoverageError) as err:
            paired_differences(broken, "alpha", "beta")
        assert str(err.value) == "classifiers 'alpha'/'beta' missing for datasets: ds0, ds2"

    @pytest.mark.parametrize("runs, folds", [(1, 1), (1, 2), (2, 5), (10, 10), (3, 100), (10, 100)])
    def test_statistics_match_per_series(self, runs, folds):
        table = make_table(6, classifiers=("alpha", "beta", "flat"), runs=runs, folds=folds, seed=9)
        entries = dict(table.entries)
        # constant differences: flat = alpha + 0.01 on one dataset, = alpha on another
        entries[("ds0", "flat")] = np.clip(entries[("ds0", "alpha")] + 0.01, 0.0, 1.0)
        entries[("ds1", "flat")] = entries[("ds1", "alpha")].copy()
        table = ScoreTable(entries=entries, runs=runs, folds=folds)
        for a, b in [("alpha", "beta"), ("alpha", "flat"), ("flat", "alpha"), ("beta", "beta")]:
            d = paired_differences(table, a, b)
            assert d.datasets == table.datasets and d.x.shape == (6, runs * folds)
            # the per-series loop the vectorised statistics replace, bit for bit
            for i, dataset in enumerate(d.datasets):
                x = (table.entries[(dataset, a)] - table.entries[(dataset, b)]).ravel()
                assert np.array_equal(d.x[i], x)
                if np.all(x == x[0]):  # a constant series, one difference among them
                    mean, sd = x[0], 0.0
                else:
                    mean, sd = x.mean(), x.std(ddof=1)
                assert d.means[i] == mean and d.sds[i] == sd and d.ss[i] == sd * sd * (x.size - 1)

    def test_means_alone_make_a_one_column_matrix(self):
        means = np.array([0.01, -0.02, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = PairDifferences(datasets=("a", "b", "c"), x=means[:, np.newaxis])
        assert d.means.tobytes() == means.tobytes() and d.sds.tolist() == [0.0] * 3 and d.rho is None
        # the spread within a dataset is read only through the checks
        with pytest.raises(ValueError, match="needs at least two observations"):
            d.within()


class TestMeanDifferences:
    def test_order_preserved(self):
        table = make_table(n_datasets=4, seed=3)
        d = paired_differences(table, "alpha", "beta")
        assert d.datasets == table.datasets
        expected = [(table.entries[(ds, "alpha")] - table.entries[(ds, "beta")]).ravel().mean() for ds in d.datasets]
        assert np.array_equal(d.means, expected)

    def test_permutation_equivariance(self):
        table = make_table(n_datasets=5, seed=11)
        perm = [3, 0, 4, 1, 2]
        # the same cells, with the datasets listed in permuted order
        keys = [(f"ds{i}", c) for i in perm for c in ("alpha", "beta")]
        permuted = ScoreTable(entries={k: table.entries[k] for k in keys}, runs=table.runs, folds=table.folds)
        z = paired_differences(table, "alpha", "beta")
        z_perm = paired_differences(permuted, "alpha", "beta")
        assert np.array_equal(z_perm.means, z.means[perm])
        assert z_perm.datasets == tuple(z.datasets[i] for i in perm)

    def test_single_and_zero_series(self):
        table = ScoreTable(entries={("only", c): np.full((1, 3), 0.5) for c in ("a", "b")}, runs=1, folds=3)
        z = paired_differences(table, "a", "b")
        assert z.q == 1 and z.means[0] == 0.0 and z.datasets == ("only",)


class TestTypes:
    def test_rope_validation(self):
        Rope(-0.01, 0.01)
        Rope(0.0, 0.0)
        with pytest.raises(ValueError):
            Rope(0.01, 0.02)
        with pytest.raises(ValueError):
            Rope(-0.02, -0.01)

    @pytest.mark.parametrize("lower, upper", [(0.0, math.inf), (-math.inf, 0.01), (-math.inf, math.inf)])
    def test_rope_bounds_must_be_finite(self, lower, upper):
        with pytest.raises(ValueError) as err:
            Rope(lower, upper)
        assert str(err.value) == f"rope bounds must be finite, got [{lower}, {upper}]"

    def test_nan_rope_bound_rejected(self):
        with pytest.raises(ValueError, match="rope must contain zero"):
            Rope(math.nan, 0.01)

    def test_scores_are_held_once_and_read_only(self):
        a = np.full((1, 2), 0.5)
        table = ScoreTable(entries={("d", "a"): a, ("d", "b"): np.zeros((1, 2))}, runs=1, folds=2)
        a[0, 0] = 0.9  # the caller's array is not the table's
        with pytest.raises(ValueError, match="read-only"):
            table.entries[("d", "a")][0, 0] = 0.9
        with pytest.raises(ValueError, match="read-only"):
            table.entries[("d", "b")][0, 1] = 0.1
        assert table.entries[("d", "a")].tolist() == [[0.5, 0.5]]
        d = paired_differences(table, "a", "b")
        assert d.x.tolist() == [[0.5, 0.5]]
        rows = table.to_csv().split("\n")[1:-1]
        assert rows == ["d,a,0,0,0.5", "d,a,0,1,0.5", "d,b,0,0,0.0", "d,b,0,1,0.0"]

    def test_pair_differences_validation(self):
        with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\), got 1.0"):
            PairDifferences(datasets=("d",), x=np.array([[0.1, 0.2]]), rho=1.0)
        # the checks of the methods that read the spread within a dataset
        with pytest.raises(ValueError, match="needs at least two observations"):
            PairDifferences(datasets=("d",), x=np.array([[0.1]]), rho=0.1).within()
        with pytest.raises(ValueError, match="so rho must be given"):
            PairDifferences(datasets=("d",), x=np.array([[0.1, 0.2]])).within()
        with pytest.raises(ValueError, match="a per-dataset test reads one dataset, got 2"):
            PairDifferences(datasets=("d", "e"), x=np.zeros((2, 3)), rho=0.1).series()

    def test_rows_are_read_only_copies(self):
        x = np.array([[0.1, 0.2, 0.4], [0.0, -0.5, 0.5]])
        d = PairDifferences(datasets=("d", "e"), x=x, rho=0.2)
        x[0, 0] = 0.9  # the caller's array is not the differences'
        for held in (d.x, d.means, d.sds):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0.0
        row = d.row(1)
        assert row.datasets == ("e",) and row.rho == 0.2 and row.x.tolist() == [[0.0, -0.5, 0.5]]
        assert row.series() == ("e", d.means[1], d.sds[1], 0.2)

    def test_shape_errors_name_the_shape(self):
        cases = [
            (lambda: PairDifferences(("a", "b"), np.zeros(2)),
             "difference matrix must be two-dimensional, got shape (2,)"),
            (lambda: PairDifferences((), np.zeros((0, 3))),
             "difference matrix must be non-empty, got shape (0, 3)"),
            (lambda: PairDifferences(("a",), np.zeros((2, 3))),
             "dataset labels and rows have different lengths"),
            (lambda: ScoreTable(entries={}, runs=1, folds=2),
             "score table has no entries"),
            (lambda: ScoreTable(entries={("d", "a"): np.zeros((1, 2)), ("", "a"): np.zeros((1, 2))},
                                runs=1, folds=2),
             "dataset and classifier ids must be non-empty"),
            (lambda: ScoreTable(entries={("d", "a"): np.zeros((1, 3))}, runs=1, folds=2),
             "(d, a) has shape (1, 3), expected (1, 2)"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message
            # a matrix of the wrong shape is a data error, whose type the CLI reports
            assert isinstance(err.value, ShapeError) == ("has shape" in message)

    def test_nan_differences_rejected(self):
        for x in ([[np.nan, 0.02, -0.03]], [[0.1, 1.5, 0.0]]):
            with pytest.raises(ValueError, match=r"score differences must lie in \[-1, 1\]"):
                PairDifferences(datasets=("d",), x=np.array(x), rho=0.1)

    def test_nan_scores_rejected(self):
        scores = np.full((1, 3), 0.8)
        scores[0, 1] = np.nan
        with pytest.raises(ValueError, match="outside"):
            ScoreTable(entries={("d", "a"): scores}, runs=1, folds=3)

    def test_table_copies_the_callers_arrays(self):
        # parse_scores hands its own grid over; a caller's arrays are copied
        scores = np.full((2, 3), 0.5)
        grid = np.full((2, 2, 3), 0.25)
        table = ScoreTable(entries={("d", "a"): scores, ("d", "b"): grid[0], ("e", "a"): grid[1]}, runs=2, folds=3)
        scores[0, 0] = 0.9
        grid[:] = 0.75
        assert np.array_equal(table.entries[("d", "a")], np.full((2, 3), 0.5))
        assert np.array_equal(table.entries[("d", "b")], np.full((2, 3), 0.25))
        assert np.array_equal(table.entries[("e", "a")], np.full((2, 3), 0.25))
        assert not table.entries[("d", "a")].flags.writeable
