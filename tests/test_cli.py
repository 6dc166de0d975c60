import argparse
import csv
import hashlib
import io
import json

import numpy as np
import pytest

from cvcompare import cli
from cvcompare.cli import build_parser, main
from cvcompare.bayes_ttest import hdis, posterior
from cvcompare.data import Rope, ScoreTable, mean_differences, paired_differences, parse_scores
from cvcompare.decisions import simplex_region_probs
from cvcompare.dp import DpPrior, signed_rank_samples
from cvcompare.kernels import RngStream
from cvcompare.report import EXPORT_POINTS

from conftest import make_table


@pytest.fixture()
def score_csv(tmp_path):
    table = make_table(n_datasets=6, classifiers=("alpha", "beta", "gamma"), runs=2, folds=5, seed=42)
    path = tmp_path / "scores.csv"
    path.write_text(table.to_csv(), encoding="utf-8")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def renamed_csv(tmp_path, classifiers, datasets):
    """Score CSV whose datasets ds0, ds1, ... carry the given raw CSV fields."""
    table = make_table(n_datasets=len(datasets), classifiers=classifiers, runs=2, folds=5, seed=3)
    lines = table.to_csv().split("\n")
    for i, field in enumerate(datasets):
        lines = [field + line[len(f"ds{i}"):] if line.startswith(f"ds{i},") else line for line in lines]
    path = tmp_path / "scores.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


class TestParsing:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["signed-rank", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--rope" in text and "--seed" in text and "150000" in text
        assert "--threshold" in text and "0.95" in text

    def test_seed_required_for_monte_carlo(self, score_csv, tmp_path, capsys):
        code = run_cli(
            "signed-rank", "--input", score_csv, "--pair", "alpha", "beta",
            "--output-dir", tmp_path / "out",
        )
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, score_csv, tmp_path):
        code = run_cli(
            "wilcoxon", "--input", score_csv, "--pair", "alpha", "beta",
            "--chains", "4", "--output-dir", tmp_path / "out",
        )
        assert code == 1


class TestValidation:
    def test_missing_input_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("wilcoxon", "--input", tmp_path / "absent.csv",
                       "--pair", "a", "b", "--output-dir", out)
        assert code == 1
        assert not out.exists()
        assert "not found" in capsys.readouterr().err

    def test_parse_error_prefixed(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("dataset,classifier,run,fold,score\nd,a,0,0,nope\n")
        code = run_cli("wilcoxon", "--input", bad, "--pair", "a", "b",
                       "--output-dir", tmp_path / "out")
        assert code == 1
        assert "cvcompare: data:" in capsys.readouterr().err

    def test_input_that_is_not_utf8(self, score_csv, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(score_csv.read_bytes() + b"ds9,alpha,0,0,0.5\xff\n")
        out = tmp_path / "out"
        code = run_cli("wilcoxon", "--input", bad, "--pair", "alpha", "beta", "--output-dir", out)
        assert code == 1
        assert not out.exists()
        position = len(score_csv.read_bytes()) + len("ds9,alpha,0,0,0.5")
        assert capsys.readouterr().err == (
            f"cvcompare: validation: 'utf-8' codec can't decode byte 0xff in position {position}: "
            "invalid start byte\n"
        )

    def test_missing_classifier(self, score_csv, tmp_path, capsys):
        code = run_cli("wilcoxon", "--input", score_csv, "--pair", "alpha", "nope",
                       "--output-dir", tmp_path / "out")
        assert code == 1
        assert "cvcompare: data:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, sources, name", [
        (["sign", "--all-pairs", "--samples", "1000", "--seed", "1"],
         ("knn 1 vs svm", "knn_1 vs svm"), "barycentric_knn_1_vs_svm.csv"),
        (["signed-rank", "--all-pairs", "--samples", "1000", "--seed", "1"],
         ("knn 1 vs svm", "knn_1 vs svm"), "barycentric_knn_1_vs_svm.csv"),
        (["bayes-ttest", "--pair", "knn 1", "svm"], ("iris 1", "iris_1"), "density_iris_1.csv"),
    ], ids=["sign", "signed-rank", "bayes-ttest"])
    def test_export_name_collision_writes_nothing(self, tmp_path, capsys, argv, sources, name):
        path = renamed_csv(tmp_path, ("knn 1", "knn_1", "svm"), ["iris 1", "iris_1"])
        out = tmp_path / "out"
        code = run_cli(argv[0], "--input", path, *argv[1:], "--output-dir", out)
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert all(repr(source) in err for source in sources) and name in err


    @pytest.mark.parametrize("argv", [
        ["wilcoxon"], ["sign", "--seed", "1"], ["signed-rank", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_all_pairs_needs_two_classifiers(self, tmp_path, capsys, argv):
        table = make_table(n_datasets=4, classifiers=("alpha",), seed=1)
        path = tmp_path / "scores.csv"
        path.write_text(table.to_csv(), encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli(*argv, "--input", path, "--all-pairs", "--output-dir", out)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == "cvcompare: data: --all-pairs needs two classifiers, got 1\n"


class TestFreqAndBayes:
    def test_freq_ttest_report(self, score_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli("freq-ttest", "--input", score_csv, "--pair", "alpha", "beta",
                       "--dataset", "ds0", "--output-dir", out)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "freq-ttest"
        (entry,) = report["results"]
        assert entry["dataset"] == "ds0"
        assert entry["dof"] == 2 * 5 - 1
        assert 0.0 <= entry["p_two_sided"] <= 1.0

    def test_bayes_ttest_exports(self, score_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli("bayes-ttest", "--input", score_csv, "--pair", "alpha", "beta",
                       "--output-dir", out)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["results"]) == 6
        for entry in report["results"]:
            probs = entry["probs"]
            total = probs["a_better"] + probs["rope"] + probs["b_better"]
            assert total == pytest.approx(1.0, abs=1e-9)
            assert entry["decision"] in (
                "a-better", "b-better", "practically-equivalent", "no-decision",
            )
        assert (out / "hdi.csv").exists()
        assert (out / "density_ds0.csv").exists()

    @pytest.mark.parametrize("pair, key, decision", [
        (("strong", "weak"), "a_better", "a-better"),
        (("weak", "strong"), "b_better", "b-better"),
    ], ids=["a-first", "b-first"])
    def test_report_key_and_decision_name_the_same_classifier(self, tmp_path, pair, key, decision):
        # strong beats weak by about 0.1 on every fold: the key holding the larger
        # probability and the decision must both name it, in either order
        rng = np.random.default_rng(8)
        base = rng.uniform(0.6, 0.8, size=(2, 5))
        table = ScoreTable(entries={("ds0", "strong"): base + 0.1 + rng.uniform(-0.01, 0.01, size=(2, 5)),
                                    ("ds0", "weak"): base}, runs=2, folds=5)
        path = tmp_path / "scores.csv"
        path.write_text(table.to_csv(), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("bayes-ttest", "--input", path, "--pair", *pair, "--output-dir", out) == 0
        (entry,) = json.loads((out / "report.json").read_text())["results"]
        assert max(entry["probs"], key=entry["probs"].get) == key
        assert entry["probs"][key] > 0.95
        assert entry["decision"] == decision

    def test_hdi_csv_quotes_dataset_ids(self, tmp_path):
        path = renamed_csv(tmp_path, ("alpha", "beta"), ['"iris, binary"', "ds1"])
        out = tmp_path / "out"
        code = run_cli("bayes-ttest", "--input", path, "--pair", "alpha", "beta",
                       "--output-dir", out)
        assert code == 0
        text = (out / "hdi.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["dataset", "level", "lo", "hi"]
        assert all(len(row) == 4 for row in rows)
        assert {row[0] for row in rows[1:]} == {"iris, binary", "ds1"}
        plain = [line for line in text.splitlines() if line.startswith("ds1,")]
        assert plain and all('"' not in line for line in plain)
        assert (out / "density_iris_binary.csv").exists()

    def test_quoted_line_break_in_id_reaches_outputs(self, tmp_path):
        # the input is read without newline translation, so CRLF inside quotes stays
        path = renamed_csv(tmp_path, ("alpha", "beta"), ['"d\r\nx"', "ds1"])
        out = tmp_path / "out"
        code = run_cli("bayes-ttest", "--input", path, "--pair", "alpha", "beta",
                       "--output-dir", out)
        assert code == 0
        text = (out / "hdi.csv").read_bytes().decode("utf-8")
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert {row[0] for row in rows[1:]} == {"d\r\nx", "ds1"}

    def test_hdi_csv_matches_the_csv_writer_rows(self, tmp_path):
        # ids without a carriage return, which csv.writer quotes as _csv_field does
        path = renamed_csv(tmp_path, ("alpha", "beta"), ['"iris, binary"', '"say ""hi"""', '"d\nx"', "ds3"])
        out = tmp_path / "out"
        assert run_cli("bayes-ttest", "--input", path, "--pair", "alpha", "beta", "--output-dir", out) == 0
        expected = io.StringIO()
        rows = csv.writer(expected, lineterminator="\n")
        rows.writerow(["dataset", "level", "lo", "hi"])
        for series in paired_differences(parse_scores(path.read_bytes()), "alpha", "beta"):
            intervals = hdis(posterior(series))
            for level, (lo, hi) in zip(intervals.levels, intervals.intervals):
                rows.writerow([series.dataset, repr(level), repr(lo), repr(hi)])
        assert (out / "hdi.csv").read_bytes().decode("utf-8") == expected.getvalue()

    def test_lone_carriage_return_in_id_is_quoted(self, tmp_path):
        path = renamed_csv(tmp_path, ("alpha", "beta"), ['"d\rx"', "ds1"])
        out = tmp_path / "out"
        assert run_cli("bayes-ttest", "--input", path, "--pair", "alpha", "beta", "--output-dir", out) == 0
        text = (out / "hdi.csv").read_bytes().decode("utf-8")
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert len(rows) == 1 + 7 * 2
        assert [row[0] for row in rows[1:]] == ["d\rx"] * 7 + ["ds1"] * 7

    def test_all_degenerate_run_writes_the_hdi_header(self, tmp_path):
        scores = np.full((2, 5), 0.8)
        table = ScoreTable(entries={(d, c): scores for d in ("ds0", "ds1") for c in ("alpha", "beta")},
                           runs=2, folds=5)
        path = tmp_path / "scores.csv"
        path.write_text(table.to_csv(), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("bayes-ttest", "--input", path, "--pair", "alpha", "beta", "--output-dir", out) == 0
        assert (out / "hdi.csv").read_text() == "dataset,level,lo,hi\n"

    def test_wilcoxon_all_pairs(self, score_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli("wilcoxon", "--input", score_csv, "--all-pairs", "--output-dir", out)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["results"]) == 3  # three classifier pairs


class TestMonteCarloMethods:
    def test_signed_rank_reports_and_exports(self, score_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli("signed-rank", "--input", score_csv, "--pair", "alpha", "beta",
                       "--samples", "5000", "--seed", "7", "--output-dir", out)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        (entry,) = report["results"]
        assert entry["seed"] == 7
        assert entry["mc_stderr"] is not None
        bary = (out / "barycentric_alpha_vs_beta.csv").read_text().strip().split("\n")
        assert bary[0] == "x,y" and len(bary) == 5001

    def test_report_uses_every_draw_beyond_the_export_cap(self, score_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli("signed-rank", "--input", score_csv, "--pair", "alpha", "beta",
                       "--samples", "30000", "--seed", "5", "--output-dir", out)
        assert code == 0
        (entry,) = json.loads((out / "report.json").read_text())["results"]
        z = mean_differences(paired_differences(parse_scores(score_csv.read_text()), "alpha", "beta"))
        samples = signed_rank_samples(z, Rope(-0.01, 0.01), DpPrior(), 30_000, RngStream(5).spawn(0))
        assert samples.count == 30_000
        probs = simplex_region_probs(samples)
        assert entry["probs"] == {"a_better": probs.p_right, "rope": probs.p_rope, "b_better": probs.p_left}
        se = probs.mc_stderr
        assert entry["mc_stderr"] == {"a_better": se[2], "rope": se[1], "b_better": se[0]}
        bary = (out / "barycentric_alpha_vs_beta.csv").read_text().split("\n")
        assert bary[0] == "x,y" and len(bary) - 1 == EXPORT_POINTS + 1

    @pytest.mark.parametrize("method", ["sign", "signed-rank"])
    def test_pair_run_equals_its_all_pairs_entry(self, score_csv, tmp_path, method):
        # every pair draws on one stream of the seed, so its draws do not depend on its index
        runs = {}
        for name, selection in (("pair", ["--pair", "beta", "gamma"]), ("all", ["--all-pairs"])):
            out = tmp_path / name
            assert run_cli(method, "--input", score_csv, *selection, "--samples", "20000",
                           "--seed", "9", "--output-dir", out) == 0
            entries = json.loads((out / "report.json").read_text())["results"]
            (entry,) = [e for e in entries if e["pair"] == ["beta", "gamma"]]
            runs[name] = (entry["probs"], entry["mc_stderr"], (out / "barycentric_beta_vs_gamma.csv").read_bytes())
        assert runs["pair"] == runs["all"]

    @pytest.mark.parametrize("pairs", [1, 2])
    def test_sampling_groups_leave_the_files_unchanged(self, score_csv, tmp_path, monkeypatch, pairs):
        argv = ["signed-rank", "--input", score_csv, "--all-pairs", "--samples", "3000", "--seed", "2"]
        assert run_cli(*argv, "--output-dir", tmp_path / "whole") == 0
        # three pairs in groups of one, or of two and one
        monkeypatch.setattr(cli, "_GROUP_BYTES", pairs * 3000 * 3 * 8)
        assert run_cli(*argv, "--output-dir", tmp_path / "grouped") == 0
        assert file_hashes(tmp_path / "grouped") == file_hashes(tmp_path / "whole")

    @pytest.mark.parametrize("method", ["sign", "signed-rank"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_must_be_positive(self, score_csv, tmp_path, capsys, method, samples):
        out = tmp_path / "out"
        code = run_cli(method, "--input", score_csv, "--pair", "alpha", "beta", "--seed", "1",
                       "--samples", samples, "--output-dir", out)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == "cvcompare: validation: count must be at least 1\n"

    def test_byte_identical_reports_for_same_seed(self, score_csv, tmp_path):
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert run_cli("signed-rank", "--input", score_csv, "--all-pairs",
                           "--samples", "4000", "--seed", "123", "--output-dir", out) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_report_records_the_input_not_its_path(self, score_csv, tmp_path):
        reports = []
        for directory in (tmp_path / "a", tmp_path / "a-longer-directory-name" / "nested"):
            directory.mkdir(parents=True)
            copy = directory / score_csv.name
            copy.write_bytes(score_csv.read_bytes())
            assert run_cli("signed-rank", "--input", copy, "--all-pairs", "--samples", "4000",
                           "--seed", "123", "--output-dir", directory / "out") == 0
            reports.append((directory / "out" / "report.json").read_bytes())
        assert reports[0] == reports[1]
        digest = hashlib.sha256(score_csv.read_bytes()).hexdigest()
        assert json.loads(reports[0])["input"] == {"name": "scores.csv", "sha256": digest}

    def test_different_seed_changes_report(self, score_csv, tmp_path):
        blobs = []
        for seed, name in ((1, "s1"), (2, "s2")):
            out = tmp_path / name
            assert run_cli("sign", "--input", score_csv, "--pair", "alpha", "beta",
                           "--samples", "4000", "--seed", seed, "--output-dir", out) == 0
            blobs.append((out / "report.json").read_text())
        assert blobs[0] != blobs[1]

    def test_loss_matrix_rule(self, score_csv, tmp_path):
        matrix = tmp_path / "loss.json"
        matrix.write_text(json.dumps([[0, 20, 20], [20, 0, 20], [20, 20, 0], [1, 1, 1]]))
        out = tmp_path / "out"
        code = run_cli("sign", "--input", score_csv, "--pair", "alpha", "beta",
                       "--samples", "2000", "--seed", "3", "--loss-matrix", matrix,
                       "--output-dir", out)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rule"]["type"] == "loss"


class TestHierarchicalCli:
    def test_run_writes_draws_and_diagnostics(self, score_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli("hierarchical", "--input", score_csv, "--pair", "alpha", "beta",
                       "--chains", "2", "--warmup", "150", "--draws", "100",
                       "--seed", "11", "--output-dir", out)
        report = json.loads((out / "report.json").read_text())
        (entry,) = report["results"]
        diag = entry["diagnostics"]
        assert code == (0 if diag["converged"] else 2)
        assert (out / "draws_alpha_vs_beta.csv").exists()
        assert (out / "barycentric_alpha_vs_beta.csv").exists()
        total = sum(entry["probs"].values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unconverged_fit_exits_2_and_writes_every_file(self, tmp_path):
        # no warm-up and 4 kept draws per chain: max R-hat is about 2 here
        table = make_table(n_datasets=10, classifiers=("alpha", "beta"), runs=2, folds=5, seed=0)
        path = tmp_path / "scores.csv"
        path.write_text(table.to_csv(), encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli("hierarchical", "--input", path, "--pair", "alpha", "beta",
                       "--warmup", "0", "--draws", "4", "--seed", "1", "--output-dir", out)
        assert code == 2
        (entry,) = json.loads((out / "report.json").read_text())["results"]
        assert entry["diagnostics"]["converged"] is False
        assert sorted(p.name for p in out.iterdir()) == [
            "barycentric_alpha_vs_beta.csv", "draws_alpha_vs_beta.csv", "report.json"]

    def test_reports_over_every_pooled_draw(self, score_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli("hierarchical", "--input", score_csv, "--pair", "alpha", "beta", "--chains", "2",
                       "--warmup", "10", "--draws", "2500", "--seed", "3", "--output-dir", out)
        assert code in (0, 2)
        bary = (out / "barycentric_alpha_vs_beta.csv").read_text().split("\n")
        assert bary[0] == "x,y" and len(bary) - 2 == 5000


class TestEnvironment:
    def test_output_dir_from_env(self, score_csv, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("CVCOMPARE_OUTPUT_DIR", str(target))
        code = run_cli("wilcoxon", "--input", score_csv, "--pair", "alpha", "beta")
        assert code == 0
        assert (target / "report.json").exists()


class TestBenchmarkFidelity:
    def test_bayes_ttest_reproduces_reference_posterior(self, tmp_path):
        # encode the reference difference series (mean -0.0194, sd 0.01583,
        # 10x10 folds) as two classifiers: beta flat at 0.5, alpha = 0.5 + x
        import conftest

        d = conftest.series_from_stats(mean=-0.0194, sd=0.01583, n=100, rho=0.1)
        lines = ["dataset,classifier,run,fold,score"]
        for idx, x in enumerate(d.x):
            run, fold = divmod(idx, 10)
            lines.append(f"anneal,nbc,{run},{fold},{float(0.5 + x)!r}")
            lines.append(f"anneal,aode,{run},{fold},0.5")
        path = tmp_path / "anneal.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = run_cli("bayes-ttest", "--input", path, "--pair", "nbc", "aode",
                       "--dataset", "anneal", "--output-dir", out)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        (entry,) = report["results"]
        post = entry["posterior"]
        assert post["dof"] == 99
        assert post["loc"] == pytest.approx(-0.0194, abs=1e-9)
        assert post["scale2"] == pytest.approx(3.0349e-5, rel=1e-4)


def file_hashes(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


class TestGoldenOutputs:
    """Every file each subcommand writes, pinned by sha256 on the ``score_csv`` table."""

    CASES = [
        (["freq-ttest", "--pair", "alpha", "beta"], 0, {
            "report.json": "311652daa7db8ad32e56fd74070a749ec1b0795cc17cc25c577e130c6b9df5e4",
        }),
        (["freq-ttest", "--pair", "alpha", "beta", "--dataset", "ds1"], 0, {
            "report.json": "4551d707293b10a96100e5f978e63fbbc21e283d2754c54133e28944937ac84f",
        }),
        (["wilcoxon", "--all-pairs"], 0, {
            "report.json": "341a3fe487450f654e27a593d79708164a7736330706e4dc79905ca7b78fbcea",
        }),
        (["bayes-ttest", "--pair", "alpha", "beta"], 0, {
            "density_ds0.csv": "ab88c3f97d5f86f510d7c110256d8d52ac284815918782732b72f65f0b5e6488",
            "density_ds1.csv": "12066b7b24050fd9937e1661dd6ea69282728f00a90f52f3310a0e0308dcfb2c",
            "density_ds2.csv": "f276cc2ad132c7d22deb5601ab358435a2a75e78804b3da850af01de9cc57014",
            "density_ds3.csv": "ce5fbca4a83330a38b4c3e0f1e1f746d8a0b444b9d3fa67b63f991332f48ace2",
            "density_ds4.csv": "cebed182b76ab410dc96ac610074efaf5f50753782dc4056536d75e3cfca6b95",
            "density_ds5.csv": "0b10a8f6bb59615f890e20828cd30f73c44fcd9edb6fa0462f6f5181aa43cfa3",
            "hdi.csv": "c830090305809804fdfb9dca45c49b8ab6971ea6b2ba9e44e85ac023723e2165",
            "report.json": "118b4be9f8ea6a11a86efd377019d853d8ff13822c58ba127b939439d9b6c31a",
        }),
        (["sign", "--all-pairs", "--samples", "2000", "--seed", "3"], 0, {
            "barycentric_alpha_vs_beta.csv": "59ade73ef9f3de0b5268c4dd774e27830e7c1e2e5c3be37fc4b492fe5683cb49",
            "barycentric_alpha_vs_gamma.csv": "3553d8449b45c2664493d5b40e33ef432b12ea1bef0d21b9b5dbb92797ee3558",
            "barycentric_beta_vs_gamma.csv": "3cf0e87d7de5f0bd5f9b07bc8a83da376b20f1838fd3170a9f7c295b9d1348b8",
            "report.json": "8cbfea595b8966e317cfc5b9f23cc00bb42936f1d2af56703fea0872fd76bdfd",
        }),
        (["sign", "--pair", "beta", "gamma", "--samples", "2000", "--seed", "4",
          "--loss-matrix", "loss.json"], 0, {
            "barycentric_beta_vs_gamma.csv": "04ed52be0d4ebcc27f99f9302b555f3a58fd4ee247e1788dc4831f8859c68584",
            "report.json": "31b826dfe87bb6226e6216b8246101829081a4281636298d63b79eb72e6ac683",
        }),
        (["signed-rank", "--all-pairs", "--samples", "2000", "--seed", "3"], 0, {
            "barycentric_alpha_vs_beta.csv": "61b0524935bf5ef2cf0d6b07c09b2d27621a0a2f7f52b30ae473695902a8d31f",
            "barycentric_alpha_vs_gamma.csv": "2b04fe017322e41d37170e29705da09d43870f74a01db7be867daac7bc9c9349",
            "barycentric_beta_vs_gamma.csv": "70c513328642120be662d34f4f2e1b0327e83ae3d4e52d8deae9e68ab041e483",
            "report.json": "d54f795321a8ce49477ec279ccd1e878dbe4cb53da8e42749c6d1fc13afb34e0",
        }),
        (["hierarchical", "--pair", "alpha", "gamma", "--chains", "2", "--warmup", "50",
          "--draws", "50", "--seed", "11"], 2, {
            "barycentric_alpha_vs_gamma.csv": "8d037458bc0ce6375b239d316b49af08d8a0d5af82581734f3a3aa40605fefaa",
            "draws_alpha_vs_gamma.csv": "216ccae791e13332824901fbd3a763edfc1cf2400013e7369c4cdafe30d00e20",
            "report.json": "3e76199a4c56374ea24d020ab48e31dda24d81af865bf7fa3dad183db214adca",
        }),
    ]

    @pytest.mark.parametrize("argv, code, hashes", CASES, ids=[" ".join(argv) for argv, _, _ in CASES])
    def test_files_are_byte_identical(self, score_csv, monkeypatch, argv, code, hashes):
        # the loss-matrix case names loss.json relative to the fixture's directory
        monkeypatch.chdir(score_csv.parent)
        (score_csv.parent / "loss.json").write_text(
            json.dumps([[0, 20, 20], [20, 0, 20], [20, 20, 0], [1, 1, 1]]))
        assert run_cli(*argv, "--input", score_csv.name, "--output-dir", "out") == code
        assert file_hashes(score_csv.parent / "out") == hashes


COMMON = {
    ("-h", "--help"): ("==SUPPRESS==", False, None),
    ("--input",): (None, True, None),
    ("--output-dir",): ("cvcompare-out", False, None),
}
ROPE_AND_RULE = {
    ("--rope",): ([-0.01, 0.01], False, None),
    ("--threshold",): (0.95, False, None),
    ("--loss-matrix",): (None, False, None),
}
PAIR_OR_ALL = {("--pair",): (None, False, None), ("--all-pairs",): (False, False, None)}
ONE_PAIR = {("--pair",): (None, True, None)}
RHO = {("--rho",): (None, False, None)}
SEED = {("--seed",): (None, True, None)}
SAMPLES = {("--samples",): (150000, False, None)}
DP_PRIOR = {
    ("--prior-strength",): (0.5, False, None),
    ("--prior-place",): ("rope", False, ["left", "rope", "right"]),
}
DATASET = {("--dataset",): (None, False, None)}
PARSER_SURFACE = {
    "freq-ttest": {**COMMON, **RHO, **ONE_PAIR, **DATASET},
    "wilcoxon": {**COMMON, **PAIR_OR_ALL},
    "bayes-ttest": {**COMMON, **ROPE_AND_RULE, **RHO, **ONE_PAIR, **DATASET},
    "sign": {**COMMON, **ROPE_AND_RULE, **PAIR_OR_ALL, **SEED, **SAMPLES, **DP_PRIOR},
    "signed-rank": {**COMMON, **ROPE_AND_RULE, **PAIR_OR_ALL, **SEED, **SAMPLES, **DP_PRIOR},
    "hierarchical": {
        **COMMON, **ROPE_AND_RULE, **RHO, **ONE_PAIR, **SEED,
        ("--chains",): (4, False, None),
        ("--warmup",): (1000, False, None),
        ("--draws",): (1000, False, None),
    },
}


def test_parser_surface_is_pinned(monkeypatch):
    monkeypatch.delenv("CVCOMPARE_OUTPUT_DIR", raising=False)
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        method: {tuple(a.option_strings): (a.default, a.required, a.choices) for a in sub._actions}
        for method, sub in subparsers.choices.items()
    }
    assert surface == PARSER_SURFACE


SUBCOMMANDS = [
    ["freq-ttest", "--pair", "alpha", "beta"],
    ["wilcoxon", "--all-pairs"],
    ["bayes-ttest", "--pair", "alpha", "beta"],
    ["sign", "--all-pairs", "--samples", "1000", "--seed", "1"],
    ["signed-rank", "--all-pairs", "--samples", "1000", "--seed", "1"],
    ["hierarchical", "--pair", "alpha", "beta", "--chains", "2", "--warmup", "5",
     "--draws", "5", "--seed", "1"],
]


# the subcommands whose comparisons end in rope probabilities and a decision
BAYESIAN = SUBCOMMANDS[2:]


class TestRuleAndIoErrors:
    @pytest.mark.parametrize("argv", BAYESIAN, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("threshold", ["7", "0.2"])
    def test_bad_threshold_fails_before_any_work(self, score_csv, tmp_path, monkeypatch, capsys,
                                                 argv, threshold):
        def no_work(*args, **kwargs):
            raise AssertionError("the input was parsed before the threshold was checked")

        monkeypatch.setattr(cli, "parse_scores", no_work)
        out = tmp_path / "out"
        code = run_cli(*argv, "--input", score_csv, "--threshold", threshold, "--output-dir", out)
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"cvcompare: validation: threshold must be in (1/3, 1], got {float(threshold)}\n"

    @pytest.mark.parametrize("argv, message", [
        (["hierarchical", "--chains", "1"], "need at least two chains for convergence diagnostics"),
        (["hierarchical", "--draws", "3"], "need at least four kept draws"),
        (["hierarchical", "--warmup", "-1"], "warmup must be non-negative"),
        (["sign", "--prior-strength", "0"], "prior strength must be positive, got 0.0"),
        (["signed-rank", "--prior-strength", "0"], "prior strength must be positive, got 0.0"),
        (["sign", "--samples", "0"], "count must be at least 1"),
        (["signed-rank", "--samples", "0"], "count must be at least 1"),
        (["hierarchical", "--rho", "1"], "rho must lie in [0, 1), got 1.0"),
        (["freq-ttest", "--rho", "1.5"], "rho must lie in [0, 1), got 1.5"),
        (["bayes-ttest", "--rho", "-0.1"], "rho must lie in [0, 1), got -0.1"),
    ], ids=["chains", "draws", "warmup", "sign-prior-strength", "signed-rank-prior-strength",
            "sign-samples", "signed-rank-samples", "hierarchical-rho", "freq-ttest-rho", "bayes-ttest-rho"])
    def test_bad_method_flag_fails_before_any_work(self, score_csv, tmp_path, monkeypatch, capsys,
                                                   argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the input was parsed before the method flags were checked")

        monkeypatch.setattr(cli, "parse_scores", no_work)
        out = tmp_path / "out"
        # the pair names a missing classifier, which reading the input would report first
        seed = [] if argv[0] in ("freq-ttest", "bayes-ttest") else ["--seed", "1"]
        code = run_cli(argv[0], "--input", score_csv, "--pair", "alpha", "zz", *seed,
                       *argv[1:], "--output-dir", out)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"cvcompare: validation: {message}\n"

    @pytest.mark.parametrize("method", [argv[0] for argv in SUBCOMMANDS])
    def test_pair_of_one_classifier_fails_before_any_work(self, score_csv, tmp_path, monkeypatch, capsys,
                                                          method):
        def no_work(*args, **kwargs):
            raise AssertionError("the input was parsed before the pair was checked")

        monkeypatch.setattr(cli, "parse_scores", no_work)
        out = tmp_path / "out"
        seed = ["--seed", "1"] if method in ("sign", "signed-rank", "hierarchical") else []
        code = run_cli(method, "--input", score_csv, "--pair", "alpha", "alpha", *seed, "--output-dir", out)
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "cvcompare: validation: --pair needs two different classifiers, got 'alpha' twice\n"

    @pytest.mark.parametrize("method", ["freq-ttest", "wilcoxon"])
    @pytest.mark.parametrize("flag", [["--rope", "-0.01", "0.01"], ["--threshold", "0.9"],
                                      ["--loss-matrix", "loss.json"]], ids=lambda flag: flag[0])
    def test_frequentist_tests_take_no_rope_or_rule(self, score_csv, tmp_path, monkeypatch, capsys,
                                                    method, flag):
        def no_work(*args, **kwargs):
            raise AssertionError("the input was parsed before the flags were checked")

        monkeypatch.setattr(cli, "parse_scores", no_work)
        out = tmp_path / "out"
        code = run_cli(method, "--input", score_csv, "--pair", "alpha", "beta", *flag, "--output-dir", out)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"cvcompare: usage: unrecognized arguments: {' '.join(flag)}\n"

    @pytest.mark.parametrize("argv", BAYESIAN, ids=lambda argv: argv[0])
    def test_threshold_and_loss_matrix_conflict(self, score_csv, tmp_path, monkeypatch, capsys, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("the input was parsed before the flags were checked")

        monkeypatch.setattr(cli, "parse_scores", no_work)
        loss = tmp_path / "loss.json"
        loss.write_text(json.dumps([[0, 20, 20], [20, 0, 20], [20, 20, 0], [1, 1, 1]]))
        out = tmp_path / "out"
        code = run_cli(*argv, "--input", score_csv, "--threshold", "0.9", "--loss-matrix", loss,
                       "--output-dir", out)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            "cvcompare: usage: argument --loss-matrix: not allowed with argument --threshold\n")

    def test_missing_loss_matrix_is_an_io_error(self, score_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("sign", "--input", score_csv, "--pair", "alpha", "beta", "--seed", "1",
                       "--loss-matrix", tmp_path / "missing.json", "--output-dir", out)
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("cvcompare: io: ") and "missing.json" in err
        assert err.count("\n") == 1

    def test_output_dir_that_is_a_file_is_an_io_error(self, score_csv, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        code = run_cli("wilcoxon", "--input", score_csv, "--pair", "alpha", "beta", "--output-dir", out)
        assert code == 1
        assert out.read_text() == "not a directory"
        err = capsys.readouterr().err
        assert err.startswith("cvcompare: io: ") and str(out) in err
        assert err.count("\n") == 1


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv, message", [
        (["sign", "--seed", "1", "--prior-strength", "inf"], "prior strength must be finite, got inf"),
        (["signed-rank", "--seed", "1", "--prior-strength", "inf"],
         "prior strength must be finite, got inf"),
        (["bayes-ttest", "--rope", "0", "inf"], "rope bounds must be finite, got [0.0, inf]"),
        (["sign", "--seed", "1", "--rope", "nan", "0.01"], "rope must contain zero, got [nan, 0.01]"),
    ], ids=["sign-prior-strength", "signed-rank-prior-strength", "rope-inf", "rope-nan"])
    def test_rejected_before_the_input_is_read(self, score_csv, tmp_path, monkeypatch, capsys,
                                               argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the input was parsed before the flags were checked")

        monkeypatch.setattr(cli, "parse_scores", no_work)
        out = tmp_path / "out"
        code = run_cli(argv[0], "--input", score_csv, "--pair", "alpha", "beta", *argv[1:],
                       "--output-dir", out)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"cvcompare: validation: {message}\n"

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_loss_matrix_entries_must_be_finite(self, score_csv, tmp_path, monkeypatch, capsys, token):
        # json.load accepts both tokens, which are not valid JSON in report.json
        def no_work(*args, **kwargs):
            raise AssertionError("the input was parsed before the loss matrix was checked")

        monkeypatch.setattr(cli, "parse_scores", no_work)
        loss = tmp_path / "loss.json"
        loss.write_text(f"[[0, 20, 20], [20, {token}, 20], [20, 20, 0], [1, 1, 1]]")
        out = tmp_path / "out"
        code = run_cli("sign", "--input", score_csv, "--pair", "alpha", "beta", "--seed", "1",
                       "--loss-matrix", loss, "--output-dir", out)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == "cvcompare: validation: losses must be finite\n"


class TestErrorComponents:
    @pytest.mark.parametrize("argv, line", [
        (["sign", "--input", "{scores}", "--pair", "alpha"],
         "cvcompare: usage: argument --pair: expected 2 arguments"),
        (["bayes-ttest", "--input", "{scores}", "--pair", "alpha", "beta", "--rope", "0.1", "0.2"],
         "cvcompare: validation: rope must contain zero, got [0.1, 0.2]"),
        (["wilcoxon", "--input", "{scores}", "--pair", "alpha", "nope"],
         "cvcompare: data: classifiers 'alpha'/'nope' missing for datasets: ds0, ds1, ds2, ds3, ds4, ds5"),
        (["freq-ttest", "--input", "{flat}", "--pair", "alpha", "beta", "--dataset", "ds0"],
         "cvcompare: frequentist: dataset 'ds0': zero variance, t statistic undefined"),
        (["bayes-ttest", "--input", "{scores}", "--pair", "alpha", "beta", "--loss-matrix", "{missing}"],
         "cvcompare: io: [Errno 2] No such file or directory: '{missing}'"),
        (["bayes-ttest", "--input", "{scores}", "--pair", "alpha", "beta", "--dataset", "nope"],
         "cvcompare: data: dataset 'nope' not present in the input"),
    ], ids=["usage", "validation", "data", "frequentist", "io", "data-dataset"])
    def test_each_component_prefixes_its_error(self, score_csv, tmp_path, capsys, argv, line):
        # alpha - beta is 0.25 in every fold of ds0, exactly
        flat = tmp_path / "flat.csv"
        entries = {("ds0", "alpha"): np.array([[0.75, 0.625]]), ("ds0", "beta"): np.array([[0.5, 0.375]])}
        flat.write_text(ScoreTable(entries=entries, runs=1, folds=2).to_csv())
        paths = {"scores": score_csv, "flat": flat, "missing": tmp_path / "missing.json"}
        argv = [a.format(**paths) for a in argv]
        out = tmp_path / "out"
        code = run_cli(*argv, "--output-dir", out)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == line.format(**paths) + "\n"


class TestByteOrderMark:
    # Excel's "CSV UTF-8" and PowerShell's `-Encoding utf8` start files with U+FEFF
    @pytest.mark.parametrize("marked", [("scores.csv",), ("loss.json",), ("scores.csv", "loss.json")],
                             ids=["input", "loss-matrix", "both"])
    def test_leading_mark_gives_the_same_report(self, score_csv, tmp_path, monkeypatch, marked):
        loss = json.dumps([[0, 20, 20], [20, 0, 20], [20, 20, 0], [1, 1, 1]]).encode("utf-8")
        reports = []
        for name, bom in (("plain", ()), ("marked", marked)):
            run_dir = tmp_path / name
            run_dir.mkdir()
            for file, data in (("scores.csv", score_csv.read_bytes()), ("loss.json", loss)):
                (run_dir / file).write_bytes(b"\xef\xbb\xbf" + data if file in bom else data)
            # report.json records the input's name, so both runs use the same one
            monkeypatch.chdir(run_dir)
            assert run_cli("sign", "--input", "scores.csv", "--pair", "alpha", "beta", "--samples", "2000",
                           "--seed", "3", "--loss-matrix", "loss.json", "--output-dir", "out") == 0
            reports.append((run_dir / "out" / "report.json").read_bytes())
        assert reports[0] == reports[1]
