import csv
import io
import json

import pytest

from cvcompare.cli import build_parser, main
from cvcompare.data import Rope, mean_differences, paired_differences, parse_scores
from cvcompare.dp import DpPrior, signed_rank_samples, simplex_region_probs
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

    def test_byte_identical_reports_for_same_seed(self, score_csv, tmp_path):
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert run_cli("signed-rank", "--input", score_csv, "--all-pairs",
                           "--samples", "4000", "--seed", "123", "--output-dir", out) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

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
