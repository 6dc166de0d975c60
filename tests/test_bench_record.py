import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "output_mb", "setup_s")
PYTEST_LOG = """\
........................................................................ [100%]
============================= slowest 5 durations ==============================
12.50s call     tests/test_acceptance.py::test_criterion_7a_hierarchical_coverage
4.70s call     tests/test_acceptance.py::test_criterion_6_sign_test_against_large_mc_oracle
0.80s call     tests/test_package.py::test_readme_library_example_runs
0.50s setup    tests/test_cli.py::TestGoldenOutputs::test_files_are_byte_identical[wilcoxon --all-pairs]
0.40s call     tests/test_dp.py::test_something
415 passed, 2 skipped in 30.61s
"""


def recorded_run(sha, setup, failed):
    """One untraced dp-all-pairs record whose ``setup_s`` reads ``setup``; its second invocation fails when ``failed``."""
    env = {"git_sha": sha, "src_sha256": sha * 2, "python": "3.11.7", "numpy": "2.4.6",
           "scipy": "1.17.1", "nproc": 2, "platform": "ignored"}
    metrics = {name: {"value": 1.0, "unit": "s"} for name in METRICS}
    metrics["setup_s"]["value"] = setup
    return {"workload": "dp-all-pairs", "seed": 7, "env": env, "metrics": metrics,
            "invocations": [{"problems": []}, {"problems": ["exit code 1"] if failed else []}]}


def test_record_pairs_runs_in_the_order_they_finished(tmp_path, monkeypatch):
    shas = {"parent": "a", "change": "b"}
    setup = {"parent": [0.7, 0.8, 0.2, 0.75], "change": [0.3, 0.3, 0.3, 0.75]}
    finished = {"parent": 0, "change": 0}

    def stub(root, workload, seed, seconds):
        i = finished[root.name]
        finished[root.name] += 1
        return recorded_run(shas[root.name], setup[root.name][i], failed=i == 0)

    (tmp_path / "tier1.log").write_text(PYTEST_LOG, encoding="utf-8")
    monkeypatch.setattr(bench_record, "run_benchmark", stub)
    monkeypatch.chdir(tmp_path)
    assert bench_record.main(["--pr", "3", "--roots", "parent", "change", "--pairs", "4",
                              "--case", "dp-all-pairs:7", "--pytest-log", "tier1.log"]) == 0
    bench = json.loads((tmp_path / "BENCH_3.json").read_text(encoding="utf-8"))
    assert bench["pr"] == 3
    assert bench["parent"] == {"git_sha": "a", "src_sha256": "aa", "python": "3.11.7", "numpy": "2.4.6",
                               "scipy": "1.17.1", "nproc": 2}
    assert bench["change"]["git_sha"] == "b"
    (workload,) = bench["workloads"]
    assert (workload["workload"], workload["seed"], workload["pairs"]) == ("dp-all-pairs", 7, 4)
    assert workload["parent_runs"] == {"attempted": 8, "failed": 1}
    setup = workload["metrics"]["setup_s"]
    assert setup["change_wins"] == 2  # one loss (0.2 < 0.3) and one tie
    assert setup["parent"]["median"] == pytest.approx(0.725)
    assert (setup["parent"]["q1"], setup["parent"]["q3"]) == pytest.approx((0.575, 0.7625))
    assert setup["change"] == pytest.approx({"median": 0.3, "q1": 0.3, "q3": 0.4125})
    assert set(workload["metrics"]) == set(METRICS)
    assert workload["metrics"]["wall_s"]["change_wins"] == 0
    assert bench["tier1"]["counts"] == {"passed": 415, "skipped": 2}
    assert bench["tier1"]["seconds"] == 30.61
    assert [t["seconds"] for t in bench["tier1"]["slowest"]] == [12.5, 4.7, 0.8, 0.5, 0.4]
    assert bench["tier1"]["slowest"][3]["test"].endswith("[wilcoxon --all-pairs]")


def test_run_pairs_alternates_which_side_runs_first():
    calls = []

    def stub(root, workload, seed, seconds):
        calls.append((root.name, workload, seed, seconds))
        return {"metrics": {"cpu_s": {"value": float(len(calls))}}}

    cases = [("hier-fit", 7), ("hier-fit", 23)]
    parent, change = bench_record.run_pairs((Path("old"), Path("new")), cases, 3, 12.0, run=stub)
    assert [c[:3] for c in calls] == [
        ("old", "hier-fit", 7), ("new", "hier-fit", 7), ("old", "hier-fit", 23), ("new", "hier-fit", 23),
        ("new", "hier-fit", 7), ("old", "hier-fit", 7), ("new", "hier-fit", 23), ("old", "hier-fit", 23),
        ("old", "hier-fit", 7), ("new", "hier-fit", 7), ("old", "hier-fit", 23), ("new", "hier-fit", 23),
    ]
    assert {c[3] for c in calls} == {12.0}
    # each side's records by case, in pair order
    assert [r["metrics"]["cpu_s"]["value"] for r in parent[("hier-fit", 7)]] == [1.0, 6.0, 9.0]
    assert [r["metrics"]["cpu_s"]["value"] for r in change[("hier-fit", 23)]] == [4.0, 7.0, 12.0]


def test_roots_mode_writes_the_record_from_its_own_runs(tmp_path, monkeypatch):
    (tmp_path / "tier1.log").write_text(PYTEST_LOG, encoding="utf-8")
    env = {"git_sha": "a", "src_sha256": "aa", "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2}
    run_seconds = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    def stub(root, workload, seed, seconds):
        # every run lasts as long as the benchmark sets
        assert seconds == run_seconds
        value = 2.0 if root.name == "parent" else 1.0
        return {"workload": workload, "seed": seed, "env": {**env, "git_sha": root.name},
                "metrics": {name: {"value": value} for name in METRICS}, "invocations": [{"problems": []}]}

    monkeypatch.setattr(bench_record, "run_benchmark", stub)
    monkeypatch.chdir(tmp_path)
    assert bench_record.main(["--pr", "4", "--roots", "parent", "change", "--pairs", "2",
                              "--case", "hier-fit:7", "--case", "hier-fit:23", "--pytest-log", "tier1.log"]) == 0
    bench = json.loads((tmp_path / "BENCH_4.json").read_text(encoding="utf-8"))
    assert (bench["parent"]["git_sha"], bench["change"]["git_sha"]) == ("parent", "change")
    assert [(w["workload"], w["seed"], w["pairs"]) for w in bench["workloads"]] == [("hier-fit", 7, 2), ("hier-fit", 23, 2)]
    assert all(m["change_wins"] == 2 for w in bench["workloads"] for m in w["metrics"].values())


@pytest.mark.parametrize("argv, message", [
    (["--roots", "a", "b"], "needs at least one --case"),
    (["--roots", "a", "b", "--case", "hier-fit:7", "--pairs", "0"], "--pairs must be at least 1"),
    (["--case", "hier-fit:7"], "the following arguments are required: --roots"),
    (["--roots", "a", "b", "--case", "hier-fit"], "expected WORKLOAD:SEED"),
])
def test_mode_arguments_are_checked(argv, message, capsys):
    with pytest.raises(SystemExit):
        bench_record.main(["--pr", "4", "--pytest-log", "tier1.log"] + argv)
    assert message in capsys.readouterr().err
