import importlib.util
import json
import os
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


def write_runs(work, sha, setup_values, seed=7):
    work.mkdir(parents=True)
    env = {"git_sha": sha, "src_sha256": sha * 2, "python": "3.11.7", "numpy": "2.4.6",
           "scipy": "1.17.1", "nproc": 2, "platform": "ignored"}
    for i, setup in enumerate(setup_values):
        metrics = {name: {"value": 1.0, "unit": "s"} for name in METRICS}
        metrics["setup_s"]["value"] = setup
        record = {"workload": "dp-all-pairs", "seed": seed, "env": env, "metrics": metrics,
                  "invocations": [{"problems": []}, {"problems": ["exit code 1"] if i == 0 else []}]}
        path = work / f"dp-all-pairs-seed{seed}-pid{100 - i}-trace0.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        # the pair order is the order the runs finished, not the file names' order
        os.utime(path, ns=(10**18 + i, 10**18 + i))
    (work / "dp-all-pairs-seed7-pid1-trace1.json").write_text("not read", encoding="utf-8")


def test_record_pairs_runs_in_the_order_they_finished(tmp_path, monkeypatch):
    write_runs(tmp_path / "parent", "a", [0.7, 0.8, 0.2, 0.75])
    write_runs(tmp_path / "change", "b", [0.3, 0.3, 0.3, 0.75])
    (tmp_path / "tier1.log").write_text(PYTEST_LOG, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert bench_record.main(["--pr", "3", "--parent", "parent", "--change", "change",
                              "--pytest-log", "tier1.log"]) == 0
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


def test_unequal_run_counts_are_an_error(tmp_path, monkeypatch):
    write_runs(tmp_path / "parent", "a", [0.7, 0.8])
    write_runs(tmp_path / "change", "b", [0.3])
    (tmp_path / "tier1.log").write_text(PYTEST_LOG, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="2 parent runs, 1 change runs"):
        bench_record.main(["--pr", "3", "--parent", "parent", "--change", "change", "--pytest-log", "tier1.log"])
    assert not (tmp_path / "BENCH_3.json").exists()
