import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import cvcompare

from conftest import make_table


def test_every_public_name_resolves():
    # a name deleted from a module but still listed in its __all__ breaks
    # `from module import *` and every tool that walks the public API
    missing = []
    for info in pkgutil.iter_modules(cvcompare.__path__):
        module = importlib.import_module(f"cvcompare.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def knobs(obj):
    """A function's parameters or a dataclass's init fields, each with its
    default, as one line; None for a public name that takes no arguments."""
    if dataclasses.is_dataclass(obj):
        fields = [f for f in dataclasses.fields(obj) if f.init]
        items = [(f.name, "<factory>" if f.default_factory is not dataclasses.MISSING
                  else None if f.default is dataclasses.MISSING else repr(f.default)) for f in fields]
    elif inspect.isfunction(obj):
        items = [(p.name, None if p.default is p.empty else repr(p.default))
                 for p in inspect.signature(obj).parameters.values()]
    else:
        return None
    return ", ".join(name if default is None else f"{name}={default}" for name, default in items)


# every settable value of the library; adding or removing one is a diff here
LIBRARY_SURFACE = {
    "bayes_ttest.HdiSet": "levels, intervals",
    "bayes_ttest.posterior": "d",
    "bayes_ttest.rope_probs": "post, rope",
    "bayes_ttest.direction_prob": "post",
    "bayes_ttest.hdis": "post, levels=(0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)",
    "data.CSV_HEADER": None,
    "data.Rope": "lower=-0.01, upper=0.01",
    "data.ScoreTable": "entries, runs, folds",
    "data.PairDifferences": "datasets, x, rho=None",
    "data.parse_scores": "source",
    "data.paired_differences": "table, a, b, rho=None",
    "decisions.TrinomialProbs": "p_left, p_rope, p_right, mc_stderr=None",
    "decisions.TrinomialSamples": "samples",
    "decisions.simplex_region_probs": "samples",
    "decisions.Verdict": None,
    "decisions.Decision": "verdict, probs, rule",
    "decisions.LossMatrix": "matrix",
    "decisions.rule_record": "rule",
    "decisions.threshold_decision": "p, threshold=0.95",
    "decisions.loss_decision": "p, loss=None",
    "decisions.decide": "p, rule",
    "decisions.DecisionRow": "label, probs, verdict, p_value=None",
    "decisions.DecisionTable": "rows, counts, crosstab, alpha",
    "decisions.decision_table": "results, rule=0.95, pvalues=None, alpha=0.05",
    "dp.DpPrior": "s=0.5, z0='rope'",
    "dp.DirichletParams": "a_left, a_rope, a_right",
    "dp.sign_test_params": "z, rope, prior",
    "dp.sign_test_samples": "params, count, rng",
    "dp.sign_test_probs": "params",
    "dp.signed_rank_batch": "vectors, rope, prior, count, rng",
    "dp.signed_rank_samples": "z, rope, prior, count, rng",
    "errors.CvCompareError": None,
    "errors.ParseError": None,
    "errors.ShapeError": None,
    "errors.CoverageError": None,
    "errors.DegenerateDataError": None,
    "frequentist.TTestResult": "t, p_two_sided, p_one_sided_greater, dof",
    "frequentist.WilcoxonResult": "t_stat, w, p_two_sided, tie_adjust, exact",
    "frequentist.correlated_ttest": "d, mu0=0.0",
    "frequentist.wilcoxon_signed_rank": "z, exact=None",
    "hierarchical.HierConfig": "seed, chains=4, warmup=1000, draws=1000",
    "hierarchical.Diagnostic": "rhat, ess",
    "hierarchical.HierDraws": "mu0, sigma0, nu, alpha, beta, mu, sigma, diagnostics=<factory>",
    "hierarchical.ShrinkageRow": "dataset, sample_mean, posterior_mean, posterior_sd",
    "hierarchical.ShrinkageReport": "rows, pooled_abs_dev, sample_abs_dev",
    "hierarchical.fit": "data, cfg",
    "hierarchical.next_dataset_probs": "draws, rope",
    "hierarchical.shrinkage_report": "draws, data",
    "hierarchical.split_rhat": "x",
    "hierarchical.effective_sample_size": "x",
    "kernels.LocScaleStudent": "dof, loc, scale2",
    "kernels.RngStream": "seed, stream_id=0",
    "kernels.student_cdf": "x, d",
    "kernels.student_tail": "t, dof",
    "kernels.student_sf": "x, d",
    "kernels.student_quantile": "p, d",
    "report.EXPORT_POINTS": None,
    "report.TRIANGLE_VERTICES": None,
    "report.Histogram": "lo, hi, count, density",
    "report.barycentric_points": "samples",
    "report.barycentric_csv": "points",
    "report.density_data": "x, bins",
    "report.dump_json": "obj",
}


def test_library_surface_is_pinned():
    surface = {}
    for info in pkgutil.iter_modules(cvcompare.__path__):
        module = importlib.import_module(f"cvcompare.{info.name}")
        for name in getattr(module, "__all__", ()):
            surface[f"{info.name}.{name}"] = knobs(getattr(module, name))
    assert surface == LIBRARY_SURFACE


def test_package_exports_exactly_the_modules_public_names():
    declared = set()
    for info in pkgutil.iter_modules(cvcompare.__path__):
        declared.update(getattr(importlib.import_module(f"cvcompare.{info.name}"), "__all__", ()))
    exported = {
        name for name, value in vars(cvcompare).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == declared


def relative_imports(module):
    """The cvcompare modules that ``module`` names in its ``from .x import`` lines."""
    source = (Path(cvcompare.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    return {node.module for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None}


def test_rope_outcomes_live_below_the_method_modules():
    # decisions owns the rope outcome types and the region rule, so a method
    # module that needs them imports decisions, never another method's module
    assert relative_imports("decisions") == set()
    assert "dp" not in relative_imports("hierarchical") | relative_imports("report")
    assert "bayes_ttest" not in relative_imports("dp")


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    # the first python block between the heading and the next one
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    table = make_table(n_datasets=5, classifiers=("nbc", "aode"), seed=4)
    (tmp_path / "scores.csv").write_text(table.to_csv(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})


# Runs in a fresh interpreter, so no earlier import in this process can
# hide a module-level scipy import.  A finder placed first on sys.meta_path
# refuses scipy, so a subcommand that tried to import it would fail.
SCIPY_PROBE = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is not a runtime dependency: {name}")
        return None

sys.meta_path.insert(0, NoScipy())
from cvcompare import cli

io = ["--input", sys.argv[1], "--output-dir", sys.argv[2]]
codes = [cli.main(argv + io) for argv in (
    ["sign", "--all-pairs", "--seed", "1"],
    ["signed-rank", "--all-pairs", "--samples", "2000", "--seed", "1"],
    ["wilcoxon", "--all-pairs"],
    ["freq-ttest", "--pair", "alpha", "beta"],
    ["bayes-ttest", "--pair", "alpha", "beta"],
    ["hierarchical", "--pair", "alpha", "beta", "--chains", "2", "--warmup", "20", "--draws", "20", "--seed", "1"],
)]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_no_subcommand_loads_scipy(tmp_path):
    # numpy is the one runtime dependency; scipy serves the tests and the
    # benchmark as an oracle, and importing scipy.special would more than
    # double a run's start-up time
    table = make_table(n_datasets=6, classifiers=("alpha", "beta", "gamma"), seed=5)
    (tmp_path / "scores.csv").write_text(table.to_csv(), encoding="utf-8")
    src = str(Path(cvcompare.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "scores.csv"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"][:5] == [0, 0, 0, 0, 0]
    assert result["codes"][5] in (0, 2)  # 2: the short fit is flagged unconverged
    assert result["scipy"] == []


THREAD_PROBE = """
import os, cvcompare
tasks = "/proc/self/task"
print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir(tasks)) if os.path.isdir(tasks) else -1)
"""


def test_openblas_runs_on_one_thread_unless_the_caller_sets_it():
    # numpy's OpenBLAS starts an idle worker pool at import unless told not to
    src = str(Path(cvcompare.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for preset, expected in ((None, "1"), ("2", "2")):
        if preset:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        value, threads = proc.stdout.split()
        assert value == expected
        if preset is None and threads != "-1":
            assert threads == "1"
