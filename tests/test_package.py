import dataclasses
import importlib
import inspect
import pkgutil

import cvcompare


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
    "bayes_ttest.TrinomialProbs": "p_left, p_rope, p_right, mc_stderr=None",
    "bayes_ttest.HdiSet": "levels, intervals",
    "bayes_ttest.posterior": "d",
    "bayes_ttest.rope_probs": "post, rope",
    "bayes_ttest.direction_prob": "post",
    "bayes_ttest.hdis": "post, levels=(0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)",
    "data.CSV_HEADER": None,
    "data.Rope": "lower=-0.01, upper=0.01",
    "data.ScoreTable": "entries, runs, folds",
    "data.DiffSeries": "dataset, x, rho",
    "data.MeanDiffVector": "z, datasets",
    "data.parse_scores": "source",
    "data.paired_differences": "table, a, b, rho=None",
    "data.mean_differences": "diffs",
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
    "dp.TrinomialSamples": "samples",
    "dp.sign_test_params": "z, rope, prior",
    "dp.sign_test_samples": "params, count, rng",
    "dp.sign_test_probs": "params, count, rng",
    "dp.signed_rank_samples": "z, rope, prior, count=150000, rng=None",
    "dp.simplex_region_probs": "samples",
    "dp.prior_sensitivity": "z, rope, s=0.5, count=150000, rng=None",
    "frequentist.TTestResult": "t, p_two_sided, p_one_sided_greater, dof",
    "frequentist.WilcoxonResult": "t_stat, w, p_two_sided, tie_adjust, exact",
    "frequentist.correlated_ttest": "d, mu0=0.0",
    "frequentist.wilcoxon_signed_rank": "z, exact=None",
    "frequentist.pairwise_pvalues": "table, classifiers=None, rho=None",
    "hierarchical.HierConfig": "seed, chains=4, warmup=1000, draws=1000",
    "hierarchical.HierState": "mu0, sigma0, nu, alpha, beta, mu, sigma",
    "hierarchical.Diagnostic": "rhat, ess",
    "hierarchical.HierDraws": "mu0, sigma0, nu, alpha, beta, mu, sigma, diagnostics=<factory>",
    "hierarchical.ShrinkageRow": "dataset, sample_mean, posterior_mean, posterior_sd",
    "hierarchical.ShrinkageReport": "rows, pooled_abs_dev, sample_abs_dev",
    "hierarchical.log_posterior": "state, data",
    "hierarchical.fit": "data, cfg",
    "hierarchical.next_dataset_probs": "draws, rope, count=4000, rng=None",
    "hierarchical.shrinkage_report": "draws, data",
    "kernels.LocScaleStudent": "dof, loc, scale2",
    "kernels.RngStream": "seed, stream_id=0",
    "kernels.student_cdf": "x, d",
    "kernels.student_tail": "t, dof",
    "kernels.student_sf": "x, d",
    "kernels.student_quantile": "p, d",
    "kernels.student_logpdf": "x, dof, loc, scale",
    "kernels.gamma_logpdf": "x, shape, rate",
    "kernels.cs_loglik": "mean_i, ss_i, n, mu, sigma2, rho",
    "report.EXPORT_POINTS": None,
    "report.TRIANGLE_VERTICES": None,
    "report.Histogram": "lo, hi, count, density",
    "report.barycentric_points": "samples",
    "report.barycentric_csv": "points",
    "report.density_data": "x, bins",
    "report.dump_json": "obj, path=None",
}


def test_library_surface_is_pinned():
    surface = {}
    for info in pkgutil.iter_modules(cvcompare.__path__):
        module = importlib.import_module(f"cvcompare.{info.name}")
        for name in getattr(module, "__all__", ()):
            surface[f"{info.name}.{name}"] = knobs(getattr(module, name))
    assert surface == LIBRARY_SURFACE
