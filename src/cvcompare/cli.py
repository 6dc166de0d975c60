"""Command-line front end: ingestion -> tests -> decisions -> report files.

One subcommand per method.  Every run writes a deterministic
``report.json`` (byte-identical for identical config and seed) plus
method-specific exports into the output directory; Monte-Carlo methods
require an explicit seed.  Exit codes: 0 success, 1 validation error,
2 hierarchical fit flagged as non-converged.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bayes_ttest import TrinomialProbs, direction_prob, hdis, posterior, rope_probs
from .data import Rope, mean_differences, paired_differences, parse_scores
from .decisions import LossMatrix, decide
from .dp import DpPrior, sign_test_params, sign_test_samples, signed_rank_samples, simplex_region_probs
from .errors import (
    CoverageError,
    CvCompareError,
    DegenerateDataError,
    InitializationError,
    ParseError,
    ShapeError,
)
from .frequentist import correlated_ttest, wilcoxon_signed_rank
from .hierarchical import HierConfig, fit, next_dataset_probs
from .kernels import RngStream
from .report import barycentric_csv, barycentric_points, density_data, dump_json

_COMPONENT = {
    ParseError: "data",
    ShapeError: "data",
    CoverageError: "data",
    DegenerateDataError: "frequentist",
    InitializationError: "hierarchical",
}


class _CliError(CvCompareError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _slug(name: str) -> str:
    return re.sub(r"[^\w.-]+", "_", name)


def _export_names(template: str, sources: list[tuple[str, ...]]) -> list[str]:
    """One export file name per source: ``template`` filled with its slugs.

    ``_slug`` maps distinct ids such as ``knn 1`` and ``knn_1`` to one
    name, and the later export would silently replace the earlier one, so
    two sources sharing a file name are an error.
    """
    owners: dict[str, str] = {}
    for source in sources:
        name = template.format(*map(_slug, source))
        label = " vs ".join(source)
        if name in owners:
            raise CvCompareError(f"{owners[name]!r} and {label!r} would both be exported to {name}")
        owners[name] = label
    return list(owners)


def _probs_json(p: TrinomialProbs) -> dict:
    # report keys name the classifiers explicitly: differences are A - B,
    # so the "left" outcome means B is practically better
    out = {"a_better": p.p_right, "rope": p.p_rope, "b_better": p.p_left}
    return out


def _stderr_json(p: TrinomialProbs):
    if p.mc_stderr is None:
        return None
    return {"a_better": p.mc_stderr[2], "rope": p.mc_stderr[1], "b_better": p.mc_stderr[0]}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvcompare",
        description=__doc__,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"cvcompare {__version__}")
    subparsers = parser.add_subparsers(dest="method", required=True)

    def sub_parser(name, help):
        return subparsers.add_parser(
            name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )

    def common(p, mc=False, pairs=True):
        p.add_argument("--input", required=True, help="score CSV (dataset,classifier,run,fold,score)")
        p.add_argument(
            "--output-dir",
            default=os.environ.get("CVCOMPARE_OUTPUT_DIR", "cvcompare-out"),
            help="where report.json and exports go (env CVCOMPARE_OUTPUT_DIR)",
        )
        if pairs:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--pair", nargs=2, metavar=("A", "B"), help="classifier pair to compare")
            group.add_argument("--all-pairs", action="store_true", help="compare every classifier pair")
        else:
            p.add_argument("--pair", nargs=2, metavar=("A", "B"), required=True)
        p.add_argument("--rope", nargs=2, type=float, default=[-0.01, 0.01],
                       metavar=("LO", "HI"), help="region of practical equivalence")
        p.add_argument("--rho", type=float, default=None,
                       help="cross-validation correlation (default: 1/folds)")
        p.add_argument("--threshold", type=float, default=0.95, help="decision threshold")
        p.add_argument("--loss-matrix", default=None, help="JSON file with a 4x3 loss matrix")
        if mc:
            p.add_argument("--seed", type=int, required=True, help="Monte-Carlo seed (required)")
            p.add_argument("--samples", type=int, default=150_000, help="Monte-Carlo draw count")

    p = sub_parser("freq-ttest", "correlated t-test per dataset")
    common(p, pairs=False)
    p.add_argument("--dataset", default=None, help="restrict to one dataset")

    p = sub_parser("wilcoxon", "signed-rank test on per-dataset mean differences")
    common(p)

    p = sub_parser("bayes-ttest", "Bayesian correlated t-test per dataset")
    common(p, pairs=False)
    p.add_argument("--dataset", default=None, help="restrict to one dataset")

    p = sub_parser("sign", "Dirichlet-process sign test")
    common(p, mc=True)
    p.add_argument("--prior-strength", type=float, default=0.5, help="pseudo-observation weight")
    p.add_argument("--prior-place", choices=["left", "rope", "right"], default="rope",
                   help="pseudo-observation placement")

    p = sub_parser("signed-rank", "Dirichlet-process signed-rank test")
    common(p, mc=True)
    p.add_argument("--prior-strength", type=float, default=0.5, help="pseudo-observation weight")
    p.add_argument("--prior-place", choices=["left", "rope", "right"], default="rope",
                   help="pseudo-observation placement")

    p = sub_parser("hierarchical", "hierarchical correlated t-test across datasets")
    common(p, mc=True, pairs=False)
    p.add_argument("--chains", type=int, default=4, help="independent MCMC chains")
    p.add_argument("--warmup", type=int, default=1000, help="burn-in sweeps per chain")
    p.add_argument("--draws", type=int, default=1000, help="kept draws per chain")
    return parser


def _load_rule(args):
    if args.loss_matrix is not None:
        import json

        with open(args.loss_matrix, encoding="utf-8") as fh:
            return LossMatrix(np.array(json.load(fh), dtype=float))
    return args.threshold


def _rule_json(rule):
    if isinstance(rule, LossMatrix):
        return {"type": "loss", "matrix": rule.matrix.tolist()}
    return {"type": "threshold", "threshold": rule}


def _pairs(args, table) -> list[tuple[str, str]]:
    if getattr(args, "all_pairs", False):
        return list(itertools.combinations(table.classifiers, 2))
    a, b = args.pair
    return [(a, b)]


def _run_freq_ttest(args, table, rope, rule):
    a, b = args.pair
    diffs = paired_differences(table, a, b, rho=args.rho)
    if args.dataset is not None:
        diffs = [d for d in diffs if d.dataset == args.dataset]
        if not diffs:
            raise CvCompareError(f"dataset {args.dataset!r} not present in the input")
    entries = []
    for d in diffs:
        res = correlated_ttest(d)
        entries.append({
            "pair": [a, b], "method": "freq-ttest", "dataset": d.dataset,
            "t": res.t, "p_two_sided": res.p_two_sided,
            "p_one_sided_greater": res.p_one_sided_greater, "dof": res.dof,
        })
    return entries, {}, 0


def _run_wilcoxon(args, table, rope, rule):
    entries = []
    for a, b in _pairs(args, table):
        z = mean_differences(paired_differences(table, a, b, rho=args.rho))
        res = wilcoxon_signed_rank(z)
        entries.append({
            "pair": [a, b], "method": "wilcoxon", "t_stat": res.t_stat, "w": res.w,
            "p_two_sided": res.p_two_sided, "tie_adjust": res.tie_adjust, "exact": res.exact,
        })
    return entries, {}, 0


def _run_bayes_ttest(args, table, rope, rule):
    a, b = args.pair
    diffs = paired_differences(table, a, b, rho=args.rho)
    if args.dataset is not None:
        diffs = [d for d in diffs if d.dataset == args.dataset]
        if not diffs:
            raise CvCompareError(f"dataset {args.dataset!r} not present in the input")
    density_names = _export_names("density_{}.csv", [(d.dataset,) for d in diffs])
    entries = []
    files = {}
    hdi = io.StringIO()
    hdi_rows = csv.writer(hdi, lineterminator="\n")
    hdi_rows.writerow(["dataset", "level", "lo", "hi"])
    for d, density_name in zip(diffs, density_names):
        post = posterior(d)
        probs = rope_probs(post, rope)
        decision = decide(probs, rule)
        entry = {
            "pair": [a, b], "method": "bayes-ttest", "dataset": d.dataset,
            "posterior": {"dof": post.dof, "loc": post.loc, "scale2": post.scale2},
            "probs": _probs_json(probs), "mc_stderr": None,
            "p_direction_a_better": direction_prob(post),
            "decision": decision.verdict.value, "rule": _rule_json(rule), "seed": None,
        }
        entries.append(entry)
        if not post.degenerate:
            intervals = hdis(post)
            for level, (lo, hi) in zip(intervals.levels, intervals.intervals):
                hdi_rows.writerow([d.dataset, repr(level), repr(lo), repr(hi)])
        files[density_name] = density_data(d.x, bins=30).to_csv()
    files["hdi.csv"] = hdi.getvalue()
    return entries, files, 0


def _run_sign(args, table, rope, rule):
    prior = DpPrior(s=args.prior_strength, z0=args.prior_place)
    entries = []
    files = {}
    pairs = _pairs(args, table)
    names = _export_names("barycentric_{}_vs_{}.csv", pairs)
    for index, ((a, b), name) in enumerate(zip(pairs, names)):
        z = mean_differences(paired_differences(table, a, b, rho=args.rho))
        params = sign_test_params(z, rope, prior)
        samples = sign_test_samples(params, args.samples, RngStream(args.seed).spawn(index))
        probs = simplex_region_probs(samples)
        decision = decide(probs, rule)
        entries.append({
            "pair": [a, b], "method": "sign",
            "dirichlet": [params.a_left, params.a_rope, params.a_right],
            "probs": _probs_json(probs), "mc_stderr": _stderr_json(probs),
            "decision": decision.verdict.value, "rule": _rule_json(rule), "seed": args.seed,
        })
        files[name] = barycentric_csv(barycentric_points(samples))
    return entries, files, 0


def _run_signed_rank(args, table, rope, rule):
    prior = DpPrior(s=args.prior_strength, z0=args.prior_place)
    entries = []
    files = {}
    pairs = _pairs(args, table)
    names = _export_names("barycentric_{}_vs_{}.csv", pairs)
    for index, ((a, b), name) in enumerate(zip(pairs, names)):
        z = mean_differences(paired_differences(table, a, b, rho=args.rho))
        samples = signed_rank_samples(z, rope, prior, args.samples, RngStream(args.seed).spawn(index))
        probs = simplex_region_probs(samples)
        decision = decide(probs, rule)
        entries.append({
            "pair": [a, b], "method": "signed-rank",
            "probs": _probs_json(probs), "mc_stderr": _stderr_json(probs),
            "decision": decision.verdict.value, "rule": _rule_json(rule), "seed": args.seed,
        })
        files[name] = barycentric_csv(barycentric_points(samples))
    return entries, files, 0


def _run_hierarchical(args, table, rope, rule):
    a, b = args.pair
    diffs = paired_differences(table, a, b, rho=args.rho)
    cfg = HierConfig(seed=args.seed, chains=args.chains, warmup=args.warmup, draws=args.draws)
    draws = fit(diffs, cfg)
    samples = next_dataset_probs(draws, rope, rng=RngStream(args.seed, stream_id=1))
    probs = simplex_region_probs(samples)
    decision = decide(probs, rule)
    max_rhat = max(d.rhat for d in draws.diagnostics.values())
    min_ess = min(d.ess for d in draws.diagnostics.values())
    entries = [{
        "pair": [a, b], "method": "hierarchical",
        "probs": _probs_json(probs), "mc_stderr": _stderr_json(probs),
        "decision": decision.verdict.value, "rule": _rule_json(rule), "seed": args.seed,
        "diagnostics": {
            "converged": draws.converged, "max_rhat": max_rhat, "min_ess": min_ess,
            "mu0_rhat": draws.diagnostics["mu0"].rhat, "mu0_ess": draws.diagnostics["mu0"].ess,
        },
    }]
    files = {
        f"draws_{_slug(a)}_vs_{_slug(b)}.csv": draws.to_csv(),
        f"barycentric_{_slug(a)}_vs_{_slug(b)}.csv": barycentric_csv(barycentric_points(samples)),
    }
    exit_code = 0 if draws.converged else 2
    return entries, files, exit_code


_HANDLERS = {
    "freq-ttest": _run_freq_ttest,
    "wilcoxon": _run_wilcoxon,
    "bayes-ttest": _run_bayes_ttest,
    "sign": _run_sign,
    "signed-rank": _run_signed_rank,
    "hierarchical": _run_hierarchical,
}


def run(args) -> int:
    input_path = Path(args.input)
    if not input_path.is_file():
        raise CvCompareError(f"input file not found: {args.input}")
    rope = Rope(lower=args.rope[0], upper=args.rope[1])
    rule = _load_rule(args)
    table = parse_scores(input_path.read_bytes())  # no newline translation

    entries, files, exit_code = _HANDLERS[args.method](args, table, rope, rule)

    report = {
        "method": args.method,
        "input": str(args.input),
        "rope": [rope.lower, rope.upper],
        "rule": _rule_json(rule),
        "seed": getattr(args, "seed", None),
        "results": entries,
    }
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_json(report, out_dir / "report.json")
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return exit_code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return run(args)
    except _CliError as exc:
        print(f"cvcompare: usage: {exc}", file=sys.stderr)
        return 1
    except CvCompareError as exc:
        component = _COMPONENT.get(type(exc), "validation")
        print(f"cvcompare: {component}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"cvcompare: validation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
