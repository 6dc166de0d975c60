"""Command-line front end: ingestion -> tests -> decisions -> report files.

One subcommand per method.  Every run writes a deterministic
``report.json`` (byte-identical for identical config and seed) plus
method-specific exports into the output directory; Monte-Carlo methods
require an explicit seed.  Exit codes: 0 success, 1 validation or I/O error,
2 hierarchical fit flagged as non-converged.
"""

from __future__ import annotations

import argparse
import codecs
import hashlib
import itertools
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bayes_ttest import direction_prob, hdis, posterior, rope_probs
from .data import (
    Rope,
    _check_rho,
    _csv_field,
    _csv_text,
    paired_differences,
    parse_scores,
)
from .decisions import _OUTCOMES, LossMatrix, decide, rule_record, simplex_region_probs
from .dp import (
    DEFAULT_SAMPLE_COUNT,
    DpPrior,
    sign_test_params,
    sign_test_probs,
    sign_test_samples,
    signed_rank_batch,
)
from .errors import CoverageError, CvCompareError
from .frequentist import correlated_ttest, wilcoxon_signed_rank
from .hierarchical import HierConfig, fit, next_dataset_probs
from .kernels import RngStream
from .report import EXPORT_POINTS, _barycentric_export, density_data, dump_json

# signed-rank draws held at once, as (count, 3) float arrays: 18 pairs at the default
# 150,000 draws, where the 190 pairs of 20 classifiers would take 684 MB
_GROUP_BYTES = 64 << 20


class _CliError(CvCompareError):
    component = "usage"


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

    def common(p, pairs=True, rho=False, seed=False, bayes=True):
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
        if rho:
            p.add_argument("--rho", type=float, default=None,
                           help="cross-validation correlation (default: 1/folds)")
        # a p-value has no rope and no decision rule; only the Bayesian tests take them
        if bayes:
            p.add_argument("--rope", nargs=2, type=float, default=[Rope.lower, Rope.upper],
                           metavar=("LO", "HI"), help="region of practical equivalence")
            group = p.add_mutually_exclusive_group()
            group.add_argument("--threshold", type=float, default=0.95, help="decision threshold")
            group.add_argument("--loss-matrix", default=None, help="JSON file with a 4x3 loss matrix")
        if seed:
            p.add_argument("--seed", type=int, required=True, help="Monte-Carlo seed (required)")

    p = sub_parser("freq-ttest", "correlated t-test per dataset")
    common(p, pairs=False, rho=True, bayes=False)
    p.add_argument("--dataset", default=None, help="restrict to one dataset")

    p = sub_parser("wilcoxon", "signed-rank test on per-dataset mean differences")
    common(p, bayes=False)

    p = sub_parser("bayes-ttest", "Bayesian correlated t-test per dataset")
    common(p, pairs=False, rho=True)
    p.add_argument("--dataset", default=None, help="restrict to one dataset")

    for name, help in (("sign", "Dirichlet-process sign test"),
                       ("signed-rank", "Dirichlet-process signed-rank test")):
        p = sub_parser(name, help)
        common(p, seed=True)
        # the sign test's probabilities are exact; it draws only the plotted points
        if name == "signed-rank":
            p.add_argument("--samples", type=int, default=DEFAULT_SAMPLE_COUNT, help="Monte-Carlo draw count")
        p.add_argument("--prior-strength", type=float, default=DpPrior.s, help="pseudo-observation weight")
        p.add_argument("--prior-place", choices=["left", "rope", "right"], default=DpPrior.z0,
                       help="pseudo-observation placement")

    p = sub_parser("hierarchical", "hierarchical correlated t-test across datasets")
    common(p, pairs=False, rho=True, seed=True)
    p.add_argument("--chains", type=int, default=HierConfig.chains, help="independent MCMC chains")
    p.add_argument("--warmup", type=int, default=HierConfig.warmup, help="burn-in sweeps per chain")
    p.add_argument("--draws", type=int, default=HierConfig.draws, help="kept draws per chain")
    return parser


def _rope_and_rule(args):
    """The rope, the decision rule and its report record, all None for the
    frequentist tests; a bad rope or rule fails before any work."""
    if "rope" not in args:
        return None, None, None
    rope = Rope(lower=args.rope[0], upper=args.rope[1])
    if args.loss_matrix is not None:
        with open(args.loss_matrix, encoding="utf-8-sig") as fh:
            rows = json.load(fh, parse_int=float)  # an integer too large for a float reads as inf
        # true, false and null are not numbers: they read as bool and None, never as float
        numbers = isinstance(rows, list) and all(
            isinstance(row, list) and all(type(v) is float for v in row) for row in rows
        )
        if not numbers or len(set(map(len, rows))) != 1:
            raise ValueError("loss matrix must be a JSON array of equally long arrays of numbers")
        rule = LossMatrix(np.array(rows))
    else:
        rule = args.threshold
    return rope, rule, rule_record(rule)


# export file templates of each method, filled with one source per comparison
_EXPORTS = {
    "freq-ttest": (),
    "wilcoxon": (),
    "bayes-ttest": ("density_{}.csv",),
    "sign": ("barycentric_{}_vs_{}.csv",),
    "signed-rank": ("barycentric_{}_vs_{}.csv",),
    "hierarchical": ("draws_{}_vs_{}.csv", "barycentric_{}_vs_{}.csv"),
}


def _analyse(args, rope, config, diffs, samples, hdi_columns):
    """One comparison: the method's own report fields, its rope probabilities
    (None for the frequentist tests) and its export texts, in the order of
    the method's ``_EXPORTS`` templates.

    ``diffs`` is the comparison's :class:`PairDifferences`: one dataset's
    for the per-dataset tests, every dataset's otherwise.  ``samples`` are
    the pair's ``signed-rank`` draws, which ``run`` draws for every pair at
    once, and None for the other methods; ``config`` is the method's
    ``HierConfig`` or ``DpPrior``.  ``bayes-ttest`` also appends its
    intervals to ``hdi_columns``, the columns of the run's one ``hdi.csv``.
    A Monte-Carlo comparison draws from streams of ``args.seed`` alone, so
    its result depends only on the seed, the method's settings and its data.
    """
    if args.method == "freq-ttest":
        res = correlated_ttest(diffs)
        fields = {
            "dataset": diffs.datasets[0], "t": res.t, "p_two_sided": res.p_two_sided,
            "p_one_sided_greater": res.p_one_sided_greater, "dof": res.dof,
        }
        return fields, None, []
    if args.method == "wilcoxon":
        res = wilcoxon_signed_rank(diffs)
        fields = {
            "t_stat": res.t_stat, "w": res.w, "p_two_sided": res.p_two_sided,
            "tie_adjust": res.tie_adjust, "exact": res.exact,
        }
        return fields, None, []
    if args.method == "bayes-ttest":
        post = posterior(diffs)
        if not post.degenerate:
            intervals = hdis(post)
            lo, hi = zip(*intervals.intervals)
            ids = [_csv_field(diffs.datasets[0])] * len(lo)
            for column, values in zip(hdi_columns, (ids, intervals.levels, lo, hi)):
                column += values
        fields = {
            "dataset": diffs.datasets[0],
            "posterior": {"dof": post.dof, "loc": post.loc, "scale2": post.scale2},
            "p_direction_a_better": direction_prob(post),
        }
        return fields, rope_probs(post, rope), [density_data(diffs.x, bins=30).to_csv()]
    if args.method == "hierarchical":
        draws = fit(diffs, config)
        samples = next_dataset_probs(draws, rope)
        diagnostics = {
            "converged": draws.converged,
            "max_rhat": max(d.rhat for d in draws.diagnostics.values()),
            "min_ess": min(d.ess for d in draws.diagnostics.values()),
            "mu0_rhat": draws.diagnostics["mu0"].rhat, "mu0_ess": draws.diagnostics["mu0"].ess,
        }
        exports = [draws.to_csv(), _barycentric_export(samples)]
        return {"diagnostics": diagnostics}, simplex_region_probs(samples), exports
    if args.method == "sign":
        # exact probabilities; the posterior draws feed only the plot
        params = sign_test_params(diffs, rope, config)
        fields = {"dirichlet": [params.a_left, params.a_rope, params.a_right]}
        samples = sign_test_samples(params, EXPORT_POINTS, RngStream(args.seed).spawn(0))
        return fields, sign_test_probs(params), [_barycentric_export(samples)]
    return {}, simplex_region_probs(samples), [_barycentric_export(samples)]


def _signed_rank_draws(zs, rope, prior, count, seed):
    """Each pair's signed-rank samples, in order, sampled in groups whose draws fit ``_GROUP_BYTES``.

    Every group starts over on ``RngStream(seed).spawn(0)``, the stream of
    every ``sign`` and ``signed-rank`` comparison, and the pairs of a group
    share its weight draws, so a pair's samples do not depend on the others.
    """
    size = max(1, _GROUP_BYTES // (count * 3 * 8))
    for start in range(0, len(zs), size):
        yield from signed_rank_batch(zs[start:start + size], rope, prior, count, RngStream(seed).spawn(0))


def run(args) -> int:
    input_path = Path(args.input)
    if not input_path.is_file():
        raise CvCompareError(f"input file not found: {args.input}")
    if args.pair is not None and args.pair[0] == args.pair[1]:
        raise ValueError(f"--pair needs two different classifiers, got {args.pair[0]!r} twice")
    rope, rule, rule_json = _rope_and_rule(args)
    # --rho and the method's sampler or prior settings fail like the rule before any work;
    # only the t-tests and hierarchical have --rho, the others read only the means, and only
    # signed-rank has --samples
    rho = getattr(args, "rho", None)
    if rho is not None:
        _check_rho(rho)
    config = None
    if args.method == "hierarchical":
        config = HierConfig(seed=args.seed, chains=args.chains, warmup=args.warmup, draws=args.draws)
    elif args.method in ("sign", "signed-rank"):
        config = DpPrior(s=args.prior_strength, z0=args.prior_place)
    if getattr(args, "samples", 1) < 1:
        raise ValueError("count must be at least 1")
    raw = input_path.read_bytes()  # no newline translation
    # parse_scores drops a leading byte-order mark, so the input's digest does too
    digest = hashlib.sha256(raw.removeprefix(codecs.BOM_UTF8)).hexdigest()
    # decoded here so the bytes are freed before the parse, and the text after it
    raw = raw.decode("utf-8")
    table = parse_scores(raw)
    del raw

    # the comparisons: one per dataset for the t-tests, else one per classifier pair
    if args.method in ("freq-ttest", "bayes-ttest"):
        pair = paired_differences(table, *args.pair, rho=rho)
        rows = [i for i, d in enumerate(pair.datasets) if args.dataset in (None, d)]
        if not rows:
            raise CoverageError(f"dataset {args.dataset!r} not present in the input")
        sources = [(pair.datasets[i],) for i in rows]
        comparisons = ((tuple(args.pair), pair.row(i)) for i in rows)
    else:
        if getattr(args, "all_pairs", False):
            if len(table.classifiers) < 2:
                raise CoverageError(f"--all-pairs needs two classifiers, got {len(table.classifiers)}")
            sources = list(itertools.combinations(table.classifiers, 2))
        else:
            sources = [tuple(args.pair)]
        # formed as the loop reaches each pair, so one pair's differences are held at a time
        comparisons = ((pair, paired_differences(table, *pair, rho=rho)) for pair in sources)
    # name every export before any analysis, so a name clash costs no work
    names = [_export_names(template, sources) for template in _EXPORTS[args.method]]
    drawn = itertools.repeat(None)
    if args.method == "signed-rank":
        # the pairs share their weight draws, so every pair's differences come first
        comparisons = list(comparisons)
        drawn = _signed_rank_draws([d for _, d in comparisons], rope, config, args.samples, args.seed)

    entries = []
    files = {}
    hdi_columns = [[], [], [], []]
    for index, (((a, b), diffs), samples) in enumerate(zip(comparisons, drawn)):
        fields, probs, exports = _analyse(args, rope, config, diffs, samples, hdi_columns)
        entry = {"pair": [a, b], "method": args.method, **fields}
        if probs is not None:
            entry.update({
                "probs": dict(zip(_OUTCOMES, probs.as_tuple())),
                "mc_stderr": None if probs.mc_stderr is None else dict(zip(_OUTCOMES, probs.mc_stderr)),
                "decision": decide(probs, rule).verdict.value, "rule": rule_json,
                "seed": getattr(args, "seed", None),
            })
        entries.append(entry)
        for export_names, text in zip(names, exports):
            files[export_names[index]] = text
    if args.method == "bayes-ttest":
        files["hdi.csv"] = _csv_text(["dataset", "level", "lo", "hi"], hdi_columns)

    report = {
        "method": args.method,
        "input": {"name": input_path.name, "sha256": digest},  # not the caller's path to it
        "rope": None if rope is None else [rope.lower, rope.upper],
        "rule": rule_json,
        "seed": getattr(args, "seed", None),
        "results": entries,
    }
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"report.json": dump_json(report), **files}
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    # a hierarchical fit flagged as non-converged still writes its outputs
    converged = all(e["diagnostics"]["converged"] for e in entries if "diagnostics" in e)
    return 0 if converged else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return run(args)
    except ValueError as exc:  # every CvCompareError is one
        print(f"cvcompare: {getattr(exc, 'component', 'validation')}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cvcompare: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
