"""Output checks and MCMC diagnostics, with every reference computed here.

Each ``check_*`` function takes the invocation's output directory and the
generated :class:`gen.Table`, and returns a list of problems (empty when
the outputs are right).  None of them calls the program under test, so a
change to the program's own statistics cannot redefine what is checked.
Exported row counts are deliberately not checked: a plot export may be
capped without changing any reported probability.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

from gen import FOLDS, RUNS, Table

ROPE = (-0.01, 0.01)
PRIOR_STRENGTH = 0.5
# published DP signed-rank probabilities for NBC vs AODE (rope prior):
# P(nbc better), P(rope), P(aode better)
NBC_AODE_SIGNED_RANK = (0.000, 0.103, 0.897)
NBC_AODE_TOLERANCE = 0.02
TOL = 1e-9
SQRT3 = math.sqrt(3.0)


def read_report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


def _probs_problems(entry: dict) -> list[str]:
    p = entry.get("probs")
    if p is None:
        return []
    triple = [p["a_better"], p["rope"], p["b_better"]]
    if min(triple) < -TOL or max(triple) > 1.0 + TOL or abs(sum(triple) - 1.0) > TOL:
        return [f"{entry['pair']}: probs {triple} are not a distribution"]
    return []


def _barycentric_problems(path: Path) -> list[str]:
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "x,y":
            return [f"{path.name}: header {header!r}, expected 'x,y'"]
        xy = np.loadtxt(fh, delimiter=",", ndmin=2)
    x, y = xy[:, 0], xy[:, 1]
    outside = (y < -TOL) | (y > SQRT3 * x + TOL) | (y > SQRT3 * (1.0 - x) + TOL)
    if np.any(outside):
        return [f"{path.name}: {int(outside.sum())} points outside the triangle"]
    return []


def _common(out_dir: Path, report: dict) -> list[str]:
    problems = [p for entry in report["results"] for p in _probs_problems(entry)]
    for path in sorted(out_dir.glob("barycentric_*.csv")):
        problems += _barycentric_problems(path)
    return problems


def check_signed_rank(out_dir: Path, table: Table) -> list[str]:
    report = read_report(out_dir)
    problems = _common(out_dir, report)
    pairs = {tuple(e["pair"]): e for e in report["results"]}
    entry = pairs.get(("nbc", "aode"))
    if entry is None:
        return problems + ["no nbc vs aode entry"]
    got = (entry["probs"]["a_better"], entry["probs"]["rope"], entry["probs"]["b_better"])
    if any(abs(g - e) > NBC_AODE_TOLERANCE for g, e in zip(got, NBC_AODE_SIGNED_RANK)):
        problems.append(f"nbc vs aode signed-rank probs {got}, published {NBC_AODE_SIGNED_RANK}")
    return problems


def check_sign(out_dir: Path, table: Table) -> list[str]:
    report = read_report(out_dir)
    problems = _common(out_dir, report)
    for entry in report["results"]:
        z = table.mean_differences(*entry["pair"])
        left = int(np.sum(z < ROPE[0]))
        right = int(np.sum(z > ROPE[1]))
        expected = [float(left), z.size - left - right + PRIOR_STRENGTH, float(right)]
        if entry["dirichlet"] != expected:
            problems.append(f"{entry['pair']}: dirichlet {entry['dirichlet']}, expected {expected}")
    return problems


def check_wilcoxon(out_dir: Path, table: Table) -> list[str]:
    report = read_report(out_dir)
    problems = _common(out_dir, report)
    for entry in report["results"]:
        z = table.mean_differences(*entry["pair"])
        z = z[z != 0.0]
        ranks = stats.rankdata(np.abs(z))
        r_plus = float(ranks[z > 0].sum())
        ref = stats.wilcoxon(z, zero_method="wilcox", correction=False, method="approx")
        if abs(entry["t_stat"] - r_plus) > TOL:
            problems.append(f"{entry['pair']}: rank sum {entry['t_stat']}, expected {r_plus}")
        if abs(min(r_plus, ranks.sum() - r_plus) - float(ref.statistic)) > TOL:
            problems.append(f"{entry['pair']}: rank sums disagree with scipy")
        if not math.isclose(entry["p_two_sided"], float(ref.pvalue), rel_tol=1e-6, abs_tol=1e-12):
            problems.append(f"{entry['pair']}: p {entry['p_two_sided']}, scipy {float(ref.pvalue)}")
    return problems


def check_bayes_ttest(out_dir: Path, table: Table) -> list[str]:
    report = read_report(out_dir)
    problems = _common(out_dir, report)
    n = RUNS * FOLDS
    rho = 1.0 / FOLDS
    for entry in report["results"]:
        a, b = entry["pair"]
        x = (table.scores(entry["dataset"], a) - table.scores(entry["dataset"], b)).ravel()
        scale = math.sqrt((1.0 / n + rho / (1.0 - rho)) * x.var(ddof=1))
        post = stats.t(df=n - 1, loc=x.mean(), scale=scale)
        left, right = float(post.cdf(ROPE[0])), float(post.sf(ROPE[1]))
        expected = (right, 1.0 - left - right, left)
        p = entry["probs"]
        got = (p["a_better"], p["rope"], p["b_better"])
        if any(abs(g - e) > 1e-8 for g, e in zip(got, expected)):
            problems.append(f"{entry['dataset']}: rope probs {got}, scipy.stats.t gives {expected}")
    return problems


def draws_columns(q: int) -> list[str]:
    return (
        ["chain", "iteration", "mu0", "sigma0", "nu", "alpha", "beta"]
        + [f"mu_{i + 1}" for i in range(q)]
        + [f"sigma_{i + 1}" for i in range(q)]
    )


def read_draws(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and (parameters, chains, draws) array of a hierarchical draws CSV."""
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    chains = np.unique(data[:, 0])
    per_chain = np.stack([data[data[:, 0] == c][:, 2:] for c in chains])
    return header[2:], np.transpose(per_chain, (2, 0, 1))


def check_hierarchical(out_dir: Path, table: Table) -> list[str]:
    report = read_report(out_dir)
    problems = _common(out_dir, report)
    draws = list(out_dir.glob("draws_*.csv"))
    if len(draws) != 1:
        return problems + [f"expected one draws CSV, found {len(draws)}"]
    with draws[0].open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if header != draws_columns(len(table.datasets)):
        problems.append(f"{draws[0].name}: columns {header[:8]}... are not the documented ones")
    return problems


CHECKS = {
    "signed-rank": check_signed_rank,
    "sign": check_sign,
    "wilcoxon": check_wilcoxon,
    "bayes-ttest": check_bayes_ttest,
    "hierarchical": check_hierarchical,
}


def _split(x: np.ndarray) -> np.ndarray:
    """(..., chains, draws) -> (..., 2 * chains, draws // 2)."""
    half = x.shape[-1] // 2
    return np.concatenate([x[..., :half], x[..., half : 2 * half]], axis=-2)


def _variances(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = z.shape[-1]
    within = z.var(axis=-1, ddof=1).mean(axis=-1)
    between = z.mean(axis=-1).var(axis=-1, ddof=1)
    return within, (n - 1) / n * within + between


def split_rhat(x: np.ndarray) -> np.ndarray:
    """Split R-hat per parameter of a (parameters, chains, draws) array."""
    within, var_plus = _variances(_split(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(within > 0, np.sqrt(var_plus / within), 1.0)


def ess(x: np.ndarray) -> np.ndarray:
    """Effective sample size per parameter of a (parameters, chains, draws) array.

    Split chains, autocorrelations from the variogram (BDA3, section 11.5),
    truncated by Geyer's initial monotone positive-pair sequence.
    """
    z = _split(x)
    params, chains, n = z.shape
    _, var_plus = _variances(z)
    out = np.full(params, float(chains * n))
    for p in range(params):
        if var_plus[p] <= 0:
            continue
        tau, prev = -1.0, math.inf
        for t in range(0, n - 1, 2):
            pair = 0.0
            for lag in (t, t + 1):
                v = np.mean((z[p, :, lag:] - z[p, :, : n - lag]) ** 2) if lag else 0.0
                pair += 1.0 - v / (2.0 * var_plus[p])
            if pair <= 0.0:
                break
            prev = min(pair, prev)
            tau += 2.0 * prev
        out[p] = chains * n / max(tau, 1e-12)
    return out
