"""Rope outcomes, and the decisions and cross-tabulations drawn from them.

Every Bayesian test ends in three rope outcomes of the differences
x = A - B: left (A practically worse), rope, and right (A practically
better).  This module owns their types (``TrinomialProbs``,
``TrinomialSamples``), the argmax region rule ``simplex_region_probs`` and
the one map from each outcome to its report key and verdict; it imports no
other cvcompare module.

Two rules turn probabilities into a verdict: a probability threshold
(declare an outcome when its posterior probability strictly exceeds the
threshold) and expected loss minimisation under a 4 x 3 loss matrix.  With
the default matrix the two rules coincide, since a 0.05 error probability
times a loss of 20 equals the unit cost of abstaining.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

__all__ = [
    "TrinomialProbs",
    "TrinomialSamples",
    "simplex_region_probs",
    "Verdict",
    "Decision",
    "LossMatrix",
    "rule_record",
    "threshold_decision",
    "loss_decision",
    "decide",
    "DecisionRow",
    "DecisionTable",
    "decision_table",
]


@dataclass(frozen=True)
class TrinomialProbs:
    """Probabilities of the three ROPE outcomes for differences x = A - B.

    ``p_left`` is the probability that the mean difference lies below the
    rope (classifier A practically worse), ``p_right`` that it lies above
    (A practically better).  ``mc_stderr`` carries Monte-Carlo standard
    errors when the probabilities were estimated by sampling.
    """

    p_left: float
    p_rope: float
    p_right: float
    mc_stderr: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        for p in (self.p_left, self.p_rope, self.p_right):
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"probability {p} outside [0, 1]")
        if abs(self.p_left + self.p_rope + self.p_right - 1.0) > 1e-9:
            raise ValueError("trinomial probabilities must sum to 1")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_left, self.p_rope, self.p_right)


@dataclass(frozen=True)
class TrinomialSamples:
    """Monte-Carlo draws of (theta_left, theta_rope, theta_right)."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        if s.ndim != 2 or s.shape[1] != 3 or s.shape[0] == 0:
            raise ValueError("samples must be a non-empty (count, 3) matrix")
        if not s.min() >= 0.0:  # NaN fails this test too
            raise ValueError("theta draws must be non-negative")
        if not np.max(np.abs(s.sum(axis=1) - 1.0)) <= 1e-12:
            raise ValueError("theta draws must sum to one")

    @property
    def count(self) -> int:
        return int(self.samples.shape[0])


def simplex_region_probs(samples: TrinomialSamples) -> TrinomialProbs:
    """Fraction of draws in each argmax region of the simplex.

    A draw belongs to region i when theta_i >= max of the others; ties
    are resolved toward the rope, then toward the left region.  Reports
    binomial Monte-Carlo standard errors alongside the fractions.
    """
    t = samples.samples
    rope_win = (t[:, 1] >= t[:, 0]) & (t[:, 1] >= t[:, 2])
    left_win = ~rope_win & (t[:, 0] >= t[:, 2])
    n = samples.count
    n_rope = int(np.count_nonzero(rope_win))
    n_left = int(np.count_nonzero(left_win))
    n_right = n - n_rope - n_left
    p_left, p_rope, p_right = n_left / n, n_rope / n, n_right / n
    se = tuple(float(np.sqrt(p * (1.0 - p) / n)) for p in (p_left, p_rope, p_right))
    return TrinomialProbs(p_left=p_left, p_rope=p_rope, p_right=p_right, mc_stderr=se)


class Verdict(str, Enum):
    A_BETTER = "a-better"
    B_BETTER = "b-better"
    EQUIVALENT = "practically-equivalent"
    NO_DECISION = "no-decision"


# each rope outcome in (left, rope, right) order: its report key and its verdict.  The
# differences are A - B, so the left outcome, below the rope, means B is practically better
_OUTCOMES = {"b_better": Verdict.B_BETTER, "rope": Verdict.EQUIVALENT, "a_better": Verdict.A_BETTER}
# actions indexed as (decide-left, decide-rope, decide-right, no-decision)
_ACTION_VERDICTS = (*_OUTCOMES.values(), Verdict.NO_DECISION)
# tie preference: abstain first, then the rope, then left before right
_TIE_ORDER = (3, 1, 0, 2)


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    probs: TrinomialProbs
    rule: dict


@dataclass(frozen=True)
class LossMatrix:
    """Loss of each action (rows) under each true outcome (columns).

    Rows are decide-left, decide-rope, decide-right, no-decision; columns
    are the true outcomes left, rope, right.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.shape != (4, 3):
            raise ValueError(f"loss matrix must be 4 x 3, got {m.shape}")
        if np.any(m < 0):
            raise ValueError("losses must be non-negative")
        if not np.isfinite(m).all():
            raise ValueError("losses must be finite")

    @classmethod
    def default(cls) -> "LossMatrix":
        """Wrong calls cost 20, abstaining costs 1 whatever the truth."""
        return cls(np.array([
            [0.0, 20.0, 20.0],
            [20.0, 0.0, 20.0],
            [20.0, 20.0, 0.0],
            [1.0, 1.0, 1.0],
        ]))


def rule_record(rule: float | LossMatrix) -> dict:
    """The JSON record of a decision rule, as reports and decisions carry it.

    A threshold must lie in (1/3, 1]: at or below 1/3 two outcomes can
    both exceed it.
    """
    if isinstance(rule, LossMatrix):
        return {"type": "loss", "matrix": rule.matrix.tolist()}
    if not (1.0 / 3.0 < rule <= 1.0):
        raise ValueError(f"threshold must be in (1/3, 1], got {rule}")
    return {"type": "threshold", "threshold": rule}


def threshold_decision(p: TrinomialProbs, threshold: float = 0.95) -> Decision:
    """Declare the outcome whose probability strictly exceeds ``threshold``."""
    rule = rule_record(threshold)
    # zip stops at the three outcomes, before the no-decision action
    candidates = [verdict for prob, verdict in zip(p.as_tuple(), _ACTION_VERDICTS) if prob > threshold]
    verdict = candidates[0] if len(candidates) == 1 else Verdict.NO_DECISION
    return Decision(verdict=verdict, probs=p, rule=rule)


def loss_decision(p: TrinomialProbs, loss: LossMatrix | None = None) -> Decision:
    """Pick the action minimising expected loss under ``loss``.

    Exact ties go to no-decision, then the rope, then the left action.
    """
    if loss is None:
        loss = LossMatrix.default()
    expected = loss.matrix @ np.array(p.as_tuple())
    best = min(_TIE_ORDER, key=lambda i: (expected[i], _TIE_ORDER.index(i)))
    rule = {**rule_record(loss), "expected": expected.tolist()}
    return Decision(verdict=_ACTION_VERDICTS[best], probs=p, rule=rule)


@dataclass(frozen=True)
class DecisionRow:
    label: str
    probs: TrinomialProbs
    verdict: Verdict
    p_value: float | None = None


@dataclass(frozen=True)
class DecisionTable:
    """Per-comparison verdicts with aggregate counts.

    When frequentist p-values accompany the rope probabilities the table
    also cross-tabulates the decisions against the p < alpha split.
    """

    rows: tuple[DecisionRow, ...]
    counts: dict[str, int]
    crosstab: dict[str, dict[str, int]] | None
    alpha: float | None


def decide(p: TrinomialProbs, rule: float | LossMatrix) -> Decision:
    """Apply a probability threshold or a :class:`LossMatrix` to ``p``."""
    if isinstance(rule, LossMatrix):
        return loss_decision(p, rule)
    return threshold_decision(p, float(rule))


def decision_table(
    results: Mapping[str, TrinomialProbs],
    rule: float | LossMatrix = 0.95,
    pvalues: Mapping[str, float] | None = None,
    alpha: float = 0.05,
) -> DecisionTable:
    """Apply a decision rule to every comparison and tabulate the outcomes.

    ``results`` maps a comparison label (dataset or classifier pair) to its
    rope probabilities; ``rule`` is either a probability threshold or a
    :class:`LossMatrix`.
    """
    if not results:
        raise ValueError("no comparison results supplied")
    if pvalues is not None:
        missing = sorted(set(results) - set(pvalues))
        if missing:
            raise ValueError(f"p-values missing for: {', '.join(missing)}")
    rows = []
    for label, probs in results.items():
        verdict = decide(probs, rule).verdict
        p_value = None if pvalues is None else float(pvalues[label])
        rows.append(DecisionRow(label=label, probs=probs, verdict=verdict, p_value=p_value))

    counts = {v.value: 0 for v in Verdict}
    for row in rows:
        counts[row.verdict.value] += 1

    crosstab = None
    if pvalues is not None:
        crosstab = {
            "nhst_rejects": {"n": 0, "equivalent": 0, "different": 0, "no_decision": 0},
            "nhst_does_not_reject": {"n": 0, "equivalent": 0, "different": 0, "no_decision": 0},
        }
        for row in rows:
            bucket = crosstab["nhst_rejects" if row.p_value < alpha else "nhst_does_not_reject"]
            bucket["n"] += 1
            if row.verdict is Verdict.EQUIVALENT:
                bucket["equivalent"] += 1
            elif row.verdict is Verdict.NO_DECISION:
                bucket["no_decision"] += 1
            else:
                bucket["different"] += 1
    return DecisionTable(
        rows=tuple(rows),
        counts=counts,
        crosstab=crosstab,
        alpha=alpha if pvalues is not None else None,
    )
