import numpy as np
import pytest

from cvcompare.decisions import (
    Decision,
    LossMatrix,
    TrinomialProbs,
    Verdict,
    decision_table,
    loss_decision,
    threshold_decision,
)


def probs(left, rope, right):
    return TrinomialProbs(p_left=left, p_rope=rope, p_right=right)


class TestThresholdDecision:
    def test_benchmark_row_is_no_decision(self):
        d = threshold_decision(probs(0.000, 0.103, 0.897), 0.95)
        assert d.verdict is Verdict.NO_DECISION

    def test_certain_rope(self):
        d = threshold_decision(probs(0.0, 1.0, 0.0), 0.95)
        assert d.verdict is Verdict.EQUIVALENT

    def test_left_verdict(self):
        d = threshold_decision(probs(0.96, 0.03, 0.01), 0.95)
        assert d.verdict is Verdict.B_BETTER  # left outcome: A practically worse

    def test_right_verdict(self):
        d = threshold_decision(probs(0.01, 0.03, 0.96), 0.95)
        assert d.verdict is Verdict.A_BETTER

    def test_boundary_is_strict(self):
        d = threshold_decision(probs(0.95, 0.03, 0.02), 0.95)
        assert d.verdict is Verdict.NO_DECISION

    def test_low_threshold_requires_uniqueness(self):
        d = threshold_decision(probs(0.45, 0.45, 0.10), 0.40)
        assert d.verdict is Verdict.NO_DECISION

    def test_threshold_domain(self):
        for bad in (0.2, 1.0 / 3.0, 1.2):
            with pytest.raises(ValueError):
                threshold_decision(probs(1.0, 0.0, 0.0), bad)


class TestLossDecision:
    def test_expected_losses_hand_computed(self):
        d = loss_decision(probs(0.5, 0.3, 0.2))
        assert d.verdict is Verdict.NO_DECISION
        assert d.rule["expected"] == pytest.approx([10.0, 14.0, 16.0, 1.0])

    def test_decide_left(self):
        d = loss_decision(probs(0.96, 0.03, 0.01))
        assert d.verdict is Verdict.B_BETTER
        assert d.rule["expected"] == pytest.approx([0.8, 19.4, 19.8, 1.0])

    def test_tie_prefers_no_decision(self):
        # equal expected losses everywhere
        flat = LossMatrix(np.ones((4, 3)))
        d = loss_decision(probs(0.2, 0.5, 0.3), flat)
        assert d.verdict is Verdict.NO_DECISION

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            LossMatrix(np.ones((3, 3)))
        with pytest.raises(ValueError):
            LossMatrix(-np.ones((4, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_losses_must_be_finite(self, value):
        # a NaN loss once reached report.json, which is then not valid JSON
        matrix = LossMatrix.default().matrix.copy()
        matrix[2, 1] = value
        with pytest.raises(ValueError, match="losses must be finite"):
            LossMatrix(matrix)

    def test_matches_threshold_rule_on_simplex_grid(self):
        # the default 0/20/1 matrix reproduces the strict 0.95 threshold rule
        loss = LossMatrix.default()
        for i in range(0, 101, 5):
            for j in range(0, 101 - i, 5):
                k = 100 - i - j
                p = probs(i / 100, j / 100, k / 100)
                assert loss_decision(p, loss).verdict is threshold_decision(p, 0.95).verdict


class TestDecisionTable:
    def test_counts_and_rows(self):
        results = {
            "a": probs(0.99, 0.005, 0.005),
            "b": probs(0.2, 0.3, 0.5),
            "c": probs(0.01, 0.97, 0.02),
        }
        table = decision_table(results, rule=0.95)
        assert table.counts["b-better"] == 1
        assert table.counts["practically-equivalent"] == 1
        assert table.counts["no-decision"] == 1
        assert table.crosstab is None
        assert [r.label for r in table.rows] == ["a", "b", "c"]

    def test_crosstab_buckets(self):
        results = {
            "r1": probs(0.99, 0.005, 0.005),   # different
            "r2": probs(0.2, 0.3, 0.5),        # no decision
            "n1": probs(0.01, 0.97, 0.02),     # equivalent
            "n2": probs(0.3, 0.4, 0.3),        # no decision
        }
        pvalues = {"r1": 0.001, "r2": 0.02, "n1": 0.3, "n2": 0.8}
        table = decision_table(results, rule=0.95, pvalues=pvalues, alpha=0.05)
        assert table.crosstab["nhst_rejects"] == {
            "n": 2, "equivalent": 0, "different": 1, "no_decision": 1,
        }
        assert table.crosstab["nhst_does_not_reject"] == {
            "n": 2, "equivalent": 1, "different": 0, "no_decision": 1,
        }

    def test_loss_rule_accepted(self):
        table = decision_table({"x": probs(1.0, 0.0, 0.0)}, rule=LossMatrix.default())
        assert table.rows[0].verdict is Verdict.B_BETTER

    def test_errors(self):
        with pytest.raises(ValueError):
            decision_table({}, rule=0.95)
        with pytest.raises(ValueError, match="missing"):
            decision_table({"x": probs(1, 0, 0)}, rule=0.95, pvalues={})


class TestDecisionRecord:
    def test_rule_recorded(self):
        d = threshold_decision(probs(0.2, 0.3, 0.5), 0.9)
        assert isinstance(d, Decision)
        assert d.rule == {"type": "threshold", "threshold": 0.9}
        assert d.probs.as_tuple() == (0.2, 0.3, 0.5)
