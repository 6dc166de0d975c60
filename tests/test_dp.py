import math
import time

import numpy as np
import pytest
from scipy import integrate, special

from cvcompare.data import PairDifferences, Rope
from cvcompare.decisions import TrinomialSamples, simplex_region_probs
from cvcompare.dp import (
    _BLOCK,
    DirichletParams,
    DpPrior,
    _pair_sides,
    _side_mass,
    sign_test_params,
    sign_test_probs,
    sign_test_samples,
    signed_rank_batch,
    signed_rank_samples,
)
from cvcompare.kernels import RngStream


def mdv(values):
    values = np.asarray(values, dtype=float)
    return PairDifferences(datasets=tuple(f"d{i}" for i in range(len(values))), x=values[:, np.newaxis])


ROPE = Rope(-0.01, 0.01)


def signed_rank_weights(rng, s, q, count):
    """Normalised (count, q + 1) weights of the signed-rank draws, pseudo-observation first.

    Regenerated block by block from the stream, as ``signed_rank_samples`` draws them.
    """
    gen = rng.generator()
    blocks = []
    for start in range(0, count, _BLOCK):
        b = min(_BLOCK, count - start)
        w0 = gen.standard_gamma(s, size=b)
        w = gen.standard_exponential((q, b))
        blocks.append(np.column_stack([w0, w.T]))
    g = np.concatenate(blocks)
    return g / g.sum(axis=1, keepdims=True)


def enumerated_thetas(z, rope, weights):
    """Theta triples summed over every ordered pair, the pseudo-observation first and placed in the rope."""
    zz = [0.0, *z]
    th = np.zeros((len(weights), 3))
    for i in range(len(zz)):
        for j in range(len(zz)):
            s_ij = zz[i] + zz[j]
            if i == 0 or j == 0:
                # prior pseudo-observation pairs: classified by sign
                cat = 0 if s_ij < 0 else (2 if s_ij > 0 else 1)
            else:
                cat = 0 if s_ij < 2 * rope.lower else (2 if s_ij > 2 * rope.upper else 1)
            th[:, cat] += weights[:, i] * weights[:, j]
    return th


class TestSignTestParams:
    def test_spec_counts(self):
        rng = np.random.default_rng(0)
        z = np.concatenate([
            rng.uniform(-0.9, -0.011, 40),
            rng.uniform(-0.01, 0.01, 10),
            rng.uniform(0.011, 0.9, 4),
        ])
        params = sign_test_params(mdv(z), ROPE, DpPrior(s=0.5, z0="rope"))
        assert (params.a_left, params.a_rope, params.a_right) == (40.0, 10.5, 4.0)

    def test_single_observation_in_rope(self):
        params = sign_test_params(mdv([0.003]), ROPE, DpPrior(s=0.5, z0="rope"))
        assert (params.a_left, params.a_rope, params.a_right) == (0.0, 1.5, 0.0)

    def test_benchmark_counts(self, benchmark_z):
        params = sign_test_params(benchmark_z, ROPE, DpPrior(s=0.5, z0="rope"))
        # independent recount of the published means against +-1 percent
        n_l = sum(1 for v in benchmark_z.means if v < -0.01)
        n_e = sum(1 for v in benchmark_z.means if -0.01 <= v <= 0.01)
        n_r = sum(1 for v in benchmark_z.means if v > 0.01)
        assert (n_l, n_e, n_r) == (24, 27, 3)
        assert (params.a_left, params.a_rope, params.a_right) == (24.0, 27.5, 3.0)

    def test_closed_rope_boundaries(self):
        params = sign_test_params(mdv([-0.01, 0.01]), ROPE, DpPrior(s=0.5, z0="left"))
        assert (params.a_left, params.a_rope, params.a_right) == (0.5, 2.0, 0.0)

    def test_prior_placement(self):
        z = mdv([-0.5, 0.5])
        for place, expected in [
            ("left", (1.5, 0.0, 1.0)),
            ("rope", (1.0, 0.5, 1.0)),
            ("right", (1.0, 0.0, 1.5)),
        ]:
            params = sign_test_params(z, ROPE, DpPrior(s=0.5, z0=place))
            assert (params.a_left, params.a_rope, params.a_right) == expected


class TestSignTestSampling:
    def test_gamma_shape_zero_is_exact_zero(self):
        g = np.random.default_rng(0).standard_gamma(np.array([0.0, 1.0]), size=(100, 2))
        assert np.all(g[:, 0] == 0.0)

    def test_symmetric_thirds(self):
        # the exact triple of a symmetric posterior is a third each
        probs = sign_test_probs(DirichletParams(1, 1, 1))
        for p in probs.as_tuple():
            assert abs(p - 1 / 3) <= 1e-12

    def test_concentrated(self):
        probs = sign_test_probs(DirichletParams(100, 1, 1))
        expected = (quad_win_prob(100, 1, 1), quad_win_prob(1, 100, 1), quad_win_prob(1, 100, 1))
        for p, e in zip(probs.as_tuple(), expected):
            assert abs(p - e) <= 1e-12

    def test_zero_component_stays_zero(self):
        samples = sign_test_samples(DirichletParams(0.0, 1.5, 0.0), 1000, RngStream(4))
        assert np.all(samples.samples[:, 0] == 0.0)
        assert np.all(samples.samples[:, 2] == 0.0)
        assert np.all(samples.samples[:, 1] == 1.0)

    def test_dirichlet_marginal_means(self):
        params = DirichletParams(24.0, 27.5, 3.0)
        samples = sign_test_samples(params, 120_000, RngStream(6))
        total = 24.0 + 27.5 + 3.0
        for k, a in enumerate((24.0, 27.5, 3.0)):
            col = samples.samples[:, k]
            se = col.std(ddof=1) / math.sqrt(samples.count)
            assert abs(col.mean() - a / total) < 3 * se

    def test_same_seed_gives_same_draws(self):
        params = DirichletParams(5.0, 2.0, 1.0)
        a = sign_test_samples(params, 120_000, RngStream(9))
        b = sign_test_samples(params, 120_000, RngStream(9))
        assert np.array_equal(a.samples, b.samples)


def quad_win_prob(a_win, a_1, a_2):
    """P(Gamma(a_win) exceeds independent Gamma(a_1) and Gamma(a_2)), a zero shape being 0, by quad.

    Integrates over s = log g in sixty pieces across the density's mass and divides by the
    density's own integral, so that no lgamma of a large shape enters the ratio.
    """
    if a_win == 0:
        return 0.0

    def density(s):
        return math.exp(a_win * (s - math.log(a_win)) - (math.exp(s) - a_win))

    def integrand(s):
        g = math.exp(s)
        return density(s) * math.prod(1.0 if a == 0 else float(special.gammainc(a, g)) for a in (a_1, a_2))

    mode = math.log(a_win)
    reach = 12 / math.sqrt(a_win)
    edges = np.linspace(mode - max(reach, 40 / a_win), mode + max(reach, 5.0), 61)

    def quad(f):
        return sum(integrate.quad(f, lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(edges[:-1], edges[1:]))

    return quad(integrand) / quad(density)


# criterion 6's twenty triples, shape 0.5 (density unbounded at 0) and shapes in the thousands
EXACT_CASES = [tuple(row) for row in np.random.default_rng(7).uniform(0.5, 60.0, size=(20, 3)).tolist()] + [
    (0.5, 0.5, 0.5), (0.5, 3.0, 0.5), (0.5, 0.5, 7.0), (24.0, 27.5, 3.0),
    (1000.0, 1020.0, 990.0), (3000.0, 2950.0, 3100.0), (5000.0, 4900.0, 10.0), (2000.0, 0.5, 2100.0),
]


class TestSignTestExact:
    @pytest.mark.parametrize("alpha", EXACT_CASES)
    def test_matches_the_quad_oracle(self, alpha):
        probs = sign_test_probs(DirichletParams(*alpha))
        a_left, a_rope, a_right = alpha
        expected = (quad_win_prob(a_left, a_rope, a_right), quad_win_prob(a_rope, a_left, a_right),
                    quad_win_prob(a_right, a_left, a_rope))
        assert max(abs(p - e) for p, e in zip(probs.as_tuple(), expected)) <= 1e-12
        assert probs.mc_stderr is None

    @pytest.mark.parametrize("alpha", [
        (2.0, 0.0, 0.0), (0.0, 1.5, 0.0), (0.0, 0.0, 0.3),
        (7.5, 3.0, 0.0), (0.0, 0.5, 40.0), (3.0, 0.0, 2.0), (0.01, 0.02, 0.0), (0.5, 0.0, 0.5),
    ])
    def test_zero_parameters_are_point_masses_at_zero(self, alpha):
        # ties go to the rope, then left: a zero outcome can win only against zeros
        probs = sign_test_probs(DirichletParams(*alpha)).as_tuple()
        positive = [k for k in range(3) if alpha[k] > 0]
        expected = [0.0, 0.0, 0.0]
        if len(positive) == 1:
            expected[positive[0]] = 1.0
        else:
            # two Gammas: the first wins when its Beta share reaches 1/2, with probability I_1/2(a_j, a_i)
            i, j = positive
            expected[i] = float(special.betainc(alpha[j], alpha[i], 0.5))
            expected[j] = 1.0 - expected[i]
        assert max(abs(p - e) for p, e in zip(probs, expected)) <= 1e-12
        assert all(p == 0.0 for k, p in enumerate(probs) if alpha[k] == 0)

    @pytest.mark.parametrize("a", [0.01, 0.5, 1.0, 30.0, 4000.0])
    def test_equal_parameters_split_evenly(self, a):
        for p in sign_test_probs(DirichletParams(a, a, a)).as_tuple():
            assert abs(p - 1 / 3) <= 1e-12

    @pytest.mark.parametrize("alpha", EXACT_CASES[:5] + [(0.5, 3.0, 7.0), (3100.0, 3000.0, 2950.0),
                                                         (0.01, 2.0, 0.3)])
    def test_swapping_left_and_right_swaps_their_probabilities(self, alpha):
        probs = sign_test_probs(DirichletParams(*alpha))
        swapped = sign_test_probs(DirichletParams(*alpha[::-1]))
        assert abs(probs.p_left - swapped.p_right) <= 1e-12
        assert abs(probs.p_rope - swapped.p_rope) <= 1e-12
        assert abs(probs.p_right - swapped.p_left) <= 1e-12


class TestDirichletDraws:
    def test_prior_pseudo_weight_mean(self):
        # every data pair lies right of the rope and the pseudo-observation left,
        # so theta_right = (1 - w_0)^2 for the normalised pseudo-observation weight w_0
        z = mdv(np.full(54, 0.5))
        samples = signed_rank_samples(z, ROPE, DpPrior(s=0.5, z0="left"), 60_000, RngStream(5))
        w0 = 1.0 - np.sqrt(samples.samples[:, 2])
        target = 0.5 / 54.5
        se = w0.std(ddof=1) / math.sqrt(60_000)
        assert abs(w0.mean() - target) < 3 * se


class TestSignedRankSamples:
    def test_triples_sum_to_one_exactly(self, benchmark_z):
        samples = signed_rank_samples(benchmark_z, ROPE, DpPrior(), 20_000, RngStream(1))
        s = samples.samples
        # evaluation order fixed by construction: rope = 1 - (left + right)
        assert np.all((s[:, 0] + s[:, 2]) + s[:, 1] == 1.0)

    def test_single_far_observation_weak_prior(self):
        z = mdv([0.4])
        prior = DpPrior(s=1e-9, z0="rope")
        samples = signed_rank_samples(z, ROPE, prior, 2000, RngStream(5))
        assert samples.samples[:, 2].min() > 0.999999

    def test_pair_enumeration_oracle(self):
        # two symmetric observations, rope halfwidth < c < 2c
        c, r = 0.05, 0.01
        z = np.array([-c, c])
        rope = Rope(-r, r)
        count, base = 10_000, RngStream(21)
        samples = signed_rank_samples(mdv(z), rope, DpPrior(s=0.5, z0="rope"), count, base)
        expected = enumerated_thetas(z, rope, signed_rank_weights(base, 0.5, 2, count))
        assert np.max(np.abs(samples.samples - expected)) <= 1e-12

    def test_pair_enumeration_oracle_in_every_block(self):
        # data pairs fall left, inside and right of the rope; the short final block reuses the buffers
        z = np.array([-0.04, 0.004, 0.03])
        count, base = 2 * _BLOCK + 5, RngStream(22)
        samples = signed_rank_samples(mdv(z), ROPE, DpPrior(s=0.5, z0="rope"), count, base)
        expected = enumerated_thetas(z, ROPE, signed_rank_weights(base, 0.5, 3, count))
        assert np.max(np.abs(samples.samples - expected)) <= 1e-12

    def test_negation_swaps_left_right_bitwise(self, benchmark_z):
        neg = PairDifferences(datasets=benchmark_z.datasets, x=-benchmark_z.x)
        a = signed_rank_samples(benchmark_z, ROPE, DpPrior(), 30_000, RngStream(3))
        b = signed_rank_samples(neg, ROPE, DpPrior(), 30_000, RngStream(3))
        assert np.array_equal(a.samples[:, 0], b.samples[:, 2])
        assert np.array_equal(a.samples[:, 2], b.samples[:, 0])
        assert np.array_equal(a.samples[:, 1], b.samples[:, 1])

    def test_no_rope_all_mass_left(self, benchmark_z):
        # without a rope every draw favours the second classifier
        samples = signed_rank_samples(
            benchmark_z, Rope(0.0, 0.0), DpPrior(), 50_000, RngStream(7)
        )
        assert np.all(samples.samples[:, 0] > 0.5)

    def test_point_rope_counts_only_exact_zero_sums(self):
        z = mdv([-0.3, 0.1, 0.3])  # -0.3 + 0.3 == 0 exactly
        samples = signed_rank_samples(z, Rope(0.0, 0.0), DpPrior(s=0.5, z0="rope"), 500, RngStream(8))
        w = signed_rank_weights(RngStream(8), 0.5, 3, 500)
        # rope mass = the two ordered (-c, +c) pairs plus the pseudo self-pair
        expected = 2 * w[:, 1] * w[:, 3] + w[:, 0] ** 2
        assert np.allclose(samples.samples[:, 1], expected, atol=1e-12)

    def test_same_seed_gives_same_draws(self, benchmark_z):
        a = signed_rank_samples(benchmark_z, ROPE, DpPrior(), 120_000, RngStream(4))
        b = signed_rank_samples(benchmark_z, ROPE, DpPrior(), 120_000, RngStream(4))
        assert np.array_equal(a.samples, b.samples)

    def test_runtime_within_budget(self, benchmark_z):
        start = time.perf_counter()
        signed_rank_samples(benchmark_z, ROPE, DpPrior(), 150_000, RngStream(12))
        assert time.perf_counter() - start < 5.0


def batch_vectors(benchmark_z):
    """Four vectors of q = 54 with different sort orders, ties and a rope-edge sum among them."""
    rng = np.random.default_rng(41)
    return [
        benchmark_z,
        mdv(rng.normal(0.0, 0.02, 54)),
        mdv(rng.choice([-0.02, -0.01, 0.0, 0.01, 0.02], 54)),
        mdv(benchmark_z.means[::-1]),
    ]


class TestSignedRankBatch:
    COUNT = 2 * _BLOCK + 5  # two full blocks and a short one

    def test_equals_separate_calls(self, benchmark_z):
        vectors = batch_vectors(benchmark_z)
        batch = signed_rank_batch(vectors, ROPE, DpPrior(), self.COUNT, RngStream(51))
        assert len(batch) == len(vectors)
        for z, samples in zip(vectors, batch):
            alone = signed_rank_samples(z, ROPE, DpPrior(), self.COUNT, RngStream(51))
            assert np.array_equal(samples.samples, alone.samples)

    @pytest.mark.parametrize("group", [1, 2])
    def test_groups_equal_the_whole_list(self, benchmark_z, group):
        # a vector's draws do not depend on the vectors sampled with it
        vectors = batch_vectors(benchmark_z)
        prior = DpPrior(s=0.8, z0="left")
        whole = signed_rank_batch(vectors, ROPE, prior, self.COUNT, RngStream(52))
        grouped = [samples for start in range(0, len(vectors), group)
                   for samples in signed_rank_batch(vectors[start:start + group], ROPE, prior,
                                                    self.COUNT, RngStream(52))]
        for a, b in zip(whole, grouped, strict=True):
            assert np.array_equal(a.samples, b.samples)

    def test_negation_swaps_left_right_bitwise(self, benchmark_z):
        neg = PairDifferences(datasets=benchmark_z.datasets, x=-benchmark_z.x)
        a, b = signed_rank_batch([benchmark_z, neg], ROPE, DpPrior(), self.COUNT, RngStream(53))
        assert np.array_equal(a.samples[:, 0], b.samples[:, 2])
        assert np.array_equal(a.samples[:, 2], b.samples[:, 0])
        assert np.array_equal(a.samples[:, 1], b.samples[:, 1])

    @pytest.mark.parametrize("vectors", [[], [[0.1, -0.2], [0.1, -0.2, 0.3]]], ids=["empty", "mixed-lengths"])
    def test_vectors_must_share_one_length(self, vectors):
        with pytest.raises(ValueError, match="need at least one vector, all of one length"):
            signed_rank_batch([mdv(v) for v in vectors], ROPE, DpPrior(), 100, RngStream(1))


class TestSimplexRegions:
    def test_identical_draws_all_rope(self):
        t = np.tile([0.2, 0.5, 0.3], (1000, 1))
        probs = simplex_region_probs(TrinomialSamples(samples=t))
        assert probs.as_tuple() == (0.0, 1.0, 0.0)

    def test_ties_go_to_rope(self):
        t = np.tile([0.5, 0.5, 0.0], (10, 1))
        probs = simplex_region_probs(TrinomialSamples(samples=t))
        assert probs.p_rope == 1.0

    def test_stderr_formula(self):
        t = np.tile([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], (50, 1))
        probs = simplex_region_probs(TrinomialSamples(samples=t))
        assert probs.p_left == 0.5
        assert probs.mc_stderr[0] == pytest.approx(math.sqrt(0.25 / 100))


class TestPriorSensitivity:
    def test_vanishing_prior_strength_collapses_placements(self, benchmark_z):
        out = [
            simplex_region_probs(
                signed_rank_samples(benchmark_z, ROPE, DpPrior(s=1e-7, z0=z0), 20_000, RngStream(13).spawn(i))
            )
            for i, z0 in enumerate(("left", "rope", "right"))
        ]
        triples = [p.as_tuple() for p in out]
        ses = [p.mc_stderr for p in out]
        for a in range(3):
            for b in range(a + 1, 3):
                for k in range(3):
                    tol = 3 * math.sqrt(ses[a][k] ** 2 + ses[b][k] ** 2) + 1e-9
                    assert abs(triples[a][k] - triples[b][k]) <= tol


def pair_category_masks_reference(z, rope, placement):
    """Left and right 0-1 masks over all ordered index pairs, pseudo-observation first."""
    zz = np.concatenate([[0.0], z])
    sums = zz[:, None] + zz[None, :]
    left = sums < 2.0 * rope.lower
    right = sums > 2.0 * rope.upper
    if placement == "rope":
        left[0, 1:] = left[1:, 0] = z < 0.0
        right[0, 1:] = right[1:, 0] = z > 0.0
        left[0, 0] = right[0, 0] = False
    elif placement == "left":
        left[0, :] = left[:, 0] = True
        right[0, :] = right[:, 0] = False
    else:
        right[0, :] = right[:, 0] = True
        left[0, :] = left[:, 0] = False
    return left.astype(float), right.astype(float)


def mask_sum_reference(z, rope, placement, weights):
    """Left and right pair masses, sum_ij L_ij w_i w_j, of each (q + 1)-row weight column."""
    return tuple(np.einsum("in,ij,jn->n", weights, mask, weights)
                 for mask in pair_category_masks_reference(z, rope, placement))


def dirichlet_second_moments(alpha):
    """E[w_i w_j] under Dirichlet(alpha)."""
    total = alpha.sum()
    moments = np.outer(alpha, alpha)
    moments[np.diag_indices_from(moments)] += alpha
    return moments / (total * (total + 1.0))


class TestPairMasses:
    @pytest.mark.parametrize("placement", ["left", "rope", "right"])
    def test_equals_the_mask_sum(self, placement):
        rng = np.random.default_rng(31)
        # zeros of both signs, sums exactly at the doubled rope bounds, mixed signs
        vectors = [
            np.array([0.0, -0.0, 0.01, -0.01, 0.02, -0.02, 0.005, -0.015, 0.3, -0.4]),
            np.zeros(4),
            np.array([-0.0]),
            rng.normal(0.0, 0.02, 25),
            rng.choice([-0.02, -0.01, 0.0, 0.01, 0.02], 30),
        ]
        for rope in (Rope(-0.01, 0.01), Rope(0.0, 0.0), Rope(-0.02, 0.005)):
            for z in vectors:
                g = rng.standard_exponential((z.size + 1, 7))
                weights = g / g.sum(axis=0)
                running = np.empty((z.size + 1, 7))
                got = [_side_mass(side, weights[0], weights[1:], running)
                       for side in _pair_sides(z, rope, placement)]
                for a, b in zip(got, mask_sum_reference(z, rope, placement, weights)):
                    assert np.max(np.abs(a - b)) <= 1e-13

    @pytest.mark.parametrize("placement", ["left", "rope", "right"])
    def test_means_match_the_exact_moments(self, benchmark_z, placement):
        count, s = 100_000, 0.5
        samples = signed_rank_samples(
            benchmark_z, ROPE, DpPrior(s=s, z0=placement), count, RngStream(17)).samples
        moments = dirichlet_second_moments(np.concatenate([[s], np.ones(benchmark_z.q)]))
        masks = pair_category_masks_reference(benchmark_z.means, ROPE, placement)
        for column, mask in zip((0, 2), masks):
            se = samples[:, column].std(ddof=1) / math.sqrt(count)
            assert abs(samples[:, column].mean() - np.sum(mask * moments)) < 4 * se


class TestValidation:
    def test_prior_validation(self):
        with pytest.raises(ValueError):
            DpPrior(s=0.0)
        with pytest.raises(ValueError):
            DpPrior(z0="middle")

    @pytest.mark.parametrize("s, message", [
        (math.inf, "prior strength must be finite, got inf"),
        (math.nan, "prior strength must be positive, got nan"),
        (-math.inf, "prior strength must be positive, got -inf"),
    ])
    def test_prior_strength_must_be_finite(self, s, message):
        with pytest.raises(ValueError) as err:
            DpPrior(s=s)
        assert str(err.value) == message

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DirichletParams(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DirichletParams(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("params", [
        (1.0, math.inf, 1.0), (math.inf, 0.0, 0.0), (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0),
    ])
    def test_params_must_be_finite(self, params):
        # an infinite parameter once gave P(left) = 1 through inf / inf draws
        with pytest.raises(ValueError, match="Dirichlet parameters must be finite"):
            DirichletParams(*params)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count must be at least 1"):
            sign_test_samples(DirichletParams(1.0, 1.0, 1.0), 0, RngStream(1))
        with pytest.raises(ValueError, match="count must be at least 1"):
            signed_rank_samples(mdv([0.1, -0.2]), ROPE, DpPrior(), 0, RngStream(1))
        with pytest.raises(ValueError, match="count must be at least 1"):
            signed_rank_batch([mdv([0.1, -0.2])], ROPE, DpPrior(), 0, RngStream(1))

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            TrinomialSamples(samples=np.array([[0.5, 0.4, 0.2]]))
        with pytest.raises(ValueError):
            TrinomialSamples(samples=np.array([[0.5, 0.6, -0.1]]))
        for shape in [(0, 3), (2, 2)]:
            with pytest.raises(ValueError, match=r"^samples must be a non-empty \(count, 3\) matrix$"):
                TrinomialSamples(samples=np.full(shape, 0.5))

    @pytest.mark.parametrize("row", [
        [math.nan] * 3, [0.5, math.nan, 0.5], [math.inf, 0.0, 0.0], [0.5, 0.5, math.inf],
    ])
    def test_samples_must_be_finite(self, row):
        with pytest.raises(ValueError, match="theta draws"):
            TrinomialSamples(samples=np.array([[0.2, 0.3, 0.5], row]))
