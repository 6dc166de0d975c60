import numpy as np
import pytest
from mpmath import mp

from cvcompare.data import PairDifferences, ScoreTable

# Mean accuracy differences (percent, first classifier minus second) for the
# naive Bayes vs AODE comparison over 54 UCI datasets, 10 runs of 10-fold
# cross-validation.  Used as the reference benchmark throughout the suite.
NBC_AODE_MEAN_DIFFS_PERCENT = {
    "anneal": -1.939, "audiology": -0.261, "breast-cancer": 0.467,
    "cmc": -0.719, "contact-lenses": 2.000, "credit": -0.464,
    "german-credit": -1.014, "pima-diabetes": -0.151, "ecoli": -7.269,
    "eucalyptus": -0.790, "glass": -2.600, "grub-damage": 4.362,
    "haberman": -0.614, "hayes-roth": 0.000, "cleeland-14": -0.625,
    "hungarian-14": -0.069, "hepatitis": -0.212, "hypothyroid": -1.683,
    "ionosphere": 0.267, "iris": -3.242, "kr-s-kp": -0.833,
    "labor": 0.000, "lier-disorders": -1.762, "lymphography": -1.863,
    "monks1": -10.002, "monks3": -0.343, "monks": -4.190,
    "mushroom": -2.434, "nursery": -4.747, "optdigits": -3.548,
    "page-blocks": 0.583, "pasture": -10.043, "pendigits": -0.443,
    "postoperatie": 1.333, "primary-tumor": -0.674, "segment": -3.922,
    "solar-flare-C": -2.776, "solar-flare-m": -0.688, "solar-flare-X": -3.996,
    "sonar": -0.338, "soybean": -1.112, "spambase": -3.284,
    "spect-reordered": -1.684, "splice": -0.699, "squash-stored": -0.367,
    "squash-unstored": -5.600, "tae": -0.400, "credit-rating": -16.909,
    "owel": -5.040, "waveform": -1.809, "white-clover": 0.500,
    "wine": 0.143, "yeast": -0.202, "zoo": -0.682,
}


def series_from_stats(mean, sd, n, rho, dataset="synthetic"):
    """One dataset's differences with (numerically) exact mean and sample sd."""
    u = np.resize([1.0, -1.0], n).astype(float)
    u -= u.mean()
    norm = u.std(ddof=1)
    x = mean + (sd / norm) * u if norm > 0 else np.full(n, float(mean))
    return PairDifferences(datasets=(dataset,), x=x[np.newaxis], rho=rho)


@pytest.fixture(scope="session")
def benchmark_z():
    names = tuple(NBC_AODE_MEAN_DIFFS_PERCENT)
    values = np.array([NBC_AODE_MEAN_DIFFS_PERCENT[n] for n in names]) / 100.0
    return PairDifferences(datasets=names, x=values[:, np.newaxis])


def make_table(n_datasets=3, classifiers=("alpha", "beta"), runs=2, folds=5, seed=0):
    """Synthetic ScoreTable with seeded fraction scores."""
    rng = np.random.default_rng(seed)
    entries = {}
    for i in range(n_datasets):
        base = rng.uniform(0.5, 0.9, size=(runs, folds))
        for j, clf in enumerate(classifiers):
            noise = rng.uniform(-0.05, 0.05, size=(runs, folds))
            entries[(f"ds{i}", clf)] = np.clip(base + noise + 0.01 * j, 0.0, 1.0)
    return ScoreTable(entries=entries, runs=runs, folds=folds)


def table_to_csv(table):
    return table.to_csv()


def mp_tail(t, dof):
    """The Student tail P(T > |t|) at 40 digits.  Where that is above 1e-3 and
    t^2 < dof, it is 1/2 - I_y(1/2, dof/2)/2 with y = t^2/(dof + t^2), which
    keeps every digit when x = 1 - y is too near 1 for 40 digits to tell it
    from 1."""
    with mp.workdps(40):
        t, dof = abs(mp.mpf(t)), mp.mpf(dof)
        try:
            tail = mp.betainc(dof / 2, mp.mpf("0.5"), 0, dof / (dof + t * t), regularized=True) / 2
        except ValueError:  # mpmath cannot tell the value from zero: it is far below 1e-300
            return mp.mpf(0)
        if tail > mp.mpf("1e-3") and t * t < dof:
            tail = (1 - mp.betainc(mp.mpf("0.5"), dof / 2, 0, t * t / (dof + t * t), regularized=True)) / 2
        return tail
