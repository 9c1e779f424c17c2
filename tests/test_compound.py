import math
from fractions import Fraction

import numpy as np
import pytest

from visitlab import (
    CompoundPoissonSpec,
    DiscretePMF,
    PolyaAeppliSpec,
    PredictionResult,
    SpecError,
    cluster_law_from_alphas,
    cp_pmf,
    cp_sample,
    pa_pmf,
    poisson_pmf,
    tv_distance,
)
from visitlab.compound import pmf_from_csv, pmf_to_csv

# grid shared by the recursion-vs-closed-form and sampler checks
T_GRID = (0.5, 1.0, 2.0)
P_GRID = (0.0, 0.3, 0.5, 0.8)


def test_cp_pmf_worked_value():
    # t = 2, p = 0.5, k = 1: only a single cluster of size 1 contributes,
    # P(W = 1) = exp(-t(1-p)) * t(1-p)^2 = 0.5 * exp(-1)
    spec = PolyaAeppliSpec(2.0, 0.5).to_compound(64)
    pmf = cp_pmf(spec, 8)
    assert np.isclose(pmf[1], 0.5 * np.exp(-1.0), atol=1e-12)


def test_cp_matches_pa_on_grid():
    for t in T_GRID:
        for p in P_GRID:
            length = 1 if p == 0.0 else int(np.ceil(np.log(1e-15) / np.log(p))) + 120
            cp = cp_pmf(PolyaAeppliSpec(t, p).to_compound(length), 100)
            pa = pa_pmf(t, p, 100)
            assert np.max(np.abs(cp.probs - pa.probs)) <= 1e-12, (t, p)


def test_pa_zero_p_is_poisson():
    # the unit-cluster compound table, bit for bit: P(W = k) = (t P(W = k-1)) / k
    for t in np.linspace(0.01, 50.0, 400):
        for kmax in (0, 1, 5, 16, 64, 300):
            unit = cp_pmf(CompoundPoissonSpec(t, np.array([1.0])), kmax)
            assert pa_pmf(t, 0.0, kmax) == unit, (t, kmax)
            assert poisson_pmf(t, kmax) == unit, (t, kmax)


def _pa_exact(t, p, kmax):
    # closed-form sum in exact rationals of the doubles t and p, times exp(-theta)
    t, p = Fraction(t), Fraction(p)
    x = (1 - p) ** 2 * t
    out = [Fraction(1)]
    for k in range(1, kmax + 1):
        out.append(sum(math.comb(k - 1, j - 1) * x**j / math.factorial(j) * p ** (k - j) for j in range(1, k + 1)))
    theta = (1.0 - float(p)) * float(t)
    return np.array([float(v) for v in out]) * math.exp(-theta)


@pytest.mark.parametrize("t, p", [(2.0, 0.7), (0.5, 0.1), (2.0, 0.6), (20.0, 0.9)])
def test_pa_matches_exact_closed_form(t, p):
    exact = _pa_exact(t, p, 80)
    assert np.max(np.abs(pa_pmf(t, p, 80).probs - exact) / exact) <= 1e-13


@pytest.mark.parametrize("t", [0.05, 2.0, 50.0])
@pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
def test_pa_long_table_stays_a_law(t, p):
    # far past subnormal entries the recurrence must not leave negatives
    pmf = pa_pmf(t, p, 16384)
    assert np.all(np.isfinite(pmf.probs)) and np.all(pmf.probs >= 0.0)
    assert abs(float(pmf.probs.sum()) + pmf.tail_mass - 1.0) <= 1e-12


def test_poisson_pmf_exact_entries():
    pmf = poisson_pmf(3.0, 12)
    k = np.arange(13)
    direct = np.exp(-3.0) * 3.0**k / np.array([math.factorial(i) for i in k])
    assert np.allclose(pmf.probs, direct, rtol=1e-12)


def test_pmf_normalization():
    for t in T_GRID:
        for p in P_GRID:
            pmf = pa_pmf(t, p, 100)
            assert abs(float(pmf.probs.sum()) + pmf.tail_mass - 1.0) <= 1e-12


def test_cp_pmf_mean_matches_rate_sum():
    spec = CompoundPoissonSpec(1.5, np.array([0.3, 0.1, 0.05]))
    pmf = cp_pmf(spec, 400)
    mean = float(np.arange(401) @ pmf.probs)
    assert np.isclose(mean, spec.mean(), atol=1e-8)


def test_cp_sample_agrees_with_pmf():
    spec = PolyaAeppliSpec(2.0, 0.5).to_compound(64)
    draws = cp_sample(spec, seed=2024, size=200_000)
    counts = np.bincount(draws, minlength=61)[:61]
    emp = DiscretePMF(counts / draws.size, tail_mass=1.0 - counts.sum() / draws.size)
    assert tv_distance(emp, cp_pmf(spec, 60)) < 0.01


def test_cp_sample_deterministic():
    spec = PolyaAeppliSpec(1.0, 0.3).to_compound(32)
    a = cp_sample(spec, seed=5, size=1000)
    b = cp_sample(spec, seed=5, size=1000)
    assert np.array_equal(a, b)


def test_tv_distance_basics():
    a = DiscretePMF(np.array([0.5, 0.5]))
    b = DiscretePMF(np.array([1.0, 0.0]))
    assert tv_distance(a, a) == 0.0
    assert np.isclose(tv_distance(a, b), 0.5)
    assert np.isclose(tv_distance(a, b), tv_distance(b, a))


def test_tv_distance_counts_tail_mass():
    # identical tables, but one carries certified off-table mass
    a = DiscretePMF(np.array([0.9, 0.1]))
    b = DiscretePMF(np.array([0.9, 0.05]), tail_mass=0.05)
    assert tv_distance(a, b) >= 0.05


def test_discrete_pmf_validation():
    with pytest.raises(SpecError):
        DiscretePMF(np.array([0.5, 0.6]))
    with pytest.raises(SpecError):
        DiscretePMF(np.array([-0.1, 1.1]))
    with pytest.raises(SpecError):
        DiscretePMF(np.array([0.5, 0.4]), tail_mass=-0.01)


def test_pmf_csv_roundtrip(tmp_path):
    pmf = pa_pmf(2.0, 0.5, 30)
    path = tmp_path / "pmf.csv"
    pmf_to_csv(pmf, path)
    assert pmf_from_csv(path) == pmf


def test_cluster_law_polya_aeppli_correspondence():
    p = 0.6
    alphas = (1 - p) * p ** np.arange(40)
    pred = PredictionResult("compound-poisson", 2.0, tuple(alphas))
    assert np.isclose(pred.extremal_index, 1 - p)
    assert np.isclose(pred.mean_cluster, 1.0 / (1 - p), atol=1e-6)
    expected_rates = (1 - p) ** 2 * p ** np.arange(39)
    assert np.allclose(cluster_law_from_alphas(pred.alphas, pred.t).cluster_rates[:39], expected_rates)


def test_cluster_law_rejects_bad_sequences():
    with pytest.raises(SpecError):
        cluster_law_from_alphas(np.array([0.4, 0.5]), 1.0)  # increasing
    with pytest.raises(SpecError):
        cluster_law_from_alphas(np.array([0.0, 0.0]), 1.0)  # no mass
    with pytest.raises(SpecError):
        cluster_law_from_alphas(np.array([1.2]), 1.0)
