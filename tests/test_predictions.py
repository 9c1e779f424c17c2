import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from visitlab import (
    ConvergenceError,
    FiniteMarkovSpec,
    HouseOfCardsSpec,
    IntervalMapSpec,
    MixingProfile,
    ProductChainSpec,
    RegenerativeSpec,
    SpecError,
    SteinBracketInputs,
    StructureError,
    SyncCylinderTarget,
    UnsupportedPairError,
    coupling_sync_rate,
    doeblin_alpha2_bound,
    furstenberg_ratio,
    geometric_alpha,
    geometric_alpha_sequence,
    poisson_pmf,
    predict_furstenberg,
    predict_house_of_cards,
    predict_periodic_cylinder,
    predict_poisson,
    predict_regenerative,
    predict_regenerative_entries,
    predict_for,
    predict_sync_markov,
    renewal_ratio_sequence,
    spectral_radius,
    stein_bracket,
    sync_kernel,
    word_overlap_period,
)
from visitlab.predictions import hurwitz_zeta
from visitlab.targets import sync_measure

F = Fraction

Q1 = np.array([[0.2, 0.8], [0.3, 0.7]])
Q2 = np.array([[0.8, 0.2], [0.1, 0.9]])

EXAMPLE_MAP = IntervalMapSpec(
    breaks=(F(0), F(1, 3), F(2, 3), F(1)),
    slopes=(F(3), F(-2), F(3)),
    intercepts=(F(0), F(5, 3), F(-2)),
)

TRIPLING_MAP = IntervalMapSpec(
    breaks=(F(0), F(1, 3), F(2, 3), F(1)),
    slopes=(F(3), F(3), F(3)),
    intercepts=(F(0), F(-1), F(-2)),
)


def test_sync_markov_independent_reference():
    got = predict_sync_markov(np.array([[0.16, 0.16], [0.03, 0.63]]), 2.0)
    assert abs(got.params["p"] - 0.64) < 1e-12
    assert got.family == "polya-aeppli"


def test_sync_markov_maximal_reference():
    got = predict_sync_markov(np.array([[0.2, 0.2], [0.1, 0.7]]), 2.0)
    assert abs(got.params["p"] - (9.0 + math.sqrt(33.0)) / 20.0) < 1e-12


def test_sync_markov_rejects_degenerate_kernel():
    with pytest.raises(SpecError):
        predict_sync_markov(np.eye(2), 2.0)


def test_spectral_radius_known_values():
    assert abs(spectral_radius(np.array([[2.0, 1.0], [1.0, 2.0]])) - 3.0) < 1e-10
    a = np.array([[0.16, 0.16], [0.03, 0.63]])
    assert abs(spectral_radius(3.0 * a) - 3.0 * 0.64) < 1e-10


def test_spectral_radius_of_periodic_kernels():
    # peripheral eigenvalues -rho as well as rho: a power iteration never settles here
    assert spectral_radius(np.array([[0.0, 0.9], [0.1, 0.0]])) == pytest.approx(0.3, abs=1e-15)
    bipartite = np.array([[0.0, 0.25, 0.25], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert spectral_radius(bipartite) == pytest.approx(2.0**-0.5, abs=1e-15)


@pytest.mark.parametrize(
    "matrix",
    [[[0.5, np.nan], [0.2, 0.3]], [[0.5, -0.1], [0.2, 0.3]], [[0.5, 0.1, 0.2]], [0.5, 0.5]],
    ids=["nan", "negative", "non-square", "vector"],
)
def test_spectral_radius_refuses_bad_input(matrix):
    with pytest.raises(SpecError):
        spectral_radius(np.array(matrix))


def _refit_coupling_rate(gamma: float) -> float:
    """Closed form of the sticky reference pair's rate, refit from its
    diagonal kernel's characteristic polynomial."""
    g = gamma
    rad = 2401.0 - 3964.0 * g + 1086.0 * g * g + 116.0 * g**3 + 361.0 * g**4
    return (79.0 + 102.0 * g + 19.0 * g * g + math.sqrt(rad)) / 200.0


def _printed_coupling_rate(gamma: float) -> float:
    """The published closed form for the same pair, held as written."""
    g = gamma
    rad = 2401.0 + 7996.0 * g + 3006.0 * g * g - 7604.0 * g**3 + 4201.0 * g**4
    return (79.0 + 2.0 * g + 19.0 * g * g + math.sqrt(rad)) / 200.0


def test_coupling_rate_endpoints_exact():
    assert coupling_sync_rate(Q1, Q2, 0.0) == pytest.approx(0.64, abs=1e-15)
    assert coupling_sync_rate(Q1, Q2, 1.0) == 1.0


def test_sticky_coupling_degenerate_endpoint():
    # at gamma = 1 a synchronised pair never splits: rate 1, no limit law
    full = ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "parametrized", gamma=1.0)
    with pytest.raises(SpecError, match="degenerate"):
        predict_sync_markov(sync_kernel(full), 2.0)


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.4, 0.5, 0.75, 1.0])
def test_coupling_rate_matches_refit_form(gamma):
    assert abs(coupling_sync_rate(Q1, Q2, gamma) - _refit_coupling_rate(gamma)) <= 1e-15


def test_printed_coupling_form_disagrees_inside():
    # the printed form matches the kernel spectrum only at the endpoints
    gap = abs(coupling_sync_rate(Q1, Q2, 0.5) - _printed_coupling_rate(0.5))
    assert gap == pytest.approx(0.0170834909, abs=1e-10)
    for gamma in (0.0, 1.0):
        assert abs(coupling_sync_rate(Q1, Q2, gamma) - _printed_coupling_rate(gamma)) <= 1e-15


def _maximal_pair(q1, q2) -> ProductChainSpec:
    return ProductChainSpec((FiniteMarkovSpec(np.array(q1)), FiniteMarkovSpec(np.array(q2))), "maximal")


# maximal couplings whose diagonal kernel D is bipartite, with peripheral
# eigenvalues rho and -rho; the sync-cylinder measure is mu(n) = nu0 D^(n-1) 1
OSCILLATING_PAIR = _maximal_pair([[0, 1], [0.1, 0.9]], [[0.1, 0.9], [1, 0]])  # D = [[0, .9], [.1, 0]]
STEADY_PAIRS = {
    # D = [[0, .5], [.5, 0]]: D 1 = 1 / 2, so mu(n) has no (-1/2)^n term
    "2-state": _maximal_pair([[0, 1], [0.5, 0.5]], [[0.5, 0.5], [1, 0]]),
    # D = [[0, .3, .2], [.7, 0, 0], [.2, 0, 0]]: D 1 is a 1/2-eigenvector
    "3-state": _maximal_pair(
        [[0.5, 0.3, 0.2], [0.86, 0.14, 0.0], [0.9, 0.0, 0.1]],
        [[0.0, 0.68, 0.32], [0.7, 0.0, 0.3], [0.2, 0.8, 0.0]],
    ),
}


def test_oscillating_sync_law_is_refused():
    d = sync_kernel(OSCILLATING_PAIR)
    assert spectral_radius(d) == pytest.approx(0.3, abs=1e-15)
    mu = [sync_measure(OSCILLATING_PAIR, SyncCylinderTarget(n)) for n in range(5, 9)]
    ratios = [b / a for a, b in zip(mu, mu[1:])]
    assert ratios[0] == pytest.approx(ratios[2]) and abs(ratios[0] - ratios[1]) > 0.3
    with pytest.raises(UnsupportedPairError, match="no limit"):
        predict_for(OSCILLATING_PAIR, SyncCylinderTarget(6), 2.0)


@pytest.mark.parametrize("name", list(STEADY_PAIRS))
def test_bipartite_sync_kernel_without_oscillation_keeps_its_law(name):
    system = STEADY_PAIRS[name]
    mu = [sync_measure(system, SyncCylinderTarget(n)) for n in range(5, 9)]
    assert all(b / a == pytest.approx(0.5, abs=1e-12) for a, b in zip(mu, mu[1:]))
    got = predict_for(system, SyncCylinderTarget(6), 2.0)
    assert got.family == "polya-aeppli"
    assert abs(got.params["p"] - 0.5) <= 1e-15


def test_geometric_alpha_exact_fractions():
    # index k returns the (k+1)-st tail value; k = 0 is the trivial 1
    assert geometric_alpha(EXAMPLE_MAP, 1) == F(11, 27)
    assert geometric_alpha(EXAMPLE_MAP, 2) == F(40, 243)
    seq = geometric_alpha_sequence(EXAMPLE_MAP, 2)
    assert seq == [F(1), F(11, 27), F(40, 243)]
    # failure of the pure-geometry certificate: a2^2 != a1 * a3
    assert seq[1] ** 2 != seq[0] * seq[2]


def test_geometric_alpha_full_shift_is_geometric():
    seq = geometric_alpha_sequence(TRIPLING_MAP, 10)
    for k, v in enumerate(seq, start=1):
        assert v == F(1, 3) ** (k - 1)


def test_geometric_alpha_ratio_converges_to_spectral_radius():
    seq = geometric_alpha_sequence(EXAMPLE_MAP, 31)
    ratio = float(seq[30] / seq[29])
    assert abs(ratio - (17.0 + math.sqrt(145.0)) / 72.0) < 1e-6


# exact aligned-ratio table at plus probability 0.3: (word, case value,
# aligned subsequence limit); the two agree for only four primitive words
FURSTENBERG_TABLE = [
    ((1,), 0.7, 0.7),
    ((-1,), 0.3, 0.42),
    ((1, -1), 0.21, 0.21),
    ((-1, 1), 0.21, 0.21),
    ((1, 1, -1), 0.147, 0.1218),
    ((1, -1, 1), 0.063, 0.0882),
    ((1, -1, -1), 0.063, 0.147),
    ((-1, 1, 1), 0.063, 0.1218),
    ((-1, 1, -1), 0.147, 0.147),
    ((-1, -1, 1), 0.063, 0.147),
    ((1, 1, 1, -1), 0.1029, 0.0777),
    ((1, 1, -1, 1), 0.0189, 0.0441),
    ((1, 1, -1, -1), 0.0441, 0.1029),
    ((1, -1, 1, 1), 0.0189, 0.0441),
    ((1, -1, -1, 1), 0.0441, 0.1029),
    ((1, -1, -1, -1), 0.0189, 0.0441),
    ((-1, 1, 1, 1), 0.0189, 0.0777),
    ((-1, 1, 1, -1), 0.0441, 0.1029),
    ((-1, 1, -1, -1), 0.0189, 0.0441),
    ((-1, -1, 1, 1), 0.0441, 0.1029),
    ((-1, -1, 1, -1), 0.0189, 0.0441),
    ((-1, -1, -1, 1), 0.1029, 0.0441),
]


def test_furstenberg_case_and_ratio_table():
    for word, case, ratio in FURSTENBERG_TABLE:
        got = predict_furstenberg(0.3, word, 2.0, strict=False)
        assert got.extras["case_value"] == pytest.approx(case, abs=1e-9), word
        assert got.extras["ratio_value"] == pytest.approx(ratio, abs=1e-9), word
        assert got.extras["ratio_stability"] < 1e-20, word


def test_furstenberg_matching_words():
    matches = [w for w, c, r in FURSTENBERG_TABLE if abs(c - r) < 1e-12]
    assert matches == [(1,), (1, -1), (-1, 1), (-1, 1, -1)]
    for word in matches:
        got = predict_furstenberg(0.3, word, 2.0, strict=True)
        assert got.extras["consistency_error"] < 1e-9


def test_furstenberg_table_covers_all_primitive_words():
    listed = {w for w, _, _ in FURSTENBERG_TABLE}
    everything = set()
    for k in (1, 2, 3, 4):
        for word in itertools.product((-1, 1), repeat=k):
            if any(word == word[d:] + word[:d] for d in range(1, k)):
                continue  # not primitive: some rotation period divides k
            everything.add(word)
    assert listed == everything and len(listed) == 22


def test_furstenberg_strict_mode_rejects_mismatch():
    with pytest.raises(ConvergenceError):
        predict_furstenberg(0.3, (-1,), 2.0, strict=True)


def test_furstenberg_validation():
    with pytest.raises(SpecError):
        predict_furstenberg(0.5, (1,), 2.0)
    with pytest.raises(SpecError):
        predict_furstenberg(0.3, (1, -1, 1, -1), 2.0)  # period 2, not primitive
    with pytest.raises(SpecError):
        predict_furstenberg(0.3, (1, 0), 2.0)


def test_furstenberg_ratio_exact_rational():
    got = furstenberg_ratio(F(3, 10), (1,))
    assert got["measure"] == F(29, 50)
    assert got["prepend_ratio"] == F(37, 58)


def test_word_overlap_period():
    assert word_overlap_period((1, 1, 1)) == 1
    assert word_overlap_period((1, 0, 1)) == 2
    assert word_overlap_period((0, 1, 1)) == 3
    assert word_overlap_period((0, 1, 0, 1)) == 2


def test_periodic_cylinder_cycle_product():
    chain = FiniteMarkovSpec(np.array([[0.4, 0.6], [0.2, 0.8]]))
    got = predict_periodic_cylinder(chain, (1,), 2.0)
    assert got.params["p"] == pytest.approx(0.8, abs=1e-14)
    two = predict_periodic_cylinder(chain, (0, 1), 2.0)
    assert two.params["p"] == pytest.approx(0.12, abs=1e-14)
    with pytest.raises(SpecError):
        predict_periodic_cylinder(chain, (1, 1), 2.0)  # not a primitive cycle
    blocked = FiniteMarkovSpec(
        np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    )
    with pytest.raises(StructureError):
        predict_periodic_cylinder(blocked, (0, 1), 2.0)


def test_poisson_prediction_family():
    got = predict_poisson(2.0)
    assert got.family == "poisson"
    assert np.allclose(got.pmf(20).probs, poisson_pmf(2.0, 20).probs, atol=1e-15)
    assert got.law.mean_cluster_size == 1.0


def test_house_of_cards_prediction_worked_value():
    got = predict_house_of_cards(0.5, 2.0)
    assert got.params["p"] == pytest.approx(0.5)
    pmf = got.pmf(10)
    assert pmf.probs[0] == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert pmf.probs[1] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)
    for bad in (0.0, 1.0):
        with pytest.raises(SpecError):
            predict_house_of_cards(bad, 2.0)


def test_regenerative_prediction_tables():
    q = np.array([0.5, 0.25, 0.125, 0.125])
    got = predict_regenerative(q, 2.0)
    nu = 1.875
    assert np.allclose(got.alphas, np.cumsum(q[::-1])[::-1] / nu, atol=1e-14)
    assert got.law.extremal_index == pytest.approx(1.0 / nu)
    assert got.law.mean_cluster_size == pytest.approx(nu)
    assert np.allclose(got.law.cluster_probs, q, atol=1e-14)


def test_regenerative_entries_two_point_mixture():
    spec = RegenerativeSpec.smith([2, 3], [0.5, 0.5])
    got = predict_regenerative_entries(spec, 2, 2.0)
    hats = got.extras["alpha_hats"]
    assert hats[0] == pytest.approx(1.0)
    assert hats[1] == pytest.approx(0.5)
    assert hats[2] == pytest.approx(7.0 / 24.0)
    assert got.alphas[0] == pytest.approx(0.5)
    assert got.alphas[1] == pytest.approx(5.0 / 24.0)
    assert got.law.mean_cluster_size == pytest.approx(2.0)


def test_regenerative_entries_keep_clusters_longer_than_32():
    # symbol 50 makes blocks of 51: the table reaches them instead of
    # lumping every longer cluster into size 32
    spec = RegenerativeSpec.smith([1, 2, 50], [0.3, 0.3, 0.4])
    got = predict_regenerative_entries(spec, 2, 2.0)
    assert len(got.alphas) == 51 and got.alphas[-1] > 0.0
    assert got.law.compound.mean() == pytest.approx(2.0, rel=1e-12)
    # short blocks keep their 32 rows
    assert len(predict_regenerative_entries(RegenerativeSpec.smith([2, 3], [0.5, 0.5]), 2, 2.0).alphas) == 32


@pytest.mark.parametrize("reset, mean", [(0.5, 2.0), (0.05, 20.0)])
def test_polya_aeppli_mean_cluster_is_the_tabulated_laws(reset, mean):
    # the pmf is PA(t, p), whose mean cluster size is 1/(1-p); the 32 alphas
    # would give (1 - p**32)/(1 - p), 16.13 at p = 0.95
    got = predict_house_of_cards(reset, 2.0)
    assert got.as_dict()["mean_cluster"] == pytest.approx(mean, rel=1e-14)
    # clusters arrive at rate t / mean: P(W = 0) = exp(-t / mean)
    assert got.pmf(0).probs[0] == pytest.approx(math.exp(-2.0 / mean), rel=1e-12)
    assert predict_poisson(2.0).as_dict()["mean_cluster"] == 1.0


def test_mixing_profile_values_and_tails():
    geo = MixingProfile("geometric", 2.0, 0.5)
    assert geo.value(0) == 1.0 and geo.value(-3) == 1.0
    assert geo.value(1) == 1.0  # clamped
    assert geo.value(3) == pytest.approx(0.25)
    brute = sum(geo.value(k) for k in range(2, 200))
    assert geo.tail(2) == pytest.approx(brute, abs=1e-12)
    poly = MixingProfile("polynomial", 1.0, 2.0)
    brute = sum(poly.value(k) for k in range(3, 2_000_000))
    assert poly.tail(3) == pytest.approx(brute, abs=1e-5)
    with pytest.raises(SpecError):
        MixingProfile("polynomial", 1.0, 1.0)
    with pytest.raises(SpecError):
        MixingProfile("banana", 1.0, 2.0)


def test_hurwitz_zeta_exact_values_and_shift():
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6, rel=1e-15)
    assert hurwitz_zeta(4.0, 1.0) == pytest.approx(math.pi**4 / 90, rel=1e-15)
    for s in (1.0001, 1.5, 2.0, 3.7, 12.0, 40.0):
        for a in (0.5, 1.0, 3.25, 17.0, 1e4, 1e9):
            assert hurwitz_zeta(s, a) == pytest.approx(a**-s + hurwitz_zeta(s, a + 1.0), rel=1e-14)


def test_polynomial_tail_needs_no_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.special", None)
    assert MixingProfile("polynomial", 1.0, 2.0).tail(1) == pytest.approx(math.pi**2 / 6, rel=1e-15)


def test_hurwitz_zeta_gives_scipys_doubles():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(3)
    svals = 1.0 + 10.0 ** rng.uniform(-4.0, 1.6, 3000)
    avals = 10.0 ** rng.uniform(-2.0, 10.0, 3000)
    avals[::2] = np.ceil(avals[::2])  # MixingProfile.tail asks at integers
    for s, a in zip(svals.tolist(), avals.tolist()):
        assert hurwitz_zeta(s, a) == float(special.zeta(s, a)), (s, a)


def _stein_inputs(n, t=2.0):
    prof = MixingProfile("geometric", 1.0, 0.5)
    outer = tuple(2.0**-j for j in range(n + 1))
    return SteinBracketInputs(prof, 2.0**-n, outer, n, n // 2, t)


def test_stein_bracket_frozen_values():
    got20 = stein_bracket(_stein_inputs(20), mode="phi")
    assert got20["value"] == pytest.approx(0.2501211166381836, rel=1e-9)
    assert got20["argmin_delta"] == 62
    got40 = stein_bracket(_stein_inputs(40), mode="phi")
    assert got40["value"] == pytest.approx(0.007812500226691554, rel=1e-9)
    assert got40["value"] < got20["value"]
    psi20 = stein_bracket(_stein_inputs(20), mode="psi")
    assert psi20["value"] == pytest.approx(0.1250762939453125, rel=1e-9)
    psi40 = stein_bracket(_stein_inputs(40), mode="psi")
    assert psi40["value"] == pytest.approx(0.003906250145519152, rel=1e-9)


def test_stein_bracket_needs_room_for_the_gap():
    prof = MixingProfile("geometric", 1.0, 0.5)
    inp = SteinBracketInputs(prof, 0.9, (0.9, 0.9), 1, 1, 1.0)
    with pytest.raises(SpecError):
        stein_bracket(inp)
    with pytest.raises(SpecError):
        SteinBracketInputs(prof, 0.5, (0.5,), 2, 1, 1.0)  # outer too short
    # the Delta grid is int64: t / mu must be finite and floor(t / mu) - 1 fit
    for mu, t in ((2.0**-64, 1.0), (1e-310, 1.0), (0.5, float("inf")), (0.5, float("nan"))):
        with pytest.raises(SpecError):
            stein_bracket(SteinBracketInputs(prof, mu, (mu, mu), 1, 1, t))
    widest = stein_bracket(SteinBracketInputs(prof, 2.0**-62, (0.5, 0.5), 1, 1, 1.0))
    assert 2 <= widest["argmin_delta"] <= 2**62 - 1


def test_doeblin_alpha2_bound_linear_in_delta():
    assert doeblin_alpha2_bound(20, 1.5, 0.01) == pytest.approx(1.2)
    assert doeblin_alpha2_bound(20, 1.5, 0.005) == pytest.approx(0.6)


def test_renewal_ratio_constant_rate():
    rats = renewal_ratio_sequence(HouseOfCardsSpec.constant(0.5), range(5, 30))
    assert np.allclose(rats, 0.5, atol=1e-12)


def test_renewal_ratio_alternating_never_settles():
    rats = renewal_ratio_sequence(
        HouseOfCardsSpec.alternating(0.3, 0.6), range(50, 101)
    )
    assert np.ptp(rats) == pytest.approx(0.09075630252101252, abs=1e-12)


def test_renewal_ratio_drifting_rate_converges_slowly():
    rats = renewal_ratio_sequence(HouseOfCardsSpec.drifting(0.5, 0.3), [200])
    assert abs(rats[0] - 0.5) == pytest.approx(0.0014852629828840946, abs=1e-12)


def test_prediction_pmf_normalizes():
    for result in (
        predict_poisson(2.0),
        predict_house_of_cards(0.5, 2.0),
        predict_regenerative(np.array([0.5, 0.5]), 2.0),
    ):
        pmf = result.pmf(200)
        assert pmf.probs.sum() + pmf.tail_mass == pytest.approx(1.0, abs=1e-9)
        d = result.as_dict()
        assert d["family"] == result.family and "alphas" in d
