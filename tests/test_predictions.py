import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
import yaml

from visitlab import (
    ConvergenceError,
    CylinderTarget,
    FactorProductSpec,
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
    cluster_law_from_alphas,
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
    predict_regenerative_entries,
    predict_for,
    predict_sync_markov,
    renewal_ratio_sequence,
    spectral_radius,
    stein_bracket,
    sync_kernel,
    word_overlap_period,
)
from visitlab.config import config_from_mapping
from visitlab.predictions import _sync_law_oscillates, hurwitz_zeta
from visitlab.systems import _diagonal_codes
from visitlab.targets import sign_cylinder_measure, sync_measure

from test_acceptance import _geometric_probs
from test_cli import _PAIR_CONFIGS

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


# two classes of D with one spectral radius rho, the second feeding the first,
# (D, nu0, rho): mu(n) carries an n (-rho)^n term, so mu(n+1)/mu(n) alternates
DEFECTIVE_SYNC_KERNELS = [
    (np.array([[0, 0.5, 0, 0], [0.2, 0, 0.1, 0], [0, 0, 0, 0.5], [0, 0, 0.2, 0]]),
     np.array([3.0, 1.0, 3.0, 3.0]) / 10.0, math.sqrt(0.1)),
    # through transient states: left.T @ right is uniformly tiny, so its
    # condition number (5.8) shows nothing, but no singular value reaches 1e-6
    (np.array([[0, 0, 5, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 4, 0, 3, 0, 0],
               [0, 0, 0, 0, 0, 5], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 4, 0]]) / 8,
     np.array([1.0, 2.0, 4.0, 2.0, 1.0, 2.0]) / 12.0, 0.25),
]


@pytest.mark.parametrize("case", range(len(DEFECTIVE_SYNC_KERNELS)))
def test_defective_peripheral_sync_kernel_is_refused(case):
    d, nu0, rho = DEFECTIVE_SYNC_KERNELS[case]
    exact = [[F(x) for x in row] for row in d.tolist()]
    v, mu = [F(1)] * len(exact), []
    for n in range(1, 404):
        if n >= 400:
            mu.append(sum(F(a) * b for a, b in zip(nu0.tolist(), v)))
        v = [sum(a * b for a, b in zip(row, v)) for row in exact]
    scaled = [float(b / a) / rho for a, b in zip(mu, mu[1:])]
    assert abs(scaled[0] - scaled[1]) > 0.05 and abs(scaled[0] - scaled[2]) < 1e-2
    assert _sync_law_oscillates(d, nu0)


def test_sync_refusals_of_the_pair_table_are_kept():
    for system, oscillates in [(OSCILLATING_PAIR, True), *((s, False) for s in STEADY_PAIRS.values())]:
        nu0 = system.chain[0][_diagonal_codes(system)]
        assert _sync_law_oscillates(sync_kernel(system), nu0) is oscillates


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


def _fraction_sign_checks(eps: float, word: tuple):
    """The exact sign checks in Fractions, for reference: predict_furstenberg's
    aligned ratio, its stability and check length, and whether the ratio
    nu(k + m)/nu(k) is steady over two lift periods of k from there."""
    m = len(word)
    lift_period = m if math.prod(word) == 1 else 2 * m
    n0 = 2 * lift_period * (240 // (2 * lift_period) + 1)

    def nu(n):
        return sign_cylinder_measure(F(eps), tuple(word[i % m] for i in range(n)))

    r1 = nu(n0 + m) / nu(n0)
    r2 = nu(n0 + 2 * lift_period + m) / nu(n0 + 2 * lift_period)
    ratios = [float(nu(k + m) / nu(k)) for k in range(n0, n0 + 2 * lift_period + m)]
    steady = max(ratios) - min(ratios) <= 1e-8 * max(ratios)
    return {"ratio_value": float(r1), "ratio_stability": float(abs(r2 - r1)), "check_length": n0}, steady


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.7, 0.123456])
def test_integer_sign_checks_match_fractions(eps):
    for word, _, _ in FURSTENBERG_TABLE:
        want, steady = _fraction_sign_checks(eps, word)
        got = predict_furstenberg(eps, word, 2.0, strict=False).extras
        assert {key: got[key] for key in want} == want, word
        assert got["consistency_error"] == abs(got["case_value"] - want["ratio_value"]), word
        if got["consistency_error"] > 1e-8:
            expected = ConvergenceError
        else:
            expected = None if steady else UnsupportedPairError
        try:
            predict_for(FactorProductSpec(eps), _sign_cycle_target(word, 8), 2.0)
            outcome = None
        except (ConvergenceError, UnsupportedPairError) as refused:
            outcome = type(refused)
        assert outcome is expected, (word, outcome)


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


def _sign_cycle_target(cycle, n) -> CylinderTarget:
    return CylinderTarget(tuple(cycle[i % len(cycle)] for i in range(n)))


@pytest.mark.parametrize("n", [8, 9, 10, 11])
def test_oscillating_sign_cycle_is_refused(n):
    # nu(k + 2)/nu(k) for (1, -1) runs through 0.21, 0.152, 0.21, 0.29 with
    # k mod 4, while the aligned check of predict_furstenberg reads 0.21 only
    ratios = [
        sign_cylinder_measure(F(3, 10), _sign_cycle_target((1, -1), k + 2).word)
        / sign_cylinder_measure(F(3, 10), _sign_cycle_target((1, -1), k).word)
        for k in range(n, n + 4)
    ]
    assert sorted(ratios)[1:3] == [F(21, 100)] * 2 and float(max(ratios) - min(ratios)) > 0.13
    assert predict_furstenberg(0.3, (1, -1), 2.0).params["p"] == pytest.approx(0.21, abs=1e-15)
    with pytest.raises(UnsupportedPairError, match="no limit"):
        predict_for(FactorProductSpec(0.3), _sign_cycle_target((1, -1), n), 2.0)


@pytest.mark.parametrize("cycle", [(1,), (-1, 1), (-1, 1, -1)])
@pytest.mark.parametrize("n", [8, 9, 10, 11])
def test_steady_sign_cycles_keep_their_law(cycle, n):
    got = predict_for(FactorProductSpec(0.3), _sign_cycle_target(cycle, n), 2.0)
    assert got.family == "polya-aeppli"
    assert got.params["p"] == predict_furstenberg(0.3, cycle, 2.0).params["p"]


def test_word_overlap_period():
    assert word_overlap_period((1, 1, 1)) == 1
    assert word_overlap_period((1, 0, 1)) == 2
    assert word_overlap_period((0, 1, 1)) == 3
    assert word_overlap_period((0, 1, 0, 1)) == 2


def _word_min_period(word) -> int:
    """Least p dividing len(word) with word a power of word[:p], by brute force."""
    m = len(word)
    for p in range(1, m):
        if m % p == 0 and all(word[i] == word[i % p] for i in range(m)):
            return p
    return m


def test_non_primitive_words_are_refused_by_the_overlap_period():
    # every word over {0, 1} up to length 12 and over {0, 1, 2} up to length 8
    words = [w for k in range(1, 13) for w in itertools.product((0, 1), repeat=k)]
    words += [w for k in range(1, 9) for w in itertools.product((0, 1, 2), repeat=k)]
    assert len(words) == 18_030
    chain = FiniteMarkovSpec(np.full((3, 3), 1.0 / 3.0))
    for word in words:
        primitive = _word_min_period(word) == len(word)
        try:
            predict_periodic_cylinder(chain, word, 1.0)
            refused = False
        except SpecError:
            refused = True
        assert refused is not primitive, word
        if not primitive and len(word) <= 8 and max(word) <= 1:
            with pytest.raises(SpecError, match="least period"):
                predict_furstenberg(0.3, tuple(2 * a - 1 for a in word), 1.0, strict=False)


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
    assert got.mean_cluster == 1.0


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
    spec = RegenerativeSpec.with_shared_lengths([0, 1, 2], [0.5, 0.3, 0.2], q)
    got = predict_regenerative_entries(spec, 1, 2.0)
    nu = 1.875
    assert got.family == "compound-poisson" and len(got.alphas) == 32
    assert np.allclose(got.alphas[:4], np.cumsum(q[::-1])[::-1] / nu, rtol=0.0, atol=1e-15)
    assert not any(got.alphas[4:])
    assert got.extremal_index == pytest.approx(1.0 / nu, rel=1e-15)
    assert got.mean_cluster == pytest.approx(nu, rel=1e-15)
    cluster_probs = cluster_law_from_alphas(got.alphas, got.t).size_distribution()
    assert np.allclose(cluster_probs[:4], q, rtol=0.0, atol=1e-15)
    assert not any(cluster_probs[4:])
    assert got.params["mean_block"] == pytest.approx(nu, rel=1e-15) and got.params["threshold"] == 1


def _half_line_alphas_by_overlaps(spec, n):
    """The half-line tails as once written: alpha_hat_l is the entry-weighted
    mean of (L - l + 1)^+ over the block-length laws of the symbols >= n,
    over their mean length, and alpha_l = alpha_hat_l - alpha_hat_(l+1)."""
    symbols = np.asarray(spec.symbols)
    keep = np.nonzero(symbols >= n)[0]
    p_sym = spec.symbol_probs[keep]
    p_sym = p_sym / p_sym.sum()
    laws = [spec.length_law(int(symbols[idx])) for idx in keep]
    length = max(32, max(q.size for q in laws))
    num = np.zeros(length + 1)
    den = 0.0
    for w, q in zip(p_sym, laws):
        lengths = np.arange(1, q.size + 1, dtype=float)
        den += w * float(lengths @ q)
        for ell in range(1, length + 2):
            num[ell - 1] += w * float(np.clip(lengths - ell + 1, 0.0, None) @ q)
    hats = num / den
    return np.minimum.accumulate(np.clip(hats[:-1] - hats[1:], 0.0, None))


def _regenerative(lengths, symbols, probs):
    doc = {
        "experiment": {"t": 1.0, "samples": 10, "seed": 1},
        "system": {"kind": "regenerative", "symbols": symbols, "probs": probs, "lengths": lengths},
        "target": {"kind": "half-line", "sweep": [1]},
    }
    return config_from_mapping(doc).build_system()


# (spec, threshold): the shared law of the pair configs, criteria 05 and 06,
# and two-point systems with short and with long blocks
HALF_LINE_SYSTEMS = {
    "shared": (RegenerativeSpec.with_shared_lengths([0, 1, 2], [0.5, 0.3, 0.2], [0.5, 0.3, 0.2]), 2),
    "criterion 05": (_regenerative({"model": "shared-geometric", "rate": 0.5, "tail": 1e-12},
                                   list(range(1, 41)), _geometric_probs(40)), 11),
    "criterion 06": (_regenerative({"model": "two-point"}, list(range(1, 31)), _geometric_probs(30)), 11),
    "two-point [2, 3]": (RegenerativeSpec.smith([2, 3], [0.5, 0.5]), 2),
    "two-point [1, 2, 50]": (RegenerativeSpec.smith([1, 2, 50], [0.3, 0.3, 0.4]), 2),
}


@pytest.mark.parametrize("name", list(HALF_LINE_SYSTEMS))
def test_half_line_law_is_the_residual_block_law(name):
    spec, n = HALF_LINE_SYSTEMS[name]
    got = predict_regenerative_entries(spec, n, 2.0)
    want = _half_line_alphas_by_overlaps(spec, n)
    assert len(got.alphas) == want.size
    assert np.max(np.abs(np.asarray(got.alphas) - want)) <= 1e-15
    hats = got.extras["alpha_hats"]
    assert hats[0] == pytest.approx(1.0, abs=1e-15) and hats[-1] == got.alphas[-1]


def test_regenerative_entries_two_point_mixture():
    spec = RegenerativeSpec.smith([2, 3], [0.5, 0.5])
    got = predict_regenerative_entries(spec, 2, 2.0)
    hats = got.extras["alpha_hats"]
    assert hats[0] == pytest.approx(1.0)
    assert hats[1] == pytest.approx(0.5)
    assert hats[2] == pytest.approx(7.0 / 24.0)
    assert got.alphas[0] == pytest.approx(0.5)
    assert got.alphas[1] == pytest.approx(5.0 / 24.0)
    assert got.mean_cluster == pytest.approx(2.0)


def test_regenerative_entries_keep_clusters_longer_than_32():
    # symbol 50 makes blocks of 51: the table reaches them instead of
    # lumping every longer cluster into size 32
    spec = RegenerativeSpec.smith([1, 2, 50], [0.3, 0.3, 0.4])
    got = predict_regenerative_entries(spec, 2, 2.0)
    assert len(got.alphas) == 51 and got.alphas[-1] > 0.0
    assert cluster_law_from_alphas(got.alphas, got.t).mean() == pytest.approx(2.0, rel=1e-12)
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


@pytest.mark.parametrize("name", [*_PAIR_CONFIGS, "reset 0.1", "reset 0.05", "reset 0.02"])
def test_the_tabulated_law_has_the_stated_mean(name):
    # one law per prediction: the pmf's mean is t * extremal_index * mean_cluster,
    # also where the 32-term alpha table of a Polya-Aeppli law is far from summed
    if name in _PAIR_CONFIGS:
        cfg = config_from_mapping({"experiment": {"t": 1.0, "samples": 400}, **yaml.safe_load(_PAIR_CONFIGS[name])})
        pred = predict_for(cfg.build_system(), cfg.build_target(cfg.sweep[0]), cfg.t)
    else:
        reset = float(name.split()[1])
        pred = predict_house_of_cards(reset, 2.0)
        assert pred.mean_cluster == 1.0 / (1.0 - pred.params["p"]) == pytest.approx(1.0 / reset)
    kmax = 64
    while (pmf := pred.pmf(kmax)).tail_mass >= 1e-13:
        kmax *= 2
    mean = float(np.arange(kmax + 1) @ pmf.probs)
    assert mean == pytest.approx(pred.t * pred.extremal_index * pred.mean_cluster, rel=1e-9, abs=0.0)


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
    with pytest.raises(SpecError, match="Kac horizon"):
        stein_bracket(SteinBracketInputs(prof, 5e-324, (5e-324, 5e-324), 1, 1, 2.0))
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


def test_prediction_dicts_are_plain_json():
    preds = [predict_furstenberg(0.3, word, 2.0, strict=False) for word, _, _ in FURSTENBERG_TABLE]
    for body in _PAIR_CONFIGS.values():
        cfg = config_from_mapping({"experiment": {"t": 1.0, "samples": 400}, **yaml.safe_load(body)})
        preds.append(predict_for(cfg.build_system(), cfg.build_target(cfg.sweep[0]), cfg.t))
    for pred in preds:
        assert json.loads(json.dumps(pred.as_dict()))["family"] == pred.family


def test_prediction_pmf_normalizes():
    for result in (
        predict_poisson(2.0),
        predict_house_of_cards(0.5, 2.0),
        predict_regenerative_entries(RegenerativeSpec.with_shared_lengths([0, 1], [0.5, 0.5], [0.5, 0.5]), 1, 2.0),
    ):
        pmf = result.pmf(200)
        assert pmf.probs.sum() + pmf.tail_mass == pytest.approx(1.0, abs=1e-9)
        d = result.as_dict()
        assert d["family"] == result.family and "alphas" in d
