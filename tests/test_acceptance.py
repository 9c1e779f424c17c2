"""End-to-end acceptance gate.

Each test prints exactly one ``[criterion NN]`` PASS/FAIL line (run with
``pytest -s`` to see them all live) and then asserts the stated tolerance.
Five clauses document known honest gaps and are expected to FAIL: 02 (the
printed coupling closed form drifts from the kernel spectrum between its
endpoints), 04b (forward-window pile-up biases the run-length cluster
rates), 09a (only four of the 22 primitive sign words reproduce their
aligned cylinder ratios), 09b (at depth 8 the all-plus cylinder's exact
visit law is still TV = 0.070 from its compound-Poisson limit, so no
sample size can reach the 0.03 band), and 11b (the drifting renewal
ratio is still 1.5e-3 away from its limit at n = 200).  See README.md
for the analysis.
"""

import copy
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from visitlab import (
    CompoundPoissonSpec,
    DoeblinChainSpec,
    HouseOfCardsSpec,
    IntervalMapSpec,
    MixingProfile,
    PolyaAeppliSpec,
    SteinBracketInputs,
    config_from_mapping,
    coupling_sync_rate,
    cp_pmf,
    cp_sample,
    doeblin_alpha2_bound,
    empirical_pmf,
    geometric_alpha,
    geometric_alpha_sequence,
    pa_pmf,
    predict_furstenberg,
    predict_sync_markov,
    renewal_ratio_sequence,
    report_body,
    run_experiment,
    spectral_radius,
    stein_bracket,
    sync_kernel,
    tv_distance,
    WSampleSet,
)
from visitlab.systems import FiniteMarkovSpec, ProductChainSpec

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


def _line(tag: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    return ok


def _geometric_probs(count: int) -> list:
    raw = [2.0**-a for a in range(1, count + 1)]
    total = sum(raw)
    return [x / total for x in raw]


# ---------------------------------------------------------------------------
# closed-form criteria (no sampling)
# ---------------------------------------------------------------------------


def test_criterion_01_exact_spectral_values():
    started = time.perf_counter()
    ind = ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "independent")
    p_ind = predict_sync_markov(sync_kernel(ind), 2.0).params["p"]
    mx = ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "maximal")
    p_max = predict_sync_markov(sync_kernel(mx), 2.0).params["p"]
    qhat = np.array(
        [[float(x) ** 2 for x in row] for row in EXAMPLE_MAP.transition_matrix_exact()]
    )
    rho = spectral_radius(qhat)
    elapsed = time.perf_counter() - started
    gaps = (
        abs(p_ind - 16.0 / 25.0),
        abs(p_max - (9.0 + math.sqrt(33.0)) / 20.0),
        abs(rho - (17.0 + math.sqrt(145.0)) / 72.0),
    )
    ok = max(gaps) <= 1e-9 and elapsed < 1.0
    assert _line(
        "01",
        ok,
        f"p=16/25, (9+sqrt33)/20, rho=(17+sqrt145)/72 gaps "
        f"{gaps[0]:.2e}/{gaps[1]:.2e}/{gaps[2]:.2e}, {elapsed:.3f}s",
    )


def _printed_coupling_form(gamma: float) -> float:
    disc = 2401.0 + 7996.0 * gamma + 3006.0 * gamma**2 - 7604.0 * gamma**3 + 4201.0 * gamma**4
    return (79.0 + 2.0 * gamma + 19.0 * gamma**2 + math.sqrt(disc)) / 200.0


def test_criterion_02_parametrized_coupling_closed_form():
    # the closed form is exact at both endpoints by construction
    assert F(79 + 49, 200) == F(16, 25)
    assert (79 + 2 + 19 + 100) == 200
    gaps = {}
    for gamma in (0.0, 0.25, 0.5, 1.0):
        spectral = coupling_sync_rate(Q1, Q2, gamma)
        gaps[gamma] = abs(spectral - _printed_coupling_form(gamma))
    detail = ", ".join(f"gamma={g}: {gap:.3e}" for g, gap in gaps.items())
    ok = all(gap <= 1e-10 for gap in gaps.values())
    assert _line("02", ok, f"spectral vs closed form: {detail}")


def test_criterion_03_geometric_alpha_exactness():
    started = time.perf_counter()
    tripling = geometric_alpha_sequence(TRIPLING_MAP, 10)
    full_shift_ok = all(tripling[k] == F(1, 3) ** k for k in range(11))
    # independent 2-cylinder integral oracle, written out from the invariant
    # density and the one-step branch contraction
    h = (F(3, 5), F(6, 5), F(6, 5))
    lam = EXAMPLE_MAP.cell_lengths()
    slopes = EXAMPLE_MAP.slopes
    d = sum(h[a] ** 2 * lam[a] for a in range(3))
    a2_oracle = sum(h[a] ** 2 * lam[a] / abs(slopes[a]) for a in range(3)) / d
    q = EXAMPLE_MAP.transition_matrix_exact()
    w = [lam[a] / abs(slopes[a]) for a in range(3)]
    qw = [sum(q[a][b] ** 2 * w[b] for b in range(3)) for a in range(3)]
    a3_oracle = sum(h[a] ** 2 * qw[a] for a in range(3)) / d
    exact_ok = (
        geometric_alpha(EXAMPLE_MAP, 1) == a2_oracle == F(11, 27)
        and geometric_alpha(EXAMPLE_MAP, 2) == a3_oracle == F(40, 243)
    )
    seq = geometric_alpha_sequence(EXAMPLE_MAP, 30)
    certificate_ok = seq[1] ** 2 != seq[0] * seq[2]
    ratio_gap = abs(float(seq[30] / seq[29]) - (17.0 + math.sqrt(145.0)) / 72.0)
    elapsed = time.perf_counter() - started
    ok = full_shift_ok and exact_ok and certificate_ok and ratio_gap <= 1e-6 and elapsed < 1.0
    assert _line(
        "03",
        ok,
        f"3^-k exact={full_shift_ok}, 11/27 & 40/243 exact={exact_ok}, "
        f"certificate={certificate_ok}, ratio gap {ratio_gap:.2e}, {elapsed:.3f}s",
    )


def test_criterion_10_distribution_engine():
    worst = 0.0
    worst_norm = 0.0
    for t in (0.5, 1.0, 2.0):
        for p in (0.0, 0.3, 0.5, 0.8):
            length = 220 if p > 0 else 8
            cp = cp_pmf(PolyaAeppliSpec(t, p).to_compound(length), 100)
            pa = pa_pmf(t, p, 100)
            worst = max(worst, float(np.abs(cp.probs - pa.probs).max()))
            worst_norm = max(
                worst_norm,
                abs(float(cp.probs.sum()) + cp.tail_mass - 1.0),
                abs(float(pa.probs.sum()) + pa.tail_mass - 1.0),
            )
    spec = PolyaAeppliSpec(2.0, 0.5).to_compound(64)
    draws = cp_sample(spec, seed=1001, size=1_000_000)
    emp = empirical_pmf(WSampleSet(0, draws))
    tv = tv_distance(emp, cp_pmf(spec, int(draws.max()) + 1))
    ok = worst <= 1e-12 and worst_norm <= 1e-12 and tv <= 0.005
    assert _line(
        "10",
        ok,
        f"grid max gap {worst:.2e}, normalization {worst_norm:.2e}, "
        f"sampler TV {tv:.4f} at M=1e6",
    )


def test_criterion_11a_alternating_ratios_never_settle():
    rats = renewal_ratio_sequence(HouseOfCardsSpec.alternating(0.3, 0.6), range(50, 101))
    spread = float(np.ptp(rats))
    ok = spread > 0.05
    assert _line("11a", ok, f"limsup - liminf = {spread:.5f} over n in [50, 100]")


def test_criterion_11b_drifting_ratio_convergence():
    rats = renewal_ratio_sequence(HouseOfCardsSpec.drifting(0.5, 0.3), [200])
    gap = abs(float(rats[0]) - 0.5)
    ok = gap <= 1e-3
    assert _line("11b", ok, f"|ratio(200) - 1/2| = {gap:.6f} (tolerance 1e-3)")


def test_criterion_12_stein_bracket_decreases():
    profile = MixingProfile("geometric", 1.0, 0.5)
    values = {}
    for n in (20, 40):
        inputs = SteinBracketInputs(
            profile=profile,
            mu=2.0**-n,
            outer=tuple(2.0**-j for j in range(n + 1)),
            n=n,
            k_window=n // 2,
            t=2.0,
        )
        values[n] = stein_bracket(inputs, mode="phi")["value"]
    ok = values[40] < values[20] and values[40] < 1e-2
    assert _line(
        "12", ok, f"bracket {values[20]:.4f} -> {values[40]:.6f} (< 1e-2 at n=40)"
    )


def test_criterion_09a_furstenberg_closed_form():
    matches = 0
    words = []
    for k in (1, 2, 3, 4):
        for word in itertools.product((-1, 1), repeat=k):
            if any(word == word[d:] + word[:d] for d in range(1, k)):
                continue
            words.append(word)
            got = predict_furstenberg(0.3, word, 2.0, strict=False)
            if got.extras["consistency_error"] <= 1e-8:
                matches += 1
    ok = matches == len(words)
    assert _line(
        "09a",
        ok,
        f"case value matches aligned ratio for {matches}/{len(words)} "
        "primitive words of period <= 4 (tolerance 1e-8)",
    )


# ---------------------------------------------------------------------------
# simulation criteria
# ---------------------------------------------------------------------------


def _run(doc, mode="compare", workers=8):
    cfg = config_from_mapping(copy.deepcopy(doc), {"workers": workers})
    return run_experiment(cfg, mode)


@pytest.fixture(scope="module")
def run_length_report():
    doc = {
        "experiment": {
            "t": 2.0,
            "samples": 200_000,
            "seed": 404,
            "tolerance": 0.03,
            "window_forward": 200,
            "window_two_sided": 200,
        },
        "system": {"kind": "house-of-cards", "reset": 0.5},
        "target": {"kind": "run-length", "level": 1, "sweep": [10]},
    }
    return _run(doc)


def test_criterion_04a_run_length_tv(run_length_report):
    tv = run_length_report["results"][0]["tv"]["value"]
    ok = tv <= 0.03
    assert _line("04a", ok, f"TV(empirical W, cluster compound law) = {tv:.4f} at M=2e5")


def test_criterion_04b_run_length_cluster_rates(run_length_report):
    alpha = run_length_report["results"][0]["tables"]["alpha"]
    zs = []
    for k in range(5):
        z = abs(alpha["values"][k] - 0.5 * 0.5**k / 1.0) / alpha["ses"][k]
        zs.append(z)
    detail = ", ".join(f"z_{k + 1}={z:.1f}" for k, z in enumerate(zs))
    ok = all(z <= 3.0 for z in zs)
    assert _line("04b", ok, f"alpha_(k+1)(L=200) vs 0.5*0.5^k: {detail}")


@pytest.fixture(scope="module")
def regenerative_report():
    doc = {
        "experiment": {
            "t": 2.0,
            "samples": 200_000,
            "seed": 505,
            "tolerance": 0.03,
            # Radius 6 keeps every cluster that matters for k <= 5 intact
            # (block lengths past 13 carry < 2^-13 of the hit mass) while
            # halving the rate at which a window swallows a neighbouring
            # cluster, which is what biases lambda_1 at radius 10.
            "window_forward": 6,
            "window_two_sided": 6,
        },
        "system": {
            "kind": "regenerative",
            "symbols": list(range(1, 41)),
            "probs": _geometric_probs(40),
            "lengths": {"model": "shared-geometric", "rate": 0.5, "tail": 1e-12},
        },
        "target": {"kind": "half-line", "sweep": [11]},
    }
    cfg = config_from_mapping(copy.deepcopy(doc), {"workers": 8})
    return run_experiment(cfg, "compare"), cfg.build_system()


def test_criterion_05_regenerative_cluster_law(regenerative_report):
    report, system = regenerative_report
    entry = report["results"][0]
    lam = entry["tables"]["lambda_tilde"]
    q = system.shared_q
    zs = []
    for k in range(1, 6):
        z = abs(lam["values"][k - 1] - q[k - 1] / 2.0) / lam["ses"][k - 1]
        zs.append(z)
    mean_gap = abs(lam["mean_cluster"] - 2.0) / 2.0
    detail = ", ".join(f"z_{k}={z:.1f}" for k, z in enumerate(zs, start=1))
    ok = all(z <= 3.0 for z in zs) and mean_gap <= 0.05
    assert _line(
        "05",
        ok,
        f"lambda_k vs q(k)/2: {detail}; mean cluster off by {100 * mean_gap:.2f}%",
    )


def test_criterion_06_smith_alpha_hat():
    doc = {
        "experiment": {
            "t": 2.0,
            "samples": 60_000,
            "seed": 606,
            "tolerance": 0.03,
            "window_forward": 50,
            "window_two_sided": 50,
        },
        "system": {
            "kind": "regenerative",
            "symbols": list(range(1, 31)),
            "probs": _geometric_probs(30),
            "lengths": {"model": "two-point"},
        },
        "target": {"kind": "half-line", "sweep": [11]},
    }
    report = _run(doc)
    hat = report["results"][0]["tables"]["alpha_hat"]
    gap = abs(hat["values"][1] - 0.5)
    entries = hat["denominator"]
    ok = gap <= 0.05 and entries >= 100_000
    assert _line(
        "06", ok, f"alpha_hat_2(K=50) = 0.5 +- {gap:.4f} from {entries} entries"
    )


def test_criterion_07_periodic_aperiodic_dichotomy():
    base = {
        "experiment": {"t": 2.0, "samples": 200_000, "seed": 707, "tolerance": 0.03},
        "system": {
            "kind": "markov",
            "matrix": [[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]],
        },
        "target": {"kind": "cylinder", "word_cycle": [1], "sweep": [8]},
    }
    fixed = _run(base)["results"][0]
    aper_doc = copy.deepcopy(base)
    aper_doc["target"] = {
        "kind": "cylinder",
        "word": [1, 1, 1, 1, 1, 1, 1, 2],
        "sweep": [8],
    }
    aper = _run(aper_doc)["results"][0]
    tv_fixed = fixed["tv"]["value"]
    tv_aper = aper["tv"]["value"]
    families = (fixed["prediction"]["family"], aper["prediction"]["family"])
    ok = (
        tv_fixed <= 0.03
        and tv_aper <= 0.03
        and families == ("polya-aeppli", "poisson")
    )
    assert _line(
        "07",
        ok,
        f"fixed-point TV {tv_fixed:.4f} vs PA(2, 0.6); "
        f"aperiodic TV {tv_aper:.4f} vs Poisson(2)",
    )


def test_criterion_08_doeblin_synchronization():
    doc = {
        "experiment": {
            "t": 2.0,
            "samples": 100_000,
            "seed": 808,
            "tolerance": 0.03,
            "window_forward": 20,
            "window_two_sided": 20,
        },
        "system": {"kind": "doeblin", "eta": 0.5},
        "target": {"kind": "geo-diagonal", "sweep": [0.02, 0.01, 0.005]},
    }
    report = _run(doc)
    kernel_sup = DoeblinChainSpec(0.5).density_sup
    hats, bounds = [], []
    for entry in report["results"]:
        hats.append(entry["tables"]["alpha_hat"]["values"][1])
        bounds.append(doeblin_alpha2_bound(20, kernel_sup, entry["sweep_value"]))
    tv_small = report["results"][-1]["tv"]["value"]
    below = all(h <= b for h, b in zip(hats, bounds))
    decreasing = hats[0] > hats[1] > hats[2]
    ok = tv_small <= 0.03 and below and decreasing
    assert _line(
        "08",
        ok,
        f"TV {tv_small:.4f} vs Poisson(2) at delta=0.005; alpha_hat_2 = "
        f"{hats[0]:.3f}/{hats[1]:.3f}/{hats[2]:.3f} under bounds "
        f"{bounds[0]:.2f}/{bounds[1]:.2f}/{bounds[2]:.2f}, decreasing={decreasing}",
    )


def test_criterion_09b_sign_cylinder_tv():
    doc = {
        "experiment": {"t": 2.0, "samples": 200_000, "seed": 909, "tolerance": 0.03},
        "system": {"kind": "sign-product", "plus_prob": 0.3},
        "target": {"kind": "sign-cylinder", "word_cycle": [1], "sweep": [8]},
    }
    entry = _run(doc)["results"][0]
    tv = entry["tv"]["value"]
    p = entry["prediction"]["params"]["p"]
    ok = tv <= 0.03 and abs(p - 0.7) < 1e-9
    assert _line("09b", ok, f"all-plus 8-cylinder TV {tv:.4f} vs PA(2, {p:.2f}) at M=2e5")


def test_criterion_13_worker_determinism():
    doc = {
        "experiment": {
            "t": 2.0,
            "samples": 12_288,
            "seed": 1313,
            "tolerance": 0.05,
            "window_forward": 16,
            "window_two_sided": 16,
        },
        "system": {"kind": "house-of-cards", "reset": 0.5},
        "target": {"kind": "run-length", "level": 1, "sweep": [6]},
    }
    bodies = {}
    for workers in (1, 8):
        cfg = config_from_mapping(copy.deepcopy(doc), {"workers": workers})
        bodies[workers] = report_body(run_experiment(cfg, "compare"))
    ok = bodies[1] == bodies[8]
    assert _line("13", ok, f"workers 1 vs 8 report bodies identical: {ok}")
