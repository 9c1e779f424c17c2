import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from visitlab import (
    CylinderTarget,
    DoeblinChainSpec,
    FactorProductSpec,
    FiniteMarkovSpec,
    GeoDiagonalTarget,
    HalfLineTarget,
    HouseOfCardsSpec,
    IntervalMapSpec,
    ProductChainSpec,
    RegenerativeSpec,
    RunLengthTarget,
    SpecError,
    StructureError,
    SyncCylinderTarget,
    hits,
    measure,
    measure_mc,
    sign_cylinder_measure,
)
from visitlab import runner, systems
from visitlab.stats import kac_horizon
from visitlab.systems import sample_chain
from visitlab.targets import (
    TargetMeasure,
    _match_word,
    _window_all,
    interval_cylinder_measure,
    run_length_measure,
    strip_measure,
)

F = Fraction

EXAMPLE_MAP = IntervalMapSpec(
    breaks=(F(0), F(1, 3), F(2, 3), F(1)),
    slopes=(F(3), F(-2), F(3)),
    intercepts=(F(0), F(5, 3), F(-2)),
)


def test_run_length_measure_halves_per_step():
    # geometric age law: mu = 2^-(n+1) for level 1 resets at rate 1/2
    hoc = HouseOfCardsSpec.constant(0.5)
    for n in (0, 3, 10):
        got = measure(RunLengthTarget(n, level=1), hoc)
        assert got.value == 2.0 ** -(n + 1)
        assert got.se == 0.0 and got.method.startswith("exact")
    lvl2 = measure(RunLengthTarget(0, level=2), hoc)
    assert lvl2.value == 0.25


@pytest.mark.parametrize("r", [0.5, 0.75])
def test_dyadic_run_length_measures_and_horizons_are_exact(r):
    # mu = (1 - r)^(level + n) is a double, so mu and N = floor(t / mu) come out exact
    hoc = HouseOfCardsSpec.constant(r)
    for level in (1, 2, 3):
        for n in range(40):
            exact = (1 - Fraction(r)) ** (level + n)
            mu = run_length_measure(hoc, RunLengthTarget(n, level))
            assert Fraction(mu) == exact, (level, n)
            for t in (1, 2, 3):
                assert kac_horizon(t, mu) == int(Fraction(t) / exact), (level, n, t)


@pytest.mark.parametrize("r", [0.3, 0.1, 0.9])
def test_run_length_measure_is_within_1e13_of_the_rational(r):
    hoc = HouseOfCardsSpec.constant(r)
    for level in (1, 2):
        for n in (0, 1, 5, 10, 30, 100, 300):
            exact = (1 - Fraction(r)) ** (level + n)
            mu = run_length_measure(hoc, RunLengthTarget(n, level))
            assert abs(Fraction(mu) - exact) <= Fraction(1, 10**13) * exact, (level, n)


def _fraction_table_sum(spec, target):
    """sum_{s >= level} pi(s) prod_{u=s}^{s+n-1} (1 - r_u) over the stationary table,
    in Fractions of the table's and the resets' doubles."""
    probs = spec.stationary.probs
    n = target.n
    surv = [1 - Fraction(r) for r in spec.reset_probs(np.arange(probs.size - 1 + n)).tolist()]
    return sum(
        Fraction(float(probs[s])) * math.prod(surv[s : s + n], start=Fraction(1))
        for s in range(target.level, probs.size)
    )


@pytest.mark.parametrize(
    "spec",
    [HouseOfCardsSpec.drifting(0.5, 0.3), HouseOfCardsSpec.alternating(0.2, 0.6)],
    ids=["drifting (0.5, 0.3)", "alternating (0.2, 0.6)"],
)
def test_run_length_measure_matches_the_table_sum_in_fractions(spec):
    for level in (1, 2):
        for n in (0, 1, 4, 12):
            target = RunLengthTarget(n, level)
            exact = _fraction_table_sum(spec, target)
            got = Fraction(run_length_measure(spec, target))
            assert abs(got - exact) <= Fraction(1, 10**13) * exact, (level, n)


@pytest.mark.parametrize(
    "spec, reference",
    [
        (HouseOfCardsSpec.constant(0.01), (1 - Fraction(0.01)) ** 4095),
        # the same table sum, in 60-digit decimal arithmetic
        (HouseOfCardsSpec.drifting(0.01, 0.5), Fraction("1.131826706947032511958135321808360813e-19")),
    ],
    ids=["constant 0.01", "drifting (0.01, 0.5)"],
)
def test_deep_run_length_measures_reach_past_the_table(spec, reference):
    # the table ends at 4,097 states, so a tail sum of it alone would read
    # 2.66e-20 at reset 0.01; the survival products run n states further
    assert spec.stationary.probs.size == 4097
    got = Fraction(run_length_measure(spec, RunLengthTarget(4094, 1)))
    assert abs(got - reference) <= Fraction(1, 10**12) * reference


def test_certain_reset_cuts_the_survival_products():
    # r = 1 at odd states: pi = (2/3, 1/3) and no run outlives one step
    spec = HouseOfCardsSpec.alternating(0.5, 1.0)
    assert run_length_measure(spec, RunLengthTarget(0, 1)) == pytest.approx(1 / 3, rel=1e-15)
    with pytest.raises(StructureError, match="zero stationary measure"):
        measure(RunLengthTarget(1, 1), spec)


def test_half_line_measure_smith_symbols():
    spec = RegenerativeSpec.smith([1, 2, 5], [0.2, 0.3, 0.5])
    got = measure(HalfLineTarget(2), spec)
    # every smith symbol has mean block length 2, so the bias cancels
    assert np.isclose(got.value, 0.8, atol=1e-12)


def test_markov_cylinder_path_product():
    chain = FiniteMarkovSpec(np.array([[0.6, 0.4], [0.3, 0.7]]))
    got = measure(CylinderTarget((0, 1, 1)), chain)
    # pi = (3/7, 4/7); 3/7 * 0.4 * 0.7 = 0.12
    assert np.isclose(got.value, 0.12, atol=1e-12)
    with pytest.raises(StructureError):
        measure(CylinderTarget((0, 2)), chain)
    # a negative letter would read pi[-1]; the sign-product's -1 is no state
    with pytest.raises(StructureError):
        measure(CylinderTarget((1, -1)), chain)


def test_interval_cylinder_exact_fractions():
    assert interval_cylinder_measure(EXAMPLE_MAP, (0,)) == F(1, 5)
    assert interval_cylinder_measure(EXAMPLE_MAP, (0, 1)) == F(1, 15)
    got = measure(CylinderTarget((0,)), EXAMPLE_MAP)
    assert np.isclose(got.value, 0.2, atol=1e-15)
    # the middle branch never returns to the first cell
    with pytest.raises(StructureError):
        interval_cylinder_measure(EXAMPLE_MAP, (1, 0))


def test_sync_measure_independent_product():
    spec = ProductChainSpec(
        (
            FiniteMarkovSpec(np.array([[0.2, 0.8], [0.3, 0.7]])),
            FiniteMarkovSpec(np.array([[0.8, 0.2], [0.1, 0.9]])),
        ),
        "independent",
    )
    # stationary product (3/11, 8/11) x (1/3, 2/3): diagonal mass 19/33,
    # then two agreement steps through [[0.16, 0.16], [0.03, 0.63]]
    got1 = measure(SyncCylinderTarget(1), spec)
    assert np.isclose(got1.value, 19.0 / 33.0, atol=1e-12)
    got3 = measure(SyncCylinderTarget(3), spec)
    assert np.isclose(got3.value, 7.2768 / 33.0, atol=1e-12)


def test_geo_diagonal_strip_area():
    got = measure(GeoDiagonalTarget(0.1), DoeblinChainSpec(0.5))
    assert np.isclose(got.value, 0.19, atol=1e-15)
    # two chains: 2 d - d * d bit for bit, also where d ** 2 rounds differently
    deltas = np.random.default_rng(7).uniform(1e-6, 1.0 - 1e-6, 20_000)
    assert any(d**2 != d * d for d in deltas.tolist())
    two = DoeblinChainSpec(0.5)
    for d in deltas.tolist():
        assert strip_measure(two, GeoDiagonalTarget(d)) == 2.0 * d - d * d, d


@pytest.mark.parametrize("chains", [3, 4])
def test_strip_measure_of_more_chains_matches_monte_carlo(chains):
    spec, target = DoeblinChainSpec(0.5, n_chains=chains), GeoDiagonalTarget(0.3)
    exact = measure(target, spec)
    assert exact.method == "exact:strip-area"
    assert exact.value == pytest.approx(chains * 0.3 ** (chains - 1) - (chains - 1) * 0.3**chains, rel=1e-14)
    mc = measure_mc(target, spec, samples=2000, seed=11)
    assert abs(mc.value - exact.value) < 4.0 * mc.se


def test_one_chain_has_no_diagonal():
    with pytest.raises(SpecError):
        measure(GeoDiagonalTarget(0.1), DoeblinChainSpec(0.5, n_chains=1))


def test_sign_cylinder_measure_exact():
    got = sign_cylinder_measure(F(3, 10), (1,) * 8)
    assert got == (F(3, 10) ** 9 + F(7, 10) ** 9)
    # flipping the whole word swaps the two lifts: same measure
    assert sign_cylinder_measure(F(3, 10), (-1, 1, -1)) == sign_cylinder_measure(
        F(3, 10), (1, -1, 1)
    )
    via_dispatch = measure(CylinderTarget((1,) * 8), FactorProductSpec(0.3))
    assert np.isclose(via_dispatch.value, float(got), atol=1e-15)


def test_hits_hand_counted_run():
    path = np.array([[0, 1, 1, 2, 0]])
    got = hits(path, RunLengthTarget(1, level=1), horizon=3)
    assert np.array_equal(got, [[False, True, True, False]])
    with pytest.raises(SpecError):
        hits(path, RunLengthTarget(1, level=1), horizon=4)


def test_hits_word_match():
    path = np.array([[0, 1, 0, 1, 1, 0, 1]])
    got = hits(path, CylinderTarget((0, 1)), horizon=5)
    assert np.array_equal(got, [[True, False, True, False, False, True]])


# one hits tile holds _TILE_BYTES of paths
_TILE_BYTES = systems._BLOCK_UNIFORMS * 8


def _tiled_cases():
    """(target, paths) pairs whose row counts span several hits tiles."""
    rng = np.random.default_rng(26)

    def rows_for(tiles, row_bytes):
        # a few full tiles and a partial one
        return tiles * (_TILE_BYTES // row_bytes) + 7

    runs = rng.integers(0, 4, (rows_for(3, 2 * 4307), 4307)).astype(np.uint16)
    cells = rng.integers(0, 3, (rows_for(2, 2156), 2156)).astype(np.uint8)
    wide = rng.integers(0, 40, (rows_for(3, 8 * 2000), 2000))
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), (rows_for(2, 600), 600))
    pairs = rng.integers(0, 2, (rows_for(2, 2 * 3000), 3000, 2)).astype(np.uint8)
    reals = rng.random((rows_for(3, 16 * 500), 500, 2))
    # one row that is wider than a tile on its own
    long_row = rng.integers(0, 3, (1, _TILE_BYTES // 8 + 999))
    return [
        (RunLengthTarget(10), runs),
        (RunLengthTarget(2, level=2), long_row),
        (HalfLineTarget(35), wide),
        (CylinderTarget((0, 1, 0, 2)), cells),
        (CylinderTarget((1, 1, -1)), signs),
        (SyncCylinderTarget(3), pairs),
        (GeoDiagonalTarget(0.05), reals),
    ]


def test_tiled_hits_equal_whole_batch_indicators():
    for target, paths in _tiled_cases():
        whole = target.indicators(paths)
        windows = whole.shape[1]
        row_bytes = paths[:1].nbytes
        assert row_bytes > _TILE_BYTES or len(paths) > 2 * (_TILE_BYTES // row_bytes)
        for horizon in (windows - 1, windows // 2):
            got = hits(paths, target, horizon)
            assert got.dtype == bool and got.flags.c_contiguous
            assert np.array_equal(got, whole[:, : horizon + 1]), (target, horizon)
        message = f"paths support {windows} windows, horizon needs {windows + 1}"
        with pytest.raises(SpecError, match=message):
            hits(paths, target, windows)
        empty = hits(paths[:0], target, windows - 1)
        assert empty.shape == (0, windows)
        with pytest.raises(SpecError, match=f"support {windows} windows"):
            hits(paths[:0], target, windows)


def test_one_symbol_targets_refuse_component_paths():
    # product-chain and doeblin paths hold a component axis that these targets
    # would keep; hits, and with it the Monte-Carlo measure, refuses them
    pairs = np.zeros((3, 20, 2), dtype=np.uint8)
    message = "reads one symbol per step and cannot read paths of 2 components"
    for target in (RunLengthTarget(2), HalfLineTarget(1), CylinderTarget((0, 1)), CylinderTarget((1, -1))):
        with pytest.raises(SpecError, match=f"{type(target).__name__} {message}"):
            hits(pairs, target, 10)
    with pytest.raises(SpecError, match=message):
        measure_mc(RunLengthTarget(2), DoeblinChainSpec(0.5), samples=64, seed=1)


def test_hits_peak_is_the_output_and_a_tile():
    # a runlength-long chunk: 973 rows of 4307 uint16 states, 4297 windows
    rng = np.random.default_rng(5)
    paths = rng.integers(0, 3, (973, 4307)).astype(np.uint16)
    target = RunLengthTarget(10)
    tracemalloc.start()
    try:
        out = hits(paths, target, 4296)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # three full-size bool temporaries would add 12.5 MB
    assert out.shape == (973, 4297)
    assert peak < out.nbytes + 4 * _TILE_BYTES, (peak, out.nbytes)


def _match_word_reference(paths, word):
    stop = paths.shape[1] - len(word) + 1
    out = np.ones((paths.shape[0], max(stop, 0)), dtype=bool)
    for j, a in enumerate(word):
        out &= paths[:, j : j + out.shape[1]] == a
    return out


@pytest.mark.parametrize(
    "word", [(0, 1, 2, 1, 0), (1,) * 13, (2, 2, 0, 2), (1,), (0, 1) * 40]
)
def test_match_word_equals_letter_by_letter(word):
    paths = np.random.default_rng(3).integers(0, 3, size=(17, 60))
    got = _match_word(paths, word)
    want = _match_word_reference(paths, word)
    assert got.shape == want.shape and np.array_equal(got, want)
    if len(word) > paths.shape[1]:
        assert got.shape == (17, 0)


def _window_all_reference(mask, w):
    # the int64 running-sum formula: a window is all true iff it sums to w
    c = np.zeros((mask.shape[0], mask.shape[1] + 1), dtype=np.int64)
    np.cumsum(mask, axis=1, out=c[:, 1:])
    return (c[:, w:] - c[:, :-w]) == w


@pytest.mark.parametrize("w", list(range(1, 18)) + [100])
def test_window_all_equals_cumsum_formula(w):
    rng = np.random.default_rng(w)
    for density in (0.5, 0.9, 0.99):
        mask = rng.random((9, 240)) < density
        got = _window_all(mask, w)
        want = _window_all_reference(mask, w)
        assert got.shape == want.shape and got.dtype == bool
        assert np.array_equal(got, want), density
    short = np.ones((3, w - 1), dtype=bool)
    assert _window_all(short, w).shape == (3, 0)


def test_sync_indicators_need_components():
    with pytest.raises(SpecError):
        SyncCylinderTarget(2).indicators(np.zeros((3, 10)))
    paths = np.array([[[0, 0], [1, 1], [1, 0], [2, 2]]])
    got = SyncCylinderTarget(2).indicators(paths)
    assert np.array_equal(got, [[True, False, False]])


def test_outer_family_nests():
    hoc = HouseOfCardsSpec.constant(0.5)
    target = RunLengthTarget(6, level=1)
    mus = [measure(target.outer(j), hoc).value for j in range(0, 7)]
    assert all(a >= b - 1e-15 for a, b in zip(mus, mus[1:]))
    assert np.isclose(mus[-1], measure(target, hoc).value, atol=1e-15)
    # truncation families, one per target class
    assert RunLengthTarget(6, level=2).outer(9) == RunLengthTarget(6, level=2)
    assert RunLengthTarget(6, level=2).outer(0) == RunLengthTarget(0, level=2)
    assert CylinderTarget((0, 1, 1)).outer(2).word == (0, 1)
    assert CylinderTarget((0, 1, 1)).outer(0).word == (0,)
    assert CylinderTarget((1, -1)).outer(5).word == (1, -1)
    assert HalfLineTarget(3).outer(1) == HalfLineTarget(3)
    assert SyncCylinderTarget(4).outer(2) == SyncCylinderTarget(2)
    assert SyncCylinderTarget(4).outer(0) == SyncCylinderTarget(1)
    assert GeoDiagonalTarget(0.1).outer(3) == GeoDiagonalTarget(0.1)


def test_measure_mc_agrees_with_exact():
    hoc = HouseOfCardsSpec.constant(0.5)
    target = RunLengthTarget(3, level=1)
    mc = measure_mc(target, hoc, samples=4000, seed=77)
    assert mc.method == "monte-carlo" and mc.se > 0.0
    assert abs(mc.value - 1.0 / 16.0) < 4.0 * mc.se


def test_measure_falls_back_to_monte_carlo():
    # no closed form is registered for run targets over a finite chain
    chain = FiniteMarkovSpec(np.array([[0.4, 0.6], [0.2, 0.8]]))
    got = measure(RunLengthTarget(2, level=1), chain, samples=2000, seed=5)
    assert got.method == "monte-carlo"
    # stationary P(1,1,1) = 0.8 * 0.64: loose sanity band only
    assert 0.3 < got.value < 0.7


def test_measure_mc_streams_are_pinned(monkeypatch):
    # simulate-only pairs, sampled in chunks of _CHUNK_ELEMS // length paths:
    # 6000 paths of 1608 steps take chunks of 2608, 2608 and 784 paths, drawn
    # row by row; 5000 paths of 66 steps fit one chunk, which draws in one
    # array pass.  The reprs pin both routes.
    calls = []

    def recorded(spec, n, rngs):
        calls.append((len(rngs), n, systems._array_route(rngs, n)))
        return sample_chain(spec, n, rngs)

    monkeypatch.setitem(systems._SAMPLERS, FiniteMarkovSpec, recorded)
    cases = [
        ([[0.02, 0.98], [0.01, 0.99]], RunLengthTarget(200, level=1), 6000,
         ("0.13449017518939393", "0.0013362885511991277"),
         [(2608, 1608, False), (2608, 1608, False), (784, 1608, False)]),
        ([[0.4, 0.6], [0.2, 0.8]], RunLengthTarget(2, level=1), 5000,
         ("0.48101875", "0.0014960401567697416"), [(5000, 66, True)]),
    ]
    for matrix, target, samples, reprs, chunks in cases:
        calls.clear()
        got = measure_mc(target, FiniteMarkovSpec(np.array(matrix)), samples=samples, seed=5)
        assert (repr(got.value), repr(got.se)) == reprs
        assert all(rows * n <= runner._CHUNK_ELEMS for rows, n, _ in calls)
        assert calls == chunks


def test_target_validation():
    with pytest.raises(SpecError):
        TargetMeasure(0.0)
    with pytest.raises(SpecError):
        CylinderTarget(())
    with pytest.raises(SpecError):
        GeoDiagonalTarget(1.5)
    with pytest.raises(SpecError):
        HalfLineTarget(0)
