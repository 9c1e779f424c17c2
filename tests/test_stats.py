import json
import tracemalloc

import numpy as np
import pytest

from visitlab import (
    AlphaEstimates,
    InsufficientDataError,
    SpecError,
    WSampleSet,
    collect_cluster_stats,
    collect_w,
    empirical_pmf,
    estimate_alpha,
    estimate_alpha_hat,
    estimate_lambda_tilde,
    estimate_tables,
    kac_horizon,
)
from visitlab.stats import _extras


def test_kac_horizon_floor():
    assert kac_horizon(2.0, 0.3) == 6
    assert kac_horizon(1.0, 0.5) == 2
    assert kac_horizon(1.0, 1.0) == 1
    with pytest.raises(SpecError):
        kac_horizon(0.0, 0.5)
    with pytest.raises(SpecError):
        kac_horizon(1.0, 0.0)


def test_w_sample_set_merge():
    a = WSampleSet(0, np.array([0, 2, 2]))
    b = WSampleSet(3, np.array([1, 0]))
    merged = a.merge(b)
    assert (merged.start, merged.total) == (0, 5)
    assert merged.values.tolist() == [0, 2, 2, 1, 0]
    empty = np.empty(0, np.int64)
    assert a.merge(WSampleSet(3, empty)).values.tolist() == [0, 2, 2]
    assert WSampleSet(3, empty).merge(b).values.tolist() == [1, 0]
    # only the adjacent range merges: an overlap, a gap and the reverse order fail
    with pytest.raises(SpecError):
        a.merge(WSampleSet(2, np.array([9])))
    with pytest.raises(SpecError):
        a.merge(WSampleSet(4, np.array([9])))
    with pytest.raises(SpecError):
        b.merge(a)
    assert WSampleSet(0, empty).total == 0


def test_collect_w_hand_count():
    ind = np.array([[1, 0, 1, 1], [0, 0, 0, 0]], dtype=bool)
    got = collect_w(ind, horizon=2, start_index=5)
    assert (got.start, got.total) == (5, 2)
    assert got.values.tolist() == [2, 0]
    with pytest.raises(SpecError):
        collect_w(ind, horizon=4)


def test_empirical_pmf_from_counts():
    s = WSampleSet(0, np.array([0, 0, 1, 2, 2, 2]))
    pmf = empirical_pmf(s)
    assert np.allclose(pmf.probs, [1 / 3, 1 / 6, 1 / 2])
    with pytest.raises(InsufficientDataError):
        empirical_pmf(WSampleSet(0, np.empty(0, np.int64)))


def test_cluster_stats_single_row_hand_counts():
    ind = np.array([[1, 1, 0, 0, 1]], dtype=bool)
    stats = collect_cluster_stats(ind, window_l=1, window_k=2, cap=3)
    # hits at 0 and 1 are window-complete; the hit at 4 is edge-discarded
    assert stats.after_l.tolist() == [[1, 1, 0, 0]]
    assert stats.after_k.tolist() == [[1, 1, 0, 0]]
    # the only mid-range position (index 2) carries no hit
    assert stats.around.sum() == 0


def test_cluster_stats_two_sided_hand_counts():
    ind = np.array([[0, 1, 1, 1, 0, 1, 0]], dtype=bool)
    stats = collect_cluster_stats(ind, window_l=1, window_k=2, cap=3)
    assert stats.after_l.tolist() == [[2, 2, 0, 0]]
    # interior hits at 2 and 3 see 3 and 4 hits in their radius-2 windows
    assert stats.around.tolist() == [[0, 0, 1, 1]]


def test_cluster_stats_merge_matches_batch():
    rng = np.random.default_rng(8)
    ind = rng.random((6, 40)) < 0.3
    whole = collect_cluster_stats(ind, window_l=2, window_k=4, cap=5)
    top = collect_cluster_stats(ind[:2], 2, 4, cap=5, start_index=0)
    bottom = collect_cluster_stats(ind[2:], 2, 4, cap=5, start_index=2)
    merged = top.merge(bottom)
    assert np.array_equal(merged.after_l, whole.after_l)
    assert np.array_equal(merged.after_k, whole.after_k)
    assert np.array_equal(merged.around, whole.around)
    assert (merged.start, merged.total) == (0, 6)
    # only the adjacent range merges: a gap, an overlap and the reverse order fail
    with pytest.raises(SpecError):
        top.merge(collect_cluster_stats(ind[:1], 2, 4, cap=5, start_index=9))
    with pytest.raises(SpecError):
        top.merge(collect_cluster_stats(ind[:1], 2, 4, cap=5, start_index=1))
    with pytest.raises(SpecError):
        bottom.merge(top)
    with pytest.raises(SpecError):
        top.merge(collect_cluster_stats(ind[2:3], 2, 3, cap=5, start_index=2))


def _cluster_stats_reference(ind, window_l, window_k, cap):
    """Window counts from an int64 running sum over every row."""
    m, t_len = ind.shape
    c = np.zeros((m, t_len + 1), dtype=np.int64)
    np.cumsum(ind, axis=1, out=c[:, 1:])

    def hist(rows, vals):
        out = np.zeros((m, cap + 1), np.int32)
        np.add.at(out, (rows, np.minimum(vals, cap)), 1)
        return out

    def forward(window):
        if t_len <= window:
            return np.zeros((m, cap + 1), np.int32)
        rows, cols = np.nonzero(ind[:, : t_len - window])
        return hist(rows, c[rows, cols + window + 1] - c[rows, cols + 1])

    around = np.zeros((m, cap + 1), np.int32)
    if t_len > 2 * window_k:
        rows, cols = np.nonzero(ind[:, window_k : t_len - window_k])
        i = cols + window_k
        around = hist(rows, c[rows, i + window_k + 1] - c[rows, i - window_k] - 1)
    return forward(window_l), forward(window_k), around


@pytest.mark.parametrize("density", [0.001, 0.05, 0.5])
def test_cluster_stats_equal_running_sum_reference(density):
    rng = np.random.default_rng(int(density * 1000))
    # (rows, t_len, L, K): generic, t_len <= L, t_len <= 2K, a single column
    for rows, t_len, window_l, window_k in (
        (300, 400, 3, 7),
        (40, 200, 200, 9),
        (40, 30, 4, 15),
        (40, 1, 1, 1),
    ):
        ind = rng.random((rows, t_len)) < density
        got = collect_cluster_stats(ind, window_l, window_k, cap=6, start_index=11)
        want = _cluster_stats_reference(ind, window_l, window_k, cap=6)
        for name, ref in zip(("after_l", "after_k", "around"), want):
            arr = getattr(got, name)
            assert arr.dtype == np.int32 and np.array_equal(arr, ref), (t_len, name)
        assert (got.start, got.total) == (11, rows)


def test_cluster_stats_of_an_empty_indicator():
    for shape in ((5, 40), (0, 40)):
        stats = collect_cluster_stats(np.zeros(shape, dtype=bool), 3, 4, cap=5)
        for name in ("after_l", "after_k", "around"):
            arr = getattr(stats, name)
            assert arr.shape == (shape[0], 6) and not arr.any()


def _random_stats(seed=3, rows=400, cols=120):
    rng = np.random.default_rng(seed)
    ind = rng.random((rows, cols)) < 0.25
    return collect_cluster_stats(ind, window_l=3, window_k=5, cap=8)


def test_alpha_table_sums_to_one():
    est = estimate_alpha(_random_stats())
    assert est.kind == "alpha"
    assert np.isclose(est.values.sum(), 1.0, atol=1e-12)
    assert est.values[0] == pytest.approx(est.extras["extremal_index"])
    assert est.denominator > 0 and np.all(est.ses >= 0.0)


def test_alpha_hat_table_is_monotone_from_one():
    est = estimate_alpha_hat(_random_stats())
    assert est.values[0] == 1.0
    assert np.all(np.diff(est.values) <= 1e-15)


def test_lambda_tilde_size_biased_identity():
    est = estimate_lambda_tilde(_random_stats())
    ell = np.arange(1, est.values.size + 1)
    # sum_l l * lambda_l = 1 exactly: each interior hit lands in one bucket
    assert np.isclose(float((est.values * ell).sum()), 1.0, atol=1e-12)
    assert est.extras["mean_cluster"] == pytest.approx(1.0 / est.values.sum())


def test_alpha_matches_iid_population_value():
    # iid hits at rate 0.3 with a forward window of one step: the chance of
    # no further hit is 0.7
    rng = np.random.default_rng(42)
    ind = rng.random((2000, 100)) < 0.3
    stats = collect_cluster_stats(ind, window_l=1, window_k=1, cap=4)
    est = estimate_alpha(stats)
    z = abs(est.values[0] - 0.7) / est.ses[0]
    assert z < 4.0


def test_bootstrap_errors_are_seeded():
    stats = _random_stats()
    a = estimate_alpha(stats, seed=11)
    b = estimate_alpha(stats, seed=11)
    c = estimate_alpha(stats, seed=12)
    assert np.array_equal(a.ses, b.ses)
    assert not np.array_equal(a.ses, c.ses)


def test_insufficient_data_reports_count():
    tiny = collect_cluster_stats(np.zeros((3, 30), dtype=bool), 2, 2)
    with pytest.raises(InsufficientDataError) as exc:
        estimate_alpha(tiny)
    assert exc.value.count == 0
    with pytest.raises(InsufficientDataError):
        estimate_lambda_tilde(tiny)


def test_estimates_flatten_to_plain_dict():
    d = estimate_lambda_tilde(_random_stats()).as_dict()
    assert d["kind"] == "lambda_tilde"
    assert "mean_cluster" in d and "mean_cluster_se" in d
    assert isinstance(d["values"][0], float)


def _per_table_reference(stats, resamples=200, seed=0):
    """Each table with its own generator and its own loop of resamples."""

    def bootstrap(num_rows, den_rows):
        rng = np.random.default_rng(seed)
        m = den_rows.shape[0]
        reps = np.empty((resamples, num_rows.shape[1]))
        for b in range(resamples):
            weights = np.bincount(rng.integers(0, m, m), minlength=m).astype(np.float64)
            d = weights @ den_rows.astype(np.float64)
            reps[b] = (weights @ num_rows.astype(np.float64)) / d if d > 0 else np.nan
        return reps

    out = {}
    den = stats.after_l.sum(axis=1, dtype=np.int64)
    values = stats.after_l.sum(axis=0, dtype=np.int64) / den.sum()
    ses = np.nanstd(bootstrap(stats.after_l, den), axis=0, ddof=1)
    out["alpha"] = (values, ses, {"extremal_index": values[0], "extremal_index_se": ses[0]})
    den = stats.after_k.sum(axis=1, dtype=np.int64)
    tails = np.cumsum(stats.after_k[:, ::-1], axis=1)[:, ::-1]
    values = tails.sum(axis=0, dtype=np.int64) / den.sum()
    out["alpha_hat"] = (values, np.nanstd(bootstrap(tails, den), axis=0, ddof=1), {})
    den = stats.around.sum(axis=1, dtype=np.int64)
    ell = np.arange(1, stats.cap + 2, dtype=np.float64)
    values = stats.around.sum(axis=0, dtype=np.int64) / den.sum() / ell
    reps = bootstrap(stats.around, den) / ell
    sum_rep = np.nansum(reps, axis=1)
    out["lambda_tilde"] = (
        values,
        np.nanstd(reps, axis=0, ddof=1),
        {"mean_cluster": 1.0 / values.sum(), "mean_cluster_se": np.nanstd(1.0 / sum_rep, ddof=1)},
    )
    return out


@pytest.mark.parametrize("seed", [0, 11])
def test_shared_bootstrap_equals_one_generator_per_table(seed):
    stats = _random_stats()
    tables = estimate_tables(stats, resamples=50, seed=seed)
    want = _per_table_reference(stats, resamples=50, seed=seed)
    assert list(tables) == ["alpha", "alpha_hat", "lambda_tilde"]
    for kind, (values, ses, extras) in want.items():
        got = tables[kind]
        assert got.kind == kind
        assert np.array_equal(got.values, values) and np.array_equal(got.ses, ses), kind
        assert got.extras == {k: float(v) for k, v in extras.items()}, kind


def test_insufficient_tables_are_returned_in_place():
    stats = _random_stats(rows=2, cols=60)
    counts = {k: int(getattr(stats, h).sum()) for k, h in
              (("alpha", "after_l"), ("alpha_hat", "after_k"), ("lambda_tilde", "around"))}
    threshold = sorted(counts.values())[1]
    tables = estimate_tables(stats, min_count=threshold)
    for kind, count in counts.items():
        est = tables[kind]
        if count < threshold:
            assert isinstance(est, InsufficientDataError) and est.count == count
        else:
            assert est.denominator == count
    assert sum(isinstance(e, InsufficientDataError) for e in tables.values()) >= 1


def _one_matrix_reference(stats, min_count, resamples, seed):
    """The tables as an int64 column stack and one (resamples, M) weight matrix,
    flattened as the report prints them."""
    tails = np.cumsum(stats.after_k[:, ::-1], axis=1)[:, ::-1]
    layout = (
        ("alpha", stats.after_l, stats.after_l, stats.window_l),
        ("alpha_hat", stats.after_k, tails, stats.window_k),
        ("lambda_tilde", stats.around, stats.around, stats.window_k),
    )
    out, counted = {}, []
    for kind, hist, num, window in layout:
        den = hist.sum(axis=1, dtype=np.int64)
        if int(den.sum()) < min_count:
            out[kind] = {"insufficient_data": True, "count": int(den.sum())}
        else:
            counted.append((kind, num, den, int(den.sum()), window))
    if not counted:
        return out
    columns = np.column_stack([c for _, num, den, *_ in counted for c in (num, den)])
    columns = columns.astype(np.float64)
    m = stats.total
    rng = np.random.default_rng(seed)
    weights = np.empty((resamples, m))
    for row in weights:
        row[:] = np.bincount(rng.integers(0, m, m), minlength=m)
    sums = weights @ columns
    ell = np.arange(1, stats.cap + 2, dtype=np.float64)
    lo = 0
    for kind, num, _, count, window in counted:
        hi = lo + num.shape[1]
        d = sums[:, hi : hi + 1]
        reps = np.full((resamples, hi - lo), np.nan)
        np.divide(sums[:, lo:hi], d, out=reps, where=d > 0)
        lo = hi + 1
        totals = num.sum(axis=0, dtype=np.int64)
        values = totals / count
        if kind == "lambda_tilde":
            values, reps = values / ell, reps / ell
        ses = np.nanstd(reps, axis=0, ddof=1)
        out[kind] = AlphaEstimates(
            kind, values, ses, count, window, int(totals[-1]), _extras(kind, values, ses, reps)
        ).as_dict()
    return {kind: out[kind] for kind, *_ in layout}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("m", [1, 3, 8192])
@pytest.mark.parametrize("resamples", [1, 15, 16, 17, 50, 200])
def test_blocked_bootstrap_equals_one_weight_matrix(m, resamples):
    stats = _random_stats(seed=m, rows=m, cols=max(120, 4000 // m))
    got = {
        kind: {"insufficient_data": True, "count": est.count}
        if isinstance(est, InsufficientDataError) else est.as_dict()
        for kind, est in estimate_tables(stats, min_count=50, resamples=resamples, seed=9).items()
    }
    want = _one_matrix_reference(stats, 50, resamples, 9)
    assert any("values" in table for table in want.values())
    # json prints each float's shortest round-trip repr, NaN included
    assert json.dumps(got) == json.dumps(want)


def test_bootstrap_memory_does_not_grow_with_resamples():
    # 50,000 trajectories: one (200, M) float weight matrix alone is 80 MB
    stats = _random_stats(rows=50_000, cols=40)
    columns_nbytes = stats.total * 3 * (stats.cap + 1) * 8
    tracemalloc.start()
    try:
        tables = estimate_tables(stats, resamples=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(isinstance(t, AlphaEstimates) for t in tables.values())
    assert peak < columns_nbytes + 16 * 2**20, (peak, columns_nbytes)

