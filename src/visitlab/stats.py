"""Empirical visit statistics: W samples, cluster windows, and ratio estimators.

Accumulators are value objects over one contiguous range of trajectories,
given by its start and its length.  Partial results from blocks and workers
merge end to end, each range starting where the last one ends, by one
concatenation of all the parts, which is exact and reproducible.  The three
cluster tables are ratios of integer counts; their standard errors come from
one trajectory bootstrap, whose resampling weights all three tables share.
The weights come in blocks of 16 resamples, so the bootstrap's memory is
O(M) in the number M of trajectories, whatever the number of resamples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compound import DiscretePMF
from .errors import InsufficientDataError, SpecError

# bootstrap resamples drawn and weighted per block in :func:`estimate_tables`
_RESAMPLE_BLOCK = 16


def kac_horizon(t: float, mu_value: float) -> int:
    """Largest window index N = floor(t / mu); W sums indicators 0..N."""
    if not (mu_value > 0.0):
        raise SpecError("target measure must be positive")
    if t <= 0.0:
        raise SpecError("time scale t must be positive")
    horizon = np.floor(t / mu_value)
    if not np.isfinite(horizon):
        raise SpecError(f"the Kac horizon t / mu = {t} / {mu_value:.3g} overflows a float")
    return int(horizon)


def _require_end_to_end(parts) -> None:
    """Reject a merge unless every part starts where the one before it ends."""
    for first, second in zip(parts, parts[1:]):
        if second.start != first.start + first.total:
            raise SpecError(
                f"expected trajectories from {first.start + first.total}, "
                f"got a range from {second.start}"
            )


@dataclass(frozen=True)
class WSampleSet:
    """Visit counts of trajectories start, start + 1, ..., start + total - 1."""

    start: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        val = np.asarray(self.values, dtype=np.int64)
        if val.ndim != 1:
            raise SpecError("values must be a vector")
        object.__setattr__(self, "values", val)

    @property
    def total(self) -> int:
        return int(self.values.size)

    @classmethod
    def concat(cls, parts) -> "WSampleSet":
        """The ranges of ``parts`` end to end; each must start where the one before it ends."""
        _require_end_to_end(parts)
        return cls(parts[0].start, np.concatenate([p.values for p in parts]))

    def merge(self, other: "WSampleSet") -> "WSampleSet":
        """This range followed by ``other``, which must start where it ends."""
        return WSampleSet.concat([self, other])


def collect_w(indicators, horizon: int, start_index: int = 0) -> WSampleSet:
    """W per trajectory: sum of indicator columns 0..horizon inclusive, counted
    in the smallest unsigned dtype that holds horizon + 1."""
    ind = np.atleast_2d(np.asarray(indicators, dtype=bool))
    if ind.shape[1] < horizon + 1:
        raise SpecError("indicator rows shorter than the requested horizon")
    counts = ind[:, : horizon + 1].view(np.uint8).sum(
        axis=1, dtype=np.min_scalar_type(horizon + 1)
    )
    return WSampleSet(start_index, counts)


def empirical_pmf(samples: WSampleSet) -> DiscretePMF:
    if samples.total < 1:
        raise InsufficientDataError("empty W sample set", count=0)
    probs = np.bincount(samples.values) / samples.total
    return DiscretePMF(probs, 0.0)


# ---------------------------------------------------------------------------
# cluster-window accumulators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterStats:
    """Histogram rows for the three window statistics, one per trajectory
    start, start + 1, ..., start + total - 1.

    after_l[i, j]: hits with exactly j further hits in the next window_l steps
    (j capped; the last column collects overflow).  after_k is the same with
    window_k.  around[i, z-1]: mid-trajectory hits whose two-sided window of
    radius window_k holds exactly z hits, the hit itself included.
    """

    start: int
    after_l: np.ndarray = field(repr=False)
    after_k: np.ndarray = field(repr=False)
    around: np.ndarray = field(repr=False)
    window_l: int
    window_k: int
    cap: int

    def __post_init__(self):
        n = self.total
        for name in ("after_l", "after_k", "around"):
            a = getattr(self, name)
            if a.shape != (n, self.cap + 1):
                raise SpecError(f"{name} must have shape (n, cap + 1)")

    @property
    def total(self) -> int:
        return int(self.after_l.shape[0])

    @classmethod
    def concat(cls, parts) -> "ClusterStats":
        """The ranges of ``parts`` end to end; each must start where the one
        before it ends, and all must share their windows and cap."""
        _require_end_to_end(parts)
        first = parts[0]
        windows = (first.window_l, first.window_k, first.cap)
        if any((p.window_l, p.window_k, p.cap) != windows for p in parts):
            raise SpecError("cannot merge cluster stats with different windows")
        return cls(
            first.start,
            *(np.concatenate([getattr(p, name) for p in parts])
              for name in ("after_l", "after_k", "around")),
            *windows,
        )

    def merge(self, other: "ClusterStats") -> "ClusterStats":
        """This range followed by ``other``, which must start where it ends."""
        return ClusterStats.concat([self, other])


def _row_hist(rows: np.ndarray, vals: np.ndarray, n_rows: int, cap: int, dtype) -> np.ndarray:
    """Per-row histogram of clipped values via one flat bincount."""
    clipped = np.minimum(vals, cap)
    flat = rows * (cap + 1) + clipped
    out = np.bincount(flat, minlength=n_rows * (cap + 1))
    return out.reshape(n_rows, cap + 1).astype(dtype)


def collect_cluster_stats(
    indicators,
    window_l: int,
    window_k: int,
    cap: int,
    start_index: int = 0,
) -> ClusterStats:
    """Window statistics for a batch of indicator rows.

    Hits whose forward window of length L (resp. K) would cross the end of
    the indicator range are not counted as entries; hits within K of either
    end are left out of the two-sided histogram.  A row holds at most t_len
    hits, so every histogram is stored in the smallest unsigned dtype that
    holds t_len, as paths are.
    """
    ind = np.atleast_2d(np.asarray(indicators, dtype=bool))
    m, t_len = ind.shape
    if min(window_l, window_k) < 1:
        raise SpecError("window radii must be >= 1")
    dtype = np.min_scalar_type(t_len)
    # sorted flat hit positions; every counted window lies inside its row,
    # so a window's hits are a range of flat positions found by bisection
    flat = np.flatnonzero(ind)
    rows, cols = np.divmod(flat, max(t_len, 1))

    def forward(window: int) -> np.ndarray:
        if t_len <= window:
            return np.zeros((m, cap + 1), dtype)
        sel = np.flatnonzero(cols < t_len - window)
        further = np.searchsorted(flat, flat[sel] + window, side="right") - sel - 1
        return _row_hist(rows[sel], further, m, cap, dtype)

    after_l = forward(window_l)
    after_k = forward(window_k)

    if t_len > 2 * window_k:
        sel = np.flatnonzero((cols >= window_k) & (cols < t_len - window_k))
        mid = flat[sel]
        around_counts = np.searchsorted(flat, mid + window_k, side="right") - np.searchsorted(
            flat, mid - window_k, side="left"
        )
        around = _row_hist(rows[sel], around_counts - 1, m, cap, dtype)
    else:
        around = np.zeros((m, cap + 1), dtype)

    return ClusterStats(start_index, after_l, after_k, around, window_l, window_k, cap)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaEstimates:
    """Point estimates with bootstrap standard errors for one window statistic."""

    kind: str
    values: np.ndarray
    ses: np.ndarray
    denominator: int
    window: int
    overflow: int
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "window": self.window,
            "denominator": self.denominator,
            "overflow": self.overflow,
            "values": [float(v) for v in self.values],
            "ses": [float(s) for s in self.ses],
        }
        out.update({k: float(v) for k, v in self.extras.items()})
        return out


def estimate_tables(
    stats: ClusterStats,
    min_count: int = 100,
    resamples: int = 200,
    seed: int = 0,
) -> dict:
    """The three cluster tables, keyed ``alpha``, ``alpha_hat`` and ``lambda_tilde``.

    Each table is a column-wise ratio of integer counts summed over rows, and
    each row's denominator is its number of counted hits.  A table counting
    fewer than ``min_count`` hits holds an :class:`InsufficientDataError`.
    One set of ``resamples`` trajectory-bootstrap weight vectors, drawn from
    ``default_rng(seed)``, gives the standard errors of every table.

    * alpha_k(L): fraction of window-complete hits with exactly k-1 further
      hits in L.  Index k runs 1..cap+1; the final slot aggregates everything
      beyond the cap, which keeps sum_k alpha_k = 1 exactly on any sample.
    * alpha_hat_l(K): fraction with >= l-1 further hits in K, exactly
      nonincreasing in l with alpha_hat_1 = 1.
    * lambda_tilde_l(K): (1/l) x fraction of mid hits (at distance >= K from
      both indicator ends) seeing exactly l hits.  The mean cluster size
      1 / sum_l lambda_tilde_l rides along in the extras.

    Equal trajectory rows are grouped exactly, and a resample's weight on a
    group is the number of its draws that land in the group, so the weights
    are drawn for the trajectories but applied to the U distinct rows alone.
    They are drawn and applied in blocks of 16 resamples, so besides a float
    copy of the distinct rows this takes O(M) memory for M trajectories,
    whatever the number of resamples.
    """
    layout = (
        ("alpha", stats.after_l, stats.window_l),
        ("alpha_hat", stats.after_k, stats.window_k),
        ("lambda_tilde", stats.around, stats.window_k),
    )
    tables, counted = {}, []
    for kind, hist, window in layout:
        totals = hist.sum(axis=0, dtype=np.int64)
        count = int(totals.sum())
        if count < min_count:
            tables[kind] = InsufficientDataError(
                f"only {count} counted hits for {kind} (< {min_count})", count=count
            )
        else:
            counted.append((kind, hist, totals, count, window))
    if not counted:
        return tables
    m, width = stats.total, stats.cap + 1
    group, distinct = _distinct_rows(
        [hist for _, hist, *_ in counted], [totals for _, _, totals, *_ in counted]
    )
    # per resample (a row of weights), the weighted column sums, a block of
    # 16 resamples at a time in one reused weight matrix; every weight and
    # count is an integer below 2**53, so every sum below, and every sum of
    # sums, is exact in any order, and grouping the rows changes no sum
    rng = np.random.default_rng(seed)
    sums = np.empty((resamples, distinct.shape[1]))
    weights = np.empty((min(_RESAMPLE_BLOCK, resamples), len(distinct)))
    for lo in range(0, resamples, _RESAMPLE_BLOCK):
        block = weights[: min(_RESAMPLE_BLOCK, resamples - lo)]
        for row in block:
            row[:] = np.bincount(group.take(rng.integers(0, m, m)), minlength=len(distinct))
        np.matmul(block, distinct, out=sums[lo : lo + len(block)])
    ell = np.arange(1, width + 1, dtype=np.float64)
    for i, (kind, _, totals, count, window) in enumerate(counted):
        num = sums[:, i * width : (i + 1) * width]
        d = num.sum(axis=1, keepdims=True)  # the resample's counted hits
        if kind == "alpha_hat":
            # tail sums: column l-1 counts hits with >= l-1 further hits
            num = np.cumsum(num[:, ::-1], axis=1)[:, ::-1]
            totals = np.cumsum(totals[::-1])[::-1]
        reps = np.full((resamples, width), np.nan)
        np.divide(num, d, out=reps, where=d > 0)
        values = totals / count
        if kind == "lambda_tilde":
            values, reps = values / ell, reps / ell
        ses = np.nanstd(reps, axis=0, ddof=1)
        tables[kind] = AlphaEstimates(
            kind, values, ses, count, window, int(totals[-1]), _extras(kind, values, ses, reps)
        )
    return {kind: tables[kind] for kind, *_ in layout}


def _distinct_rows(hists, totals) -> tuple:
    """``(group, distinct)`` for histograms that share their rows, with
    ``totals[i]`` the column sums of ``hists[i]``.

    A trajectory's row is its row of every histogram, side by side;
    ``distinct`` holds each distinct row once, as floats, and ``group[i]`` is
    the index of trajectory i's row in it.  The rows are sorted by one
    ``np.lexsort`` over the columns that hold a count (a nonzero total), one
    column at a time, with no full-size copy of the rows.
    """
    keys = [hist[:, j] for hist, tot in zip(hists, totals) for j in np.flatnonzero(tot)]
    m = len(hists[0])
    order = np.lexsort(keys) if keys else np.arange(m)
    # first[i]: sorted row i starts a group
    first = np.zeros(m, dtype=bool)
    first[:1] = True
    for key in keys:
        ranked = key[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    group = np.empty(m, dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    starts = order[first]
    distinct = np.concatenate(
        [hist.take(starts, axis=0) for hist in hists], axis=1, dtype=np.float64
    )
    return group, distinct


def _extras(kind: str, values, ses, reps) -> dict:
    if kind == "alpha":
        return {"extremal_index": float(values[0]), "extremal_index_se": float(ses[0])}
    if kind == "lambda_tilde":
        sum_rep = np.nansum(reps, axis=1)
        total = values.sum()
        return {
            "mean_cluster": float(1.0 / total) if total > 0 else float("inf"),
            "mean_cluster_se": (
                float(np.nanstd(1.0 / sum_rep, ddof=1)) if np.all(sum_rep > 0) else float("nan")
            ),
        }
    return {}


def _sufficient(est) -> AlphaEstimates:
    """A table of :func:`estimate_tables`, or its error raised."""
    if isinstance(est, InsufficientDataError):
        raise est
    return est


def estimate_alpha(
    stats: ClusterStats, min_entries: int = 100, resamples: int = 200, seed: int = 0
) -> AlphaEstimates:
    """The ``alpha`` table of :func:`estimate_tables`; raises when it is insufficient."""
    return _sufficient(estimate_tables(stats, min_entries, resamples, seed)["alpha"])


def estimate_alpha_hat(
    stats: ClusterStats, min_entries: int = 100, resamples: int = 200, seed: int = 0
) -> AlphaEstimates:
    """The ``alpha_hat`` table of :func:`estimate_tables`; raises when it is insufficient."""
    return _sufficient(estimate_tables(stats, min_entries, resamples, seed)["alpha_hat"])


def estimate_lambda_tilde(
    stats: ClusterStats, min_hits: int = 100, resamples: int = 200, seed: int = 0
) -> AlphaEstimates:
    """The ``lambda_tilde`` table of :func:`estimate_tables`; raises when it is insufficient."""
    return _sufficient(estimate_tables(stats, min_hits, resamples, seed)["lambda_tilde"])
