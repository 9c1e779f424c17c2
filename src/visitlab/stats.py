"""Empirical visit statistics: W samples, cluster windows, and ratio estimators.

Accumulators are value objects over one contiguous range of trajectory
indices.  Partial results from blocks and workers merge end to end, in index
order, by concatenation, which is exact and reproducible.  All estimators
are ratios of integer counts; standard errors come from a block bootstrap
with the trajectory as the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compound import DiscretePMF
from .errors import InsufficientDataError, SpecError


def kac_horizon(t: float, mu_value: float) -> int:
    """Largest window index N = floor(t / mu); W sums indicators 0..N."""
    if not (mu_value > 0.0):
        raise SpecError("target measure must be positive")
    if t <= 0.0:
        raise SpecError("time scale t must be positive")
    return int(np.floor(t / mu_value))


def _require_range(idx: np.ndarray) -> None:
    """Reject indices that are not one ascending contiguous range; a merge
    across a gap, an overlap or in the wrong order fails here."""
    if idx.size and not np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
        raise SpecError("trajectory indices must form one ascending contiguous range")


@dataclass(frozen=True)
class WSampleSet:
    """Visit counts of one contiguous, ascending range of trajectories."""

    indices: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.int64)
        if idx.shape != val.shape or idx.ndim != 1:
            raise SpecError("indices and values must be equal-length vectors")
        _require_range(idx)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def total(self) -> int:
        return int(self.indices.size)

    def counts(self) -> dict:
        """Histogram {W value: occurrences}."""
        if self.total == 0:
            return {}
        b = np.bincount(self.values)
        return {int(k): int(c) for k, c in enumerate(b) if c > 0}

    def merge(self, other: "WSampleSet") -> "WSampleSet":
        """This range followed by ``other``, which must start where it ends."""
        idx = np.concatenate([self.indices, other.indices])
        return WSampleSet(idx, np.concatenate([self.values, other.values]))

    @classmethod
    def empty(cls) -> "WSampleSet":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64))


def collect_w(indicators, horizon: int, start_index: int = 0) -> WSampleSet:
    """W per trajectory: sum of indicator columns 0..horizon inclusive."""
    ind = np.atleast_2d(np.asarray(indicators))
    if ind.shape[1] < horizon + 1:
        raise SpecError("indicator rows shorter than the requested horizon")
    w = ind[:, : horizon + 1].sum(axis=1, dtype=np.int64)
    idx = np.arange(start_index, start_index + ind.shape[0], dtype=np.int64)
    return WSampleSet(idx, w)


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
    """Histogram rows for the three window statistics, one per trajectory of
    one contiguous, ascending range.

    after_l[i, j]: hits with exactly j further hits in the next window_l steps
    (j capped; the last column collects overflow).  after_k is the same with
    window_k.  around[i, z-1]: mid-trajectory hits whose two-sided window of
    radius window_k holds exactly z hits, the hit itself included.
    """

    indices: np.ndarray = field(repr=False)
    after_l: np.ndarray = field(repr=False)
    after_k: np.ndarray = field(repr=False)
    around: np.ndarray = field(repr=False)
    window_l: int
    window_k: int
    cap: int

    def __post_init__(self):
        _require_range(self.indices)
        n = self.indices.size
        for name in ("after_l", "after_k", "around"):
            a = getattr(self, name)
            if a.shape != (n, self.cap + 1):
                raise SpecError(f"{name} must have shape (n, cap + 1)")

    def merge(self, other: "ClusterStats") -> "ClusterStats":
        """This range followed by ``other``, which must start where it ends."""
        if (self.window_l, self.window_k, self.cap) != (
            other.window_l,
            other.window_k,
            other.cap,
        ):
            raise SpecError("cannot merge cluster stats with different windows")
        return ClusterStats(
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.after_l, other.after_l]),
            np.concatenate([self.after_k, other.after_k]),
            np.concatenate([self.around, other.around]),
            self.window_l,
            self.window_k,
            self.cap,
        )


def _row_hist(rows: np.ndarray, vals: np.ndarray, n_rows: int, cap: int) -> np.ndarray:
    """Per-row histogram of clipped values via one flat bincount."""
    clipped = np.minimum(vals, cap)
    flat = rows * (cap + 1) + clipped
    out = np.bincount(flat, minlength=n_rows * (cap + 1))
    return out.reshape(n_rows, cap + 1).astype(np.int32)


def collect_cluster_stats(
    indicators,
    window_l: int,
    window_k: int,
    cap: int = 16,
    start_index: int = 0,
) -> ClusterStats:
    """Window statistics for a batch of indicator rows.

    Hits whose forward window of length L (resp. K) would cross the end of
    the indicator range are not counted as entries; hits within K of either
    end are left out of the two-sided histogram.
    """
    ind = np.atleast_2d(np.asarray(indicators, dtype=bool))
    m, t_len = ind.shape
    if min(window_l, window_k) < 1:
        raise SpecError("window radii must be >= 1")
    # sorted flat hit positions; every counted window lies inside its row,
    # so a window's hits are a range of flat positions found by bisection
    flat = np.flatnonzero(ind)
    rows, cols = np.divmod(flat, max(t_len, 1))

    def forward(window: int) -> np.ndarray:
        if t_len <= window:
            return np.zeros((m, cap + 1), np.int32)
        sel = np.flatnonzero(cols < t_len - window)
        further = np.searchsorted(flat, flat[sel] + window, side="right") - sel - 1
        return _row_hist(rows[sel], further, m, cap)

    after_l = forward(window_l)
    after_k = forward(window_k)

    if t_len > 2 * window_k:
        sel = np.flatnonzero((cols >= window_k) & (cols < t_len - window_k))
        mid = flat[sel]
        around_counts = np.searchsorted(flat, mid + window_k, side="right") - np.searchsorted(
            flat, mid - window_k, side="left"
        )
        around = _row_hist(rows[sel], around_counts - 1, m, cap)
    else:
        around = np.zeros((m, cap + 1), np.int32)

    idx = np.arange(start_index, start_index + m, dtype=np.int64)
    return ClusterStats(idx, after_l, after_k, around, window_l, window_k, cap)


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


def _bootstrap_tables(num_rows, den_rows, resamples, rng):
    """Bootstrap replicates of columnwise ratios sum(num)/sum(den) over rows."""
    m = den_rows.shape[0]
    num = num_rows.astype(np.float64)
    den = den_rows.astype(np.float64)
    reps = np.empty((resamples, num.shape[1]))
    for b in range(resamples):
        weights = np.bincount(rng.integers(0, m, m), minlength=m).astype(np.float64)
        d = weights @ den
        reps[b] = (weights @ num) / d if d > 0 else np.nan
    return reps


def estimate_alpha(
    stats: ClusterStats,
    min_entries: int = 100,
    resamples: int = 200,
    seed: int = 0,
) -> AlphaEstimates:
    """alpha_k(L): fraction of counted hits with exactly k-1 further hits in L.

    Index k runs 1..cap+1; the final slot aggregates everything beyond the
    cap, which keeps sum_k alpha_k = 1 exactly on any sample.
    """
    entries_per_row = stats.after_l.sum(axis=1, dtype=np.int64)
    entries = int(entries_per_row.sum())
    if entries < min_entries:
        raise InsufficientDataError(
            f"only {entries} window-complete hits (< {min_entries})", count=entries
        )
    totals = stats.after_l.sum(axis=0, dtype=np.int64)
    values = totals / entries
    rng = np.random.default_rng(seed)
    reps = _bootstrap_tables(stats.after_l, entries_per_row, resamples, rng)
    ses = np.nanstd(reps, axis=0, ddof=1)
    theta = float(values[0])
    theta_se = float(ses[0])
    return AlphaEstimates(
        kind="alpha",
        values=values,
        ses=ses,
        denominator=entries,
        window=stats.window_l,
        overflow=int(totals[-1]),
        extras={"extremal_index": theta, "extremal_index_se": theta_se},
    )


def estimate_alpha_hat(
    stats: ClusterStats,
    min_entries: int = 100,
    resamples: int = 200,
    seed: int = 0,
) -> AlphaEstimates:
    """alpha_hat_l(K): fraction of counted hits with >= l-1 further hits in K.

    Exactly nonincreasing in l on every sample, with alpha_hat_1 = 1.
    """
    entries_per_row = stats.after_k.sum(axis=1, dtype=np.int64)
    entries = int(entries_per_row.sum())
    if entries < min_entries:
        raise InsufficientDataError(
            f"only {entries} window-complete hits (< {min_entries})", count=entries
        )
    # tail-cumulative rows: column l-1 counts hits with >= l-1 further hits
    tails = np.cumsum(stats.after_k[:, ::-1], axis=1)[:, ::-1]
    totals = tails.sum(axis=0, dtype=np.int64)
    values = totals / entries
    rng = np.random.default_rng(seed)
    reps = _bootstrap_tables(tails, entries_per_row, resamples, rng)
    ses = np.nanstd(reps, axis=0, ddof=1)
    return AlphaEstimates(
        kind="alpha_hat",
        values=values,
        ses=ses,
        denominator=entries,
        window=stats.window_k,
        overflow=int(stats.after_k[:, -1].sum()),
    )


def estimate_lambda_tilde(
    stats: ClusterStats,
    min_hits: int = 100,
    resamples: int = 200,
    seed: int = 0,
) -> AlphaEstimates:
    """lambda_tilde_l(K): (1/l) x fraction of mid hits seeing exactly l hits.

    Mid hits are those at distance >= K from both indicator ends.  The mean
    cluster size 1 / sum_l lambda_tilde_l rides along in the extras.
    """
    hits_per_row = stats.around.sum(axis=1, dtype=np.int64)
    total = int(hits_per_row.sum())
    if total < min_hits:
        raise InsufficientDataError(
            f"only {total} interior hits (< {min_hits}); all others edge-discarded",
            count=total,
        )
    ell = np.arange(1, stats.cap + 2, dtype=np.float64)
    totals = stats.around.sum(axis=0, dtype=np.int64)
    values = totals / total / ell
    rng = np.random.default_rng(seed)
    reps = _bootstrap_tables(stats.around, hits_per_row, resamples, rng) / ell
    ses = np.nanstd(reps, axis=0, ddof=1)
    sum_rep = np.nansum(reps, axis=1)
    mean_cluster = float(1.0 / values.sum()) if values.sum() > 0 else float("inf")
    mc_se = float(np.nanstd(1.0 / sum_rep, ddof=1)) if np.all(sum_rep > 0) else float("nan")
    return AlphaEstimates(
        kind="lambda_tilde",
        values=values,
        ses=ses,
        denominator=total,
        window=stats.window_k,
        overflow=int(totals[-1]),
        extras={"mean_cluster": mean_cluster, "mean_cluster_se": mc_se},
    )
