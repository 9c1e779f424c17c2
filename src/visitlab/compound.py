"""Compound Poisson laws on the nonnegative integers.

The limiting number of visits W is modelled as a Poisson number of clusters
with independent integer cluster sizes.  The parametrisation used throughout
is the vector of per-size rates ``cluster_rates`` = (r_1, ..., r_L): over a
time budget t, size-l clusters arrive at rate t * r_l, so

    W  =  sum of sizes of P points,   P ~ Poisson(t * sum(r)),
    P(size = l) = r_l / sum(r).

Geometric rates r_l = (1 - p)^2 p^(l-1) give the Polya-Aeppli family, whose
PMF also obeys the three-term recurrence implemented in :func:`pa_pmf`; p = 0
degenerates to plain Poisson(t).

All PMFs are finite tables (:class:`DiscretePMF`) with an explicit tail
mass beyond their largest tabulated point, so total-variation computations can
return certified upper bounds even when two tables are truncated differently.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError

# Tolerance for "sums to one" checks on probability tables.
_NORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompoundPoissonSpec:
    """Rate parametrisation of a compound Poisson law.

    Parameters
    ----------
    t : float
        Nonnegative time budget multiplying every rate.
    cluster_rates : np.ndarray
        ``cluster_rates[l-1]`` is the arrival rate of size-``l`` clusters
        (before multiplication by ``t``).  All entries must be nonnegative
        and finite.
    """

    t: float
    cluster_rates: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise SpecError(f"time budget must be finite and >= 0, got {self.t}")
        rates = np.asarray(self.cluster_rates, dtype=float)
        if rates.ndim != 1 or rates.size == 0:
            raise SpecError("cluster_rates must be a nonempty 1-d array")
        if not np.all(np.isfinite(rates)) or np.any(rates < 0):
            raise SpecError("cluster_rates must be finite and nonnegative")
        object.__setattr__(self, "cluster_rates", rates)

    @property
    def total_rate(self) -> float:
        """Poisson intensity of cluster arrivals over the full budget."""
        return self.t * float(np.sum(self.cluster_rates))

    def size_distribution(self) -> np.ndarray:
        """Normalized law of a single cluster size (index 0 <-> size 1)."""
        s = float(np.sum(self.cluster_rates))
        if s <= 0.0:
            raise SpecError("size distribution undefined: all rates are zero")
        return self.cluster_rates / s

    def mean(self) -> float:
        sizes = np.arange(1, self.cluster_rates.size + 1, dtype=float)
        return self.t * float(sizes @ self.cluster_rates)


@dataclass(frozen=True)
class PolyaAeppliSpec:
    """Geometric-cluster compound Poisson law with aggregation parameter p."""

    t: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise SpecError(f"time budget must be finite and >= 0, got {self.t}")
        if not (0.0 <= self.p < 1.0):
            raise SpecError(f"aggregation parameter must lie in [0, 1), got {self.p}")

    def cluster_rates(self, length: int) -> np.ndarray:
        """First ``length`` geometric rates (1-p)^2 p^(l-1)."""
        if length < 1:
            raise SpecError("length must be >= 1")
        l = np.arange(length)
        return (1.0 - self.p) ** 2 * self.p**l

    def to_compound(self, length: int = 64) -> CompoundPoissonSpec:
        return CompoundPoissonSpec(self.t, self.cluster_rates(length))


@dataclass(frozen=True)
class ClusterLaw:
    """Cluster-level summary derived from a return-probability sequence.

    Attributes
    ----------
    compound : CompoundPoissonSpec
        The induced visit-count law (unnormalised rates alpha_k - alpha_{k+1}).
    extremal_index : float
        alpha_1, the rate of cluster starts per target hit.
    cluster_probs : np.ndarray
        Normalized cluster-size law, cluster_probs[k-1] = P(size = k).
    mean_cluster_size : float
        Expected cluster size; equals 1/alpha_1 when the alphas sum to one.
    """

    compound: CompoundPoissonSpec
    extremal_index: float
    cluster_probs: np.ndarray = field(repr=False)
    mean_cluster_size: float


# ---------------------------------------------------------------------------
# finite PMF tables
# ---------------------------------------------------------------------------


class DiscretePMF:
    """Finite probability table on {0, 1, ..., kmax} plus explicit tail mass.

    Invariant: probs >= 0, tail_mass >= 0, probs.sum() + tail_mass == 1 within
    1e-12.  ``tail_mass`` is the probability assigned beyond ``kmax``.
    """

    __slots__ = ("probs", "tail_mass")

    def __init__(self, probs, tail_mass: float = 0.0):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise SpecError("probs must be a nonempty 1-d array")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise SpecError("probabilities must be finite and nonnegative")
        if not (math.isfinite(tail_mass) and tail_mass >= 0.0):
            raise SpecError("tail mass must be finite and nonnegative")
        total = float(np.sum(probs)) + tail_mass
        if abs(total - 1.0) > _NORM_TOL:
            raise SpecError(f"probabilities + tail must sum to 1, got {total!r}")
        self.probs = probs
        self.tail_mass = float(tail_mass)

    @property
    def kmax(self) -> int:
        return self.probs.size - 1

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, k: int) -> float:
        return float(self.probs[k])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscretePMF):
            return NotImplemented
        return (
            self.probs.shape == other.probs.shape
            and bool(np.all(self.probs == other.probs))
            and self.tail_mass == other.tail_mass
        )

    def tail_beyond(self, m: int) -> float:
        """Certified mass assigned strictly above m (m <= kmax)."""
        if m >= self.kmax:
            return self.tail_mass
        return self.tail_mass + float(np.sum(self.probs[m + 1 :]))


@contextmanager
def _atomic_open(path: str, newline=None):
    """Text file handle whose content appears at ``path`` only when complete.

    Writes go to a temporary file in the same directory, which replaces
    ``path`` after the block exits cleanly and is removed otherwise.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def pmf_to_csv(pmf: DiscretePMF, path) -> None:
    """Write rows (k, probability); the tail appears as a final 'tail' row."""
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "probability"])
        for k, p in enumerate(pmf.probs):
            writer.writerow([k, repr(float(p))])
        writer.writerow(["tail", repr(pmf.tail_mass)])


def pmf_from_csv(path) -> DiscretePMF:
    probs, tail = [], 0.0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["k", "probability"]:
            raise SpecError(f"unexpected CSV header {header!r}")
        for row in reader:
            if row[0] == "tail":
                tail = float(row[1])
            else:
                probs.append(float(row[1]))
    return DiscretePMF(np.array(probs), tail)


# ---------------------------------------------------------------------------
# PMF constructors
# ---------------------------------------------------------------------------


def cp_pmf(spec: CompoundPoissonSpec, kmax: int) -> DiscretePMF:
    """Tabulate the compound Poisson PMF on {0..kmax} by the size-biased
    recursion

        k * P(W = k) = sum_{l=1..min(k,L)} t * l * r_l * P(W = k - l),

    seeded with P(W = 0) = exp(-t * sum(r)).  Entries are prefix-stable:
    enlarging kmax never changes already-computed values.
    """
    if kmax < 0:
        raise SpecError("kmax must be >= 0")
    rates = spec.cluster_rates
    weighted = spec.t * rates * np.arange(1, rates.size + 1, dtype=float)
    out = np.zeros(kmax + 1)
    out[0] = math.exp(-spec.total_rate)
    for k in range(1, kmax + 1):
        lmax = min(k, rates.size)
        # dot of w_1..w_lmax with P(W = k-1), ..., P(W = k-lmax)
        out[k] = (weighted[:lmax] @ out[k - 1 :: -1][:lmax]) / k
    tail = max(0.0, 1.0 - float(np.sum(out)))
    return DiscretePMF(out, tail)


def poisson_pmf(t: float, kmax: int) -> DiscretePMF:
    """Plain Poisson(t) table (unit cluster size)."""
    return cp_pmf(CompoundPoissonSpec(t, np.array([1.0])), kmax)


def pa_pmf(t: float, p: float, kmax: int) -> DiscretePMF:
    """Polya-Aeppli PMF on {0..kmax} by its three-term recurrence.

    With theta = (1-p) t,

        P(W = 0) = exp(-theta),   P(W = 1) = theta (1-p) P(W = 0),
        k P(W = k) = (2p(k-1) + theta(1-p)) P(W = k-1) - p^2 (k-2) P(W = k-2),

    which is O(kmax).  The law is the recurrence's dominant solution, so
    rounding errors grow only slowly along the table (relative error about
    1e-12 at k = 300 for t = 0.05, p = 0.9, where the entry is about 1e-17).
    Once the entries go subnormal the subtraction can leave negatives of
    order 1e-323, so every entry is clamped at 0.  At p = 0 the recurrence
    is exactly P(W = k-1) t / k, the Poisson(t) table.
    """
    PolyaAeppliSpec(t, p)  # validates parameters
    if kmax < 0:
        raise SpecError("kmax must be >= 0")
    theta = (1.0 - p) * t
    a = theta * (1.0 - p)
    p2 = p * p
    out = [math.exp(-theta)]
    if kmax >= 1:
        out.append(a * out[0])
    for k in range(2, kmax + 1):
        pk = ((2.0 * p * (k - 1) + a) * out[k - 1] - p2 * (k - 2) * out[k - 2]) / k
        out.append(pk if pk > 0.0 else 0.0)
    probs = np.array(out)
    tail = max(0.0, 1.0 - float(np.sum(probs)))
    return DiscretePMF(probs, tail)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def cp_sample(spec: CompoundPoissonSpec, seed, size: int = 1) -> np.ndarray:
    """Draw ``size`` independent visit counts from the compound law.

    ``seed`` may be anything accepted by ``np.random.default_rng`` or an
    already-built Generator.  Consumes the generator in a fixed pattern: one
    Poisson block for the cluster counts, then one uniform block of length
    equal to the total number of clusters.
    """
    if size < 1:
        raise SpecError("size must be >= 1")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(spec.total_rate, size=size)
    out = np.zeros(size, dtype=np.int64)
    n_clusters = int(counts.sum())
    if n_clusters > 0:
        cdf = np.cumsum(spec.size_distribution())
        cdf[-1] = 1.0
        sizes = 1 + np.searchsorted(cdf, rng.random(n_clusters), side="right")
        owner = np.repeat(np.arange(size), counts)
        out = np.bincount(owner, weights=sizes, minlength=size).astype(np.int64)
    return out


# ---------------------------------------------------------------------------
# distances and derived laws
# ---------------------------------------------------------------------------


def tv_distance(pmf_a: DiscretePMF, pmf_b: DiscretePMF) -> float:
    """Total-variation distance between two finite tables.

    Computed as half the l1 difference over the common tabulated range plus
    half of both certified beyond-range masses; this upper-bounds the true TV
    distance and is exact when both tables share a kmax and have zero tail.
    """
    m = min(pmf_a.kmax, pmf_b.kmax)
    core = 0.5 * float(np.sum(np.abs(pmf_a.probs[: m + 1] - pmf_b.probs[: m + 1])))
    return core + 0.5 * (pmf_a.tail_beyond(m) + pmf_b.tail_beyond(m))


def cluster_law_from_alphas(alphas, t: float) -> ClusterLaw:
    """Turn a nonincreasing return-probability sequence (alpha_1, ..., alpha_L)
    into the induced cluster law: rates r_k = alpha_k - alpha_{k+1} (with
    alpha_{L+1} = 0), extremal index alpha_1, normalized sizes r_k / alpha_1.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise SpecError("alphas must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(alphas)):
        raise SpecError("alphas must be finite")
    if np.any(alphas < 0) or alphas[0] > 1.0 + _NORM_TOL:
        raise SpecError("alphas must lie in [0, 1]")
    if np.any(np.diff(alphas) > 0):
        raise SpecError("alphas must be nonincreasing")
    if alphas[0] <= 0.0:
        raise SpecError("alpha_1 must be positive")
    rates = np.empty_like(alphas)
    rates[:-1] = alphas[:-1] - alphas[1:]
    rates[-1] = alphas[-1]
    compound = CompoundPoissonSpec(t, rates)
    return ClusterLaw(
        compound=compound,
        extremal_index=float(alphas[0]),
        cluster_probs=rates / alphas[0],
        mean_cluster_size=float(np.sum(alphas)) / float(alphas[0]),
    )
