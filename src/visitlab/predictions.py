"""Limit-law predictions and diagnostic bounds for the worked systems.

Every operation returns either a :class:`PredictionResult` (one visit law at
time scale t, stated by its family and its alpha table) or a plain
diagnostic value.  Each formula ships with an independently computable
cross-check used by the test-suite; the sign-product predictor carries its
cross-check inline because its closed form is only trustworthy when it
agrees with the exact cylinder ratios.  The pair table :data:`PAIRS` holds,
for each supported (system, target) pair, its exact measure and its rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .compound import DiscretePMF, cluster_law_from_alphas, cp_pmf, pa_pmf
from .errors import ConvergenceError, SpecError, StructureError, UnsupportedPairError
from .stats import kac_horizon
from .systems import (
    DoeblinChainSpec,
    FactorProductSpec,
    FiniteMarkovSpec,
    HouseOfCardsSpec,
    IntervalMapSpec,
    ProductChainSpec,
    RegenerativeSpec,
    _diagonal_codes,
    sync_kernel,
)
from .targets import (
    CylinderTarget,
    GeoDiagonalTarget,
    HalfLineTarget,
    RunLengthTarget,
    SyncCylinderTarget,
    half_line_measure,
    interval_cylinder_measure,
    markov_cylinder_measure,
    run_length_measure,
    sign_cylinder_measure,
    sign_lift_plus,
    sign_lift_weight,
    strip_measure,
    sync_measure,
)

FAMILY_PA = "polya-aeppli"
FAMILY_POISSON = "poisson"
FAMILY_COMPOUND = "compound-poisson"


@dataclass(frozen=True)
class PredictionResult:
    """One predicted visit law, stated by ``family``, ``t``, the return-probability
    table ``alphas`` and ``params``; every other quantity is read from these."""

    family: str
    t: float
    alphas: tuple
    params: dict = field(default_factory=dict)
    notes: tuple = ()
    extras: dict = field(default_factory=dict)

    def pmf(self, kmax: int) -> DiscretePMF:
        """Predicted law of W on 0..kmax: :func:`cp_pmf` for compound laws, else
        :func:`pa_pmf` at ``params["p"]``, which is 0 for Poisson."""
        if self.family == FAMILY_COMPOUND:
            return cp_pmf(cluster_law_from_alphas(self.alphas, self.t), kmax)
        return pa_pmf(self.t, self.params["p"], kmax)

    @property
    def extremal_index(self) -> float:
        """alpha_1, the rate of cluster starts per target hit."""
        return self.alphas[0]

    @property
    def mean_cluster(self) -> float:
        """Mean cluster size of the law :meth:`pmf` tabulates: sum(alphas)/alpha_1
        for compound laws, 1/(1-p) for Polya-Aeppli and Poisson."""
        if self.family == FAMILY_COMPOUND:
            return float(np.sum(self.alphas)) / self.alphas[0]
        return 1.0 / (1.0 - self.params["p"])

    def as_dict(self) -> dict:
        """The prediction as a report entry; ``runner._jsonable`` maps what JSON lacks."""
        return {
            "family": self.family,
            "t": self.t,
            "alphas": [float(a) for a in self.alphas],
            "extremal_index": self.extremal_index,
            "mean_cluster": float(self.mean_cluster),
            "params": dict(self.params),
            "notes": list(self.notes),
            "extras": dict(self.extras),
        }


def _result(alphas, t, family, params=None, notes=(), extras=None) -> PredictionResult:
    alphas = tuple(float(a) for a in alphas)
    cluster_law_from_alphas(alphas, t)  # validates the table
    return PredictionResult(
        family=family,
        t=float(t),
        alphas=alphas,
        params=params or {},
        notes=tuple(notes),
        extras=extras or {},
    )


def _geometric_alphas(p: float, length: int) -> np.ndarray:
    """alpha_k = (1-p) p^(k-1): adjacent-return tails of a geometric cluster law."""
    k = np.arange(length)
    return (1.0 - p) * p**k


def predict_poisson(t: float, note: str = "isolated visits") -> PredictionResult:
    """No clustering: unit clusters, plain Poisson(t) visit counts."""
    return _result((1.0,), t, FAMILY_POISSON, params={"p": 0.0}, notes=(note,))


def predict_house_of_cards(r_limit: float, t: float) -> PredictionResult:
    """Climb-or-reset chains with convergent reset probabilities.

    The cluster-size tails are geometric in the limiting reset probability:
    alpha_{k+1} = r (1-r)^k, so W is Polya-Aeppli(t, 1-r) with extremal index
    r and cluster rate t*r.
    """
    if not (0.0 < r_limit < 1.0):
        raise SpecError("limiting reset probability must lie strictly in (0, 1)")
    alphas = r_limit * (1.0 - r_limit) ** np.arange(32)
    return _result(
        alphas,
        t,
        FAMILY_PA,
        params={"p": 1.0 - r_limit, "cluster_rate": t * r_limit},
        notes=("geometric cluster sizes from the limiting reset probability",),
    )


def predict_regenerative_entries(spec: RegenerativeSpec, n: int, t: float) -> PredictionResult:
    """Cluster law of half-line visits [symbol >= n]: a cluster is the rest of the
    block that covers a stationary entry, so alpha_k mixes the residual laws
    :attr:`RegenerativeSpec.residual_laws` of the symbols a >= n by the length-biased
    symbol law.  For one shared length law q, alpha_k = sum_{l>=k} q(l)/nu."""
    keep = np.nonzero(np.asarray(spec.symbols) >= n)[0]
    if keep.size == 0:
        raise SpecError(f"no symbol reaches the half-line threshold {n}")
    w = spec.stationary_symbol_probs()
    # a table row per remaining length up to the longest, so that no cluster
    # size is lumped into the last one (at least 32 rows)
    alphas = np.zeros(max(32, max(spec.residual_laws[i].size for i in keep)))
    for i in keep:
        alphas[: spec.residual_laws[i].size] += w[i] * spec.residual_laws[i]
    alphas /= w[keep].sum()
    p_entry = spec.symbol_probs[keep]
    mean_block = float((p_entry / p_entry.sum()) @ spec.mean_block_by_symbol()[keep])
    return _result(
        alphas,
        t,
        FAMILY_COMPOUND,
        params={"mean_block": mean_block, "threshold": int(n)},
        notes=("residual length of the stationary block whose symbol reaches the threshold",),
        extras={"alpha_hats": tuple(float(h) for h in np.cumsum(alphas[::-1])[::-1])},
    )


def word_overlap_period(word) -> int:
    """Least m >= 1 with word[m:] == word[:-m]; len(word) when none.

    A proper overlap period means the word tracks a periodic orbit, so its
    cylinder visits cluster; equality to the full length means the word
    cannot overlap itself and visits are isolated.
    """
    word = tuple(word)
    if not word:
        raise SpecError("word must be nonempty")
    for m in range(1, len(word)):
        if word[m:] == word[:-m]:
            return m
    return len(word)


def predict_periodic_cylinder(chain: FiniteMarkovSpec, word, t: float) -> PredictionResult:
    """Cylinders around a periodic symbol word in a finite Markov chain.

    p is the transition product once around the cycle; the visit law is
    Polya-Aeppli(t, p).  A certain cycle (p = 1) is refused.  Words around a
    non-returning point get no clustering: use :func:`predict_poisson`.
    """
    word = tuple(int(a) for a in word)
    if len(word) == 0 or max(word) >= chain.n_states or min(word) < 0:
        raise StructureError("cycle word must use the chain's alphabet")
    m = word_overlap_period(word)
    if m < len(word) and len(word) % m == 0:  # a power of a shorter word (Fine-Wilf)
        raise SpecError("pass exactly one period of the cycle word")
    p = 1.0
    for i, a in enumerate(word):
        b = word[(i + 1) % len(word)]
        step = float(chain.matrix[a, b])
        if step <= 0.0:
            raise StructureError(f"transition {a}->{b} is not admissible")
        p *= step
    if p >= 1.0:
        raise UnsupportedPairError(
            f"the transition product around the cycle word {word} is {p}: the chain repeats "
            "the cycle forever, so its visits have no compound-Poisson law; simulate instead"
        )
    return _result(
        _geometric_alphas(p, 32),
        t,
        FAMILY_PA,
        params={"p": p, "period": len(word)},
        notes=("transition product once around the periodic word",),
    )


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus of a nonnegative matrix, by one dense eigen-solve."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpecError("matrix must be square")
    if not np.all(np.isfinite(a) & (a >= 0)):
        raise SpecError("matrix entries must be finite and nonnegative")
    return float(np.abs(np.linalg.eigvals(a)).max(initial=0.0))


def predict_sync_markov(sync_matrix, t: float) -> PredictionResult:
    """Synchronisation of coupled chains from the diagonal-restricted kernel.

    The escape rate off the diagonal is the kernel's spectral radius rho < 1;
    visits to long synchronisation windows follow Polya-Aeppli(t, rho).
    """
    rho = spectral_radius(sync_matrix)
    if rho >= 1.0 - 1e-13:
        raise SpecError(f"diagonal kernel has spectral radius {rho}; coupling is degenerate")
    return _result(
        _geometric_alphas(rho, 32),
        t,
        FAMILY_PA,
        params={"p": rho},
        notes=("spectral radius of the diagonal-restricted pair kernel",),
        extras={"rho": rho},
    )


def _sync_law_oscillates(d, nu0) -> bool:
    """Whether mu(n) = nu0 D^(n-1) 1 (:func:`sync_measure`) carries a term of a peripheral
    eigenvalue |lam| >= rho (1 - 1e-6) other than rho (rho times a root of unity of order
    <= m, so |lam - rho| > 1e-3 rho), as mu(n+1)/mu(n) then oscillates; a term under 1e-9
    of the largest peripheral term is rounding.  The terms come from the spectral
    projector, whose left.T @ right pairs unit eigenvectors: a simple eigenvalue gives a
    pair with |l.r| = 1/cond(lam), a defective one (whose n lam^n terms the projector
    cannot show) none, so a smallest singular value under 1e-6 counts as oscillating."""
    rho = spectral_radius(d)
    lam, right = np.linalg.eig(d)
    peripheral = np.abs(lam) >= rho * (1.0 - 1e-6)
    lam, right = lam[peripheral], right[:, peripheral]
    other = np.abs(lam - rho) > 1e-3 * rho
    if not other.any():
        return False
    lam_t, left = np.linalg.eig(d.T)
    left = left[:, np.abs(lam_t) >= rho * (1.0 - 1e-6)]
    gram = left.T @ right
    if np.linalg.svd(gram, compute_uv=False).min() < 1e-6:
        return True
    # the peripheral terms, sum_i coef_i lam_i^(n-1)
    coef = (nu0 @ right) * np.linalg.solve(gram, left.sum(axis=0))
    term = np.abs((np.abs(lam[:, None] - lam) <= 1e-3 * rho) @ coef)
    return bool(term[other].max() > 1e-9 * term.max())


def _predict_sync_cylinder(system: ProductChainSpec, target, t: float) -> PredictionResult:
    """PA(t, rho), refused where the sync-cylinder measure oscillates with n."""
    d = sync_kernel(system)
    pred = predict_sync_markov(d, t)
    if _sync_law_oscillates(d, system.chain[0][_diagonal_codes(system)]):
        raise UnsupportedPairError(
            "the sync-cylinder measure oscillates with n (a peripheral eigenvalue of the "
            "diagonal kernel other than rho), so the visit law has no limit; simulate instead"
        )
    return pred


def coupling_sync_rate(q1, q2, gamma: float) -> float:
    """Spectral synchronisation rate of the sticky coupling (1 at gamma = 1)."""
    return spectral_radius(sync_kernel(ProductChainSpec((q1, q2), "parametrized", gamma=gamma)))


# ---------------------------------------------------------------------------
# interval maps: exact rational cluster tails for two synchronised copies
# ---------------------------------------------------------------------------


def geometric_alpha_sequence(spec: IntervalMapSpec, kmax: int) -> list:
    """Exact rationals alpha_hat_1 .. alpha_hat_{kmax+1} for two copies.

    alpha_hat_{k+1} integrates the squared invariant density against the
    k-step contraction along admissible words; evaluated as a rational vector
    iteration with the entrywise-squared transition matrix.
    """
    if kmax < 0:
        raise SpecError("kmax must be >= 0")
    h = spec.invariant
    lengths = spec.cell_lengths()
    cells = spec.n_cells
    q = spec.transition_matrix_exact()
    q_sq = [[q[i][j] * q[i][j] for j in range(cells)] for i in range(cells)]
    nu_h = [h[a] * h[a] for a in range(cells)]
    w = [lengths[a] / abs(spec.slopes[a]) for a in range(cells)]
    denom = sum(nu_h[a] * lengths[a] for a in range(cells))
    out = [Fraction(1)]
    u = list(w)
    for _ in range(kmax):
        out.append(sum(nu_h[a] * u[a] for a in range(cells)) / denom)
        u = [sum(q_sq[a][b] * u[b] for b in range(cells)) for a in range(cells)]
    return out[: kmax + 1]


def geometric_alpha(spec: IntervalMapSpec, k: int) -> Fraction:
    """Exact alpha_hat_{k+1} (k = 0 gives 1)."""
    return geometric_alpha_sequence(spec, k)[k]


# ---------------------------------------------------------------------------
# sign-product factors
# ---------------------------------------------------------------------------


def furstenberg_ratio(plus_prob, word) -> dict:
    """Exact cylinder data for a +-1 product word.

    Returns the cylinder measure and the one-symbol ratio obtained by
    prepending +1; both in the arithmetic of ``plus_prob`` (Fractions stay
    Fractions).
    """
    word = tuple(int(z) for z in word)
    nu = sign_cylinder_measure(plus_prob, word)
    nu_ext = sign_cylinder_measure(plus_prob, (1,) + word)
    return {"measure": nu, "prepend_ratio": nu_ext / nu}


def predict_furstenberg(
    plus_prob: float, word, t: float, strict: bool = True
) -> PredictionResult:
    """Visit law for cylinders of a periodic +-1 product word.

    Selects p = eps^k (1-eps)^(m-k) or its swap by the sign of
    (1/2 - eps)(1/2 - density), with the density of +1 read off the first
    2m'-1 coordinates of the word's lift (m' the lift's least period).  The
    value is always cross-checked against the exact cylinder-measure ratio
    along lift-period-aligned lengths; in strict mode any disagreement beyond
    1e-8 raises, since then the closed form does not describe the system.
    """
    eps = float(plus_prob)
    if not (0.0 < eps < 1.0):
        raise SpecError("plus_prob must lie strictly between 0 and 1")
    if eps == 0.5:
        raise SpecError("plus_prob = 1/2 is excluded (symmetric lift)")
    word = tuple(int(z) for z in word)
    if any(z not in (-1, 1) for z in word) or not word:
        raise SpecError("word must be a nonempty +-1 sequence")
    m = len(word)
    period = word_overlap_period(word)
    if period < m and m % period == 0:  # a power of a shorter word (Fine-Wilf)
        raise SpecError("pass exactly one least period of the word")
    k = sum(1 for z in word if z == 1)
    prod = 1
    for z in word:
        prod *= z
    lift_period = m if prod == 1 else 2 * m
    window = 2 * lift_period - 1
    s_plus = sign_lift_plus(tuple(word[i % m] for i in range(window - 1)))
    density = s_plus / window
    if (0.5 - eps) * (0.5 - density) > 0:
        p_case = eps**k * (1.0 - eps) ** (m - k)
    else:
        p_case = (1.0 - eps) ** k * eps ** (m - k)

    # exact ratio along lift-aligned cylinder lengths near 240: nu(n + m)/nu(n)
    # is w(n + m) / (w(n) d^m), and each int true division rounds once
    a, d = eps.as_integer_ratio()
    n0 = 2 * lift_period * (240 // (2 * lift_period) + 1)
    w0, w1, w2, w3 = (
        sign_lift_weight(a, d - a, tuple(word[i % m] for i in range(n)))
        for n in (n0, n0 + m, n0 + 2 * lift_period, n0 + 2 * lift_period + m)
    )
    scale = d**m
    p_ratio = w1 / (w0 * scale)
    gap = abs(p_case - p_ratio)
    extras = {
        "case_value": p_case,
        "ratio_value": p_ratio,
        "ratio_stability": abs(w3 * w0 - w1 * w2) / (w2 * w0 * scale),
        "check_length": n0,
        "lift_period": lift_period,
        "plus_count": k,
        "consistency_error": gap,
    }
    notes = ["case-selected periodic-word rate, cross-checked against exact ratios"]
    if gap > 1e-8:
        msg = (
            f"closed-form rate {p_case:.12f} disagrees with the exact cylinder "
            f"ratio {p_ratio:.12f} for word {word} (gap {gap:.3e})"
        )
        if strict:
            raise ConvergenceError(msg)
        notes.append(msg)
    return _result(
        _geometric_alphas(p_case, 32),
        t,
        FAMILY_PA,
        params={"p": p_case},
        notes=notes,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


# (2j)! / B_2j for j = 1..12, as Cephes' zeta writes them
_EM_DIVISORS = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9, 7.47242496e10,
    -2.950130727918164224e12, 1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)
_EPS = 2.0**-53


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta sum_{k >= 0} (a + k)^(-s), for s > 1 and a > 0.

    Euler-Maclaurin summation in the order of Cephes' ``zeta`` (S. Moshier),
    which ``scipy.special.zeta`` runs, so it gives scipy's doubles: the
    terms (a + k)^(-s) for k up to 9 and at least until a + k > 9, then the
    integral, minus half the last term, and up to 12 Bernoulli corrections;
    each sum stops once a term falls below 2^-53 of the total.  Above
    a = 1e8 it is the two-term expansion of DLMF 25.11.43.
    """
    if a > 1e8:
        return (1.0 / (s - 1.0) + 1.0 / (2.0 * a)) * a ** (1.0 - s)
    total, x, i, b = a**-s, a, 0, 0.0
    while i < 9 or x <= 9.0:
        i += 1
        x += 1.0
        b = x**-s
        total += b
        if total and abs(b / total) < _EPS:
            return total
    total += b * x / (s - 1.0)
    total -= 0.5 * b
    # the j-th correction is B_2j / (2j)! * s (s + 1) ... (s + 2j - 2) * x^(1 - s - 2j)
    rising = 1.0
    for j, divisor in enumerate(_EM_DIVISORS):
        rising *= s + 2 * j
        b /= x
        term = rising * b / divisor
        total += term
        if total and abs(term / total) < _EPS:
            break
        rising *= s + (2 * j + 1)
        b /= x
    return total


@dataclass(frozen=True)
class MixingProfile:
    """Parametric correlation-decay sequence, clamped at 1.

    ``geometric``: c * rate^k; ``polynomial``: c * k^(-rate) with rate > 1 so
    tails are summable.
    """

    kind: str
    c: float
    rate: float

    def __post_init__(self):
        if self.kind not in ("geometric", "polynomial"):
            raise SpecError(f"unknown mixing profile {self.kind!r}")
        if self.c <= 0.0:
            raise SpecError("profile scale must be positive")
        if self.kind == "geometric" and not (0.0 < self.rate < 1.0):
            raise SpecError("geometric decay rate must lie in (0, 1)")
        if self.kind == "polynomial" and self.rate <= 1.0:
            raise SpecError("polynomial decay exponent must exceed 1")

    def value(self, k) -> float:
        if k <= 0:
            return 1.0
        if self.kind == "geometric":
            return min(1.0, self.c * self.rate**k)
        return min(1.0, self.c * float(k) ** (-self.rate))

    def tail(self, j: int) -> float:
        """sum_{i >= j} value(i), exact through the clamped head."""
        j = max(j, 1)
        if self.kind == "geometric":
            # clamp region: c * rate^i >= 1  <=>  i <= log(1/c)/log(rate)
            head_end = j
            if self.c > 1.0:
                head_end = max(j, int(math.floor(math.log(1.0 / self.c) / math.log(self.rate))) + 1)
            head = sum(self.value(i) for i in range(j, head_end))
            return head + self.c * self.rate**head_end / (1.0 - self.rate)
        head_end = j
        if self.c > 1.0:
            head_end = max(j, int(math.ceil(self.c ** (1.0 / self.rate))))
        head = sum(self.value(i) for i in range(j, head_end))
        return head + self.c * hurwitz_zeta(self.rate, head_end)


@dataclass(frozen=True)
class SteinBracketInputs:
    """Everything the error bracket needs: decay, measures, windows."""

    profile: MixingProfile
    mu: float
    outer: tuple  # mu(U^j) for j = 0..n
    n: int
    k_window: int
    t: float

    def __post_init__(self):
        if not (0.0 < self.mu <= 1.0):
            raise SpecError("target measure must lie in (0, 1]")
        if self.n < 1 or self.k_window < 1:
            raise SpecError("window parameters must be >= 1")
        if len(self.outer) < self.n + 1:
            raise SpecError("outer measures must cover j = 0..n")
        if any(not (0.0 < v <= 1.0) for v in self.outer):
            raise SpecError("outer measures must lie in (0, 1]")


def stein_bracket(inputs: SteinBracketInputs, mode: str = "phi") -> dict:
    """Optimised error bracket over the gap parameter Delta.

    The unknown multiplicative constants are omitted throughout, so the value
    is a shape diagnostic (how fast the bracket can be driven down in n), not
    a certified distance bound.
    """
    if mode not in ("phi", "psi"):
        raise SpecError("mode must be 'phi' or 'psi'")
    k_w, n, mu, t = inputs.k_window, inputs.n, inputs.mu, inputs.t
    hi = kac_horizon(t, mu) - 1
    if hi > np.iinfo(np.int64).max:
        raise SpecError(f"the Delta range up to t/mu - 1 = {hi:.3g} exceeds a 64-bit integer")
    lo = k_w + 1
    if hi < lo:
        raise SpecError("empty Delta range: need K < t/mu with room to spare")
    grid = np.unique(np.round(np.geomspace(lo, hi, 512)).astype(np.int64))
    grid = grid[(grid >= lo) & (grid <= hi)]
    half = (k_w + 1) // 2
    outer_sum = float(np.sum(inputs.outer[half : n + 1]))
    phi_vals = np.array([inputs.profile.value(int(d) - n) for d in grid])
    if mode == "phi":
        core = k_w * phi_vals / mu + grid * mu + inputs.profile.tail(half) + outer_sum
    else:
        core = phi_vals + grid * mu + outer_sum
    i = int(np.argmin(core))
    return {
        "value": t * float(core[i]),
        "argmin_delta": int(grid[i]),
        "mode": mode,
        "outer_sum": outer_sum,
    }


def doeblin_alpha2_bound(k_window: int, kernel_sup: float, delta: float) -> float:
    """Upper bound on the pair-return rate within K steps of a diagonal hit.

    Linear in the strip width: 2 * K * kernel_sup * (2 delta).
    """
    if k_window < 1 or kernel_sup <= 0.0 or delta <= 0.0:
        raise SpecError("bound inputs must be positive")
    return 2.0 * k_window * kernel_sup * (2.0 * delta)


def renewal_ratio_sequence(spec, n_values) -> np.ndarray:
    """Exact survival-run ratios mu(run n+1)/mu(run n) for a reset family.

    Written with H(n) = sum_{i>=n} prod_{u<i}(1 - r_u); the ratio is
    H(n+1)/H(n), evaluated in log space with a certified geometric tail.
    Unlike :func:`~visitlab.targets.run_length_measure`, the survival
    products stay in log space here: n may run far past the point where
    the linear products underflow a double, and the ratio of two such tails
    is still of order 1.
    """
    n_values = np.asarray(list(n_values), dtype=int)
    if n_values.size == 0 or np.any(n_values < 0):
        raise SpecError("n values must be nonnegative")
    n_max = int(n_values.max())
    decay = spec._decay_sup(n_max + 1)
    if decay >= 1.0:
        raise SpecError("reset family admits no summable tail certificate")
    # enough terms that the geometric remainder is negligible at double precision
    extra = max(64, int(math.ceil(-50.0 / math.log(decay))))
    j_max = n_max + 1 + extra
    r = spec.reset_probs(np.arange(j_max))
    if np.any(r >= 1.0):
        raise SpecError("reset probability 1 truncates every run; ratios degenerate")
    log_g = np.concatenate([[0.0], np.cumsum(np.log1p(-r))])
    # log H(n) for n = 0..n_max+1 via a reversed running logsumexp
    log_h = np.logaddexp.accumulate(log_g[::-1])[::-1]
    return np.exp(log_h[n_values + 1] - log_h[n_values])


# ---------------------------------------------------------------------------
# the (system, target) pair table: exact measure and prediction rule per pair
# ---------------------------------------------------------------------------


class Pair(NamedTuple):
    """One supported pair.  ``measure(system, target)`` is the exact
    stationary measure, a number for every parameter it accepts (it raises
    on the others); ``method`` names it in reports.
    ``predict(system, target, t)`` is the predicted visit law."""

    name: str
    method: str
    measure: Callable
    predict: Callable


def _predict_run_length(system: HouseOfCardsSpec, target, t: float) -> PredictionResult:
    if system.kind == "alternating":
        raise UnsupportedPairError(
            "alternating reset probabilities have no limiting visit law "
            "(the run-measure ratios oscillate); simulate instead"
        )
    # constant: (r,); drifting: (r_limit, c) — the limit drives the law
    return predict_house_of_cards(system.params[0], t)


def _predict_markov_cylinder(system, target, t: float) -> PredictionResult:
    m = word_overlap_period(target.word)
    if m < len(target.word):
        return predict_periodic_cylinder(system.chain[1], target.word[:m], t)
    return predict_poisson(t, "non-self-overlapping word: isolated visits")


def _predict_sign_cylinder(system: FactorProductSpec, target, t: float) -> PredictionResult:
    """:func:`predict_furstenberg`, refused when nu(k + m)/nu(k), exact and rounded once,
    varies over two lift periods of k at its check length (that check reads one residue)."""
    m = word_overlap_period(target.word)
    if m == len(target.word):
        return predict_poisson(t, "non-self-overlapping sign word: isolated visits")
    pred = predict_furstenberg(system.plus_prob, target.word[:m], t)
    n0, period = pred.extras["check_length"], pred.extras["lift_period"]
    a, d = float(system.plus_prob).as_integer_ratio()
    w = [
        sign_lift_weight(a, d - a, (target.word[:m] * (k // m + 1))[:k])
        for k in range(n0, n0 + 2 * period + m)
    ]
    scale = d**m
    ratios = [after / (before * scale) for before, after in zip(w, w[m:])]
    if max(ratios) - min(ratios) > 1e-8 * max(ratios):
        raise UnsupportedPairError(
            f"the sign-cylinder ratio nu(k + {m})/nu(k) oscillates with k (its period can be "
            "twice the lift's), so the visit law has no limit; simulate instead"
        )
    return pred


PAIRS = {
    (HouseOfCardsSpec, RunLengthTarget): Pair(
        "house-of-cards + run-length", "exact:survival-sum", run_length_measure, _predict_run_length
    ),
    (RegenerativeSpec, HalfLineTarget): Pair(
        "regenerative + half-line", "exact:length-biased-tail", half_line_measure,
        lambda system, target, t: predict_regenerative_entries(system, target.n, t),
    ),
    (FiniteMarkovSpec, CylinderTarget): Pair(
        "markov + cylinder", "exact:path-product", markov_cylinder_measure, _predict_markov_cylinder
    ),
    (IntervalMapSpec, CylinderTarget): Pair(
        "interval-map + cylinder", "exact:invariant-density",
        lambda system, target: float(interval_cylinder_measure(system, target.word)),
        _predict_markov_cylinder,
    ),
    (ProductChainSpec, SyncCylinderTarget): Pair(
        "product-chain + sync-cylinder", "exact:diagonal-iteration", sync_measure,
        _predict_sync_cylinder,
    ),
    (DoeblinChainSpec, GeoDiagonalTarget): Pair(
        "doeblin + geo-diagonal", "exact:strip-area", strip_measure,
        lambda system, target, t: predict_poisson(t, "uniformly contracting pair: isolated visits"),
    ),
    (FactorProductSpec, CylinderTarget): Pair(
        "sign-product + sign-cylinder", "exact:sign-lift",
        lambda system, target: float(sign_cylinder_measure(system.plus_prob, target.word)),
        _predict_sign_cylinder,
    ),
}


def pair_for(system, target) -> Pair:
    """The pair table's entry for a (system, target) pair; refuses unlisted pairs."""
    pair = PAIRS.get((type(system), type(target)))
    if pair is None:
        raise UnsupportedPairError(
            f"no prediction rule for {type(system).__name__} + {type(target).__name__}; "
            f"supported pairs: {', '.join(p.name for p in PAIRS.values())}"
        )
    return pair


def predict_for(system, target, t: float) -> PredictionResult:
    """Closed-form visit-law prediction for a (system, target) pair."""
    return pair_for(system, target).predict(system, target, t)
