"""Shrinking target families: window membership tests and reference measures.

Each target turns a batch of stationary paths into a boolean indicator array
(one column per window start) and names its j-step outer approximation
``outer(j)`` for j >= 0, a target that contains it: nested symbolic families
shrink along their own parameter, point targets (half-line, diagonal) are
their own outer approximation at every j.  Where the (system, target) pair
admits a closed-form stationary measure the module evaluates it exactly (the
pair table, ``predictions.PAIRS``, says which formula serves which pair);
otherwise a seeded Monte Carlo fallback reports a standard error alongside
the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InsufficientDataError, ResourceLimitError, SpecError, StructureError
from .systems import (
    DoeblinChainSpec,
    FiniteMarkovSpec,
    HouseOfCardsSpec,
    IntervalMapSpec,
    ProductChainSpec,
    RegenerativeSpec,
    _BLOCK_UNIFORMS,
    _STEP_GUARD,
    _diagonal_codes,
    path_chunks,
    sync_kernel,
)

# index namespace for auxiliary draws (keeps trajectory seeds untouched)
_MEASURE_INDEX_BASE = 2**48


@dataclass(frozen=True)
class RunLengthTarget:
    """Membership: the current state is >= level and stays there n more steps.

    A window therefore spans n + 1 consecutive symbols, all >= level; this is
    the convention under which the exact stationary measure below telescopes
    into survival products.
    """

    n: int
    level: int = 1

    def __post_init__(self):
        if self.n < 0:
            raise SpecError("run parameter n must be >= 0")
        if self.level < 1:
            raise SpecError("level must be >= 1")

    @property
    def window(self) -> int:
        return self.n + 1

    def indicators(self, paths) -> np.ndarray:
        paths = np.asarray(paths)
        return _window_all(paths >= self.level, self.window)

    def outer(self, j: int) -> RunLengthTarget:
        return RunLengthTarget(min(j, self.n), self.level)


@dataclass(frozen=True)
class HalfLineTarget:
    """Membership: the current symbol is >= n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise SpecError("half-line threshold must be >= 1")

    @property
    def window(self) -> int:
        return 1

    def indicators(self, paths) -> np.ndarray:
        return np.asarray(paths) >= self.n

    def outer(self, j: int) -> HalfLineTarget:
        return self


@dataclass(frozen=True)
class CylinderTarget:
    """Membership: the next len(word) symbols spell out ``word`` exactly.

    Letters are any integers: states or cells for chains and maps, +-1 for
    sign-product systems; the measure rule of each pair checks its alphabet.
    """

    word: tuple

    def __post_init__(self):
        word = tuple(int(a) for a in self.word)
        if len(word) == 0:
            raise SpecError("cylinder word must be nonempty")
        object.__setattr__(self, "word", word)

    @property
    def window(self) -> int:
        return len(self.word)

    def indicators(self, paths) -> np.ndarray:
        return _match_word(np.asarray(paths), self.word)

    def outer(self, j: int) -> CylinderTarget:
        return CylinderTarget(self.word[: max(j, 1)])


@dataclass(frozen=True)
class SyncCylinderTarget:
    """Membership: all parallel components agree for n consecutive steps."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise SpecError("synchronisation length must be >= 1")

    @property
    def window(self) -> int:
        return self.n

    def indicators(self, paths) -> np.ndarray:
        paths = np.asarray(paths)
        if paths.ndim != 3 or paths.shape[2] < 2:
            raise SpecError("synchronisation targets need (batch, time, component) paths")
        agree = np.all(paths == paths[:, :, :1], axis=2)
        return _window_all(agree, self.n)

    def outer(self, j: int) -> SyncCylinderTarget:
        return SyncCylinderTarget(min(max(j, 1), self.n))


@dataclass(frozen=True)
class GeoDiagonalTarget:
    """Membership: real coordinates pairwise within delta of each other."""

    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise SpecError("delta must lie strictly between 0 and 1")

    @property
    def window(self) -> int:
        return 1

    def indicators(self, paths) -> np.ndarray:
        paths = np.asarray(paths, dtype=float)
        if paths.ndim != 3 or paths.shape[2] < 2:
            raise SpecError("diagonal targets need (batch, time, coordinate) paths")
        m = paths.shape[2]
        ok = np.ones(paths.shape[:2], dtype=bool)
        for i in range(m):
            for j in range(i + 1, m):
                ok &= np.abs(paths[:, :, i] - paths[:, :, j]) <= self.delta
        return ok

    def outer(self, j: int) -> GeoDiagonalTarget:
        return self


def _window_all(mask: np.ndarray, w: int) -> np.ndarray:
    """All-true test over every length-w window of a boolean array.

    Column j of a span-s array says whether mask[j : j + s] is all true; the
    span doubles by ANDing shifted views until two overlapping spans cover w.
    """
    mask = np.atleast_2d(mask)
    if w == 1:
        return mask.copy()
    if mask.shape[1] < w:
        return np.zeros((mask.shape[0], 0), dtype=bool)
    span, cur = 1, mask
    while 2 * span <= w:
        cur = cur[:, :-span] & cur[:, span:]
        span *= 2
    stop = mask.shape[1] - w + 1
    return cur[:, :stop] & cur[:, w - span : w - span + stop]


def _match_word(paths: np.ndarray, word: tuple) -> np.ndarray:
    paths = np.atleast_2d(paths)
    k = len(word)
    stop = paths.shape[1] - k + 1
    if stop <= 0:
        return np.zeros((paths.shape[0], 0), dtype=bool)
    # one comparison pass per distinct letter, then shifted boolean views
    equal = {a: paths == a for a in set(word)}
    out = equal[word[0]][:, 0:stop].copy()
    for j in range(1, k):
        out &= equal[word[j]][:, j : stop + j]
    return out


def tile_rows(paths: np.ndarray) -> int:
    """Rows of ``paths`` per row tile: 512 kB of them, as in
    :func:`~visitlab.systems.sample_house_of_cards`, and at least one row."""
    return max(1, _BLOCK_UNIFORMS * 8 // max(paths[:1].nbytes, 1))


def hits(paths, target, horizon: int) -> np.ndarray:
    """Indicator rows I_0 .. I_horizon (window start times) for each path.

    Paths must hold at least ``horizon + target.window`` time steps; windows
    that would run past the simulated data are never counted.  The target
    tests one row tile of paths at a time (:func:`tile_rows`), and the tiles'
    rows go into one C-contiguous ``(rows, horizon + 1)`` bool array, so no
    target's temporaries outgrow a tile.  Callers that hand ``hits`` one tile
    at a time, as the runner and :func:`measure_mc` do, hold no indicator
    array larger than a tile's.  Indicators that are not one row of windows
    per path raise SpecError: a one-symbol target keeps the component axis of
    product-chain and doeblin paths.
    """
    paths = np.atleast_2d(np.asarray(paths))
    per = tile_rows(paths)

    def tile(lo: int) -> np.ndarray:
        ind = target.indicators(paths[lo : lo + per])
        if ind.ndim != 2:
            components = paths.shape[2] if paths.ndim == 3 else 1
            raise SpecError(
                f"{type(target).__name__} reads one symbol per step and cannot read "
                f"paths of {components} components"
            )
        if ind.shape[1] < horizon + 1:
            raise SpecError(
                f"paths support {ind.shape[1]} windows, horizon needs {horizon + 1}"
            )
        return ind[:, : horizon + 1]

    if len(paths) <= per:
        # one tile: the target's own array, copied only where the horizon cuts it
        return np.ascontiguousarray(tile(0))
    out = np.empty((len(paths), horizon + 1), dtype=bool)
    for lo in range(0, len(paths), per):
        out[lo : lo + per] = tile(lo)
    return out


# ---------------------------------------------------------------------------
# reference measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetMeasure:
    """Stationary measure of one target set.

    ``method`` records how the number was obtained; exact formulas have zero
    standard error.
    """

    value: float
    se: float = 0.0
    method: str = "exact"

    def __post_init__(self):
        if not (self.value > 0.0):
            raise SpecError(f"target measure must be positive, got {self.value}")


def sign_lift_plus(word) -> int:
    """Number of +1 signs in the lift x_0 = 1, x_(i+1) = x_i z_i of a +-1 word.

    The lift has len(word) + 1 signs; its flip -x carries the other count.
    """
    x, k_plus = 1, 1
    for z in word:
        if z not in (-1, 1):
            raise SpecError("sign word must be over {-1, +1}")
        x *= z
        if x == 1:
            k_plus += 1
    return k_plus


def sign_lift_weight(p, q, word):
    """p^k q^m + p^m q^k for the k plus and m minus signs of the word's lift.

    With (p, q) = (eps, 1 - eps) this is the cylinder measure; with integers
    (a, d - a) it is that measure times d^(len(word) + 1), at eps = a / d.
    """
    k_plus = sign_lift_plus(word)
    k_minus = len(word) + 1 - k_plus
    return p**k_plus * q**k_minus + p**k_minus * q**k_plus


def sign_cylinder_measure(plus_prob, word):
    """Measure of a +-1 product-symbol cylinder via its two sign lifts.

    Works in the arithmetic of ``plus_prob``: pass a Fraction for an exact
    rational answer, a float for a float.
    """
    return sign_lift_weight(plus_prob, 1 - plus_prob, word)


def interval_cylinder_measure(spec: IntervalMapSpec, word) -> Fraction:
    """Exact invariant measure of an itinerary cylinder of a Markov map.

    Uses the Markov identity: the cylinder's length is the last cell's length
    scaled down the branch derivatives along the word, and the invariant
    density is constant on the first cell.
    """
    word = tuple(int(a) for a in word)
    cells = spec.n_cells
    if any(a < 0 or a >= cells for a in word):
        raise StructureError("itinerary word leaves the cell alphabet")
    for a, b in zip(word, word[1:]):
        if not spec.covers(a, b):
            raise StructureError(f"transition {a}->{b} is not admissible; empty cylinder")
    h = spec.invariant
    lengths = spec.cell_lengths()
    lam = lengths[word[-1]]
    for a in word[:-1]:
        lam /= abs(spec.slopes[a])
    return h[word[0]] * lam


def half_line_measure(system: RegenerativeSpec, target: HalfLineTarget) -> float:
    """Length-biased probability of the symbols >= n."""
    pbar = system.stationary_symbol_probs()
    mask = np.asarray(system.symbols) >= target.n
    return float(pbar[mask].sum())


def markov_cylinder_measure(system: FiniteMarkovSpec, target: CylinderTarget) -> float:
    """Stationary probability of the word's first letter times its transitions."""
    pi = system.chain[0]
    w = target.word
    if min(w) < 0 or max(w) >= system.n_states:
        raise StructureError("cylinder word leaves the state alphabet")
    value = float(pi[w[0]])
    for a, b in zip(w, w[1:]):
        value *= float(system.matrix[a, b])
    return value


def strip_measure(system: DoeblinChainSpec, target: GeoDiagonalTarget) -> float:
    """P(max - min <= delta) = c delta^(c-1) - (c-1) delta^c for c independent
    stationary uniform chains; at c = 2 it is 2 delta - delta * delta to the bit."""
    c, d = system.n_chains, target.delta
    if c < 2:
        raise SpecError("a diagonal target needs at least two chains")
    lead = d ** (c - 1)
    return c * lead - (c - 1) * lead * d


def run_length_measure(system: HouseOfCardsSpec, target: RunLengthTarget) -> float:
    """P(state >= level now and no reset for n further steps), stationary.

    The sum over start states s >= level of pi(s) G(s + n) / G(s), with the
    survival products G(k) = prod_{u<k}(1 - r_u) that weigh pi itself:
    pi(s) = pi(0) G(s), so the sum is pi(0) times the G(k) with k >= level + n
    over the table's start states.  G is one linear product: it rounds nowhere
    its products are doubles (r = 1/2 gives mu = 2^-(level + n) exactly), and
    it is 0 past a certain reset.
    """
    probs = system.stationary.probs
    r = system.reset_probs(np.arange(probs.size - 1 + target.n))
    g = np.cumprod(np.concatenate([[1.0], 1.0 - r]))
    return float(probs[0] * g[target.level + target.n :].sum())


def sync_measure(system: ProductChainSpec, target: SyncCylinderTarget) -> float:
    """Probability that all components agree on n consecutive letters."""
    nu0 = system.chain[0][_diagonal_codes(system)]
    d = sync_kernel(system)
    v = np.ones(system.n_states)
    for _ in range(target.n - 1):
        v = d @ v
    return float(nu0 @ v)


def measure_mc(target, system, samples: int, seed: int) -> TargetMeasure:
    """Monte Carlo window frequency with a trajectory-clustered standard error.

    Each trajectory's window mean is taken one row tile of paths at a time
    (:func:`tile_rows`), so besides a chunk's paths no array outgrows a tile.
    """
    if samples < 2:
        raise InsufficientDataError("need at least two trajectories", count=samples)
    w = target.window
    length = max(8 * w, w + 63)
    if length * samples > _STEP_GUARD:
        raise ResourceLimitError(
            f"Monte-Carlo measure needs {length * samples:.2e} simulated steps "
            f"(> {_STEP_GUARD:.0e}); shrink samples or the target"
        )
    means = np.empty(samples)
    for first, paths in path_chunks(system, length, seed, _MEASURE_INDEX_BASE, samples):
        per = tile_rows(paths)
        for lo in range(0, len(paths), per):
            tile = paths[lo : lo + per]
            row = first - _MEASURE_INDEX_BASE + lo
            means[row : row + len(tile)] = hits(tile, target, length - w).mean(axis=1)
    value = float(means.mean())
    se = float(means.std(ddof=1) / np.sqrt(samples))
    if value <= 0.0:
        raise InsufficientDataError(
            "no window ever landed in the target; cannot report a positive measure",
            count=0,
        )
    return TargetMeasure(value, se, "monte-carlo")


def measure(target, system, samples: int = 100_000, seed: int = 0) -> TargetMeasure:
    """Exact measure for a pair of the pair table, Monte Carlo otherwise.

    Monte Carlo runs only for pairs the table does not list.  Every listed
    pair's rule is total: its errors propagate, and a zero measure is refused.
    """
    from .predictions import PAIRS  # predictions imports this module

    pair = PAIRS.get((type(system), type(target)))
    if pair is None:
        return measure_mc(target, system, samples, seed)
    value = pair.measure(system, target)
    if not value > 0.0:
        raise StructureError(
            f"the target has zero stationary measure ({pair.method} gives {value}); "
            "no trajectory can ever visit it"
        )
    return TargetMeasure(value, 0.0, pair.method)
