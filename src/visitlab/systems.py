"""Stationary stochastic systems and their seeded samplers.

Every system here produces stationary paths: the initial state is drawn from
the invariant law, and one-step evolution consumes an explicitly documented
pattern of draws from a ``numpy.random.Generator``.  Identical spec + seed
therefore reproduce identical paths, and the runner's per-trajectory seed
schedule makes whole experiments reproducible.

Systems
-------
HouseOfCardsSpec
    Nonnegative integer chain that either resets to 0 (probability ``r_i``
    from state ``i``) or climbs to ``i + 1``.
RegenerativeSpec
    Concatenation of independent blocks: a symbol ``a`` with law ``p`` repeated
    for a random block length with law ``q_a``; the first block is drawn from
    the stationary (length-biased) start.
FiniteMarkovSpec
    Irreducible finite-state Markov chain given by its transition matrix.
ProductChainSpec
    m coupled copies of finite chains: independent product, maximal
    (entrywise-min diagonal) coupling, or the sticky parametrized coupling.
IntervalMapSpec
    Piecewise-linear expanding Markov interval map with exact rational
    invariant density, sampled as its cell itinerary.
DoeblinChainSpec
    Circle chain with transition density 1 + eta * cos(2*pi*(y - x)).
FactorProductSpec
    +/-1 spin products z_i = x_i * x_{i+1} of an i.i.d. sign sequence.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceError,
    NonStationaryError,
    ResourceLimitError,
    SpecError,
    StructureError,
)

_ROW_TOL = 1e-12


def trajectory_rng(root_seed: int, index: int) -> np.random.Generator:
    """Counter-based per-trajectory generator: SeedSequence((root, index))."""
    return np.random.default_rng(np.random.SeedSequence((root_seed, index)))


# numpy's SeedSequence constants (pool of 4 uint32 words)
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL = 4


def _uint32_words(value: int) -> list:
    """Little-endian uint32 words of a nonnegative int, as SeedSequence splits it."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed words must be nonnegative, got {value}")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


class _PCG64Words(np.random.bit_generator.ISeedSequence):
    """Seed source that hands PCG64 four precomputed uint64 state words."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words only serve PCG64 (4 x uint64)")
        return self._words


def _seed_sequence_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row.

    ``entropy`` is ``(rows, words)`` uint32, all rows of one length.  The
    multipliers of SeedSequence's hash advance once per call whatever the
    data, so one pass of uint32 array arithmetic (wrapping like the C code)
    runs the algorithm for every row at once.
    """
    rows, n_words = entropy.shape
    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return out ^ (out >> np.uint32(16))

    zero = np.zeros(rows, np.uint32)
    pool = [hashmix(entropy[:, i] if i < n_words else zero) for i in range(_SS_POOL)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_SS_POOL, n_words):
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    hash_const = _SS_INIT_B
    state = np.empty((rows, 8), np.uint32)
    for i in range(8):
        value = pool[i % _SS_POOL] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    wide = state.astype(np.uint64)
    return wide[:, 0::2] | (wide[:, 1::2] << np.uint64(32))


def trajectory_rngs(root_seed: int, start: int, count: int) -> "TrajectoryStreams":
    """``[trajectory_rng(root_seed, start + i) for i in range(count)]``, batched.

    Row i is the same generator as ``trajectory_rng(root_seed, start + i)``
    and draws the same stream.  SeedSequence's hash constants advance with
    the number of entropy words, not with their values, so the whole index
    range is hashed at once with array arithmetic (split where the index
    gains a uint32 word) into each PCG64's four state words; the generators
    themselves are built only when they are asked for
    (:class:`TrajectoryStreams`).
    """
    root = _uint32_words(root_seed)
    if start < 0 or count < 0:
        raise ValueError("trajectory indices must be nonnegative")
    states = np.empty((count, 4), np.uint64)
    lo, stop = int(start), int(start) + int(count)
    while lo < stop:
        # within one 2**32-aligned span only the lowest index word varies
        hi = min(stop, ((lo >> 32) + 1) << 32)
        index = _uint32_words(lo)
        entropy = np.empty((hi - lo, len(root) + len(index)), np.uint32)
        entropy[:] = root + index
        entropy[:, len(root)] = np.arange(index[0], index[0] + hi - lo, dtype=np.uint32)
        states[lo - start : hi - start] = _seed_sequence_states(entropy)
        lo = hi
    return TrajectoryStreams(states)


class TrajectoryStreams(Sequence):
    """The generators of :func:`trajectory_rngs`, built on first use.

    Indexing or iterating builds every generator once, from its four PCG64
    state words, and keeps them, so a generator that has drawn stays where
    it is.  :meth:`uniforms` computes the streams' first draws without
    building any generator.
    """

    def __init__(self, words: np.ndarray):
        self._words = words
        self._rngs = None

    def __len__(self) -> int:
        return len(self._words)

    def _generators(self) -> list:
        if self._rngs is None:
            self._rngs = [np.random.Generator(np.random.PCG64(_PCG64Words(w))) for w in self._words]
        return self._rngs

    def __getitem__(self, index):
        return self._generators()[index]

    def __iter__(self):
        return iter(self._generators())

    def uniforms(self, n: int) -> np.ndarray:
        """Time-major ``(n, rows)`` float64: column i is a fresh ``self[i].random(n)``.

        PCG64 (O'Neill, HMC-CS-2014-0905) run as array arithmetic over every
        stream at once, seeded as numpy's ``pcg64_set_seed`` seeds it: a
        128-bit LCG state held in uint64 halves, stepped before each draw,
        whose XSL-RR output x gives the double ``(x >> 11) * 2**-53``.
        """
        words = self._words
        inc_hi = (words[:, 2] << _ONE) | (words[:, 3] >> np.uint64(63))
        inc_lo = (words[:, 3] << _ONE) | _ONE
        # from state 0 one step gives inc; add the seed state, step again
        lo = inc_lo + words[:, 1]
        hi, lo = _pcg64_step(inc_hi + words[:, 0] + (lo < inc_lo), lo, inc_hi, inc_lo)
        out = np.empty((n, len(words)))
        for t in range(n):
            hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
            x, rot = hi ^ lo, hi >> np.uint64(58)
            x = (x >> rot) | (x << (-rot & np.uint64(63)))
            np.multiply((x >> np.uint64(11)).view(np.int64), 2.0**-53, out=out[t])
        return out


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M_HI, _M_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & (2**64 - 1))
_M_LO_HI, _M_LO_LO = _M_LO >> np.uint64(32), _M_LO & np.uint64(0xFFFFFFFF)
_LOW32, _S32, _ONE = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(1)


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """``state * M + inc mod 2**128`` on uint64 halves (wrapping like the C code)."""
    # high 64 bits of lo * M_LO, from 32-bit halves
    a0, a1 = lo & _LOW32, lo >> _S32
    mid = a1 * _M_LO_LO + ((a0 * _M_LO_LO) >> _S32)
    cross = a0 * _M_LO_HI + (mid & _LOW32)
    mulhi = a1 * _M_LO_HI + (mid >> _S32) + (cross >> _S32)
    new_lo = lo * _M_LO + inc_lo
    return hi * _M_LO + lo * _M_HI + mulhi + inc_hi + (new_lo < inc_lo), new_lo


# A chunk of ``rows`` streams drawing n uniforms each takes the array route
# (:meth:`TrajectoryStreams.uniforms`) when rows >= _ARRAY_ROWS_PER_DRAW * n.
# Each of its n steps costs some 30 numpy calls over all rows, while the
# per-row route pays about 5 us per row to build and call a generator.
# Best of 5 on a 2-core VM, seeding included, per-row / array ms:
# 4096 x 16: 24.6 / 2.4, 4096 x 58: 24.9 / 7.8, 4096 x 128: 26.9 / 16.6,
# 4096 x 256: 19.3 / 25.1, 1024 x 58: 3.7 / 2.7, 1024 x 64: 3.4 / 2.9,
# 1024 x 128: 4.6 / 5.8, 256 x 16: 0.9 / 0.7, 256 x 58: 1.1 / 3.4,
# 64 x 58: 0.4 / 1.6.  Chunks hold at most 4096 rows, so the only shapes
# the rule gets wrong lie at its edge, where the two routes are close.
_ARRAY_ROWS_PER_DRAW = 16


def _array_route(rngs, n: int) -> bool:
    """Whether the first n uniforms of ``rngs`` come from one array pass."""
    return isinstance(rngs, TrajectoryStreams) and len(rngs) >= _ARRAY_ROWS_PER_DRAW * n


# uniforms per row tile of :func:`_uniform_tiles` (512 kB of float64, so that
# a tile stays in cache for every pass its sampler makes over it)
_BLOCK_UNIFORMS = 1 << 16


def _uniform_tiles(rngs, n: int):
    """Yield ``(lo, tile)``: row i of ``tile`` is ``rngs[lo + i].random(n)``.

    Every fixed-draw sampler draws its uniforms here.  On the array route one
    tile covers every row, and its transpose is the C-contiguous time-major
    array.  Otherwise the tiles cover the rows in order, ``_BLOCK_UNIFORMS //
    n`` rows each (at least one), and all are views of one buffer that the
    next tile overwrites.
    """
    if _array_route(rngs, n):
        yield 0, rngs.uniforms(n).T
        return
    rows, per = len(rngs), max(1, _BLOCK_UNIFORMS // n)
    buf = np.empty((min(per, rows), n))
    for lo in range(0, rows, per):
        tile = buf[: min(per, rows - lo)]
        for row, rng in zip(tile, rngs[lo : lo + per]):
            rng.random(out=row)
        yield lo, tile


# ---------------------------------------------------------------------------
# house-of-cards chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HouseOfCardsSpec:
    """Integer climb-or-reset chain, parametrised by its reset family.

    kinds:
      * ``constant``:    r_i = r
      * ``drifting``:    r_i = clip(r_limit + c / (i + 1), 0, 1)
      * ``alternating``: r_i = eps_even if i is even else eps_odd
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in ("constant", "drifting", "alternating"):
            raise SpecError(f"unknown house-of-cards kind {self.kind!r}")

    @classmethod
    def constant(cls, r: float) -> "HouseOfCardsSpec":
        if not (0.0 <= r <= 1.0):
            raise SpecError(f"reset probability must lie in [0, 1], got {r}")
        return cls("constant", (float(r),))

    @classmethod
    def drifting(cls, r_limit: float, c: float) -> "HouseOfCardsSpec":
        if not (0.0 <= r_limit <= 1.0):
            raise SpecError(f"limiting reset probability must lie in [0, 1], got {r_limit}")
        if not math.isfinite(c):
            raise SpecError("drift coefficient must be finite")
        return cls("drifting", (float(r_limit), float(c)))

    @classmethod
    def alternating(cls, eps_even: float, eps_odd: float) -> "HouseOfCardsSpec":
        for e in (eps_even, eps_odd):
            if not (0.0 <= e <= 1.0):
                raise SpecError(f"reset probability must lie in [0, 1], got {e}")
        return cls("alternating", (float(eps_even), float(eps_odd)))

    def reset_probs(self, states) -> np.ndarray:
        """Vector of reset probabilities r_i for the given state indices."""
        states = np.asarray(states)
        if self.kind == "constant":
            return np.full(states.shape, self.params[0])
        if self.kind == "drifting":
            r_limit, c = self.params
            return np.clip(r_limit + c / (states + 1.0), 0.0, 1.0)
        eps_even, eps_odd = self.params
        return np.where(states % 2 == 0, eps_even, eps_odd)

    def _decay_sup(self, j: int) -> float:
        """An upper bound on sup_{i >= j} (1 - r_i), used for tail bounds."""
        if self.kind == "constant":
            return 1.0 - self.params[0]
        if self.kind == "drifting":
            r_limit, c = self.params
            if c >= 0.0:
                return 1.0 - r_limit
            return 1.0 - float(self.reset_probs(np.array([j]))[0])
        eps_even, eps_odd = self.params
        return 1.0 - min(eps_even, eps_odd)


@dataclass(frozen=True)
class StationaryLaw:
    """Truncated stationary table with a certified relative tail bound."""

    probs: np.ndarray = field(repr=False)
    tail_bound: float


def hoc_stationary(
    spec: HouseOfCardsSpec, tail: float = 1e-12, cap: int = 2_000_000
) -> StationaryLaw:
    """Stationary law pi(k) proportional to prod_{i<k} (1 - r_i).

    Truncates once the geometric remainder bound drops below ``tail`` of the
    accumulated mass; raises :class:`NonStationaryError` when the weights are
    not summable (or not certifiably so) within ``cap`` states.
    """
    if not isinstance(spec, HouseOfCardsSpec):
        raise SpecError("expected a HouseOfCardsSpec")
    chunk = 4096
    weights = [np.array([1.0])]
    total = 1.0
    w_next = 1.0  # weight of the first state of the next chunk
    start = 0
    while start < cap:
        r = spec.reset_probs(np.arange(start, start + chunk))
        surv = np.cumprod(1.0 - r)
        w = w_next * surv  # weights for states start+1 .. start+chunk
        w_next = float(w[-1])
        q = spec._decay_sup(start + chunk)
        done = w_next == 0.0
        bound = 0.0
        if not done and q < 1.0:
            bound = w_next * q / (1.0 - q)
            done = bound <= tail * (total + float(np.sum(w)))
        if done:
            keep = np.concatenate(weights + [w])
            nz = np.nonzero(keep)[0]
            keep = keep[: nz[-1] + 1]
            s = float(np.sum(keep))
            return StationaryLaw(keep / s, bound / s)
        weights.append(w)
        total += float(np.sum(w))
        start += chunk
    raise NonStationaryError(
        "stationary weights for this reset family are not summable with a "
        f"certifiable geometric tail within {cap} states"
    )


def sample_house_of_cards(spec: HouseOfCardsSpec, n: int, rngs) -> np.ndarray:
    """Stationary paths, a C-contiguous ``(rows, n)`` array of states.

    Row i draws n uniforms from rngs[i]: the first picks the stationary
    start, and each later one resets the chain from state x to 0 when it
    lies below r_x, else climbs to x + 1.  A start lies below ``top``, the
    size of the truncated stationary table, and a path climbs at most n - 1
    states, so every state is below ``top + n``; the dtype is the smallest
    unsigned one that holds ``top + n``.  The drifting and alternating
    families step each row with :func:`_climb_or_reset`.

    The ``constant`` family gives the same paths by a reset-anchor scan over
    all rows at once.  The uniforms come one cached row tile at a time
    (:func:`_uniform_tiles`), and each tile plants its anchors in its rows
    of the output.  :func:`_last_anchor` then finds every column's last
    anchor by a doubling scan, one row tile of the output at a time,
    ping-ponging with one scratch tile of at most 512 kB.
    """
    if spec.kind != "constant":
        return _climb_or_reset(spec, n, rngs)
    law = _hoc_law_cache(spec)
    top = law.probs.size  # above every start state
    cdf = np.cumsum(law.probs)
    paths = np.empty((len(rngs), n), dtype=np.min_scalar_type(top + n))
    # anchors shifted up by top: the start plants top - init (between 1 and
    # top), a reset at column t plants t + top, and a column without a reset
    # holds 0; the last anchor at or before t, subtracted from t + top, is
    # the state at t
    shifted = np.arange(top, top + n, dtype=paths.dtype)
    for lo, u in _uniform_tiles(rngs, n):
        anchor = paths[lo : lo + len(u)]
        init = np.minimum(np.searchsorted(cdf, u[:, 0], side="right"), top - 1)
        anchor[:, 0] = top - init
        np.less(u[:, 1:], spec.params[0], out=anchor[:, 1:])
        anchor[:, 1:] *= shifted[1:]
    # scan tiles hold as many bytes as a uniform tile (512 kB): each pass
    # costs a few numpy calls, and over a uniform tile's rows alone (15 x
    # 4306 uint16 states) that overhead made rare resets no faster than a
    # serial running maximum
    per = max(1, _BLOCK_UNIFORMS * 8 // (n * paths.itemsize))
    scratch = np.empty((min(per, len(paths)), n), dtype=paths.dtype)
    for lo in range(0, len(paths), per):
        tile = paths[lo : lo + per]
        np.subtract(shifted, _last_anchor(tile, scratch), out=tile)
    return paths


def _climb_or_reset(spec: HouseOfCardsSpec, n: int, rngs) -> np.ndarray:
    """One stationary path per generator, each stepped state by state.

    The dtype is that of :func:`sample_house_of_cards`.
    """
    law = _hoc_law_cache(spec)
    top = law.probs.size
    cdf = np.cumsum(law.probs)
    r_table = spec.reset_probs(np.arange(top + n)).tolist()
    states = np.empty((len(rngs), n), dtype=np.min_scalar_type(top + n))
    for lo, tile in _uniform_tiles(rngs, n):
        for row, u in zip(states[lo : lo + len(tile)], tile.tolist()):
            x = min(int(np.searchsorted(cdf, u[0], side="right")), top - 1)
            path = [x]
            for uj in u[1:]:
                x = 0 if uj < r_table[x] else x + 1
                path.append(x)
            row[:] = path
    return states


def _last_anchor(anchor: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Running maximum of ``anchor`` along its rows, held in ``anchor`` or ``scratch``.

    ``anchor`` is a C-contiguous ``(rows, n)`` tile whose nonzero entries
    strictly increase along each row and whose column 0 is nonzero;
    ``scratch`` has at least as many rows and the same dtype.  Returns the
    one of the two (a view of ``scratch`` cut to ``rows``) whose entry t is
    ``np.maximum.accumulate(anchor, axis=1)[:, t]``; the other is overwritten.
    """
    # Hillis-Steele doubling: after the pass with span s, entry t holds the
    # maximum of columns max(0, t - 2s + 1)..t.  Since the anchors increase
    # along a row, a nonzero maximum there is the last anchor at or before
    # t, which is the running maximum, so the scan may stop once no entry is
    # 0; column 0 is nonzero, so it stops by span >= n at the latest.
    # (min() == 0 tests that at a third of the cost of all().)
    cur, nxt = anchor, scratch[: len(anchor)]
    span, n = 1, anchor.shape[1]
    while span < n and cur.min() == 0:
        nxt[:, :span] = cur[:, :span]
        np.maximum(cur[:, span:], cur[:, :-span], out=nxt[:, span:])
        cur, nxt = nxt, cur
        span *= 2
    return cur


_HOC_LAWS: dict[tuple, StationaryLaw] = {}


def _hoc_law_cache(spec: HouseOfCardsSpec) -> StationaryLaw:
    key = (spec.kind, spec.params)
    if key not in _HOC_LAWS:
        _HOC_LAWS[key] = hoc_stationary(spec)
    return _HOC_LAWS[key]


# ---------------------------------------------------------------------------
# finite Markov chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteMarkovSpec:
    """Irreducible row-stochastic transition matrix on {0..M-1}."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        q = np.asarray(self.matrix, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 1:
            raise SpecError("transition matrix must be square and nonempty")
        if not np.all(np.isfinite(q)) or np.any(q < 0):
            raise SpecError("transition probabilities must be finite and nonnegative")
        rows = q.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > _ROW_TOL:
            raise SpecError("every transition row must sum to 1 within 1e-12")
        _require_strongly_connected(q)
        object.__setattr__(self, "matrix", q)

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    def chain(self) -> tuple:
        """``(start, chain)``: the stationary law and the chain itself."""
        return markov_stationary(self), self


def _reaches_all(adj: np.ndarray) -> bool:
    """Whether state 0 reaches every state along the boolean edges ``adj``."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _require_strongly_connected(q: np.ndarray) -> None:
    # strongly connected <=> state 0 reaches every state in q and in q^T
    adj = q > 0
    if not (_reaches_all(adj) and _reaches_all(adj.T)):
        raise StructureError(
            "the positive pattern of the transition matrix is not strongly "
            "connected (reducible chain)"
        )


def markov_stationary(matrix, tol: float = 1e-10) -> np.ndarray:
    """Unique stationary row vector of an irreducible stochastic matrix."""
    if isinstance(matrix, FiniteMarkovSpec):
        q = matrix.matrix
    else:
        q = FiniteMarkovSpec(np.asarray(matrix, dtype=float)).matrix
    m = q.shape[0]
    a = q.T - np.eye(m)
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = float(np.max(np.abs(pi @ q - pi)))
    if residual > tol:
        raise ConvergenceError(f"stationary solve residual {residual} exceeds {tol}")
    return pi


def sample_chain(spec, n: int, rngs) -> np.ndarray:
    """Stationary paths of a finite-state system, a C-contiguous ``(rows, n)`` array.

    ``spec.chain()`` gives the start law and the chain.  The dtype is the
    smallest unsigned one that holds every state (uint8 up to 256 states).
    Row i draws n uniforms from rngs[i]: the first picks the start, each
    later one takes an inverse-CDF step (:func:`_step_columns`).
    """
    start, chain = spec.chain()
    return _step_columns(rngs, n, start, chain.matrix)


# Chains with too many distinct thresholds for :func:`_bucket_table` step
# through one 1-D gather per cumulative threshold column if they have at most
# this many states; larger ones gather whole cumulative rows (the two cost the
# same at about 20-28 states).
_THRESHOLD_STATES = 24


def _bucket_table(cum: np.ndarray):
    """``(breaks, lut)`` for stepping by table lookup, or None if it does not fit.

    ``breaks`` holds the distinct thresholds ``cum[:, :k-1]`` and bucket b the
    uniforms u with exactly b breaks at or below u.  ``lut[b * k + s]`` (uint8)
    counts the thresholds of row s at or below ``breaks[b - 1]``: as every
    threshold is a break, that is the count at or below u, the next state.
    The bucket index b * k + s must fit in a uint8.  Where it does, a break
    costs one compare-and-add pass over a cached block of uniforms, far less
    than a threshold column's gather and compare at every step, so the lookup
    is the faster route for every such chain (timed up to 16 states).
    """
    k = cum.shape[0]
    breaks = np.unique(cum[:, : k - 1])
    if (breaks.size + 1) * k > 256:
        return None
    lower = np.concatenate(([-np.inf], breaks))
    lut = (cum[None, :, : k - 1] <= lower[:, None, None]).sum(axis=2)
    return breaks, lut.astype(np.uint8).ravel()


def _step_columns(rngs, n: int, stationary: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Inverse-CDF stepping of one chain per row; C-contiguous ``(rows, n)``.

    Row i draws its n uniforms from rngs[i]: the first picks the start from
    the ``stationary`` law, each later one steps from state s to the number
    of cumulative thresholds ``cum[s]`` at or below it, as
    ``searchsorted(cum[s], u, "right")`` does.  States are stored in the
    smallest unsigned dtype that holds them and stepped column by column in
    an ``(n, rows)`` array, transposed once at the end.

    Chains with few distinct thresholds (:func:`_bucket_table`) bucket the
    uniforms as they are drawn, one cached row tile (:func:`_uniform_tiles`)
    at a time, into uint8 codes; after one transpose of the codes each
    column costs two uint8 passes: add the previous states to its codes,
    look the sums up.  Other chains copy the uniforms, tile by tile, into a
    time-major float64 buffer and compare each of its columns with the
    thresholds of the previous states.  On the array route the uniforms, and
    so the codes, are time-major already, and the codes' transpose does not
    copy.
    """
    cdf = np.cumsum(stationary)
    cdf[-1] = 1.0
    cum = np.cumsum(matrix, axis=1)
    cum[:, -1] = 1.0
    k = cum.shape[1]
    table = _bucket_table(cum)
    if table is not None:
        breaks, lut = table
        # time-major on the array route, where the transpose below is a view
        codes = np.zeros((len(rngs), n), np.uint8, order="F" if _array_route(rngs, n) else "C")
        start = np.empty(len(rngs), dtype=np.intp)
        for lo, block in _uniform_tiles(rngs, n):
            part = codes[lo : lo + len(block)]
            flags = np.empty_like(block, dtype=bool)
            start[lo : lo + len(block)] = np.searchsorted(cdf, block[:, 0], side="right")
            for brk in breaks:
                part += np.less_equal(brk, block, out=flags).view(np.uint8)
            part *= k
        states = np.ascontiguousarray(codes.T)
        del codes
        # column t holds its bucket code times k until it is overwritten by
        # the state that lut gives for that code and the state at t - 1
        # (the sums are valid indices, so "clip" only skips a bounds check)
        states[0] = start
        for t in range(1, n):
            col = states[t]
            np.add(col, states[t - 1], out=col)
            lut.take(col, out=col, mode="clip")
        return np.ascontiguousarray(states.T)
    buf = np.empty((n, len(rngs)))
    for lo, tile in _uniform_tiles(rngs, n):
        buf[:, lo : lo + len(tile)] = tile.T
    states = np.empty(buf.shape, dtype=np.min_scalar_type(k - 1))
    # the previous states as gather indices, converted once per column
    s = np.searchsorted(cdf, buf[0], side="right")
    states[0] = s
    if k <= _THRESHOLD_STATES:
        # no uniform reaches the last threshold (1.0), so it is skipped
        first, *rest = [np.ascontiguousarray(cum[:, j]) for j in range(k - 1)]
        for t in range(1, n):
            col, count = buf[t], states[t]
            np.less_equal(first.take(s), col, out=count.view(bool))
            for thr in rest:
                count += (thr.take(s) <= col).view(np.uint8)
            s[:] = count
    else:
        for t in range(1, n):
            s = (cum[s] <= buf[t][:, None]).sum(axis=1)
            states[t] = s
    return np.ascontiguousarray(states.T)


# ---------------------------------------------------------------------------
# coupled product chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductChainSpec:
    """m >= 2 coupled finite chains over a common alphabet.

    couplings:
      * ``independent``: components move independently.
      * ``maximal``: m = 2; from a diagonal state the pair synchronises with
        the largest possible probability (entrywise min), and the leftover
        mass moves through independent residuals (which, for two chains,
        have disjoint supports, so the synchronised mass is exactly the min).
      * ``parametrized``: m = 2 binary chains; from a diagonal state (a, a)
        each component moves with the sticky marginal
        (1 - gamma) * Q_i(a, .) + gamma * point mass at a, independently.

    Off-diagonal states always move as independent products of the original
    marginals.
    """

    components: tuple
    coupling: str = "independent"
    gamma: float | None = None

    def __post_init__(self):
        comps = tuple(
            c if isinstance(c, FiniteMarkovSpec) else FiniteMarkovSpec(np.asarray(c, dtype=float))
            for c in self.components
        )
        if len(comps) < 2:
            raise SpecError("a product chain needs at least two components")
        sizes = {c.n_states for c in comps}
        if len(sizes) != 1:
            raise SpecError("all components must share one alphabet size")
        if self.coupling not in ("independent", "maximal", "parametrized"):
            raise SpecError(f"unknown coupling {self.coupling!r}")
        if self.coupling == "parametrized":
            if len(comps) != 2 or comps[0].n_states != 2:
                raise SpecError("parametrized coupling is defined for two binary chains")
            if self.gamma is None or not (0.0 <= self.gamma <= 1.0):
                raise SpecError("parametrized coupling needs gamma in [0, 1]")
        elif self.coupling == "maximal" and len(comps) != 2:
            raise SpecError("maximal coupling simulation supports exactly two chains")
        object.__setattr__(self, "components", comps)

    @property
    def n_states(self) -> int:
        return self.components[0].n_states

    @property
    def n_chains(self) -> int:
        return len(self.components)

    # The kernel and the chain are built once per spec and kept in its
    # __dict__, which pickles with it, so a worker's chunks reuse them too.
    # (functools.cache cannot key on a spec: its matrices are unhashable.)

    def kernel(self) -> np.ndarray:
        """:func:`pair_kernel` of this spec, read-only."""
        if "_kernel" not in self.__dict__:
            kernel = pair_kernel(self)
            kernel.setflags(write=False)
            object.__setattr__(self, "_kernel", kernel)
        return self._kernel

    def chain(self) -> tuple:
        """``(start, chain)``: the chain on tuples (:meth:`kernel`) and its
        stationary law, read-only."""
        if "_chain" not in self.__dict__:
            chain = FiniteMarkovSpec(self.kernel())
            start = markov_stationary(chain)
            start.setflags(write=False)
            object.__setattr__(self, "_chain", (start, chain))
        return self._chain


def sync_kernel(spec: ProductChainSpec) -> np.ndarray:
    """Matrix of joint agreement moves from diagonal states.

    Entry (a, b) is the probability that, started at the diagonal state
    (a, ..., a), every component lands on b in one step: :func:`pair_kernel`
    restricted to the diagonal.  Its spectral radius drives the
    synchronisation-cylinder laws.
    """
    diag = _diagonal_codes(spec)
    return spec.kernel()[np.ix_(diag, diag)]


def _sticky_row(matrix: np.ndarray, a: int, gamma: float) -> np.ndarray:
    row = (1.0 - gamma) * matrix[a].copy()
    row[a] += gamma
    return row


def pair_kernel(spec: ProductChainSpec) -> np.ndarray:
    """Full transition matrix of the coupled pair on tuples of states.

    Tuples are encoded in row-major order (state = sum_i a_i * M^(m-1-i)).
    """
    m_states = spec.n_states
    n_chains = spec.n_chains
    size = m_states**n_chains
    if size > 4096:
        raise ResourceLimitError(f"coupled state space of size {size} exceeds 4096")
    mats = [c.matrix for c in spec.components]
    if spec.coupling == "independent":
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out
    out = np.zeros((size, size))
    for joint in itertools.product(range(m_states), repeat=n_chains):
        row = _encode(joint, m_states)
        on_diag = len(set(joint)) == 1
        if not on_diag:
            dist = mats[0][joint[0]]
            for i in range(1, n_chains):
                dist = np.kron(dist, mats[i][joint[i]])
            out[row] = dist
            continue
        a = joint[0]
        if spec.coupling == "parametrized":
            dist = _sticky_row(mats[0], a, spec.gamma)
            for i in range(1, n_chains):
                dist = np.kron(dist, _sticky_row(mats[i], a, spec.gamma))
            out[row] = dist
        else:  # maximal, two chains
            low = np.minimum(mats[0][a], mats[1][a])
            sync_mass = float(low.sum())
            res0 = mats[0][a] - low
            res1 = mats[1][a] - low
            for b in range(m_states):
                out[row, _encode((b, b), m_states)] += low[b]
            if sync_mass < 1.0:
                out[row] += np.kron(res0, res1) / (1.0 - sync_mass)
    return out


def _encode(joint, m_states: int) -> int:
    code = 0
    for a in joint:
        code = code * m_states + int(a)
    return code


def _diagonal_codes(spec: ProductChainSpec) -> list:
    """Tuple codes of the diagonal states (a, ..., a), in the order of a."""
    return [_encode((a,) * spec.n_chains, spec.n_states) for a in range(spec.n_states)]


def decode_states(codes: np.ndarray, m_states: int, n_chains: int) -> np.ndarray:
    """Inverse of the row-major tuple encoding; returns (..., n_chains).

    One gather from the ``(m_states**n_chains, n_chains)`` table of tuples.
    """
    table = np.indices((m_states,) * n_chains).reshape(n_chains, -1).T
    return np.take(table.astype(np.int64, order="C"), codes, axis=0)


def sample_product_chain_batch(spec: ProductChainSpec, n: int, rngs) -> np.ndarray:
    """Stationary paths of the coupled chain, C-contiguous ``(rows, n, n_chains)``.

    The tuple codes come from :func:`sample_chain` in the smallest unsigned
    dtype that holds them (uint8 up to 256 tuples, so binary pairs take the
    lookup route); :func:`decode_states` turns them into int64 components.
    """
    return decode_states(sample_chain(spec, n, rngs), spec.n_states, spec.n_chains)


# ---------------------------------------------------------------------------
# regenerative block processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegenerativeSpec:
    """Blocks of a repeated symbol with independent lengths.

    ``length_model`` is either ``shared`` (one integer law ``shared_q`` for
    every symbol; ``shared_q[k-1]`` = P(length = k)) or ``smith`` (symbol
    ``a >= 1`` takes length a + 1 with probability 1/a, else length 1, so
    every symbol has mean block length exactly 2).
    """

    symbols: tuple
    symbol_probs: np.ndarray = field(repr=False)
    length_model: str = "shared"
    shared_q: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        symbols = tuple(int(a) for a in self.symbols)
        if len(symbols) == 0 or len(set(symbols)) != len(symbols):
            raise SpecError("symbols must be distinct and nonempty")
        # paths hold the symbols as int64
        if not all(-(2**63) <= a < 2**63 for a in symbols):
            raise SpecError("symbols must fit in int64")
        if any(symbols[i] >= symbols[i + 1] for i in range(len(symbols) - 1)):
            raise SpecError("symbols must be strictly increasing")
        probs = np.asarray(self.symbol_probs, dtype=float)
        if probs.shape != (len(symbols),) or np.any(probs < 0):
            raise SpecError("symbol_probs must be nonnegative, one per symbol")
        s = float(probs.sum())
        if abs(s - 1.0) > 1e-9:
            raise SpecError("symbol probabilities must sum to 1")
        probs = probs / s
        if self.length_model == "shared":
            q = np.asarray(self.shared_q, dtype=float)
            if q.ndim != 1 or q.size == 0 or np.any(q < 0):
                raise SpecError("shared_q must be a nonempty nonnegative vector")
            sq = float(q.sum())
            if abs(sq - 1.0) > 1e-9:
                raise SpecError("shared block-length law must sum to 1 (tail < 1e-9)")
            object.__setattr__(self, "shared_q", q / sq)
        elif self.length_model == "smith":
            if any(a < 1 for a in symbols):
                raise SpecError("smith lengths require symbols >= 1")
            if self.shared_q is not None:
                raise SpecError("smith model takes no shared length law")
        else:
            raise SpecError(f"unknown length model {self.length_model!r}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "symbol_probs", probs)

    @classmethod
    def with_shared_lengths(cls, symbols, probs, q) -> "RegenerativeSpec":
        return cls(tuple(symbols), np.asarray(probs, float), "shared", np.asarray(q, float))

    @classmethod
    def smith(cls, symbols, probs) -> "RegenerativeSpec":
        return cls(tuple(symbols), np.asarray(probs, float), "smith", None)

    def mean_block_by_symbol(self) -> np.ndarray:
        """nu_a = E[block length | symbol a]."""
        if self.length_model == "shared":
            k = np.arange(1, self.shared_q.size + 1, dtype=float)
            return np.full(len(self.symbols), float(k @ self.shared_q))
        return np.full(len(self.symbols), 2.0)

    def mean_block(self) -> float:
        """nu = sum_a p(a) nu_a, the long-run mean block length."""
        return float(self.symbol_probs @ self.mean_block_by_symbol())

    def length_law(self, a: int) -> np.ndarray:
        """q_a as a vector (index k-1 <-> length k)."""
        if self.length_model == "shared":
            return self.shared_q
        q = np.zeros(a + 1)
        q[0] = 1.0 - 1.0 / a
        q[a] = 1.0 / a
        return q

    def stationary_symbol_probs(self) -> np.ndarray:
        """Length-biased symbol law of the block covering a stationary time."""
        nu_a = self.mean_block_by_symbol()
        w = self.symbol_probs * nu_a
        return w / w.sum()


def _residual_length_cdf(spec: RegenerativeSpec, ai: int) -> np.ndarray:
    """CDF of the remaining length of a stationary block of symbol index ai,
    P(rem = k) = sum_{l >= k} q(l) / nu_a (index k-1 <-> remaining length k)."""
    q = spec.length_law(spec.symbols[ai])
    rem_law = np.cumsum(q[::-1])[::-1] / spec.mean_block_by_symbol()[ai]
    cdf_rem = np.cumsum(rem_law)
    cdf_rem[-1] = max(cdf_rem[-1], 1.0)
    return cdf_rem


def sample_regenerative(spec: RegenerativeSpec, n: int, rngs) -> np.ndarray:
    """Stationary paths of n symbols, a C-contiguous ``(rows, n)`` int64 array.

    Each row steps through its own generator: two uniforms for the
    stationary first block (its length-biased symbol, then its residual
    length), then repeated rounds of paired uniform blocks (symbols,
    lengths) until n symbols are produced.
    """
    sym_arr = np.asarray(spec.symbols, dtype=np.int64)
    cdf_first = np.cumsum(spec.stationary_symbol_probs())
    cdf_first[-1] = 1.0
    cdf_rem = [_residual_length_cdf(spec, ai) for ai in range(sym_arr.size)]
    cdf_sym = np.cumsum(spec.symbol_probs)
    cdf_sym[-1] = 1.0
    nu = spec.mean_block()
    if spec.length_model == "shared":
        cdf_len = np.cumsum(spec.shared_q)
        cdf_len[-1] = 1.0
    out = np.empty((len(rngs), n), dtype=np.int64)
    for row, rng in zip(out, rngs):
        ai = int(np.searchsorted(cdf_first, rng.random(), side="right"))
        rem = 1 + int(np.searchsorted(cdf_rem[ai], rng.random(), side="right"))
        produced = min(rem, cdf_rem[ai].size, n)
        row[:produced] = sym_arr[ai]
        while produced < n:
            need = n - produced
            batch = max(16, int(need / nu * 1.25) + 8)
            us = rng.random(batch)
            ul = rng.random(batch)
            ais = np.searchsorted(cdf_sym, us, side="right")
            if spec.length_model == "shared":
                lens = 1 + np.searchsorted(cdf_len, ul, side="right")
            else:
                a_vals = sym_arr[ais]
                lens = np.where(ul < 1.0 - 1.0 / a_vals, 1, a_vals + 1)
            flat = np.repeat(sym_arr[ais], lens)[:need]
            row[produced : produced + flat.size] = flat
            produced += flat.size
    return out


# ---------------------------------------------------------------------------
# piecewise-linear Markov interval maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalMapSpec:
    """Expanding piecewise-linear map with a Markov branch structure.

    On cell i = [breaks[i], breaks[i+1]) the map is x -> slopes[i] * x +
    intercepts[i]; every branch image must be a union of cells with endpoints
    on the break grid (checked exactly with Fractions).
    """

    breaks: tuple
    slopes: tuple
    intercepts: tuple

    def __post_init__(self):
        breaks = tuple(Fraction(b) for b in self.breaks)
        slopes = tuple(Fraction(s) for s in self.slopes)
        icepts = tuple(Fraction(c) for c in self.intercepts)
        if len(breaks) < 2 or breaks[0] != 0 or breaks[-1] != 1:
            raise SpecError("breaks must run from 0 to 1")
        if any(breaks[i] >= breaks[i + 1] for i in range(len(breaks) - 1)):
            raise SpecError("breaks must be strictly increasing")
        ncells = len(breaks) - 1
        if len(slopes) != ncells or len(icepts) != ncells:
            raise SpecError("need one slope and intercept per cell")
        if any(abs(s) <= 1 for s in slopes):
            raise SpecError("the map must be expanding (|slope| > 1 on every cell)")
        grid = set(breaks)
        for i in range(ncells):
            lo = slopes[i] * breaks[i] + icepts[i]
            hi = slopes[i] * breaks[i + 1] + icepts[i]
            lo, hi = min(lo, hi), max(lo, hi)
            if lo < 0 or hi > 1:
                raise SpecError(f"branch {i} maps outside [0, 1]")
            if lo not in grid or hi not in grid:
                raise StructureError(
                    f"branch {i} image ({lo}, {hi}) is not a union of cells: "
                    "the partition is not Markov for this map"
                )
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "intercepts", icepts)

    @property
    def n_cells(self) -> int:
        return len(self.breaks) - 1

    def cell_lengths(self) -> tuple:
        return tuple(self.breaks[i + 1] - self.breaks[i] for i in range(self.n_cells))

    def covers(self, i: int, j: int) -> bool:
        """Does the image of cell i cover cell j?"""
        lo = self.slopes[i] * self.breaks[i] + self.intercepts[i]
        hi = self.slopes[i] * self.breaks[i + 1] + self.intercepts[i]
        lo, hi = min(lo, hi), max(lo, hi)
        return lo <= self.breaks[j] and self.breaks[j + 1] <= hi

    def transition_matrix_exact(self) -> list:
        """Density transfer matrix Q as exact Fractions.

        Row i gives 1/|slope_i| to every cell covered by branch i, so a
        density constant on cells maps as h -> h Q and the invariant density
        solves h Q = h.  Rows sum to 1 only when all cells have equal length;
        the itinerary's transition matrix is :meth:`itinerary_matrix_exact`.
        """
        lengths = self.cell_lengths()
        out = []
        for i in range(self.n_cells):
            inv = 1 / abs(self.slopes[i])
            row = [inv if self.covers(i, j) else Fraction(0) for j in range(self.n_cells)]
            covered = sum(lengths[j] for j in range(self.n_cells) if self.covers(i, j))
            if covered != abs(self.slopes[i]) * lengths[i]:
                raise StructureError(
                    f"branch {i} image is not exactly a union of cells: "
                    "the partition is not Markov for this map"
                )
            out.append(row)
        return out

    def itinerary_matrix_exact(self) -> list:
        """Transition matrix of the cell itinerary as exact Fractions.

        Started from the invariant density (constant on cells), the point is
        uniform on its cell, so its image is uniform on the cells branch i
        covers: P(i, j) = |cell_j| / (|slope_i| * |cell_i|).  Rows sum to 1.
        """
        lengths = self.cell_lengths()
        return [
            [q * lengths[j] / lengths[i] for j, q in enumerate(row)]
            for i, row in enumerate(self.transition_matrix_exact())
        ]

    @functools.cache
    def chain(self) -> tuple:
        """``(start, chain)``: the exact :func:`interval_symbol_stationary` law
        as floats, and the finite Markov chain that the cell itinerary follows."""
        start = np.array(interval_symbol_stationary(self), dtype=float)
        return start, FiniteMarkovSpec(np.array(self.itinerary_matrix_exact(), dtype=float))


def _solve_left_eigvec_exact(rows: list) -> list:
    """Exact left fixed vector h Q = h of a rational matrix, entries summing to 1."""
    m = len(rows)
    # build (Q^T - I) with an appended normalisation row, solve by Gauss
    a = [[rows[j][i] - (1 if i == j else 0) for j in range(m)] for i in range(m)]
    a[-1] = [Fraction(1)] * m
    b = [Fraction(0)] * (m - 1) + [Fraction(1)]
    mat = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(m):
        piv = next((r for r in range(col, m) if mat[r][col] != 0), None)
        if piv is None:
            raise StructureError("invariant-density system is singular")
        mat[col], mat[piv] = mat[piv], mat[col]
        pval = mat[col][col]
        mat[col] = [v / pval for v in mat[col]]
        for r in range(m):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[col])]
    return [mat[i][m] for i in range(m)]


def interval_map_invariant(spec: IntervalMapSpec) -> tuple:
    """Exact piecewise-constant invariant density (one Fraction per cell),
    normalised so that sum_i h_i * |cell_i| = 1."""
    q = spec.transition_matrix_exact()
    _require_strongly_connected(np.array(q, dtype=float))
    h = _solve_left_eigvec_exact(q)
    total = sum(hi * li for hi, li in zip(h, spec.cell_lengths()))
    h = [hi / total for hi in h]
    if any(hi <= 0 for hi in h):
        raise StructureError("invariant density is not strictly positive")
    return tuple(h)


def interval_symbol_stationary(spec: IntervalMapSpec) -> tuple:
    """Exact stationary law of the itinerary chain: pi_i = h_i * |cell_i|."""
    h = interval_map_invariant(spec)
    return tuple(hi * li for hi, li in zip(h, spec.cell_lengths()))


# ---------------------------------------------------------------------------
# Doeblin circle chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoeblinChainSpec:
    """Markov chain on [0, 1) with density kernel 1 + eta * cos(2 pi (y - x)).

    Lebesgue measure is invariant (the kernel is doubly stochastic); the
    density is bounded between 1 - eta and 1 + eta, so for eta < 1 the chain
    is uniformly Doeblin with sup-density 1 + eta.
    """

    eta: float
    n_chains: int = 2

    def __post_init__(self):
        if not (0.0 <= self.eta < 1.0):
            raise SpecError(f"eta must lie in [0, 1), got {self.eta}")
        if self.n_chains < 1:
            raise SpecError("need at least one chain")

    @property
    def density_sup(self) -> float:
        return 1.0 + self.eta


def _doeblin_increments(eta: float, m: int, rng) -> np.ndarray:
    """m i.i.d. draws from the density 1 + eta*cos(2 pi d) by rejection.

    Each round draws a (proposal, acceptance) uniform pair block for the
    still-missing count, so consumption is a deterministic function of the
    generator state.
    """
    if eta == 0.0:
        return rng.random(m)
    out = np.empty(m)
    filled = 0
    bound = 1.0 + eta
    while filled < m:
        need = m - filled
        props = rng.random(need)
        us = rng.random(need)
        ok = us * bound <= 1.0 + eta * np.cos(2.0 * np.pi * props)
        took = int(ok.sum())
        out[filled : filled + took] = props[ok]
        filled += took
    return out


def sample_doeblin(spec: DoeblinChainSpec, n: int, rngs) -> np.ndarray:
    """Stationary independent chains, a C-contiguous ``(rows, n, n_chains)`` array.

    Each row steps through its own generator with :func:`_doeblin_path`.
    """
    return np.stack([_doeblin_path(spec, n, rng) for rng in rngs])


def _doeblin_path(spec: DoeblinChainSpec, n: int, rng) -> np.ndarray:
    """One path of the independent chains, shape (n, n_chains).

    Draw pattern per chain: one uniform for the start, then rejection rounds
    for the remaining increments; chains are consumed in order.
    """
    out = np.empty((n, spec.n_chains))
    for c in range(spec.n_chains):
        out[0, c] = rng.random()
        if n > 1:
            incr = _doeblin_increments(spec.eta, n - 1, rng)
            out[1:, c] = (out[0, c] + np.cumsum(incr)) % 1.0
    return out


# ---------------------------------------------------------------------------
# sign-product factor chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorProductSpec:
    """z_i = x_i * x_{i+1} for i.i.d. signs with P(x = +1) = plus_prob.

    The sign marginal must be asymmetric (plus_prob != 1/2); otherwise the
    lift degenerates and the cylinder laws below lose their meaning.
    """

    plus_prob: float

    def __post_init__(self):
        if not (0.0 < self.plus_prob < 1.0):
            raise SpecError("plus_prob must lie strictly between 0 and 1")
        if self.plus_prob == 0.5:
            raise SpecError("plus_prob = 1/2 is degenerate for this factor system")


def sample_factor_product_batch(spec: FactorProductSpec, n: int, rngs) -> np.ndarray:
    """n product symbols (+-1) per row, a C-contiguous ``(rows, n)`` int64 array.

    Row i draws n + 1 sign uniforms from rngs[i], and sign j is +1 where
    uniform j lies below ``plus_prob``.
    """
    out = np.empty((len(rngs), n), dtype=np.int64)
    for lo, u in _uniform_tiles(rngs, n + 1):
        plus = u < spec.plus_prob
        # x_j * x_(j+1) is +1 exactly where the two signs agree
        part = out[lo : lo + len(u)]
        np.equal(plus[:, :-1], plus[:, 1:], out=part)
        part *= 2
        part -= 1
    return out


# ---------------------------------------------------------------------------
# generic path generation
# ---------------------------------------------------------------------------


# one sampler per system type: sampler(spec, n, rngs) returns the stationary
# paths of n steps, row i drawn from rngs[i] alone
_SAMPLERS = {
    HouseOfCardsSpec: sample_house_of_cards,
    FiniteMarkovSpec: sample_chain,
    ProductChainSpec: sample_product_chain_batch,
    RegenerativeSpec: sample_regenerative,
    IntervalMapSpec: sample_chain,
    DoeblinChainSpec: sample_doeblin,
    FactorProductSpec: sample_factor_product_batch,
}


def sample_path(spec, n: int, rng):
    """Single stationary path for any system spec: row 0 of :func:`sample_paths`.

    ``rng`` is a Generator, which draws the path, or a seed for a fresh one.
    """
    return sample_paths(spec, n, [np.random.default_rng(rng)])[0]


def sample_paths(spec, n: int, rngs) -> np.ndarray:
    """Stationary paths of n steps, one row per generator in ``rngs``.

    Returns a C-contiguous array, ``(rows, n)``, or ``(rows, n, n_chains)``
    for product chains and Doeblin chains.  Row i depends on rngs[i] alone.
    Finite Markov chains and interval-map itineraries hold their states in
    the smallest unsigned dtype that fits them (uint8 up to 256 states), and
    house-of-cards chains in the smallest one that holds every state a path
    of n steps can reach (:func:`sample_house_of_cards`); product chains
    decode their tuple codes into int64 components.
    The system's sampler in ``_SAMPLERS`` either steps all rows at once
    (finite Markov and product chains, interval maps through their cell
    itinerary, constant-reset house-of-cards chains and sign products) or
    steps each row in turn (drifting and alternating house-of-cards chains,
    regenerative processes and Doeblin chains).
    """
    try:
        sampler = _SAMPLERS[type(spec)]
    except KeyError:
        raise SpecError(f"unknown system spec {type(spec).__name__}") from None
    if n < 1:
        raise SpecError("path length must be >= 1")
    return sampler(spec, n, rngs)


# simulated steps per chunk of :func:`path_chunks`
_CHUNK_ELEMS = 1 << 22
# simulated steps one request may ask of :func:`path_chunks`: the runner's
# simulation per sweep value and the Monte-Carlo measure are refused above it
_STEP_GUARD = 10_000_000_000


def path_chunks(spec, n: int, seed: int, start: int, count: int):
    """Yield ``(first, paths)`` over the trajectories ``start .. start + count - 1``.

    ``paths`` holds trajectories ``first, first + 1, ...``: the
    :func:`sample_paths` of n steps whose row i draws from
    ``trajectory_rng(seed, first + i)``.  A chunk holds ``_CHUNK_ELEMS // n``
    trajectories (at least one; the last chunk may hold fewer), so its
    arrays stay bounded whatever the path length.
    """
    per = max(1, _CHUNK_ELEMS // max(n, 1))
    for first in range(start, start + count, per):
        take = min(per, start + count - first)
        yield first, sample_paths(spec, n, trajectory_rngs(seed, first, take))
