import collections
import itertools
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from visitlab import (
    DoeblinChainSpec,
    FactorProductSpec,
    FiniteMarkovSpec,
    HouseOfCardsSpec,
    IntervalMapSpec,
    ProductChainSpec,
    RegenerativeSpec,
    CylinderTarget,
    ResourceLimitError,
    RunLengthTarget,
    SpecError,
    StructureError,
    SyncCylinderTarget,
    measure_exact,
    predict_for,
    sample_path,
    sample_paths,
    sync_kernel,
    trajectory_rng,
)
from visitlab import runner, systems
from visitlab.config import load_config
from visitlab.errors import NonStationaryError
from visitlab.targets import sync_measure
from visitlab.systems import (
    hoc_stationary,
    interval_map_invariant,
    interval_symbol_stationary,
    markov_stationary,
    pair_kernel,
    sample_chain,
    decode_states,
    sample_factor_product_batch,
    sample_house_of_cards,
    sample_product_chain_batch,
    trajectory_rngs,
)

F = Fraction

# two-state reference pair used across the coupling checks
Q1 = np.array([[0.2, 0.8], [0.3, 0.7]])
Q2 = np.array([[0.8, 0.2], [0.1, 0.9]])
CRITERION_07 = np.array([[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]])

# the three-branch expanding map whose squared-transfer spectrum is frozen
# in the prediction tests: slopes (3, -2, 3) over breaks (0, 1/3, 2/3, 1)
EXAMPLE_MAP = IntervalMapSpec(
    breaks=(F(0), F(1, 3), F(2, 3), F(1)),
    slopes=(F(3), F(-2), F(3)),
    intercepts=(F(0), F(5, 3), F(-2)),
)


def test_hoc_constant_stationary_is_geometric():
    law = hoc_stationary(HouseOfCardsSpec.constant(0.5))
    k = np.arange(law.probs.size)
    assert np.allclose(law.probs, 0.5**(k + 1), atol=1e-12)
    assert law.tail_bound < 1e-11


def test_hoc_reset_families():
    drift = HouseOfCardsSpec.drifting(0.5, 0.3)
    r = drift.reset_probs(np.arange(4))
    assert np.allclose(r, [0.8, 0.65, 0.6, 0.575])
    alt = HouseOfCardsSpec.alternating(0.3, 0.6)
    assert np.allclose(alt.reset_probs(np.arange(4)), [0.3, 0.6, 0.3, 0.6])
    with pytest.raises(SpecError):
        HouseOfCardsSpec.constant(1.5)


def test_hoc_no_reset_has_no_stationary_law():
    with pytest.raises(NonStationaryError):
        hoc_stationary(HouseOfCardsSpec.constant(0.0))


def test_markov_stationary_two_state_closed_form():
    a, b = 0.25, 0.4
    pi = markov_stationary(np.array([[1 - a, a], [b, 1 - b]]))
    assert np.allclose(pi, [b / (a + b), a / (a + b)], atol=1e-9)


def test_markov_requires_stochastic_matrix():
    with pytest.raises(SpecError):
        FiniteMarkovSpec(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_sync_kernel_reference_values():
    ind = ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "independent")
    assert np.allclose(sync_kernel(ind), [[0.16, 0.16], [0.03, 0.63]], atol=1e-15)
    mx = ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "maximal")
    assert np.allclose(sync_kernel(mx), [[0.2, 0.2], [0.1, 0.7]], atol=1e-15)


@pytest.mark.parametrize(
    "coupling, gamma, n_chains",
    [
        ("independent", None, 2),
        ("independent", None, 3),
        ("maximal", None, 2),
        ("parametrized", 0.0, 2),
        ("parametrized", 0.25, 2),
        ("parametrized", 0.4, 2),
        ("parametrized", 1.0, 2),
    ],
)
def test_sync_kernel_is_the_pair_kernel_on_the_diagonal(coupling, gamma, n_chains):
    chains = (FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2), FiniteMarkovSpec([[0.5, 0.5], [0.4, 0.6]]))
    spec = ProductChainSpec(chains[:n_chains], coupling, gamma=gamma)
    # (a, ..., a) has the row-major code a * (1 + 2 + ... + 2**(n_chains - 1))
    diag = [a * (2**n_chains - 1) for a in range(2)]
    assert np.array_equal(sync_kernel(spec), pair_kernel(spec)[np.ix_(diag, diag)])


def _pair_kernel_by_tuple(spec):
    # the coupled kernel built one tuple at a time: independent product rows
    # off the diagonal, the coupling's row on it
    m_states, n_chains = spec.n_states, spec.n_chains
    mats = [c.matrix for c in spec.components]
    out = np.zeros((m_states**n_chains,) * 2)

    def code(joint):
        return sum(int(a) * m_states ** (n_chains - 1 - i) for i, a in enumerate(joint))

    def sticky(matrix, a):
        row = (1.0 - spec.gamma) * matrix[a]
        row[a] += spec.gamma
        return row

    for joint in itertools.product(range(m_states), repeat=n_chains):
        row = code(joint)
        if spec.coupling == "independent" or len(set(joint)) > 1:
            dist = mats[0][joint[0]]
            for i in range(1, n_chains):
                dist = np.kron(dist, mats[i][joint[i]])
            out[row] = dist
        elif spec.coupling == "parametrized":
            a = joint[0]
            dist = sticky(mats[0], a)
            for i in range(1, n_chains):
                dist = np.kron(dist, sticky(mats[i], a))
            out[row] = dist
        else:
            a = joint[0]
            low = np.minimum(mats[0][a], mats[1][a])
            sync_mass = float(low.sum())
            for b in range(m_states):
                out[row, code((b, b))] += low[b]
            if sync_mass < 1.0:
                out[row] += np.kron(mats[0][a] - low, mats[1][a] - low) / (1.0 - sync_mass)
    return out


def _random_chain(m, seed, sparse=False):
    rng = np.random.default_rng(seed)
    q = rng.random((m, m))
    if sparse:
        # zero a third of the entries off a positive cycle, which keeps it irreducible
        q[rng.random((m, m)) < 1 / 3] = 0.0
        q[np.arange(m), (np.arange(m) + 1) % m] += 0.5
    return FiniteMarkovSpec(q / q.sum(axis=1, keepdims=True))


_KERNEL_CASES = {
    "independent 2": ((Q1, Q2), "independent", None),
    "independent 2, identical": ((Q1, Q1), "independent", None),
    "independent 3 x 3 chains": ((_random_chain(3, 11), CRITERION_07, _random_chain(3, 1)), "independent", None),
    "independent 2 x 3 chains": ((Q1, Q2, [[0.5, 0.5], [0.4, 0.6]]), "independent", None),
    "independent 45": ((_random_chain(45, 2), _random_chain(45, 3)), "independent", None),
    "maximal 2": ((Q1, Q2), "maximal", None),
    "maximal 2, identical": ((Q1, Q1), "maximal", None),
    "maximal 3": ((_random_chain(3, 12), CRITERION_07), "maximal", None),
    "maximal 7, sparse": ((_random_chain(7, 4, True), _random_chain(7, 5, True)), "maximal", None),
    "maximal 10, identical": ((_random_chain(10, 6),) * 2, "maximal", None),
    "maximal 24": ((_random_chain(24, 7), _random_chain(24, 8, True)), "maximal", None),
    "maximal 45": ((_random_chain(45, 9), _random_chain(45, 10)), "maximal", None),
    "maximal 1": (([[1.0]], [[1.0]]), "maximal", None),
    "parametrized 0": ((Q1, Q2), "parametrized", 0.0),
    "parametrized 0.25": ((Q1, Q2), "parametrized", 0.25),
    "parametrized 1": ((Q1, Q2), "parametrized", 1.0),
    "parametrized 0.25, identical": ((Q2, Q2), "parametrized", 0.25),
}


@pytest.mark.parametrize("name", list(_KERNEL_CASES))
def test_pair_kernel_equals_the_per_tuple_build(name):
    components, coupling, gamma = _KERNEL_CASES[name]
    spec = ProductChainSpec(components, coupling, gamma=gamma)
    kernel = pair_kernel(spec)
    assert np.array_equal(kernel, _pair_kernel_by_tuple(spec))
    # the diagonal codes are a times the base-M repunit, for M = 1 too
    diag = [a * sum(spec.n_states**i for i in range(spec.n_chains)) for a in range(spec.n_states)]
    assert np.array_equal(systems._diagonal_codes(spec), diag)
    assert np.array_equal(sync_kernel(spec), kernel[np.ix_(diag, diag)])


def test_product_chain_builds_its_kernel_once(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return pair_kernel(spec)

    monkeypatch.setattr(systems, "pair_kernel", counted)
    # chunks of 64 // 16 = 4 trajectories: 12 rows take three chunks
    monkeypatch.setattr(systems, "_CHUNK_ELEMS", 64)
    spec = ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "maximal")
    chunks = list(systems.path_chunks(spec, 16, 5, 0, 12))
    assert len(chunks) == 3 and len(calls) == 1
    # the sync measure and kernel reuse it, and so does a pickled copy (a worker's)
    target = SyncCylinderTarget(3)
    mu = sync_measure(spec, target)
    assert np.array_equal(sync_kernel(spec), pair_kernel(spec)[np.ix_([0, 3], [0, 3])])
    sent = pickle.loads(pickle.dumps(spec))
    assert sync_measure(sent, target) == mu and len(calls) == 1
    again = list(systems.path_chunks(sent, 16, 5, 0, 12))
    assert len(calls) == 1
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(chunks, again))
    # a fresh spec of the same law builds its own
    fresh = ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "maximal")
    assert np.array_equal(fresh.chain[0], spec.chain[0]) and len(calls) == 2


@pytest.mark.parametrize(
    "spec, target, laws",
    [
        (HouseOfCardsSpec.constant(0.5), RunLengthTarget(3), {"hoc_stationary": 1}),
        (HouseOfCardsSpec.drifting(0.2, 0.3), RunLengthTarget(3), {"hoc_stationary": 1}),
        (FiniteMarkovSpec(CRITERION_07), CylinderTarget((1, 1, 1)), {"markov_stationary": 1}),
        # a fresh copy of EXAMPLE_MAP, whose laws other tests cache
        (IntervalMapSpec(EXAMPLE_MAP.breaks, EXAMPLE_MAP.slopes, EXAMPLE_MAP.intercepts),
         CylinderTarget((2, 2, 2)), {"interval_map_invariant": 1}),
        (ProductChainSpec((Q1, Q2), "maximal"), SyncCylinderTarget(3),
         {"pair_kernel": 1, "markov_stationary": 1}),
        (ProductChainSpec((Q1, Q2), "parametrized", gamma=0.25), SyncCylinderTarget(3),
         {"pair_kernel": 1, "markov_stationary": 1}),
    ],
    ids=["constant reset", "drifting reset", "markov", "interval map", "maximal pair", "sticky pair"],
)
def test_every_spec_computes_its_laws_once(spec, target, laws, monkeypatch):
    calls = collections.Counter()
    for name in ("hoc_stationary", "markov_stationary", "pair_kernel", "interval_map_invariant"):
        def counted(arg, _name=name, _law=getattr(systems, name)):
            calls[_name] += 1
            return _law(arg)

        monkeypatch.setattr(systems, name, counted)
    # chunks of 64 // 16 = 4 trajectories: 12 rows take three chunks
    monkeypatch.setattr(systems, "_CHUNK_ELEMS", 64)
    chunks = list(systems.path_chunks(spec, 16, 5, 0, 12))
    # the target and every outer set of its Stein bracket, then the prediction
    mus = [measure_exact(target.outer(j), spec).value for j in range(4)]
    pred = predict_for(spec, target, 2.0).as_dict()
    assert len(chunks) == 3 and calls == laws
    # a pickled copy (a worker's) carries the laws with it
    sent = pickle.loads(pickle.dumps(spec))
    assert [measure_exact(target.outer(j), sent).value for j in range(4)] == mus
    assert predict_for(sent, target, 2.0).as_dict() == pred
    again = list(systems.path_chunks(sent, 16, 5, 0, 12))
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(chunks, again))
    assert calls == laws
    # and the cached arrays are read-only
    cached = [spec.stationary.probs] if isinstance(spec, HouseOfCardsSpec) else [spec.chain[0]]
    cached += [spec.kernel] if isinstance(spec, ProductChainSpec) else []
    assert not any(a.flags.writeable for a in cached)


def test_sync_kernel_refuses_what_pair_kernel_refuses():
    flat = FiniteMarkovSpec(np.full((17, 17), 1 / 17))
    with pytest.raises(ResourceLimitError, match="4913 exceeds 4096"):
        sync_kernel(ProductChainSpec((flat,) * 3))


def test_parametrized_kernel_endpoints():
    chains = (FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2))
    at0 = sync_kernel(ProductChainSpec(chains, "parametrized", gamma=0.0))
    ind = sync_kernel(ProductChainSpec(chains, "independent"))
    assert np.allclose(at0, ind, atol=1e-15)
    at1 = sync_kernel(ProductChainSpec(chains, "parametrized", gamma=1.0))
    # full stickiness freezes every chain in place: the agreement kernel is
    # the identity and the joint return probability is exactly 1
    assert np.allclose(at1, np.eye(2), atol=1e-15)


def test_pair_kernel_is_stochastic_and_stationary_solves():
    spec = ProductChainSpec(
        (FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "parametrized", gamma=0.25
    )
    kernel = pair_kernel(spec)
    assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-12)
    nu = spec.chain[0]
    assert np.allclose(nu @ kernel, nu, atol=1e-9)
    assert np.isclose(nu.sum(), 1.0)


def test_regenerative_mean_block_laws():
    q = np.array([0.5, 0.25, 0.125, 0.125])  # mean 1.875
    spec = RegenerativeSpec.with_shared_lengths([0, 1], [0.3, 0.7], q)
    assert np.isclose(spec.mean_block(), 1.875)
    smith = RegenerativeSpec.smith([1, 2, 5], [0.2, 0.3, 0.5])
    # every symbol mixes length 1 w.p. 1-1/a and a+1 w.p. 1/a: mean 2 exactly
    assert np.allclose(smith.mean_block_by_symbol(), 2.0)
    law5 = smith.length_law(5)
    assert np.isclose(law5[0], 0.8) and np.isclose(law5[5], 0.2)


def test_regenerative_stationary_probs_are_length_biased():
    q = np.array([0.5, 0.5])
    spec = RegenerativeSpec.with_shared_lengths([0, 1], [0.3, 0.7], q)
    # shared lengths: the bias cancels, time-stationary = block law
    assert np.allclose(spec.stationary_symbol_probs(), [0.3, 0.7])


def test_regenerative_residual_laws():
    smith = RegenerativeSpec.smith([1, 2, 5], [0.2, 0.3, 0.5])
    laws = smith.residual_laws
    # symbol 5: length 1 w.p. 0.8, 6 w.p. 0.2, mean 2
    assert np.allclose(laws[2], [0.5, 0.1, 0.1, 0.1, 0.1, 0.1], rtol=0.0, atol=1e-16)
    assert all(abs(rho.sum() - 1.0) <= 1e-15 and np.all(np.diff(rho) <= 0) for rho in laws)
    assert smith.residual_laws is laws and not any(rho.flags.writeable for rho in laws)
    sent = pickle.loads(pickle.dumps(smith))
    assert "residual_laws" in vars(sent) and all(map(np.array_equal, sent.residual_laws, laws))


def test_sample_path_values_and_shapes():
    rng = trajectory_rng(11, 0)
    hoc = sample_path(HouseOfCardsSpec.constant(0.5), 50, rng)
    assert hoc.shape == (50,) and hoc.min() >= 0
    d = sample_path(DoeblinChainSpec(0.5), 40, trajectory_rng(11, 1))
    assert d.shape == (40, 2) and d.min() >= 0.0 and d.max() < 1.0
    z = sample_path(FactorProductSpec(0.3), 60, trajectory_rng(11, 2))
    assert set(np.unique(z)).issubset({-1, 1})


def test_factor_product_plus_fraction():
    # P(z = +1) = eps^2 + (1-eps)^2 = 0.58 at eps = 0.3
    rng = trajectory_rng(3, 0)
    z = sample_path(FactorProductSpec(0.3), 200_000, rng)
    assert abs((z == 1).mean() - 0.58) < 0.005


def _step_reference(rng, n, stationary, matrix):
    """Inverse-CDF path of one finite chain, one searchsorted per step."""
    u = rng.random(n)
    cdf = np.cumsum(stationary)
    cdf[-1] = 1.0
    cum = np.cumsum(matrix, axis=1)
    cum[:, -1] = 1.0
    states = np.empty(n, dtype=np.int64)
    states[0] = np.searchsorted(cdf, u[0], side="right")
    for j in range(1, n):
        states[j] = np.searchsorted(cum[states[j - 1]], u[j], side="right")
    return states


def _reference_rows(stationary, matrix, n, rows, seed=7):
    return np.stack(
        [_step_reference(trajectory_rng(seed, i), n, stationary, matrix) for i in range(rows)]
    )


def _ring_chain(m):
    # strongly connected through the ring i -> i + 1, dense elsewhere
    q = np.random.default_rng(m).random((m, m))
    q[np.arange(m), (np.arange(m) + 1) % m] += 1.0
    return FiniteMarkovSpec(q / q.sum(axis=1, keepdims=True))


def _lazy_ring(m, cut=None):
    # i -> i and i -> i + 1 with probability 1/2 each; ``cut`` drops one forward edge
    q = 0.5 * (np.eye(m) + np.roll(np.eye(m), 1, axis=1))
    if cut is not None:
        q[cut] = 0.0
        q[cut, cut] = 1.0
    return q


@pytest.mark.parametrize(
    "matrix, reducible",
    [
        ([[0.4, 0.6, 0.0, 0.0], [0.2, 0.8, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 1.0, 0.0]], True),
        # state 0 is transient: it reaches everything but nothing returns to it
        ([[0.0, 0.5, 0.5], [0.0, 0.3, 0.7], [0.0, 0.6, 0.4]], True),
        # state 0 is absorbing: everything reaches it, it reaches nothing
        ([[1.0, 0.0, 0.0], [0.3, 0.3, 0.4], [0.5, 0.5, 0.0]], True),
        (_lazy_ring(300, cut=150), True),
        ([[1.0]], False),
        (_lazy_ring(300), False),
        (_ring_chain(30).matrix, False),
    ],
)
def test_markov_spec_requires_an_irreducible_chain(matrix, reducible):
    if reducible:
        with pytest.raises(StructureError):
            FiniteMarkovSpec(np.array(matrix))
    else:
        assert FiniteMarkovSpec(np.array(matrix)).n_states == len(matrix)


def test_interval_map_invariant_requires_an_irreducible_itinerary():
    # the doubling map on each half: [0, 1/2) and [1/2, 1) are both closed
    halves = IntervalMapSpec(
        breaks=(F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
        slopes=(F(2), F(2), F(2), F(2)),
        intercepts=(F(0), F(-1, 2), F(-1, 2), F(-1)),
    )
    with pytest.raises(StructureError):
        interval_map_invariant(halves)


def _chain_with_breaks(k, breaks):
    # dense chain whose rows' k - 1 cumulative thresholds are multiples of
    # 1/64 (so cumsum reproduces them exactly) taking ``breaks`` distinct values
    pool = np.arange(1, breaks + 1) / 64
    cum = [np.sort(np.roll(pool, -(k - 1) * s)[: k - 1]) for s in range(k)]
    return FiniteMarkovSpec(np.diff(np.column_stack([np.zeros(k), cum, np.ones(k)]), axis=1))


def _route(matrix):
    # the stepper route that _step_columns takes for this transition matrix
    cum = np.cumsum(matrix, axis=1)
    cum[:, -1] = 1.0
    if systems._bucket_table(cum) is not None:
        return "lookup"
    return "threshold" if len(cum) <= systems._THRESHOLD_STATES else "rows"


def _sparse_ring(m):
    # a dense ring chain with a third of its entries zeroed: tied thresholds
    q = _ring_chain(m).matrix.copy()
    q[np.arange(m)[:, None], (np.arange(m)[:, None] + np.arange(2, m, 3)) % m] = 0.0
    return FiniteMarkovSpec(q / q.sum(axis=1, keepdims=True))


def test_markov_batch_matches_row_loop():
    cases = [
        (FiniteMarkovSpec(np.array([[0.4, 0.6], [0.2, 0.8]])), "lookup", 5, 30),
        (FiniteMarkovSpec(CRITERION_07), "lookup", 64, 500),
        # zero entries give tied and zero cumulative thresholds
        (FiniteMarkovSpec(np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 1.0], [0.3, 0.7, 0.0]])), "lookup", 64, 200),
        (FiniteMarkovSpec(np.array([[1.0]])), "lookup", 4, 20),
        # the bucket index b * k + s fills a uint8 exactly, then overflows it
        (_chain_with_breaks(8, 31), "lookup", 32, 200),
        (_chain_with_breaks(8, 32), "threshold", 32, 200),
        (_chain_with_breaks(16, 15), "lookup", 32, 200),
        (_chain_with_breaks(16, 16), "threshold", 32, 200),
        (_ring_chain(7), "threshold", 32, 200),
        (_sparse_ring(9), "threshold", 32, 200),
        # at and above the threshold-count crossover
        (_ring_chain(systems._THRESHOLD_STATES), "threshold", 16, 200),
        (_ring_chain(systems._THRESHOLD_STATES + 6), "rows", 16, 200),
        (_sparse_ring(systems._THRESHOLD_STATES + 6), "rows", 16, 200),
        # few distinct thresholds: the lookup serves a 30-state chain too
        (FiniteMarkovSpec(_lazy_ring(30)), "lookup", 16, 200),
    ]
    for spec, route, rows, n in cases:
        assert _route(spec.matrix) == route, spec.n_states
        batch = sample_chain(spec, n, [trajectory_rng(7, i) for i in range(rows)])
        assert batch.shape == (rows, n) and batch.flags.c_contiguous
        assert batch.dtype == np.uint8
        ref = _reference_rows(markov_stationary(spec), spec.matrix, n, rows)
        assert np.array_equal(batch, ref), (spec.n_states, route)


def test_step_columns_fill_their_buffer_tile_by_tile(monkeypatch):
    # uniform tiles of 256 // 60 = 4 rows: 10 rows fill the time-major
    # buffer from three tiles, the last partial
    monkeypatch.setattr(systems, "_BLOCK_UNIFORMS", 256)
    n, rows = 60, 10
    for spec, route in ((_ring_chain(7), "threshold"),
                        (_ring_chain(systems._THRESHOLD_STATES + 6), "rows")):
        assert _route(spec.matrix) == route
        stationary = markov_stationary(spec)
        rngs = [trajectory_rng(7, i) for i in range(rows)]
        batch = systems._step_columns(rngs, n, stationary, spec)
        assert np.array_equal(batch, _reference_rows(stationary, spec.matrix, n, rows)), route


def test_chain_step_tables_are_built_once_per_spec(monkeypatch):
    built = []
    bucket_table = systems._bucket_table
    monkeypatch.setattr(systems, "_bucket_table", lambda cum: built.append(1) or bucket_table(cum))
    spec = ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "maximal")
    chunks = [
        sample_product_chain_batch(spec, 50, [trajectory_rng(3, i) for i in range(lo, lo + 8)])
        for lo in (0, 8, 16)
    ]
    assert len(built) == 1
    cum, table = spec.chain[1].step_tables
    assert not any(a.flags.writeable for a in (cum, *table))
    # a pickled spec carries its tables, and draws the same paths
    copy = pickle.loads(pickle.dumps(spec))
    again = sample_product_chain_batch(copy, 50, [trajectory_rng(3, i) for i in range(8, 16)])
    assert len(built) == 1 and np.array_equal(again, chunks[1])


def test_markov_batch_widens_past_256_states():
    spec = FiniteMarkovSpec(_lazy_ring(300))
    assert _route(spec.matrix) == "rows"
    batch = sample_chain(spec, 40, [trajectory_rng(7, i) for i in range(8)])
    assert batch.dtype == np.uint16 and batch.flags.c_contiguous
    assert np.array_equal(batch, _reference_rows(markov_stationary(spec), spec.matrix, 40, 8))


def _check_product_chain(spec, route, rows=32, n=300):
    stationary, kernel = spec.chain[0], pair_kernel(spec)
    assert _route(kernel) == route
    codes = systems._step_columns(
        [trajectory_rng(7, i) for i in range(rows)], n, stationary, FiniteMarkovSpec(kernel)
    )
    assert codes.dtype == np.uint8 and codes.flags.c_contiguous
    ref = _reference_rows(stationary, kernel, n, rows)
    assert np.array_equal(codes, ref)
    batch = sample_product_chain_batch(spec, n, [trajectory_rng(7, i) for i in range(rows)])
    assert batch.shape == (rows, n, spec.n_chains)
    assert np.array_equal(batch, _decode_reference(ref, spec.n_states, spec.n_chains))


@pytest.mark.parametrize(
    "coupling, gamma", [("independent", None), ("maximal", None), ("parametrized", 0.4)]
)
def test_product_chain_batch_matches_row_loop(coupling, gamma):
    spec = ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), coupling, gamma=gamma)
    _check_product_chain(spec, "lookup")


def test_larger_product_chains_match_row_loop():
    three = _ring_chain(3)
    _check_product_chain(ProductChainSpec((three, FiniteMarkovSpec(CRITERION_07)), "maximal"), "threshold")
    _check_product_chain(ProductChainSpec((three,) * 3), "rows", n=100)


@pytest.mark.parametrize("name", ["example", "unequal", "doubling"])
def test_itinerary_batch_matches_row_loop(name):
    spec = {"example": EXAMPLE_MAP, "unequal": UNEQUAL_MAP, "doubling": DOUBLING_MAP}[name]
    batch = sample_chain(spec, 200, [trajectory_rng(7, i) for i in range(32)])
    assert batch.shape == (32, 200) and batch.flags.c_contiguous
    assert batch.dtype == np.uint8
    start = np.array([float(p) for p in interval_symbol_stationary(spec)])
    # the exact start, not a float solve on the itinerary chain
    assert np.array_equal(spec.chain[0], start)
    matrix = np.array(spec.itinerary_matrix_exact(), dtype=float)
    assert _route(matrix) == "lookup"
    assert np.array_equal(batch, _reference_rows(start, matrix, 200, 32))


def test_sample_paths_is_c_contiguous_for_chains():
    rngs = [trajectory_rng(5, i) for i in range(6)]
    for spec in (
        FiniteMarkovSpec(Q1),
        ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "maximal"),
    ):
        assert sample_paths(spec, 40, rngs).flags.c_contiguous, type(spec).__name__


def test_sample_paths_rejects_empty_paths():
    rngs = [trajectory_rng(5, 0)]
    for spec in (
        HouseOfCardsSpec.constant(0.5),
        HouseOfCardsSpec.drifting(0.4, 1.0),
        FiniteMarkovSpec(Q1),
        ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "maximal"),
        RegenerativeSpec.smith([1, 2], [0.5, 0.5]),
        EXAMPLE_MAP,
        DoeblinChainSpec(0.5),
        FactorProductSpec(0.3),
    ):
        with pytest.raises(SpecError):
            sample_paths(spec, 0, rngs)
    with pytest.raises(SpecError):
        sample_paths("not a system", 5, rngs)


def test_sample_paths_matches_sample_path_rowwise():
    for spec in (
        HouseOfCardsSpec.constant(0.4),
        HouseOfCardsSpec.drifting(0.4, 1.0),
        HouseOfCardsSpec.alternating(0.3, 0.6),
        FactorProductSpec(0.3),
        EXAMPLE_MAP,
    ):
        rngs = [trajectory_rng(5, i) for i in range(4)]
        batch = sample_paths(spec, 25, rngs)
        rngs2 = [trajectory_rng(5, i) for i in range(4)]
        rows = np.stack([sample_path(spec, 25, r) for r in rngs2])
        assert np.array_equal(batch, rows), type(spec).__name__


# sample_paths(spec, 24, trajectory_rngs(9, 0, 3)) for the systems that
# step row by row; the pair configs of the CLI tests do not cover them
_ROW_STEPPED_PINS = [
    (
        HouseOfCardsSpec.drifting(0.2, 0.3),
        [
            [6, 7, 8, 9, 10, 11, 12, 13, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0, 1, 2, 0, 0, 0, 0, 1],
            [2, 0, 1, 2, 3, 0, 0, 0, 1, 2, 0, 0, 0, 1, 0, 1, 2, 0, 0, 0, 0, 0, 0, 1],
        ],
    ),
    (
        HouseOfCardsSpec.alternating(0.3, 0.6),
        [
            [3, 0, 1, 2, 3, 4, 5, 6, 0, 1, 0, 0, 0, 1, 2, 3, 0, 1, 0, 1, 0, 1, 2, 3],
            [2, 3, 4, 5, 0, 1, 2, 0, 1, 0, 1, 0, 0, 1, 2, 3, 0, 1, 2, 0, 0, 0, 1, 2],
            [1, 0, 1, 2, 3, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 2, 0, 1, 0, 0, 1, 0, 1],
        ],
    ),
    (
        RegenerativeSpec.smith([1, 2, 5], [0.2, 0.3, 0.5]),
        [
            [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 1, 1, 2, 2, 2, 2, 1],
            [5, 5, 2, 2, 2, 2, 5, 5, 2, 2, 2, 2, 5, 2, 2, 2, 2, 2, 5, 5, 5, 5, 5, 5],
            [5, 5, 5, 5, 2, 2, 2, 2, 2, 2, 1, 1, 5, 2, 1, 1, 2, 2, 5, 2, 2, 2, 5, 5],
        ],
    ),
]


@pytest.mark.parametrize("spec, rows", _ROW_STEPPED_PINS, ids=["drifting", "alternating", "smith"])
def test_row_stepped_streams_are_pinned(spec, rows):
    paths = sample_paths(spec, 24, trajectory_rngs(9, 0, 3))
    # house-of-cards tables of 4,097 and 1,172 states: top + 24 needs uint16
    assert paths.dtype == (np.int64 if isinstance(spec, RegenerativeSpec) else np.uint16)
    assert paths.tolist() == rows


# every system with its documented draw budget per row, as a function of n
_DRAW_BUDGETS = [
    (HouseOfCardsSpec.constant(0.5), lambda n: n),
    (HouseOfCardsSpec.drifting(0.2, 0.3), lambda n: n),
    (HouseOfCardsSpec.alternating(0.3, 0.6), lambda n: n),
    (FiniteMarkovSpec(CRITERION_07), lambda n: n),
    (ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "maximal"), lambda n: n),
    (ProductChainSpec((FiniteMarkovSpec(Q1),) * 3), lambda n: n),
    (EXAMPLE_MAP, lambda n: n),
    (FactorProductSpec(0.3), lambda n: n + 1),
    (RegenerativeSpec.smith([1, 2, 5], [0.2, 0.3, 0.5]), lambda n: 2 * n),
    (RegenerativeSpec.with_shared_lengths([0, 1, 2], [0.5, 0.3, 0.2], [0.5, 0.3, 0.2]), lambda n: 2 * n),
    (DoeblinChainSpec(0.0), lambda n: 2 * (3 * n - 2)),
    (DoeblinChainSpec(0.5), lambda n: 2 * (3 * n - 2)),
    (DoeblinChainSpec(0.5, n_chains=3), lambda n: 3 * (3 * n - 2)),
]


@pytest.mark.parametrize(
    "spec, budget",
    _DRAW_BUDGETS,
    ids=[
        "constant", "drifting", "alternating", "markov", "maximal pair", "3-chain product",
        "interval map", "sign product", "smith", "shared lengths", "doeblin 0", "doeblin 0.5",
        "doeblin 3 chains",
    ],
)
def test_samplers_draw_their_fixed_budget(spec, budget):
    for n in (1, 2, 37):
        rngs = [trajectory_rng(13, i) for i in range(5)]
        sample_paths(spec, n, rngs)
        for i, rng in enumerate(rngs):
            ref = trajectory_rng(13, i)
            ref.random(budget(n))
            assert rng.bit_generator.state == ref.bit_generator.state, (n, i)


def _ks_distance(sample: np.ndarray, cdf) -> float:
    x = np.sort(sample.ravel())
    f = cdf(x)
    k = np.arange(1, x.size + 1) / x.size
    return float(max(np.max(k - f), np.max(f - (k - 1.0 / x.size))))


@pytest.mark.parametrize("eta", [0.0, 0.5, 0.95])
def test_doeblin_increments_follow_the_kernel(eta):
    paths = sample_paths(DoeblinChainSpec(eta), 51, trajectory_rngs(17, 0, 2000))
    assert paths.min() >= 0.0 and paths.max() < 1.0
    # 200,000 increments of the circle walk, i.i.d. with CDF d + eta sin(2 pi d) / (2 pi)
    incr = np.diff(paths, axis=1) % 1.0
    ks = _ks_distance(incr, lambda d: d + eta * np.sin(2.0 * np.pi * d) / (2.0 * np.pi))
    assert ks < 1.628 / np.sqrt(incr.size), ks  # 1% critical value
    # the last states of 2000 independent rows: uniform, the invariant law
    last = paths[:, -1]
    assert _ks_distance(last, lambda x: x) < 1.628 / np.sqrt(last.size)


def test_trajectory_rng_partitions():
    a = trajectory_rng(1, 0).random(4)
    b = trajectory_rng(1, 1).random(4)
    c = trajectory_rng(1, 0).random(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("root", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
def test_trajectory_rngs_equal_trajectory_rng(root):
    # index words: one, two (the measure namespace), and a range across 2**32
    for start, count in ((0, 40), (2**48, 40), (2**32 - 20, 40)):
        batch = trajectory_rngs(root, start, count)
        assert len(batch) == count
        # the array pass, and the uniforms helper on both sides of the route
        # crossover: 40 rows take the array route up to n = 2
        for n in (1, 2, 3, 57, 58):
            ref = np.stack([trajectory_rng(root, start + i).random(n) for i in range(count)], axis=1)
            assert np.array_equal(batch.uniforms(n), ref), (start, n)
            fresh = trajectory_rngs(root, start, count)
            assert systems._array_route(fresh, n) == (n <= 2)
            [(lo, tile)] = systems._uniform_tiles(fresh, n)
            assert lo == 0 and np.array_equal(tile, ref.T), (start, n)
        for i, rng in enumerate(batch):
            ref = trajectory_rng(root, start + i)
            assert rng.bit_generator.state == ref.bit_generator.state, (start, i)
            assert np.array_equal(rng.random(3), ref.random(3))
    empty = trajectory_rngs(root, 5, 0)
    assert len(empty) == 0 and list(empty) == []
    assert empty.uniforms(4).shape == (4, 0)


def test_trajectory_streams_keep_their_generators():
    streams = trajectory_rngs(3, 0, 4)
    first = streams[1].random(2)
    # the same generator again, advanced by its draws
    assert streams[1] is list(streams)[1]
    assert np.array_equal(streams[1].random(2), trajectory_rng(3, 1).random(4)[2:])
    assert np.array_equal(streams.uniforms(2)[:, 1], first)


def test_trajectory_rngs_reject_negative_seeds():
    with pytest.raises(ValueError):
        trajectory_rngs(-1, 0, 4)
    with pytest.raises(ValueError):
        trajectory_rngs(1, -4, 4)


# reset -> (path length, rows, dtype).  A uniform tile holds _BLOCK_UNIFORMS
# // n rows, so 57, 700, 3000 and 4306 steps span several tiles with a
# partial last one, and 70,000 steps (above _BLOCK_UNIFORMS) put one row in
# each tile.  A scan tile holds 512 kB of states: 3000 steps at 100 rows,
# 8192 and 64,461 steps (uint32) and 70,000 steps span several.
# The stationary table has 57,345 states at reset 0.0005, 16,385 at 0.002,
# 4,097 at 0.05, 1,075 at 0.5, 538 at 0.75, 162 at 0.99 and 1 at 1, so top + n
# crosses 255 and 65,535 between cases.  Rare resets make the doubling scan
# run many passes: rows go hundreds of columns between anchors, and at reset
# 0.0005 some of 40 rows of 4306 steps never reset after their start
# (0.9995**4305 is about 0.12).
_HOC_BATCH_CASES = {
    0.0005: [(1, 7, np.uint16), (2, 7, np.uint16), (4306, 40, np.uint16), (8192, 20, np.uint32)],
    0.002: [(3000, 100, np.uint16)],
    0.05: [(1, 12, np.uint16), (4306, 40, np.uint16)],
    0.5: [(2, 12, np.uint16), (57, 3000, np.uint16), (64460, 3, np.uint16),
          (64461, 3, np.uint32), (70000, 3, np.uint32)],
    0.75: [(700, 300, np.uint16)],
    0.99: [(93, 700, np.uint8), (94, 700, np.uint16)],
    1.0: [(1, 12, np.uint8), (254, 12, np.uint8), (255, 12, np.uint16)],
}


@pytest.mark.parametrize("reset", list(_HOC_BATCH_CASES))
def test_house_of_cards_batch_matches_solo(reset):
    spec = HouseOfCardsSpec.constant(reset)
    for n, rows, dtype in _HOC_BATCH_CASES[reset]:
        batch = sample_house_of_cards(spec, n, trajectory_rngs(7, 0, rows))
        assert batch.shape == (rows, n) and batch.flags.c_contiguous
        assert batch.dtype == dtype, n
        # the per-row stepper that drifting and alternating chains run
        solo = systems._climb_or_reset(spec, n, [trajectory_rng(7, i) for i in range(rows)])
        assert solo.dtype == dtype, n
        assert np.array_equal(batch, solo), n


def test_house_of_cards_array_route_rare_resets_match_generators():
    # 3000 rows of 128 steps: one array-route tile, scanned as 2048 + 952 rows
    spec = HouseOfCardsSpec.constant(0.002)
    streams, rngs = _streams_and_list(3000)
    assert systems._array_route(streams, 128)
    batch = sample_house_of_cards(spec, 128, streams)
    assert np.array_equal(batch, systems._climb_or_reset(spec, 128, rngs))


@pytest.mark.parametrize("dtype, top", [(np.uint8, 100), (np.uint16, 3000), (np.uint32, 70000)])
def test_last_anchor_is_the_running_maximum(dtype, top):
    rng = np.random.default_rng(5)
    for rows, n, reset in ((9, 1, 0.5), (9, 2, 0.5), (6, 150, 0.0), (6, 150, 0.01), (6, 150, 0.3),
                           (5, 155, 1.0), (4, 131, 0.05)):
        anchor = np.where(rng.random((rows, n)) < reset, np.arange(top, top + n), 0).astype(dtype)
        anchor[:, 0] = rng.integers(1, top + 1, rows)
        want = np.maximum.accumulate(anchor, axis=1)
        scratch = np.empty((rows + 3, n), dtype=dtype)
        got = systems._last_anchor(anchor, scratch)
        assert got.dtype == dtype and np.array_equal(got, want), (rows, n, reset)


def test_house_of_cards_batch_needs_constant_reset():
    with pytest.raises(SpecError):
        sample_paths(HouseOfCardsSpec.constant(0.5), 0, [trajectory_rng(1, 0)])


def test_sign_product_batch_matches_solo():
    spec = FactorProductSpec(0.3)
    for n in (1, 2, 57):
        batch = sample_factor_product_batch(spec, n, trajectory_rngs(7, 0, 40))
        assert batch.shape == (40, n) and batch.flags.c_contiguous
        assert batch.dtype == np.int8
        for i, row in enumerate(batch):
            x = np.where(trajectory_rng(7, i).random(n + 1) < 0.3, 1, -1)
            assert np.array_equal(row, x[:-1] * x[1:]), (n, i)


# Array-route cases: rows >= _ARRAY_ROWS_PER_DRAW * n, so TrajectoryStreams
# draw in one array pass, while a list of the same generators draws row by
# row.  Each pair is (rows, n): 1024 rows reach n = 64 uniforms per row.
_ARRAY_ROWS = 1024


def _streams_and_list(rows, seed=7):
    return trajectory_rngs(seed, 0, rows), [trajectory_rng(seed, i) for i in range(rows)]


def test_sign_product_array_route_matches_generators():
    spec = FactorProductSpec(0.3)
    for n in (1, 57, 63, 64):
        streams, rngs = _streams_and_list(_ARRAY_ROWS)
        assert systems._array_route(streams, n + 1) == (n < 64)
        batch = sample_factor_product_batch(spec, n, streams)
        assert batch.flags.c_contiguous and batch.dtype == np.int8
        assert np.array_equal(batch, sample_factor_product_batch(spec, n, rngs)), n


def test_house_of_cards_array_route_matches_generators():
    for reset, n in ((0.5, 1), (0.5, 57), (0.05, 64), (0.99, 40), (1.0, 16)):
        spec = HouseOfCardsSpec.constant(reset)
        streams, rngs = _streams_and_list(_ARRAY_ROWS)
        assert systems._array_route(streams, n)
        batch = sample_house_of_cards(spec, n, streams)
        assert batch.flags.c_contiguous
        assert np.array_equal(batch, systems._climb_or_reset(spec, n, rngs)), (reset, n)


def test_step_columns_array_route_matches_generators():
    cases = [
        (CRITERION_07, "lookup"),
        (_chain_with_breaks(8, 31).matrix, "lookup"),
        (_ring_chain(7).matrix, "threshold"),
        (_ring_chain(systems._THRESHOLD_STATES + 6).matrix, "rows"),
        (_lazy_ring(300), "rows"),
    ]
    for matrix, route in cases:
        assert _route(matrix) == route
        chain = FiniteMarkovSpec(matrix)
        stationary = markov_stationary(chain)
        for n in (1, 2, 64):
            streams, rngs = _streams_and_list(_ARRAY_ROWS)
            assert systems._array_route(streams, n)
            batch = systems._step_columns(streams, n, stationary, chain)
            assert batch.flags.c_contiguous and batch.shape == (_ARRAY_ROWS, n)
            ref = systems._step_columns(rngs, n, stationary, chain)
            assert batch.dtype == ref.dtype and np.array_equal(batch, ref), (route, n)


def test_chain_samplers_array_route_match_generators():
    product = ProductChainSpec((FiniteMarkovSpec(Q1), FiniteMarkovSpec(Q2)), "maximal")
    # (sampler, spec, n, doubles per row): regenerative rows draw 2n and
    # Doeblin rows 2 (3n - 2)
    for sampler, spec, n, draws in (
        (sample_product_chain_batch, product, 60, 60),
        (sample_chain, EXAMPLE_MAP, 60, 60),
        (sample_chain, DOUBLING_MAP, 60, 60),
        (sample_paths, RegenerativeSpec.smith([1, 2, 5], [0.2, 0.3, 0.5]), 30, 60),
        (sample_paths, DoeblinChainSpec(0.5), 11, 62),
    ):
        streams, rngs = _streams_and_list(_ARRAY_ROWS)
        assert systems._array_route(streams, draws)
        batch = sampler(spec, n, streams)
        assert batch.flags.c_contiguous
        assert np.array_equal(batch, sampler(spec, n, rngs)), type(spec).__name__


class _FirstChunk(Exception):
    pass


@pytest.mark.parametrize(
    "workload, array_route",
    [("sign-short", True), ("markov-pool", False), ("runlength-long", False)],
)
def test_benchmark_chunks_take_their_routes(workload, array_route, monkeypatch):
    # stop at the first chunk that the runner samples, and read its shape
    def first_chunk(system, n, rngs):
        draws = n + 1 if isinstance(system, FactorProductSpec) else n
        raise _FirstChunk(len(rngs), draws, systems._array_route(rngs, draws))

    monkeypatch.setattr(systems, "sample_paths", first_chunk)
    path = Path(__file__).parents[1] / "perfbench" / "workloads" / f"{workload}.yaml"
    with pytest.raises(_FirstChunk) as chunk:
        runner.run_experiment(load_config(str(path), {"workers": 1}), "compare")
    rows, draws, taken = chunk.value.args
    assert taken == array_route, (rows, draws)
    assert taken == (rows >= systems._ARRAY_ROWS_PER_DRAW * draws)


def _decode_reference(codes, m_states, n_chains):
    out = np.empty(codes.shape + (n_chains,), dtype=np.int64)
    rem = codes.astype(np.int64)
    for i in range(n_chains - 1, -1, -1):
        out[..., i] = rem % m_states
        rem = rem // m_states
    return out


@pytest.mark.parametrize("m_states", [2, 3, 4])
@pytest.mark.parametrize("n_chains", [2, 3, 4])
def test_decode_states_equals_mod_div_formula(m_states, n_chains):
    codes = np.random.default_rng(m_states * n_chains).integers(
        0, m_states**n_chains, size=(9, 31)
    )
    got = decode_states(codes, m_states, n_chains)
    assert got.flags.c_contiguous and got.dtype == np.uint8
    assert np.array_equal(got, _decode_reference(codes, m_states, n_chains))


def test_interval_map_example_structure():
    assert EXAMPLE_MAP.n_cells == 3
    assert EXAMPLE_MAP.cell_lengths() == (F(1, 3), F(1, 3), F(1, 3))
    q = EXAMPLE_MAP.transition_matrix_exact()
    assert q[0] == [F(1, 3), F(1, 3), F(1, 3)]
    assert q[1] == [F(0), F(1, 2), F(1, 2)]
    assert q[2] == [F(1, 3), F(1, 3), F(1, 3)]
    assert not EXAMPLE_MAP.covers(1, 0)


def test_interval_map_invariant_density():
    h = interval_map_invariant(EXAMPLE_MAP)
    assert h == (F(3, 5), F(6, 5), F(6, 5))
    assert interval_symbol_stationary(EXAMPLE_MAP) == (F(1, 5), F(2, 5), F(2, 5))


def test_interval_map_rejects_non_markov_branch():
    # first branch maps [0, 1/2) onto [0, 3/4): endpoint off the grid
    with pytest.raises(StructureError):
        IntervalMapSpec(
            breaks=(F(0), F(1, 2), F(1)),
            slopes=(F(3, 2), F(2)),
            intercepts=(F(0), F(-1)),
        )


# unequal cells: [0, 1/3) and [1/3, 1), both mapped onto [0, 1)
UNEQUAL_MAP = IntervalMapSpec(
    breaks=(F(0), F(1, 3), F(1)),
    slopes=(F(3), F(3, 2)),
    intercepts=(F(0), F(-1, 2)),
)

DOUBLING_MAP = IntervalMapSpec(
    breaks=(F(0), F(1, 2), F(1)), slopes=(F(2), F(2)), intercepts=(F(0), F(-1))
)


def _binomial_z(hits, trials, p):
    return abs(hits / trials - p) / np.sqrt(p * (1.0 - p) / trials)


def test_interval_itinerary_law():
    # the itinerary is a Markov chain: P(i, j) = |cell_j| / (|slope_i| |cell_i|)
    assert EXAMPLE_MAP.itinerary_matrix_exact() == EXAMPLE_MAP.transition_matrix_exact()
    assert np.array_equal(EXAMPLE_MAP.chain[1].matrix, [[1 / 3] * 3, [0, 0.5, 0.5], [1 / 3] * 3])
    rows = 4000
    cells = sample_paths(EXAMPLE_MAP, 30, trajectory_rngs(2, 0, rows))
    assert cells.shape == (rows, 30) and cells.dtype == np.uint8
    assert set(np.unique(cells)) <= {0, 1, 2}
    # branch 1 never covers cell 0
    assert not np.any((cells[:, :-1] == 1) & (cells[:, 1:] == 0))
    # stationary start and every later marginal: (1/5, 2/5, 2/5)
    for col in (0, 29):
        for cell, p in enumerate((0.2, 0.4, 0.4)):
            assert _binomial_z(int((cells[:, col] == cell).sum()), rows, p) < 5.0, (col, cell)
    # from cell 1 the orbit moves to cells 1 and 2 with probability 1/2 each
    from_one = cells[:, 10] == 1
    assert _binomial_z(int((cells[from_one, 11] == 2).sum()), int(from_one.sum()), 0.5) < 5.0


def test_unequal_cell_itinerary_chain():
    p = UNEQUAL_MAP.itinerary_matrix_exact()
    assert p == [[F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)]]
    assert all(sum(row) == 1 for row in p)
    pi = interval_symbol_stationary(UNEQUAL_MAP)
    assert pi == (F(1, 3), F(2, 3))
    assert [sum(pi[i] * p[i][j] for i in range(2)) for j in range(2)] == list(pi)
    # the density transfer matrix's rows do not sum to 1 on unequal cells
    assert [sum(row) for row in UNEQUAL_MAP.transition_matrix_exact()] == [F(2, 3), F(4, 3)]
    assert np.allclose(UNEQUAL_MAP.chain[1].matrix, [[1 / 3, 2 / 3], [1 / 3, 2 / 3]])


def test_doubling_map_itinerary_stays_fair():
    # float orbits of the doubling map collapse onto 0 within 60 steps; the
    # itinerary is a fair coin at every step
    rows = 2000
    cells = sample_paths(DOUBLING_MAP, 80, trajectory_rngs(1, 0, rows))
    ones = int(cells[:, 60:80].sum())
    assert _binomial_z(ones, rows * 20, 0.5) < 5.0


def test_doeblin_validation():
    with pytest.raises(SpecError):
        DoeblinChainSpec(1.5)
    with pytest.raises(SpecError):
        FactorProductSpec(0.5)
