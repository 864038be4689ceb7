import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.linalg.lapack import dgtsv

import oracle_reference
from lasso_spectra import checks, oracle
from lasso_spectra.errors import GridTooCoarse
from lasso_spectra.graph import UNITS, PotentialSpec, Problem, delta_potential, graph_from_json, lasso_graph
from lasso_spectra.oracle import DiscreteOperator, discretize, richardson_eigs
from lasso_spectra.spectrum import compute_catalog

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
FREE_LOW_SPECTRUM = [0.0, 0.25, 4.0 / 9.0, 16.0 / 9.0, 2.25, 4.0, 4.0]


def _full(op: DiscreteOperator) -> np.ndarray:
    """The symmetric matrix [[a, b^T], [b, T]] stored in op, T = tridiag(off, diag, off)."""
    dim = len(op.diag) + 1
    a = np.zeros((dim, dim))
    a[0, 0], a[0, 1:], a[1:, 0] = op.a, op.b, op.b
    i = np.arange(1, dim)
    a[i, i] = op.diag
    a[i[:-1], i[1:]] = op.off
    a[i[1:], i[:-1]] = op.off
    return a


def test_toy_matrix_eigenvalues():
    # The vertex plus a one-row chain, runs ((d, |off|, rows),) and b = -1: [[2, -1], [-1, 2]].
    op = DiscreteOperator((((2.0, 1.0, 1),),), ((0.0, -1.0),), 2.0, (1.0,))
    assert np.allclose(oracle._solve(op, 2)[0], [1.0, 3.0])


def test_grid_too_coarse(pi_lasso):
    # A NaN escaped as ValueError and an infinity as OverflowError.
    for ppu in (10, 49.999, math.nan, math.inf, -math.inf):
        with pytest.raises(GridTooCoarse):
            discretize(pi_lasso, Problem.neumann(), ppu)
        with pytest.raises(GridTooCoarse):
            richardson_eigs(pi_lasso, Problem.neumann(), 6, ppu)


@pytest.mark.parametrize("refine", [0, -1])
def test_refine_below_one_is_refused(pi_lasso, refine):
    # refine = 0 divided by zero, and refine = -1 asked numpy for negative dimensions.
    with pytest.raises(ValueError, match="refine"):
        discretize(pi_lasso, Problem.neumann(), 60, refine)


def test_count_zero_and_negative(pi_lasso):
    # Count 0 read the top of an empty list of chain eigenvalues (IndexError).
    got = richardson_eigs(pi_lasso, Problem.neumann(), 0, 60.0)
    assert isinstance(got, np.ndarray) and got.shape == (0,)
    with pytest.raises(ValueError, match="count"):
        richardson_eigs(pi_lasso, Problem.neumann(), -1, 60.0)


def test_grid_without_enough_chain_rows_is_too_coarse():
    # One element per edge at 50 points per unit: L's coarse grid has one
    # chain row, the pendant's free end, so count 3 read a coarse start that
    # did not exist (IndexError); L1's has none (ValueError from numpy).
    graph = lasso_graph("1/100", ["1/100"])
    with pytest.raises(GridTooCoarse):
        richardson_eigs(graph, Problem.neumann(), 3, 50.0)
    with pytest.raises(GridTooCoarse):
        richardson_eigs(graph, Problem.dirichlet(1), 1, 50.0)
    assert richardson_eigs(graph, Problem.neumann(), 2, 50.0).shape == (2,)


def test_matrix_symmetric(delta_lasso):
    op = discretize(delta_lasso, Problem.neumann(), 50)
    a = _full(op)
    assert np.max(np.abs(a - a.T)) <= 1e-12


def test_free_low_spectrum_and_h2_convergence(pi_lasso):
    want = np.array(FREE_LOW_SPECTRUM[1:6])  # skip the zero mode for ratios
    errs = []
    for ppu in (60, 120):
        got = oracle._solve(discretize(pi_lasso, Problem.neumann(), ppu), 6)[0][1:6]
        errs.append(np.abs(got - want))
    ratio = errs[0] / errs[1]
    assert np.all(ratio > 3.5) and np.all(ratio < 4.5)


def test_richardson_extrapolation_free(pi_lasso):
    got = richardson_eigs(pi_lasso, Problem.neumann(), 7, 60)
    assert np.allclose(got, FREE_LOW_SPECTRUM, atol=2e-5)


def test_constant_zero_mode_for_full_problem(pi_lasso):
    op = discretize(pi_lasso, Problem.neumann(), 60)
    vals, vecs = eigh(_full(op), subset_by_index=(0, 0))
    assert abs(vals[0]) < 1e-10
    assert abs(oracle._solve(op, 1)[0][0]) < 1e-10
    # Undo the mass normalization: the zero mode is constant on the graph.
    # Mass weights are sqrt of the lumped masses used in discretize.
    u = vecs[:, 0]
    u = u / np.max(np.abs(u))
    profile = u * np.sign(u[np.argmax(np.abs(u))])
    spread = np.max(profile) / np.min(profile)
    # v = M^(1/2) u with u constant: the ratio of weights is bounded by
    # sqrt(max mass / min mass) = sqrt(2 * max h / min h) on this grid.
    hs = op.h
    assert spread <= np.sqrt(4.0 * max(hs) / min(hs)) + 1e-6


def test_pinned_problem_excludes_constants(pi_lasso):
    lam0 = oracle._solve(discretize(pi_lasso, Problem.dirichlet(1), 60), 1)[0][0]
    assert lam0 > 0.03  # (1/5)^2 = 0.04 up to O(h^2)


def test_strong_delta_oracle_agreement():
    g = lasso_graph(1, [1, 1], potentials=[None, delta_potential(1, "1/2", 1.0), None], length_unit="pi")
    cat = compute_catalog(g, Problem.neumann(), 2.7)
    assert checks.oracle_agreement(g, Problem.neumann(), cat).passed


def test_pinned_oracle_with_negative_eigenvalue(delta_lasso):
    extrapolated = richardson_eigs(delta_lasso, Problem.dirichlet(1), 5, 60)
    cat = compute_catalog(delta_lasso, Problem.dirichlet(1), 2.5)
    lams = sorted(e.lam for e in cat.entries)[:5]
    assert extrapolated[0] < 0.0
    rel = np.abs(np.asarray(lams) - extrapolated) / np.maximum(1.0, np.abs(extrapolated))
    assert np.max(rel) <= 1e-3


def _chain_solve_matches_dense(graph, problem, ppu):
    op = discretize(graph, problem, ppu)
    # Structure: off is 0 exactly between chains (the cycle's interior, then
    # each pendant less its pinned end), and b couples the vertex to the
    # p + 2 chain ends next to it (both ends of the cycle's chain).
    pinned = problem.j if problem.kind == "dirichlet" else None
    counts = [round(graph.edge_length(j) / h) for j, h in enumerate(op.h)]
    last = np.cumsum([n - (j in (0, pinned)) for j, n in enumerate(counts)]) - 1
    assert np.array_equal(np.flatnonzero(op.off == 0.0), last[:-1]), problem.label()
    assert np.array_equal(np.flatnonzero(op.b), np.r_[0, last]), problem.label()
    assert np.count_nonzero(op.b) == graph.p + 2, problem.label()
    got = oracle._solve(op, 6)[0]
    want = eigh(_full(op), subset_by_index=(0, 5), eigvals_only=True)
    rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert np.max(rel) <= 1e-7, problem.label()
    return got


def _problems(graph):
    return [Problem.neumann()] + [Problem.dirichlet(j) for j in range(1, graph.p + 1)]


@pytest.mark.parametrize("name", ["pi_lasso", "delta_lasso", "attractive_p3"])
def test_chain_solve_matches_dense(name, request):
    graph = request.getfixturevalue(name)
    for problem in _problems(graph):
        got = _chain_solve_matches_dense(graph, problem, 60)
        if name == "attractive_p3" and problem.kind == "neumann":
            # The symmetric pendant modes: one double negative eigenvalue, listed twice.
            assert got[1] - got[0] > 0.01
            assert abs(got[2] - got[1]) <= 1e-8
            assert got[3] - got[2] > 0.01


LENGTHS = st.builds(Fraction, st.integers(1, 3), st.integers(1, 3))
EDGES = st.tuples(LENGTHS, st.none() | st.tuples(st.integers(1, 3), st.floats(-0.6, 0.6)))


def _lasso(edges, length_unit="1"):
    # One delta per edge at most, at 1/4, 1/2 or 3/4 of its length.
    lengths = [length for length, _ in edges]
    potentials = [
        None if delta is None else delta_potential(length, length * Fraction(delta[0], 4), delta[1])
        for length, delta in edges
    ]
    return lasso_graph(lengths[0], lengths[1:], potentials=potentials, length_unit=length_unit)


@settings(max_examples=30, deadline=None)
@given(edges=st.lists(EDGES, min_size=2, max_size=5), data=st.data())
def test_chain_solve_matches_dense_random(edges, data):
    graph = _lasso(edges)
    problem = data.draw(st.sampled_from(_problems(graph)))
    _chain_solve_matches_dense(graph, problem, 50)


@settings(max_examples=40, deadline=None)
@given(
    cycle=EDGES,
    pool=st.lists(EDGES, min_size=1, max_size=2),
    picks=st.lists(st.integers(0, 1), min_size=1, max_size=4),
    unit=st.sampled_from(["1", "pi"]),
)
def test_pinning_a_pendant_interlaces(cycle, pool, picks, unit):
    # Pendants drawn from a pool of one or two edges, so equal pendants are common.
    graph = _lasso([cycle] + [pool[i % len(pool)] for i in picks], unit)
    # Lj's matrix is L's without one dof: lambda_k(L) <= lambda_k(Lj) <= lambda_(k+1)(L).
    full = oracle._solve(discretize(graph, Problem.neumann(), 50), 7)[0]
    for j in range(1, graph.p + 1):
        pinned = oracle._solve(discretize(graph, Problem.dirichlet(j), 50), 6)[0]
        slack = 1e-12 * np.maximum(1.0, np.abs(pinned))
        assert np.all(full[:6] <= pinned + slack), j
        assert np.all(pinned <= full[1:] + slack), j


@pytest.mark.parametrize(
    "graph, want",
    [
        # The cycle's antisymmetric modes vanish at the vertex (b^T v = 0, a
        # removable pole of s): with the pendant's mode, a double near 4.
        (lasso_graph(1, [1], length_unit="pi"), 4.0),
        # Three equal pendant chains, one triple mu: a double near -0.99238.
        (
            lasso_graph(
                1, [1, 1, 1], potentials=[None] + [delta_potential(1, "1/2", -2.0)] * 3, length_unit="pi"
            ),
            -0.99238,
        ),
    ],
    ids=["removable_pole", "triple_chain_eigenvalue"],
)
def test_degenerate_brackets_match_dense(graph, want):
    op = discretize(graph, Problem.neumann(), 60)
    got = oracle._solve(op, 6)[0]
    dense = eigh(_full(op), subset_by_index=(0, 5), eigvals_only=True)
    assert np.max(np.abs(got - dense) / np.maximum(1.0, np.abs(dense))) <= 1e-10
    double = np.flatnonzero(np.abs(got - want) < 1e-3)
    assert len(double) == 2 and got[double[1]] - got[double[0]] <= 1e-8


def test_first_start_next_to_a_near_double_mu():
    # Cycle 2 and pendants 1, 1, L1: the cycle and the free pendant share
    # mu_0 = mu_1 = (pi/2)^2 up to ~1e-13, so the first bracket's start lies
    # within tol of its pole at mu_0. Newton from there stopped at the pole.
    op = discretize(lasso_graph(2, [1, 1]), Problem.dirichlet(1), 50)
    lam, mu, _ = oracle._solve(op, 2)
    assert 0.0 < mu[1] - mu[0] < 1e-12
    dense = eigh(_full(op), subset_by_index=(0, 1), eigvals_only=True)
    assert np.max(np.abs(lam - dense) / np.maximum(1.0, np.abs(dense))) <= 1e-10


FIXTURES = ["pi_lasso", "delta_lasso", "attractive_p3"]


def _record_passes(monkeypatch) -> tuple[list, list]:
    """Record the shift of every vertex Schur complement evaluation (one pass
    per coupled chain end) and of every chain pass outside one (a Newton step
    on a chain eigenvalue mu)."""
    schur_shifts, chain_shifts, inside = [], [], [False]
    make, run = oracle._schur, oracle._pass

    def recording_schur(op):
        schur = make(op)

        def evaluate(sigma):
            schur_shifts.append(sigma)
            inside[0] = True
            try:
                return schur(sigma)
            finally:
                inside[0] = False

        return evaluate

    def recording_pass(runs, sigma):
        if not inside[0]:
            chain_shifts.append(sigma)
        return run(runs, sigma)

    monkeypatch.setattr(oracle, "_schur", recording_schur)
    monkeypatch.setattr(oracle, "_pass", recording_pass)
    return schur_shifts, chain_shifts


def test_solve_counts(monkeypatch, request):
    # Schur complement evaluations and chain Newton steps are counted apart, on each grid.
    schur, chain = _record_passes(monkeypatch)
    warm, cold_chain, fine_chain, eigenvalues = 0, 0, 0, 0
    for name in FIXTURES:
        graph = request.getfixturevalue(name)
        for problem in _problems(graph):
            op = discretize(graph, problem, 60)
            mu0 = eigh_tridiagonal(op.diag, op.off, True, "i", (0, 0))[0]
            schur.clear()
            chain.clear()
            coarse = oracle._solve(op, 6)
            # Only the first bracket's shifts sigma lie below mu_0.
            first = sum(1 for sigma in schur if sigma < mu0)
            assert first <= 8, (name, problem.label(), first)
            cold_chain += len(chain)
            fine = discretize(graph, problem, 60, refine=2)
            schur.clear()
            chain.clear()
            oracle._solve(fine, 6, coarse)
            warm += len(schur)
            fine_chain += len(chain)
            eigenvalues += 6
    assert warm <= 3 * eigenvalues, warm / eigenvalues
    assert fine_chain <= 3 * eigenvalues, fine_chain / eigenvalues
    assert cold_chain <= 6.5 * eigenvalues, cold_chain / eigenvalues


@pytest.mark.parametrize("name", ["pi_lasso", "delta_lasso"])
def test_bracket_ending_at_a_removable_pole(name, request, monkeypatch):
    # lambda_5 = mu_5 near 4: the cycle's antisymmetric mode vanishes at the
    # vertex. Newton from inside overshoots past mu_5 every step; one probe
    # just inside it settles the bracket, cold and continued.
    graph = request.getfixturevalue(name)
    coarse = oracle._solve(discretize(graph, Problem.neumann(), 60), 7)
    schur, _ = _record_passes(monkeypatch)
    for refine, start in ((1, None), (2, coarse)):
        op = discretize(graph, Problem.neumann(), 60, refine)
        schur.clear()
        lam, mu, _ = oracle._solve(op, 7, start)
        assert abs(mu[5] - 4.0) < 1e-3 and mu[4] < 3.0
        assert lam[5] == mu[5]
        assert sum(1 for sigma in schur if mu[4] < sigma <= mu[5]) <= 6, refine


def _mu_match_stebz(graph, problem, count, ppu):
    """Both grids' mu against stebz at full precision, and bit-equal on identical chains."""
    coarse_op, fine_op = discretize(graph, problem, ppu), discretize(graph, problem, ppu, refine=2)
    coarse = oracle._solve(coarse_op, count)
    for op, (_, mu, chain) in ((coarse_op, coarse), (fine_op, oracle._solve(fine_op, count, coarse))):
        want = eigh_tridiagonal(op.diag, op.off, True, "i", (0, len(mu) - 1), tol=np.finfo(float).tiny)
        assert np.max(np.abs(mu - want) / np.maximum(1.0, np.abs(want))) <= 1e-10, problem.label()
        bounds = np.r_[0, np.flatnonzero(op.off == 0.0) + 1, len(op.diag)]
        rows = [(op.diag[a:b].tobytes(), op.off[a : b - 1].tobytes()) for a, b in zip(bounds[:-1], bounds[1:])]
        for c, d in itertools.combinations(range(len(rows)), 2):
            if rows[c] == rows[d]:
                n = min(np.count_nonzero(chain == c), np.count_nonzero(chain == d))
                assert np.array_equal(mu[chain == c][:n], mu[chain == d][:n]), problem.label()


@pytest.mark.parametrize("name", FIXTURES)
def test_wrong_newton_starts_are_certified(name, request):
    # Coarse mu moved into the next eigenvalue's basin of their chain, all
    # credited to the first chain, or none at all: the count rejects the wrong
    # roots and bisects, and adds what a chain holds below the top.
    graph = request.getfixturevalue(name)
    for problem in _problems(graph):
        op = discretize(graph, problem, 120)
        _, coarse_mu, coarse_chain = oracle._solve(discretize(graph, problem, 60), 7)
        want = eigh_tridiagonal(op.diag, op.off, True, "i", (0, 6), tol=np.finfo(float).tiny)
        shifted = coarse_mu.copy()
        for c in set(coarse_chain.tolist()):
            own = np.flatnonzero(coarse_chain == c)
            shifted[own[:-1]] = coarse_mu[own[1:]]  # each start at its successor
            shifted[own[-1]] = 2.0 * coarse_mu[own[-1]] + 1.0
        cases = [(shifted, coarse_chain), (coarse_mu, 0 * coarse_chain), (np.empty(0), np.empty(0, dtype=int))]
        for starts, chains in cases:
            mu, _ = oracle._continue_mu(op, 6, starts, chains)
            assert np.max(np.abs(mu - want) / np.maximum(1.0, np.abs(want))) <= 1e-10, problem.label()


@st.composite
def _grids(draw):
    """A lasso, a problem, points per unit and refine, with breakpoints on node 1
    and node n - 1 of an edge's coarse grid, cycle deltas, zero jumps, and
    edges of one or two elements (one-row chains, or none)."""
    unit, ppu = draw(st.sampled_from(["1", "pi"])), draw(st.sampled_from([50.0, 60.0, 75.5]))
    fractions = [Fraction(1, 100), Fraction(1, 50), Fraction(1, 25), Fraction(1, 10), Fraction(1), Fraction(3, 2)]
    sigma = st.sampled_from([0.0, 0.5, -2.0]) | st.floats(-40.0, 40.0)
    lengths, potentials = [], []
    for _ in range(draw(st.integers(2, 4))):
        length = draw(st.sampled_from(fractions))
        # An edge's node count with no breakpoint, and with breakpoints at 1/k and (k - 1)/k.
        k = math.ceil(float(length) * UNITS[unit] * ppu)
        spots = [Fraction(1, 2), Fraction(1, 3)] + ([Fraction(1, k), Fraction(k - 1, k)] if k > 2 else [])
        cuts = sorted(set(draw(st.lists(st.sampled_from(spots), max_size=3))))
        values = draw(st.lists(sigma, min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        lengths.append(length)
        potentials.append(PotentialSpec((0, *(c * length for c in cuts), length), values))
    graph = lasso_graph(lengths[0], lengths[1:], potentials=potentials, length_unit=unit)
    return graph, draw(st.sampled_from(_problems(graph))), ppu, draw(st.sampled_from([1, 2, 4]))


@settings(max_examples=150, deadline=None)
@given(case=_grids())
def test_runs_equal_the_per_node_assembly(case):
    # discretize forms each chain's runs from the edge alone; the per-node
    # assembly compressed afterwards gives the same floats, in both orientations
    # the solver uses and for the cycle's chain without its last row, and so
    # do b, a, the Gershgorin bounds and a chain's Rayleigh bound.
    graph, problem, ppu, refine = case
    op, ref = discretize(graph, problem, ppu, refine), oracle_reference.discretize(graph, problem, ppu, refine)
    assume(len(ref.diag))
    bounds = ref.bounds
    assert len(op.chains) == len(bounds) - 1
    for runs, (first, last), a, z in zip(op.chains, op.ends, bounds[:-1], bounds[1:]):
        diag, off = ref.diag[a:z], ref.off[a : z - 1]
        views = [(runs, diag, off), (oracle._oriented(runs, reverse=True), diag[::-1], off[::-1])]
        if z - a > 1:
            views.append((oracle._oriented(runs, drop_last=True), diag[:-1], off[:-1]))
            views.append((oracle._oriented(runs, True, True), diag[-2::-1], off[-2::-1]))
        for got, d, o in views:
            assert repr(list(got)) == repr(oracle_reference.runs(d, o)), problem.label()
        assert repr((first, last)) == repr((float(ref.b[a]) if z - a > 1 else 0.0, float(ref.b[z - 1])))
        chain = oracle._Chain(views[1][0])
        got = (chain.lower, chain.upper, chain.pivmin, chain.first)
        assert repr(got) == repr(oracle_reference.chain_constants(diag[::-1], off[::-1]))
    assert repr(float(op.a)) == repr(float(ref.a)) and op.h == ref.h
    got, want = oracle._outer_bounds(op), oracle_reference.gershgorin(ref)
    assert repr([float(x) for x in got]) == repr([float(x) for x in want])
    for got, want in ((op.diag, ref.diag), (op.off, ref.off), (op.b, ref.b)):
        assert got.tobytes() == want.tobytes()


def _chain_of(runs):
    """A chain drawn as (rows, |off|, diag) runs, each row's |off| the one to the
    row before (row 0 has none): the solver's runs, and the dense diagonal and
    off-diagonal."""
    gaps = [(e, m) for m, e, _ in runs]
    gaps[0] = (gaps[0][0], gaps[0][1] - 1)
    chain = oracle._compress([(c, m) for m, _, c in runs], gaps)
    diag = np.concatenate([np.full(m, c) for m, _, c in runs])
    return chain, diag, -np.concatenate([np.full(m, e) for m, e, _ in runs])[1:]


# Runs of equal (diag, off) of a chain, off < 0 as in the FE matrix, with
# diagonals near 2|off| (the FE interior) or anywhere.
RUNS = st.lists(
    st.tuples(st.integers(1, 300), st.floats(0.5, 20.0), st.floats(-60.0, 60.0) | st.just(2.0)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(runs=RUNS, scale=st.sampled_from([1.0, 1e3, 1e5]))
def test_chain_count_matches_eigenvalues(runs, scale):
    runs = [(m, scale * e, scale * e * c if c == 2.0 else scale * c) for m, e, c in runs]
    chain_runs, diag, off = _chain_of(runs)
    chain = oracle._Chain(chain_runs)
    want = eigh_tridiagonal(diag, off, True) if len(diag) > 1 else diag
    # Between eigenvalues, at the band edges c +- 2|e| of every run and at 0
    # (the hyperbolic, the parabolic and the mirrored regimes), and beyond
    # the Gershgorin bounds.
    shifts = [0.5 * (want[:-1] + want[1:]), [chain.lower - 1.0, chain.upper + 1.0, 0.0]]
    shifts += [[c - 2.0 * e, c + 2.0 * e] for _, e, c in runs]
    gap = 1e-9 * max(1.0, np.max(np.abs(want)))
    for sigma in np.concatenate(shifts):
        if np.min(np.abs(want - sigma)) > gap:
            assert chain.pivots(float(sigma))[0] == np.count_nonzero(want < sigma), sigma


@settings(max_examples=60, deadline=None)
@given(runs=RUNS, scale=st.sampled_from([1.0, 1e3, 1e5]))
# An eigenvalue (2) on the upper band edge of the last run, where the phase
# form of the count once rounded at the level of pi (off by 1.5e-11).
@example(runs=[(1, 1.0, 0.0), (1, 1.0, 1.0), (1, 1.0, 0.0)], scale=1.0)
def test_cold_chain_eigenvalues_match_stebz(runs, scale):
    # No start: each eigenvalue is isolated on the count alone, then Newton
    # runs from a shift where the last pivot is negative.
    runs = [(m, scale * e, scale * e * c if c == 2.0 else scale * c) for m, e, c in runs]
    chain_runs, diag, off = _chain_of(runs)
    chain = oracle._Chain(chain_runs)
    want = eigh_tridiagonal(diag, off, True, tol=np.finfo(float).tiny) if len(diag) > 1 else diag
    got = [chain.eig(k, None) for k in range(min(len(diag), 8))]
    # The count's own rounding: bisection on it alone is off by up to ~55 tol
    # in 6,000 examples, where stebz is within a few eps ||T_c||.
    assert np.max(np.abs(got - want[: len(got)])) <= 256.0 * chain.tol


def _cold_richardson(graph, problem, count, ppu):
    coarse = oracle._solve(discretize(graph, problem, ppu), count)[0]
    fine = oracle._solve(discretize(graph, problem, ppu, refine=2), count)[0]
    return (4.0 * fine - coarse) / 3.0


def _assert_continuation_matches_cold(graph, problem, count, ppu):
    got = richardson_eigs(graph, problem, count, ppu)
    want = _cold_richardson(graph, problem, count, ppu)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-10, problem.label()
    _mu_match_stebz(graph, problem, count, ppu)


@pytest.mark.parametrize("name", FIXTURES)
def test_richardson_continuation_matches_cold_solves(name, request):
    graph = request.getfixturevalue(name)
    for problem in _problems(graph):
        _assert_continuation_matches_cold(graph, problem, 6, 60)


@settings(max_examples=30, deadline=None)
@given(
    cycle=EDGES,
    pool=st.lists(EDGES, min_size=1, max_size=2),
    picks=st.lists(st.integers(0, 1), min_size=1, max_size=4),
    count=st.integers(1, 8),
    data=st.data(),
)
def test_richardson_continuation_matches_cold_solves_random(cycle, pool, picks, count, data):
    # Pendants drawn from a pool of one or two edges, so equal chains (equal mu) are common.
    graph = _lasso([cycle] + [pool[i % len(pool)] for i in picks])
    problem = data.draw(st.sampled_from(_problems(graph)))
    _assert_continuation_matches_cold(graph, problem, count, 50)


def test_cycle_term_near_an_eigenvalue_of_the_cycle_without_its_last_row():
    # A nearly symmetric cycle: on the fine grid lambda_3 = 40.2100 lies 0.02
    # below an eigenvalue of the cycle's chain without its last row, where the
    # regrouped cycle term cancels; warm and cold solves differed by 1.2e-10.
    graph = _lasso([(Fraction(1), (1, 2.0**-9)), (Fraction(1, 2), (2, -0.5625))])
    _assert_continuation_matches_cold(graph, Problem.neumann(), 4, 50)


def _lapack_reference(op, count):
    """The count smallest eigenvalues and the chain eigenvalues mu, by LAPACK:
    mu from eigh_tridiagonal, and each eigenvalue by bisection on the sign of
    s(sigma) = a - sigma - b^T (T - sigma)^(-1) b, one gtsv solve per shift,
    inside its interlacing bracket (Gershgorin bounds at the ends)."""
    tiny = np.finfo(float).tiny
    mu = eigh_tridiagonal(op.diag, op.off, True, "i", (0, min(count, len(op.diag)) - 1), tol=tiny)
    lower, upper = oracle_reference.gershgorin(op)
    ends, lam = np.r_[lower, mu, upper], []
    for lo, hi in zip(ends[:count], ends[1 : count + 1]):
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            x = dgtsv(op.off, op.diag - mid, op.off, op.b)[3]
            lo, hi = (lo, mid) if op.a - mid - op.b @ x < 0.0 else (mid, hi)
            mid = 0.5 * (lo + hi)
        lam.append(mid)
    return np.array(lam), mu


def _assert_matches_lapack(graph, problem, ppu):
    coarse_op, fine_op = discretize(graph, problem, ppu), discretize(graph, problem, ppu, refine=2)
    coarse = oracle._solve(coarse_op, 6)
    for op, (lam, mu, _) in ((coarse_op, coarse), (fine_op, oracle._solve(fine_op, 6, coarse))):
        want_lam, want_mu = _lapack_reference(op, 6)
        for got, want in ((lam, want_lam), (mu, want_mu)):
            rel = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
            assert rel <= 1e-10, (problem.label(), len(op.diag), rel)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_closed_form_passes_match_lapack(config):
    # Both grids of richardson_eigs, L and every Lj: the eigenvalues and mu
    # from the closed-form passes against gtsv and stebz on the same operator.
    graph = graph_from_json(config)[0]
    for problem in _problems(graph):
        _assert_matches_lapack(graph, problem, 60)


@pytest.mark.sweep
def test_closed_form_passes_match_lapack_on_benchmark_cells():
    # The `oracle` benchmark cells of seeds 1, 7 and 77 at its 160 points per unit.
    sys.path.insert(0, str(ROOT))
    from perfbench import gen

    for seed in (1, 7, 77):
        for case in gen.make_cases("oracle", seed):
            graph = graph_from_json(case.config)[0]
            for problem in _problems(graph):
                _assert_matches_lapack(graph, problem, 160)


def test_fine_grid_doubles_every_edge():
    # Each level used to round its node counts up on its own: lasso_delta got
    # 189/190/189 nodes at 60 points per unit and 377/378/377 at 120, so h/2
    # held on no edge, and its lowest 6 (L) were 1.6e-7 relative off the catalog.
    graph = graph_from_json(ROOT / "configs" / "lasso_delta.json")[0]
    coarse, fine = discretize(graph, Problem.neumann(), 60), discretize(graph, Problem.neumann(), 60, refine=2)
    assert np.allclose(np.array(fine.h), 0.5 * np.array(coarse.h), rtol=1e-15, atol=0.0)
    want = np.array(compute_catalog(graph, Problem.neumann(), 4.0).lambdas()[:6])
    got = richardson_eigs(graph, Problem.neumann(), 6, 60)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-8
