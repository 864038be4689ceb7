import itertools
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.linalg.lapack import dgtsv

from lasso_spectra import checks, oracle
from lasso_spectra.errors import GridTooCoarse
from lasso_spectra.graph import Problem, delta_potential, graph_from_json, lasso_graph
from lasso_spectra.oracle import (
    DiscreteOperator,
    discretize,
    oracle_eigs,
    richardson_eigs,
)
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
    # The vertex plus a one-node chain: [[2, -1], [-1, 2]].
    op = DiscreteOperator(np.array([2.0]), np.array([]), np.array([-1.0]), 2.0, (1.0,))
    assert np.allclose(oracle_eigs(op, 2), [1.0, 3.0])


def test_grid_too_coarse(pi_lasso):
    with pytest.raises(GridTooCoarse):
        discretize(pi_lasso, Problem.neumann(), 10)


def test_matrix_symmetric(delta_lasso):
    op = discretize(delta_lasso, Problem.neumann(), 50)
    a = _full(op)
    assert np.max(np.abs(a - a.T)) <= 1e-12


def test_free_low_spectrum_and_h2_convergence(pi_lasso):
    want = np.array(FREE_LOW_SPECTRUM[1:6])  # skip the zero mode for ratios
    errs = []
    for ppu in (60, 120):
        got = oracle_eigs(discretize(pi_lasso, Problem.neumann(), ppu), 6)[1:6]
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
    assert abs(oracle_eigs(op, 1)[0]) < 1e-10
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
    lam0 = oracle_eigs(discretize(pi_lasso, Problem.dirichlet(1), 60), 1)[0]
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
    got = oracle_eigs(op, 6)
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
    full = oracle_eigs(discretize(graph, Problem.neumann(), 50), 7)
    for j in range(1, graph.p + 1):
        pinned = oracle_eigs(discretize(graph, Problem.dirichlet(j), 50), 6)
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
    got = oracle_eigs(op, 6)
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


def _chain_of(runs):
    """The diagonal and off-diagonal of a chain of (rows, |off|, diag) runs."""
    diag = np.concatenate([np.full(m, c) for m, _, c in runs])
    return diag, -np.concatenate([np.full(m, e) for m, e, _ in runs])[1:]


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
    diag, off = _chain_of(runs)
    chain = oracle._Chain(diag, off)
    want = eigh_tridiagonal(diag, off, True) if len(diag) > 1 else diag
    # Between eigenvalues, at the band edges c +- 2|e| of every run and at 0
    # (the hyperbolic, the parabolic and the mirrored regimes), and beyond
    # the Gershgorin bounds.
    shifts = [0.5 * (want[:-1] + want[1:]), [chain.lower - 1.0, chain.upper + 1.0, 0.0]]
    shifts += [[c - 2.0 * e, c + 2.0 * e] for _, e, c in runs]
    gap = 1e-9 * max(1.0, np.max(np.abs(want)))
    for sigma in np.concatenate(shifts):
        if np.min(np.abs(want - sigma)) > gap:
            assert chain.count(float(sigma)) == np.count_nonzero(want < sigma), sigma


@settings(max_examples=60, deadline=None)
@given(runs=RUNS, scale=st.sampled_from([1.0, 1e3, 1e5]))
def test_cold_chain_eigenvalues_match_stebz(runs, scale):
    # No start: each eigenvalue is isolated on the count alone, then Newton
    # runs from a shift where the last pivot is negative.
    runs = [(m, scale * e, scale * e * c if c == 2.0 else scale * c) for m, e, c in runs]
    diag, off = _chain_of(runs)
    chain = oracle._Chain(diag, off)
    want = eigh_tridiagonal(diag, off, True, tol=np.finfo(float).tiny) if len(diag) > 1 else diag
    got = [chain.eig(k, None) for k in range(min(len(diag), 8))]
    # The count's own rounding: bisection on it alone is off by up to ~55 tol
    # in 6,000 examples, where stebz is within a few eps ||T_c||.
    assert np.max(np.abs(got - want[: len(got)])) <= 256.0 * chain.tol


def _cold_richardson(graph, problem, count, ppu):
    coarse = oracle_eigs(discretize(graph, problem, ppu), count)
    fine = oracle_eigs(discretize(graph, problem, ppu, refine=2), count)
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
    radius = np.abs(op.b) + np.abs(np.r_[op.off, 0.0]) + np.abs(np.r_[0.0, op.off])
    bound = np.sum(np.abs(op.b))
    lower = min(op.a - bound, np.min(op.diag - radius))
    upper = max(op.a + bound, np.max(op.diag + radius))
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
