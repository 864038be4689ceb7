from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigh_tridiagonal

from lasso_spectra import checks
from lasso_spectra.errors import GridTooCoarse
from lasso_spectra.graph import Problem, delta_potential, lasso_graph
from lasso_spectra.oracle import (
    DiscreteOperator,
    discretize,
    oracle_eigs,
    richardson_eigs,
)
from lasso_spectra.spectrum import compute_catalog

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
    op = DiscreteOperator(
        np.array([2.0]), np.array([]), np.array([-1.0]), 2.0, (1.0,), Problem.neumann(), 50
    )
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


FIXTURES = ["pi_lasso", "delta_lasso", "attractive_p3"]


def _record_solves(monkeypatch) -> list:
    """Record the diagonal, diag - sigma, of every dgtsv solve."""
    solves, dgtsv = [], scipy.linalg.lapack.dgtsv

    def recording(dl, d, du, b, *args, **kwargs):
        solves.append(d)
        return dgtsv(dl, d, du, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", recording)
    return solves


def test_solve_counts(monkeypatch, request):
    solves = _record_solves(monkeypatch)
    warm, eigenvalues = 0, 0
    for name in FIXTURES:
        graph = request.getfixturevalue(name)
        for problem in _problems(graph):
            op = discretize(graph, problem, 60)
            mu0 = eigh_tridiagonal(op.diag, op.off, True, "i", (0, 0))[0]
            solves.clear()
            oracle_eigs(op, 6)
            cold = len(solves)
            # Only the first bracket's shifts sigma lie below mu_0.
            first = sum(1 for d in solves if op.diag[0] - d[0] < mu0)
            assert first <= 8, (name, problem.label(), first)
            solves.clear()
            richardson_eigs(graph, problem, 6, 60)
            warm += len(solves) - cold  # the coarse solve in it is oracle_eigs(op, 6)
            eigenvalues += 6
    assert warm <= 3 * eigenvalues, warm / eigenvalues


def _cold_richardson(graph, problem, count, ppu):
    coarse = oracle_eigs(discretize(graph, problem, ppu), count)
    fine = oracle_eigs(discretize(graph, problem, 2 * ppu), count)
    return (4.0 * fine - coarse) / 3.0


def _assert_continuation_matches_cold(graph, problem, count, ppu):
    got = richardson_eigs(graph, problem, count, ppu)
    want = _cold_richardson(graph, problem, count, ppu)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-10, problem.label()


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
