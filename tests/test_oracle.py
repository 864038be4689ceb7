import numpy as np
import pytest
from scipy.linalg import eigh

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


def test_toy_matrix_eigenvalues():
    op = DiscreteOperator(np.array([[2.0, -1.0], [-1.0, 2.0]]), (1.0,), Problem.neumann(), 50)
    assert np.allclose(oracle_eigs(op, 2), [1.0, 3.0])


def test_grid_too_coarse(pi_lasso):
    with pytest.raises(GridTooCoarse):
        discretize(pi_lasso, Problem.neumann(), 10)


def test_matrix_symmetric(delta_lasso):
    op = discretize(delta_lasso, Problem.neumann(), 50)
    assert np.max(np.abs(op.matrix - op.matrix.T)) <= 1e-12


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
    vals, vecs = eigh(op.matrix, subset_by_index=(0, 0))
    assert abs(vals[0]) < 1e-10
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


def test_delta_oracle_matches_rootfinding(delta_lasso):
    extrapolated = richardson_eigs(delta_lasso, Problem.neumann(), 6, 60)
    cat = compute_catalog(delta_lasso, Problem.neumann(), 2.6)
    lams = sorted(e.lam for e in cat.entries)[:6]
    rel = np.abs(np.asarray(lams) - extrapolated) / np.maximum(1.0, np.abs(extrapolated))
    assert np.max(rel) <= 1e-3


def test_strong_delta_oracle_agreement():
    g = lasso_graph(1, [1, 1], potentials=[None, delta_potential(1, "1/2", 1.0), None], length_unit="pi")
    extrapolated = richardson_eigs(g, Problem.neumann(), 6, 60)
    cat = compute_catalog(g, Problem.neumann(), 2.7)
    lams = sorted(e.lam for e in cat.entries)[:6]
    rel = np.abs(np.asarray(lams) - extrapolated) / np.maximum(1.0, np.abs(extrapolated))
    assert np.max(rel) <= 1e-3


def test_pinned_oracle_with_negative_eigenvalue(delta_lasso):
    extrapolated = richardson_eigs(delta_lasso, Problem.dirichlet(1), 5, 60)
    cat = compute_catalog(delta_lasso, Problem.dirichlet(1), 2.5)
    lams = sorted(e.lam for e in cat.entries)[:5]
    assert extrapolated[0] < 0.0
    rel = np.abs(np.asarray(lams) - extrapolated) / np.maximum(1.0, np.abs(extrapolated))
    assert np.max(rel) <= 1e-3
