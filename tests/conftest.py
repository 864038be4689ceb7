import pytest

from lasso_spectra.graph import Problem, delta_potential, lasso_graph
from lasso_spectra.spectrum import compute_catalog


@pytest.fixture(scope="session")
def pi_lasso():
    """p = 2 lasso, all lengths pi, zero potential."""
    return lasso_graph(1, [1, 1], length_unit="pi")


@pytest.fixture(scope="session")
def delta_lasso():
    """p = 2 lasso, lengths pi, delta of strength 0.5 at the midpoint of e_1."""
    return lasso_graph(
        1, [1, 1], potentials=[None, delta_potential(1, "1/2", 0.5), None], length_unit="pi"
    )


@pytest.fixture(scope="session")
def attractive_p3():
    """p = 3 lasso, lengths pi, delta of strength -2 at each pendant midpoint.

    Its symmetric pendant modes give a double negative eigenvalue (for L).
    """
    return lasso_graph(
        1, [1, 1, 1], potentials=[None] + [delta_potential(1, "1/2", -2.0)] * 3, length_unit="pi"
    )


@pytest.fixture(scope="session")
def unit_lasso_p1():
    """p = 1 lasso with unit lengths, zero potential."""
    return lasso_graph(1, [1])


@pytest.fixture(scope="session")
def delta_catalog_deep(delta_lasso):
    """Delta-potential catalog deep enough for n_max = 200 reconstruction."""
    return compute_catalog(delta_lasso, Problem.neumann(), 2.0 * 201 + 1.0)


@pytest.fixture(scope="session")
def delta_catalog_deep_pinned(delta_lasso):
    return compute_catalog(delta_lasso, Problem.dirichlet(1), 2.0 * 201 + 1.0)
