"""The random-lasso sweep: every catalog either completes or reports a coarse scan.

Opt-in (`pytest -m sweep`, about 10 s). 120 lassos from `default_rng(11)`;
per lasso, in this order: p = integers(1, 5), the cycle length
integers(1, 4), each pendant length integers(1, 4), unit pi if random() < 0.5,
then per pendant a delta at its midpoint of strength uniform(-0.6, 0.6) if
random() < 0.7. L and every Lj give 393 problems, catalogued at rho_max 30.
"""

import warnings

import numpy as np
import pytest

from lasso_spectra import checks
from lasso_spectra.errors import HalfPeriodZeroWarning, ScanResolutionTooCoarse
from lasso_spectra.graph import Problem, delta_potential, lasso_graph
from lasso_spectra.oracle import richardson_eigs
from lasso_spectra.spectrum import compute_catalog

# The scan defects open today: split clusters of multiplicity-3 and -4 base
# zeros narrower than a scan cell, unperturbed triple zeros listed as simple,
# and a touch on a grid point (ROADMAP, count-driven root isolation).
MAX_COARSE_SCANS = 28


def _problems():
    rng = np.random.default_rng(11)
    for _ in range(120):
        p = int(rng.integers(1, 5))
        cycle = int(rng.integers(1, 4))
        pendants = [int(rng.integers(1, 4)) for _ in range(p)]
        unit = "pi" if rng.random() < 0.5 else "1"
        potentials = [None]
        for length in pendants:
            hit = rng.random() < 0.7
            potentials.append(delta_potential(length, f"{length}/2", float(rng.uniform(-0.6, 0.6))) if hit else None)
        graph = lasso_graph(cycle, pendants, potentials=potentials, length_unit=unit)
        for problem in [Problem.neumann()] + [Problem.dirichlet(j) for j in range(1, p + 1)]:
            yield graph, problem


@pytest.mark.sweep
def test_random_lasso_sweep():
    problems, coarse = 0, []
    for graph, problem in _problems():
        problems += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HalfPeriodZeroWarning)  # folded families
            try:
                catalog = compute_catalog(graph, problem, 30.0)
            except ScanResolutionTooCoarse:
                coarse.append(problem.label())
                continue
        lams = np.asarray(catalog.lambdas()[: checks.ORACLE_COUNT])
        want = richardson_eigs(graph, problem, checks.ORACLE_COUNT, 160)
        rel = float(np.max(np.abs(lams - want) / np.maximum(1.0, np.abs(want))))
        assert rel <= checks.ORACLE_TOL, (problems, problem.label(), rel)
    assert problems == 393
    assert len(coarse) <= MAX_COARSE_SCANS, len(coarse)
