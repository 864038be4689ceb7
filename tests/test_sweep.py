"""The random-lasso sweeps: every catalog either completes or reports a coarse scan.

Opt-in (`pytest -m sweep`, about 10 s). 120 lassos from `default_rng(11)`;
per lasso, in this order: p = integers(1, 5), the cycle length
integers(1, 4), each pendant length integers(1, 4), unit pi if random() < 0.5,
then per pendant a delta at its midpoint of strength uniform(-0.6, 0.6) if
random() < 0.7. L and every Lj give 393 problems, catalogued at rho_max 30.
The strong class (test_strong_class_sweep) adds 120 problems with deltas of
strength up to 50.
"""

import warnings
from fractions import Fraction

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


def _sweep(problems):
    """Catalogue each problem at rho_max 30, with RuntimeWarning as an error,
    and check each complete catalog's lowest eigenvalues against the FE
    oracle. Returns the problem count and the coarse scans' labels."""
    count, coarse = 0, []
    for graph, problem in problems:
        count += 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", HalfPeriodZeroWarning)  # folded families
            try:
                catalog = compute_catalog(graph, problem, 30.0)
            except ScanResolutionTooCoarse:
                coarse.append(problem.label())
                continue
        lams = np.asarray(catalog.lambdas()[: checks.ORACLE_COUNT])
        want = richardson_eigs(graph, problem, checks.ORACLE_COUNT, 160)
        rel = float(np.max(np.abs(lams - want) / np.maximum(1.0, np.abs(want))))
        assert rel <= checks.ORACLE_TOL, (count, problem.label(), rel)
    return count, coarse


@pytest.mark.sweep
def test_random_lasso_sweep():
    problems, coarse = _sweep(_problems())
    assert problems == 393
    assert len(coarse) <= MAX_COARSE_SCANS, len(coarse)


# The strong class's coarse scans: split clusters and touches narrower than a
# scan cell, the same defects as above at larger strengths.
MAX_COARSE_STRONG = 17


def _strong_problems():
    rng = np.random.default_rng(2027)
    for _ in range(60):
        p = int(rng.integers(1, 4))
        cycle = int(rng.integers(1, 4))
        pendants = [int(rng.integers(1, 4)) for _ in range(p)]
        unit = "pi" if rng.random() < 0.5 else "1"
        potentials = [None]
        for length in pendants:
            at = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)][int(rng.integers(0, 4))]
            strength = float(np.exp(rng.uniform(0.0, np.log(50.0))))
            if not rng.random() < 0.5:
                strength = -strength
            potentials.append(delta_potential(length, str(at * length), strength))
        j = int(rng.integers(1, p + 1))
        graph = lasso_graph(cycle, pendants, potentials=potentials, length_unit=unit)
        yield graph, Problem.neumann()
        yield graph, Problem.dirichlet(j)


@pytest.mark.sweep
def test_strong_class_sweep():
    """The strong class (ROADMAP): 60 lassos from `default_rng(2027)`; per
    lasso, in this order: p = integers(1, 4), the cycle length integers(1, 4),
    each pendant length integers(1, 4), unit pi if random() < 0.5; per
    pendant a delta at [1/4, 1/3, 1/2, 2/3][integers(0, 4)] of its length, of
    strength exp(uniform(0, log 50)), negated unless random() < 0.5; then
    j = integers(1, p + 1). L and that Lj give 120 problems, catalogued at
    rho_max 30. Deltas this strong make the characteristic function overflow
    far below the lambda floor; the scan from the proved floor must raise no
    RuntimeWarning."""
    problems, coarse = _sweep(_strong_problems())
    assert problems == 120
    assert len(coarse) <= MAX_COARSE_STRONG, len(coarse)
