"""The invariant checks behind `lasso-spectra verify` and the acceptance suite.

Each check returns a Check: the measured value, the bound it is held to, a
report detail ({"error": ...} when the check cannot run) and its wall time.
Every bound is defined here, once. scipy is imported on first use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .charfn import charfn_for
from .errors import SpectraError
from .graph import Problem
from .oracle import richardson_eigs
from .propagate import fundamental_solutions
from .reconstruct import compare, hadamard_reconstruct
from .spectrum import compute_catalog, epsilon_diagnostics
from .trigpoly import build_frame

WRONSKIAN_TOL = 1e-10  # absolute |W - 1|
CLOSED_FORM_TOL = 1e-12  # relative to the largest closed-form value
PERIODICITY_TOL = 1e-9  # relative to the sup bound of d0
ORACLE_TOL = 1e-3  # relative, absolute below |lambda| = 1
ROUND_TRIP_TOL = 1e-3  # relative
NORMALIZATION_TOL = 1e-2  # |recovered/free - 1| and |direct/free - 1| at lambda = -1e3
ORACLE_COUNT = 6


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    value: float | None
    bound: float | None
    detail: dict
    elapsed_s: float


def _check(name, start, value, bound, detail, passed=None) -> Check:
    passed = value <= bound if passed is None else passed
    return Check(name, bool(passed), value, bound, detail, time.perf_counter() - start)


def _error(name, start, bound, message) -> Check:
    return _check(name, start, None, bound, {"error": message}, passed=False)


def wronskian(graph, lam) -> Check:
    start = time.perf_counter()
    worst = max(
        float(np.max(np.abs(fundamental_solutions(segs, lam).wronskian() - 1.0)))
        for segs in graph.segments
    )
    return _check("wronskian", start, worst, WRONSKIAN_TOL, {"max_deviation": worst})


def free_closed_form(graph, problem: Problem, frame, rho) -> Check:
    """The exact free expansion against the propagated zero-potential twin."""
    start = time.perf_counter()
    direct = charfn_for(graph.with_zero_potential(), problem, rho * rho)
    closed = frame.eval_lambda(rho * rho)
    scale = np.max(np.abs(closed)) or 1.0
    dev = float(np.max(np.abs(direct - closed)) / scale)
    return _check("free_closed_form", start, dev, CLOSED_FORM_TOL, {"max_relative_deviation": dev})


def periodicity(frame, rho) -> Check:
    start = time.perf_counter()
    per = float(np.max(np.abs(frame.poly(rho + frame.tau) - frame.poly(rho))))
    bound = PERIODICITY_TOL * frame.poly.scale()
    return _check("periodicity", start, per, bound, {"max_deviation": per})


def catalog_bijection(graph, problem: Problem, rho_max: float):
    """(check, catalog): the catalog fills every grid slot up to rho_max, and
    each eigenvalue >= 0 lies within half the grid gap of its slot. value is
    the largest |eps| at lambda >= 0 over half the gap (0.0 without such an
    entry), held below 1; the catalog is None if it failed. A catalog that
    exists always fills its slots (compute_catalog raises otherwise)."""
    start = time.perf_counter()
    try:
        catalog = compute_catalog(graph, problem, rho_max)
    except SpectraError as exc:
        return _error("catalog_bijection", start, 1.0, str(exc)), None
    half_gap = catalog.frame.delta() / 2.0
    eps = [abs(e.eps) for e in catalog.entries if e.lam >= 0.0]
    value = max(eps, default=0.0) / half_gap
    detail = {
        "entries": len(catalog.entries),
        "grid_points": len(catalog.frame.slots(rho_max)),
        "windows_ok": all(x < half_gap for x in eps),
    }
    return _check("catalog_bijection", start, value, 1.0, detail, value < 1.0), catalog


def oracle_agreement(graph, problem: Problem, catalog, points_per_unit: float = 60.0) -> Check:
    """The lowest catalog eigenvalues against the extrapolated FE oracle."""
    start = time.perf_counter()
    if catalog is None or len(catalog.entries) < ORACLE_COUNT:
        return _error("oracle_agreement", start, ORACLE_TOL, "catalog too short")
    try:
        extrapolated = richardson_eigs(graph, problem, ORACLE_COUNT, points_per_unit)
    except SpectraError as exc:
        return _error("oracle_agreement", start, ORACLE_TOL, str(exc))
    lams = np.asarray(catalog.lambdas()[:ORACLE_COUNT])
    rel = float(np.max(np.abs(lams - extrapolated) / np.maximum(1.0, np.abs(extrapolated))))
    return _check("oracle_agreement", start, rel, ORACLE_TOL, {"max_relative_error": rel})


def round_trip(graph, problem: Problem, catalog, n_max: int) -> Check:
    """The recovered function against direct evaluation on [-5, 9], skipping
    points within 1e-2 of an eigenvalue."""
    start = time.perf_counter()
    name = "reconstruction_round_trip"
    if catalog is None or not catalog.covers_truncation(n_max):
        return _error(name, start, ROUND_TRIP_TOL, "catalog unavailable or too short")
    lams = np.array(catalog.lambdas())
    grid = np.linspace(-5.0, 9.0, 200)
    grid = grid[np.array([np.min(np.abs(x - lams)) > 1e-2 for x in grid])]
    result = hadamard_reconstruct(catalog, grid, n_max)
    report = compare(result, lambda lam: charfn_for(graph, problem, lam))
    return _check(name, start, report.max_rel, ROUND_TRIP_TOL, {"max_rel": report.max_rel})


def normalization_limit(graph, problem: Problem, catalog, n_max: int) -> Check:
    """Recovered over free and direct over free at lambda = -1e3; value is
    the larger deviation from 1."""
    start = time.perf_counter()
    name = "normalization_limit"
    if catalog is None or not catalog.covers_truncation(n_max):
        return _error(name, start, NORMALIZATION_TOL, "catalog unavailable or too short")
    lam = -1e3
    recovered = float(hadamard_reconstruct(catalog, np.array([lam]), n_max).ratio[0])
    direct = float(charfn_for(graph, problem, lam) / catalog.frame.eval_lambda(lam))
    detail = {"recovered_over_free": recovered, "direct_over_free": direct}
    dev = max(abs(recovered - 1.0), abs(direct - 1.0))
    return _check(name, start, dev, NORMALIZATION_TOL, detail)


def epsilon_report(catalog) -> Check:
    """Reported, not asserted: no value or bound; fails only without a catalog."""
    start = time.perf_counter()
    if catalog is None:
        return _error("epsilon_diagnostics", start, None, "catalog unavailable")
    detail = {
        f"family_{f.k}": {"bounded": f.bounded, "sum": f.partial_sums[-1] if f.partial_sums else 0.0}
        for f in epsilon_diagnostics(catalog)
    }
    return _check("epsilon_diagnostics", start, None, None, detail, passed=True)


def verify(graph, rho_max: float, n_max: int) -> list[Check]:
    """Every check on problem L, in report order; each one always appears."""
    rng = np.random.default_rng(7)
    problem = Problem.neumann()
    frame = build_frame(graph, problem)
    # lambda >= -4: hyperbolic growth keeps |C|,|S1| ~ cosh(kappa |e|), and the
    # absolute WRONSKIAN_TOL needs those below ~1e3.
    head = [
        wronskian(graph, rng.uniform(-4.0, 400.0, size=200)),
        free_closed_form(graph, problem, frame, rng.uniform(0.0, 50.0, size=200)),
        periodicity(frame, rng.uniform(0.0, 10.0 * frame.tau, size=500)),
    ]
    bijection, catalog = catalog_bijection(graph, problem, rho_max)
    return head + [
        bijection,
        oracle_agreement(graph, problem, catalog),
        round_trip(graph, problem, catalog, n_max),
        normalization_limit(graph, problem, catalog, n_max),
        epsilon_report(catalog),
    ]
