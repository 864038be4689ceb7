"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s` to see the lines stream. Criteria 2,
3, 5, 7 and 8 take their bounds from `lasso_spectra.checks`, and 3, 5, 7 and 8
run its checks on their own fixtures; the other tolerances are pinned here.
"""

import math
import time
from bisect import bisect_right

import numpy as np
import pytest
from scipy.optimize import brentq

from lasso_spectra import checks
from lasso_spectra.charfn import charfn_for, weyl
from lasso_spectra.errors import NearPole
from lasso_spectra.graph import EdgeSpec, Problem, delta_potential, zero_potential
from lasso_spectra.oracle import discretize
from lasso_spectra.propagate import fundamental_solutions
from lasso_spectra.spectrum import compute_catalog, epsilon_diagnostics
from lasso_spectra.trigpoly import build_frame


class Criterion:
    def __init__(self, name: str, budget_s: float):
        self.name = name
        self.budget = budget_s
        self.start = time.monotonic()

    def finish(self, passed: bool, detail: str = ""):
        elapsed = time.monotonic() - self.start
        status = "PASS" if passed and elapsed < self.budget else "FAIL"
        line = f"[{status}] {self.name}  ({elapsed:.2f}s / budget {self.budget:.0f}s)"
        if detail:
            line += f"  {detail}"
        print(line, flush=True)  # visible with pytest -s or -rA
        assert passed, f"{self.name}: {detail}"
        assert elapsed < self.budget, f"{self.name}: runtime {elapsed:.2f}s over budget"


def test_criterion_1_fundamental_solution_exactness():
    crit = Criterion("1 fundamental-solution exactness", 1.0)
    worst = 0.0
    for unit in (1.0, math.pi):
        edge = EdgeSpec(1, 1, "pendant", zero_potential(1))
        rho = np.linspace(1e-3, 100.0 / unit, 2001)  # rho |e| <= 100
        f = fundamental_solutions(edge.segments(unit), rho**2)
        refs = (
            np.cos(rho * unit),
            np.sin(rho * unit) / rho,
            -rho * np.sin(rho * unit),
            np.cos(rho * unit),
        )
        for got, ref in zip((f.C, f.S, f.C1, f.S1), refs):
            scale = np.max(np.abs(ref))
            worst = max(worst, float(np.max(np.abs(got - ref)) / scale))
    crit.finish(worst <= 1e-12, f"max rel deviation {worst:.2e}")


def test_criterion_2_wronskian():
    # lambda sampled on [-4, 400]: below -4 the cosh^2 entry growth exceeds
    # the absolute 1e-10 budget for pi-length edges at double precision.
    crit = Criterion("2 Wronskian invariant", 1.0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        c = float(rng.uniform(-5.0, 5.0))
        pos = f"{rng.integers(1, 10)}/10"
        edge = EdgeSpec(1, 1, "pendant", delta_potential(1, pos, c))
        lam = float(rng.uniform(-4.0, 400.0))
        f = fundamental_solutions(edge.segments(float(rng.choice([1.0, 0.5, math.pi]))), lam)
        worst = max(worst, abs(f.wronskian() - 1.0))
    crit.finish(worst <= checks.WRONSKIAN_TOL, f"max |W-1| = {worst:.2e}")


def test_criterion_3_oracle_equivalence(pi_lasso, delta_lasso):
    crit = Criterion("3 oracle equivalence", 30.0)
    results = [
        checks.oracle_agreement(
            graph, Problem.neumann(), compute_catalog(graph, Problem.neumann(), 2.6), 160.0
        )
        for graph in (pi_lasso, delta_lasso)
    ]
    worst = max(math.inf if c.value is None else c.value for c in results)
    dim = max(len(discretize(g, Problem.neumann(), 320.0).diag) + 1 for g in (pi_lasso, delta_lasso))
    crit.finish(
        all(c.passed for c in results),
        f"max rel error {worst:.2e} (Richardson over 160 and 320 points per unit: "
        f"chain eigenvalues and vertex Schur complement, fine dim {dim})",
    )


def test_criterion_4_asymptotic_frame(pi_lasso):
    crit = Criterion("4 asymptotic frame", 1.0)
    frame = build_frame(pi_lasso, Problem.neumann())
    report = frame.alphas_report()
    ok = abs(frame.tau - 2.0) < 1e-12 and frame.mu0 == 1 and len(report) == 3
    detail = f"tau = {frame.tau}, mu0 = {frame.mu0}"
    for (alpha, mu), want in zip(report, (0.0, 0.5, 2.0 / 3.0)):
        ok = ok and abs(alpha - want) <= 1e-9 and mu == 1
    crit.finish(ok, detail)


def test_criterion_5_rouche_count(delta_lasso):
    crit = Criterion("5 numbering / Rouche count", 10.0)
    frame = build_frame(delta_lasso, Problem.neumann())
    check, _ = checks.catalog_bijection(delta_lasso, Problem.neumann(), 10.0 * frame.tau)
    crit.finish(
        check.passed,
        f"{check.detail['entries']} roots vs {check.detail['grid_points']} grid points, "
        f"max |eps| = {check.value:.3g} x delta/2 = {frame.delta() / 2:.4f}",
    )


def test_criterion_6_epsilon_decay(delta_catalog_deep):
    crit = Criterion("6 epsilon-decay diagnostic", 10.0)
    ok = True
    details = []
    for fam in epsilon_diagnostics(delta_catalog_deep):
        # partial_sums runs in order of |n|; pick the sums over |n| <= 25 and <= 50.
        ns = [abs(e.n) for e in delta_catalog_deep.family(fam.k)]
        s25, s50 = (fam.partial_sums[bisect_right(ns, cap) - 1] for cap in (25, 50))
        grew = s50 - s25
        ok = ok and grew < 0.1 * max(s25, 1e-30)
        details.append(f"k={fam.k}: {s25:.3e}->{s50:.3e}")
    crit.finish(ok, "; ".join(details))


def test_criterion_7_reconstruction_round_trip(
    delta_lasso, delta_catalog_deep, delta_catalog_deep_pinned
):
    crit = Criterion("7 reconstruction round trip", 60.0)
    ok = True
    details = []
    for catalog, problem in (
        (delta_catalog_deep, Problem.neumann()),
        (delta_catalog_deep_pinned, Problem.dirichlet(1)),
    ):
        runs = [checks.round_trip(delta_lasso, problem, catalog, n) for n in (25, 50, 100, 200)]
        errs = [c.value for c in runs]
        ok = ok and runs[2].passed and all(b <= a for a, b in zip(errs, errs[1:]))
        details.append(f"{catalog.problem_label}: err(100) = {runs[2].value:.2e}")
    crit.finish(ok, "; ".join(details))


def test_criterion_8_normalization_limit(delta_lasso, delta_catalog_deep):
    crit = Criterion("8 normalization limit", 1.0)
    check = checks.normalization_limit(delta_lasso, Problem.neumann(), delta_catalog_deep, 100)
    d = check.detail
    crit.finish(
        check.passed,
        f"recovered/free = {d['recovered_over_free']:.5f}, "
        f"direct/free = {d['direct_over_free']:.5f}",
    )


def test_criterion_9_weyl_consistency(delta_lasso):
    crit = Criterion("9 Weyl consistency", 5.0)
    frame = build_frame(delta_lasso, Problem.neumann())
    cat = compute_catalog(delta_lasso, Problem.neumann(), 5.0 * frame.tau)
    gap = frame.window()

    def d(rho):
        return charfn_for(delta_lasso, Problem.neumann(), np.asarray(rho) ** 2)

    worst = 0.0
    checked = 0
    for e in cat.entries:
        if e.lam <= 0.0 or e.rho > 5.0 * frame.tau:
            continue
        # The near-pole detector must fire exactly on the spectrum.
        with pytest.raises(NearPole):
            weyl(delta_lasso, 1, e.lam)
        # Independent relocation of the pole.
        if e.multiplicity == 1:
            relocated = brentq(d, e.rho - gap / 2, e.rho + gap / 2, xtol=1e-13)
        else:
            h = 1e-6

            def dprime(rho):
                return d(rho + h) - d(rho - h)

            relocated = brentq(dprime, e.rho - gap / 2, e.rho + gap / 2, xtol=1e-13)
        worst = max(worst, abs(relocated - e.rho))
        checked += 1
    # And the detector stays quiet off the spectrum.
    quiet = all(
        isinstance(weyl(delta_lasso, 1, lam), float)
        for lam in (0.11, 1.3, 5.05, -0.5)
    )
    crit.finish(
        worst <= 1e-8 and quiet and checked >= 15,
        f"{checked} poles, max |drift| = {worst:.2e}",
    )
