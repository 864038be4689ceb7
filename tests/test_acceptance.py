"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s` to see the lines stream; every
tolerance is pinned here, none deferred.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from lasso_spectra.charfn import charfn, charfn_dirichlet, weyl
from lasso_spectra.errors import NearPole
from lasso_spectra.graph import EdgeSpec, Problem, delta_potential, zero_potential
from lasso_spectra.oracle import richardson_eigs
from lasso_spectra.propagate import fundamental_solutions
from lasso_spectra.reconstruct import compare, convergence_table, hadamard_reconstruct
from lasso_spectra.spectrum import compute_catalog, find_eigenvalues, partial_sum
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
        f = fundamental_solutions(edge, rho**2, unit=unit)
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
        f = fundamental_solutions(edge, lam, unit=float(rng.choice([1.0, 0.5, math.pi])))
        worst = max(worst, abs(f.wronskian() - 1.0))
    crit.finish(worst <= 1e-10, f"max |W-1| = {worst:.2e}")


def test_criterion_3_oracle_equivalence(pi_lasso, delta_lasso):
    crit = Criterion("3 oracle equivalence", 30.0)
    worst = 0.0
    for graph in (pi_lasso, delta_lasso):
        extrapolated = richardson_eigs(graph, Problem.neumann(), 6, 160.0)
        cat = compute_catalog(graph, Problem.neumann(), 2.6)
        lams = sorted(e.lam for e in cat.entries)[:6]
        rel = np.max(
            np.abs(np.asarray(lams) - extrapolated) / np.maximum(1.0, np.abs(extrapolated))
        )
        worst = max(worst, float(rel))
    crit.finish(worst <= 1e-3, f"max rel error {worst:.2e} (banded solve, dim ~3000)")


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
    rho_max = 10.0 * frame.tau
    cat = compute_catalog(delta_lasso, Problem.neumann(), rho_max)
    slots = frame.slots(rho_max)
    count_ok = len(cat.entries) == len(slots)
    delta = frame.delta()
    window_ok = all(abs(e.eps) < delta / 2.0 for e in cat.entries if e.lam >= 0.0)
    crit.finish(
        count_ok and window_ok,
        f"{len(cat.entries)} roots vs {len(slots)} grid points, delta/2 = {delta / 2:.4f}",
    )


def test_criterion_6_epsilon_decay(delta_catalog_deep):
    crit = Criterion("6 epsilon-decay diagnostic", 10.0)
    ok = True
    details = []
    for fam in delta_catalog_deep.frame.families:
        s25 = partial_sum(delta_catalog_deep, fam.index, 25)
        s50 = partial_sum(delta_catalog_deep, fam.index, 50)
        grew = s50 - s25
        ok = ok and grew < 0.1 * max(s25, 1e-30)
        details.append(f"k={fam.index}: {s25:.3e}->{s50:.3e}")
    crit.finish(ok, "; ".join(details))


def test_criterion_7_reconstruction_round_trip(
    delta_lasso, delta_catalog_deep, delta_catalog_deep_pinned
):
    crit = Criterion("7 reconstruction round trip", 60.0)
    ok = True
    details = []
    for catalog, direct in (
        (delta_catalog_deep, lambda lam: charfn(delta_lasso, lam)),
        (delta_catalog_deep_pinned, lambda lam: charfn_dirichlet(delta_lasso, 1, lam)),
    ):
        grid = np.linspace(-5.0, 9.0, 200)
        lams = np.array(sorted(e.lam for e in catalog.entries))
        grid = grid[np.array([np.min(np.abs(x - lams)) > 1e-2 for x in grid])]
        report = compare(hadamard_reconstruct(catalog, grid, 100), direct)
        errs = [err for _, err in convergence_table(catalog, grid, direct, (25, 50, 100, 200))]
        ok = ok and report.max_rel <= 1e-3 and all(b <= a for a, b in zip(errs, errs[1:]))
        details.append(f"{catalog.problem_label}: err(100) = {report.max_rel:.2e}")
    crit.finish(ok, "; ".join(details))


def test_criterion_8_normalization_limit(delta_lasso, delta_catalog_deep):
    crit = Criterion("8 normalization limit", 1.0)
    lam = -1e3
    d0 = delta_catalog_deep.frame.eval_lambda(lam)
    recovered = hadamard_reconstruct(delta_catalog_deep, np.array([lam]), 100).values[0]
    direct = charfn(delta_lasso, lam)
    ok = abs(recovered / d0 - 1.0) <= 1e-2 and abs(direct / d0 - 1.0) <= 1e-2
    crit.finish(ok, f"recovered/free = {recovered / d0:.5f}, direct/free = {direct / d0:.5f}")


def test_criterion_9_weyl_consistency(delta_lasso):
    crit = Criterion("9 Weyl consistency", 5.0)
    frame = build_frame(delta_lasso, Problem.neumann())
    cat = compute_catalog(delta_lasso, Problem.neumann(), 5.0 * frame.tau)
    gap = frame.window()

    def d(rho):
        return charfn(delta_lasso, np.asarray(rho) ** 2)

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
