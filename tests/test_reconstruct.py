import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from free_reference import free_charfn_dirichlet
from propagate_reference import StateMatrix

from lasso_spectra import checks, reconstruct
from lasso_spectra.charfn import assemble, charfn_for
from lasso_spectra.errors import DegenerateLeadingTerm, InsufficientCatalog, NearPole
from lasso_spectra.graph import Problem
from lasso_spectra.propagate import FundamentalSolution
from lasso_spectra.reconstruct import (
    compare,
    hadamard_reconstruct,
    leading_constant,
    result_to_csv,
)
from lasso_spectra.spectrum import SpectrumCatalog, compute_catalog
from lasso_spectra.trigpoly import AsymptoticFrame, TrigPoly, build_frame


def off_eigenvalue_grid(catalog, lo=-5.0, hi=9.0, count=200, margin=1e-2):
    grid = np.linspace(lo, hi, count)
    lams = np.array(sorted(e.lam for e in catalog.entries))
    keep = np.array([np.min(np.abs(x - lams)) > margin for x in grid])
    return grid[keep]


def test_leading_constant_pi_lasso(pi_lasso):
    frame = build_frame(pi_lasso, Problem.neumann())
    assert abs(leading_constant(frame) - 3 * math.pi**2) < 1e-10


def test_leading_constant_mu0_zero(pi_lasso):
    # Pinned problem: mu0 = 0, so the constant is just d0(0).
    frame = build_frame(pi_lasso, Problem.dirichlet(1))
    assert abs(leading_constant(frame) - free_charfn_dirichlet(pi_lasso, 1, 0.0)) < 1e-12


def test_leading_constant_degenerate_guard():
    # cos(rho) + cos(2 rho) scaled so the first lambda-derivatives cancel:
    # mu0 = 1 then contradicts the vanishing derivative and must be reported.
    degenerate = AsymptoticFrame(
        tau=2 * math.pi,
        poly=TrigPoly("cos", (Fraction(1), Fraction(2)), (4.0, -1.0)),
        mu0=1,
        interior=(),
        half_mult=0,
    )
    with pytest.raises(DegenerateLeadingTerm):
        leading_constant(degenerate)


def test_zero_potential_fixed_point(pi_lasso):
    cat = compute_catalog(pi_lasso, Problem.neumann(), 2.0 * 41 + 1.0)
    grid = off_eigenvalue_grid(cat)
    res = hadamard_reconstruct(cat, grid, 40)
    d0 = cat.frame.eval_lambda(grid)
    assert np.max(np.abs(res.values - d0)) <= 1e-12 * np.max(np.abs(d0))


def test_factor_product_blocks_do_not_change_values(delta_catalog_deep, monkeypatch):
    grid = np.linspace(-50.0, 3000.0, 5003)
    whole = hadamard_reconstruct(delta_catalog_deep, grid, 100)
    monkeypatch.setattr(reconstruct, "BLOCK_DOUBLES", 1000)
    blocked = hadamard_reconstruct(delta_catalog_deep, grid, 100)
    assert blocked.ratio.tobytes() == whole.ratio.tobytes()
    assert blocked.values.tobytes() == whole.values.tobytes()


def test_delta_reconstruction_convergence(delta_catalog_deep, delta_lasso):
    errs = [
        checks.round_trip(delta_lasso, Problem.neumann(), delta_catalog_deep, n_max).value
        for n_max in (25, 50, 100, 200)
    ]
    assert all(b <= a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= errs[0] / 4.0


@pytest.mark.parametrize(
    "problem", [Problem.neumann(), Problem.dirichlet(1)], ids=["L", "L1"]
)
def test_strong_attractive_round_trip(attractive_p3, problem):
    # Eigenvalue shifts tend to a nonzero constant per family, so without the
    # tail estimate the truncated product misses 1e-3 (5.7e-3 at n_max 100).
    cat = compute_catalog(attractive_p3, problem, 203.0)
    assert checks.round_trip(attractive_p3, problem, cat, 100).passed


def test_reconstruction_zero_structure(delta_catalog_deep, delta_lasso):
    # Recovered function vanishes at cataloged eigenvalues inside the range...
    inner = [e.lam for e in delta_catalog_deep.entries if -4.0 < e.lam < 8.0]
    res = hadamard_reconstruct(delta_catalog_deep, np.array(inner), 100)
    scale = np.max(np.abs(delta_catalog_deep.frame.eval_lambda(np.linspace(-4, 8, 100))))
    ok = ~res.flagged
    assert np.all(np.abs(res.values[ok]) <= 1e-8 * scale)
    # ... and nowhere else on an off-eigenvalue grid.
    grid = off_eigenvalue_grid(delta_catalog_deep, -4.0, 8.0)
    vals = hadamard_reconstruct(delta_catalog_deep, grid, 100).values
    direct = charfn_for(delta_lasso, Problem.neumann(), grid)
    assert np.min(np.abs(vals)) > 0.0
    assert np.max(np.abs(vals - direct) / np.abs(direct)) <= 1e-3


def test_grid_point_on_eigenvalue_flagged(pi_lasso):
    cat = compute_catalog(pi_lasso, Problem.neumann(), 12.0)
    res = hadamard_reconstruct(cat, np.array([0.25, 0.3]), 5)
    assert bool(res.flagged[0]) and not bool(res.flagged[1])
    assert np.isnan(res.values[0]) and np.isfinite(res.values[1])
    assert np.isnan(res.ratio[0]) and np.isfinite(res.ratio[1])


def test_insufficient_catalog(pi_lasso):
    cat = compute_catalog(pi_lasso, Problem.neumann(), 6.0)
    with pytest.raises(InsufficientCatalog):
        hadamard_reconstruct(cat, np.array([1.0]), 50)


@pytest.mark.parametrize("problem", [Problem.neumann(), Problem.dirichlet(1)])
def test_covers_truncation_is_the_slot_set_inclusion(delta_lasso, problem):
    # Whole catalogs, catalogs with one entry gone, with an entry repeated in
    # its place, or with it moved to a family the frame does not have (as a
    # hand-edited CSV may hold): the masks agree with the (k, n) sets.
    cat = compute_catalog(delta_lasso, problem, 12.0)
    frame = cat.frame
    for i in range(0, len(cat.entries), 3):
        rest = cat.entries[:i] + cat.entries[i + 1 :]
        gone = cat.entries[i]
        for entries in (cat.entries, rest, rest + (rest[0],), rest + (replace(gone, k=99),)):
            edited = SpectrumCatalog(entries, frame, cat.rho_max)
            have = {(e.k, e.n) for e in entries}
            for n_max in range(8):
                want = {
                    (f.index, n)
                    for f in frame.families
                    for n in range(-n_max if f.first is None else f.first, n_max + 1)
                }
                assert edited.covers_truncation(n_max) == (want <= have)


def test_compare_identical_is_zero(pi_lasso):
    cat = compute_catalog(pi_lasso, Problem.neumann(), 12.0)
    grid = off_eigenvalue_grid(cat, -2.0, 2.0, 50)
    res = hadamard_reconstruct(cat, grid, 5)
    report = compare(res, res.values.copy())
    finite = np.isfinite(report.rel_error)
    assert finite.any() and report.max_rel == 0.0
    assert not report.rel_error[finite].any()


def test_result_csv(delta_catalog_deep, delta_lasso):
    grid = off_eigenvalue_grid(delta_catalog_deep, -1.0, 1.0, 20)
    res = hadamard_reconstruct(delta_catalog_deep, grid, 25)
    text = compare(res, lambda lam: charfn_for(delta_lasso, Problem.neumann(), lam)).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "lambda,delta_hat,delta_direct,rel_error"
    assert len(lines) == len(grid) + 1
    bare = result_to_csv(res)
    assert bare.splitlines()[0] == "lambda,delta_hat"


def test_weyl_poles_match_catalog(delta_lasso):
    # Poles of the ratio detected by the near-pole guard sit on the catalog.
    from lasso_spectra.charfn import weyl

    cat = compute_catalog(delta_lasso, Problem.neumann(), 10.0)
    hits = 0
    for e in cat.entries:
        if e.lam <= 0:
            continue
        with pytest.raises(NearPole):
            weyl(delta_lasso, 1, e.lam)
        hits += 1
    assert hits > 20


def _mp_charfn(graph, problem, lam):
    """The characteristic function at 40 digits for lambda < 0: assemble on
    endpoint values propagated segment by segment in mpmath."""
    with mpmath.workdps(40):
        kappa = mpmath.sqrt(-mpmath.mpf(lam))
        unit = mpmath.pi if graph.length_unit == "pi" else 1
        fs = []
        for e in graph.edges:
            m = StateMatrix(1, 0, 0, 1)
            bp = e.potential.breakpoints
            for sigma, lo, hi in zip(e.potential.values, bp, bp[1:]):
                h = unit * mpmath.mpf((hi - lo).numerator) / (hi - lo).denominator
                ch, sh = mpmath.cosh(kappa * h), mpmath.sinh(kappa * h) / kappa
                s = mpmath.mpf(sigma)
                m = StateMatrix(ch + sh * s, sh, -sh * (s * s + lam), ch - sh * s) @ m
            fs.append(FundamentalSolution(C=m.a, C1=m.c, S=m.b, S1=m.d))
        return assemble(fs, problem.j)


def test_ratio_stays_finite_at_deep_negative_lambda(delta_catalog_deep, delta_lasso):
    # d0 overflows at -1e4 on the pi-length graph; the ratio does not. Against
    # charfn/d0 at 40 digits the tail-corrected product is off by ~1.5e-9; the
    # bare truncated product, by ~4e-4.
    lams = np.array([-1e2, -4e2, -2.5e3, -1e4])
    ratio = hadamard_reconstruct(delta_catalog_deep, lams, 100).ratio
    assert np.all(np.isfinite(ratio))
    free = delta_lasso.with_zero_potential()
    for lam, got in zip(lams, ratio):
        with mpmath.workdps(40):
            want = _mp_charfn(delta_lasso, Problem.neumann(), lam) / _mp_charfn(
                free, Problem.neumann(), lam
            )
            assert abs(got / want - 1) <= 1e-6
