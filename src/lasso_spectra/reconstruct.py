"""Recovery of characteristic functions from spectra alone.

The infinite product over the catalog is evaluated in the ratio form

    recovered(lambda) = d0(lambda) * prod (lambda_nk - lambda) / (lambda0_nk - lambda),

which multiplies the free characteristic function by one factor per catalog
entry. Each truncated tail factor is 1 + O(eps/n), so finite truncations are
stable, and the lambda -> -infinity normalization is inherited from d0. The
raw product with 1/lambda0_nk normalization is algebraically the same in the
full limit but its partial products diverge; it is not used.

Entries whose perturbed eigenvalue equals its grid point contribute exactly 1,
so the zero of order mu0 at lambda = 0 (and every unmoved doubled lattice
eigenvalue) is carried by d0 itself. Grid points within tolerance of a grid
eigenvalue lambda0_nk are flagged and skipped: the factor is singular there.

The factors beyond |n| = n_max are not dropped but estimated from the spectra
alone. Along each family k the shift lambda_nk - lambda0_nk tends to a
constant c_k, so the missing factors multiply to about exp(c_k * S_k(lambda))
with S_k(lambda) = sum over |n| > n_max of 1 / (lambda0_nk - lambda). c_k is
the mean shift over n_max/2 < |n| <= n_max, and S_k is the midpoint-rule
integral of the sum (arctan for lambda < 0, log for lambda > 0). Without it
the truncation error decays only like 1/n_max (c_k / (tau * n_max) per
family); with it, like the next term of the shifts, about 1/n_max^3 on the
fixtures.

The result also carries ratio, the factor product times the tail estimate:
recovered over free, so values = d0 * ratio. It stays inside float range at
deeply negative lambda, where d0 and the recovered function each grow like
exp(sqrt(|lambda|) * total length) and overflow on their own.

The factor product is evaluated as (moved entries x grid block) arrays of
about BLOCK_DOUBLES, reduced row by row in entry order, and the flagged points
come from one search over the sorted lambda0_nk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLeadingTerm, InsufficientCatalog
from .spectrum import SpectrumCatalog
from .trigpoly import AsymptoticFrame

# Spec'd snaps: eigenvalues within SNAP_ZERO of 0 count as the zero eigenvalue;
# grid points within GRID_EIG_TOL of a lambda0_nk are flagged singular.
SNAP_ZERO = 1e-12
GRID_EIG_TOL = 1e-10
# The factor product works on (moved entries x grid block) arrays of about
# this many doubles (256 KiB), which stay in cache and are reused from the heap.
BLOCK_DOUBLES = 32_768


def leading_constant(frame: AsymptoticFrame) -> float:
    """(-1)^mu0 times the mu0-th lambda-derivative of d0 at 0 (nonzero by mu0)."""
    val = frame.lambda_deriv_at_zero(frame.mu0)
    scale = max(frame.poly.scale(), 1e-300)
    if abs(val) < 1e-12 * scale:
        raise DegenerateLeadingTerm(
            f"mu0-th derivative {val} vanishes at lambda = 0; mu0 = {frame.mu0} is wrong upstream"
        )
    return (-1.0) ** frame.mu0 * val


@dataclass(frozen=True)
class ReconstructionResult:
    grid: np.ndarray
    values: np.ndarray  # NaN at flagged points
    ratio: np.ndarray  # values / d0, finite where d0 overflows; NaN at flagged points
    flagged: np.ndarray  # True where the grid point sits on the unperturbed grid
    n_max: int
    leading_const: float


def _truncation_entries(catalog: SpectrumCatalog, frame: AsymptoticFrame, n_max: int):
    """Arrays k, n, lam, lam0 = rho0^2 of the entries with |n| <= n_max."""
    if not catalog.covers_truncation(n_max):
        raise InsufficientCatalog(
            f"catalog (rho_max = {catalog.rho_max}) does not cover |n| <= {n_max}"
        )
    k, n, lam, rho0 = catalog.columns
    picked = np.flatnonzero(frame.in_truncation(k, n, n_max)[0])
    # Near-cancelling factor pairs first: ascending |n|, families interleaved.
    picked = picked[np.lexsort((n[picked], k[picked], np.abs(n[picked])))]
    return k[picked], n[picked], lam[picked], rho0[picked] * rho0[picked]


def _tail_integral(u0: float, lam):
    """The integral of 1 / (u^2 - lam) over u > u0, in closed form.

    arctan for lam < 0 and artanh for 0 < lam < u0^2, both written as
    (1/u0) * g(x) with x = sqrt(|lam|) / u0 and g(0) = 1; beyond u0^2 the
    principal value keeps the result finite.
    """
    x = np.sqrt(np.abs(lam)) / u0
    safe = np.where(x == 0.0, 1.0, x)
    with np.errstate(divide="ignore"):
        g = np.where(lam < 0.0, np.arctan(safe), 0.5 * np.log(np.abs((1.0 + safe) / (1.0 - safe))))
    return np.where(x == 0.0, 1.0, g / safe) / u0


def _log_tail(entries, frame: AsymptoticFrame, n_max: int, lam):
    """Estimated log of the factors beyond |n| = n_max, sum_k c_k S_k(lam)
    (see the module docstring). Each side of a two-sided family has its own
    tail, which starts midway between its last kept and first dropped rho0.
    A family whose mean shift is 0 has a tail factor of exactly 1: its tail
    integral is infinite at lambda = u0^2."""
    k, n, lam_e, lam0 = entries
    upper = 2 * np.abs(n) > n_max
    shift = lam_e - lam0
    out = np.zeros_like(lam)
    for fam in frame.families:
        shifts = shift[upper & (k == fam.index)]
        if not shifts.size:
            continue
        c = float(np.mean(shifts)) / frame.tau  # per unit of rho0 along the family
        if c == 0.0:
            continue
        sides = (1, -1) if fam.first is None else (1,)
        for side in sides:
            u0 = 0.5 * (fam.rho0(side * n_max, frame.tau) + fam.rho0(side * (n_max + 1), frame.tau))
            out += c * _tail_integral(u0, lam)
    return out


def _factor_product(entries, lam):
    """The ratio factors of all entries moved off their grid point, one row
    per entry over a block of the grid, multiplied row by row in entry order."""
    _, _, lam_e, lam0 = entries
    moved = ~(np.abs(lam_e - lam0) <= SNAP_ZERO)  # an unmoved factor is exactly 1
    lam_e, lam0 = lam_e[moved, None], lam0[moved, None]
    out = np.empty_like(lam)
    width = max(1, BLOCK_DOUBLES // max(1, lam_e.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, lam.size, width):
            block = lam[start : start + width]
            factors = lam_e - block
            factors /= lam0 - block
            out[start : start + width] = np.multiply.reduce(factors, axis=0)
    return out


def _flagged(entries, grid):
    """Grid points within GRID_EIG_TOL of some lambda0: the nearest lambda0 on
    either side of each point decides."""
    lam0 = np.concatenate([[-np.inf], np.sort(entries[3]), [np.inf]])
    right = np.minimum(np.searchsorted(lam0, grid), lam0.size - 1)
    with np.errstate(invalid="ignore"):
        near_left = np.abs(grid - lam0[right - 1]) < GRID_EIG_TOL
        return near_left | (np.abs(grid - lam0[right]) < GRID_EIG_TOL)


def hadamard_reconstruct(catalog: SpectrumCatalog, grid, n_max: int) -> ReconstructionResult:
    """Evaluate the ratio-form product over all catalog entries with |n| <= n_max."""
    frame = catalog.frame
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    entries = _truncation_entries(catalog, frame, n_max)

    flagged = _flagged(entries, grid)
    with np.errstate(over="ignore"):  # d0 overflows at deeply negative lambda
        d0 = frame.eval_lambda(grid)
    ratio = _factor_product(entries, grid) * np.exp(_log_tail(entries, frame, n_max, grid))
    ratio[flagged] = np.nan
    values = d0 * ratio
    return ReconstructionResult(
        grid=grid,
        values=values,
        ratio=ratio,
        flagged=flagged,
        n_max=n_max,
        leading_const=leading_constant(frame),
    )


@dataclass(frozen=True)
class ErrorReport:
    grid: np.ndarray
    recovered: np.ndarray
    direct: np.ndarray
    rel_error: np.ndarray  # NaN at flagged/skipped points
    max_rel: float


def compare(result: ReconstructionResult, direct) -> ErrorReport:
    """Per-point relative error of the reconstruction against a direct evaluation."""
    direct_vals = np.asarray(
        direct(result.grid) if callable(direct) else direct, dtype=float
    )
    rel = np.full(result.grid.shape, np.nan)
    ok = ~result.flagged & np.isfinite(result.values) & (np.abs(direct_vals) > 0)
    rel[ok] = np.abs(result.values[ok] - direct_vals[ok]) / np.abs(direct_vals[ok])
    finite = rel[np.isfinite(rel)]
    max_rel = float(np.max(finite)) if finite.size else float("nan")
    return ErrorReport(result.grid, result.values, direct_vals, rel, max_rel)
