"""Eigenvalue extraction and the (n, k) catalog against the unperturbed grid.

Eigenvalues are zeros of the characteristic function d(lambda), found by one
dense scan with sign-change bracketing plus tangential-zero detection, in the
signed root t = sign(lambda) sqrt(|lambda|): lambda = t |t|, and t = rho for
lambda >= 0. Across a zero of d of lambda-multiplicity m, d(t |t|) changes
sign if m is odd and keeps its sign if m is even, lambda = 0 included, so
every root's scan multiplicity is its lambda-multiplicity. Below zero d grows
like exp(|t| * total length), and the scan reads it damped by that factor.

The scan starts at a proved floor. The potential is sigma' in W_2^-1, and
integrating by parts with the quasi-derivative y^[1] = y' - sigma y and the
vertex conditions gives (Ly, y) = int |y^[1]|^2 - sigma^2 |y|^2 for L and for
every Lj (Savchuk & Shkalikov, Math. Notes 66, 1999). Hence lambda >= -max
sigma^2, and the scan runs from t = -sqrt(max sigma^2 + 1), below every
eigenvalue.

Cataloging assigns every root (counted with multiplicity) to the nearest
unperturbed grid point within half the minimal grid gap; the assignment must
be a bijection onto the grid restricted to rho <= rho_max, otherwise the scan
or the assignment is reported as failed rather than silently patched. The
assignment runs on arrays of the roots and the slots, and the entries
(CatalogEntry, a named tuple) are made from its columns at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

import numpy as np

from ._rootscan import scan_roots
from .charfn import charfn_for
from .errors import AssignmentAmbiguity, ScanResolutionTooCoarse
from .graph import Problem, validate
from .trigpoly import AsymptoticFrame, build_frame

SCAN_POINTS_PER_PERIOD = 200
# |t - rho0| below the refiners' localization accuracy counts as exact.
EPS_SNAP = 1e-9


def _scan_step(frame: AsymptoticFrame) -> float:
    fmax = frame.poly.max_freq()
    return min(frame.tau / SCAN_POINTS_PER_PERIOD, math.pi / (8.0 * fmax))


def find_eigenvalues(graph, problem: Problem, rho_max: float, frame: AsymptoticFrame | None = None):
    """All eigenvalues up to rho_max^2 as signed roots (t, multiplicity),
    ascending, with lambda = t |t|.

    The scan grid runs with the same step from the floor t = -sqrt(max
    sigma^2 + 1) up to 0 and from 0 up to rho_max (module docstring). The
    multiplicity is the lambda-multiplicity: sign-change roots are simple,
    tangential roots double, at lambda = 0 as anywhere else.
    """
    graph = validate(graph)
    problem.check(graph)
    if frame is None:
        frame = build_frame(graph, problem)
    total_length = sum(graph.edge_length(j) for j in range(graph.p + 1))

    def d(t):
        # Damped below zero only; where that overflows, it says nothing of a root.
        with np.errstate(over="ignore", invalid="ignore"):
            values = charfn_for(graph, problem, t * np.abs(t)) * np.exp(np.minimum(t, 0.0) * total_length)
        return np.where(np.isfinite(values), values, np.nan)

    step = _scan_step(frame)
    kappa_floor = math.sqrt(graph.max_abs_sigma**2 + 1.0)
    below = np.linspace(0.0, kappa_floor, math.ceil(kappa_floor / step) + 1)
    above = np.linspace(0.0, rho_max, math.ceil(rho_max / step) + 1)
    return scan_roots(d, np.concatenate([-below[:0:-1], above]))


class CatalogEntry(NamedTuple):
    """One eigenvalue on its grid slot (n, k): lambda, its rho and the slot's
    rho0, eps = rho - rho0, and the root multiplicity. A named tuple, so that
    a catalog builds its hundreds of entries at tuple speed: equality and
    hash are those of the tuple of its values, and the repr names the fields."""

    n: int
    k: int
    lam: float
    rho: float
    rho0: float
    eps: float
    multiplicity: int


@dataclass(frozen=True)
class SpectrumCatalog:
    """Roots assigned to the (n, k) grid, with deviations eps = rho - rho0.

    window_violations lists low-spectrum entries whose deviation exceeds the
    assignment window; the bijective count keeps their pairing well-defined.
    columns holds the entries' k, n, lam and rho0 as arrays, in entry order;
    it is derived from the entries when not given.
    """

    entries: tuple[CatalogEntry, ...]
    frame: AsymptoticFrame
    rho_max: float
    problem_label: str = "L"
    window_violations: tuple[CatalogEntry, ...] = ()
    columns: tuple[np.ndarray, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.columns is None:
            columns = tuple(
                np.array([getattr(e, name) for e in self.entries], dtype=dtype)
                for name, dtype in (("k", int), ("n", int), ("lam", float), ("rho0", float))
            )
            object.__setattr__(self, "columns", columns)

    def family(self, k: int) -> list[CatalogEntry]:
        sub = [e for e in self.entries if e.k == k]
        sub.sort(key=lambda e: (abs(e.n), e.n))
        return sub

    def lambdas(self) -> list[float]:
        return sorted(e.lam for e in self.entries)

    def covers_truncation(self, n_max: int) -> bool:
        k, n = self.columns[:2]
        mask, size = self.frame.in_truncation(k, n, n_max)
        seen = np.zeros((len(self.frame.families), 2 * n_max + 1), dtype=bool)
        seen[k[mask], n[mask] + n_max] = True  # a repeated (k, n) counts once
        return int(seen.sum()) == size


def catalog_spectrum(
    graph,
    eigs,
    frame: AsymptoticFrame,
    rho_max: float,
    problem_label: str = "L",
) -> SpectrumCatalog:
    """Bijectively assign roots (with multiplicity) to grid slots rho0 <= rho_max.

    eigs are signed roots (t, multiplicity), lambda = t |t|, and must cover
    the spectrum up to t = rho_max + window. A root is matched by
    rho = max(t, 0): negative eigenvalues enter at rho = 0 toward the lowest
    (n = 0 zero-family) slots. Raises ScanResolutionTooCoarse on missing
    roots and AssignmentAmbiguity when a root falls outside every window.
    """
    k, n, rho0 = frame.slot_arrays(rho_max)
    window = frame.window()

    # Per slot, in order: the root's t, repeated by its multiplicity (a
    # double eigenvalue fills two slots), then its rho and lambda.
    t, mult = np.array(eigs, dtype=float).reshape(-1, 2).T
    order = np.argsort(t, kind="stable")
    t, mult = np.repeat(np.array([t, mult])[:, order], mult[order].astype(int), axis=1)
    # C pow, bit for bit float(t) ** 2 (t * t differs in the last bit now and then).
    rho, lam = np.maximum(t, 0.0), np.copysign(np.float_power(t, 2), t)

    if k.size:
        keep = rho <= rho0[-1] + window
        t, rho, lam, mult = t[keep], rho[keep], lam[keep], mult[keep]
    if rho.size < k.size:
        raise ScanResolutionTooCoarse(
            f"found {rho.size} roots for {k.size} grid points on [0, {rho_max}]"
        )
    if rho.size > k.size:
        extra = [round(r, 6) for r in rho[k.size :].tolist()]
        raise AssignmentAmbiguity(
            f"{rho.size} roots for {k.size} grid points; unmatched roots near {extra}"
        )

    # Deviations shrink like (potential scale) / rho, so the strict window is
    # only meaningful beyond rho ~ sigma_max / window; below that, deviations
    # at the window scale are genuine perturbation effects, not scan failures.
    sigma_max = validate(graph).max_abs_sigma
    low_spectrum = max(2.0 * frame.tau, 2.0 * sigma_max / max(window, 1e-12))
    # Negative roots continue the lowest grid branches below lambda = 0
    # where no rho-window applies; for them and for low-spectrum outliers
    # the count bijection and the sorted pairing are the guard.
    dev, pos = np.abs(rho - rho0), lam >= 0.0
    outside = pos & (dev > window)
    far = outside & (rho0 > low_spectrum)
    if far.any():
        i = far.argmax()  # the first one
        r, r0 = rho[i].item(), rho0[i].item()
        raise AssignmentAmbiguity(
            f"root rho = {r} is {abs(r - r0):.3e} from its nearest grid point "
            f"rho0 = {r0} (window {window:.3e})"
        )
    # Deviations below root-localization precision snap to the grid.
    snap = np.abs(t - rho0) <= EPS_SNAP
    np.copyto(rho, rho0, where=snap)
    np.copyto(lam, rho0 * rho0, where=snap)
    columns = (n, k, lam, rho, rho0, rho - rho0, mult.astype(int))
    entries = tuple(map(CatalogEntry._make, zip(*(v.tolist() for v in columns))))
    violations = tuple(compress(entries, outside.tolist()))
    return SpectrumCatalog(entries, frame, rho_max, problem_label, violations, (k, n, lam, rho0))


def compute_catalog(graph, problem: Problem, rho_max: float) -> SpectrumCatalog:
    """Full pipeline: frame, scan with margin, assignment."""
    graph = validate(graph)
    frame = build_frame(graph, problem)
    eigs = find_eigenvalues(graph, problem, rho_max + frame.window(), frame)
    return catalog_spectrum(graph, eigs, frame, rho_max, problem.label())


@dataclass(frozen=True)
class FamilyDiagnostic:
    k: int
    mu: int
    partial_sums: tuple[float, ...]  # cumulative sum of |eps|^(2 mu), ordered by |n|
    bounded: bool


def epsilon_diagnostics(catalog: SpectrumCatalog) -> tuple[FamilyDiagnostic, ...]:
    """Partial sums of |eps|^(2 mu_k) per family with an empirical plateau flag.

    The flag is true when the sums grow by less than 10% over the second half
    of the computed range; it is reported, never asserted.
    """
    fams = []
    for fam in catalog.frame.families:
        exponent = 2 * max(fam.mu, 1)
        sums = []
        acc = 0.0
        for e in catalog.family(fam.index):
            acc += abs(e.eps) ** exponent
            sums.append(acc)
        if sums:
            half = sums[len(sums) // 2]
            bounded = (sums[-1] - half) < 0.1 * max(half, 1e-30)
        else:
            bounded = True
        fams.append(FamilyDiagnostic(fam.index, fam.mu, tuple(sums), bounded))
    return tuple(fams)


def catalog_to_csv(catalog: SpectrumCatalog) -> str:
    lines = ["n,k,lambda,rho,rho0,eps,multiplicity"]
    for e in catalog.entries:
        lines.append(
            f"{e.n},{e.k},{e.lam!r},{e.rho!r},{e.rho0!r},{e.eps!r},{e.multiplicity}"
        )
    return "\n".join(lines) + "\n"


def entries_from_csv(text: str) -> tuple[CatalogEntry, ...]:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "n,k,lambda,rho,rho0,eps,multiplicity":
        raise ValueError("not a spectrum catalog CSV (bad header)")
    entries = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 7:
            raise ValueError(f"bad catalog row: {ln!r}")
        n, k = int(parts[0]), int(parts[1])
        lam, rho, rho0, eps = (float(x) for x in parts[2:6])
        entries.append(CatalogEntry(n, k, lam, rho, rho0, eps, int(parts[6])))
    return tuple(entries)
