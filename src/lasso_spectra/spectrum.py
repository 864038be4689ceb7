"""Eigenvalue extraction and the (n, k) catalog against the unperturbed grid.

Eigenvalues are zeros of d(rho) = charfn(rho^2, problem), found by dense scan
with sign-change bracketing plus tangential-zero detection. A zero of d at
rho = 0 (even order 2m in rho) is the lambda = 0 eigenvalue of multiplicity m.
Perturbations can push the lambda ~ 0 group below zero where no real rho
exists, so a second scan locates negative eigenvalues in kappa = sqrt(-lambda),
with the same tangential detection and hence the same multiplicity count.

Cataloging assigns every root (counted with multiplicity) to the nearest
unperturbed grid point within half the minimal grid gap; the assignment must
be a bijection onto the grid restricted to rho <= rho_max, otherwise the scan
or the assignment is reported as failed rather than silently patched.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from ._rootscan import scan_roots
from .charfn import charfn_for
from .errors import AssignmentAmbiguity, ScanResolutionTooCoarse, UnresolvedMultiplicity
from .graph import Problem, validate
from .trigpoly import AsymptoticFrame, build_frame

# |d(0)| below this fraction of the scan scale marks rho = 0 as a root.
ZERO_VALUE_TOL = 1e-9
SCAN_POINTS_PER_PERIOD = 200
# |rho - rho0| below the refiners' localization accuracy counts as exact.
EPS_SNAP = 1e-9
# Negative sweep roots with |lambda| below this belong to the lambda = 0
# group, which the rho scan classifies.
NEG_LAMBDA_MIN = 1e-12


def _scan_step(frame: AsymptoticFrame) -> float:
    fmax = frame.poly.max_freq()
    return min(frame.tau / SCAN_POINTS_PER_PERIOD, math.pi / (8.0 * fmax))


def _zero_root_multiplicity(d, step: float) -> int:
    """Even rho-order of d at 0 by log-ratio of d on a shrinking stencil."""
    h1, h2 = step / 2.0, step / 4.0
    v1, v2 = d(h1), d(h2)
    if v2 == 0.0 or v1 / v2 <= 0.0:
        raise UnresolvedMultiplicity("cannot estimate the order of the zero at rho = 0")
    est = math.log2(abs(v1 / v2))
    mult = round(est)
    if abs(est - mult) > 0.35 or mult < 2 or mult % 2:
        raise UnresolvedMultiplicity(
            f"order estimate {est:.3f} at rho = 0 is not a clean even integer"
        )
    return mult


def find_eigenvalues(graph, problem: Problem, rho_max: float, frame: AsymptoticFrame | None = None):
    """All zeros of d(rho) on [0, rho_max] as (rho, multiplicity) pairs.

    Multiplicity is the rho-order: sign-change roots are simple, tangential
    roots double, and a root at rho = 0 carries its even order (twice the
    lambda-multiplicity of the zero eigenvalue).
    """
    graph = validate(graph)
    problem.check(graph)
    if rho_max <= 0:
        return []
    if frame is None:
        frame = build_frame(graph, problem)

    def d(rho):
        return charfn_for(graph, problem, np.asarray(rho, dtype=float) ** 2)

    step = _scan_step(frame)
    n_points = int(math.ceil(rho_max / step))
    roots, scale = scan_roots(d, 0.0, rho_max, n_points)

    out = []
    margin = 1e-8 * max(1.0, rho_max)
    if abs(d(0.0)) <= ZERO_VALUE_TOL * scale:
        out.append((0.0, _zero_root_multiplicity(d, step)))
    for rho, mult in roots:
        if rho <= margin:
            continue  # the rho = 0 zero is classified above, in lambda terms
        out.append((float(rho), mult))
    return out


def negative_eigenvalues(
    graph, problem: Problem, lam_floor: float | None = None, frame: AsymptoticFrame | None = None
):
    """Zeros of the characteristic function on [lam_floor, 0), ascending and
    repeated by multiplicity.

    The sweep runs the same scan as find_eigenvalues, in kappa = sqrt(-lambda)
    with the same step, so a tangential (double) negative eigenvalue is found
    and listed twice. The characteristic function grows like
    exp(kappa * total length); damping by that factor keeps the scan's
    scale-relative thresholds meaningful across the whole range.
    """
    graph = validate(graph)
    problem.check(graph)
    if lam_floor is None:
        s = graph.max_abs_sigma
        lam_floor = -4.0 * (1.0 + 2.0 * s) ** 2
    if frame is None:
        frame = build_frame(graph, problem)
    total_length = sum(graph.edge_length(j) for j in range(graph.p + 1))

    def d(kappa):
        return charfn_for(graph, problem, -(kappa**2)) * np.exp(-kappa * total_length)

    kappa_max = math.sqrt(-lam_floor)
    n_points = int(math.ceil(kappa_max / _scan_step(frame)))
    roots, _ = scan_roots(d, 0.0, kappa_max, n_points)
    lams = []
    for kappa, mult in roots:
        if kappa * kappa > NEG_LAMBDA_MIN:
            lams.extend([-kappa * kappa] * mult)
    return sorted(lams)


@dataclass(frozen=True)
class CatalogEntry:
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
    negatives=(),
    problem_label: str = "L",
) -> SpectrumCatalog:
    """Bijectively assign roots (with multiplicity) to grid slots rho0 <= rho_max.

    eigs must cover [0, rho_max + window]; negatives are lambda < 0 roots,
    entering at rho = sqrt(max(lambda, 0)) = 0 toward the n = 0 zero-family
    slots. Raises ScanResolutionTooCoarse on missing roots and
    AssignmentAmbiguity when a root falls outside every window.
    """
    k, n, rho0 = frame.slot_arrays(rho_max)
    window = frame.window()

    odd = [mult for rho, mult in eigs if rho == 0.0 and mult % 2]
    if odd:
        raise UnresolvedMultiplicity(f"odd rho-order {odd[0]} at rho = 0")
    # One row per root: the rho it is matched by, its lambda, its root
    # multiplicity and the slots it fills. A double negative eigenvalue is
    # listed twice: the run length is the multiplicity. A zero of d of order
    # 2m at rho = 0 is the lambda = 0 eigenvalue of multiplicity m.
    rows = [(0.0, lam, m, m) for lam, m in Counter(negatives).items()]
    rows += [(float(rho), float(rho) ** 2, m, m // 2 if rho == 0.0 else m) for rho, m in eigs]
    rows = np.array(rows, dtype=float).reshape(-1, 4)
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    rho, lam, mult = np.repeat(rows[:, :3], rows[:, 3].astype(int), axis=0).T

    if k.size:
        keep = rho <= rho0[-1] + window
        rho, lam, mult = rho[keep], lam[keep], mult[keep]
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
    snap = pos & (dev <= EPS_SNAP)
    np.copyto(rho, rho0, where=snap)
    np.copyto(lam, rho0 * rho0, where=snap)
    columns = (n, k, lam, rho, rho0, rho - rho0, mult.astype(int))
    entries = tuple(map(CatalogEntry, *(v.tolist() for v in columns)))
    violations = tuple(compress(entries, outside.tolist()))
    return SpectrumCatalog(entries, frame, rho_max, problem_label, violations, (k, n, lam, rho0))


def compute_catalog(graph, problem: Problem, rho_max: float) -> SpectrumCatalog:
    """Full pipeline: frame, scan with margin, negative sweep, assignment."""
    graph = validate(graph)
    frame = build_frame(graph, problem)
    eigs = find_eigenvalues(graph, problem, rho_max + frame.window(), frame)
    negs = negative_eigenvalues(graph, problem, frame=frame)
    return catalog_spectrum(graph, eigs, frame, rho_max, negs, problem.label())


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
