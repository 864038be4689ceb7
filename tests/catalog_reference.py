"""The per-entry assignment loop that `spectrum.catalog_spectrum` replaces.

The tests' reference for the whole-array assignment: the slots are listed
family by family and sorted as tuples, the roots are expanded by
multiplicity into tuples, and every slot is paired, checked and snapped in
a Python loop. Same inputs, same entries, same errors.
"""

import math

from lasso_spectra.errors import AssignmentAmbiguity, ScanResolutionTooCoarse
from lasso_spectra.graph import validate
from lasso_spectra.spectrum import EPS_SNAP, CatalogEntry


def slots(frame, rho_max):
    out = []
    for fam in frame.families:
        for n in fam.n_values(frame.tau, rho_max):
            out.append((fam.index, n, fam.rho0(n, frame.tau)))
    out.sort(key=lambda t: (t[2], t[0], t[1]))
    return out


def catalog_entries(graph, eigs, frame, rho_max):
    """(entries, window_violations) as tuples of CatalogEntry, from signed
    roots (t, multiplicity) with lambda = t |t|."""
    grid = slots(frame, rho_max)
    window = frame.window()

    items = []  # (t, rho_for_matching, lambda, root mult)
    for t, mult in eigs:
        t = float(t)
        items.extend([(t, max(t, 0.0), math.copysign(t**2, t), mult)] * mult)
    items.sort(key=lambda it: it[0])

    if grid:
        cutoff = grid[-1][2] + window
        items = [it for it in items if it[1] <= cutoff]
    if len(items) < len(grid):
        raise ScanResolutionTooCoarse(
            f"found {len(items)} roots for {len(grid)} grid points on [0, {rho_max}]"
        )
    if len(items) > len(grid):
        extra = [round(it[1], 6) for it in items[len(grid):]]
        raise AssignmentAmbiguity(
            f"{len(items)} roots for {len(grid)} grid points; unmatched roots near {extra}"
        )

    entries = []
    violations = []
    sigma_max = validate(graph).max_abs_sigma
    low_spectrum = max(2.0 * frame.tau, 2.0 * sigma_max / max(window, 1e-12))
    for (k, n, rho0), (t, rho, lam, mult) in zip(grid, items):
        outside = lam >= 0.0 and abs(rho - rho0) > window
        if outside and rho0 > low_spectrum:
            raise AssignmentAmbiguity(
                f"root rho = {rho} is {abs(rho - rho0):.3e} from its nearest grid point "
                f"rho0 = {rho0} (window {window:.3e})"
            )
        if abs(t - rho0) <= EPS_SNAP:
            rho, lam = rho0, rho0 * rho0
        entry = CatalogEntry(
            n=n, k=k, lam=lam, rho=rho, rho0=rho0, eps=rho - rho0, multiplicity=mult
        )
        entries.append(entry)
        if outside:
            violations.append(entry)
    entries.sort(key=lambda e: (e.rho0, e.k, e.n))
    return tuple(entries), tuple(violations)
