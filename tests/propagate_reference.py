"""Segment-by-segment propagation, the path that `propagate.Steps` replaces.

The tests' reference for the compiled evaluation: phi_pair per length on its
own branches, one StateMatrix per segment, their ordered product per edge and
`charfn.assemble` on the result. Bytes equal to the compiled evaluation
wherever they are finite.
"""

from dataclasses import dataclass

import numpy as np

from lasso_spectra.charfn import assemble
from lasso_spectra.propagate import SERIES_SWITCH, FundamentalSolution


def _trig(lam, h: float):
    rho = np.sqrt(lam)
    return np.cos(rho * h), np.sin(rho * h) / rho


def _hyp(lam, h: float):
    kappa = np.sqrt(-lam)
    with np.errstate(over="ignore"):  # beyond kappa*h ~ 709 the honest value is inf
        return np.cosh(kappa * h), np.sinh(kappa * h) / kappa


def phi_pair(lam, h: float):
    """(cos(rho h), sin(rho h)/rho), by branch on the sign of lambda * h^2."""
    lam_arr = np.asarray(lam, dtype=float)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    z = lam_arr * (h * h)
    if z.min(initial=np.inf) > SERIES_SWITCH:
        phi0, phi1 = _trig(lam_arr, h)
    elif z.max() < -SERIES_SWITCH:
        phi0, phi1 = _hyp(lam_arr, h)
    else:
        phi0 = np.full_like(lam_arr, np.nan)
        phi1 = np.full_like(lam_arr, np.nan)
        small = np.abs(z) <= SERIES_SWITCH
        pos = ~small & (lam_arr > 0)
        neg = ~small & (lam_arr < 0)
        phi0[pos], phi1[pos] = _trig(lam_arr[pos], h)
        phi0[neg], phi1[neg] = _hyp(lam_arr[neg], h)
        zs = z[small]
        phi0[small] = 1.0 + zs * (-1.0 / 2 + zs * (1.0 / 24 + zs * (-1.0 / 720 + zs / 40320)))
        phi1[small] = h * (
            1.0 + zs * (-1.0 / 6 + zs * (1.0 / 120 + zs * (-1.0 / 5040 + zs / 362880)))
        )
    if scalar:
        return float(phi0[0]), float(phi1[0])
    return phi0, phi1


@dataclass(frozen=True)
class StateMatrix:
    """2x2 propagator acting on the state (y, y' - sigma y); det = 1."""

    a: object  # row 1: [a, b]
    b: object
    c: object  # row 2: [c, d]
    d: object

    def __matmul__(self, other: "StateMatrix") -> "StateMatrix":
        return StateMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


def _lam_value(lam):
    """A float for scalar lambda, a float ndarray otherwise."""
    lam_arr = np.asarray(lam, dtype=float)
    return float(lam_arr) if lam_arr.ndim == 0 else lam_arr


def phi_table(lengths, lam) -> dict:
    """phi_pair(lam, h) once for each distinct segment length h."""
    lam = _lam_value(lam)
    return {h: phi_pair(lam, h) for h in set(lengths)}


def _step(sigma: float, lam, phi0, phi1) -> StateMatrix:
    return StateMatrix(
        phi0 + phi1 * sigma,
        phi1,
        -phi1 * (sigma * sigma + lam),
        phi0 - phi1 * sigma,
    )


def step_matrix(sigma: float, h: float, lam) -> StateMatrix:
    """Propagator over one constant-sigma segment: phi0 I + phi1 A."""
    lam = _lam_value(lam)
    return _step(sigma, lam, *phi_pair(lam, h))


def fundamental_solutions(segments, lam, phis=None) -> FundamentalSolution:
    """Ordered product of the segments' step matrices: (C, C1, S, S1)."""
    lam = _lam_value(lam)
    if phis is None:
        phis = phi_table([h for _, h in segments], lam)
    m, *rest = (_step(sigma, lam, *phis[h]) for sigma, h in segments)
    for step in rest:
        m = step @ m
    return FundamentalSolution(C=m.a, C1=m.c, S=m.b, S1=m.d)


def charfn(graph, j: int, lam):
    """assemble(., j) on every edge's whole step product, with one phi_table
    shared by the edges."""
    phis = phi_table([h for segs in graph.segments for _, h in segs], lam)
    return assemble([fundamental_solutions(segs, lam, phis) for segs in graph.segments], j)
