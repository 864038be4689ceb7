"""Exact propagation of fundamental solutions over piecewise-constant sigma.

The equation -(y')' + sigma' y = lambda y with quasi-derivative u = y' - sigma y
is the first-order system (y, u)' = A (y, u), A = [[sigma, 1], [-sigma^2-lambda,
-sigma]]. Since A^2 = -lambda I, the propagator over a constant-sigma segment of
length h is exactly phi0(lambda, h) I + phi1(lambda, h) A, where phi0, phi1 are
the entire-in-lambda cosine/sinc pair. Multiplying segment propagators gives the
endpoint values of the fundamental solutions C (state (1,0) at x=0) and S
(state (0,1)) with no discretization error beyond rounding. Where only one of
them is needed, its column alone is propagated, with the same products.

Edges enter as float (sigma, h) segments, compiled once per graph
(ValidatedGraph.segments). One evaluation computes phi_pair once per distinct
segment length (phi_table) and shares it across all edges.

All functions accept a scalar or ndarray lambda and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this |lambda| h^2 the closed forms lose digits to the removable
# singularity of sin(rho h)/rho; a 5-term Taylor series is exact to ~1e-16.
SERIES_SWITCH = 1e-4


def _trig(lam, h: float):
    rho = np.sqrt(lam)
    return np.cos(rho * h), np.sin(rho * h) / rho


def _hyp(lam, h: float):
    kappa = np.sqrt(-lam)
    with np.errstate(over="ignore"):  # beyond kappa*h ~ 709 the honest value is inf
        return np.cosh(kappa * h), np.sinh(kappa * h) / kappa


def phi_pair(lam, h: float):
    """The pair (phi0, phi1) with phi0 = cos(rho h), phi1 = sin(rho h)/rho.

    Here lambda = rho^2; negative lambda continues to cosh/sinh, and the
    lambda -> 0 limit is (1, h). Entire in lambda, hence even in rho.
    """
    lam_arr = np.asarray(lam, dtype=float)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    z = lam_arr * (h * h)
    # One sign past the series on the whole array: no masks or scatters.
    if z.min(initial=np.inf) > SERIES_SWITCH:
        phi0, phi1 = _trig(lam_arr, h)
    elif z.max() < -SERIES_SWITCH:
        phi0, phi1 = _hyp(lam_arr, h)
    else:
        phi0 = np.empty_like(lam_arr)
        phi1 = np.empty_like(lam_arr)
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


@dataclass(frozen=True)
class FundamentalSolution:
    """Endpoint values C, C^{[1]}, S, S^{[1]} at x = |e| for a given lambda
    (None for a column not propagated)."""

    C: object = None
    C1: object = None
    S: object = None
    S1: object = None

    def wronskian(self):
        return self.C * self.S1 - self.C1 * self.S


def fundamental_solutions(segments, lam, phis=None, column=None) -> FundamentalSolution:
    """Ordered product of the propagators of an edge's compiled (sigma, h)
    segments (EdgeSpec.segments); its columns are (C, C1) and (S, S1).

    phis is a phi_table at this lambda covering every h, shared by the edges
    of one evaluation; without it the table is built here. column "C" or "S"
    propagates that column alone and leaves the other pair None; a column
    takes the same products as in the whole matrix.
    """
    lam = _lam_value(lam)
    if phis is None:
        phis = phi_table([h for _, h in segments], lam)
    first, *rest = (_step(sigma, lam, *phis[h]) for sigma, h in segments)
    ends = {}
    for name in ("C", "S") if column is None else (column,):
        y, u = (first.a, first.c) if name == "C" else (first.b, first.d)
        for step in rest:
            y, u = step.a * y + step.b * u, step.c * y + step.d * u
        ends[name], ends[name + "1"] = y, u
    return FundamentalSolution(**ends)
