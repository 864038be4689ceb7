"""Exact propagation of fundamental solutions over piecewise-constant sigma.

The equation -(y')' + sigma' y = lambda y with quasi-derivative u = y' - sigma y
is the first-order system (y, u)' = A (y, u), A = [[sigma, 1], [-sigma^2-lambda,
-sigma]]. Since A^2 = -lambda I, the propagator over a constant-sigma segment of
length h is exactly phi0(lambda, h) I + phi1(lambda, h) A, where phi0, phi1 are
the entire-in-lambda cosine/sinc pair. Multiplying segment propagators gives the
endpoint values of the fundamental solutions C (state (1,0) at x=0) and S
(state (0,1)) with no discretization error beyond rounding.

Edges are compiled once (compile_steps; ValidatedGraph.plan for a whole graph)
into steps (sigma, index of the segment length among the distinct lengths).
One evaluation (Steps) takes one sqrt of lambda, one (phi0, phi1) pair per
distinct length and -(sigma^2 + lambda) once per distinct sigma, and then
propagates each wanted column of the step product on its own, with the
products of the whole matrix; a sigma = 0 step needs only its lower-left
entry, one multiply. No per-segment object is built.

All functions accept a scalar or ndarray lambda and are pure.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

# Below this |lambda| h^2 the closed forms lose digits to the removable
# singularity of sin(rho h)/rho; a 5-term Taylor series is exact to ~1e-16.
SERIES_SWITCH = 1e-4


def _phi_pairs(lam: np.ndarray, lengths) -> list:
    """phi_pair(lam, h) for each h in lengths, lam a float ndarray of at least
    one dimension. One sqrt serves every length; |lambda| h^2 <= SERIES_SWITCH
    takes the Taylor series."""
    lo = lam.min(initial=np.inf)
    # With every lambda > 0 only the sign of the largest matters below.
    hi = lo if lo > 0 else lam.max(initial=-np.inf)
    # Whether some lambda < 0 or some lambda > 0; a nan reads as both, so
    # that the other points keep their own branch.
    below, above = not lo >= 0, not hi <= 0
    # rho for lambda > 0 and kappa = sqrt(-lambda) for lambda < 0, at once.
    r = np.sqrt(lam if lo > 0 else -lam if hi < 0 else np.abs(lam))
    pos = lam > 0 if below and above else None  # a mask only where both occur
    # r = 0 only at lambda = 0, which the series takes.
    nonzero = None if lo > 0 or hi < 0 else r != 0.0
    pairs = []
    # Beyond kappa*h ~ 709 the honest value of cosh and sinh is inf.
    with np.errstate(over="ignore") if below else nullcontext():
        for h in lengths:
            rh = r * h
            if pos is not None:
                phi0 = np.where(pos, np.cos(rh), np.cosh(rh))
                phi1 = np.where(pos, np.sin(rh), np.sinh(rh))
            elif below:
                phi0, phi1 = np.cosh(rh), np.sinh(rh)
            else:
                phi0, phi1 = np.cos(rh), np.sin(rh)
            if nonzero is None:
                phi1 /= r
            else:
                np.divide(phi1, r, out=phi1, where=nonzero)
            # The min and max of lambda * h^2 are lo * h^2 and hi * h^2, so one
            # sign past the series settles the whole array.
            hh = h * h
            if not (lo * hh > SERIES_SWITCH or hi * hh < -SERIES_SWITCH):
                _series(lam * hh, h, phi0, phi1)
            pairs.append((phi0, phi1))
    return pairs


def _series(z, h, phi0, phi1):
    """The Taylor series of (phi0, phi1) in z = lambda h^2, written over the
    points with |z| <= SERIES_SWITCH."""
    small = np.abs(z) <= SERIES_SWITCH
    if small.any():
        zs = z[small]
        phi0[small] = 1.0 + zs * (-1.0 / 2 + zs * (1.0 / 24 + zs * (-1.0 / 720 + zs / 40320)))
        phi1[small] = h * (
            1.0 + zs * (-1.0 / 6 + zs * (1.0 / 120 + zs * (-1.0 / 5040 + zs / 362880)))
        )


def phi_pair(lam, h: float):
    """The pair (phi0, phi1) with phi0 = cos(rho h), phi1 = sin(rho h)/rho.

    Here lambda = rho^2; negative lambda continues to cosh/sinh, and the
    lambda -> 0 limit is (1, h). Entire in lambda, hence even in rho. Floats
    for a scalar lambda.
    """
    lam_arr = np.asarray(lam, dtype=float)
    ((phi0, phi1),) = _phi_pairs(np.atleast_1d(lam_arr), (h,))
    if lam_arr.ndim == 0:
        return float(phi0[0]), float(phi1[0])
    return phi0, phi1


def compile_steps(edges):
    """(lengths, steps) for edges given as (sigma, h) segments: the distinct
    segment lengths, and each edge's segments as (sigma, index into lengths)."""
    index: dict[float, int] = {}
    steps = tuple(
        tuple((sigma, index.setdefault(h, len(index))) for sigma, h in segments)
        for segments in edges
    )
    return tuple(index), steps


class Steps:
    """The step coefficients of one evaluation at lambda: (phi0, phi1) once per
    distinct segment length, -(sigma^2 + lambda) once per distinct sigma.

    A scalar lambda is evaluated in Python floats, an array one elementwise.
    """

    __slots__ = ("lam", "phis", "_shifts")

    def __init__(self, lam, lengths):
        lam_arr = np.asarray(lam, dtype=float)
        if lam_arr.ndim == 0:
            self.lam = float(lam_arr)
            pairs = _phi_pairs(lam_arr.reshape(1), lengths)
            self.phis = [(float(phi0[0]), float(phi1[0])) for phi0, phi1 in pairs]
        else:
            self.lam = lam_arr
            self.phis = _phi_pairs(lam_arr, lengths)
        self._shifts = {}

    def _shift(self, sigma: float):
        """-(sigma^2 + lambda): times phi1, the step's lower-left entry."""
        shift = self._shifts.get(sigma)
        if shift is None:
            shift = self._shifts[sigma] = -(sigma * sigma + self.lam)
        return shift

    def column(self, steps, name: str):
        """End values (y, y^{[1]}) over an edge's steps from the state (1, 0)
        (name "C") or (0, 1) (name "S"): that column of the ordered product of
        the step matrices [[phi0 + phi1 sigma, phi1], [-phi1 (sigma^2 + lambda),
        phi0 - phi1 sigma]], with the same products as the whole matrix."""
        y = u = None
        for sigma, i in steps:
            phi0, phi1 = self.phis[i]
            if sigma:
                ps = phi1 * sigma
                a, d = phi0 + ps, phi0 - ps
            else:  # phi0 +- phi1 * 0.0 is phi0 (never 0) wherever phi1 is finite
                a = d = phi0
            if y is None and name == "S":
                y, u = phi1, d
                continue
            c = phi1 * self._shift(sigma)
            y, u = (a, c) if y is None else (a * y + phi1 * u, c * y + d * u)
        return y, u


class FundamentalSolution(NamedTuple):
    """Endpoint values C, C^{[1]}, S, S^{[1]} at x = |e| for a given lambda
    (None for a column not propagated)."""

    C: object = None
    C1: object = None
    S: object = None
    S1: object = None

    def wronskian(self):
        return self.C * self.S1 - self.C1 * self.S


def fundamental_solutions(segments, lam, column=None) -> FundamentalSolution:
    """Ordered product of the propagators of an edge's compiled (sigma, h)
    segments (EdgeSpec.segments); its columns are (C, C1) and (S, S1).

    column "C" or "S" propagates that column alone and leaves the other pair
    None; a column takes the same products as in the whole matrix.
    """
    lengths, (steps,) = compile_steps((segments,))
    at = Steps(lam, lengths)
    c = at.column(steps, "C") if column in (None, "C") else (None, None)
    s = at.column(steps, "S") if column in (None, "S") else (None, None)
    return FundamentalSolution(*c, *s)
