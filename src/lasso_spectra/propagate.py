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
The free step matrix [[phi0, phi1], [-lambda phi1, phi0]] is a one-parameter
group in h, P(a + b) = P(a) P(b), and the lengths of a commensurable lasso are
often sums of one another: compile_sums finds, on the exact lengths, each
one that is the sum of two shorter ones. One evaluation (Steps) takes one
sqrt of lambda, one trig pair per generator length (the others follow by the
group law, with no cos/cosh branch, no division by rho and no series) and
-(sigma^2 + lambda) once per distinct sigma, and then propagates each wanted
column of the step product on its own, with the products of the whole
matrix; a sigma = 0 step needs only its lower-left entry, one multiply. No
per-segment object is built. Without sums (a lone edge in
fundamental_solutions, or lengths with no sum relation) every distinct
length takes its trig pair.

Steps works on a float array of lambda; fundamental_solutions evaluates a
scalar as a one-element array and returns floats. All functions are pure.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

# Below this |lambda| h^2 the closed forms lose digits to the removable
# singularity of sin(rho h)/rho; a 5-term Taylor series is exact to ~1e-16.
SERIES_SWITCH = 1e-4


def _phi_pairs(lam: np.ndarray, lengths, sums=()) -> list:
    """The pair (phi0, phi1) = (cos(rho h), sin(rho h)/rho), lambda = rho^2, for
    each h in lengths, lam a float ndarray of at least one dimension. Negative
    lambda continues to cosh/sinh, and the lambda -> 0 limit is (1, h): entire
    in lambda. One sqrt serves every length; |lambda| h^2 <= SERIES_SWITCH
    takes the Taylor series.

    sums (compile_sums) lists lengths as (k, i, j), lengths[k] the sum of
    lengths[i] and lengths[j]: those pairs follow from the group law
    (_sum_pair), in that order, and only the other lengths take trig."""
    derived = {k for k, _, _ in sums}
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
    pairs = [None] * len(lengths)
    # Beyond kappa*h ~ 709 the honest value of cosh and sinh is inf.
    with np.errstate(over="ignore") if below else nullcontext():
        for k, h in enumerate(lengths):
            if k in derived:
                continue
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
            pairs[k] = (phi0, phi1)
        for k, i, j in sums:
            pairs[k] = _sum_pair(lam, pairs[i], pairs[j])
    return pairs


def _sum_pair(lam, a, b):
    """(phi0, phi1) at the sum of two lengths from theirs: the step matrix
    [[phi0, phi1], [-lambda phi1, phi0]] is a one-parameter group in h, so
    phi0(a + b) = phi0(a) phi0(b) - lambda phi1(a) phi1(b) and
    phi1(a + b) = phi1(a) phi0(b) + phi0(a) phi1(b), for either sign of lambda.
    phi1(a) phi1(b) is formed before lambda multiplies it, so no term
    overflows unless the result does."""
    (a0, a1), (b0, b1) = a, b
    lam_term = a1 * b1
    lam_term *= lam
    phi0 = a0 * b0
    phi0 -= lam_term
    phi1 = a1 * b0
    phi1 += np.multiply(a0, b1, out=lam_term)
    return phi0, phi1


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


def compile_steps(edges):
    """(lengths, steps) for edges given as (sigma, h) segments: the distinct
    segment lengths, and each edge's segments as (sigma, index into lengths)."""
    index: dict[float, int] = {}
    steps = tuple(
        tuple((sigma, index.setdefault(h, len(index))) for sigma, h in segments)
        for segments in edges
    )
    return tuple(index), steps


def compile_sums(lengths) -> tuple[tuple[int, int, int], ...]:
    """The lengths (exact, e.g. Fractions) whose (phi0, phi1) follow from two
    shorter ones by the group law, as (k, i, j) with lengths[k] = lengths[i] +
    lengths[j] (i = j for a doubling), shortest k first, so that each pair is
    derived after its summands. Of several such sums the one of least depth
    (derivations down to the generators, the lengths that take trig) is
    taken, the most even split on a tie."""
    index = {h: k for k, h in enumerate(lengths)}
    depth, sums = {}, []
    for h in sorted(index):
        best = None
        for a in sorted(a for a in depth if a + a >= h):  # the most even split first
            if h - a in depth:
                d = max(depth[a], depth[h - a]) + 1
                if best is None or d < best[0]:
                    best = (d, index[h - a], index[a])
        depth[h] = 0 if best is None else best[0]
        if best is not None:
            sums.append((index[h], *best[1:]))
    return tuple(sums)


class Steps:
    """The step coefficients of one evaluation at lambda, a float ndarray of
    at least one dimension: (phi0, phi1) once per distinct segment length, by
    one trig pair per generator length and the group law for the lengths in
    sums (compile_sums), and -(sigma^2 + lambda) once per distinct sigma, all
    elementwise.
    """

    __slots__ = ("lam", "phis", "_shifts")

    def __init__(self, lam: np.ndarray, lengths, sums=()):
        self.lam = lam
        self.phis = _phi_pairs(lam, lengths, sums)
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


def fundamental_solutions(segments, lam) -> FundamentalSolution:
    """Ordered product of the propagators of an edge's compiled (sigma, h)
    segments (EdgeSpec.segments); its columns are (C, C1) and (S, S1).

    A scalar lambda is evaluated as a one-element array and gives floats.
    """
    lam = np.asarray(lam, dtype=float)
    lengths, (steps,) = compile_steps((segments,))
    at = Steps(np.atleast_1d(lam), lengths)
    values = (*at.column(steps, "C"), *at.column(steps, "S"))
    if lam.ndim == 0:
        values = (float(v[0]) for v in values)
    return FundamentalSolution(*values)
