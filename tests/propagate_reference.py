"""Segment-by-segment propagation, the path that `propagate.Steps` replaces.

The tests' reference for the compiled evaluation: phi_pair per length on its
own branches, one StateMatrix per segment, their ordered product per edge and
`charfn.assemble` on the result. Bytes equal to the compiled evaluation
wherever they are finite and its plan derives no length by the group law.
mp_fundamental is the same step product in mpmath, for accuracy references.
"""

from dataclasses import dataclass

import mpmath
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


def _abs(m: StateMatrix) -> StateMatrix:
    return StateMatrix(abs(m.a), abs(m.b), abs(m.c), abs(m.d))


def magnitude(graph, j: int, lam):
    """The scale of the rounding of assemble on the step products: its
    polynomial with every term taken in absolute value, on the products of
    the step matrices taken entry by entry in absolute value. A length that
    the plan derives by the group law (compile_sums) rounds at the scale of
    its summands' product, so its step is the product of theirs, each in
    absolute value: near a zero of cos or sin its own entries are no scale."""
    lam = _lam_value(lam)
    plan = graph.plan
    summands = {k: (i, i2) for k, i, i2 in plan.sums}
    steps = {}

    def abs_step(sigma: float, k: int) -> StateMatrix:
        if (sigma, k) not in steps:
            if k in summands:
                i, i2 = summands[k]
                steps[sigma, k] = abs_step(sigma, i) @ abs_step(sigma, i2)
            else:
                steps[sigma, k] = _abs(step_matrix(sigma, plan.lengths[k], lam))
        return steps[sigma, k]

    fs = []
    for edge in plan.steps:
        m = None
        for sigma, k in edge:
            step = abs_step(sigma, k)
            m = step if m is None else step @ m
        fs.append(FundamentalSolution(C=m.a, C1=m.c, S=m.b, S1=m.d))
    return term_scale(fs, j)


def term_scale(fs, j: int):
    """assemble(fs, j) with each of its terms in absolute value."""
    ends = [(abs(f.S), abs(f.S1)) if k == j else (abs(f.C), abs(f.C1)) for k, f in enumerate(fs) if k]
    prod, star = ends[0]
    for u, du in ends[1:]:
        star = star * u + prod * du
        prod = prod * u
    return abs(fs[0].S) * star + (abs(fs[0].C) + abs(fs[0].S1) + 2) * prod


def mp_fundamental(graph, lam) -> list:
    """Every edge's (C, C1, S, S1) at lam, as the step product in mpmath at its
    working precision, from the exact lengths (times pi at that precision)."""
    lam = mpmath.mpf(lam)
    unit = mpmath.pi if graph.length_unit == "pi" else mpmath.mpf(1)
    fs = []
    for edge in graph.edges:
        a, b, c, d = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        for sigma, h in edge.pieces():
            h = mpmath.mpf(h.numerator) / h.denominator * unit
            if lam > 0:
                rho = mpmath.sqrt(lam)
                phi0, phi1 = mpmath.cos(rho * h), mpmath.sin(rho * h) / rho
            elif lam < 0:
                kappa = mpmath.sqrt(-lam)
                phi0, phi1 = mpmath.cosh(kappa * h), mpmath.sinh(kappa * h) / kappa
            else:
                phi0, phi1 = mpmath.mpf(1), h
            sigma = mpmath.mpf(sigma)
            sa, sb, sc, sd = phi0 + phi1 * sigma, phi1, -phi1 * (sigma * sigma + lam), phi0 - phi1 * sigma
            a, b, c, d = sa * a + sb * c, sa * b + sb * d, sc * a + sd * c, sc * b + sd * d
        fs.append(FundamentalSolution(C=a, C1=c, S=b, S1=d))
    return fs
