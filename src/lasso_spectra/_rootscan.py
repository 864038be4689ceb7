"""Dense-scan root bracketing with even-order (tangential) zero detection.

One scan evaluates fn once on the whole grid and then refines every candidate
at once: fn is called with arrays only, so its cost per scan is the grid plus
a few dozen vector calls, independent of the number of roots.

The refiners are numpy ports of Chandrupatla's bracketing root finder and
minimizer (Adv. Eng. Software 28, 1997) as scipy.optimize.elementwise
implements them, with the same results; the scan loads numpy only.
"""

from __future__ import annotations

import math

import numpy as np

# A local minimum of |f| below DIP_FACTOR * scale triggers refinement; the
# refined minimum counts as a double root if below TOUCH_FACTOR * scale.
DIP_FACTOR = 1e-6
TOUCH_FACTOR = 1e-9
XTOL = 1e-12
# Roots closer than MERGE_FACTOR * max(1, span) are one root.
MERGE_FACTOR = 1e-9

# scipy's defaults for the tolerances not set above and for the iteration caps.
_TINY = float(np.finfo(float).tiny)  # fatol of both; frtol of the minimizer
_ROOT_XRTOL = 4.0 * float(np.finfo(float).eps)
_ROOT_MAXITER = 2046  # log2 of the largest over the smallest normal float
_MINIMIZE_XRTOL = math.sqrt(float(np.finfo(float).eps))
_MINIMIZE_MAXITER = 100
_GOLDEN = 0.5 + 0.5 * 5**0.5


def _roots_in(fn, lo, hi, args=()):
    """Vector bracket refinement: one root of fn(x, *args) in each [lo, hi].

    Chandrupatla's method, ported from scipy.optimize.elementwise.find_root
    with its defaults apart from xatol = XTOL: the same updates, the same
    termination tests and the same compression of the active set, hence the
    same roots. fn sees only the brackets still in progress.
    """
    if lo.size == 0:
        return lo
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f1 = np.asarray(fn(x1, *args), dtype=float)
    f2 = np.asarray(fn(x2, *args), dtype=float)
    x3, f3 = x2, f2  # replaced by the first step
    # scipy's frtol = 0 times the smaller end value: nan at an infinite end,
    # which keeps that bracket off the function-value test.
    fatol = _TINY + 0.0 * np.minimum(np.abs(f1), np.abs(f2))
    out = np.empty_like(x1)
    active = np.arange(x1.size)
    t = 0.5
    for nit in range(_ROOT_MAXITER + 1):
        if nit:
            x = x1 + t * (x2 - x1)
            f = np.asarray(fn(x, *args), dtype=float)
            same = np.sign(f) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, f
        lower = np.abs(f1) < np.abs(f2)
        xmin = np.where(lower, x1, x2)
        stop = np.abs(np.where(lower, f1, f2)) <= fatol
        fail = (np.sign(f1) == np.sign(f2)) | ~(np.isfinite(x1) & np.isfinite(x2))
        fail = (fail | (np.isnan(f1) & np.isnan(f2))) & ~stop
        xmin = np.where(fail, np.nan, xmin)
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * _ROOT_XRTOL + XTOL
        stop |= fail | (dx < tol)
        out[active] = xmin
        if stop.any():
            keep = ~stop
            active = active[keep]
            x1, f1, x2, f2, x3, f3, dx, tol, fatol = (
                v[keep] for v in (x1, f1, x2, f2, x3, f3, dx, tol, fatol)
            )
            args = tuple(v[keep] for v in args)
        if not active.size:
            break
        if nit:
            # Inverse quadratic interpolation where the three points allow
            # it, bisection otherwise; kept tol away from both ends.
            with np.errstate(divide="ignore", invalid="ignore"):
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                iqi = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(
                    iqi,
                    f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                    0.5,
                )
                tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)
    return out


def _minima(fn, a, x, b, sgn):
    """Vector minimization of sgn * fn over each stencil (a, x, b), a < x < b
    and x the lowest of the three: the argmin, and sgn * fn there, which is
    negative where fn changed sign.

    Chandrupatla's quadratic-interpolation minimizer, ported from
    scipy.optimize.elementwise.find_minimum with its defaults apart from
    xatol = XTOL, in the same way as _roots_in.
    """
    if x.size == 0:
        return x, x
    x1, x2, x3 = (np.array(v, dtype=float) for v in (a, x, b))
    f1, f2, f3 = (np.asarray(sgn * fn(v), dtype=float) for v in (x1, x2, x3))
    q0 = x3.copy()
    out_x, out_f = np.empty_like(x2), np.empty_like(x2)
    active = np.arange(x2.size)
    for nit in range(_MINIMIZE_MAXITER + 1):
        if nit:
            x21, x32 = x2 - x1, x3 - x2
            # The parabola's vertex if it moved less than half the smaller
            # interval (nudged xtol off x2), golden section of the larger one
            # otherwise.
            with np.errstate(divide="ignore", invalid="ignore"):
                A = x21 * (f3 - f2)
                B = x32 * (f1 - f2)
                C = A / (A + B)
                q1 = 0.5 * (C * (x1 - x3) + x2 + x3)
                vertex = np.abs(q1 - q0) < 0.5 * np.abs(x21)
                nudge = np.abs(q1 - x2) <= xtol
            x = np.where(
                vertex,
                np.where(nudge, x2 + np.sign(x32) * xtol, q1),
                x2 + (2 - _GOLDEN) * x32,
            )
            q0 = q1
            fx = np.asarray(sgn * fn(x), dtype=float)
            right = np.sign(x - x2) == np.sign(x3 - x2)
            up = fx > f2
            x1, f1, x3, f3 = (
                np.where(right, np.where(up, x1, x2), np.where(up, x, x1)),
                np.where(right, np.where(up, f1, f2), np.where(up, fx, f1)),
                np.where(right, np.where(up, x, x3), np.where(up, x3, x2)),
                np.where(right, np.where(up, fx, f3), np.where(up, f3, f2)),
            )
            x2, f2 = np.where(up, x2, x), np.where(up, f2, fx)
        with np.errstate(over="ignore", invalid="ignore"):
            bad = (f2 > f1) | (f2 > f3) | ~np.isfinite(x1 + x2 + x3 + f1 + f2 + f3)
        x2, f2 = np.where(bad, np.nan, x2), np.where(bad, np.nan, f2)
        # (x2, x3) is the larger interval.
        swap = np.abs(x3 - x2) < np.abs(x2 - x1)
        x1, x3 = np.where(swap, x3, x1), np.where(swap, x1, x3)
        f1, f3 = np.where(swap, f3, f1), np.where(swap, f1, f3)
        xtol = np.abs(x2) * _MINIMIZE_XRTOL + XTOL
        stop = bad | (np.abs(x3 - x2) <= 2 * xtol)
        stop |= (f1 - 2 * f2 + f3) <= 2 * (np.abs(f2) * _TINY + _TINY)
        out_x[active], out_f[active] = x2, f2
        if stop.any():
            keep = ~stop
            active = active[keep]
            x1, f1, x2, f2, x3, f3, q0, xtol, sgn = (
                v[keep] for v in (x1, f1, x2, f2, x3, f3, q0, xtol, sgn)
            )
        if not active.size:
            break
    return out_x, out_f


def _refine_touches(fn, a, b, xm, sgn):
    """Sharpen tangential roots: minimizing |f| localizes the argmin only to
    ~sqrt(eps), so bracket the sign change of a central-difference derivative
    instead, which recovers ~1e-12 accuracy. The stencil width balances the
    O(h^2) cubic-term bias against the eps/h rounding noise. Where the
    derivative does not change sign across the stencil, the argmin stays."""
    if xm.size == 0:
        return xm
    h = (b - a) / 4096.0

    def g(x, h, sgn):
        vals = np.asarray(fn(np.concatenate([x + h, x - h])), dtype=float)
        return sgn * (vals[: x.size] - vals[x.size :])

    ends = g(np.concatenate([a, b]), np.concatenate([h, h]), np.concatenate([sgn, sgn]))
    ok = (ends[: a.size] < 0.0) & (ends[a.size :] > 0.0)
    out = xm.copy()
    out[ok] = _roots_in(g, a[ok], b[ok], (h[ok], sgn[ok]))
    return out


def _merge(xs, mults, tol):
    """Sort, then merge neighbours closer than tol into one root: the earliest
    found member keeps its position, the merged root the larger multiplicity."""
    if xs.size == 0:
        return []
    order = np.argsort(xs, kind="stable")
    starts = np.flatnonzero(np.concatenate([[True], np.diff(xs[order]) > tol]))
    first = np.minimum.reduceat(order, starts)
    mult = np.maximum.reduceat(mults[order], starts)
    return [(float(x), int(m)) for x, m in zip(xs[first], mult)]


def scan_roots(fn, lo: float, hi: float, n_points: int, values=None):
    """All roots of fn on [lo, hi] with multiplicity 1 (crossing) or 2 (touch).

    fn must accept ndarrays. Roots closer than MERGE_FACTOR of the span are
    merged. Assumes at most two roots per scan cell (the cell size is the
    caller's resolution contract).
    """
    xs = np.linspace(lo, hi, n_points + 1)
    ys = np.asarray(fn(xs) if values is None else values, dtype=float)
    scale = float(np.max(np.abs(ys)))
    if scale == 0.0:
        raise ValueError("function is identically zero on the scan grid")
    sign = np.sign(ys)

    # Exact grid hits: tangential if both neighbours are nonzero and agree in
    # sign. The two ends of the grid have one neighbour and count as simple.
    hits = np.flatnonzero(ys == 0.0)
    inner = (hits >= 1) & (hits < n_points)
    left = sign[np.clip(hits - 1, 0, n_points)]
    right = sign[np.clip(hits + 1, 0, n_points)]
    hit_mult = np.where(inner & (left != 0.0) & (left == right), 2, 1)

    # Sign changes between nonzero neighbours.
    cells = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    crossings = _roots_in(fn, xs[cells], xs[cells + 1])

    # Tangential zeros and sub-cell root pairs: local minima of |f| with no
    # sign change across the three-point stencil.
    f0, f1, f2 = ys[:-2], ys[1:-1], ys[2:]
    a0, a1, a2 = np.abs(f0), np.abs(f1), np.abs(f2)
    # A tangential zero at offset <= step/2 from the stencil center dips to
    # |f| <= curvature * step^2 / 8; the second difference estimates that
    # curvature scale, so the test stays valid for any step size.
    curvature_bound = 0.75 * np.abs(f0 - 2.0 * f1 + f2)
    dip = (
        (sign[:-2] != 0.0)
        & (sign[:-2] == sign[1:-1])
        & (sign[1:-1] == sign[2:])
        & (a1 <= a0)
        & (a1 <= a2)
        & (a1 <= np.maximum(DIP_FACTOR * scale, curvature_bound))
    )
    centers = np.flatnonzero(dip) + 1
    a, b, sgn = xs[centers - 1], xs[centers + 1], sign[centers]
    xm, gm = _minima(fn, a, xs[centers], b, sgn)
    split = gm <= -TOUCH_FACTOR * scale
    touch = np.abs(gm) <= TOUCH_FACTOR * scale
    pairs = _roots_in(
        fn,
        np.concatenate([a[split], xm[split]]),
        np.concatenate([xm[split], b[split]]),
    )
    touches = _refine_touches(fn, a[touch], b[touch], xm[touch], sgn[touch])

    # Earlier stages win position ties in the merge: an exact grid hit is exact.
    found = np.concatenate([xs[hits], crossings, pairs, touches])
    mults = np.concatenate(
        [hit_mult, np.ones(crossings.size + pairs.size, dtype=int), np.full(touches.size, 2)]
    )
    return _merge(found, mults, MERGE_FACTOR * max(1.0, hi - lo)), scale
