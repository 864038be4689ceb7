"""Dense-scan root bracketing with even-order (tangential) zero detection.

One scan evaluates fn once on the whole grid, resolves the dips of |fn| to
their lowest points, then refines every crossing and split dip in one pass
seeded with the end values at hand. fn is called with arrays only, so a scan
costs the grid plus a few dozen vector calls, however many roots it finds; a
bracket's iterates depend on that bracket alone, as in separate passes.

There is one refiner, a numpy port of Chandrupatla's bracketing root finder
(Adv. Eng. Software 28, 1997) as scipy.optimize.elementwise implements it,
with the same results; the scan loads numpy only. It refines sign changes of
fn, and it finds the lowest point of a dip of |fn| as the sign change of a
difference quotient, which decides between a root pair, a touch and no root.
"""

from __future__ import annotations

import numpy as np

# A local minimum of |f| below DIP_FACTOR * scale triggers refinement; the
# refined minimum counts as a double root if within TOUCH_FACTOR * scale of 0.
DIP_FACTOR = 1e-6
TOUCH_FACTOR = 1e-9
XTOL = 1e-12
# Roots closer than MERGE_FACTOR * max(1, span) are one root.
MERGE_FACTOR = 1e-9

# scipy's defaults for the tolerances not set above and for the iteration cap.
_TINY = float(np.finfo(float).tiny)  # fatol
_ROOT_XRTOL = 4.0 * float(np.finfo(float).eps)
_ROOT_MAXITER = 2046  # log2 of the largest over the smallest normal float


def _roots_in(fn, lo, hi, f_lo, f_hi, args=()):
    """Vector bracket refinement: one root of fn(x, *args) in each [lo, hi],
    where fn takes the values f_lo and f_hi, which the caller already holds.

    Chandrupatla's method, ported from scipy.optimize.elementwise.find_root
    with its defaults apart from xatol = XTOL: the same updates, the same
    termination tests and the same compression of the active set, hence the
    same roots. fn sees only the brackets still in progress.
    """
    if lo.size == 0:
        return lo
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f1, f2 = np.array(f_lo, dtype=float), np.array(f_hi, dtype=float)
    x3, f3 = x2, f2  # replaced by the first step
    # scipy's frtol = 0 times the smaller end value: nan at an infinite end,
    # which keeps that bracket off the function-value test.
    fatol = _TINY + 0.0 * np.minimum(np.abs(f1), np.abs(f2))
    s1 = np.sign(f1)  # carried along with its end
    # A bracket whose ends agree in sign or one of which is infinite fails
    # here. The ends of a bracket still in progress then differ in sign after
    # every step, and only the new iterate can be non-finite.
    bad = (s1 == np.sign(f2)) | ~(np.isfinite(x1) & np.isfinite(x2))
    out = np.empty_like(x1)
    active = np.arange(x1.size)
    t = 0.5
    for nit in range(_ROOT_MAXITER + 1):
        if nit:
            x = x1 + t * d21
            f = np.asarray(fn(x, *args), dtype=float)
            sf = np.sign(f)
            same = sf == s1
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1, s1 = x, f, sf
            bad = ~np.isfinite(x1)
        a1, a2 = np.abs(f1), np.abs(f2)
        lower = a1 < a2
        xmin = np.where(lower, x1, x2)
        stop = np.where(lower, a1, a2) <= fatol
        # fmin is nan only where both ends are.
        fail = (bad | np.isnan(np.fmin(f1, f2))) & ~stop
        xmin = np.where(fail, np.nan, xmin)
        d21 = x2 - x1
        dx = np.abs(d21)
        tol = np.abs(xmin) * _ROOT_XRTOL + XTOL
        stop |= fail | (dx < tol)
        out[active] = xmin
        if stop.any():
            keep = ~stop
            active = active[keep]
            x1, f1, s1, x2, f2, x3, f3, d21, dx, tol, fatol = (
                v[keep] for v in (x1, f1, s1, x2, f2, x3, f3, d21, dx, tol, fatol)
            )
            args = tuple(v[keep] for v in args)
        if not active.size:
            break
        if nit:
            # Inverse quadratic interpolation where the three points allow
            # it, bisection otherwise; kept tol away from both ends. With
            # f2 - f3 = -(f3 - f2), scipy's "- ... / (f2 - f3)" is
            # "+ ... / df32" bit for bit wherever iqi holds (df32 != 0).
            with np.errstate(divide="ignore", invalid="ignore"):
                df12, df32 = f1 - f2, f3 - f2
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = df12 / df32
                alpha = (x3 - x1) / d21
                iqi = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(
                    iqi,
                    f1 / df12 * f3 / df32 + alpha * f1 / (f3 - f1) * f2 / df32,
                    0.5,
                )
                tl = 0.5 * tol / dx
            t = np.minimum(np.maximum(t, tl), 1 - tl)
    return out


def _dip_centers(ys, sign, scale):
    """Grid indices where |f| has a local minimum with no sign change across
    the three-point stencil, low enough to hide a root pair or a touch. Only
    the local-minimum screen runs on the whole grid, the rest on its hits."""
    a = np.abs(ys)
    low = a[1:-1] <= a[:-2]
    low &= a[1:-1] <= a[2:]
    i = np.flatnonzero(low) + 1
    s = sign[i]
    # A tangential zero at offset <= step/2 from the stencil center dips to
    # |f| <= curvature * step^2 / 8; the second difference estimates that
    # curvature scale, so the test stays valid for any step size.
    curvature_bound = 0.75 * np.abs(ys[i - 1] - 2.0 * ys[i] + ys[i + 1])
    same = (s != 0.0) & (sign[i - 1] == s) & (s == sign[i + 1])
    return i[same & (a[i] <= np.maximum(DIP_FACTOR * scale, curvature_bound))]


def _argmins(fn, a, b, sgn):
    """The lowest point of sgn * fn in each dip's stencil (a, b), or NaN where
    none is bracketed.

    It is the root of a central difference quotient of sgn * fn, refined by
    _roots_in to ~1e-12 across (a, b) where the quotient goes from negative to
    positive there. Where a second extremum in the stencil spoils that
    bracket, the first sign change downhill from the stencil's center, on
    eight subcells, brackets it. The quotient's width balances the O(h^2)
    cubic-term bias against the eps/h rounding noise.
    """
    out = np.full_like(a, np.nan)
    if a.size == 0:
        return out
    h = (b - a) / 4096.0

    def g(x, h, sgn):
        vals = np.asarray(fn(np.concatenate([x + h, x - h])), dtype=float)
        return sgn * (vals[: x.size] - vals[x.size :])

    t = a + np.arange(9.0)[:, None] / 8.0 * (b - a)
    t[8] = b
    gt = g(t.ravel(), np.tile(h, 9), np.tile(sgn, 9)).reshape(t.shape)
    whole = (gt[0] < 0.0) & (gt[8] > 0.0)
    right, rise, fall = gt[4] < 0.0, gt[5:] > 0.0, gt[3::-1] < 0.0
    k = np.where(whole, 0, np.where(right, 4 + rise.argmax(0), 3 - fall.argmax(0)))
    ok = whole | np.where(right, rise.any(0), fall.any(0) & (gt[4] > 0.0))
    cols = np.arange(a.size)
    lo, g_lo = t[k, cols], gt[k, cols]
    hi, g_hi = np.where(whole, b, t[k + 1, cols]), np.where(whole, gt[8], gt[k + 1, cols])
    out[ok] = _roots_in(g, lo[ok], hi[ok], g_lo[ok], g_hi[ok], (h[ok], sgn[ok]))
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
    return list(zip(xs[first].tolist(), mult.tolist()))


def scan_roots(fn, lo: float, hi: float, n_points: int):
    """All roots of fn on [lo, hi] with multiplicity 1 (crossing) or 2 (touch).

    fn must accept ndarrays. Roots closer than MERGE_FACTOR of the span are
    merged. Assumes at most two roots per scan cell (the cell size is the
    caller's resolution contract).
    """
    xs = np.linspace(lo, hi, n_points + 1)
    ys = np.asarray(fn(xs), dtype=float)
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

    # Tangential zeros and sub-cell root pairs: each dip's lowest point xm.
    centers = _dip_centers(ys, sign, scale)
    a, b, sgn = centers - 1, centers + 1, sign[centers]
    xm = _argmins(fn, xs[a], xs[b], sgn)
    a, b, sgn, xm = (v[np.isfinite(xm)] for v in (a, b, sgn, xm))
    # sgn * fn at the argmin decides: below -TOUCH_FACTOR * scale, a root on
    # either side of it; within TOUCH_FACTOR * scale of 0, a touch at it;
    # otherwise no root.
    gm = sgn * np.asarray(fn(xm), dtype=float) if xm.size else xm
    split = gm <= -TOUCH_FACTOR * scale
    touches = xm[np.abs(gm) <= TOUCH_FACTOR * scale]

    # Sign changes between nonzero neighbours, and the split dips' pairs,
    # refined in one pass from the end values at hand (fn(xm) = sgn * gm).
    cells = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    a, b, fm = a[split], b[split], sgn[split] * gm[split]
    roots = _roots_in(
        fn,
        np.concatenate([xs[cells], xs[a], xm[split]]),
        np.concatenate([xs[cells + 1], xm[split], xs[b]]),
        np.concatenate([ys[cells], ys[a], fm]),
        np.concatenate([ys[cells + 1], fm, ys[b]]),
    )

    # Earlier stages win position ties in the merge: an exact grid hit is exact.
    found = np.concatenate([xs[hits], roots, touches])
    mults = np.concatenate([hit_mult, np.ones(roots.size, dtype=int), np.full(touches.size, 2)])
    return _merge(found, mults, MERGE_FACTOR * max(1.0, hi - lo)), scale
