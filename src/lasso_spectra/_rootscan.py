"""Dense-scan root bracketing with even-order (tangential) zero detection.

One scan evaluates fn once on the whole grid and then refines every candidate
at once: fn is called with arrays only, so its cost per scan is the grid plus
a few dozen vector calls, independent of the number of roots.

scipy is imported on first use, so importing this module loads numpy only.
"""

from __future__ import annotations

import numpy as np

# A local minimum of |f| below DIP_FACTOR * scale triggers refinement; the
# refined minimum counts as a double root if below TOUCH_FACTOR * scale.
DIP_FACTOR = 1e-6
TOUCH_FACTOR = 1e-9
XTOL = 1e-12
# Roots closer than MERGE_FACTOR * max(1, span) are one root.
MERGE_FACTOR = 1e-9


def _roots_in(fn, lo, hi, args=()):
    """Vector bracket refinement: one root of fn(x, *args) in each [lo, hi]."""
    if lo.size == 0:
        return lo
    from scipy.optimize.elementwise import find_root

    return find_root(fn, (lo, hi), args=args, tolerances={"xatol": XTOL}).x


def _minima(fn, a, x, b, sgn):
    """Vector minimization of sgn * fn over each stencil (a, x, b): the
    argmin, and sgn * fn there, which is negative where fn changed sign."""
    if x.size == 0:
        return x, x
    from scipy.optimize.elementwise import find_minimum

    res = find_minimum(lambda x, s: s * fn(x), (a, x, b), args=(sgn,), tolerances={"xatol": XTOL})
    return res.x, res.f_x


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
