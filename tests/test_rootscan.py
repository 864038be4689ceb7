"""The root scan: its refiner against the scipy solver it was ported from, and
its reading of dips as root pairs, touches or no root."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize.elementwise import find_root

from lasso_spectra import _rootscan
from lasso_spectra._rootscan import XTOL, scan_roots


@settings(max_examples=40, deadline=None)
@given(
    amps=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4),
    phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=4, max_size=4),
    w0=st.floats(0.5, 3.0),
    touch_at=st.one_of(st.none(), st.floats(2.0, 5.0)),
)
def test_refiners_match_scipy(amps, phases, w0, touch_at):
    # A trigonometric sum with no constant term changes sign on every period
    # (here at most 4 pi, inside [0, 20]). With touch_at, a positive sum times
    # sin((x - touch_at) / 2)^2 has double zeros, whose dips reach the
    # difference-quotient bracket and its args=(h, sgn) form.
    def trig(x):
        return sum(a * np.cos(k * w0 * x + p) for k, (a, p) in enumerate(zip(amps, phases), 1))

    if touch_at is None:
        fn = trig
    else:
        def fn(x):
            return (1.5 + trig(x) / sum(amps)) * np.sin(0.5 * (x - touch_at)) ** 2

    with mock.patch.object(_rootscan, "_roots_in", wraps=_rootscan._roots_in) as roots:
        scan_roots(fn, 0.0, 20.0, 2000)
    refined = [c.args for c in roots.call_args_list if c.args[1].size]
    if touch_at is None:
        assert refined  # sign-change brackets
    else:
        assert any(len(c) == 6 for c in refined)  # the dips' args=(h, sgn) form

    for f, lo, hi, f_lo, f_hi, *rest in refined:
        args = rest[0] if rest else ()
        # The end values the scan hands over are fn's own, bit for bit, so
        # the refinement is scipy's from the same brackets.
        np.testing.assert_array_equal(f_lo, f(lo, *args))
        np.testing.assert_array_equal(f_hi, f(hi, *args))
        want = find_root(f, (lo, hi), args=args, tolerances={"xatol": XTOL}).x
        np.testing.assert_array_equal(_rootscan._roots_in(f, lo, hi, f_lo, f_hi, args), want)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["pair", "touch", "clear"]),
    cell=st.integers(20, 180),
    u1=st.floats(0.05, 0.45),
    u2=st.floats(0.55, 0.95),
    c=st.floats(1e-7, 1e-3),
    freq=st.floats(0.5, 5.0),
    phase=st.floats(0.0, 2.0 * np.pi),
)
def test_dips_in_one_cell(kind, cell, u1, u2, c, freq, phase):
    # A positive smooth factor times a quadratic whose roots all lie in one
    # scan cell of [0, 2] (step 0.01): two simple roots at offsets u1 < u2, a
    # double root at u1, or a minimum c above zero and no root.
    lo, hi, n = 0.0, 2.0, 200
    r1, r2 = (lo + (cell + u) * (hi - lo) / n for u in (u1, u2))
    quadratic = {
        "pair": lambda x: (x - r1) * (x - r2),
        "touch": lambda x: (x - r1) ** 2,
        "clear": lambda x: (x - r1) ** 2 + c,
    }[kind]

    roots, _ = scan_roots(lambda x: (1.0 + 0.5 * np.sin(freq * x + phase)) * quadratic(x), lo, hi, n)
    want = {"pair": [(r1, 1), (r2, 1)], "touch": [(r1, 2)], "clear": []}[kind]
    assert [m for _, m in roots] == [m for _, m in want]
    for (x, _), (x_want, _) in zip(roots, want):
        assert abs(x - x_want) <= 1e-10


def test_touch_next_to_a_crossing_in_its_stencil():
    # A double root 0.001 past the stencil's center and a simple root 0.0128
    # past it, in the next cell: f peaks inside the stencil, so the difference
    # quotient is negative at both of its ends, and the touch is bracketed on
    # a subcell downhill from the center. Shaped after the double eigenvalue
    # near rho 0.7876 of a p = 3 lasso with a +2 delta at each pendant
    # midpoint, mirrored. The touch's position carries the quotient's O(h^2)
    # bias, h^2 / 6 times the third over the second derivative: 9.3e-10 here.
    r = 1.001
    q = r + 0.0128

    roots, _ = scan_roots(lambda x: (x - r) ** 2 * (q - x), 0.0, 2.0, 200)
    assert [m for _, m in roots] == [2, 1]
    assert abs(roots[0][0] - r) <= 2e-9 and abs(roots[1][0] - q) <= 1e-12
