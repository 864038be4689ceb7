"""The numpy refiners against scipy's elementwise solvers they were ported from."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize.elementwise import find_minimum, find_root

from lasso_spectra import _rootscan
from lasso_spectra._rootscan import XTOL, scan_roots


def _scan_recording(fn, lo, hi, n_points):
    """Run scan_roots on fn; return every (args, kwargs) it passed to the
    refiners, as recorded calls of _roots_in and of _minima."""
    with (
        mock.patch.object(_rootscan, "_roots_in", wraps=_rootscan._roots_in) as roots,
        mock.patch.object(_rootscan, "_minima", wraps=_rootscan._minima) as minima,
    ):
        scan_roots(fn, lo, hi, n_points)
    return roots.call_args_list, minima.call_args_list


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
    # sin((x - touch_at) / 2)^2 has double zeros, which reach the tangential
    # refinement and its args=(h, sgn) form.
    def trig(x):
        return sum(a * np.cos(k * w0 * x + p) for k, (a, p) in enumerate(zip(amps, phases), 1))

    if touch_at is None:
        fn = trig
    else:
        def fn(x):
            return (1.5 + trig(x) / sum(amps)) * np.sin(0.5 * (x - touch_at)) ** 2

    roots, minima = _scan_recording(fn, 0.0, 20.0, 2000)
    refined = [c for c in roots if c.args[1].size]
    if touch_at is None:
        assert refined  # sign-change brackets
    else:
        assert any(len(c.args) == 4 for c in refined)  # the touches' args=(h, sgn) form

    for call in roots:
        f, lo, hi, *rest = call.args
        args = rest[0] if rest else ()
        want = find_root(f, (lo, hi), args=args, tolerances={"xatol": XTOL}).x if lo.size else lo
        np.testing.assert_array_equal(_rootscan._roots_in(f, lo, hi, args), want)
    for call in minima:
        f, a, x, b, sgn = call.args
        if not x.size:
            continue
        want = find_minimum(
            lambda x, s: s * f(x), (a, x, b), args=(sgn,), tolerances={"xatol": XTOL}
        )
        got_x, got_f = _rootscan._minima(f, a, x, b, sgn)
        np.testing.assert_array_equal(got_x, want.x)
        np.testing.assert_array_equal(got_f, want.f_x)
