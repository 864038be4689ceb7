"""The root scan: its refiner against the scipy solver it was ported from, its
float steps against its vector steps, and its reading of dips as root pairs,
touches or no root."""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize.elementwise import find_root

from lasso_spectra import _rootscan, trigpoly
from lasso_spectra._rootscan import XTOL, scan_roots
from lasso_spectra.graph import Problem, graph_from_json
from lasso_spectra.spectrum import compute_catalog

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


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
        scan_roots(fn, np.linspace(0.0, 20.0, 2001))
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

    roots = scan_roots(lambda x: (1.0 + 0.5 * np.sin(freq * x + phase)) * quadratic(x), np.linspace(lo, hi, n + 1))
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

    roots = scan_roots(lambda x: (x - r) ** 2 * (q - x), np.linspace(0.0, 2.0, 201))
    assert [m for _, m in roots] == [2, 1]
    assert abs(roots[0][0] - r) <= 2e-9 and abs(roots[1][0] - q) <= 1e-12


def test_shallow_split_pair_is_two_simple_roots():
    # Two roots 2e-6 apart in one cell: the dip between reads -1e-12 of the
    # scan scale, far inside TOUCH_FACTOR, but f changes sign twice there.
    r1 = 1.0053
    r2 = r1 + 2e-6

    xs = np.linspace(0.0, 2.0, 201)
    roots = scan_roots(lambda x: (x - r1) * (x - r2), xs)
    scale = np.max(np.abs((xs - r1) * (xs - r2)))
    assert (r2 - r1) ** 2 / 4.0 / scale == pytest.approx(1e-12, rel=0.02)
    assert [m for _, m in roots] == [1, 1]
    assert abs(roots[0][0] - r1) <= 1e-12 and abs(roots[1][0] - r2) <= 1e-12


def _brackets(bounds, w0, quotient):
    """fn, lo, hi, its end values and args on brackets (a, a + w): a sum of two
    sinusoids, or with quotient its dips' difference quotient, args=(h, sgn)."""
    def trig(x):
        return np.cos(w0 * x + 0.3) + 0.5 * np.sin(2.0 * w0 * x)

    lo = np.array([a for a, _ in bounds])
    hi = lo + np.array([w for _, w in bounds])
    fn, args = trig, ()
    if quotient:
        def fn(x, h, sgn):
            return sgn * (trig(x + h) - trig(x - h))

        args = ((hi - lo) / 4096.0, np.where(np.arange(lo.size) % 2, 1.0, -1.0))
    return fn, lo, hi, fn(lo, *args), fn(hi, *args), args


# Ends the float steps must treat as the vector steps do: nan, infinite and
# zero values (of either sign), ends of one sign, non-finite ends, and ends so
# far apart that x2 - x1 overflows and the first iterate is infinite.
END_EDITS = (
    "plain",
    "nan value",
    "infinite value",
    "zero value",
    "negative zero value",
    "one sign",
    "nan end",
    "infinite end",
    "overflow",
)


def _edit_end(edit, lo, hi, f_lo, f_hi, i):
    if edit == "nan value":
        f_hi[i] = np.nan
    elif edit == "infinite value":
        f_lo[i] = np.copysign(np.inf, f_lo[i])
    elif edit == "zero value":
        f_lo[i] = 0.0
    elif edit == "negative zero value":
        f_hi[i] = -0.0
    elif edit == "one sign":
        f_hi[i] = f_lo[i]
    elif edit == "nan end":
        lo[i] = np.nan
    elif edit == "infinite end":
        hi[i] = np.inf
    elif edit == "overflow":
        lo[i], hi[i] = -1e308, 1e308


@settings(max_examples=80, deadline=None)
@given(
    brackets=st.lists(
        st.tuples(st.floats(0.0, 20.0), st.floats(1e-3, 2.0), st.sampled_from(END_EDITS)),
        min_size=1,
        max_size=2 * _rootscan._FLOAT_BRACKETS,
    ),
    w0=st.floats(0.5, 3.0),
    cut=st.floats(5.0, 20.0),
    beyond=st.sampled_from([None, np.nan, 1.0]),
    quotient=st.booleans(),
)
def test_float_steps_are_the_vector_steps(brackets, w0, cut, beyond, quotient):
    # Bit for bit, nans and signed zeros included: all vector steps, a
    # handover to float steps at 3 brackets, and the default handover.
    # With beyond, fn takes that value past cut, so iterates can land on nan
    # values, and an infinite iterate on a finite one.
    fn, lo, hi, f_lo, f_hi, args = _brackets([b[:2] for b in brackets], w0, quotient)
    if beyond is not None:
        smooth = fn

        def fn(x, *args):
            return np.where(x > cut, beyond, smooth(x, *args))

        with np.errstate(invalid="ignore"):
            f_lo, f_hi = fn(lo, *args), fn(hi, *args)
    for i, (_, _, edit) in enumerate(brackets):
        _edit_end(edit, lo, hi, f_lo, f_hi, i)

    got = []
    for n in (0, 3, _rootscan._FLOAT_BRACKETS):
        with mock.patch.object(_rootscan, "_FLOAT_BRACKETS", n), np.errstate(all="ignore"):
            got.append(_rootscan._roots_in(fn, lo, hi, f_lo, f_hi, args).view(np.int64))
    np.testing.assert_array_equal(got[1], got[0])
    np.testing.assert_array_equal(got[2], got[0])


@pytest.mark.parametrize(
    "x3, f3",
    [(2.0, 1.0), (1.5, -3.0), (1.5, 5.0), (3.0, -1.0)],
    ids=["x3-equals-x2", "f3-equals-f2", "xi1-above-1", "xi1-below-0"],
)
def test_float_steps_bisect_where_iqi_is_undefined(x3, f3):
    # Where numpy's iqi test meets x3 - x2 = 0 or f3 - f2 = 0 (an infinite or
    # nan xi1 or phi1), or a negative number under a square root (xi1
    # outside [0, 1]), it is false, and the step bisects [x1, x2] = [1, 2].
    # The float step does the same and raises no ZeroDivisionError or
    # ValueError. The vector steps never reach these states.
    seen = []

    def fn(x):
        seen.append(x.tolist())
        return np.zeros_like(x)

    out = np.full(1, np.nan)
    _rootscan._float_steps(fn, (), out, [0], 1, [(1.0, 1.0, 1.0, 2.0, -3.0, x3, f3, _rootscan._TINY, False)])
    assert seen == [[1.5]] and out[0] == 1.5


@settings(max_examples=40, deadline=None)
@given(
    bounds=st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(1e-3, 2.0)), min_size=1, max_size=8),
    w0=st.floats(0.5, 3.0),
    quotient=st.booleans(),
)
def test_float_steps_match_scipy(bounds, w0, quotient):
    # Up to 8 brackets run on float steps from the start. Brackets holding
    # no sign change, or several roots, included.
    fn, lo, hi, f_lo, f_hi, args = _brackets(bounds, w0, quotient)
    want = find_root(fn, (lo, hi), args=args, tolerances={"xatol": XTOL}).x
    got = _rootscan._roots_in(fn, lo, hi, f_lo, f_hi, args)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("config", CONFIGS + ["attractive_p3"], ids=lambda c: getattr(c, "stem", c))
def test_catalogs_do_not_depend_on_the_float_steps(config, attractive_p3):
    # L and every Lj at the catalog benchmark's rho_max, where the main
    # refinement starts with hundreds of brackets and may hand over to float
    # steps; the attractive p = 3 lasso's negative roots and dips too. Each
    # pass builds its own frame, whose base zeros are refined on float steps.
    graph = attractive_p3 if config == "attractive_p3" else graph_from_json(config)[0]
    for problem in [Problem.neumann()] + [Problem.dirichlet(j) for j in range(1, graph.p + 1)]:
        catalogs = []
        for n in (0, _rootscan._FLOAT_BRACKETS):
            trigpoly._geometry_frame.cache_clear()
            with mock.patch.object(_rootscan, "_FLOAT_BRACKETS", n), mock.patch.object(
                _rootscan, "_float_steps", wraps=_rootscan._float_steps
            ) as floats:
                cat = compute_catalog(graph, problem, 203.0)
            assert floats.called == bool(n)
            catalogs.append(repr((cat.entries, cat.window_violations)))
        assert catalogs[1] == catalogs[0]
