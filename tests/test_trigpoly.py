import math
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from free_reference import free_charfn, free_charfn_dirichlet
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lasso_spectra import cli, trigpoly
from lasso_spectra.charfn import charfn_for
from lasso_spectra.checks import ORACLE_COUNT, ORACLE_TOL
from lasso_spectra.errors import ConstantFunction, HalfPeriodZeroWarning
from lasso_spectra.graph import Problem, delta_potential, graph_from_json, lasso_graph
from lasso_spectra.oracle import richardson_eigs
from lasso_spectra.trigpoly import (
    TrigPoly,
    _TrigExpr,
    build_frame,
    expand_free_charfn,
    frame_to_json,
    smallest_period,
)


def test_trig_expr_sums_across_scales():
    # cos^2 + cos - 1 = -1/2 + cos + cos(2 x) / 2, x = rho / 3: the product
    # carries one more halving than the terms it is added to, on either side.
    x = _TrigExpr({("cos", 1, 0): 1})
    for expr in (x * x + x + -1, -1 + (x + x * x)):
        poly = expr.to_poly("cos", 0, 1.0, 3)
        assert poly.freqs == (0, Fraction(1, 3), Fraction(2, 3))
        assert poly.coefs == (Fraction(-1, 2), 1, Fraction(1, 2))


def test_expansion_p1_unit_lengths(unit_lasso_p1):
    # (1 - cos)(3 cos + 1) = -1/2 + 2 cos(rho) - 3/2 cos(2 rho).
    tp = expand_free_charfn(unit_lasso_p1)
    assert tp.kind == "cos"
    assert list(zip(tp.freqs, tp.coefs)) == [
        (Fraction(0), -0.5),
        (Fraction(1), 2.0),
        (Fraction(2), -1.5),
    ]


LENGTHS = st.builds(Fraction, st.integers(1, 6), st.integers(1, 4))


@settings(max_examples=50, deadline=None)
@given(
    cycle=LENGTHS,
    pendants=st.lists(LENGTHS, min_size=1, max_size=4),
    unit=st.sampled_from(["1", "pi"]),
)
def test_one_formula_in_two_rings(cycle, pendants, unit):
    # charfn.assemble on exact trig expressions (the expansion) and on
    # propagated zero-potential values, against the hand-written closed forms.
    g = lasso_graph(cycle, pendants, length_unit=unit)
    rho = np.linspace(0.05, 30.0, 400)
    for j in range(g.p + 1):
        if j == 0:
            problem, ref = Problem.neumann(), free_charfn(g, rho)
            exact = expand_free_charfn(g, problem)(rho)
        else:
            problem, ref = Problem.dirichlet(j), free_charfn_dirichlet(g, j, rho)
            exact = expand_free_charfn(g, problem)(rho) / rho
        propagated = charfn_for(g, problem, rho**2)
        bound = 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(exact - ref)) <= bound, problem.label()
        assert np.max(np.abs(propagated - ref)) <= bound, problem.label()


def test_expansion_matches_closed_form_pointwise(pi_lasso):
    tp = expand_free_charfn(pi_lasso)
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.0, 20.0, size=100)
    assert np.max(np.abs(tp(rho) - free_charfn(pi_lasso, rho))) <= 1e-12


def test_zero_frequency_term_is_period_mean(unit_lasso_p1):
    tp = expand_free_charfn(unit_lasso_p1)
    tau = smallest_period(tp)
    rho = np.linspace(0.0, tau, 20001)
    mean = np.trapezoid(tp(rho), rho) / tau
    const = dict(zip(tp.freqs, tp.coefs)).get(Fraction(0), 0.0)
    assert abs(mean - const) < 1e-6


def test_smallest_period_examples():
    poly = TrigPoly("cos", (Fraction(1), Fraction(2)), (1.0, 0.5))
    assert abs(smallest_period(poly) - 2 * math.pi) < 1e-15
    poly2 = TrigPoly("cos", (Fraction(1, 2), Fraction(3, 4)), (1.0, 1.0))
    assert abs(smallest_period(poly2) - 8 * math.pi) < 1e-14
    with pytest.raises(ConstantFunction):
        smallest_period(TrigPoly("cos", (Fraction(0),), (1.0,)))


def test_pi_lasso_period_is_two(pi_lasso):
    tp = expand_free_charfn(pi_lasso)
    assert abs(smallest_period(tp) - 2.0) < 1e-15


def test_frequencies_are_multiples_of_common_measure():
    g = lasso_graph("1/2", ["3/4", "5/4"])
    ell = Fraction(1, 4)  # the largest length dividing 1/2, 3/4 and 5/4
    tp = expand_free_charfn(g)
    for f in tp.freqs:
        assert (f / ell).denominator == 1


def test_period_minimality(pi_lasso):
    tp = expand_free_charfn(pi_lasso)
    tau = smallest_period(tp)
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.0, 40.0, size=1000)
    assert np.max(np.abs(tp(rho + tau) - tp(rho))) <= 1e-10
    for m in (2, 3, 4, 5):
        assert np.max(np.abs(tp(rho + tau / m) - tp(rho))) > 1e-3


def test_base_zeros_pi_lasso(pi_lasso):
    frame = build_frame(pi_lasso, Problem.neumann())
    assert abs(frame.tau - 2.0) < 1e-15
    assert frame.mu0 == 1
    report = frame.alphas_report()
    assert len(report) == 3
    for (alpha, mu), want in zip(report, (0.0, 0.5, 2.0 / 3.0)):
        assert abs(alpha - want) <= 1e-9
        assert mu == 1


def test_base_zeros_interior_double():
    # p = 3, equal lengths: the expansion carries a squared cosine factor,
    # giving a tangential double zero at rho = 1/2 (unit pi).
    g3 = lasso_graph(1, [1, 1, 1], length_unit="pi")
    frame = build_frame(g3, Problem.neumann())
    report = frame.alphas_report()
    assert [round(a, 9) for a, _ in report] == [
        0.0,
        0.5,
        round(math.acos(-0.6) / math.pi, 9),
    ]
    assert [m for _, m in report] == [1, 2, 1]
    families = [(round(f.alpha, 9), f.first, f.mu) for f in frame.families]
    third = round(math.acos(-0.6) / math.pi, 9)
    assert families == [(0.0, None, 1), (0.5, None, 2), (0.5, None, 2), (third, None, 1)]


def test_half_period_zero_warned_and_folded():
    g = lasso_graph(2, [1], length_unit="pi")  # d0 = 6 sin^2(pi rho) cos(pi rho)
    with pytest.warns(HalfPeriodZeroWarning):
        frame = build_frame(g, Problem.neumann())
    with pytest.warns(HalfPeriodZeroWarning):  # again when the frame is cached
        assert build_frame(g, Problem.neumann()) is frame
    assert frame.half_period_zero
    assert frame.half_mult == 2
    # Folded families enumerate tau n + tau/2 once each.
    halves = [f for f in frame.families if f.first == 0]
    assert len(halves) == 2 and all(f.alpha == frame.tau / 2 for f in halves)
    # Zeros on [0, 4]: 0 (one lambda slot), halves (simple), integers (double).
    slots = frame.slots(4.0)
    assert len(slots) == 13
    assert sum(1 for _, _, r in slots if abs(r - 1.0) < 1e-12) == 2


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def _problems(graph):
    return [Problem.neumann()] + [Problem.dirichlet(j) for j in range(1, graph.p + 1)]


def test_frame_is_shared_by_geometry_and_problem():
    # The potential plays no part in the frame: equal lengths share one,
    # with its free graph, whatever sigma is.
    free = lasso_graph(1, [1, 1], length_unit="pi")
    delta = lasso_graph(
        1, [1, 1], potentials=[None, delta_potential(1, "1/2", 0.5), None], length_unit="pi"
    )
    frames = [build_frame(free, problem) for problem in _problems(free)]
    assert all(build_frame(delta, p) is f for p, f in zip(_problems(delta), frames))
    assert all(f.free_graph == free for f in frames)
    # L and each Lj are different problems, with frames of their own.
    assert len({id(f) for f in frames}) == len(frames)
    # The cycle is edge 0: swapping the cycle and the pendant is another geometry.
    swapped = [build_frame(g, Problem.neumann()) for g in (lasso_graph(1, ["1/3"]), lasso_graph("1/3", [1]))]
    assert swapped[0].tau == swapped[1].tau and swapped[0].interior != swapped[1].interior


def test_verify_builds_one_frame(capsys):
    # cmd_verify, checks.verify and compute_catalog each ask for L's frame.
    trigpoly._geometry_frame.cache_clear()
    with mock.patch.object(trigpoly, "base_zeros", wraps=trigpoly.base_zeros) as base_zeros:
        code = cli.main(["verify", "--config", str(CONFIGS[0]), "--rho-max", "20"])
    capsys.readouterr()
    assert CONFIGS[0].name == "lasso_delta.json"
    assert code == 0 and base_zeros.call_count == 1


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_cached_frame_equals_a_fresh_one(config):
    graph = graph_from_json(config)[0]
    for problem in _problems(graph):
        cached = build_frame(graph, problem)
        assert build_frame(graph, problem) is cached
        trigpoly._geometry_frame.cache_clear()
        fresh = build_frame(graph, problem)
        assert fresh is not cached
        for name in ("tau", "poly", "mu0", "interior", "half_mult", "families"):
            assert getattr(cached, name) == getattr(fresh, name), name
        assert cached.window() == fresh.window()


def test_dirichlet_frame_structure(pi_lasso):
    frame = build_frame(pi_lasso, Problem.dirichlet(1))
    assert frame.flavor == "sinc"
    assert frame.mu0 == 0
    report = frame.alphas_report()
    assert [round(a, 9) for a, _ in report] == [0.2, 0.6, 1.0]
    families = [(f.first, round(f.alpha, 9)) for f in frame.families]
    assert families == [(1, 0.0), (None, 0.2), (None, 0.6), (0, 1.0)]
    # rho * d0 is odd and periodic, so tau n (n >= 1) are genuine zeros of d0.
    rho = np.array([2.0, 4.0, 6.0])
    assert np.max(np.abs(free_charfn_dirichlet(pi_lasso, 1, rho))) < 1e-12


def test_dirichlet_expansion_matches_function(pi_lasso):
    sp = expand_free_charfn(pi_lasso, Problem.dirichlet(1))
    assert sp.kind == "sin"
    rho = np.linspace(0.05, 15.0, 301)
    d0 = free_charfn_dirichlet(pi_lasso, 1, rho)
    assert np.max(np.abs(sp(rho) / rho - d0)) <= 1e-12


def test_frame_eval_lambda_matches_eval_rho(pi_lasso):
    # d0 in lambda against the periodic polynomial: d0 itself for L, rho * d0 for Lj.
    rho = np.linspace(0.0, 8.0, 101)[1:]
    for problem in (Problem.neumann(), Problem.dirichlet(2)):
        frame = build_frame(pi_lasso, problem)
        d0 = frame.poly(rho) if frame.flavor == "cos" else frame.poly(rho) / rho
        assert np.allclose(d0, frame.eval_lambda(rho**2), atol=1e-13)


def test_frame_lambda_derivative_at_zero(pi_lasso):
    frame = build_frame(pi_lasso, Problem.neumann())
    # d0(lambda) ~ -3 pi^2 lambda near 0.
    assert abs(frame.lambda_deriv_at_zero(1) + 3 * math.pi**2) < 1e-10
    assert abs(frame.lambda_deriv_at_zero(0)) < 1e-12


def test_frame_json(pi_lasso):
    frame = build_frame(pi_lasso, Problem.neumann())
    blob = frame_to_json(frame)
    assert blob["tau"] == frame.tau
    assert blob["mu0"] == 1
    assert [round(a["alpha"], 4) for a in blob["alphas"]] == [0.0, 0.5, 0.6667]


def test_slot_truncation_count(pi_lasso):
    frame = build_frame(pi_lasso, Problem.neumann())
    # 10 periods: one two-sided zero family (21), two interior families (20 each).
    assert len(frame.slots(10 * frame.tau)) == 61


def test_frame_with_no_interior_zeros():
    # Lengths (2, 1, 1) in units of pi: d0 = -2 sin^2(2 pi rho), tau = 1/2,
    # and the only base zero is rho = 0; delta falls back to tau/2.
    g = lasso_graph(2, [1, 1], length_unit="pi")
    frame = build_frame(g, Problem.neumann())
    assert abs(frame.tau - 0.5) < 1e-15
    assert frame.mu0 == 1
    assert frame.alphas_report() == [(0.0, 1)]
    assert frame.interior == () and frame.half_mult == 0
    assert frame.delta() == frame.tau / 2.0


def zeros_per_period(frame):
    """The frame's zeros on one period: 0, tau/2 and each interior zero twice."""
    sinc = frame.flavor == "sinc"
    return 2 * frame.mu0 + sinc + frame.half_mult + 2 * sum(m for _, m in frame.interior)


def test_triple_base_zero_at_one_half():
    # Cycle 1, pendants 1, 2, 1, 1 (unit pi), L2: rho * d0 has a triple zero at
    # rho = 1/2, which derivative tests at float scan roots split (10 of 12 zeros).
    frame = build_frame(lasso_graph(1, [1, 2, 1, 1], length_unit="pi"), Problem.dirichlet(2))
    assert [(round(a, 6), m) for a, m in frame.interior] == [(0.102699, 1), (0.5, 3), (0.710872, 1)]
    assert abs(frame.interior[1][0] - 0.5) <= 1e-12
    assert frame.half_mult == 1 and zeros_per_period(frame) == 12


@pytest.mark.parametrize("cycle,pendants", [(1, [1, 1, 1, 2]), (3, [1, 3, 1, 2])])
def test_triple_base_zero_at_half_pi(cycle, pendants):
    # L4, unit 1: a triple zero at rho = pi/2 (x = cos rho = 0). Derivative
    # tests at float scan roots split the first (10 of 12 zeros) and place the
    # second at 1.5707962813, 4.5e-8 from pi/2.
    frame = build_frame(lasso_graph(cycle, pendants), Problem.dirichlet(4))
    triples = [a for a, m in frame.interior if m == 3]
    assert len(triples) == 1 and abs(triples[0] - math.pi / 2) <= 1e-12
    assert zeros_per_period(frame) == 2 * max(frame.poly.freqs) / frame.poly.freq_gcd()


def test_zero_count_with_two_double_base_zeros():
    # Cycle 1/2, pendants 1, 2, 3 (unit 1), L2: 2K = 26 zeros per period, with
    # doubles at pi/2 and 3 pi/2; derivative tests at float scan roots count 34.
    frame = build_frame(lasso_graph("1/2", [1, 2, 3]), Problem.dirichlet(2))
    assert 2 * max(frame.poly.freqs) / frame.poly.freq_gcd() == 26
    assert zeros_per_period(frame) == 26
    doubles = [a for a, m in frame.interior if m == 2]
    assert np.max(np.abs(np.array(doubles) - [math.pi / 2, 3 * math.pi / 2])) <= 1e-12
    assert all(m in (1, 2) for _, m in frame.interior)


FREE_LENGTHS = st.builds(Fraction, st.integers(1, 4), st.integers(1, 2))


@st.composite
def free_lasso_problems(draw):
    """A free lasso whose lengths often repeat (multiple base zeros), and L or an Lj."""
    pool = draw(st.lists(FREE_LENGTHS, min_size=1, max_size=2))
    lengths = draw(st.lists(st.one_of(st.sampled_from(pool), FREE_LENGTHS), min_size=2, max_size=5))
    g = lasso_graph(lengths[0], lengths[1:], length_unit=draw(st.sampled_from(["1", "pi"])))
    j = draw(st.integers(0, g.p))
    return g, Problem.dirichlet(j) if j else Problem.neumann()


@settings(max_examples=25, deadline=None)
@given(free_lasso_problems())
def test_frame_grid_matches_the_oracle(case):
    # At zero potential the grid rho0 = |tau n + alpha| is the spectrum itself.
    g, problem = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HalfPeriodZeroWarning)  # folded families are tested too
        frame = build_frame(g, problem)
    rho_max = frame.tau
    while len(frame.slots(rho_max)) < ORACLE_COUNT:
        rho_max += frame.tau
    grid = np.array(sorted(r * r for _, _, r in frame.slots(rho_max))[:ORACLE_COUNT])
    oracle = richardson_eigs(g, problem, ORACLE_COUNT, 60.0)
    assert np.max(np.abs(grid - oracle) / np.maximum(1.0, np.abs(oracle))) <= ORACLE_TOL


@settings(max_examples=40, deadline=None)
@given(free_lasso_problems())
@example((lasso_graph(2, [1, 1, 1, 1]), Problem.neumann()))  # a zero of order 4 at tau/2
def test_frame_zeros_against_a_40_digit_reference(case):
    # Each base zero alpha of rho-order m is a simple root of the (m-1)-th
    # derivative of the trig polynomial: mpmath.findroot at 40 digits, started
    # at the frame's alpha, lands within 1e-12 of it, the lower derivatives
    # vanish there and the m-th does not. With the count 2K per period, the
    # frame's zeros are all the zeros there are.
    g, problem = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HalfPeriodZeroWarning)
        frame = build_frame(g, problem)
    poly = frame.poly
    order_at_zero = 2 * frame.mu0 + (poly.kind == "sin")
    zeros = list(frame.interior)
    if order_at_zero:
        zeros.append((0.0, order_at_zero))
    if frame.half_mult:
        zeros.append((frame.tau / 2.0, frame.half_mult))
    with mpmath.workdps(40):
        unit = mpmath.pi if g.length_unit == "pi" else 1
        terms = [
            (mpmath.mpf(f.numerator) / f.denominator * unit, mpmath.mpf(c.numerator) / c.denominator)
            for f, c in zip(poly.freqs, poly.coefs)
        ]
        phase = 0 if poly.kind == "cos" else -mpmath.pi / 2  # sin y = cos(y - pi/2)

        def deriv(order, rho):
            return sum(c * w**order * mpmath.cos(w * rho + phase + order * mpmath.pi / 2) for w, c in terms)

        def scale(order):
            return sum(abs(c) * w**order for w, c in terms)

        roots = []
        for alpha, m in zeros:
            root = mpmath.findroot(
                lambda r: deriv(m - 1, r), mpmath.mpf(alpha), solver="newton", df=lambda r: deriv(m, r)
            )
            assert abs(root - alpha) <= 1e-12
            for k in range(m - 1):
                assert abs(deriv(k, root)) <= 1e-25 * scale(k)
            assert abs(deriv(m, root)) > 1e-15 * scale(m)
            roots.append(root)
    roots.sort()
    assert all(b - a > 1e-9 for a, b in zip(roots, roots[1:]))
    assert zeros_per_period(frame) == 2 * max(poly.freqs) / poly.freq_gcd()
