import math
from fractions import Fraction

import numpy as np
import pytest
from free_reference import free_charfn, free_charfn_dirichlet
from hypothesis import given, settings
from hypothesis import strategies as st

from lasso_spectra.charfn import charfn_for
from lasso_spectra.errors import ConstantFunction, HalfPeriodZeroWarning
from lasso_spectra.graph import Problem, lasso_graph
from lasso_spectra.trigpoly import (
    TrigPoly,
    build_frame,
    expand_free_charfn,
    frame_to_json,
    smallest_period,
)


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


def test_derivative_is_exact(pi_lasso):
    tp = expand_free_charfn(pi_lasso)
    d1 = tp.derivative()
    rho = np.linspace(0.2, 3.0, 41)
    h = 1e-6
    numeric = (tp(rho + h) - tp(rho - h)) / (2 * h)
    assert np.max(np.abs(d1(rho) - numeric)) < 1e-6


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
    kinds = [(f.kind, f.mu) for f in frame.families]
    assert kinds == [("zero2", 1), ("interior", 2), ("interior", 2), ("interior", 1)]


def test_half_period_zero_warned_and_folded():
    g = lasso_graph(2, [1], length_unit="pi")  # d0 = 6 sin^2(pi rho) cos(pi rho)
    with pytest.warns(HalfPeriodZeroWarning):
        frame = build_frame(g, Problem.neumann())
    assert frame.half_period_zero
    assert frame.half_mult == 2
    # Folded families enumerate tau n + tau/2 once each.
    halves = [f for f in frame.families if f.kind == "half"]
    assert len(halves) == 2
    # Zeros on [0, 4]: 0 (one lambda slot), halves (simple), integers (double).
    slots = frame.slots(4.0)
    assert len(slots) == 13
    assert sum(1 for _, _, r in slots if abs(r - 1.0) < 1e-12) == 2


def test_dirichlet_frame_structure(pi_lasso):
    frame = build_frame(pi_lasso, Problem.dirichlet(1))
    assert frame.flavor == "sinc"
    assert frame.mu0 == 0
    report = frame.alphas_report()
    assert [round(a, 9) for a, _ in report] == [0.2, 0.6, 1.0]
    kinds = [f.kind for f in frame.families]
    assert kinds == ["zero1", "interior", "interior", "half"]
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
    for problem in (Problem.neumann(), Problem.dirichlet(2)):
        frame = build_frame(pi_lasso, problem)
        rho = np.linspace(0.0, 8.0, 101)
        assert np.allclose(frame.eval_rho(rho), frame.eval_lambda(rho**2), atol=1e-13)


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
