import math
from fractions import Fraction

import mpmath
import numpy as np
import propagate_reference
import pytest
from free_reference import free_charfn, free_charfn_dirichlet
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lasso_spectra import charfn
from lasso_spectra.charfn import assemble, charfn_for, weyl
from lasso_spectra.errors import BadIndex, NearPole
from lasso_spectra.graph import PotentialSpec, Problem, delta_potential, lasso_graph
from lasso_spectra.propagate import Steps, fundamental_solutions


def test_cycle_charfn_free(unit_lasso_p1):
    def cycle(lam):
        f0 = fundamental_solutions(unit_lasso_p1.segments[0], lam)
        return f0.C + f0.S1 - 2.0

    assert abs(cycle((2 * math.pi) ** 2)) < 1e-12
    assert cycle(0.0) == 0.0
    assert abs(cycle(math.pi**2) + 4.0) < 1e-12


def test_charfn_p2_frozen_value():
    g2 = lasso_graph(1, [1, 1])
    want = math.sin(1) * (-math.sin(2)) + 2 * (math.cos(1) - 1) * math.cos(1) ** 2
    assert abs(charfn_for(g2, Problem.neumann(), 1.0) - want) < 1e-13


def test_charfn_vanishes_at_zero_for_free_graph():
    for g in (lasso_graph(1, [1, 1]), lasso_graph("1/2", ["3/4", 1, 2])):
        assert abs(charfn_for(g, Problem.neumann(), 0.0)) < 1e-14


def test_charfn_p1_closed_form(unit_lasso_p1):
    rho = np.linspace(0.0, 30.0, 301)
    c = np.cos(rho)
    want = (1 - c) * (3 * c + 1)
    got = charfn_for(unit_lasso_p1, Problem.neumann(), rho**2)
    assert np.max(np.abs(got - want)) < 1e-11


def test_charfn_dirichlet_p1_closed_form(unit_lasso_p1):
    # Hand-derived secular determinant: zeros at sin(rho) = 0 and cos(rho) = 2/3.
    rho = np.linspace(0.1, 30.0, 301)
    want = -(np.sin(rho) / rho) * (3 * np.cos(rho) - 2)
    got = charfn_for(unit_lasso_p1, Problem.dirichlet(1), rho**2)
    assert np.max(np.abs(got - want)) < 1e-11


def test_charfn_dirichlet_nonzero_at_lambda_zero(unit_lasso_p1):
    # Dirichlet at the pendant end excludes constants: 0 is not an eigenvalue.
    assert abs(charfn_for(unit_lasso_p1, Problem.dirichlet(1), 0.0) + 1.0) < 1e-14


def test_assembly_identity_for_dirichlet():
    g = lasso_graph(1, [1, 1, 2], potentials=None)
    lam = 3.7
    want = free_charfn_dirichlet(g, 2, math.sqrt(lam))
    assert abs(charfn_for(g, Problem.dirichlet(2), lam) - want) < 1e-13


def test_bad_index():
    g = lasso_graph(1, [1, 1])
    with pytest.raises(BadIndex):
        charfn_for(g, Problem.dirichlet(3), 1.0)
    with pytest.raises(BadIndex):
        charfn_for(g, Problem.dirichlet(0), 1.0)
    with pytest.raises(BadIndex):
        charfn_for(g, Problem("neumann", 1), 1.0)
    with pytest.raises(BadIndex):
        weyl(g, -1, 1.0)


def test_free_charfn_pi_lasso_value(pi_lasso):
    # All lengths pi, rho = 1: 2(cos pi - 1) cos^2 pi - 0 = -4.
    assert abs(free_charfn(pi_lasso, 1.0) + 4.0) < 1e-12
    assert free_charfn(pi_lasso, 0.0) == 0.0


def test_free_charfn_matches_assembled_on_zero_potential(pi_lasso):
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.0, 50.0, size=100)
    direct = charfn_for(pi_lasso, Problem.neumann(), rho**2)
    closed = free_charfn(pi_lasso, rho)
    assert np.max(np.abs(direct - closed)) <= 1e-12 * np.max(np.abs(closed))


def test_free_charfn_dirichlet_matches_assembled(pi_lasso):
    rng = np.random.default_rng(4)
    rho = rng.uniform(0.0, 40.0, size=100)
    direct = charfn_for(pi_lasso, Problem.dirichlet(1), rho**2)
    closed = free_charfn_dirichlet(pi_lasso, 1, rho)
    assert np.max(np.abs(direct - closed)) <= 1e-12 * np.max(np.abs(closed))


def test_evenness_in_rho(pi_lasso):
    rho = np.linspace(0.0, 12.0, 57)
    assert np.array_equal(free_charfn(pi_lasso, rho), free_charfn(pi_lasso, -rho))
    assert np.array_equal(
        free_charfn_dirichlet(pi_lasso, 2, rho), free_charfn_dirichlet(pi_lasso, 2, -rho)
    )


def test_sign_convention_p_even():
    g = lasso_graph(1, [1, 1])
    assert charfn_for(g, Problem.neumann(), -50.0) > 0.0  # (-1)^p = +1 dominates as lambda -> -inf


@pytest.mark.parametrize("lam,tol", [(-1e3, 1e-2), (-1e4, 1e-3)])
def test_ratio_to_free_tends_to_one(lam, tol):
    # Deviation decays like c / (4 sqrt(|lambda|)): c = 0.25 sits inside the
    # 1e-3 budget at lambda = -1e4 (c = 0.5 would land at 1.25e-3).
    g = lasso_graph(
        1, [1, 1], potentials=[None, delta_potential(1, "1/2", 0.25), None]
    )
    free_twin = lasso_graph(1, [1, 1])
    ratio = charfn_for(g, Problem.neumann(), lam) / charfn_for(
        free_twin, Problem.neumann(), lam
    )
    assert abs(ratio - 1.0) <= tol


def test_weyl_far_below_spectrum(unit_lasso_p1):
    lam = -100.0
    k = 10.0
    num = -(math.sinh(k) / k) * (3 * math.cosh(k) - 2)
    den = (1 - math.cosh(k)) * (3 * math.cosh(k) + 1)
    assert abs(weyl(unit_lasso_p1, 1, lam) - num / den) < 1e-12


def test_weyl_near_pole(unit_lasso_p1):
    with pytest.raises(NearPole):
        weyl(unit_lasso_p1, 1, (2 * math.pi) ** 2)


def test_charfn_for_dispatch(pi_lasso):
    lam = 2.2
    fs = [fundamental_solutions(segs, lam) for segs in pi_lasso.segments]
    assert charfn_for(pi_lasso, Problem.neumann(), lam) == assemble(fs, 0)
    assert charfn_for(pi_lasso, Problem.dirichlet(2), lam) == assemble(fs, 2)


# The compiled evaluation against the step products where its plan derives a
# length by the group law: both round the trig arguments rho h (relative
# eps) and then the terms of the polynomial, so they differ by up to
# SUM_TOL x (1 + sqrt|lambda| x the total length) x the terms' scale
# (propagate_reference.magnitude); the largest seen in 7,000 random lassos
# was 177 eps.
SUM_TOL = 1024 * np.finfo(float).eps


def assert_like_step_products(graph, j, lam, got, want):
    """got is want byte for byte where want is finite, or within SUM_TOL of
    it where graph's plan derives a length; non-finite where want is."""
    finite = np.isfinite(want)
    if graph.plan.sums:
        total = sum(graph.edge_length(k) for k in range(graph.p + 1))
        bound = propagate_reference.magnitude(graph, j, lam) * (1.0 + np.sqrt(np.abs(lam)) * total)
        bound = np.broadcast_to(bound, want.shape)
        assert np.all(np.abs(got[finite] - want[finite]) <= SUM_TOL * bound[finite])
    else:
        assert got[finite].tobytes() == want[finite].tobytes()
    assert not np.isfinite(got[~finite]).any()


def test_blocked_evaluation_matches_whole_array(delta_lasso):
    """Arrays longer than BLOCK_POINTS are evaluated block by block, with the
    bytes of one whole-array evaluation. Each pendant propagates only the
    column that assemble reads; the values are those of the whole
    propagators over the whole array, byte for byte where the plan derives
    no length. delta_lasso's segments are pi and pi / 2, so pi is derived;
    the other graph's are 1, 3/10 and 4/10, none a sum of two."""
    trig_only = lasso_graph(1, ["7/10", 1], potentials=[None, delta_potential("7/10", "3/10", 0.5), None])
    assert delta_lasso.plan.sums and not trig_only.plan.sums
    n = 3 * charfn.BLOCK_POINTS + 17
    lam = np.concatenate(
        [np.linspace(-400.0, -1e-3, n // 3), np.linspace(-1e-5, 1e-5, 101), np.linspace(0.0, 4e4, n - n // 3 - 101)]
    )
    for graph in (delta_lasso, trig_only):
        fs = [fundamental_solutions(segs, lam) for segs in graph.segments]
        for problem in (Problem.neumann(), Problem.dirichlet(1), Problem.dirichlet(2)):
            whole = charfn._evaluate(graph, lam, problem.j)
            got = charfn_for(graph, problem, lam)
            assert got.tobytes() == whole.tobytes()
            assert_like_step_products(graph, problem.j, lam, got, assemble(fs, problem.j))
            square = charfn_for(graph, problem, lam[: 90 * 90].reshape(90, 90))
            assert square.shape == (90, 90)
            assert square.tobytes() == whole[: 90 * 90].tobytes()


_LENGTHS = st.fractions(min_value="1/4", max_value=3, max_denominator=4)
_STRENGTHS = st.floats(min_value=-50.0, max_value=50.0)


@st.composite
def _edge_potential(draw, length):
    """None (sigma = 0) or one or two deltas at rational interior points."""
    if draw(st.booleans()):
        return None
    cuts = sorted(set(draw(st.lists(st.integers(1, 7), min_size=1, max_size=2))))
    breakpoints = [0, *(length * c / 8 for c in cuts), length]
    values = [0.0]
    for _ in cuts:
        values.append(values[-1] + draw(_STRENGTHS))
    return PotentialSpec(tuple(breakpoints), tuple(values))


@st.composite
def _lassos(draw):
    """p = 1..4 pendants drawn with replacement from at most three, so that
    equal pendants recur; deltas on the cycle and on the pendants."""
    cycle = draw(_LENGTHS)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(_LENGTHS)
        pool.append((length, draw(_edge_potential(length))))
    pendants = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    return lasso_graph(
        cycle,
        [length for length, _ in pendants],
        potentials=[draw(_edge_potential(cycle))] + [pot for _, pot in pendants],
        length_unit=draw(st.sampled_from(["1", "pi"])),
    )


# Below 0 (down past cosh overflow), the series region |lambda| h^2 <= 1e-4
# (with +-0.0) and around its switch, and above 0; a nan must leave the other
# points as they are.
_LAMBDAS = st.lists(
    st.one_of(
        st.floats(min_value=-1e7, max_value=-1e-3),
        st.sampled_from([0.0, -0.0, np.nan]),
        st.floats(min_value=-1e-6, max_value=1e-6),
        st.floats(min_value=-1e-3, max_value=1e-3),
        st.floats(min_value=1e-3, max_value=1e4),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(graph=_lassos(), lams=_LAMBDAS)
# The pendant length pi/4 = pi/32 + 7pi/32 is derived; at lambda = 4 its cos
# is 6e-17, which is no scale for the rounding of the group law.
@example(
    graph=lasso_graph(
        Fraction(1, 4),
        [Fraction(1, 4), Fraction(1, 4)],
        potentials=[PotentialSpec((0, Fraction(1, 32), Fraction(1, 4)), (0.0, 0.0)), None, None],
        length_unit="pi",
    ),
    lams=[4.0],
)
def test_compiled_evaluation_matches_segment_products(graph, lams):
    """L and every Lj equal assemble on the per-segment step products where
    those are finite (byte for byte where the plan derives no length, else
    within SUM_TOL), and are non-finite where they are not; for a scalar
    lambda as for the array."""
    lam = np.array(lams)
    for j in range(graph.p + 1):
        problem = Problem.dirichlet(j) if j else Problem.neumann()
        with np.errstate(all="ignore"):
            want = np.asarray(propagate_reference.charfn(graph, j, lam))
            got = charfn_for(graph, problem, lam)
            want0 = propagate_reference.charfn(graph, j, lams[0])
            got0 = charfn_for(graph, problem, lams[0])
            assert type(got0) is float
            for x, got, want in ((lam, got, want), (lam[:1], np.array([got0]), np.array([want0]))):
                assert_like_step_products(graph, j, x, got, want)


def test_equal_pendants_propagate_once(monkeypatch):
    """Edges with equal segments propagate each column once per call: three
    equal pendants cost one C column, or one S and one C column when one of
    them is pinned; a pendant equal to the cycle reuses the cycle's C."""
    columns = []
    propagate_column = Steps.column

    def counted(self, steps, name):
        columns.append(name)
        return propagate_column(self, steps, name)

    monkeypatch.setattr(Steps, "column", counted)
    kick = delta_potential(1, "1/3", -7.5)
    graph = lasso_graph(
        1, [1, 1, 1, 2], potentials=[delta_potential(1, "1/2", 2.0), kick, kick, kick, None]
    )
    lam = np.linspace(-20.0, 60.0, 178)
    for j, want in ((0, ["C", "S", "C", "C"]), (2, ["C", "S", "C", "S", "C"])):
        columns.clear()
        got = charfn_for(graph, Problem.dirichlet(j) if j else Problem.neumann(), lam)
        assert columns == want
        # 2/3 = 1/3 + 1/3 is derived: the values within SUM_TOL.
        assert_like_step_products(graph, j, lam, got, propagate_reference.charfn(graph, j, lam))
    free = lasso_graph(1, [1, 1], length_unit="pi")
    columns.clear()
    charfn_for(free, Problem.neumann(), lam)
    assert columns == ["C", "S"]


@st.composite
def _commensurable_lassos(draw):
    """p = 1..4; every edge length n/d <= 1 (d <= 12, one d per graph, so that
    sums recur), unit 1 or pi; on each edge up to two breakpoints at multiples
    of 1/d, sigma starting and jumping by up to |20|."""
    d = draw(st.integers(1, 12))
    jumps = st.floats(min_value=-20.0, max_value=20.0)
    lengths, potentials = [], []
    for _ in range(draw(st.integers(2, 5))):  # the cycle and p pendants
        n = draw(st.integers(1, d))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) if n > 1 else []
        values = [draw(jumps)]
        for _ in cuts:
            values.append(values[-1] + draw(jumps))
        breakpoints = (0, *(Fraction(c, d) for c in cuts), Fraction(n, d))
        lengths.append(Fraction(n, d))
        potentials.append(PotentialSpec(breakpoints, tuple(values)))
    unit = draw(st.sampled_from(["1", "pi"]))
    return lasso_graph(lengths[0], lengths[1:], potentials=potentials, length_unit=unit)


# Below 0, the series region (|lambda| h^2 <= 1e-4 for every h <= pi) with
# +-0.0, above 0, and a nan, which must leave the other points as they are.
_ACCURACY_LAMBDAS = st.lists(
    st.one_of(
        st.floats(min_value=-1e3, max_value=1e4),
        st.floats(min_value=-1e-5, max_value=1e-5),
        st.sampled_from([0.0, -0.0, np.nan]),
    ),
    min_size=1,
    max_size=12,
)


def _no_less_accurate_than_per_length_trig(graph, lams):
    """Against a 40-digit mpmath step product, charfn_for's largest error on
    L and every Lj is at most twice the per-length path's (one trig pair per
    distinct length, propagate_reference) plus 16 eps of the largest
    rounding scale, and it is finite wherever that path is."""
    lam = np.array(lams)
    total = sum(graph.edge_length(k) for k in range(graph.p + 1))
    with mpmath.workdps(40):
        exact = [mpmath.nan if math.isnan(x) else propagate_reference.mp_fundamental(graph, x) for x in lams]
        for j in range(graph.p + 1):
            with np.errstate(all="ignore"):
                got = charfn_for(graph, Problem.dirichlet(j) if j else Problem.neumann(), lam)
                trig = propagate_reference.charfn(graph, j, lam)
            finite = np.isfinite(trig)
            assert np.isfinite(got[finite]).all()
            want = [assemble(fs, j) for fs, keep in zip(exact, finite) if keep]
            if not want:
                continue

            def error(values):
                return max(float(abs(mpmath.mpf(x) - w)) for x, w in zip(values[finite].tolist(), want))

            # Not 16 eps of |mp| alone: either path rounds the trig arguments
            # rho h and then the function's terms, which near a zero of the
            # function are larger than its value (see SUM_TOL).
            scale = np.max((propagate_reference.magnitude(graph, j, lam) * (1.0 + np.sqrt(np.abs(lam)) * total))[finite])
            assert error(got) <= 2.0 * error(trig) + 16 * np.finfo(float).eps * scale


@settings(max_examples=25, deadline=None)
@given(graph=_commensurable_lassos(), lams=_ACCURACY_LAMBDAS)
def test_group_law_is_as_accurate_as_trig_per_length(graph, lams):
    _no_less_accurate_than_per_length_trig(graph, lams)


@pytest.mark.sweep
@settings(max_examples=1500, deadline=None)
@given(graph=_commensurable_lassos(), lams=_ACCURACY_LAMBDAS)
def test_group_law_accuracy_sweep(graph, lams):
    _no_less_accurate_than_per_length_trig(graph, lams)


@pytest.mark.parametrize(
    "lengths, generators",
    [
        (["1/3", "2/3", 1], ["1/3"]),
        (["1/4", "3/4", 1], ["1/4", "3/4"]),
        (["97/100", 1], ["97/100", 1]),
        # 0.1 + 0.2 != 0.3 in floats: sums are decided on the exact lengths.
        (["1/10", "2/10", "3/10"], ["1/10"]),
    ],
)
def test_plan_derives_each_sum_of_shorter_lengths(lengths, generators):
    """Trig only for the generators; every other length is the sum of two
    lengths before it in the plan's order of derivation."""
    plan = lasso_graph(lengths[0], lengths[1:]).plan
    derived = [k for k, _, _ in plan.sums]
    assert sorted(h for k, h in enumerate(plan.lengths) if k not in derived) == [
        float(Fraction(x)) for x in generators
    ]
    assert len(derived) == len(lengths) - len(generators)
    for n, (k, i, j) in enumerate(plan.sums):
        assert i not in derived[n:] and j not in derived[n:]
        assert math.isclose(plan.lengths[k], plan.lengths[i] + plan.lengths[j], rel_tol=1e-15)
    assert 0.1 + 0.2 != 0.3


def test_graph_without_sums_evaluates_by_trig_per_length():
    """Where no length is a sum of two, every length takes its trig pair:
    the values of the per-length path, byte for byte."""
    graph = lasso_graph("97/100", [1, "3/4"], potentials=[None, delta_potential(1, "2/5", 2.5), None])
    assert not graph.plan.sums
    lam = np.r_[np.linspace(-800.0, 0.0, 301), -1e-7, 1e-7, np.linspace(0.0, 4e4, 301)]
    for j in range(3):
        got = charfn_for(graph, Problem.dirichlet(j) if j else Problem.neumann(), lam)
        assert got.tobytes() == propagate_reference.charfn(graph, j, lam).tobytes()
