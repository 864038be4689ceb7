import math

import numpy as np
import propagate_reference
import pytest
from free_reference import free_charfn, free_charfn_dirichlet
from hypothesis import given, settings
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


def test_blocked_evaluation_matches_whole_array(delta_lasso):
    """Arrays longer than BLOCK_POINTS are evaluated block by block, and each
    pendant propagates only the column that assemble reads; the values are
    those of the whole propagators over the whole array, byte for byte."""
    n = 3 * charfn.BLOCK_POINTS + 17
    lam = np.concatenate(
        [np.linspace(-400.0, -1e-3, n // 3), np.linspace(-1e-5, 1e-5, 101), np.linspace(0.0, 4e4, n - n // 3 - 101)]
    )
    fs = [fundamental_solutions(segs, lam) for segs in delta_lasso.segments]
    for problem in (Problem.neumann(), Problem.dirichlet(1), Problem.dirichlet(2)):
        whole = assemble(fs, problem.j)
        got = charfn_for(delta_lasso, problem, lam)
        assert got.tobytes() == whole.tobytes()
        square = charfn_for(delta_lasso, problem, lam[: 90 * 90].reshape(90, 90))
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
def test_compiled_evaluation_matches_segment_products(graph, lams):
    """L and every Lj equal assemble on the per-segment step products, byte
    for byte where those are finite, and are non-finite where they are not;
    for a scalar lambda as for the array."""
    lam = np.array(lams)
    for j in range(graph.p + 1):
        problem = Problem.dirichlet(j) if j else Problem.neumann()
        with np.errstate(all="ignore"):
            want = np.asarray(propagate_reference.charfn(graph, j, lam))
            got = charfn_for(graph, problem, lam)
            want0 = propagate_reference.charfn(graph, j, lams[0])
            got0 = charfn_for(graph, problem, lams[0])
        assert type(got0) is float
        for got, want in ((got, want), (np.array([got0]), np.array([want0]))):
            finite = np.isfinite(want)
            assert got[finite].tobytes() == want[finite].tobytes()
            assert not np.isfinite(got[~finite]).any()


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
        assert got.tobytes() == propagate_reference.charfn(graph, j, lam).tobytes()
    free = lasso_graph(1, [1, 1], length_unit="pi")
    columns.clear()
    charfn_for(free, Problem.neumann(), lam)
    assert columns == ["C", "S"]
