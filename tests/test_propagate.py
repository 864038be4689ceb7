import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from propagate_reference import StateMatrix, step_matrix
from scipy.integrate import solve_ivp

from lasso_spectra.graph import (
    EdgeSpec,
    PotentialSpec,
    delta_potential,
    lasso_graph,
    zero_potential,
)
from lasso_spectra.propagate import SERIES_SWITCH, fundamental_solutions, phi_pair


def test_phi_pair_lambda_zero():
    assert phi_pair(0.0, 2.5) == (1.0, 2.5)


def test_phi_pair_rho_pi():
    phi0, phi1 = phi_pair(math.pi**2, 1.0)
    assert abs(phi0 + 1.0) < 1e-14
    assert abs(phi1) < 1e-14


def test_phi_pair_hyperbolic():
    phi0, phi1 = phi_pair(-1.0, 1.0)
    assert abs(phi0 - math.cosh(1.0)) < 1e-14
    assert abs(phi1 - math.sinh(1.0)) < 1e-14


@pytest.mark.parametrize("lam", [1e-5, -1e-5, 9e-5, -9e-5, 1e-9, 0.0])
def test_phi_pair_series_region_against_mpmath(lam):
    # 50-digit reference across the series/closed-form switch.
    mpmath.mp.dps = 50
    h = 1.0
    z = mpmath.mpf(lam) * h * h
    rho = mpmath.sqrt(abs(z))
    if lam > 0:
        ref0, ref1 = mpmath.cos(rho), mpmath.sin(rho) / rho
    elif lam < 0:
        ref0, ref1 = mpmath.cosh(rho), mpmath.sinh(rho) / rho
    else:
        ref0, ref1 = mpmath.mpf(1), mpmath.mpf(1)
    phi0, phi1 = phi_pair(lam, h)
    assert abs(phi0 - float(ref0)) <= 1e-15
    assert abs(phi1 - float(ref1)) <= 1e-15


def test_phi_pair_relative_accuracy_large_argument():
    # |lambda| h^2 up to 1e4 on both branches.
    for lam in (1e4, -1e4, 123.456, -321.0):
        phi0, phi1 = phi_pair(lam, 1.0)
        mpmath.mp.dps = 40
        r = mpmath.sqrt(abs(mpmath.mpf(lam)))
        if lam > 0:
            ref0, ref1 = mpmath.cos(r), mpmath.sin(r) / r
        else:
            ref0, ref1 = mpmath.cosh(r), mpmath.sinh(r) / r
        assert abs(phi0 - float(ref0)) <= 1e-13 * max(1.0, abs(float(ref0)))
        assert abs(phi1 - float(ref1)) <= 1e-13 * max(1.0, abs(float(ref1)))


def test_phi_pair_array_matches_scalar():
    lam = np.array([-4.0, -1e-6, 0.0, 1e-6, 7.0, 300.0])
    phi0, phi1 = phi_pair(lam, 0.7)
    for i, x in enumerate(lam):
        s0, s1 = phi_pair(float(x), 0.7)
        assert phi0[i] == s0 and phi1[i] == s1


@pytest.mark.parametrize("h", [0.3, math.pi / 7, 2.0])
def test_phi_pair_positive_fast_path_is_bit_identical(h):
    # Block 0 straddles 0 and the series switch (the masked path); the blocks
    # of charfn.BLOCK_POINTS = 4096 after it lie past the switch (no masks).
    switch = SERIES_SWITCH / (h * h)
    lam = np.r_[np.linspace(-3 * switch, 3 * switch, 101), np.linspace(4 * switch, 60.0, 3 * 4096 + 37)]
    assert lam[4096] * h * h > SERIES_SWITCH
    whole = phi_pair(lam, h)
    past = np.flatnonzero(lam * h * h > SERIES_SWITCH)
    blocks = [slice(start, start + 4096) for start in range(0, lam.size, 4096)]
    for part in blocks + [past, past[:37], past[-4097:]]:
        got = phi_pair(lam[part], h)
        assert got[0].tobytes() == whole[0][part].tobytes()
        assert got[1].tobytes() == whole[1][part].tobytes()


@pytest.mark.parametrize("h", [0.3, math.pi / 7, 2.0])
def test_phi_pair_negative_fast_path_is_bit_identical(h):
    # The blocks of charfn.BLOCK_POINTS = 4096 before the last lie below the
    # series switch, down past cosh overflow (no masks); the last straddles
    # the switch and 0 (the masked path).
    switch = SERIES_SWITCH / (h * h)
    deep = -((720.0 / h) ** 2)  # cosh(720) overflows
    lam = np.r_[np.linspace(deep, -4 * switch, 3 * 4096 + 37), np.linspace(-3 * switch, 3 * switch, 101)]
    assert lam[3 * 4096 - 1] * h * h < -SERIES_SWITCH
    with np.errstate(all="raise"):
        whole = phi_pair(lam, h)
        past = np.flatnonzero(lam * h * h < -SERIES_SWITCH)
        blocks = [slice(start, start + 4096) for start in range(0, lam.size, 4096)]
        for part in blocks + [past, past[:37], past[-4097:]]:
            got = phi_pair(lam[part], h)
            assert got[0].tobytes() == whole[0][part].tobytes()
            assert got[1].tobytes() == whole[1][part].tobytes()
    assert np.isinf(whole[0][0]) and np.isinf(whole[1][0])


def _one_step(sigma, h, lam):
    """The propagator [[a, b], [c, d]] over one constant-sigma segment, as the
    end values of a one-segment edge: (C, S, C1, S1)."""
    f = fundamental_solutions(((sigma, h),), lam)
    return f.C, f.S, f.C1, f.S1


def test_step_matrix_free_forms():
    rho = 1.7
    m = _one_step(0.0, 1.0, rho**2)
    assert np.allclose(
        m,
        [math.cos(rho), math.sin(rho) / rho, -rho * math.sin(rho), math.cos(rho)],
        atol=1e-14,
    )
    assert _one_step(0.0, 0.8, 0.0) == (1.0, 0.8, 0.0, 1.0)


def test_step_matrix_sigma_one_shear():
    m = _one_step(1.0, 1.0, 0.0)
    assert np.allclose(m, [2.0, 1.0, -1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("sigma,h,lam", [(1.0, 1.0, 0.0), (1.0, 1.0, 2.7), (-2.0, 0.6, -3.0)])
def test_step_matrix_against_rk_oracle(sigma, h, lam):
    def rhs(_, y):
        return [sigma * y[0] + y[1], -(sigma**2 + lam) * y[0] - sigma * y[1]]

    a, b, c, d = _one_step(sigma, h, lam)
    for y0, want in (([1.0, 0.0], (a, c)), ([0.0, 1.0], (b, d))):
        sol = solve_ivp(rhs, (0.0, h), y0, rtol=1e-12, atol=1e-14)
        assert np.allclose(sol.y[:, -1], want, atol=1e-9)


def test_step_matrix_determinant_one():
    for sigma, h, lam in [(0.3, 0.5, 11.0), (5.0, 1.2, -2.0), (-1.0, 2.0, 0.0)]:
        a, b, c, d = _one_step(sigma, h, lam)
        assert abs(a * d - b * c - 1.0) < 1e-12


def test_fundamental_free_edge_closed_form():
    edge = EdgeSpec(1, 1, "pendant", zero_potential(1))
    f = fundamental_solutions(edge.segments(), math.pi**2)
    assert abs(f.C + 1.0) < 1e-12 and abs(f.S1 + 1.0) < 1e-12
    assert abs(f.C1) < 1e-11 and abs(f.S) < 1e-12
    f0 = fundamental_solutions(edge.segments(), 0.0)
    assert (f0.C, f0.C1, f0.S, f0.S1) == (1.0, 0.0, 1.0, 1.0)


def test_fundamental_two_segment_against_ode_oracle():
    # sigma = 0 on (0, 1/2), 1 on (1/2, 1); lambda = 1.
    edge = EdgeSpec(1, 1, "pendant", PotentialSpec((0, "1/2", 1), (0.0, 1.0)))
    lam = 1.0

    def rhs(x, y):
        s = 0.0 if x < 0.5 else 1.0
        return [s * y[0] + y[1], -(s * s + lam) * y[0] - s * y[1]]

    f = fundamental_solutions(edge.segments(), lam)
    for y0, want in (([1.0, 0.0], (f.C, f.C1)), ([0.0, 1.0], (f.S, f.S1))):
        sol = solve_ivp(rhs, (0.0, 1.0), y0, rtol=1e-11, atol=1e-13, max_step=0.01)
        assert np.allclose(sol.y[:, -1], want, atol=1e-8)


@settings(max_examples=150, deadline=None)
@given(
    lam=st.floats(min_value=-4.0, max_value=400.0),
    strength=st.floats(min_value=-5.0, max_value=5.0),
    position=st.fractions(min_value="1/10", max_value="9/10"),
)
def test_wronskian_with_delta_potentials(lam, strength, position):
    edge = EdgeSpec(1, 1, "pendant", delta_potential(1, position, strength))
    f = fundamental_solutions(edge.segments(), lam)
    assert abs(f.wronskian() - 1.0) <= 1e-10


def test_segment_splitting_consistency():
    whole = EdgeSpec(1, 1, "pendant", PotentialSpec((0, 1), (0.7,)))
    split = EdgeSpec(1, 1, "pendant", PotentialSpec((0, "1/3", 1), (0.7, 0.7)))
    for lam in (-3.0, 0.0, 0.5, 19.0):
        a = fundamental_solutions(whole.segments(), lam)
        b = fundamental_solutions(split.segments(), lam)
        for x, y in ((a.C, b.C), (a.C1, b.C1), (a.S, b.S), (a.S1, b.S1)):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x))


def test_state_matrix_matmul_identity():
    ident = StateMatrix(1.0, 0.0, 0.0, 1.0)
    m = step_matrix(0.5, 0.3, 2.0)
    prod = m @ ident
    assert (prod.a, prod.b, prod.c, prod.d) == (m.a, m.b, m.c, m.d)


# Below 0, inside the series region for every segment (|lambda| h^2 <= SERIES_SWITCH
# with h <= 3 pi / 2), and above 0; then all of them at once.
COMPILED_LAMBDAS = [-7.5, -SERIES_SWITCH / 40, 0.0, SERIES_SWITCH / 40, 42.0]


@pytest.mark.parametrize("lam", COMPILED_LAMBDAS + [np.array(COMPILED_LAMBDAS)])
def test_compiled_segments_match_step_product(lam):
    # The whole propagator and each column alone equal the step product bit
    # for bit. Segment lengths repeat within an edge (pi/4 on pendant 1) and across
    # edges (pi/2 on the cycle and on both pendants).
    graph = lasso_graph(
        1,
        [1, "3/2"],
        potentials=[
            PotentialSpec((0, "1/2", 1), (0.3, -0.2)),
            PotentialSpec((0, "1/4", "1/2", 1), (0.5, 0.0, -1.5)),
            PotentialSpec((0, 1, "3/2"), (0.0, 2.0)),
        ],
        length_unit="pi",
    )
    assert len(graph.plan.lengths) == 3
    for edge, segs in zip(graph.edges, graph.segments):
        bp = edge.potential.breakpoints
        steps = [
            step_matrix(sigma, float(hi - lo) * math.pi, lam)
            for sigma, lo, hi in zip(edge.potential.values, bp, bp[1:])
        ]
        want = steps[0]
        for step in steps[1:]:
            want = step @ want
        got = fundamental_solutions(segs, lam)
        c_col = fundamental_solutions(segs, lam, "C")
        s_col = fundamental_solutions(segs, lam, "S")
        assert c_col.S is c_col.S1 is s_col.C is s_col.C1 is None
        for x, y in (
            (got.C, want.a), (got.C1, want.c), (got.S, want.b), (got.S1, want.d),
            (c_col.C, want.a), (c_col.C1, want.c), (s_col.S, want.b), (s_col.S1, want.d),
        ):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
