import functools
import itertools
import math
from pathlib import Path
from unittest import mock

import catalog_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasso_spectra import checks, spectrum
from lasso_spectra._rootscan import scan_roots
from lasso_spectra.errors import AssignmentAmbiguity, ScanResolutionTooCoarse, SpectraError
from lasso_spectra.graph import Problem, delta_potential, graph_from_json, lasso_graph
from lasso_spectra.oracle import richardson_eigs
from lasso_spectra.propagate import fundamental_solutions
from lasso_spectra.spectrum import (
    SpectrumCatalog,
    catalog_spectrum,
    catalog_to_csv,
    compute_catalog,
    entries_from_csv,
    epsilon_diagnostics,
    find_eigenvalues,
    negative_eigenvalues,
)
from lasso_spectra.trigpoly import build_frame


def test_find_eigenvalues_free_pi_lasso(pi_lasso):
    eigs = find_eigenvalues(pi_lasso, Problem.neumann(), 3.0)
    want = [(0.0, 2), (0.5, 1), (2 / 3, 1), (4 / 3, 1), (1.5, 1), (2.0, 2), (2.5, 1), (8 / 3, 1)]
    assert len(eigs) == len(want)
    for (rho, mult), (rho_w, mult_w) in zip(eigs, want):
        assert abs(rho - rho_w) < 1e-9
        assert mult == mult_w


def test_find_eigenvalues_empty_range(pi_lasso):
    assert find_eigenvalues(pi_lasso, Problem.neumann(), 0.0) == []


def test_cycle_tangential_zeros(pi_lasso):
    # The cycle factor alone has double zeros at rho |e_0| in 2 pi Z.
    def cycle(rho):
        f0 = fundamental_solutions(pi_lasso.segments[0], np.asarray(rho) ** 2)
        return f0.C + f0.S1 - 2.0

    roots, _ = scan_roots(cycle, 0.5, 6.5, 1200)
    assert [(round(r, 9), m) for r, m in roots] == [(2.0, 2), (4.0, 2), (6.0, 2)]


def test_close_root_pair_below_zero():
    # Two roots 2e-3 apart inside one stencil of a function negative on the
    # grid: the refined minimum changes sign, so both roots are reported.
    roots, _ = scan_roots(lambda x: 1e-6 - (x - 1) ** 2, 0.005, 2.0, 150)
    assert [m for _, m in roots] == [1, 1]
    assert abs(roots[0][0] - 0.999) < 1e-12 and abs(roots[1][0] - 1.001) < 1e-12


def test_negative_dip_without_root():
    # The same dip that stops short of zero is no root at all.
    roots, _ = scan_roots(lambda x: -((x - 1) ** 2) - 1e-6, 0.005, 2.0, 150)
    assert roots == []


def test_grid_hit_and_touch_merge():
    # A crossing exactly on a grid point and a touch 3.4e-10 away (less than
    # 1e-9 of the unit span) are one root that keeps the larger multiplicity.
    xs = np.linspace(0.0, 1e-8, 101)
    d, a, b, c = xs[10] + 0.3e-10, xs[30], xs[33] + 0.4e-10, xs[80] + 0.5e-10

    def f(x):
        return (x - d) * (x - a) * (x - b) ** 2 * (x - c)

    assert f(a) == 0.0
    roots, _ = scan_roots(f, 0.0, 1e-8, 100)
    assert [m for _, m in roots] == [1, 2, 1]
    assert [r for r, _ in roots] == sorted(r for r, _ in roots)
    assert roots[1][0] == a
    assert abs(roots[0][0] - d) < 1e-12 and abs(roots[2][0] - c) < 1e-12


def test_delta_root_shift_continuous(pi_lasso):
    # First positive root moves continuously with the delta strength.
    base = find_eigenvalues(pi_lasso, Problem.neumann(), 0.6)[-1][0]
    prev_gap = None
    for c in (0.2, 0.1, 0.05):
        g = lasso_graph(1, [1, 1], potentials=[None, delta_potential(1, "1/2", c), None], length_unit="pi")
        rho = find_eigenvalues(g, Problem.neumann(), 0.6)[-1][0]
        gap = abs(rho - base)
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 0.02


def test_zero_potential_catalog_is_exact_grid(pi_lasso):
    cat = compute_catalog(pi_lasso, Problem.neumann(), 20.0)
    assert len(cat.entries) == 61
    assert all(e.eps == 0.0 for e in cat.entries)
    assert all(e.rho == e.rho0 for e in cat.entries)


def test_truncation_count_formula(pi_lasso):
    frame = build_frame(pi_lasso, Problem.neumann())
    cat = compute_catalog(pi_lasso, Problem.neumann(), 10 * frame.tau)
    assert len(cat.entries) == len(frame.slots(10 * frame.tau))


def test_delta_catalog_rouche_window(delta_lasso):
    frame = build_frame(delta_lasso, Problem.neumann())
    check, cat = checks.catalog_bijection(delta_lasso, Problem.neumann(), 10 * frame.tau)
    assert check.passed and not cat.window_violations


def test_delta_catalog_has_negative_bottom_eigenvalue(delta_lasso):
    negs = negative_eigenvalues(delta_lasso, Problem.neumann())
    assert len(negs) == 1
    assert -0.05 < negs[0] < -0.01
    cat = compute_catalog(delta_lasso, Problem.neumann(), 6.0)
    bottom = min(cat.entries, key=lambda e: e.lam)
    assert bottom.n == 0 and bottom.k == 0
    assert bottom.rho == 0.0 and bottom.eps == 0.0


@pytest.mark.parametrize(
    "problem", [Problem.neumann(), Problem.dirichlet(1)], ids=["L", "L1"]
)
def test_double_negative_eigenvalue(attractive_p3, problem):
    # Strong symmetric attraction pulls two equal pendant modes below zero
    # together: the negative sweep must count the touch twice.
    cat = compute_catalog(attractive_p3, problem, 203.0)
    assert len(cat.entries) == len(cat.frame.slots(203.0))
    lowest = cat.lambdas()[:3]
    ref = richardson_eigs(attractive_p3, problem, 3, 60)
    assert np.max(np.abs(np.asarray(lowest) - ref)) <= 1e-3
    if problem.kind == "neumann":
        assert np.allclose(lowest, [-1.04280, -0.99238, -0.99238], atol=1e-5)
        assert lowest[1] == lowest[2]


def test_lattice_eigenvalues_survive_pendant_delta(delta_lasso):
    # States supported on the cycle vanish on the pendants, so tau n lattice
    # eigenvalues stay exactly doubled under a pendant-supported potential.
    cat = compute_catalog(delta_lasso, Problem.neumann(), 6.0)
    at2 = [e for e in cat.entries if abs(e.rho0 - 2.0) < 1e-12]
    assert len(at2) == 2
    assert all(e.rho == 2.0 and e.multiplicity == 2 for e in at2)


def test_epsilon_decay_envelope(delta_catalog_deep):
    for fam in delta_catalog_deep.frame.families:
        sub = delta_catalog_deep.family(fam.index)
        n_half = max(abs(e.n) for e in sub) // 2
        early = max(abs(e.eps) for e in sub if abs(e.n) <= n_half)
        late = max(abs(e.eps) for e in sub if abs(e.n) > n_half)
        assert late <= early


def test_epsilon_diagnostics_zero_potential(pi_lasso):
    cat = compute_catalog(pi_lasso, Problem.neumann(), 20.0)
    rep = epsilon_diagnostics(cat)
    assert all(f.bounded for f in rep)
    assert all(f.partial_sums[-1] == 0.0 for f in rep)


def test_epsilon_diagnostics_delta_plateau(delta_catalog_deep):
    rep = epsilon_diagnostics(delta_catalog_deep)
    assert all(f.bounded for f in rep)


def test_strong_potential_diagnostic_reports(pi_lasso):
    g = lasso_graph(1, [1, 1], potentials=[None, delta_potential(1, "1/2", 5.0), None], length_unit="pi")
    cat = compute_catalog(g, Problem.dirichlet(1), 30.0)
    rep = epsilon_diagnostics(cat)  # reported either way, no assertion failure
    assert len(rep) == len(cat.frame.families)


def test_catalog_csv_round_trip(delta_lasso):
    cat = compute_catalog(delta_lasso, Problem.neumann(), 8.0)
    text = catalog_to_csv(cat)
    entries = entries_from_csv(text)
    assert entries == cat.entries
    assert text.splitlines()[0] == "n,k,lambda,rho,rho0,eps,multiplicity"


def test_catalog_missing_roots_raises(pi_lasso):
    frame = build_frame(pi_lasso, Problem.neumann())
    eigs = find_eigenvalues(pi_lasso, Problem.neumann(), 4.1)
    with pytest.raises(ScanResolutionTooCoarse):
        catalog_spectrum(pi_lasso, eigs[:-2], frame, 4.0)


def test_catalog_extra_root_raises(pi_lasso):
    frame = build_frame(pi_lasso, Problem.neumann())
    eigs = find_eigenvalues(pi_lasso, Problem.neumann(), 4.1)
    with pytest.raises(AssignmentAmbiguity):
        catalog_spectrum(pi_lasso, eigs + [(1.0, 1)], frame, 4.0)


def test_dirichlet_catalog_tail_behaves(delta_catalog_deep_pinned):
    cat = delta_catalog_deep_pinned
    tail = [abs(e.eps) for e in cat.entries if e.rho0 > 10.0]
    assert max(tail) < 0.02
    # The lattice family holds the surviving cycle eigenvalues exactly.
    lattice = [e for e in cat.entries if e.k == 0 and e.n <= 5]
    assert all(e.rho == e.rho0 for e in lattice)


# Graphs for the assignment's differential test: zero potential, a weak and
# a strong delta (low_spectrum reaches past the first periods), unit lengths.
_ASSIGN_GRAPHS = (
    lasso_graph(1, [1, 1], length_unit="pi"),
    lasso_graph(1, [1, 1], [None, delta_potential(1, "1/2", 0.5), None], length_unit="pi"),
    lasso_graph(1, [1, 1, 1], [None] + [delta_potential(1, "1/2", -2.0)] * 3, length_unit="pi"),
    lasso_graph("1/2", [1, "3/2"]),
)


@functools.cache
def _assign_frame(gi, problem):
    return build_frame(_ASSIGN_GRAPHS[gi], problem)


@st.composite
def _assignment_inputs(draw):
    """Roots built around the grid: each rho0 group moved by a few window
    fractions or by less than EPS_SNAP, as one multiple root or as separate
    ones; the zero group as an even (or odd) rho-order and negative
    eigenvalues, single or repeated; now and then one root dropped or one
    root added."""
    gi = draw(st.integers(0, len(_ASSIGN_GRAPHS) - 1))
    problem = draw(st.sampled_from([Problem.neumann(), Problem.dirichlet(1)]))
    frame = _assign_frame(gi, problem)
    window = frame.window()
    rho_max = draw(st.floats(0.0, 4.0 * frame.tau))
    moves = st.sampled_from([0.0, 3e-10, -3e-10, 0.2, -0.2, 0.45, -0.45, 0.7, -0.7, 1.3, -1.3])

    slots = frame.slots(rho_max + window)
    sizes = [(rho0, len(list(g))) for rho0, g in itertools.groupby(slots, key=lambda s: s[2])]
    below = draw(st.integers(0, min(3, len(slots))))  # the lowest slots taken by lambda < 0
    negatives = draw(st.lists(st.sampled_from([-0.25, -1.5]), min_size=below, max_size=below))
    eigs = []
    for rho0, size in sizes:
        taken = min(below, size)
        below, size = below - taken, size - taken
        if rho0 == 0.0:
            order = 2 * size + draw(st.sampled_from([0, 0, 0, 1]))
            if order:
                eigs.append((0.0, order))
        elif size and draw(st.booleans()):
            eigs.append((rho0 + draw(moves) * window, size))
        else:
            eigs += [(rho0 + draw(moves) * window, 1) for _ in range(size)]
    change = draw(st.sampled_from(["none"] * 6 + ["drop", "add"]))
    if change == "drop" and eigs:
        del eigs[draw(st.integers(0, len(eigs) - 1))]
    elif change == "add":
        eigs.append((draw(st.floats(0.01, rho_max + 0.01)), 1))
    eigs.sort()
    return _ASSIGN_GRAPHS[gi], eigs, frame, rho_max, negatives


@settings(max_examples=150, deadline=None)
@given(inputs=_assignment_inputs())
def test_catalog_assignment_matches_the_per_entry_loop(inputs):
    graph, eigs, frame, rho_max, negatives = inputs

    def outcome(assign):
        try:
            return assign()
        except SpectraError as exc:
            return type(exc), str(exc)

    want = outcome(
        lambda: catalog_reference.catalog_entries(graph, eigs, frame, rho_max, negatives)
    )
    got = outcome(lambda: catalog_spectrum(graph, eigs, frame, rho_max, negatives))
    if not isinstance(got, tuple):
        # The columns handed over equal those a catalog derives from its entries.
        derived = SpectrumCatalog(got.entries, frame, rho_max).columns
        for handed, want_col in zip(got.columns, derived):
            assert handed.dtype == want_col.dtype and handed.tobytes() == want_col.tobytes()
        got = got.entries, got.window_violations
    assert repr(got) == repr(want)  # floats compared by repr: -0.0 and 0.0 differ


def test_scan_makes_a_fixed_number_of_vector_calls():
    # The grid, the dips' difference quotients and their refinement, fn at
    # the argmins, then one seeded pass over every crossing and split dip:
    # 11 vector calls on this config. Refining crossings and pairs apart,
    # each pass evaluating its bracket ends, takes 15.
    path = Path(__file__).resolve().parents[1] / "configs" / "lasso_triple.json"
    graph = graph_from_json(path)[0]
    with mock.patch.object(spectrum, "charfn_for", wraps=spectrum.charfn_for) as calls:
        roots = find_eigenvalues(graph, Problem.neumann(), 60.0)
    assert len(roots) == 150
    assert sum(np.ndim(c.args[2]) > 0 for c in calls.call_args_list) <= 11
