"""Independent brute-force eigenvalues from a finite-element discretization.

Ground truth for cross-validation: piecewise-linear elements with lumped mass
on every edge, the cycle closing both its endpoints onto the internal vertex.
Integrating the operator against the solution and applying the matching and
boundary conditions turns sigma into point terms: each interior jump of sigma
(a delta potential) adds its height at that node, and the one-sided endpoint
values of sigma add [sigma_0(0+) - sum_j sigma_j(|e_j|-)] at the internal
vertex and sigma_j(0+) at each free pendant end. Both are the jumps of sigma
extended by zero beyond its edge: every edge adds sigma_j(0+) at its start
and -sigma_j(|e_j|-) at its end, the internal vertex. The generalized problem
A u = lambda M u is reduced by M^(-1/2) to an ordinary symmetric one, so the
spectrum is real and the assembly is symmetric by construction.

Each edge numbers its own dofs along the edge, and the internal vertex is
kept apart, so deleting it leaves p + 1 independent chains: the cycle's
interior and each pendant (without its pinned end for Lj). The operator is
A = [[a, b^T], [b, T]]: T is tridiagonal with a zero coupling between chains,
and b is nonzero only at the p + 2 chain ends next to the vertex; no
dim x dim matrix is built. By Cauchy interlacing, lambda_k lies in
[mu_(k-1), mu_k], the eigenvalues of T from LAPACK stebz (below mu_0 and
above the top mu, Gershgorin bounds close the bracket). Inside it, Haynsworth's
inertia formula counts N(sigma) = #{mu < sigma} + [s(sigma) < 0] with the
vertex Schur complement s(sigma) = a - sigma - b^T (T - sigma)^(-1) b
(Golub, SIAM Rev. 1973). So lambda_k is where s changes sign, found by
bisection sped up by Newton steps inside the bracket: one tridiagonal solve
x = (T - sigma)^(-1) b (LAPACK gtsv) gives s and s' = -1 - |x|^2, O(dim) per
shift. Where b^T v = 0 for a mu's eigenvector v, s has no pole there and
lambda_k = mu (the sign rule finds it; so do equal mu, as from equal chains).
The lowest eigenvalues agree with a dense symmetric solve within ~3e-11
relative at 50-160 points per unit, the rounding level 4 eps ||A||.

Each iteration starts at its bracket's midpoint, except the first bracket's:
below mu_0, s is concave and decreasing, so Newton converges from the right
of lambda_0 without bisecting, and it starts an eighth of the mean spacing
of the mu below mu_0 (6-8 solves on the test fixtures, where the midpoint of
the Gershgorin bracket took 17-25).

Eigenvalue error is O(h^2); richardson_eigs extrapolates over h and h/2 and
continues the fine solve from the coarse one. The fine mu come from a stebz
window that ends past the coarse top mu by four times its expected O(h^2)
rise (the index search runs only if the window holds too few), and each fine
bracket starts at its coarse eigenvalue, typically 2-3 solves per eigenvalue
(about 8 cold). On the `oracle` benchmark cells of seed 7 a request takes 51
solves in all, against 104 with every bracket started at its midpoint.

scipy is imported on first use, so importing this module loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse
from .graph import Problem, validate

MIN_POINTS_PER_UNIT = 50


def _nodes_for_edge(edge, unit: float, points_per_unit: float) -> int:
    """Node count making every sigma breakpoint land exactly on a grid node."""
    length = edge.length
    align = 1
    for b in edge.potential.breakpoints[1:-1]:
        r = b / length  # exact rational position along the edge
        align = align * r.denominator // math.gcd(align, r.denominator)
    target = float(length) * unit * points_per_unit
    n = max(1, math.ceil(target / align)) * align
    return n


@dataclass(frozen=True)
class DiscreteOperator:
    """Mass-normalized symmetric operator A = [[a, b^T], [b, T]], with its grid metadata.

    Row 0 is the internal vertex; T = tridiag(off, diag, off) holds the chains
    left when it is deleted, with off = 0 between chains.
    """

    diag: np.ndarray
    off: np.ndarray
    b: np.ndarray
    a: float
    h: tuple[float, ...]  # grid spacing per edge
    problem: Problem
    points_per_unit: float


def discretize(graph, problem: Problem, points_per_unit: float) -> DiscreteOperator:
    graph = validate(graph)
    problem.check(graph)
    if points_per_unit < MIN_POINTS_PER_UNIT:
        raise GridTooCoarse(
            f"points_per_unit = {points_per_unit} < {MIN_POINTS_PER_UNIT}"
        )
    counts = [_nodes_for_edge(e, graph.unit_value, points_per_unit) for e in graph.edges]
    spacings = [graph.edge_length(j) / n for j, n in enumerate(counts)]

    # Each edge's local nodes 0..n: n is the internal vertex, and so is 0 on
    # the cycle. Its chain is nodes first..n-1, without the pinned end for Lj;
    # each chain's last off entry (to the next chain) is 0.
    pinned = problem.j if problem.kind == "dirichlet" else None
    diag, off, couple, mass = [], [], [], []
    a = vertex_mass = 0.0
    for j, (edge, n, h) in enumerate(zip(graph.edges, counts, spacings)):
        stiff, lumped, link = np.full(n + 1, 2.0 / h), np.full(n + 1, h), np.zeros(n + 1)
        stiff[[0, n]], lumped[[0, n]] = 1.0 / h, h / 2.0
        nodes = [b / edge.length * n for b in edge.potential.breakpoints]
        assert all(x.denominator == 1 for x in nodes), "breakpoint not on a grid node"
        # The jumps of sigma, ends included.
        stiff[[int(x) for x in nodes]] += np.diff([0.0, *edge.potential.values, 0.0])
        # link couples a node to the vertex (on a one-element cycle, the vertex to itself).
        ends = [0, n] if j == 0 else [n]
        link[n - 1] -= 1.0 / h
        if j == 0:
            link[1] -= 1.0 / h
        a += np.sum((stiff + link)[ends])
        vertex_mass += np.sum(lumped[ends])
        first = 1 if j in (0, pinned) else 0
        chain_off = np.full(n - first, -1.0 / h)
        chain_off[-1:] = 0.0
        diag.append(stiff[first:n])
        off.append(chain_off)
        couple.append(link[first:n])
        mass.append(lumped[first:n])

    w, w_a = 1.0 / np.sqrt(np.concatenate(mass)), 1.0 / math.sqrt(vertex_mass)
    diag, off = np.concatenate(diag) * w * w, np.concatenate(off)[:-1] * w[:-1] * w[1:]
    b = np.concatenate(couple) * w * w_a
    return DiscreteOperator(diag, off, b, a * w_a * w_a, tuple(spacings), problem, points_per_unit)


def _solve(op: DiscreteOperator, count: int, coarse=None) -> tuple[np.ndarray, np.ndarray]:
    """The count smallest eigenvalues, ascending, and the chain eigenvalues mu.

    coarse is that pair for the same problem on a coarser grid: its top mu
    bounds the window searched for this grid's mu, and each bracket's
    iteration starts at its coarse eigenvalue.
    """
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.lapack import dgtsv

    count = min(count, len(op.diag) + 1)
    last = min(count, len(op.diag)) - 1
    # Gershgorin bounds close the first bracket below and, for count = dim, the last above.
    radius = np.abs(op.b) + np.abs(np.r_[op.off, 0.0]) + np.abs(np.r_[0.0, op.off])
    bound = np.sum(np.abs(op.b))
    lower = min(op.a - bound, np.min(op.diag - radius))
    upper = max(op.a + bound, np.max(op.diag + radius))
    # Bisection to full precision (tol), so that equal chains give equal mu.
    tiny = np.finfo(float).tiny
    mu = np.empty(0)
    starts = np.full(count, np.nan)  # nan: start at the bracket's midpoint
    if coarse is not None:
        starts, coarse_mu = coarse
        # From the coarse grid the mu rise by about (mu h)^2 / 4, h this grid's
        # spacing (lumped P1 elements); the window allows four times that.
        top = coarse_mu[-1] + (max(op.h) * max(1.0, abs(coarse_mu[-1]))) ** 2
        mu = eigh_tridiagonal(op.diag, op.off, True, "v", (lower, top), tol=tiny)[: last + 1]
    if len(mu) <= last:
        mu = eigh_tridiagonal(op.diag, op.off, True, "i", (0, last), tol=tiny)
    if coarse is None and last > 0:
        # Below mu_0, s is concave and decreasing, so Newton converges from the
        # right of lambda_0 without bisecting. An eighth of the mean spacing of
        # the mu below mu_0 is right of lambda_0 or close to it on the test
        # fixtures (with one mu, or all equal, the midpoint as elsewhere).
        starts[0] = mu[0] - (mu[-1] - mu[0]) / (8.0 * last)
    ends = np.r_[lower, mu, upper]
    tol = 4.0 * np.finfo(float).eps * np.max(np.abs(ends))  # the rounding level of s / s'
    rhs = op.b[:, None]
    off = op.off if len(op.off) else np.zeros(1)  # gtsv's wrapper wants one entry at dim 1

    def root(lo, hi, start):
        # Inside (lo, hi), lambda < sigma iff s(sigma) < 0; s' = -1 - |x|^2.
        sigma = start if lo < start < hi else 0.5 * (lo + hi)
        while hi - lo > tol:
            x = dgtsv(off, op.diag - sigma, off, rhs)[3][:, 0]
            s = op.a - sigma - op.b @ x
            lo, hi = (lo, sigma) if s < 0.0 else (sigma, hi)
            newton = sigma + s / (1.0 + x @ x)
            if abs(newton - sigma) <= tol:
                return newton
            sigma = newton if lo < newton < hi else 0.5 * (lo + hi)
        return sigma

    lam = np.array([root(ends[k], ends[k + 1], starts[k]) for k in range(count)])
    # A root within tol of its bracket's end is that mu (a removable pole, b^T v = 0).
    low, high = ends[:count], ends[1 : count + 1]
    return np.where(lam - low <= tol, low, np.where(high - lam <= tol, high, lam)), mu


def oracle_eigs(op: DiscreteOperator, count: int) -> np.ndarray:
    """The count smallest eigenvalues, ascending: one Schur-complement root per bracket."""
    return _solve(op, count)[0]


def richardson_eigs(graph, problem: Problem, count: int, points_per_unit: float) -> np.ndarray:
    """Eigenvalues extrapolated over grids h and h/2 (cancels the h^2 term).

    The fine solve continues from the coarse one (see _solve).
    """
    coarse = _solve(discretize(graph, problem, points_per_unit), count)
    fine, _ = _solve(discretize(graph, problem, 2 * points_per_unit), count, coarse)
    return (4.0 * fine - coarse[0]) / 3.0
