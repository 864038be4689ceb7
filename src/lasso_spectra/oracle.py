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

The dofs are numbered by their distance in grid steps from the internal
vertex, ties by id, so the p + 2 chains leaving the vertex (two along the
cycle, one per pendant) keep one order at every distance. Each distance holds
at most p + 2 dofs, so every element couples dofs at most p + 2 apart. The
operator is written straight into LAPACK's lower-band storage,
`matrix[i, k] = A[i + k, i]` of shape (dim, b + 1) with half-bandwidth
b <= p + 2; no dense dim x dim matrix is built. The lowest eigenvalues come
from `scipy.linalg.eig_banded` (LAPACK dsbevx: reduction to tridiagonal
form, then bisection), which is deterministic, needs no shift and returns
multiple eigenvalues with their multiplicity. Its cost is the O(dim^2 b) band
reduction. That reduction's rounding, up to ~3e-14 ||A|| with
||A|| ~ 4 / h^2, keeps the lowest eigenvalues within ~1e-10 relative of a
dense solve at 60-160 points per unit and within ~2e-8 at 320.

Eigenvalue error is O(h^2); tests Richardson-extrapolate over h, h/2.

scipy is imported on first use, so importing this module loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse
from .graph import Problem, ValidatedGraph, validate

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
    """Mass-normalized symmetric matrix in lower-band storage, with its grid metadata.

    matrix has shape (dim, b + 1) and holds matrix[i, k] = A[i + k, i];
    matrix.T is LAPACK's lower band layout.
    """

    matrix: np.ndarray
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

    # Node ids: 0 is the internal vertex; the cycle interior, then each
    # pendant's outer end (local node 0) and interior take the next ids.
    # dist holds each id's distance in grid steps from the internal vertex.
    # A and the lumped mass are gathered as (row, col, value) and (id, value)
    # lists; repeated entries are summed.
    dist, starts = [np.zeros(1, dtype=np.intp)], []
    rows, cols, vals, mass_ids, mass_vals = [], [], [], [], []
    next_id = 1
    for j, (edge, n, h) in enumerate(zip(graph.edges, counts, spacings)):
        own = np.arange(1, n) if j == 0 else np.arange(n)  # local nodes with a new id
        ids = np.zeros(n + 1, dtype=np.intp)
        ids[own] = next_id + np.arange(len(own))
        next_id += len(own)
        dist.append(np.minimum(own, n - own) if j == 0 else n - own)
        starts.append(ids[0])

        g0, g1 = ids[:-1], ids[1:]
        nodes = [b / edge.length * n for b in edge.potential.breakpoints]
        assert all(x.denominator == 1 for x in nodes), "breakpoint not on a grid node"
        points = ids[[int(x) for x in nodes]]
        rows += [g0, g1, g0, g1, points]
        cols += [g0, g1, g1, g0, points]
        vals += [
            np.full(2 * n, 1.0 / h),
            np.full(2 * n, -1.0 / h),
            np.diff([0.0, *edge.potential.values, 0.0]),  # jumps of sigma, ends included
        ]
        mass_ids += [g0, g1]
        mass_vals.append(np.full(2 * n, h / 2.0))
    size = next_id

    # Dofs by distance, ties by id (stable sort): an element joins dofs at most p + 2 apart.
    order = np.argsort(np.concatenate(dist), kind="stable")
    if problem.kind == "dirichlet":
        order = order[order != starts[problem.j]]
    dim = len(order)
    rank = np.full(size, -1)
    rank[order] = np.arange(dim)
    mass = np.bincount(np.concatenate(mass_ids), np.concatenate(mass_vals), size)[order]
    d = 1.0 / np.sqrt(mass)

    # Lower band only, matrix[c, r - c] = A[r, c] for r >= c; the dropped dof has rank -1.
    r, c = rank[np.concatenate(rows)], rank[np.concatenate(cols)]
    keep = (c >= 0) & (r >= c)
    r, c = r[keep], c[keep]
    band = np.zeros((dim, int(np.max(r - c)) + 1))
    np.add.at(band, (c, r - c), np.concatenate(vals)[keep] * d[r] * d[c])
    return DiscreteOperator(band, tuple(spacings), problem, points_per_unit)


def oracle_eigs(op: DiscreteOperator, count: int) -> np.ndarray:
    """The count smallest eigenvalues, ascending (LAPACK banded symmetric solve)."""
    from scipy.linalg import eig_banded

    count = min(count, op.matrix.shape[0])
    return eig_banded(
        op.matrix.T, lower=True, select="i", select_range=(0, count - 1), eigvals_only=True
    )


def richardson_eigs(graph, problem: Problem, count: int, points_per_unit: float) -> np.ndarray:
    """Eigenvalues extrapolated over grids h and h/2 (cancels the h^2 term)."""
    coarse = oracle_eigs(discretize(graph, problem, points_per_unit), count)
    fine = oracle_eigs(discretize(graph, problem, 2 * points_per_unit), count)
    return (4.0 * fine - coarse) / 3.0
