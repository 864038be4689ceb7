"""Independent brute-force eigenvalues from a finite-element discretization.

Ground truth for cross-validation: piecewise-linear elements with lumped mass
on every edge, the cycle closing both its endpoints onto the internal vertex.
Integrating the operator against the solution and applying the matching and
boundary conditions turns sigma into point terms: each interior jump of sigma
(a delta potential) adds its height at that node, and the one-sided endpoint
values of sigma add [sigma_0(0+) - sum_j sigma_j(|e_j|-)] at the internal
vertex and sigma_j(0+) at each free pendant end. The generalized problem
A u = lambda M u is reduced by M^(-1/2) to an ordinary symmetric one, so the
spectrum is real and the assembly is symmetric by construction.

Eigenvalue error is O(h^2); tests Richardson-extrapolate over h, h/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh

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
    """Mass-normalized symmetric matrix with its grid metadata."""

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
    unit = graph.unit_value
    p = graph.p
    counts = [_nodes_for_edge(e, unit, points_per_unit) for e in graph.edges]
    spacings = [graph.edge_length(j) / counts[j] for j in range(p + 1)]

    # Global dof layout: [v0] + cycle interior + per pendant (interior + outer end).
    index_of: list[dict[int, int]] = []
    next_id = 1
    for j, n in enumerate(counts):
        ids: dict[int, int] = {}
        if j == 0:
            ids[0] = 0
            ids[n] = 0
            for i in range(1, n):
                ids[i] = next_id
                next_id += 1
        else:
            ids[n] = 0
            for i in range(n - 1, 0, -1):
                ids[i] = next_id
                next_id += 1
            ids[0] = next_id  # pendant outer end
            next_id += 1
        index_of.append(ids)
    size = next_id

    a = np.zeros((size, size))
    mass = np.zeros(size)
    for j, n in enumerate(counts):
        ids = index_of[j]
        h = spacings[j]
        k = 1.0 / h
        for i in range(n):
            g0, g1 = ids[i], ids[i + 1]
            a[g0, g0] += k
            a[g1, g1] += k
            a[g0, g1] -= k
            a[g1, g0] -= k
            mass[g0] += h / 2.0
            mass[g1] += h / 2.0
        for x, jump in graph.edges[j].potential.jumps():
            pos = x / graph.edges[j].length * n  # exact node index by construction
            node = int(pos)
            assert pos == node, "breakpoint not on a grid node"
            a[ids[node], ids[node]] += jump

    # One-sided sigma values enter through the quasi-derivative conditions.
    sigma_start = [graph.edges[j].potential.values[0] for j in range(p + 1)]
    sigma_end = [graph.edges[j].potential.values[-1] for j in range(p + 1)]
    a[0, 0] += sigma_start[0] - sum(sigma_end)
    for j in range(1, p + 1):
        outer = index_of[j][0]
        a[outer, outer] += sigma_start[j]

    if problem.kind == "dirichlet":
        drop = index_of[problem.j][0]
        keep = [i for i in range(size) if i != drop]
        a = a[np.ix_(keep, keep)]
        mass = mass[keep]

    d = 1.0 / np.sqrt(mass)
    b = a * d[:, None] * d[None, :]
    b = 0.5 * (b + b.T)
    return DiscreteOperator(b, tuple(spacings), problem, points_per_unit)


def oracle_eigs(op: DiscreteOperator, count: int) -> np.ndarray:
    """The count smallest eigenvalues, ascending (dense symmetric solve)."""
    count = min(count, op.matrix.shape[0])
    return eigh(op.matrix, subset_by_index=(0, count - 1), eigvals_only=True)


def richardson_eigs(graph, problem: Problem, count: int, points_per_unit: float) -> np.ndarray:
    """Eigenvalues extrapolated over grids h and h/2 (cancels the h^2 term)."""
    coarse = oracle_eigs(discretize(graph, problem, points_per_unit), count)
    fine = oracle_eigs(discretize(graph, problem, 2 * points_per_unit), count)
    return (4.0 * fine - coarse) / 3.0
