"""Per-node FE assembly and run compression, the path that `oracle.discretize` replaces.

The tests' reference for the operator as runs: every node's stiffness, lumped
mass and vertex coupling as numpy arrays per edge, mass-normalized, and each
chain compressed afterwards into its runs of equal (diagonal, |off-diagonal|).
`oracle.discretize` forms the same floats from each edge's node count and
breakpoint rows alone, so its runs equal `runs` of these arrays bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from lasso_spectra.graph import Problem, validate
from lasso_spectra.oracle import _grid


@dataclass(frozen=True)
class DenseOperator:
    """A = [[a, b^T], [b, T]] with T = tridiag(off, diag, off), off = 0 between chains."""

    diag: np.ndarray
    off: np.ndarray
    b: np.ndarray
    a: float
    h: tuple[float, ...]

    @property
    def bounds(self) -> np.ndarray:
        """Chain c of T is rows bounds[c]:bounds[c + 1]; T splits where off = 0."""
        return np.r_[0, np.flatnonzero(self.off == 0.0) + 1, len(self.diag)]


def discretize(graph, problem: Problem, points_per_unit: float, refine: int = 1) -> DenseOperator:
    """The operator, node by node, on the grid of `oracle.discretize`."""
    graph = validate(graph)
    counts = [_grid(e, graph.unit_value, points_per_unit, refine)[0] for e in graph.edges]
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
    return DenseOperator(diag, off, b, a * w_a * w_a, tuple(spacings))


def gershgorin(op: DenseOperator) -> tuple[float, float]:
    """Gershgorin bounds of the whole matrix, row by row."""
    radius = np.abs(op.b) + np.abs(np.r_[op.off, 0.0]) + np.abs(np.r_[0.0, op.off])
    bound = np.sum(np.abs(op.b))
    return min(op.a - bound, np.min(op.diag - radius)), max(op.a + bound, np.max(op.diag + radius))


def chain_constants(diag: np.ndarray, off: np.ndarray) -> tuple[float, float, float, float]:
    """A chain's Gershgorin bounds, zero-pivot guard and Rayleigh bound on mu_0, row by row."""
    couple = np.abs(np.concatenate((off[:1], off))) if len(off) else np.ones(1)
    radius = couple.copy()
    radius[0] = 0.0
    radius[:-1] += couple[1:]
    lower, upper = float(np.min(diag - radius)), float(np.max(diag + radius))
    tol = 4.0 * np.finfo(float).eps * max(abs(lower), abs(upper))
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(couple)) ** 2)
    first = min(upper, float(np.sum(diag) + 2.0 * np.sum(off)) / len(diag) + tol)
    return lower, upper, pivmin, first


def runs(diag: np.ndarray, off: np.ndarray) -> list[tuple[float, float, int]]:
    """A chain's runs of equal (d_i, |off_(i-1)|) as (d, |off|, rows); row 0 takes |off_0|."""
    couple = np.abs(np.concatenate((off[:1], off))) if len(off) else np.ones(1)
    cuts = np.flatnonzero((diag[1:] != diag[:-1]) | (couple[1:] != couple[:-1])) + 1
    bounds = [0, *cuts.tolist(), len(diag)]
    return [(float(diag[i]), float(couple[i]), j - i) for i, j in zip(bounds[:-1], bounds[1:])]
