"""Characteristic functions of the lasso-graph boundary value problems.

The full problem L couples continuity at the internal vertex, a Kirchhoff
balance of quasi-derivatives, and Neumann-type conditions y^{[1]}(0) = 0 at
the pendant ends. Its characteristic function is a polynomial in the endpoint
values (C, C^{[1]}, S, S^{[1]}) of every edge:

  (-1)^p [ S_0 sum_k u_k' prod_{i != k} u_i + (C_0 + S_0^{[1]} - 2) prod_k u_k ],

where the pendant end pair (u_k, u_k') is (C_k, C_k^{[1]}). The pinned
problem Lj replaces the end condition of pendant j by y(0) = 0, which swaps
that pendant's pair for (S_j, S_j^{[1]}); nothing else changes. Zeros (with
multiplicity) are the eigenvalues. So each pendant propagates only the column
of its pair, and the cycle both columns.

An evaluation runs on the graph's compiled plan (ValidatedGraph.plan): one
propagate.Steps per call (one sqrt, one (phi0, phi1) pair per distinct segment
length), then each wanted column once per group of edges with equal segments,
so equal pendants propagate once; no per-segment object is built.

Sign convention: the global (-1)^p matches the closed form of the
zero-potential function, so that the ratio of perturbed to free
characteristic function tends to 1 as lambda -> -infinity.

`assemble` uses only +, * and integer constants, so the same formula runs on
numpy values of perturbed edges and on exact trigonometric expressions of
free edges (see trigpoly.expand_free_charfn).

A lambda array longer than BLOCK_POINTS is evaluated block by block; every
step is elementwise, so the values are those of one whole-array evaluation.
"""

from __future__ import annotations

import numpy as np

from .errors import NearPole
from .graph import Problem, ValidatedGraph, validate
from .propagate import FundamentalSolution, Steps

# Scale-aware cutoff for pole detection in the Weyl function.
NEARPOLE_COEF = 1e-9
# Vector evaluations run over blocks of this many points, so that one block's
# temporaries stay in cache and are reused instead of freshly mapped.
BLOCK_POINTS = 4096


def _evaluate(graph: ValidatedGraph, lam, j: int):
    """assemble(., j) on what it reads: the cycle's two columns, and on each
    pendant the column of its end pair. Edges with equal segments share
    their columns (ValidatedGraph.plan), so equal pendants propagate once."""
    plan = graph.plan
    at = Steps(lam, plan.lengths)
    columns = {}

    def column(k: int, name: str):
        key = (plan.same[k], name)
        if key not in columns:
            columns[key] = at.column(plan.steps[k], name)
        return columns[key]

    fs = [FundamentalSolution(*column(0, "C"), *column(0, "S"))]
    for k in range(1, len(plan.steps)):
        if k == j:
            fs.append(FundamentalSolution(None, None, *column(k, "S")))
        else:
            fs.append(FundamentalSolution(*column(k, "C")))
    return assemble(fs, j)


def assemble(fs, j: int):
    """Characteristic function from per-edge values fs (fs[0] the cycle).

    j = 0 gives L; j >= 1 pins pendant j (Lj). The star sum is accumulated
    with a running product, so the cost is O(p).
    """
    ends = [(f.S, f.S1) if k == j else (f.C, f.C1) for k, f in enumerate(fs) if k]
    prod, star = ends[0]
    for u, du in ends[1:]:
        star = star * u + prod * du
        prod = prod * u
    cyc = fs[0].C + fs[0].S1 + -2
    return (-1) ** len(ends) * (fs[0].S * star + cyc * prod)


def charfn_for(graph, problem: Problem, lam):
    """Characteristic function of L (Problem.neumann()) or Lj (Problem.dirichlet(j))."""
    graph = validate(graph)
    problem.check(graph)
    lam_arr = np.asarray(lam, dtype=float)
    if lam_arr.size <= BLOCK_POINTS:
        return _evaluate(graph, lam_arr, problem.j)
    flat = lam_arr.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, BLOCK_POINTS):
        block = flat[start : start + BLOCK_POINTS]
        out[start : start + BLOCK_POINTS] = _evaluate(graph, block, problem.j)
    return out.reshape(lam_arr.shape)


def weyl(graph, j: int, lam: float) -> float:
    """Weyl function: ratio of the pinned to the full characteristic function."""
    graph = validate(graph)
    graph.check_pendant_index(j)
    den = charfn_for(graph, Problem.neumann(), lam)
    if abs(den) < NEARPOLE_COEF * (1.0 + abs(lam)):
        raise NearPole(f"lambda = {lam} is within tolerance of the spectrum")
    return charfn_for(graph, Problem.dirichlet(j), lam) / den
