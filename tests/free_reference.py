"""Hand-written closed forms of the zero-potential characteristic functions.

The tests' independent reference for the exact expansion
(`trigpoly.expand_free_charfn`) and for the propagated functions on a
zero-potential graph.
"""

import numpy as np

from lasso_spectra.graph import validate


def _sign(p: int) -> float:
    return -1.0 if p % 2 else 1.0


def _sinl(rho, length: float):
    """sin(rho * length) / rho, finite at rho = 0."""
    return length * np.sinc(np.asarray(rho) * length / np.pi)


def free_charfn(graph, rho):
    """Zero-potential characteristic function as an explicit trig expression."""
    graph = validate(graph)
    p = graph.p
    rho = np.asarray(rho, dtype=float)
    ls = [graph.edge_length(j) for j in range(p + 1)]
    cos_k = [np.cos(rho * ls[k]) for k in range(1, p + 1)]
    prod_c = np.prod(cos_k, axis=0)
    total = 0.0
    for j in range(1, p + 1):
        term = np.sin(rho * ls[j])
        for i in range(1, p + 1):
            if i != j:
                term = term * cos_k[i - 1]
        total = total + term
    out = _sign(p) * (2.0 * (np.cos(rho * ls[0]) - 1.0) * prod_c - np.sin(rho * ls[0]) * total)
    return float(out) if out.ndim == 0 else out


def free_charfn_dirichlet(graph, j: int, rho):
    """Zero-potential characteristic function of the pinned problem."""
    graph = validate(graph)
    graph.check_pendant_index(j)
    p = graph.p
    rho = np.asarray(rho, dtype=float)
    ls = [graph.edge_length(k) for k in range(p + 1)]
    cyc = 2.0 * (np.cos(rho * ls[0]) - 1.0)
    s0 = _sinl(rho, ls[0])
    prod_c = 1.0
    for k in range(1, p + 1):
        if k != j:
            prod_c = prod_c * np.cos(rho * ls[k])
    inner = 0.0
    for k in range(1, p + 1):
        if k == j:
            continue
        term = -rho * np.sin(rho * ls[k])
        for i in range(1, p + 1):
            if i != k and i != j:
                term = term * np.cos(rho * ls[i])
        inner = inner + term
    star_d = _sign(p) * (_sinl(rho, ls[j]) * inner + np.cos(rho * ls[j]) * prod_c)
    out = s0 * star_d + _sign(p) * cyc * _sinl(rho, ls[j]) * prod_c
    return float(out) if out.ndim == 0 else out
