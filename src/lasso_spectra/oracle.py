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
[mu_(k-1), mu_k], the eigenvalues of T (below mu_0 and above the top mu,
Gershgorin bounds close the bracket). Inside it, Haynsworth's
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
of lambda_0 without bisecting; it starts an eighth of the mean spacing of
the mu below mu_0. A bracket whose root is its own end (a removable or
nearly removable pole, b^T v ~ 0) sends Newton past that end every step;
the first such step probes s once at 2 tol inside the end, and if the root
lies between, the eigenvalue is that mu.

The mu come from one solver per chain T_c (_Chain), on both grids: Newton
on the last pivot 1 / x_last of T_c - sigma (one chain-sized solve
x = (T_c - sigma)^(-1) e_last per step, sigma += x_last / |x|^2), certified
as the k-th eigenvalue of the chain by a Sturm count in closed form per run
of equal entries. The count also isolates the start of a cold mu, and
bisects where a certificate fails. Byte-identical chains (equal pendants)
are solved once, so they give bit-equal mu. The mu agree with LAPACK stebz
at full precision within ~2e-11 relative.

Eigenvalue error is O(h^2); richardson_eigs extrapolates over h and h/2.
The fine solve starts each mu at the coarse mu of the same chain and index,
and each bracket at its coarse eigenvalue (one outside its bracket probes
the nearer end first). On the `oracle` benchmark cells of seed 7 a request
takes 36 solves of the whole operator, 48 chain-sized ones and 73 counts;
the coarse mu take 1.0-1.6 ms, where a coarse stebz call took 1.6-1.7 ms
(2-core machine).

scipy is imported on first use, so importing this module loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse
from .graph import Problem, validate

MIN_POINTS_PER_UNIT = 50
# Newton steps per start on one chain; quadratic convergence needs 2-4.
MAX_CHAIN_STEPS = 30


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
    return DiscreteOperator(diag, off, b, a * w_a * w_a, tuple(spacings))


class _Chain:
    """One chain T_c of T: Sturm counts and Newton steps on that chain alone.

    The count below sigma is the number of negative pivots
    r_i = (d_i - sigma) - off_(i-1)^2 / r_(i-1) of T_c - sigma. The rows fall
    into runs of equal (d_i, |off_(i-1)|) = (c, e). Inside a run the pivots
    are e q_j / q_(j-1) for q_j = 2 x q_(j-1) - q_(j-2), x = (c - sigma) / 2e,
    started from the entering pivot r as q_(-1) = e / r, q_0 = 1. In the band,
    |x| < 1, q_j ~ sin(j theta + phi) with cos theta = x, so m rows add
    floor((m theta + phi) / pi) negative pivots; below it, q_j = a exp(j theta)
    + (1 - a) exp(-j theta) changes sign at most once, and above it (-1)^j q_j
    does. A run costs O(1) and a count O(runs). Row 0 enters with an infinite
    pivot (q_(-1) = 0), so it joins the run of row 1 when their entries match.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        self.diag, self.off, self.size = diag, off if len(off) else np.zeros(1), len(diag)
        # Row i couples back by |off_(i-1)|; row 0 by |off_0|, which its
        # infinite entering pivot ignores.
        couple = np.abs(np.concatenate((off[:1], off))) if len(off) else np.ones(1)
        radius = couple.copy()
        radius[0] = 0.0
        radius[:-1] += couple[1:]
        self.lower, self.upper = float(np.min(diag - radius)), float(np.max(diag + radius))
        # The rounding level of a pivot, and LAPACK's guard against a zero pivot.
        self.tol = 4.0 * np.finfo(float).eps * max(abs(self.lower), abs(self.upper))
        self.pivmin = np.finfo(float).tiny * max(1.0, float(np.max(couple)) ** 2)
        cuts = np.flatnonzero((diag[1:] != diag[:-1]) | (couple[1:] != couple[:-1])) + 1
        bounds = [0, *cuts.tolist(), self.size]
        self.runs = [
            (float(diag[i]), float(couple[i]), j - i) for i, j in zip(bounds[:-1], bounds[1:])
        ]
        self.rhs = np.zeros(self.size)
        self.rhs[-1] = 1.0
        self.seen: dict[float, int] = {}  # count(sigma) by sigma
        # The Rayleigh quotient of the all-ones vector bounds mu_0 above.
        self.first = min(self.upper, float(np.sum(diag) + 2.0 * np.sum(off)) / self.size + self.tol)

    def count(self, sigma: float) -> int:
        """The number of eigenvalues below sigma: the negative pivots of T_c - sigma."""
        return self.pivots(sigma)[0]

    def pivots(self, sigma: float) -> tuple[int, float]:
        """count(sigma) and the last pivot; every count is kept to bracket later eigenvalues."""
        negative, r = 0, math.inf
        for c, e, m in self.runs:
            # sigma lies in the band [c - 2e, c + 2e] where u and v = 1 - u are
            # positive; each is measured from its own band edge.
            u, v = (sigma - (c - 2.0 * e)) / (4.0 * e), ((c + 2.0 * e) - sigma) / (4.0 * e)
            inv = e / r  # q_(-1)
            if u > 0.0 and v > 0.0:
                # q_j ~ sin(j theta + phi), phi in [0, pi): a pivot is negative
                # where the phase passes a multiple of pi.
                theta = math.atan2(2.0 * math.sqrt(u * v), v - u)
                before = (m - 1) * theta + math.atan2(math.sin(theta), math.cos(theta) - inv)
                changes = math.floor((before + theta) / math.pi)
                last = changes > math.floor(before / math.pi)
                den = math.sin(before)
                rho = math.sin(before + theta) / den if den else math.inf
            else:
                # Below the band; above it, (-1)^j q_j is below the mirrored one.
                flip = v <= 0.0
                if flip:
                    u, v, inv = v, u, -inv
                changes, last, rho = self._hyperbolic(2.0 * math.sqrt(-u * v), inv, m)
                if flip:
                    changes, last = m - changes, not last
            # The sign of the last pivot is the count's, so both agree near a zero pivot.
            negative += changes
            r = max(abs(e * rho), self.pivmin) * (-1.0 if last else 1.0)
        self.seen[sigma] = negative
        return negative, r

    @staticmethod
    def _hyperbolic(sinh: float, inv: float, m: int) -> tuple[int, bool, float]:
        """For q_(-1) = inv, q_0 = 1 and cosh theta >= 1: the sign changes in q_0..q_m,
        whether the last is at q_m, and q_m / q_(m-1)."""
        if sinh == 0.0:  # q_j = 1 + b j
            b = 1.0 - inv
            end, before = 1.0 + b * m, 1.0 + b * (m - 1)
            return int(end < 0.0), end < 0.0 <= before, end / before if before else math.inf
        theta = math.asinh(sinh)
        grow = math.exp(theta)
        a = (grow - inv) / (2.0 * sinh)  # q_j = a exp(j theta) + (1 - a) exp(-j theta)
        if a == 0.0:
            return 0, False, 1.0 / grow
        # With a < 0, q_j decreases from 1 and changes sign where 2 j theta passes crossing.
        crossing = math.log((a - 1.0) / a) if a < 0.0 else math.inf
        before = a + (1.0 - a) * math.exp(-2.0 * (m - 1) * theta)
        rho = grow * (a + (1.0 - a) * math.exp(-2.0 * m * theta)) / before if before else math.inf
        turns = 2.0 * m * theta
        return int(turns > crossing), turns - 2.0 * theta <= crossing < turns, rho

    # Next to an eigenvalue whose vector nearly vanishes at the last row, x can
    # overflow; the step is then 0 or nan, and the count certifies or rejects.
    @np.errstate(over="ignore", invalid="ignore")
    def newton(self, sigma: float, lo: float, hi: float) -> float | None:
        """Newton on the last pivot 1 / x_last, x = (T_c - sigma)^(-1) e_last, inside (lo, hi)."""
        from scipy.linalg.lapack import dgtsv

        for _ in range(MAX_CHAIN_STEPS):
            _, _, _, x, info = dgtsv(self.off, self.diag - sigma, self.off, self.rhs)
            if info:  # T_c - sigma is singular: sigma is an eigenvalue
                return sigma
            step = x[-1] / (x @ x)
            sigma += step
            if not lo < sigma < hi:
                return None
            if abs(step) <= self.tol:
                break
        return sigma

    def eig(self, k: int, start: float | None) -> float:
        """The k-th eigenvalue (from 0), by Newton from start, certified by the count.

        Without a start, or after a failed one, it halves the bracket on the
        count until a shift lies in (mu_k, nu_k), nu_k the k-th eigenvalue of
        T_c without its last row: there the count is k + 1 and the last pivot
        is negative. Newton from there moves left and converges without
        leaving, where from a shift outside it overshoots.
        """
        margin = self.tol
        # Invariant: count(lo) <= k < count(hi), so the eigenvalue is in [lo, hi),
        # from the narrowest bracket that the counts made so far on this chain give.
        lo = max((x for x, n in self.seen.items() if n <= k), default=self.lower)
        hi = min([x for x, n in self.seen.items() if n > k] + [self.first if k == 0 else self.upper])
        sigma = start if start is not None and lo < start < hi else None
        while hi - lo > 2.0 * margin:
            if sigma is None:
                mid = 0.5 * (lo + hi)
                n, last = self.pivots(mid)
                if n <= k:
                    lo = mid
                else:
                    hi = mid
                    sigma = mid if n == k + 1 and last < 0.0 else None
                continue
            mu, sigma = self.newton(sigma, lo, hi), None
            if mu is not None:
                below, above = self.count(mu - margin), self.count(mu + margin)
                if below <= k < above:
                    return mu
                if above <= k:
                    lo = mu + margin
                else:
                    hi = mu - margin
        return 0.5 * (lo + hi)


def _continue_mu(op: DiscreteOperator, last: int, coarse_mu: np.ndarray, coarse_chain: np.ndarray):
    """The lowest last + 1 eigenvalues of T and their chains, from a coarse grid's.

    Each is continued on its own chain from the coarse mu with the same chain
    and index; byte-identical chains are solved once. Then every chain whose
    count below the top of that list exceeds what it holds adds its next
    eigenvalue, until none does. The coarse chains only supply the starts:
    every mu is certified on its own chain, whatever its start, and with no
    coarse mu at all every one is found by the count alone.
    """
    # T splits into chains where off = 0.
    bounds = np.r_[0, np.flatnonzero(op.off == 0.0) + 1, len(op.diag)]
    solved, chains = {}, []
    for c, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        key = (op.diag[a:b].tobytes(), op.off[a : b - 1].tobytes())
        if key not in solved:
            # Reversed, a pendant's chain ends at its free end, where no eigenvector
            # vanishes, so Newton on the last pivot converges from most of a bracket.
            solved[key] = (_Chain(op.diag[a:b][::-1], op.off[a : b - 1][::-1]), [])
        chain, mu = solved[key]
        starts = coarse_mu[coarse_chain == c].tolist()
        for k in range(len(mu), min(len(starts), chain.size)):
            mu.append(chain.eig(k, starts[k]))
        chains.append((c, chain, mu))
    while True:
        pool = sorted((x, c) for c, _, mu in chains for x in mu)
        top = pool[last][0] if len(pool) > last else math.inf
        short = {
            id(mu): (chain, mu)
            for _, chain, mu in chains
            if len(mu) < chain.size and (top == math.inf or chain.count(top) > len(mu))
        }
        if not short:
            break
        for chain, mu in short.values():
            mu.append(chain.eig(len(mu), None))
    pool = pool[: last + 1]
    return np.array([x for x, _ in pool]), np.array([c for _, c in pool], dtype=int)


def _solve(op: DiscreteOperator, count: int, coarse=None):
    """The count smallest eigenvalues, ascending, the chain eigenvalues mu, and each mu's chain.

    coarse is that triple for the same problem on a coarser grid: each mu is
    continued from the coarse mu of its chain (see _continue_mu), and each
    bracket's iteration starts at its coarse eigenvalue.
    """
    from scipy.linalg.lapack import dgtsv

    count = min(count, len(op.diag) + 1)
    last = min(count, len(op.diag)) - 1
    # Gershgorin bounds close the first bracket below and, for count = dim, the last above.
    radius = np.abs(op.b) + np.abs(np.r_[op.off, 0.0]) + np.abs(np.r_[0.0, op.off])
    bound = np.sum(np.abs(op.b))
    lower = min(op.a - bound, np.min(op.diag - radius))
    upper = max(op.a + bound, np.max(op.diag + radius))
    off = op.off if len(op.off) else np.zeros(1)  # the LAPACK wrapper wants one entry at dim 1
    # Without a coarse grid every mu is found cold, by the count alone.
    starts, coarse_mu, coarse_chain = coarse or (None, np.empty(0), np.empty(0, dtype=int))
    mu, chain = _continue_mu(op, last, coarse_mu, coarse_chain)
    if coarse is None:
        starts = np.full(count, np.nan)  # nan: start at the bracket's midpoint
        if last > 0:
            # Below mu_0, s is concave and decreasing, so Newton converges from the
            # right of lambda_0 without bisecting. An eighth of the mean spacing of
            # the mu below mu_0 is right of lambda_0 or close to it on the test
            # fixtures (with one mu, or all within 2 tol, the midpoint as elsewhere).
            starts[0] = mu[0] - (mu[-1] - mu[0]) / (8.0 * last)
    ends = np.r_[lower, mu, upper]
    tol = 4.0 * np.finfo(float).eps * np.max(np.abs(ends))  # the rounding level of s / s'
    rhs = op.b[:, None]

    def root(lo, hi, start):
        # Inside (lo, hi), lambda < sigma iff s(sigma) < 0; s' = -1 - |x|^2.
        # A start outside the bracket or within 2 tol of an end (where Newton
        # steps shrink with the distance to the pole and would stop there), or
        # the first Newton step that leaves past one of its ends, probes once
        # at 2 tol inside that end: if the root lies between, it is the end (a
        # removable pole, b^T v ~ 0, where Newton from inside overshoots every
        # step); if not, the iteration goes on from the midpoint of what is left.
        ends, probe, probed = (lo, hi), None, False
        sigma = start if lo + 2.0 * tol < start < hi - 2.0 * tol else 0.5 * (lo + hi)
        if start <= lo + 2.0 * tol or start >= hi - 2.0 * tol:
            probe = lo if start <= lo + 2.0 * tol else hi
        while hi - lo > tol:
            if probe is not None:
                if probed or hi - lo <= 4.0 * tol:
                    probe = None
                else:
                    probed, sigma = True, probe + (2.0 * tol if probe == lo else -2.0 * tol)
            x = dgtsv(off, op.diag - sigma, off, rhs)[3][:, 0]
            s = op.a - sigma - op.b @ x
            lo, hi = (lo, sigma) if s < 0.0 else (sigma, hi)
            if probe is not None:
                if probe in (lo, hi):
                    return probe
                probe, sigma = None, 0.5 * (lo + hi)
                continue
            newton = sigma + s / (1.0 + x @ x)
            if abs(newton - sigma) <= tol:
                return newton
            if lo < newton < hi:
                sigma = newton
            else:
                sigma = 0.5 * (lo + hi)
                if newton >= hi == ends[1] or newton <= lo == ends[0]:
                    probe = hi if newton >= hi else lo
        return sigma

    lam = np.array([root(ends[k], ends[k + 1], starts[k]) for k in range(count)])
    # A root within tol of its bracket's end is that mu (a removable pole, b^T v = 0).
    low, high = ends[:count], ends[1 : count + 1]
    lam = np.where(lam - low <= tol, low, np.where(high - lam <= tol, high, lam))
    return lam, mu, chain


def oracle_eigs(op: DiscreteOperator, count: int) -> np.ndarray:
    """The count smallest eigenvalues, ascending: one Schur-complement root per bracket."""
    return _solve(op, count)[0]


def richardson_eigs(graph, problem: Problem, count: int, points_per_unit: float) -> np.ndarray:
    """Eigenvalues extrapolated over grids h and h/2 (cancels the h^2 term).

    The fine solve continues from the coarse one (see _solve).
    """
    coarse = _solve(discretize(graph, problem, points_per_unit), count)
    fine = _solve(discretize(graph, problem, 2 * points_per_unit), count, coarse)[0]
    return (4.0 * fine - coarse[0]) / 3.0
