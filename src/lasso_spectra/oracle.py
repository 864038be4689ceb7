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
bisection sped up by Newton steps inside the bracket, with
s' = -1 - |(T - sigma)^(-1) b|^2. Where b^T v = 0 for a mu's eigenvector v,
s has no pole there and lambda_k = mu (the sign rule finds it; so do equal
mu, as from equal chains).

No shift solves a linear system. A chain's rows fall into a few runs of
equal (diagonal, |off-diagonal|), and over a run of m rows the elimination
of T_c - sigma follows Chebyshev polynomials in closed form, so one pass
over the runs (_pass) gives the last pivot r, d(1/r)/dsigma, det(T_c - sigma)
and its log-derivative, at O(runs) per chain and shift instead of O(dim).
s and s' take one pass per pendant and two on the cycle (three near an
eigenvalue of the cycle's chain without its last row), and a Newton step
on a chain eigenvalue one. The lowest eigenvalues agree with a dense
symmetric solve within ~3e-11 relative at 50-160 points per unit, and with
gtsv-based bisection of s within 1e-10 on the shipped configs and the
`oracle` benchmark cells, on both grids.

Each iteration starts at its bracket's midpoint, except the first bracket's:
below mu_0, s is concave and decreasing, so Newton converges from the right
of lambda_0 without bisecting; it starts an eighth of the mean spacing of
the mu below mu_0. A bracket whose root is its own end (a removable or
nearly removable pole, b^T v ~ 0) sends Newton past that end every step;
the first such step probes s once at 2 tol inside the end, and if the root
lies between, the eigenvalue is that mu.

The mu come from one solver per chain T_c (_Chain), on both grids: Newton
on its last pivot r (step -r / r'), certified as the k-th eigenvalue of the
chain by a Sturm count, also in closed form per run. The count also
isolates the start of a cold mu, and bisects where a certificate fails.
Byte-identical chains (equal pendants) are solved once, so they give
bit-equal mu. The mu agree with LAPACK stebz at full precision within
~2e-11 relative.

Eigenvalue error is O(h^2); richardson_eigs extrapolates over h and h/2,
the fine grid doubling each edge's node count. The fine solve starts each
mu at the coarse mu of the same chain and index, and each bracket at its
coarse eigenvalue (one outside its bracket probes the nearer end first).

The module needs numpy alone.
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
_TINY = np.finfo(float).tiny


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

    @property
    def bounds(self) -> np.ndarray:
        """Chain c of T is rows bounds[c]:bounds[c + 1]; T splits where off = 0."""
        return np.r_[0, np.flatnonzero(self.off == 0.0) + 1, len(self.diag)]


def discretize(graph, problem: Problem, points_per_unit: float, refine: int = 1) -> DiscreteOperator:
    """The operator on a grid of about points_per_unit nodes per length unit,
    each edge's node count times refine (so refine = 2 halves every spacing)."""
    graph = validate(graph)
    problem.check(graph)
    if points_per_unit < MIN_POINTS_PER_UNIT:
        raise GridTooCoarse(
            f"points_per_unit = {points_per_unit} < {MIN_POINTS_PER_UNIT}"
        )
    counts = [refine * _nodes_for_edge(e, graph.unit_value, points_per_unit) for e in graph.edges]
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


def _chebyshev_u(n: int, eps: float) -> tuple[float, float, float, float]:
    """U_n and U_(n-1) at x = 1 + eps / 2 and their x-derivatives, for (n + 1)^2 |eps| <= 1/4.

    U_n(1 + eps / 2) = sum_k C(n + k + 1, 2k + 1) eps^k. Term k is at most
    (n + 1) 4^-k / (2k + 1)! there, so eight terms reach the rounding level;
    the closed forms lose (n theta)^-2 of their precision at the band edge.
    """
    un = um = dun = dum = 0.0
    cn, cm, power, dpower = float(n + 1), float(n), 1.0, 0.0
    for k in range(min(n, 7) + 1):
        un, um, dun, dum = un + cn * power, um + cm * power, dun + cn * dpower, dum + cm * dpower
        step = (2 * k + 2) * (2 * k + 3)
        cn, cm = cn * ((n + k + 2) * (n - k) / step), cm * ((n + k + 1) * (n - k - 1) / step)
        power, dpower = power * eps, dpower * eps + power
    return un, um, 2.0 * dun, 2.0 * dum


def _run(u: float, v: float, p: float, q: float, dp: float, dq: float, e: float, m: int):
    """Q_(m-1), Q_m and their sigma-derivatives for Q_j = q U_j(x) - p U_(j-1)(x),
    which starts from Q_(-1) = p, Q_0 = q, all times a positive factor that is returned.

    Q is linear in (p, q), so a zero entering pivot (q = 0) costs no precision.
    Beside the top edge (v < u) it runs on (-1)^j Q_j at -x. Within
    (m + 1)^2 |2x - 2| <= 1/4 of the edge it sums U's series; in the band the
    values take the phase form R sin(j theta + phi) / sin theta, as the count
    does; below it Q_j = A exp(j t) + B exp(-j t), scaled by exp(-m t), which
    keeps a decaying Q exact.
    """
    flip = v < u
    if flip:
        u, v, p, dp = v, u, -p, -dp
    x, dx = v - u, (0.5 if flip else -0.5) / e  # x in this frame and dx / dsigma
    eps = -4.0 * u  # 2x - 2
    factor = 1.0
    near = (m + 1) ** 2 * abs(eps) <= 0.25
    if u < 0.0 and not near:
        sinh = 2.0 * math.sqrt(-u * v)
        t = math.asinh(sinh)
        grow, gm, dt = math.exp(t), math.exp(-2.0 * m * t), dx / sinh
        gm1, factor = gm * grow * grow, math.exp(-m * t)
        a = (q * grow - p) / (2.0 * sinh)
        da = (dq * grow - dp) / (2.0 * sinh) + dt * (p * x - q) / (2.0 * sinh * sinh)
        b, db = q - a, dq - da
        qa, qb = (a + b * gm1) / grow, a + b * gm
        dqa = (da + a * (m - 1) * dt + (db - b * (m - 1) * dt) * gm1) / grow
        dqb = da + a * m * dt + (db - b * m * dt) * gm
    else:
        if near:
            um, um1, dum, dum1 = _chebyshev_u(m, eps)
            qa, qb = q * um1 - p * (2.0 * x * um1 - um), q * um - p * um1
        else:
            # U_n = sin((n + 1) theta) / sin theta, x = cos theta, s = sin theta.
            # The values expand R sin(j theta + phi) / s, R (cos phi, sin phi)
            # = (q x - p, q s), so that q x - p is formed first, as the count does.
            s = 2.0 * math.sqrt(u * v)
            theta = math.atan2(s, x)
            sm, cm = math.sin(m * theta), math.cos(m * theta)
            sn, cn = sm * x + cm * s, cm * x - sm * s  # at (m + 1) theta
            um, um1 = sn / s, sm / s
            dum, dum1 = (sn * x - (m + 1) * cn * s) / s**3, (sm * x - m * cm * s) / s**3
            w = q * x - p
            qa, qb = ((sm * x - cm * s) * w + (cm * x + sm * s) * q * s) / s, (sm * w + cm * q * s) / s
        um2, dum2 = 2.0 * x * um1 - um, 2.0 * um1 + 2.0 * x * dum1 - dum
        dqa = dq * um1 - dp * um2 + (q * dum1 - p * dum2) * dx
        dqb = dq * um - dp * um1 + (q * dum - p * dum1) * dx
    if flip:
        if m % 2:
            qb, dqb = -qb, -dqb
        else:
            qa, dqa = -qa, -dqa
    return qa, qb, dqa, dqb, factor


def _runs(diag: np.ndarray, off: np.ndarray) -> list[tuple[float, float, int]]:
    """A chain's runs of equal (d_i, |off_(i-1)|) as (d, |off|, rows); row 0 takes |off_0|."""
    couple = np.abs(np.concatenate((off[:1], off))) if len(off) else np.ones(1)
    cuts = np.flatnonzero((diag[1:] != diag[:-1]) | (couple[1:] != couple[:-1])) + 1
    bounds = [0, *cuts.tolist(), len(diag)]
    return [(float(diag[i]), float(couple[i]), j - i) for i, j in zip(bounds[:-1], bounds[1:])]


def _pass(runs: list[tuple[float, float, int]], sigma: float) -> tuple[float, float, float, float]:
    """Over a chain's runs: the last pivot r of T_c - sigma, P = d(1 / r) / dsigma,
    prod(|off|) / det(T_c - sigma) and d log|det(T_c - sigma)| / dsigma.

    The pivots of T_c - sigma are r_i = (d_i - sigma) - off_(i-1)^2 / r_(i-1),
    and over a run of m rows with entries (c, e) they are e Q_j / Q_(j-1) with
    Q_j = 2 x Q_(j-1) - Q_(j-2), x = (c - sigma) / 2e (see _run), which
    carries the determinant: det(rows 0..i) = Q_i times the e's so far. The
    pass carries (Q, Q') homogeneously through the runs and divides once at
    the end, so a pivot near zero at a run's end costs no precision. P is
    |(T_c - sigma)^(-1) e_last|^2, the s' term of a chain end.
    """
    # (Q_(i-1) / e, Q_i) after the rows so far, e their last run's, with
    # Q_i = det(rows 0..i) / (their e's product) times scale.
    a, b, da, db, scale = 0.0, 1.0, 0.0, 0.0, 1.0
    for c, e, m in runs:
        if m > 2:
            u, v = (sigma - (c - 2.0 * e)) / (4.0 * e), ((c + 2.0 * e) - sigma) / (4.0 * e)
            qa, qb, dqa, dqb, factor = _run(u, v, e * a, b, e * da, db, e, m)
            scale *= factor
        else:
            # One or two elimination steps, as they are: Q_1 = 2 x Q_0 - Q_(-1).
            x, dx = (c - sigma) / (2.0 * e), -0.5 / e
            qa, qb, dqa, dqb = b, 2.0 * x * b - e * a, db, 2.0 * (x * db + dx * b) - e * da
            if m == 2:
                qa, qb, dqa, dqb = qb, 2.0 * x * qb - qa, dqb, 2.0 * (x * dqb + dx * qb) - dqa
        a, b, da, db = qa / e, qb, dqa / e, dqb
        norm = max(abs(a), abs(b))
        if not 1e-100 < norm < 1e100:  # rescale, away from over- and underflow
            norm = norm or 1.0
            a, b, da, db, scale = a / norm, b / norm, da / norm, db / norm, scale / norm
    # r = b / a and det(T_c - sigma) = prod(|off|) b / (scale |off_0|).
    if not b:
        return math.copysign(_TINY, a), math.inf, math.inf, math.inf
    return b / a if a else math.inf, (da * b - a * db) / (b * b), scale / (runs[0][1] * b), db / b


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
    A Newton step is one pass (_pass) over the same runs.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        self.size = len(diag)
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
        self.runs = _runs(diag, off)
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

    def newton(self, sigma: float, lo: float, hi: float) -> float | None:
        """Newton on the last pivot r inside (lo, hi): the step -r / r' is 1 / (r P)."""
        for _ in range(MAX_CHAIN_STEPS):
            r, slope, _, _ = _pass(self.runs, sigma)
            # Next to an eigenvalue whose vector nearly vanishes at the last row,
            # r P can overflow or underflow; the step is then 0 or leaves (lo, hi),
            # and the count certifies or rejects.
            rate = r * slope
            step = 1.0 / rate if rate else math.inf
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
    bounds = op.bounds
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


def _schur(op: DiscreteOperator):
    """s(sigma) = a - sigma - b^T (T - sigma)^(-1) b and s' = -1 - |(T - sigma)^(-1) b|^2,
    in one pass per chain end that b couples (two or three on the cycle).

    Every chain end that b couples adds to b^T (T - sigma)^(-1) b. A pendant's
    chain ends at its vertex row v and adds b_v^2 / r_v. The cycle's chain
    T_c is coupled at both ends, rows 1 and m; eliminating its rows in order
    with b as the right-hand side, it adds b_1^2 G'_11 + y^2 / r_m, where G'
    inverts T' - sigma, T' = T_c without row m, so G'_11 = 1 / (the last
    pivot of T' reversed), and y = b_m + b_1 prod(-off / r) over T''s rows.
    This is b_1^2 G_11 + 2 b_1 b_m G_1m + b_m^2 G_mm regrouped: where
    b^T v = 0 at a mu of the cycle, y vanishes with r_m and the pole's residue
    y^2 is exact to second order, as it is in an LU solve.

    The regrouping has poles of its own at the eigenvalues of T', where its two
    terms grow and cancel: 1 / r's ~1e-12 relative error in terms ~1e5 put
    eigenvalues near one off by up to ~5e-11 relative. Where the
    unregrouped form's terms are the smaller (by G_11 = G'_11 + pi^2 / r_m,
    G_1m = pi / r_m and G_mm = 1 / r_m), a third pass, over T_c reversed,
    gives G_11 = 1 / r_1 and s takes b_1^2 / r_1 + (y + b_1 pi) b_m / r_m,
    whose poles are the mu alone.
    """
    # Byte-identical pendants (with their b_v) add one term, b_v^2 summed.
    pendants: dict[bytes, list] = {}
    cycles = []
    bounds = op.bounds
    for a, z in zip(bounds[:-1], bounds[1:]):
        diag, off, last = op.diag[a:z], op.off[a : z - 1], float(op.b[z - 1])
        if z - a > 1 and op.b[a]:
            sign = float(np.prod(-np.sign(off)))
            head, back = _runs(diag[:-1], off[:-1]), _runs(diag[-2::-1], off[-2::-1])
            whole = _runs(diag[::-1], off[::-1])
            cycles.append((head, back, whole, float(op.b[a]), last, float(diag[-1]), float(off[-1]), sign))
        else:
            pendants.setdefault(diag.tobytes() + off.tobytes(), [_runs(diag, off), 0.0])[1] += last * last

    vertex = float(op.a)

    def schur(sigma):
        s, slope = vertex - sigma, -1.0
        for runs, weight in pendants.values():
            r, p, _, _ = _pass(runs, sigma)
            s, slope = s - weight / r, slope - weight * p
        for head, back, whole, first, last, d, off, sign in cycles:
            r, p, cof, dlog = _pass(head, sigma)
            rm = (d - sigma) - off * off / r or _TINY
            pm = (1.0 + off * off * p) / (rm * rm)  # d(1 / r_m) / dsigma
            pi = sign * abs(off) * cof
            y, dy = last + first * pi, -first * pi * dlog
            r, p, _, _ = _pass(back, sigma)
            grouped = first * first / abs(r) + y * y / abs(rm)
            whole_y = (y + first * pi) * last  # 2 b_1 b_m pi + b_m^2
            if 8.0 * (first * first * abs(1.0 / r + pi * pi / rm) + abs(whole_y / rm)) < grouped:
                r, p, _, _ = _pass(whole, sigma)
                s -= first * first / r + whole_y / rm
                slope -= first * first * p + 2.0 * last * dy / rm + whole_y * pm
            else:
                s -= first * first / r + y * y / rm
                slope -= first * first * p + 2.0 * y * dy / rm + y * y * pm
        return s, slope

    return schur


def _solve(op: DiscreteOperator, count: int, coarse=None):
    """The count smallest eigenvalues, ascending, the chain eigenvalues mu, and each mu's chain.

    coarse is that triple for the same problem on a coarser grid: each mu is
    continued from the coarse mu of its chain (see _continue_mu), and each
    bracket's iteration starts at its coarse eigenvalue.
    """
    count = min(count, len(op.diag) + 1)
    last = min(count, len(op.diag)) - 1
    # Gershgorin bounds close the first bracket below and, for count = dim, the last above.
    radius = np.abs(op.b) + np.abs(np.r_[op.off, 0.0]) + np.abs(np.r_[0.0, op.off])
    bound = np.sum(np.abs(op.b))
    lower = min(op.a - bound, np.min(op.diag - radius))
    upper = max(op.a + bound, np.max(op.diag + radius))
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
    schur = _schur(op)

    def root(lo, hi, start):
        # Inside (lo, hi), lambda < sigma iff s(sigma) < 0.
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
            s, slope = schur(sigma)
            lo, hi = (lo, sigma) if s < 0.0 else (sigma, hi)
            if probe is not None:
                if probe in (lo, hi):
                    return probe
                probe, sigma = None, 0.5 * (lo + hi)
                continue
            newton = sigma - s / slope
            if abs(newton - sigma) <= tol:
                return newton
            if lo < newton < hi:
                sigma = newton
            else:
                sigma = 0.5 * (lo + hi)
                if newton >= hi == ends[1] or newton <= lo == ends[0]:
                    probe = hi if newton >= hi else lo
        return sigma

    lam = np.array([root(float(ends[k]), float(ends[k + 1]), float(starts[k])) for k in range(count)])
    # A root within tol of its bracket's end is that mu (a removable pole, b^T v = 0).
    low, high = ends[:count], ends[1 : count + 1]
    lam = np.where(lam - low <= tol, low, np.where(high - lam <= tol, high, lam))
    return lam, mu, chain


def oracle_eigs(op: DiscreteOperator, count: int) -> np.ndarray:
    """The count smallest eigenvalues, ascending: one Schur-complement root per bracket."""
    return _solve(op, count)[0]


def richardson_eigs(graph, problem: Problem, count: int, points_per_unit: float) -> np.ndarray:
    """Eigenvalues extrapolated over grids h and h/2 (cancels the h^2 term).

    The fine grid has exactly twice each edge's coarse node count, and its
    solve continues from the coarse one (see _solve).
    """
    coarse = _solve(discretize(graph, problem, points_per_unit), count)
    fine = _solve(discretize(graph, problem, points_per_unit, refine=2), count, coarse)[0]
    return (4.0 * fine - coarse[0]) / 3.0
