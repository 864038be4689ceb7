"""Independent brute-force eigenvalues from a finite-element discretization.

Ground truth for cross-validation: piecewise-linear elements with lumped mass
on every edge, the cycle closing both its ends onto the internal vertex. In
the weak form sigma becomes point terms, its jumps extended by zero beyond
its edge: a delta's height at its node, sigma_j(0+) at each edge's start and
-sigma_j(|e_j|-) at the vertex. M^(-1/2) reduces A u = lambda M u to an
ordinary symmetric problem.

Each edge numbers its own dofs along the edge, and the internal vertex is
kept apart, so deleting it leaves p + 1 independent chains: the cycle's
interior and each pendant (without its pinned end for Lj). The operator is
A = [[a, b^T], [b, T]], T tridiagonal with a zero coupling between chains and
b nonzero at the p + 2 chain ends next to the vertex. By Cauchy interlacing,
lambda_k lies in [mu_(k-1), mu_k], the eigenvalues of T (Gershgorin bounds
close the outer brackets). Inside it, Haynsworth's inertia formula counts
N(sigma) = #{mu < sigma} + [s(sigma) < 0] with the vertex Schur complement
s(sigma) = a - sigma - b^T (T - sigma)^(-1) b (Golub, SIAM Rev. 1973), so
lambda_k is where s changes sign, found by bisection sped up by Newton steps
(s' = -1 - |(T - sigma)^(-1) b|^2). Where b^T v = 0 for a mu's eigenvector v,
s has no pole there and lambda_k = mu.

Nothing is assembled node by node. A chain's rows share one (diagonal,
|off-diagonal|) but at sigma's breakpoints and a free end, so a chain is a
few runs of equal rows whatever h: the operator's format (DiscreteOperator),
which discretize forms from each edge's node count and breakpoint rows, float
for float as a per-node assembly would. The set-up reads the runs, but for
two numpy pairwise sums over rows that steer the cold bisection: ~0.17 ms a
grid level on the `oracle` benchmark cells, against ~0.39 ms with a per-node
assembly compressed into runs (2-vCPU VM). Over a run the elimination of
T_c - sigma follows Chebyshev polynomials in closed form, so one pass over the
runs (_pass) gives the last pivot r, d(1/r)/dsigma, det(T_c - sigma) and its
log-derivative: s and s' take one per pendant and two or three on the cycle.
The lowest eigenvalues agree with a dense symmetric solve within ~3e-11
relative at 50-160 points per unit, and with gtsv-based bisection of s within
1e-10. The mu come from one solver per chain (_Chain): Newton on its last
pivot, certified by a Sturm count in closed form per run, which also isolates
a cold start; they agree with LAPACK stebz within ~2e-11 relative.

Eigenvalue error is O(h^2); richardson_eigs extrapolates over h and h/2, the
fine grid doubling each edge's node count and starting each mu and bracket at
its coarse value. The module needs numpy alone.
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
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _grid(edge, unit: float, points_per_unit: float, refine: int = 1) -> tuple[int, list[int]]:
    """The node count that puts every sigma breakpoint exactly on a grid node, times
    refine, and the nodes of the interior breakpoints."""
    ratios = [b / edge.length for b in edge.potential.breakpoints[1:-1]]  # exact positions
    align = math.lcm(1, *(r.denominator for r in ratios))
    n = refine * max(1, math.ceil(float(edge.length) * unit * points_per_unit / align)) * align
    return n, [r.numerator * (n // r.denominator) for r in ratios]


@dataclass(frozen=True)
class DiscreteOperator:
    """Mass-normalized symmetric A = [[a, b^T], [b, T]], row 0 the vertex. A chain of
    T is its runs of equal rows, (diagonal, |off-diagonal|, rows) from its first row
    to the one next to the vertex, row 0 taking row 1's |off| (1.0 alone); the
    off-diagonals are negative. ends: b at each chain's first and last row (one row: last)."""

    chains: tuple[tuple[tuple[float, float, int], ...], ...]
    ends: tuple[tuple[float, float], ...]
    a: float
    h: tuple[float, ...]  # grid spacing per edge

    # The per-node arrays, derived from the runs, with off = 0 between chains.
    @property
    def diag(self) -> np.ndarray:
        return np.concatenate([_rows(runs)[0] for runs in self.chains])

    @property
    def off(self) -> np.ndarray:
        return np.concatenate([np.r_[-_rows(runs)[1][1:], 0.0] for runs in self.chains])[:-1]

    @property
    def b(self) -> np.ndarray:
        b = [np.zeros(sum(m for _, _, m in runs)) for runs in self.chains]
        for rows, (first, last) in zip(b, self.ends):
            rows[0], rows[-1] = first, last
        return np.concatenate(b)


def _rows(runs) -> tuple[np.ndarray, np.ndarray]:
    """A chain's diagonal and row |off| (row 0's that of row 1), row by row."""
    d, e, m = zip(*runs)
    return np.repeat(d, m), np.repeat(e, m)


def _compress(diag, gaps) -> tuple[tuple[float, float, int], ...]:
    """A chain's runs from (value, rows) pieces of its diagonal and of the |off| between its
    rows: equal adjacent rows merge, and row 0 takes row 1's |off| (1.0 alone)."""
    gaps = [g for g in gaps if g[1]]
    couple = iter([(gaps[0][0], 1), *gaps] if gaps else [(1.0, 1)])
    (e, left), runs = next(couple), []
    for d, m in diag:
        while m:
            e, left = (e, left) if left else next(couple)
            step = min(m, left)
            if runs and runs[-1][:2] == (d, e):
                runs[-1] = (*runs[-1][:2], runs[-1][2] + step)
            else:
                runs.append((d, e, step))
            m, left = m - step, left - step
    return tuple(runs)


def _oriented(runs, reverse: bool = False, drop_last: bool = False):
    """The runs of a chain given by its runs, reversed and/or without its last row."""
    diag, gaps = [[d, m] for d, _, m in runs], [[e, m] for _, e, m in runs]
    gaps[0][1] -= 1  # row 0 has no row before it
    if drop_last:
        diag[-1][1], gaps[-1][1] = diag[-1][1] - 1, gaps[-1][1] - 1
    return _compress(diag[::-1], gaps[::-1]) if reverse else _compress(diag, gaps)


def _gershgorin(runs, first: float = 0.0, last: float = 0.0) -> tuple[float, float]:
    """min(d - r) and max(d + r) over a chain's rows, r the row's |off| before plus
    after, plus |b| at the chain's first and last row (b = first, last)."""
    lower, upper, alone = math.inf, -math.inf, len(runs) == 1 and runs[0][2] == 1
    for j, ((d, e, m), after) in enumerate(zip(runs, [*(e for _, e, _ in runs[1:]), 0.0])):
        # k of the run's rows have e before them (row 0 none); r peaks at one of the last two.
        k = m - (j == 0)
        r = after if k == 0 else e + after if k == 1 else e + max(e, after)
        lower, upper = min(lower, d - r), max(upper, d + r)
    for d, b, e in ((runs[0][0], first, runs[0][1]), (runs[-1][0], last, runs[-1][1])):
        r = abs(b) + (0.0 if alone else e)  # an end row's one |off| is its run's
        lower, upper = min(lower, d - r), max(upper, d + r)
    return lower, upper


def _outer_bounds(op: DiscreteOperator) -> tuple[float, float]:
    """Gershgorin bounds of A: the vertex row's (numpy's pairwise sum of |b|) and the chains'."""
    bound = np.sum(np.abs(op.b))
    rows = [_gershgorin(runs, *ends) for runs, ends in zip(op.chains, op.ends)]
    return min(op.a - bound, *(lo for lo, _ in rows)), max(op.a + bound, *(hi for _, hi in rows))


def discretize(graph, problem: Problem, points_per_unit: float, refine: int = 1) -> DiscreteOperator:
    """The operator on a grid of about points_per_unit nodes per length unit,
    each edge's node count times refine (so refine = 2 halves every spacing)."""
    graph = validate(graph)
    problem.check(graph)
    if not MIN_POINTS_PER_UNIT <= points_per_unit < math.inf:
        raise GridTooCoarse(f"points_per_unit = {points_per_unit}, not finite and >= {MIN_POINTS_PER_UNIT}")
    if refine < 1:
        raise ValueError(f"refine = {refine} < 1")

    # Each edge's local nodes 0..n: n is the internal vertex, and so is 0 on the
    # cycle; its chain is nodes first..n-1. Node i has stiffness 2 / h (1 / h at
    # 0 and n) plus the jump of sigma there, mass h (h / 2 at 0 and n), and -1 / h
    # to node i + 1, all scaled by mass^(-1/2) per row and column, float for float.
    pinned = problem.j if problem.kind == "dirichlet" else None
    chains, ends, spacings = [], [], []
    a = vertex_mass = 0.0
    for j, edge in enumerate(graph.edges):
        n, nodes = _grid(edge, graph.unit_value, points_per_unit, refine)
        h = graph.edge_length(j) / n
        spacings.append(h)
        values = edge.potential.values
        jumps = [v - u for u, v in zip((0.0, *values), (*values, 0.0))]  # of sigma, ends included
        inv = 1.0 / h
        # The vertex's stiffness and mass from this edge (a one-element cycle links it to itself).
        link = -inv if j == 0 and n == 1 else 0.0
        a += (inv + jumps[0] + link) + (inv + jumps[-1] + link) if j == 0 else inv + jumps[-1]
        vertex_mass += h / 2.0 + h / 2.0 if j == 0 else h / 2.0
        first = 1 if j in (0, pinned) else 0
        if first == n:
            continue  # no chain rows
        w = 1.0 / math.sqrt(h)
        diag, gaps, row = [], [(inv * w * w, max(n - 2, 0))], 1
        for k, jump in zip(nodes, jumps[1:-1]):
            diag += [(2.0 / h * w * w, k - row), ((2.0 / h + jump) * w * w, 1)]
            row = k + 1
        diag.append((2.0 / h * w * w, n - row))
        if first == 0:  # the free end, mass h / 2
            w0 = 1.0 / math.sqrt(h / 2.0)
            diag.insert(0, ((inv + jumps[0]) * w0 * w0, 1))
            gaps.insert(0, (inv * w0 * w, 1 if n > 1 else 0))
        chains.append(_compress(diag, gaps))
        # b / w_a: -1 / h next to the vertex, and at the cycle's first row (one row: both).
        cycle = (-inv * w, -inv * w) if n > 2 else (0.0, (-inv - inv) * w)
        ends.append(cycle if j == 0 else (0.0, -inv * (w if n > 1 else w0)))

    w_a = 1.0 / math.sqrt(vertex_mass)
    # From a list: tuple() resizes a generator's, which leaves one on CPython's free lists per call.
    ends = tuple([(first * w_a, last * w_a) for first, last in ends])
    return DiscreteOperator(tuple(chains), ends, a * w_a * w_a, tuple(spacings))


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
    """Q_(m-1), Q_m and their sigma-derivatives for Q_j = q U_j(x) - p U_(j-1)(x)
    from Q_(-1) = p, Q_0 = q (linear in (p, q): a zero entering pivot costs no
    precision), all times a positive factor that is returned. Beside the top
    edge (v < u) it runs on (-1)^j Q_j at -x. Within (m + 1)^2 |2x - 2| <= 1/4
    of the edge it sums U's series; in the band it takes the count's phase form
    R sin(j theta + phi) / sin theta; below it A exp(j t) + B exp(-j t), scaled
    by exp(-m t), which keeps a decaying Q exact.
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


def _pass(runs: list[tuple[float, float, int]], sigma: float) -> tuple[float, float, float, float]:
    """Over a chain's runs: the last pivot r of T_c - sigma, P = d(1 / r) / dsigma
    (|(T_c - sigma)^(-1) e_last|^2, a chain end's s' term), prod(|off|) /
    det(T_c - sigma) and d log|det(T_c - sigma)| / dsigma.

    The pivots r_i = (d_i - sigma) - off_(i-1)^2 / r_(i-1) over a run of m rows
    with entries (c, e) are e Q_j / Q_(j-1), Q_j = 2 x Q_(j-1) - Q_(j-2),
    x = (c - sigma) / 2e (see _run), and det(rows 0..i) = Q_i times the e's so
    far. The pass carries (Q, Q') homogeneously and divides once at the end,
    so a pivot near zero at a run's end costs no precision.
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

    The count below sigma is the number of negative pivots of T_c - sigma.
    Over a run of entries (c, e) they are e q_j / q_(j-1) for
    q_j = 2 x q_(j-1) - q_(j-2), x = (c - sigma) / 2e, from the entering pivot
    r as q_(-1) = e / r, q_0 = 1 (row 0: q_(-1) = 0). In the band, |x| < 1,
    q_j ~ sin(j theta + phi) with cos theta = x, so m rows add
    floor((m theta + phi) / pi) negative pivots; below it, q_j = a exp(j theta)
    + (1 - a) exp(-j theta) changes sign at most once, and above it (-1)^j q_j
    does. A count costs O(runs), and so does a Newton step (_pass).
    """

    def __init__(self, runs):
        self.runs = runs
        self.size = sum(m for _, _, m in runs)
        self.lower, self.upper = _gershgorin(runs)
        # The rounding level of a pivot, and LAPACK's guard against a zero pivot.
        self.tol = 4.0 * _EPS * max(abs(self.lower), abs(self.upper))
        self.pivmin = _TINY * max(1.0, max(e for _, e, _ in runs) ** 2)
        self.seen: dict[float, int] = {}  # count(sigma) by sigma
        # The Rayleigh quotient of the all-ones vector (pairwise sums) bounds mu_0 above.
        diag, couple = _rows(runs)
        self.first = min(self.upper, float(np.sum(diag) - 2.0 * np.sum(couple[1:])) / self.size + self.tol)

    def pivots(self, sigma: float) -> tuple[int, float]:
        """The count below sigma (negative pivots) and the last pivot; counts are kept for eig."""
        negative, r = 0, math.inf
        for c, e, m in self.runs:
            # sigma is in the band [c - 2e, c + 2e] where u, v = 1 - u > 0, each from its edge.
            u, v = (sigma - (c - 2.0 * e)) / (4.0 * e), ((c + 2.0 * e) - sigma) / (4.0 * e)
            inv = e / r  # q_(-1)
            if u > 0.0 and v > 0.0:
                # q_j ~ sin(j theta + phi), phi in [0, pi): a pivot is negative
                # where the phase passes a multiple of pi. Each angle is kept as
                # a multiple of pi plus a remainder in [-pi/2, pi/2], each from
                # its own atan2, so that near a band edge (theta or phi near pi)
                # the count is not decided by a sum rounded at the level of pi.
                s, x = 2.0 * math.sqrt(u * v), v - u  # sin theta, cos theta
                a, t = (0, math.atan2(s, x)) if x >= 0.0 else (1, -math.atan2(s, -x))
                b, f = (0, math.atan2(s, x - inv)) if x >= inv else (1, -math.atan2(s, inv - x))
                # before = (m - 1) theta + phi, and before + theta.
                turns, rest = (m - 1) * a + b, (m - 1) * t + f
                changes = turns + a + math.floor((rest + t) / math.pi)
                last = changes > turns + math.floor(rest / math.pi)
                den = math.sin(rest)
                rho = (-1.0 if a else 1.0) * math.sin(rest + t) / den if den else math.inf
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
        a = (math.expm1(theta) + (1.0 - inv)) / (2.0 * sinh)  # q_j = a exp(j theta) + (1 - a) exp(-j theta)
        if a == 0.0:
            return 0, False, 1.0 / grow
        # With a < 0, q_j decreases from 1 and changes sign where 2 j theta passes crossing.
        crossing = math.log1p(-1.0 / a) if a < 0.0 else math.inf
        # exp(j theta) q_j = 1 + (a - 1)(1 - exp(-2 j theta)): near the band edge a ~ 1 / theta,
        # and a + (1 - a) exp(-2 j theta) would cancel to ~theta relative.
        before = 1.0 - (a - 1.0) * math.expm1(-2.0 * (m - 1) * theta)
        rho = grow * (1.0 - (a - 1.0) * math.expm1(-2.0 * m * theta)) / before if before else math.inf
        turns = 2.0 * m * theta
        return int(turns > crossing), turns - 2.0 * theta <= crossing < turns, rho

    def newton(self, sigma: float, lo: float, hi: float) -> float | None:
        """Newton on the last pivot r inside (lo, hi): the step -r / r' is 1 / (r P)."""
        for _ in range(MAX_CHAIN_STEPS):
            r, slope, _, _ = _pass(self.runs, sigma)
            # Next to an eigenvalue whose vector nearly vanishes at the last row, r P
            # can over- or underflow: the step is 0 or leaves (lo, hi), and the count judges.
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

        Without a start, or after a failed one, it halves the bracket on the count
        until a shift lies in (mu_k, nu_k), nu_k the k-th eigenvalue of T_c without
        its last row (count k + 1, last pivot negative), from where Newton converges.
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
                below, above = self.pivots(mu - margin)[0], self.pivots(mu + margin)[0]
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
    and index; identical chains are solved once. Then every chain whose count
    below the top of that list exceeds what it holds adds its next eigenvalue,
    until none does. Every mu is certified on its own chain, whatever its
    start, and with no coarse mu at all every one is found by the count alone.
    """
    if last < 0:
        return np.empty(0), np.empty(0, dtype=int)
    solved, chains = {}, []
    for c, key in enumerate(op.chains):
        if key not in solved:
            # Reversed, a pendant's chain ends at its free end, where no eigenvector
            # vanishes, so Newton on the last pivot converges from most of a bracket.
            solved[key] = (_Chain(_oriented(key, reverse=True)), [])
        chain, mu = solved[key]
        starts = coarse_mu[coarse_chain == c].tolist()
        for k in range(len(mu), min(len(starts), chain.size)):
            mu.append(chain.eig(k, starts[k]))
        chains.append((c, chain, mu))
    while True:
        pool = sorted((x, c) for c, _, mu in chains for x in mu)
        top = pool[last][0] if len(pool) > last else math.inf
        short = {id(mu): (chain, mu) for _, chain, mu in chains if len(mu) < chain.size
                 and (top == math.inf or chain.pivots(top)[0] > len(mu))}
        if not short:
            break
        for chain, mu in short.values():
            mu.append(chain.eig(len(mu), None))
    pool = pool[: last + 1]
    return np.array([x for x, _ in pool]), np.array([c for _, c in pool], dtype=int)


def _schur(op: DiscreteOperator):
    """s(sigma) = a - sigma - b^T (T - sigma)^(-1) b and s' = -1 - |(T - sigma)^(-1) b|^2,
    in one pass per chain end that b couples (two or three on the cycle).

    A pendant's chain ends at its vertex row v and adds b_v^2 / r_v to
    b^T (T - sigma)^(-1) b. The cycle's chain T_c is coupled at both ends, rows
    1 and m; eliminating its rows in order with b as the right-hand side, it
    adds b_1^2 G'_11 + y^2 / r_m, where G' inverts T' - sigma, T' = T_c without
    row m, so G'_11 = 1 / (the last pivot of T' reversed), and
    y = b_m + b_1 prod(-off / r) over T''s rows. This is
    b_1^2 G_11 + 2 b_1 b_m G_1m + b_m^2 G_mm regrouped: where b^T v = 0 at a mu
    of the cycle, y vanishes with r_m and the pole's residue y^2 is exact to
    second order, as in an LU solve. The regrouping has poles of its own at the
    eigenvalues of T', where its terms grow and cancel (up to ~5e-11 relative
    on eigenvalues near one). Where the unregrouped terms are the smaller (by
    G_11 = G'_11 + pi^2 / r_m, G_1m = pi / r_m, G_mm = 1 / r_m), a third pass,
    over T_c reversed, gives G_11 = 1 / r_1 and s takes
    b_1^2 / r_1 + (y + b_1 pi) b_m / r_m, whose poles are the mu alone.
    """
    # Identical pendants (with their b_v) add one term, b_v^2 summed.
    pendants, cycles = {}, []
    for runs, (first, last) in zip(op.chains, op.ends):
        if first:
            # The cycle's chain T_c, T' (head), T' reversed (back) and T_c reversed (whole).
            views = (_oriented(runs, drop_last=True), _oriented(runs, True, True), _oriented(runs, True))
            cycles.append((*views, first, last, *runs[-1][:2]))
        else:
            pendants.setdefault(runs, [runs, 0.0])[1] += last * last

    vertex = float(op.a)

    def schur(sigma):
        s, slope = vertex - sigma, -1.0
        for runs, weight in pendants.values():
            r, p, _, _ = _pass(runs, sigma)
            s, slope = s - weight / r, slope - weight * p
        for head, back, whole, first, last, d, off in cycles:
            r, p, cof, dlog = _pass(head, sigma)
            rm = (d - sigma) - off * off / r or _TINY
            pm = (1.0 + off * off * p) / (rm * rm)  # d(1 / r_m) / dsigma
            pi = off * cof
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

    coarse is that triple on a coarser grid: each mu continues from the coarse mu
    of its chain (see _continue_mu), and each bracket from its coarse eigenvalue.
    """
    size = sum(m for runs in op.chains for _, _, m in runs)
    count = min(count, size + 1)
    last = min(count, size) - 1
    # Gershgorin bounds close the first bracket below and, for count = dim, the last above.
    lower, upper = _outer_bounds(op)
    # Without a coarse grid every mu is found cold, by the count alone.
    starts, coarse_mu, coarse_chain = coarse or (None, np.empty(0), np.empty(0, dtype=int))
    mu, chain = _continue_mu(op, last, coarse_mu, coarse_chain)
    if coarse is None:
        starts = np.full(count, np.nan)  # nan: start at the bracket's midpoint
        if last > 0:
            # Below mu_0, s is concave and decreasing, so Newton converges from the right
            # of lambda_0 without bisecting; an eighth of the mean mu spacing below mu_0
            # is right of it or close on the test fixtures (else the midpoint, as elsewhere).
            starts[0] = mu[0] - (mu[-1] - mu[0]) / (8.0 * last)
    ends = np.r_[lower, mu, upper]
    tol = 4.0 * _EPS * np.max(np.abs(ends))  # the rounding level of s / s'
    schur = _schur(op)

    def root(lo, hi, start):
        # Inside (lo, hi), lambda < sigma iff s(sigma) < 0. A start outside the
        # bracket or within 2 tol of an end (where Newton would stop at the pole),
        # or the first Newton step past one of its ends, probes once at 2 tol
        # inside that end: if the root lies between, it is the end (a removable
        # pole, b^T v ~ 0); if not, the iteration goes on from the midpoint.
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


def richardson_eigs(graph, problem: Problem, count: int, points_per_unit: float) -> np.ndarray:
    """Eigenvalues extrapolated over grids h and h/2 (cancels the h^2 term). The fine
    grid doubles each edge's node count, and its solve continues the coarse one.
    A coarse grid with no chain rows, or fewer than count - 1 (count eigenvalues
    with the vertex row), raises GridTooCoarse."""
    if count < 0:
        raise ValueError(f"count = {count} < 0")
    op = discretize(graph, problem, points_per_unit)
    rows = sum(m for runs in op.chains for _, _, m in runs)
    if rows == 0 or rows < count - 1:
        raise GridTooCoarse(
            f"{rows} chain rows at points_per_unit = {points_per_unit}, "
            f"too few for {count} eigenvalues on the coarse grid"
        )
    coarse = _solve(op, count)
    fine = _solve(discretize(graph, problem, points_per_unit, refine=2), count, coarse)[0]
    return (4.0 * fine - coarse[0]) / 3.0
