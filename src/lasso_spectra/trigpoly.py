"""Exact trigonometric expansion of the zero-potential characteristic functions,
their smallest period, base zeros, and the resulting asymptotic frame.

For the full problem the zero-potential function d_0(rho) is an even cosine
polynomial sum c_m cos(f_m rho). For a pinned problem it is sum c_m
sin(f_m rho) / rho, so the periodic object carrying its zero structure is the
odd polynomial rho * d_0(rho). Frequencies are integer combinations of the
(rational) edge lengths, kept as exact Fractions. The expansion runs the
characteristic-function formula of `charfn.assemble` on free edge values held
as exact trig expressions in rho; the product-to-sum arithmetic is exact
rational, so cancellations are exact.

The frame records the smallest period tau, the zeros of the periodic
polynomial on [0, tau/2] with their multiplicities, exact from square-free
factors (base_zeros), and the multiplicity mu0 of the zero eigenvalue (in
lambda). They generate the unperturbed eigenvalue grid by one rule,
rho0_nk = |tau n + alpha_k|, n over Z (two-sided) or from a first index on:

  - mu0 two-sided families at alpha = 0, so interior lattice points tau n
    carry their full multiplicity 2 mu0;
  - for the pinned (sinc) flavor one extra family at alpha = 0 from n = 1,
    since rho * d_0 has odd multiplicity at 0;
  - mult two-sided families at each interior zero alpha;
  - half_mult families at alpha = tau/2 from n = 0 when tau/2 is a zero
    (always the case for the sinc flavor; warned for the cosine flavor).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from ._rootscan import _roots_in
from .charfn import assemble
from .errors import ConstantFunction, HalfPeriodZeroWarning
from .graph import Problem, ValidatedGraph, validate
from .propagate import FundamentalSolution, phi_pair


@dataclass(frozen=True)
class TrigPoly:
    """sum coefs[m] * trig(freqs[m] * unit * rho), trig = cos or sin.

    Frequencies are exact nonnegative rationals in units of `unit`, distinct
    and ascending; coefficients are nonzero exact rationals.
    """

    kind: str  # "cos" | "sin"
    freqs: tuple[Fraction, ...]
    coefs: tuple[Fraction | float, ...]
    unit: float = 1.0

    def __post_init__(self):
        assert self.kind in ("cos", "sin")

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        f = np.cos if self.kind == "cos" else np.sin
        for freq, coef in zip(self.freqs, self.coefs):
            out = out + float(coef) * f(float(freq) * self.unit * rho)
        return float(out) if out.ndim == 0 else out

    def scale(self) -> float:
        """Upper bound sum |c| for |p| over the real line (tolerance scale)."""
        return sum(abs(float(c)) for c in self.coefs)

    def freq_gcd(self) -> Fraction:
        g = Fraction(0)
        for f, c in zip(self.freqs, self.coefs):
            if f == 0 or c == 0.0:
                continue
            num = math.gcd(g.numerator * f.denominator, f.numerator * g.denominator)
            g = Fraction(num, g.denominator * f.denominator)
        if g == 0:
            raise ConstantFunction("no positive-frequency term with nonzero coefficient")
        return g

    def max_freq(self) -> float:
        return max((float(f) * self.unit for f in self.freqs), default=0.0)


def smallest_period(poly: TrigPoly) -> float:
    """Smallest period 2*pi / gcd(frequencies) of the trig polynomial."""
    return 2.0 * math.pi / (float(poly.freq_gcd()) * poly.unit)


class _TrigExpr:
    """Exact work form: {(kind, freq, power): coef}, scaled by 2**-shift.

    A term is coef / 2**shift * rho**power * trig(freq / den * unit * rho),
    trig = cos or sin. Frequencies are integers over a common denominator den
    of the edge lengths (to_poly takes it), and coefficients are integers over
    one power-of-two scale, which the halving of each product-to-sum step
    keeps exact. Integers stand for constants, so the expression supports the
    +, * and integer constants that `charfn.assemble` uses.
    """

    def __init__(self, terms=None, shift: int = 0):
        self.terms: dict[tuple[str, int, int], int] = dict(terms or {})
        self.shift = shift

    def _add(self, kind: str, freq: int, power: int, coef: int):
        if freq < 0:
            freq = -freq
            if kind == "sin":
                coef = -coef
        if kind == "sin" and freq == 0:
            return
        key = (kind, freq, power)
        new = self.terms.get(key, 0) + coef
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    @staticmethod
    def _of(x) -> "_TrigExpr":
        if isinstance(x, _TrigExpr):
            return x
        return _TrigExpr({("cos", 0, 0): x} if x else {})

    def __add__(self, other) -> "_TrigExpr":
        other = self._of(other)
        shift = max(self.shift, other.shift)
        out = _TrigExpr({key: c << (shift - self.shift) for key, c in self.terms.items()}, shift)
        for (kind, freq, power), coef in other.terms.items():
            out._add(kind, freq, power, coef << (shift - other.shift))
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "_TrigExpr":
        other = self._of(other)
        out = _TrigExpr(shift=self.shift + other.shift + 1)  # every product halves
        for (k1, f1, n1), c1 in self.terms.items():
            for (k2, f2, n2), c2 in other.terms.items():
                c, n = c1 * c2, n1 + n2
                if k1 == "cos" and k2 == "cos":
                    out._add("cos", f1 - f2, n, c)
                    out._add("cos", f1 + f2, n, c)
                elif k1 == "sin" and k2 == "sin":
                    out._add("cos", f1 - f2, n, c)
                    out._add("cos", f1 + f2, n, -c)
                elif k1 == "sin" and k2 == "cos":
                    out._add("sin", f1 + f2, n, c)
                    out._add("sin", f1 - f2, n, c)
                else:  # cos * sin
                    out._add("sin", f1 + f2, n, c)
                    out._add("sin", f2 - f1, n, c)
        return out

    __rmul__ = __mul__

    def to_poly(self, kind: str, power: int, unit: float, den: int) -> TrigPoly:
        bad = [k for k in self.terms if k[0] != kind or k[2] != power]
        assert not bad, f"unexpected terms {bad} beside {kind} * rho**{power}"
        items = sorted(self.terms.items(), key=lambda kv: kv[0][1])
        freqs = tuple(Fraction(f, den) for (_, f, _), _ in items)
        coefs = tuple(Fraction(c, 1 << self.shift) for _, c in items)
        return TrigPoly(kind, freqs, coefs, unit)


def _free_edge(freq: int) -> FundamentalSolution:
    """Zero-potential endpoint values: C = cos, C1 = -rho sin, S = sin/rho, S1 = cos,
    at the edge length freq / den."""
    return FundamentalSolution(
        C=_TrigExpr({("cos", freq, 0): 1}),
        C1=_TrigExpr({("sin", freq, 1): -1}),
        S=_TrigExpr({("sin", freq, -1): 1}),
        S1=_TrigExpr({("cos", freq, 0): 1}),
    )


def expand_free_charfn(graph, problem: Problem = Problem.neumann()) -> TrigPoly:
    """Exact expansion of the zero-potential characteristic function.

    The formula of `charfn.assemble` runs on free edge values held as exact
    trig expressions in rho. For L the result is the cosine polynomial d_0;
    for Lj every term carries 1/rho, and the sine polynomial rho * d_0 is
    returned.
    """
    graph = validate(graph)
    problem.check(graph)
    den = math.lcm(*(e.length.denominator for e in graph.edges))
    expr = assemble([_free_edge(int(e.length * den)) for e in graph.edges], problem.j)
    if problem.kind == "neumann":
        return expr.to_poly("cos", 0, graph.unit_value, den)
    return expr.to_poly("sin", -1, graph.unit_value, den)


@dataclass(frozen=True)
class Family:
    """One branch of the unperturbed eigenvalue grid, rho0 = |tau n + alpha|.

    first is None for a two-sided family (n in Z), else its lowest n: 1 for
    the sinc zero family {tau n}, 0 for the folded tau/2 family.
    """

    index: int
    alpha: float
    first: int | None
    mu: int  # reported multiplicity of the underlying base zero

    def rho0(self, n: int, tau: float) -> float:
        return abs(tau * n + self.alpha)

    def n_values(self, tau: float, rho_max: float) -> range:
        hi = int(math.floor((rho_max - self.alpha) / tau + 1e-12))
        if self.first is not None:
            return range(self.first, hi + 1)
        return range(int(math.ceil((-rho_max - self.alpha) / tau - 1e-12)), hi + 1)


@dataclass(frozen=True)
class AsymptoticFrame:
    """Period, base zeros, and family structure of an unperturbed spectrum."""

    tau: float
    poly: TrigPoly  # d_0 itself (cos) or rho * d_0 (sinc); periodic either way
    mu0: int
    interior: tuple[tuple[float, int], ...]  # (alpha, mult) on (0, tau/2)
    half_mult: int  # poly multiplicity at tau/2 (0 if not a zero)

    @property
    def flavor(self) -> str:
        return "cos" if self.poly.kind == "cos" else "sinc"

    @property
    def half_period_zero(self) -> bool:
        """tau/2 is a zero of d_0 of L: the case the theory excludes."""
        return self.flavor == "cos" and self.half_mult > 0

    @cached_property
    def families(self) -> tuple[Family, ...]:
        """Zero families, the sinc zero family, interior, then tau/2 families."""
        fams = [(0.0, None, self.mu0)] * self.mu0
        if self.flavor == "sinc":
            fams.append((0.0, 1, max(self.mu0, 1)))
        for alpha, mult in self.interior:
            fams += [(alpha, None, mult)] * mult
        fams += [(self.tau / 2.0, 0, self.half_mult)] * self.half_mult
        return tuple(Family(k, *fam) for k, fam in enumerate(fams))

    def alphas_report(self) -> list[tuple[float, int]]:
        """Distinct base zeros of d_0 on [0, tau/2] with reported multiplicity."""
        out = []
        if self.mu0 > 0:
            out.append((0.0, self.mu0))
        out.extend(self.interior)
        if self.half_mult > 0:
            out.append((self.tau / 2.0, self.half_mult))
        return out

    def delta(self) -> float:
        """Minimal distance between distinct base zeros (tau/2 if only one)."""
        alphas = [a for a, _ in self.alphas_report()]
        if self.flavor == "sinc":
            # tau n points are zeros of d_0 even when 0 itself is not.
            alphas = sorted(set(alphas) | {0.0})
        if len(alphas) < 2:
            return self.tau / 2.0
        return min(b - a for a, b in zip(alphas, alphas[1:]))

    @cached_property
    def _window(self) -> float:
        pts = sorted(set(round(r, 12) for _, _, r in self.slots(2.5 * self.tau)))
        gaps = [b - a for a, b in zip(pts, pts[1:]) if b - a > 1e-9]
        return 0.5 * min(self.delta(), min(gaps) if gaps else self.tau / 2.0)

    def window(self) -> float:
        """Half the smaller of delta and the minimal gap between distinct
        unperturbed grid points, computed once per frame."""
        return self._window

    def slot_arrays(self, rho_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays k, n, rho0 of all slots with rho0 <= rho_max, sorted by rho0
        then k then n."""
        ranges = [fam.n_values(self.tau, rho_max) for fam in self.families]
        k = np.repeat(np.arange(len(ranges)), [len(r) for r in ranges])
        n = np.concatenate([np.arange(r.start, r.stop) for r in ranges])
        rho0 = np.abs(self.tau * n + np.array([fam.alpha for fam in self.families])[k])
        # Listed by k, then n: a stable sort by rho0 alone gives the order.
        order = np.argsort(rho0, kind="stable")
        return k[order], n[order], rho0[order]

    def slots(self, rho_max: float) -> list[tuple[int, int, float]]:
        """All (k, n, rho0) with rho0 <= rho_max, sorted by rho0 then k then n."""
        return list(zip(*(v.tolist() for v in self.slot_arrays(rho_max))))

    def in_truncation(self, k, n, n_max: int) -> tuple[np.ndarray, int]:
        """Which of the (k, n) pairs are slots of the product truncated at
        |n| <= n_max, and how many slots that product has."""
        first = np.array([-n_max if f.first is None else f.first for f in self.families])
        known = (k >= 0) & (k < first.size)
        mask = known & (n <= n_max) & (n >= first[np.where(known, k, 0)])
        return mask, int(np.maximum(n_max + 1 - first, 0).sum())

    def eval_lambda(self, lam):
        """d_0 as an entire function of lambda (cos/sinc terms via phi0/phi1)."""
        lam = np.asarray(lam, dtype=float)
        out = np.zeros_like(lam)
        for f, c in zip(self.poly.freqs, self.poly.coefs):
            phi0, phi1 = phi_pair(lam, float(f) * self.poly.unit)
            out = out + float(c) * (phi0 if self.flavor == "cos" else phi1)
        return float(out) if out.ndim == 0 else out

    def lambda_deriv_at_zero(self, order: int) -> float:
        """order-th lambda-derivative of d_0 at lambda = 0 (exact Taylor)."""
        r, e = order, self.flavor == "sinc"
        total = 0.0
        for f, c in zip(self.poly.freqs, self.poly.coefs):
            h = float(f) * self.poly.unit
            total += float(c) * (-1.0) ** r * h ** (2 * r + e) / math.factorial(2 * r + e)
        return total * math.factorial(r)


def _divmod(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (lists, lowest degree first,
    [] is zero), exact for a pseudo-division or a primitive divisor (Gauss)."""
    p, quot = list(p), [0] * max(len(p) - len(q) + 1, 0)
    for i in reversed(range(len(quot))):
        quot[i] = p[i + len(q) - 1] // q[-1]
        for k, c in enumerate(q):
            p[i + k] -= quot[i] * c
    while p and not p[-1]:
        p.pop()
    return quot, p


def _square_free(f: list[int]) -> list[list[int]]:
    """Yun's square-free factorization: [a_1, a_2, ...], f ~ a_1 a_2^2 a_3^3 ...
    Constant factors do not matter for roots; each gcd is made primitive."""

    def primitive(p):
        content = math.gcd(*p)
        return [c // content for c in p]

    def gcd(p, q):
        while any(q):
            p, q = q, primitive(_divmod([c * q[-1] ** (len(p) - len(q) + 1) for c in p], q)[1])
        return primitive(p)

    df = [k * c for k, c in enumerate(f)][1:]
    a = gcd(f, df)
    b, c, out = _divmod(f, a)[0], _divmod(df, a)[0], []
    while len(b) > 1:
        d = [x - k * y for k, (x, y) in enumerate(zip(c, b[1:]), 1)]  # c - b'
        out.append(gcd(b, d))
        b, c = _divmod(b, out[-1])[0], _divmod(d, out[-1])[0]
    return out


def _simple_roots(factor: list[int], g: Fraction, unit: float, half: float) -> np.ndarray:
    """Roots in rho on (0, half) of a factor with simple roots in (-1, 1), on its
    cosine form. The grid doubles, a bounded number of times, until its sign
    changes (exact hits included) bracket as many roots as the degree."""
    form = [factor[-1]]  # 2^i times Horner's partial sum: 2x T_k = T_{k+1} + T_{|k-1|}
    for c in reversed(factor[:-1]):
        twice_x = [c * 2 ** len(form)] + [0] * len(form)
        for k, b in enumerate(form):
            twice_x[k + 1] += b
            twice_x[abs(k - 1)] += b
        form = twice_x
    fn = TrigPoly("cos", tuple(k * g for k in range(len(form))), tuple(form), unit)
    for doubling in range(12):
        xs = np.linspace(0.0, half, 2**doubling * 8 * len(factor) + 1)
        ys = fn(xs)
        sign = np.sign(ys)
        cells = np.flatnonzero((sign[:-1] != sign[1:]) & (sign[:-1] != 0.0))
        if cells.size >= len(factor) - 1:
            break
    return _roots_in(fn, xs[cells], xs[cells + 1], ys[cells], ys[cells + 1])


def base_zeros(poly: TrigPoly, tau: float) -> AsymptoticFrame:
    """Locate the zeros of the periodic polynomial on [0, tau/2] and build the frame.

    With g the frequency gcd and x = cos(theta), theta = g * unit * rho, a
    cosine polynomial (d_0 of L) is P(x) and a sine polynomial (rho * d_0 of
    Lj, sinc flavor) is sin(theta) Q(x), as cos(n theta) = T_n(x) and
    sin(n theta) = sin(theta) U_{n-1}(x). By Yun's square-free factorization
    of P or Q, a root of multiplicity m at x = 1 or -1 is a zero of order 2m
    (+1 for sinc) at 0 or tau/2, and every other root an interior zero. These
    are the 2K zeros of a period, K = max frequency / g, all real (the free
    operator is self-adjoint). A tau/2 zero of d_0 of L is warned and folded.
    """
    g, half, sinc = poly.freq_gcd(), tau / 2.0, poly.kind == "sin"
    common = math.lcm(*(Fraction(c).denominator for c in poly.coefs))
    terms = {int(f / g): int(Fraction(c) * common) for f, c in zip(poly.freqs, poly.coefs)}
    basis = [[0], [1]] if sinc else [[1], [0, 1]]  # U_-1, U_0 or T_0, T_1
    while len(basis) <= max(terms):  # B_{n+1} = 2x B_n - B_{n-1}
        basis.append([2 * a - b for a, b in zip_longest([0, *basis[-1]], basis[-2], fillvalue=0)])
    power = [0] * len(basis[-1])
    for n, c in terms.items():
        power[: len(basis[n])] = [a + c * b for a, b in zip(power, basis[n])]
    ends, interior = {1: 0, -1: 0}, []  # multiplicities of x = 1 and x = -1
    for mult, factor in enumerate(_square_free(power), 1):
        for x in ends:
            if sum(c * x**k for k, c in enumerate(factor)) == 0:
                factor = _divmod(factor, [-x, 1])[0]
                ends[x] += mult
        interior += [(float(a), mult) for a in _simple_roots(factor, g, poly.unit, half)]
    frame = AsymptoticFrame(tau, poly, ends[1], tuple(sorted(interior)), 2 * ends[-1] + sinc)
    assert ends[1] + ends[-1] + sinc + sum(m for _, m in interior) == max(terms), "2K zeros"
    if frame.half_period_zero:
        warnings.warn(
            f"tau/2 = {half} is a zero of the reference function; "
            "its family is folded to one-sided numbering",
            HalfPeriodZeroWarning,
            stacklevel=2,
        )
    return frame


def build_frame(graph: ValidatedGraph, problem: Problem) -> AsymptoticFrame:
    """Frame of the zero-potential problem with the same geometry."""
    poly = expand_free_charfn(graph, problem)
    return base_zeros(poly, smallest_period(poly))


def frame_to_json(frame: AsymptoticFrame) -> dict:
    return {
        "tau": frame.tau,
        "alphas": [{"alpha": a, "mu": m} for a, m in frame.alphas_report()],
        "mu0": frame.mu0,
        "flavor": frame.flavor,
        "half_period_zero": frame.half_period_zero,
    }
