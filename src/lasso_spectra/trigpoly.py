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
polynomial on [0, tau/2] with multiplicities, and the multiplicity mu0 of the
zero eigenvalue (counted in lambda). Together these generate the unperturbed
eigenvalue grid rho0_nk:

  - mu0 two-sided families at alpha = 0 (rho0 = |tau n|, n in Z), so interior
    lattice points tau n carry their full multiplicity 2 mu0;
  - for the pinned (sinc) flavor one extra one-sided family {tau n, n >= 1},
    since rho * d_0 has odd multiplicity at 0;
  - two-sided families |tau n + alpha| for each interior zero alpha;
  - folded one-sided families tau n + tau/2 when tau/2 is a zero (always the
    case for the sinc flavor; warned for the cosine flavor).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rootscan import scan_roots
from .charfn import assemble
from .errors import ConstantFunction, HalfPeriodZeroWarning, UnresolvedMultiplicity
from .graph import Problem, ValidatedGraph, validate
from .propagate import FundamentalSolution, phi_pair

# Spec'd multiplicity tolerance: |p^(m)(alpha)| > DERIV_TOL * scale_m.
DERIV_TOL = 1e-7
MAX_MULT = 8


@dataclass(frozen=True)
class TrigPoly:
    """sum coefs[m] * trig(freqs[m] * unit * rho), trig = cos or sin.

    Frequencies are exact nonnegative rationals in units of `unit`, distinct
    and ascending; coefficients are nonzero.
    """

    kind: str  # "cos" | "sin"
    freqs: tuple[Fraction, ...]
    coefs: tuple[float, ...]
    unit: float = 1.0

    def __post_init__(self):
        assert self.kind in ("cos", "sin")

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        f = np.cos if self.kind == "cos" else np.sin
        for freq, coef in zip(self.freqs, self.coefs):
            out = out + coef * f(float(freq) * self.unit * rho)
        return float(out) if out.ndim == 0 else out

    def derivative(self) -> "TrigPoly":
        if self.kind == "cos":
            kind = "sin"
            pairs = [(f, -c * float(f) * self.unit) for f, c in zip(self.freqs, self.coefs)]
        else:
            kind = "cos"
            pairs = [(f, c * float(f) * self.unit) for f, c in zip(self.freqs, self.coefs)]
        pairs = [(f, c) for f, c in pairs if c != 0.0]
        return TrigPoly(kind, tuple(f for f, _ in pairs), tuple(c for _, c in pairs), self.unit)

    def deriv_scale(self, order: int) -> float:
        """Upper bound for |p^(order)| over the real line (tolerance scale)."""
        return sum(abs(c) * (float(f) * self.unit) ** order for f, c in zip(self.freqs, self.coefs))

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
    """Exact-rational work form: {(kind, freq, power): Fraction coefficient}.

    A term is coef * rho**power * trig(freq * unit * rho), trig = cos or sin.
    Integers stand for constants, so the expression supports the +, * and
    integer constants that `charfn.assemble` uses.
    """

    def __init__(self, terms=None):
        self.terms: dict[tuple[str, Fraction, int], Fraction] = dict(terms or {})

    def _add(self, kind: str, freq: Fraction, power: int, coef: Fraction):
        if freq < 0:
            freq = -freq
            if kind == "sin":
                coef = -coef
        if kind == "sin" and freq == 0:
            return
        key = (kind, freq, power)
        new = self.terms.get(key, Fraction(0)) + coef
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    @staticmethod
    def _of(x) -> "_TrigExpr":
        if isinstance(x, _TrigExpr):
            return x
        out = _TrigExpr()
        out._add("cos", Fraction(0), 0, Fraction(x))
        return out

    def __add__(self, other) -> "_TrigExpr":
        out = _TrigExpr(self.terms)
        for (kind, freq, power), coef in self._of(other).terms.items():
            out._add(kind, freq, power, coef)
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "_TrigExpr":
        out = _TrigExpr()
        other = self._of(other)
        half = Fraction(1, 2)
        for (k1, f1, n1), c1 in self.terms.items():
            for (k2, f2, n2), c2 in other.terms.items():
                c, n = c1 * c2 * half, n1 + n2
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

    def to_poly(self, kind: str, power: int, unit: float) -> TrigPoly:
        bad = [k for k in self.terms if k[0] != kind or k[2] != power]
        assert not bad, f"unexpected terms {bad} beside {kind} * rho**{power}"
        items = sorted(self.terms.items(), key=lambda kv: kv[0][1])
        freqs = tuple(f for (_, f, _), _ in items)
        coefs = tuple(float(c) for _, c in items)
        return TrigPoly(kind, freqs, coefs, unit)


def _free_edge(length: Fraction) -> FundamentalSolution:
    """Zero-potential endpoint values: C = cos, C1 = -rho sin, S = sin/rho, S1 = cos."""
    one = Fraction(1)
    return FundamentalSolution(
        C=_TrigExpr({("cos", length, 0): one}),
        C1=_TrigExpr({("sin", length, 1): -one}),
        S=_TrigExpr({("sin", length, -1): one}),
        S1=_TrigExpr({("cos", length, 0): one}),
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
    expr = assemble([_free_edge(e.length) for e in graph.edges], problem.j)
    if problem.kind == "neumann":
        return expr.to_poly("cos", 0, graph.unit_value)
    return expr.to_poly("sin", -1, graph.unit_value)


def _multiplicity_at(poly: TrigPoly, x: float) -> int:
    """Smallest m >= 1 with |p^(m)(x)| above tolerance; p(x) ~ 0 assumed."""
    d = poly
    for m in range(1, MAX_MULT + 1):
        d = d.derivative()
        scale = d.deriv_scale(0)
        if scale == 0.0:
            break
        if abs(d(x)) > DERIV_TOL * scale:
            return m
    raise UnresolvedMultiplicity(f"derivative test inconclusive at x = {x}")


def _is_zero_at(poly: TrigPoly, x: float) -> bool:
    return abs(poly(x)) <= DERIV_TOL * poly.deriv_scale(0)


@dataclass(frozen=True)
class Family:
    """One branch of the unperturbed eigenvalue grid."""

    index: int
    alpha: float
    kind: str  # "zero2" | "zero1" | "interior" | "half"
    mu: int  # reported multiplicity of the underlying base zero

    def rho0(self, n: int, tau: float) -> float:
        if self.kind == "zero2":
            return abs(tau * n)
        if self.kind == "zero1":
            return tau * n
        if self.kind == "interior":
            return abs(tau * n + self.alpha)
        return tau * n + self.alpha  # half: alpha = tau/2, n >= 0

    def n_values(self, tau: float, rho_max: float) -> range:
        if self.kind == "zero2":
            nmax = int(math.floor(rho_max / tau + 1e-12))
            return range(-nmax, nmax + 1)
        if self.kind == "zero1":
            return range(1, int(math.floor(rho_max / tau + 1e-12)) + 1)
        if self.kind == "interior":
            lo = int(math.ceil((-rho_max - self.alpha) / tau - 1e-12))
            hi = int(math.floor((rho_max - self.alpha) / tau + 1e-12))
            return range(lo, hi + 1)
        hi = int(math.floor((rho_max - self.alpha) / tau + 1e-12))
        return range(0, hi + 1)

    def n_values_truncation(self, n_max: int) -> range:
        if self.kind == "zero2" or self.kind == "interior":
            return range(-n_max, n_max + 1)
        if self.kind == "zero1":
            return range(1, n_max + 1)
        return range(0, n_max + 1)


@dataclass(frozen=True)
class AsymptoticFrame:
    """Period, base zeros, and family structure of an unperturbed spectrum."""

    tau: float
    flavor: str  # "cos" | "sinc"
    poly: TrigPoly  # d_0 itself (cos) or rho * d_0 (sinc); periodic either way
    mu0: int
    interior: tuple[tuple[float, int], ...]  # (alpha, mult) on (0, tau/2)
    half_mult: int  # poly multiplicity at tau/2 (0 if not a zero)
    half_period_zero: bool

    @property
    def families(self) -> tuple[Family, ...]:
        fams: list[Family] = []
        k = 0
        for _ in range(self.mu0):
            fams.append(Family(k, 0.0, "zero2", self.mu0))
            k += 1
        if self.flavor == "sinc":
            fams.append(Family(k, 0.0, "zero1", max(self.mu0, 1)))
            k += 1
        for alpha, mult in self.interior:
            for _ in range(mult):
                fams.append(Family(k, alpha, "interior", mult))
                k += 1
        for _ in range(self.half_mult):
            fams.append(Family(k, self.tau / 2.0, "half", self.half_mult))
            k += 1
        return tuple(fams)

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

    def grid_gap(self) -> float:
        """Minimal gap between distinct unperturbed grid points."""
        pts = sorted(set(round(r, 12) for _, _, r in self.slots(2.5 * self.tau)))
        gaps = [b - a for a, b in zip(pts, pts[1:]) if b - a > 1e-9]
        return min(gaps) if gaps else self.tau / 2.0

    def window(self) -> float:
        return 0.5 * min(self.delta(), self.grid_gap())

    def slots(self, rho_max: float) -> list[tuple[int, int, float]]:
        """All (k, n, rho0) with rho0 <= rho_max, sorted by rho0 then k then n."""
        out = []
        for fam in self.families:
            for n in fam.n_values(self.tau, rho_max):
                out.append((fam.index, n, fam.rho0(n, self.tau)))
        out.sort(key=lambda t: (t[2], t[0], t[1]))
        return out

    def eval_rho(self, rho):
        """d_0 evaluated at real rho."""
        return self.eval_lambda(np.asarray(rho, dtype=float) ** 2)

    def eval_lambda(self, lam):
        """d_0 as an entire function of lambda (cos/sinc terms via phi0/phi1)."""
        lam = np.asarray(lam, dtype=float)
        out = np.zeros_like(lam)
        for f, c in zip(self.poly.freqs, self.poly.coefs):
            h = float(f) * self.poly.unit
            if h == 0.0:
                term = c if self.flavor == "cos" else 0.0
                out = out + term
                continue
            phi0, phi1 = phi_pair(lam, h)
            out = out + c * (phi0 if self.flavor == "cos" else phi1)
        return float(out) if out.ndim == 0 else out

    def lambda_deriv_at_zero(self, order: int) -> float:
        """order-th lambda-derivative of d_0 at lambda = 0 (exact Taylor)."""
        r = order
        total = 0.0
        for f, c in zip(self.poly.freqs, self.poly.coefs):
            h = float(f) * self.poly.unit
            if self.flavor == "cos":
                total += c * (-1.0) ** r * h ** (2 * r) / math.factorial(2 * r)
            else:
                total += c * (-1.0) ** r * h ** (2 * r + 1) / math.factorial(2 * r + 1)
        return total * math.factorial(r)


def base_zeros(poly: TrigPoly, tau: float) -> AsymptoticFrame:
    """Locate the zeros of the periodic polynomial on [0, tau/2] and build the frame.

    Interior zeros are found by dense scan plus bracketing and classified by
    the analytic derivatives of the polynomial; the endpoint multiplicities
    fix mu0 and the tau/2 family. A cosine polynomial (d_0 of L) has the
    cosine flavor, a sine polynomial (rho * d_0 of Lj) the sinc flavor. For
    the cosine flavor a tau/2 zero is the case the theory excludes: it is
    reported as a warning and folded.
    """
    flavor = "cos" if poly.kind == "cos" else "sinc"
    half = tau / 2.0
    n_points = max(1024, int(64 * poly.max_freq() * tau / (2 * math.pi)))
    roots, _ = scan_roots(poly, 0.0, half, n_points)

    zero_mult = _multiplicity_at(poly, 0.0) if _is_zero_at(poly, 0.0) else 0
    half_is_zero = _is_zero_at(poly, half)
    half_mult = _multiplicity_at(poly, half) if half_is_zero else 0

    if flavor == "cos":
        if zero_mult % 2:
            raise UnresolvedMultiplicity(f"odd rho-multiplicity {zero_mult} at 0")
        mu0 = zero_mult // 2
        if half_is_zero:
            warnings.warn(
                f"tau/2 = {half} is a zero of the reference function; "
                "its family is folded to one-sided numbering",
                HalfPeriodZeroWarning,
                stacklevel=2,
            )
    else:
        if zero_mult % 2 == 0:
            raise UnresolvedMultiplicity(f"even multiplicity {zero_mult} of the odd polynomial at 0")
        mu0 = (zero_mult - 1) // 2

    margin = 1e-7 * tau
    interior: list[tuple[float, int]] = []
    for x, _ in roots:
        if x <= margin or x >= half - margin:
            continue
        interior.append((x, _multiplicity_at(poly, x)))

    return AsymptoticFrame(
        tau=tau,
        flavor=flavor,
        poly=poly,
        mu0=mu0,
        interior=tuple(interior),
        half_mult=half_mult,
        half_period_zero=(flavor == "cos" and half_is_zero),
    )


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
