"""Lasso-graph geometry and the piecewise-constant potentials on its edges.

The graph has one cycle edge (index 0, both endpoints at the internal vertex)
and p >= 1 pendant edges. Each edge is parameterized by x in [0, |e|] with
x = |e| at the internal vertex. The potential on an edge is the distributional
derivative of a piecewise-constant antiderivative sigma, so a jump of sigma of
height c at an interior breakpoint encodes a delta potential of strength c.

Edge lengths are exact rationals in a common unit (1 or pi), which keeps the
lengths commensurable and the period arithmetic downstream exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path

from .errors import BadBreakpoints, BadIndex, IrrationalLength, NoPendantEdge
from .propagate import compile_steps, compile_sums

UNITS = {"1": 1.0, "pi": math.pi}


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string like '3/4'.

    Floats are rejected: exact commensurability cannot be recovered from them.
    """
    if isinstance(value, bool):
        raise IrrationalLength(f"not an exact rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise IrrationalLength(f"cannot parse rational from {value!r}") from exc
    raise IrrationalLength(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class PotentialSpec:
    """Antiderivative sigma of the potential, held constant between breakpoints.

    breakpoints: 0 = x_0 < x_1 < ... < x_M = edge length (exact rationals);
    values: the M constants of sigma on the open segments.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(parse_rational(b) for b in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def check(self, length: Fraction) -> None:
        bp = self.breakpoints
        if len(bp) < 2 or len(self.values) != len(bp) - 1:
            raise BadBreakpoints(
                f"need M+1 breakpoints and M values, got {len(bp)} and {len(self.values)}"
            )
        if bp[0] != 0:
            raise BadBreakpoints(f"first breakpoint must be 0, got {bp[0]}")
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise BadBreakpoints(f"breakpoints not strictly increasing: {bp}")
        if bp[-1] != length:
            raise BadBreakpoints(f"last breakpoint {bp[-1]} != edge length {length}")
        if any(not math.isfinite(v) for v in self.values):
            raise BadBreakpoints(f"non-finite sigma values: {self.values}")


def zero_potential(length) -> PotentialSpec:
    return PotentialSpec((Fraction(0), parse_rational(length)), (0.0,))


def delta_potential(length, position, strength: float) -> PotentialSpec:
    """Delta of the given strength at an interior point: one jump of sigma."""
    length = parse_rational(length)
    position = parse_rational(position)
    if not 0 < position < length:
        raise BadBreakpoints(f"delta position {position} not interior to (0, {length})")
    return PotentialSpec((Fraction(0), position, length), (0.0, float(strength)))


@dataclass(frozen=True)
class EdgeSpec:
    id: int
    length: Fraction
    role: str  # "cycle" | "pendant"
    potential: PotentialSpec

    def __post_init__(self):
        object.__setattr__(self, "length", parse_rational(self.length))
        if self.role not in ("cycle", "pendant"):
            raise BadBreakpoints(f"unknown edge role {self.role!r}")

    def pieces(self) -> tuple[tuple[float, Fraction], ...]:
        """The constant-sigma pieces as (sigma, exact length in the unit) pairs."""
        bp = self.potential.breakpoints
        return tuple((sigma, hi - lo) for sigma, lo, hi in zip(self.potential.values, bp, bp[1:]))

    def segments(self, unit: float = 1.0) -> tuple[tuple[float, float], ...]:
        """The constant-sigma pieces as float (sigma, physical length) pairs."""
        return tuple((sigma, float(h) * unit) for sigma, h in self.pieces())


@dataclass(frozen=True)
class GraphSpec:
    edges: tuple[EdgeSpec, ...]
    length_unit: str = "1"  # "1" | "pi"; multiplies every rational length

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))


@dataclass(frozen=True)
class EvalPlan:
    """An evaluation plan: the distinct segment lengths, each edge's steps as
    (sigma, index into lengths), for each edge the first edge with equal
    segments, whose propagated columns it shares, and the lengths that are
    sums of two shorter ones (propagate.compile_sums, decided on the exact
    lengths), whose trig pair follows from theirs by the group law."""

    lengths: tuple[float, ...]
    steps: tuple[tuple[tuple[float, int], ...], ...]
    same: tuple[int, ...]
    sums: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class ValidatedGraph:
    """Immutable, validated graph handle. Edge 0 is the cycle."""

    edges: tuple[EdgeSpec, ...]
    length_unit: str

    @property
    def p(self) -> int:
        return len(self.edges) - 1

    @property
    def unit_value(self) -> float:
        return UNITS[self.length_unit]

    @cached_property
    def segments(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        """Every edge's (sigma, h) segments, compiled once per graph."""
        return tuple(e.segments(self.unit_value) for e in self.edges)

    @cached_property
    def plan(self) -> EvalPlan:
        """What one evaluation of the characteristic function needs, compiled
        once per graph from the segments."""
        exact, steps = compile_steps(e.pieces() for e in self.edges)
        lengths = tuple(float(h) * self.unit_value for h in exact)  # as in the segments
        first = {}
        same = tuple(first.setdefault(segs, k) for k, segs in enumerate(self.segments))
        return EvalPlan(lengths, steps, same, compile_sums(exact))

    def edge_length(self, j: int) -> float:
        """Physical length of edge j as a float."""
        return float(self.edges[j].length) * self.unit_value

    def check_pendant_index(self, j: int) -> None:
        if not 1 <= j <= self.p:
            raise BadIndex(f"pendant index {j} outside 1..{self.p}")

    @property
    def max_abs_sigma(self) -> float:
        return max(abs(v) for e in self.edges for v in e.potential.values)


def validate(spec) -> ValidatedGraph:
    """Validate a GraphSpec (idempotent on an already-validated graph)."""
    if isinstance(spec, ValidatedGraph):
        return spec
    edges = tuple(spec.edges)
    if not edges or edges[0].role != "cycle":
        raise BadBreakpoints("edge 0 must be the cycle edge")
    if any(e.role == "cycle" for e in edges[1:]):
        raise BadBreakpoints("exactly one cycle edge is allowed, at index 0")
    if len(edges) < 2:
        raise NoPendantEdge("at least one pendant edge is required")
    if spec.length_unit not in UNITS:
        raise IrrationalLength(f"unknown length unit {spec.length_unit!r}")
    for i, e in enumerate(edges):
        if e.id != i:
            raise BadBreakpoints(f"edge ids must be 0..p in order, got {e.id} at {i}")
        if e.length <= 0:
            raise BadBreakpoints(f"edge {i} has non-positive length {e.length}")
        e.potential.check(e.length)
    return ValidatedGraph(edges, spec.length_unit)


@dataclass(frozen=True)
class Problem:
    """Boundary-condition family: Neumann at all pendant ends, or Dirichlet at one."""

    kind: str  # "neumann" | "dirichlet"
    j: int = 0

    @classmethod
    def neumann(cls) -> "Problem":
        return cls("neumann")

    @classmethod
    def dirichlet(cls, j: int) -> "Problem":
        return cls("dirichlet", j)

    def check(self, graph: ValidatedGraph) -> None:
        if self.kind == "dirichlet":
            graph.check_pendant_index(self.j)
        elif self.j != 0:  # j is the pinned pendant; L pins none
            raise BadIndex(f"problem L pins no pendant, got j = {self.j}")

    def label(self) -> str:
        return "L" if self.kind == "neumann" else f"L{self.j}"


def lasso_graph(cycle_length, pendant_lengths, potentials=None, length_unit="1") -> ValidatedGraph:
    """Convenience constructor: cycle plus pendants, zero potential by default."""
    lengths = [parse_rational(cycle_length)] + [parse_rational(x) for x in pendant_lengths]
    if potentials is None:
        potentials = [None] * len(lengths)
    edges = []
    for i, (length, pot) in enumerate(zip(lengths, potentials)):
        role = "cycle" if i == 0 else "pendant"
        edges.append(EdgeSpec(i, length, role, pot if pot is not None else zero_potential(length)))
    return validate(GraphSpec(tuple(edges), length_unit))


def _potential_from_json(obj) -> PotentialSpec:
    breakpoints = tuple(parse_rational(b) for b in obj["breakpoints"])
    values = tuple(float(v) for v in obj["values"])
    return PotentialSpec(breakpoints, values)


def graph_from_json(source) -> tuple[ValidatedGraph, bool]:
    """Load a graph config from a dict, JSON string, or file path.

    A str whose first non-blank character is "{" is JSON text; any other str
    or Path is a file path. Returns (graph, potentials_known). Edges without a
    "sigma" entry get the zero potential and mark the config as geometry-only
    (spectra-only usage).
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        obj = json.loads(source)
    elif isinstance(source, (str, Path)):
        obj = json.loads(Path(source).read_text())
    else:
        obj = source
    if not isinstance(obj, dict) or not isinstance(obj.get("edges"), list):
        raise BadBreakpoints("config must be an object with an 'edges' list")
    if not all(isinstance(e, dict) for e in obj["edges"]):
        raise BadBreakpoints("every entry of 'edges' must be an object")
    unit = str(obj.get("length_unit", "1"))
    edges = []
    potentials_known = True
    raw_edges = sorted(obj["edges"], key=lambda e: int(e["id"]))
    for raw in raw_edges:
        length = parse_rational(raw["length"])
        if "sigma" in raw:
            pot = _potential_from_json(raw["sigma"])
        else:
            pot = zero_potential(length)
            potentials_known = False
        edges.append(EdgeSpec(int(raw["id"]), length, str(raw["role"]), pot))
    return validate(GraphSpec(tuple(edges), unit)), potentials_known


def graph_to_json(graph: ValidatedGraph) -> dict:
    return {
        "length_unit": graph.length_unit,
        "edges": [
            {
                "id": e.id,
                "length": str(e.length),
                "role": e.role,
                "sigma": {
                    "breakpoints": [str(b) for b in e.potential.breakpoints],
                    "values": list(e.potential.values),
                },
            }
            for e in graph.edges
        ],
    }
