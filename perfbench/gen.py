"""Seeded lasso configs for the benchmark workloads.

Each workload draws from a fixed, ordered list of cells. A cell fixes the
properties that pick code paths in the library (number of pendants p, equal
or unequal lengths, where the deltas sit, their sign); the seed draws the
rest (strengths, off-midpoint positions, which pendant carries a delta or is
pinned). Every seed therefore yields the same mix of properties in the same
order, which keeps run-to-run figures comparable, while the concrete inputs
change with the seed.

Cells whose shapes fail today (off-midpoint deltas on equal-length pendants
or on the cycle, two pendant deltas on unequal lengths, strong symmetric
attractive deltas on p = 3) are kept: they are counted as failed requests.

Configs are plain JSON objects in the library's config format, so the
program receives only generated inputs. Lengths are in units of pi.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

OFF_MIDPOINT = ("1/4", "1/3", "2/3", "3/4")
PROPERTIES = (
    "p1", "p2", "p3", "equal_lengths", "unequal_lengths", "zero_potential",
    "pendant_delta", "symmetric_deltas", "cycle_delta", "attractive",
)


@dataclass(frozen=True)
class Case:
    """One config and the problems a workload runs on it."""

    cell: str
    config: dict
    problems: tuple[str, ...]  # "L" or "L<j>"
    props: frozenset[str]


def _edge(i: int, length: str, deltas=()) -> dict:
    """Edge JSON with sigma jumping by each strength at each relative position."""
    role = "cycle" if i == 0 else "pendant"
    total = Fraction(length)
    breakpoints = ["0"]
    values = [0.0]
    sigma = 0.0
    for pos, strength in sorted(deltas, key=lambda d: Fraction(d[0])):
        breakpoints.append(str(Fraction(pos) * total))
        sigma += strength
        values.append(sigma)
    breakpoints.append(str(total))
    return {
        "id": i,
        "length": str(total),
        "role": role,
        "sigma": {"breakpoints": breakpoints, "values": values},
    }


def _config(lengths, deltas_by_edge) -> dict:
    return {
        "length_unit": "pi",
        "edges": [_edge(i, ln, deltas_by_edge.get(i, ())) for i, ln in enumerate(lengths)],
    }


def _strength(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


# Per-delta strengths keep the total |jump| of a config at or below 0.6, the
# scale at which the acceptance round-trip bound (1e-3 at n_max = 100) is
# stated: beyond it the truncated product misses that bound by truncation
# alone (1.9e-3 measured for three deltas of ~0.5 on p = 3). The strong
# attractive cell is exempt; it fails earlier, in the root scan.
#
# Each cell function returns (lengths, deltas by edge, pinned pendant or None). The
# pinned pendant is fixed where the choice decides whether the shape fails
# today, so that every seed has the same share of failing requests.
def _p1_free(rng):
    return ["1", "1"], {}, None


def _p2_mid_delta(rng):
    return ["1", "1", "1"], {rng.randint(1, 2): [("1/2", _strength(rng, 0.2, 0.6))]}, None


def _p2_off_delta(rng):
    deltas = {rng.randint(1, 2): [(rng.choice(OFF_MIDPOINT), _strength(rng, 0.2, 0.6))]}
    return ["1", "1", "1"], deltas, None


def _p3_sym_mid(rng):
    s = _strength(rng, 0.1, 0.2)
    return ["1", "1", "1", "1"], {j: [("1/2", s)] for j in (1, 2, 3)}, None


def _p2_unequal_delta(rng):
    return ["1", "1/2", "1"], {rng.randint(1, 2): [("1/2", _strength(rng, 0.2, 0.6))]}, 1


def _p2_cycle_mid(rng):
    return ["1", "1", "1"], {0: [("1/2", _strength(rng, 0.2, 0.6))]}, None


def _p2_cycle_off(rng):
    return ["1", "1", "1"], {0: [(rng.choice(OFF_MIDPOINT), _strength(rng, 0.2, 0.6))]}, None


def _p1_attractive(rng):
    deltas = {1: [(rng.choice(("1/2",) + OFF_MIDPOINT), -_strength(rng, 0.2, 0.6))]}
    return ["1", "1"], deltas, None


def _p2_sym_attractive(rng):
    s = -_strength(rng, 0.1, 0.3)
    return ["1", "1", "1"], {1: [("1/2", s)], 2: [("1/2", s)]}, None


def _p2_unequal_two_deltas(rng):
    deltas = {
        1: [("1/4", _strength(rng, 0.1, 0.3))],
        2: [("1/2", _strength(rng, 0.1, 0.3))],
    }
    return ["1", "1", "1/2"], deltas, 1


def _p3_sym_strong_attractive(rng):
    # A double negative eigenvalue that the negative sweep misses; weaker
    # strengths pass or fail depending on the value, so this one is fixed.
    return ["1", "1", "1", "1"], {j: [("1/2", -2.0)] for j in (1, 2, 3)}, None


CELLS = {
    "p1_free": _p1_free,
    "p2_mid_delta": _p2_mid_delta,
    "p2_off_delta": _p2_off_delta,
    "p3_sym_mid": _p3_sym_mid,
    "p2_unequal_delta": _p2_unequal_delta,
    "p2_cycle_mid": _p2_cycle_mid,
    "p2_cycle_off": _p2_cycle_off,
    "p1_attractive": _p1_attractive,
    "p2_sym_attractive": _p2_sym_attractive,
    "p2_unequal_two_deltas": _p2_unequal_two_deltas,
    "p3_sym_strong_attractive": _p3_sym_strong_attractive,
}

# Cell order per workload. The catalog workload runs every cell. The oracle
# workload keeps one p = 3 cell, the -2.0 config whose double negative
# eigenvalue the catalog misses: a p = 3 fine grid costs ~5 s of eigh, and
# the round has to fit in a run. cli_eval needs catalogs that exist today (its
# reconstruct requests read one), so it uses cells that catalog cleanly and
# leaves the failing shapes to the catalog workload.
WORKLOAD_CELLS = {
    "catalog": (
        "p1_free", "p2_mid_delta", "p3_sym_mid", "p2_off_delta", "p2_unequal_delta",
        "p2_cycle_mid", "p2_cycle_off", "p1_attractive", "p2_sym_attractive",
        "p2_unequal_two_deltas", "p3_sym_strong_attractive",
    ),
    "oracle": (
        "p1_free", "p2_mid_delta", "p1_attractive", "p2_cycle_mid",
        "p2_sym_attractive", "p3_sym_strong_attractive",
    ),
    "cli_eval": ("p2_mid_delta", "p1_attractive", "p2_cycle_mid"),
}


def _props(lengths, deltas_by_edge) -> frozenset[str]:
    props = {f"p{len(lengths) - 1}"}
    props.add("equal_lengths" if len(set(lengths)) == 1 else "unequal_lengths")
    strengths = [s for ds in deltas_by_edge.values() for _, s in ds]
    if not strengths:
        props.add("zero_potential")
    if any(s < 0 for s in strengths):
        props.add("attractive")
    if 0 in deltas_by_edge:
        props.add("cycle_delta")
    pendant = [j for j in deltas_by_edge if j > 0]
    if len(pendant) == 1:
        props.add("pendant_delta")
    elif len(pendant) > 1 and len({tuple(deltas_by_edge[j]) for j in pendant}) == 1:
        props.add("symmetric_deltas")
    elif pendant:
        props.add("pendant_delta")
    return frozenset(props)


def make_cases(workload: str, seed: int) -> list[Case]:
    """The seeded case list of a workload: same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    cases = []
    for cell in WORKLOAD_CELLS[workload]:
        lengths, deltas, pinned = CELLS[cell](rng)
        p = len(lengths) - 1
        problems = ("L", f"L{pinned or rng.randint(1, p)}")
        cases.append(Case(cell, _config(lengths, deltas), problems, _props(lengths, deltas)))
    return cases


def digest(cases: list[Case]) -> str:
    """Short digest of the generated inputs, recorded with every run."""
    blob = json.dumps(
        [[c.cell, c.config, list(c.problems)] for c in cases], sort_keys=True
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def property_shares(cases: list[Case]) -> dict[str, float]:
    """Share of requests (case x problem) carrying each property."""
    total = sum(len(c.problems) for c in cases)
    return {
        prop: round(sum(len(c.problems) for c in cases if prop in c.props) / total, 4)
        for prop in PROPERTIES
    }
