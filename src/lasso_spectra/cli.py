"""Command-line interface: charfn, eigs, reconstruct, verify.

Exit codes: 0 success, 1 verification failure, 2 config/input error,
3 numeric failure, 4 catalog assignment/coverage failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import checks, errors
from .charfn import charfn_for
from .graph import Problem, graph_from_json, validate
from .reconstruct import compare, hadamard_reconstruct, result_to_csv
from .spectrum import SpectrumCatalog, catalog_to_csv, compute_catalog, entries_from_csv
from .trigpoly import build_frame, frame_to_json

CONFIG_ERRORS = (
    errors.IrrationalLength,
    errors.BadBreakpoints,
    errors.NoPendantEdge,
    errors.BadIndex,
    errors.GridTooCoarse,
    OSError,
    json.JSONDecodeError,
    KeyError,
    ValueError,
)
CATALOG_ERRORS = (
    errors.AssignmentAmbiguity,
    errors.InsufficientCatalog,
    errors.ScanResolutionTooCoarse,
)
NUMERIC_ERRORS = (
    errors.UnresolvedMultiplicity,
    errors.DegenerateLeadingTerm,
    errors.ConstantFunction,
    errors.NearPole,
    FloatingPointError,
    OverflowError,
)


def parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}")
    start, stop, step = (float(x) for x in parts)
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid {spec!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def _checked(convert, ok, wanted: str):
    """An argparse type: convert, then refuse what fails ok, naming the flag."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value"
    return parse


COUNT = _checked(int, lambda n: n >= 0, "0 or more")
FINITE = _checked(float, math.isfinite, "finite")


def _problem_from_args(args, graph) -> Problem:
    if args.problem == "L":
        return Problem.neumann()
    if args.j is None:
        raise errors.BadIndex("--problem Lj requires --j")
    problem = Problem.dirichlet(args.j)
    problem.check(graph)
    return problem


def _write(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_pair(csv_text: str, blob: dict, out: str | None, json_suffix: str):
    """With --out: out.csv, out + json_suffix and the JSON on stdout.
    Without: the CSV on stdout and the JSON on stderr."""
    json_text = json.dumps(blob, indent=2) + "\n"
    if out:
        Path(out + ".csv").write_text(csv_text)
        Path(out + json_suffix).write_text(json_text)
        sys.stdout.write(json_text)
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(json_text)


def cmd_charfn(args) -> int:
    graph, _ = graph_from_json(args.config)
    problem = _problem_from_args(args, graph)
    if (args.rho is None) == (args.lam is None):
        raise ValueError("exactly one of --rho or --lambda is required")
    if args.rho is not None:
        grid = parse_grid(args.rho)
        values = charfn_for(graph, problem, grid * grid)
        label = "rho"
    else:
        grid = parse_grid(args.lam)
        values = charfn_for(graph, problem, grid)
        label = "lambda"
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("characteristic function overflowed on the grid")
    if args.format == "json":
        _write(json.dumps({label: grid.tolist(), "delta": values.tolist()}) + "\n", args.out)
    else:
        lines = [f"{label},delta"] + [f"{float(x)!r},{float(v)!r}" for x, v in zip(grid, values)]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_eigs(args) -> int:
    graph, _ = graph_from_json(args.config)
    problem = _problem_from_args(args, graph)
    if args.rho_max <= 0:
        catalog_csv, frame = "n,k,lambda,rho,rho0,eps,multiplicity\n", build_frame(graph, problem)
    else:
        catalog = compute_catalog(graph, problem, args.rho_max)
        for entry in catalog.window_violations:
            warnings.warn(
                f"entry (n={entry.n}, k={entry.k}) deviates by {entry.eps:.4g} "
                "from its grid point (low-spectrum window exceeded)",
                errors.WindowViolationWarning,
            )
        catalog_csv, frame = catalog_to_csv(catalog), catalog.frame
    _write_pair(catalog_csv, frame_to_json(frame), args.out, ".frame.json")
    return 0


def cmd_reconstruct(args) -> int:
    graph, potentials_known = graph_from_json(args.config)
    problem = _problem_from_args(args, graph)
    try:
        entries = entries_from_csv(Path(args.spectra).read_text())
    except ValueError as exc:
        raise errors.BadBreakpoints(f"malformed spectra CSV: {exc}") from exc
    frame = build_frame(graph, problem)
    rho_max = max((e.rho0 for e in entries), default=0.0)
    catalog = SpectrumCatalog(entries, frame, rho_max, problem.label())
    grid = parse_grid(args.lam) if args.lam else np.linspace(-5.0, 9.0, 200)
    result = hadamard_reconstruct(catalog, grid, args.n_max, frame)

    if potentials_known:
        report = compare(result, lambda lam: charfn_for(graph, problem, lam))
        csv_text, max_error = report.to_csv(), report.max_rel
    else:
        csv_text, max_error = result_to_csv(result), None
    summary = {
        "n_max": result.n_max,
        "leading_const": result.leading_const,
        "max_error": max_error,
    }
    _write_pair(csv_text, summary, args.out, ".summary.json")
    return 0


def cmd_verify(args) -> int:
    graph, potentials_known = graph_from_json(args.config)
    validate(graph)
    tau = build_frame(graph, Problem.neumann()).tau
    if args.n_max is not None:
        n_max = args.n_max
    elif args.rho_max:
        n_max = max(1, int(args.rho_max / tau) - 1)
    else:
        n_max = 100
    rho_max = args.rho_max if args.rho_max and args.rho_max > 0 else tau * (n_max + 1) + 1.0
    results = checks.verify(graph, rho_max, n_max)
    report = {
        "config": str(args.config),
        "potentials_known": potentials_known,
        "checks": [asdict(c) for c in results],
        "all_passed": all(c.passed for c in results),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lasso-spectra",
        description="Characteristic functions, spectra, and spectral reconstruction "
        "for Sturm-Liouville operators on a lasso graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, problems=("L", "Lj")):
        p.add_argument("--config", required=True, help="graph JSON config path")
        p.add_argument("--problem", choices=problems, default="L")
        if "Lj" in problems:
            p.add_argument("--j", type=int, default=None, help="pendant index for Lj")
        p.add_argument("--out", default=None, help="output path (base path for multi-file output)")

    p_charfn = sub.add_parser("charfn", help="evaluate a characteristic function on a grid")
    common(p_charfn)
    p_charfn.add_argument("--rho", default=None, help="rho grid start:stop:step")
    p_charfn.add_argument("--lambda", dest="lam", default=None, help="lambda grid start:stop:step")
    p_charfn.add_argument("--format", choices=("csv", "json"), default="csv")
    p_charfn.set_defaults(func=cmd_charfn)

    p_eigs = sub.add_parser("eigs", help="catalog eigenvalues against the unperturbed grid")
    common(p_eigs)
    p_eigs.add_argument("--rho-max", type=FINITE, required=True)
    p_eigs.set_defaults(func=cmd_eigs)

    p_rec = sub.add_parser("reconstruct", help="recover the characteristic function from spectra")
    common(p_rec)
    p_rec.add_argument("--spectra", required=True, help="catalog CSV path")
    p_rec.add_argument("--n-max", type=COUNT, default=100)
    p_rec.add_argument("--lambda", dest="lam", default=None, help="lambda grid start:stop:step")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_ver = sub.add_parser("verify", help="run the invariant suite on a config (problem L)")
    common(p_ver, problems=("L",))
    p_ver.add_argument("--rho-max", type=FINITE, default=None)
    p_ver.add_argument("--n-max", type=COUNT, default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CATALOG_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 3
    except CONFIG_ERRORS as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
