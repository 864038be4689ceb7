"""Command-line interface: charfn, eigs, reconstruct, verify.

Exit codes: 0 success, 1 verification failure, 2 config/input error,
3 numeric failure, 4 catalog assignment/coverage failure.

Each command imports the modules it uses when it runs, so `charfn` loads
neither the root scan nor the frame, the reconstruction or the oracle.

Floats are written in shortest round-trip form (`repr`), in CSV rows or, for
`charfn --format json`, in JSON arrays. float_csv and float_json produce
repr's bytes with numpy array operations (_floattext), on up to one thread per
usable CPU: the bytes are those of a one-CPU run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import errors
from .charfn import charfn_for
from .graph import Problem, graph_from_json, validate

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
    errors.DegenerateLeadingTerm,
    errors.ConstantFunction,
    errors.NearPole,
    FloatingPointError,
    OverflowError,
)
# The most points a command-line grid may have: 80 MB of lambda, several times
# that in the evaluation's temporaries, and up to 25 bytes of output text per
# value, in two or three copies while the output is joined.
GRID_MAX_POINTS = 10_000_000


def parse_grid(spec: str) -> np.ndarray:
    """The grid start:stop:step, refused before it is allocated if it has
    more than GRID_MAX_POINTS points."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}")
    start, stop, step = (float(x) for x in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"grid must be finite, got {spec!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid {spec!r}")
    cells = (stop - start) / step + 1e-9  # a point within 1e-9 steps of stop counts
    if not cells < GRID_MAX_POINTS:  # an overflowing count too
        raise ValueError(f"grid has more than {GRID_MAX_POINTS} points, got {spec!r}")
    return start + step * np.arange(int(cells) + 1)


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
FINITE_NONNEGATIVE = _checked(float, lambda x: math.isfinite(x) and x >= 0, "finite and 0 or more")


def _grid_arg(text: str) -> np.ndarray:
    """An argparse type: parse_grid, its refusal naming the flag."""
    try:
        return parse_grid(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _problem_from_args(args, graph) -> Problem:
    if args.problem == "L":
        return Problem.neumann()
    if args.j is None:
        raise errors.BadIndex("--problem Lj requires --j")
    problem = Problem.dirichlet(args.j)
    problem.check(graph)
    return problem


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def float_csv(header: str, *columns) -> bytes:
    """The header and one row per index of the float columns, each value in
    shortest round-trip form (repr). The bytes do not depend on the number
    of threads that format them."""
    from . import _floattext

    return (header + "\n").encode() + _floattext.rows(columns, b",", b"\n", _usable_cpus())


def float_json(names, *columns) -> bytes:
    """json.dumps({name: column.tolist(), ...}) + "\n" for finite float
    columns of equal length, the number text formatted as float_csv's is."""
    from . import _floattext

    arrays = [
        json.dumps(name).encode() + b": [" + _floattext.rows([column], b",", b", ", _usable_cpus())[:-2] + b"]"
        for name, column in zip(names, columns)
    ]
    return b"{" + b", ".join(arrays) + b"}\n"


def _write(data: bytes, out: str | None):
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)


def _write_pair(csv: bytes, blob: dict, out: str | None, json_suffix: str):
    """With --out: out.csv, out + json_suffix and the JSON on stdout.
    Without: the CSV on stdout and the JSON on stderr."""
    json_text = json.dumps(blob, indent=2) + "\n"
    if out:
        Path(out + ".csv").write_bytes(csv)
        Path(out + json_suffix).write_text(json_text)
        sys.stdout.write(json_text)
    else:
        _write(csv, None)
        sys.stderr.write(json_text)


def cmd_charfn(args) -> int:
    graph, _ = graph_from_json(args.config)
    problem = _problem_from_args(args, graph)
    if (args.rho is None) == (args.lam is None):
        raise ValueError("exactly one of --rho or --lambda is required")
    # Far below zero cosh and sinh overflow, and inf - inf is nan: the check
    # below reports either as a numeric failure.
    with np.errstate(over="ignore", invalid="ignore"):
        if args.rho is not None:
            grid = args.rho
            values = charfn_for(graph, problem, grid * grid)
            label = "rho"
        else:
            grid = args.lam
            values = charfn_for(graph, problem, grid)
            label = "lambda"
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("characteristic function overflowed on the grid")
    if args.format == "json":
        _write(float_json((label, "delta"), grid, values), args.out)
    else:
        _write(float_csv(f"{label},delta", grid, values), args.out)
    return 0


def cmd_eigs(args) -> int:
    # build_frame is taken from spectrum, the binding perfbench/tracing.py
    # wraps; cmd_reconstruct and cmd_verify do the same.
    from .spectrum import build_frame, catalog_to_csv, compute_catalog
    from .trigpoly import frame_to_json

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
    _write_pair(catalog_csv.encode(), frame_to_json(frame), args.out, ".frame.json")
    return 0


def cmd_reconstruct(args) -> int:
    from .reconstruct import compare, hadamard_reconstruct
    from .spectrum import SpectrumCatalog, build_frame, entries_from_csv

    graph, potentials_known = graph_from_json(args.config)
    problem = _problem_from_args(args, graph)
    try:
        entries = entries_from_csv(Path(args.spectra).read_text())
    except ValueError as exc:
        raise errors.BadBreakpoints(f"malformed spectra CSV: {exc}") from exc
    frame = build_frame(graph, problem)
    rho_max = max((e.rho0 for e in entries), default=0.0)
    catalog = SpectrumCatalog(entries, frame, rho_max, problem.label())
    grid = args.lam if args.lam is not None else np.linspace(-5.0, 9.0, 200)
    result = hadamard_reconstruct(catalog, grid, args.n_max)

    if potentials_known:
        report = compare(result, lambda lam: charfn_for(graph, problem, lam))
        header, columns = "lambda,delta_hat,delta_direct,rel_error", (report.direct, report.rel_error)
        max_error = report.max_rel
    else:
        header, columns, max_error = "lambda,delta_hat", (), None
    summary = {
        "n_max": result.n_max,
        "leading_const": result.leading_const,
        "max_error": max_error,
    }
    _write_pair(float_csv(header, result.grid, result.values, *columns), summary, args.out, ".summary.json")
    return 0


def cmd_verify(args) -> int:
    from . import checks
    from .spectrum import build_frame

    graph, potentials_known = graph_from_json(args.config)
    validate(graph)
    tau = build_frame(graph, Problem.neumann()).tau
    if args.n_max is not None:
        n_max = args.n_max
    elif args.rho_max:
        n_max = max(1, int(args.rho_max / tau) - 1)
    else:
        n_max = 100
    rho_max = args.rho_max or tau * (n_max + 1) + 1.0
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
    p_charfn.add_argument("--rho", type=_grid_arg, default=None, help="rho grid start:stop:step")
    p_charfn.add_argument(
        "--lambda", dest="lam", type=_grid_arg, default=None, help="lambda grid start:stop:step"
    )
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
    p_rec.add_argument(
        "--lambda", dest="lam", type=_grid_arg, default=None, help="lambda grid start:stop:step"
    )
    p_rec.set_defaults(func=cmd_reconstruct)

    p_ver = sub.add_parser("verify", help="run the invariant suite on a config (problem L)")
    common(p_ver, problems=("L",))
    p_ver.add_argument("--rho-max", type=FINITE_NONNEGATIVE, default=None)
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
