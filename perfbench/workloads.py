"""The benchmark's three workloads: set-up, requests and output checks.

Every workload is a closed loop with one caller: a request starts only after
the previous one has finished. ``execute`` is the timed part of a request;
``check`` verifies its output afterwards, outside the timed region.

Library entry points are looked up on their modules at call time, so the
wrappers that the traced run installs (see tracing.py) see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lasso_spectra import graph, oracle, reconstruct, spectrum

import gen

PERFBENCH = Path(__file__).resolve().parent
SRC = PERFBENCH.parent / "src"
# The package re-exports the function charfn under the submodule's name.
charfn_mod = importlib.import_module("lasso_spectra.charfn")

# Bounds are the acceptance criteria's, verbatim.
ROUNDTRIP_BOUND = 1e-3
ORACLE_BOUND = 1e-3
ORACLE_COUNT = 6
# Relative agreement of CLI output with the in-process reference; allows
# reassociation in the last bits, catches any wrong value.
CLI_VALUE_TOL = 1e-10
CLI_TIMEOUT_S = 150.0


def problem_of(label: str) -> graph.Problem:
    return graph.Problem.neumann() if label == "L" else graph.Problem.dirichlet(int(label[1:]))


def roundtrip_grid(catalog) -> np.ndarray:
    """verify's reconstruction grid: [-5, 9] minus points within 1e-2 of an eigenvalue."""
    grid = np.linspace(-5.0, 9.0, 200)
    lams = np.array(sorted(e.lam for e in catalog.entries))
    return grid[np.array([np.min(np.abs(x - lams)) > 1e-2 for x in grid])]


def verify_n_max(rho_max: float, tau: float) -> int:
    """The truncation depth verify derives from rho_max and tau."""
    return max(1, int(rho_max / tau) - 1)


@dataclass
class Request:
    index: int
    case: gen.Case
    problem: str
    kind: str = ""
    args: tuple = ()


@dataclass
class Outcome:
    ok: bool
    items: int = 0
    error: str | None = None  # exception class, or the name of the failed check
    wrong: bool = False  # the request completed but its output failed a check
    detail: str = ""
    accuracy: float | None = None
    bytes_out: int = 0
    rss_mb: float = 0.0


@dataclass
class SetupInfo:
    graph_load_s: float = 0.0
    oracle_first_call_s: float = 0.0
    notes: dict = field(default_factory=dict)


class Workload:
    name = ""
    item_name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.cases = gen.make_cases(self.name, seed)
        self.graphs = []

    def _load_graphs(self, info: SetupInfo) -> None:
        start = time.perf_counter()
        self.graphs = [graph.graph_from_json(c.config)[0] for c in self.cases]
        info.graph_load_s = time.perf_counter() - start

    def requests(self) -> list[Request]:
        """One round: every case under each of its problems, in a fixed order."""
        out = []
        for ci, case in enumerate(self.cases):
            for label in case.problems:
                out.append(Request(len(out), case, label, args=(ci,)))
        return out


class CatalogWorkload(Workload):
    """compute_catalog, then Hadamard reconstruction checked against charfn."""

    name = "catalog"
    item_name = "catalog entries"

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.rho_max = 21.0 if tiny else 203.0
        self.untraced_entries: dict[int, tuple] = {}
        self.decomposition_mismatches = 0

    def setup(self) -> SetupInfo:
        info = SetupInfo()
        self._load_graphs(info)
        # Warm-up: first calls into scipy.optimize, the frame and the product.
        g, problem = self.graphs[1], graph.Problem.neumann()
        cat = spectrum.compute_catalog(g, problem, 10.0)
        grid = roundtrip_grid(cat)
        result = reconstruct.hadamard_reconstruct(cat, grid, verify_n_max(10.0, cat.frame.tau))
        reconstruct.compare(result, lambda lam: charfn_mod.charfn_for(g, problem, lam))
        return info

    def _catalog_in_parts(self, g, problem):
        """compute_catalog's public parts, called separately with its arguments."""
        parts = ("build_frame", "find_eigenvalues", "negative_eigenvalues", "catalog_spectrum")
        if not all(hasattr(spectrum, p) for p in parts):
            return spectrum.compute_catalog(g, problem, self.rho_max)
        g = graph.validate(g)
        frame = spectrum.build_frame(g, problem)
        eigs = spectrum.find_eigenvalues(g, problem, self.rho_max + frame.window(), frame)
        negs = spectrum.negative_eigenvalues(g, problem)
        return spectrum.catalog_spectrum(g, eigs, frame, self.rho_max, negs, problem.label())

    def execute(self, req: Request, tracer=None):
        g, problem = self.graphs[req.args[0]], problem_of(req.problem)
        if tracer is None:
            cat = spectrum.compute_catalog(g, problem, self.rho_max)
        else:
            cat = self._catalog_in_parts(g, problem)
        n_max = verify_n_max(self.rho_max, cat.frame.tau)
        result = reconstruct.hadamard_reconstruct(cat, roundtrip_grid(cat), n_max)
        report = reconstruct.compare(result, lambda lam: charfn_mod.charfn_for(g, problem, lam))
        return cat, report

    def check(self, req: Request, output, traced: bool) -> Outcome:
        cat, report = output
        if traced:
            if self.untraced_entries.get(req.index, cat.entries) != cat.entries:
                self.decomposition_mismatches += 1
        else:
            self.untraced_entries[req.index] = cat.entries
        slots = len(cat.frame.slots(self.rho_max))
        if len(cat.entries) != slots:
            return Outcome(False, error="EntryCountMismatch", wrong=True, detail=f"{len(cat.entries)} entries for {slots} slots")
        if not report.max_rel <= ROUNDTRIP_BOUND:
            return Outcome(False, error="RoundTripError", wrong=True, detail=f"max_rel {report.max_rel:.3e}", accuracy=report.max_rel)
        return Outcome(True, items=len(cat.entries), accuracy=report.max_rel)


class OracleWorkload(Workload):
    """richardson_eigs at the acceptance resolution against the catalog."""

    name = "oracle"
    item_name = "eigenvalues compared"

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.points_per_unit = 50.0 if tiny else 160.0
        self.rho_max = 4.0  # comfortably above the sixth eigenvalue of every cell

    def setup(self) -> SetupInfo:
        info = SetupInfo()
        self._load_graphs(info)
        # Warm-up on the coarsest grid the oracle accepts: the first dense
        # eigh in a process pays for BLAS start-up.
        g, problem = self.graphs[0], graph.Problem.neumann()
        start = time.perf_counter()
        oracle.richardson_eigs(g, problem, ORACLE_COUNT, 50.0)
        info.oracle_first_call_s = time.perf_counter() - start
        spectrum.compute_catalog(g, problem, self.rho_max)
        return info

    def execute(self, req: Request, tracer=None):
        g, problem = self.graphs[req.args[0]], problem_of(req.problem)
        extrapolated = oracle.richardson_eigs(g, problem, ORACLE_COUNT, self.points_per_unit)
        cat = spectrum.compute_catalog(g, problem, self.rho_max)
        return extrapolated, sorted(e.lam for e in cat.entries)[:ORACLE_COUNT]

    def check(self, req: Request, output, traced: bool) -> Outcome:
        extrapolated, lams = output
        if len(lams) < ORACLE_COUNT:
            return Outcome(False, error="CatalogTooShort", wrong=True, detail=f"{len(lams)} eigenvalues")
        rel = float(
            np.max(np.abs(np.asarray(lams) - extrapolated) / np.maximum(1.0, np.abs(extrapolated)))
        )
        if not rel <= ORACLE_BOUND:
            return Outcome(False, error="OracleDisagreement", wrong=True, detail=f"max_rel {rel:.3e}", accuracy=rel)
        return Outcome(True, items=ORACLE_COUNT, accuracy=rel)


class CliWorkload(Workload):
    """One lasso-spectra subprocess per request: charfn grids and reconstruct."""

    name = "cli_eval"
    item_name = "output rows"
    N_MAX = 50

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.charfn_rows = 2_000 if tiny else 200_000
        self.reconstruct_rows = 1_000 if tiny else 50_000
        self.references: dict[int, tuple] = {}
        self.sub_traces: list[tuple[int, Path]] = []
        self._requests: list[Request] = []

    def _grid(self, rng, kind: str, rows: int):
        """A start:stop:step spec with exactly `rows` points, and those points."""
        if kind == "rho":
            start, step = round(rng.uniform(0.0, 1.0), 3), 1e-3
        else:
            start, step = -round(rng.uniform(1.0, 5.0), 3), 1e-2
        stop = start + step * (rows - 1) + step / 2.0
        return f"{start!r}:{stop!r}:{step!r}", start + step * np.arange(rows)

    def setup(self) -> SetupInfo:
        info = SetupInfo()
        self._load_graphs(info)
        self.workdir.mkdir(parents=True, exist_ok=True)
        configs = []
        for i, case in enumerate(self.cases):
            path = self.workdir / f"config_{i}.json"
            path.write_text(json.dumps(case.config))
            configs.append(str(path))
        rng = np.random.default_rng(self.seed)
        # (case, problem, kind): both problems of case 0 and 1 get every kind.
        plan = [
            (0, 0, "rho"), (1, 1, "lambda"), (0, 0, "reconstruct"), (2, 1, "rho"),
            (0, 1, "lambda"), (1, 1, "reconstruct"), (1, 0, "rho"), (2, 0, "lambda"),
        ]
        digests = {}
        spectra = {}
        for ci, pi, kind in plan:
            case, label = self.cases[ci], self.cases[ci].problems[pi]
            g, problem = self.graphs[ci], problem_of(label)
            args = ["--config", configs[ci], "--problem", "L" if label == "L" else "Lj"]
            if label != "L":
                args += ["--j", label[1:]]
            if kind == "reconstruct":
                if (ci, label) not in spectra:
                    tau = spectrum.build_frame(g, problem).tau
                    cat = spectrum.compute_catalog(g, problem, tau * (self.N_MAX + 1) + 1.0)
                    path = self.workdir / f"spectra_{ci}_{label}.csv"
                    path.write_text(spectrum.catalog_to_csv(cat))
                    spectra[(ci, label)] = (path, cat)
                path, cat = spectra[(ci, label)]
                spec, grid = self._grid(rng, "lambda", self.reconstruct_rows)
                argv = ["reconstruct", *args, "--spectra", str(path), "--n-max", str(self.N_MAX), f"--lambda={spec}"]
                rec = reconstruct.hadamard_reconstruct(cat, grid, self.N_MAX).values
                header = b"lambda,delta_hat,delta_direct,rel_error"
                ref = (grid, rec, charfn_mod.charfn_for(g, problem, grid))
            else:
                rows = self.charfn_rows
                spec, grid = self._grid(rng, kind, rows)
                argv = ["charfn", *args, f"--{kind}={spec}"]
                lam = grid * grid if kind == "rho" else grid
                header = f"{kind},delta".encode()
                ref = (grid, charfn_mod.charfn_for(g, problem, lam))
            req = Request(len(self._requests), case, label, kind, tuple(argv))
            self._requests.append(req)
            self.references[req.index] = (header, ref)
            digests[req.index] = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in ref)).hexdigest()[:12]
        info.notes["reference_digests"] = digests
        return info

    def requests(self) -> list[Request]:
        return list(self._requests)

    def execute(self, req: Request, tracer=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        out_path = self.workdir / f"out_{req.index}.csv"
        if tracer is None:
            cmd = [sys.executable, "-m", "lasso_spectra.cli", *req.args]
        else:
            trace_path = self.workdir / f"trace_{req.index}_{len(self.sub_traces)}.json"
            cmd = [
                sys.executable, str(PERFBENCH / "cli_shim.py"), "--trace-out", str(trace_path),
                "--parent", tracer.current_span(), "--request", str(tracer.request), "--", *req.args,
            ]
            self.sub_traces.append((tracer.request, trace_path))
        with open(out_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=str(PERFBENCH.parent))
            killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path, usage.ru_maxrss / 1024.0

    def check(self, req: Request, output, traced: bool) -> Outcome:
        code, out_path, rss_mb = output
        data = out_path.read_bytes()
        out_path.unlink()
        if code != 0:
            return Outcome(False, error=f"ExitCode{code}", rss_mb=rss_mb, bytes_out=len(data))
        want_header, ref = self.references[req.index]
        header, _, body = data.partition(b"\n")
        if header != want_header:
            return Outcome(False, error="OutputMismatch", wrong=True, detail=f"header {header[:60]!r}")
        try:
            table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
        except ValueError as exc:
            return Outcome(False, error="MalformedCSV", wrong=True, detail=str(exc)[:80], bytes_out=len(data))
        bad = _mismatch(table, ref)
        if bad:
            return Outcome(False, error="OutputMismatch", wrong=True, detail=bad, bytes_out=len(data), rss_mb=rss_mb)
        accuracy = None
        if req.kind == "reconstruct":
            rel = table[:, 3]
            rel = rel[np.isfinite(rel)]
            accuracy = float(np.max(rel)) if rel.size else None
        return Outcome(True, items=table.shape[0], bytes_out=len(data), rss_mb=rss_mb, accuracy=accuracy)


def _mismatch(table: np.ndarray, ref: tuple) -> str:
    """Empty if the CLI table matches the reference columns, else a reason."""
    grid = ref[0]
    if table.shape[0] != grid.size:
        return f"{table.shape[0]} rows, expected {grid.size}"
    if table.shape[1] < len(ref):
        return f"{table.shape[1]} columns"
    if np.max(np.abs(table[:, 0] - grid) / np.maximum(1.0, np.abs(grid))) > 1e-12:
        return "grid column differs"
    for col, want in enumerate(ref[1:], start=1):
        got = table[:, col]
        if not np.array_equal(np.isnan(got), np.isnan(want)):
            return f"column {col}: NaN pattern differs"
        finite = ~np.isnan(want)
        scale = max(float(np.max(np.abs(want[finite]))) if finite.any() else 1.0, 1e-300)
        if np.max(np.abs(got[finite] - want[finite]), initial=0.0) > CLI_VALUE_TOL * scale:
            return f"column {col}: values differ"
    return ""


WORKLOADS = {w.name: w for w in (CatalogWorkload, CliWorkload, OracleWorkload)}
