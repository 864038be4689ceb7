"""Spans and counters recorded around calls into the library's modules.

The library itself is not instrumented. The benchmark replaces public module
attributes (for instance ``lasso_spectra.spectrum.charfn_for``, which is the
name the root scan looks up on every evaluation) with timing wrappers, and
restores them afterwards. A name that no longer exists is reported as absent
instead of failing the run, so later refactors of the library do not break
the benchmark.

Spans (name, start, end, parent, request id) are kept for calls that happen a
few times per request. Calls that happen thousands of times per request are
counted instead (calls, points, busy time), and their busy time and points
are also credited to every span open at the time, which gives, for example,
the root scan's time net of the characteristic-function evaluations inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name): called a few times per request.
SPAN_WRAPS = (
    ("lasso_spectra.spectrum", "compute_catalog", "spectrum.compute_catalog"),
    ("lasso_spectra.spectrum", "build_frame", "trigpoly.build_frame"),
    ("lasso_spectra.spectrum", "find_eigenvalues", "spectrum.find_eigenvalues"),
    ("lasso_spectra.spectrum", "negative_eigenvalues", "spectrum.negative_eigenvalues"),
    ("lasso_spectra.spectrum", "catalog_spectrum", "spectrum.catalog_spectrum"),
    ("lasso_spectra.reconstruct", "hadamard_reconstruct", "reconstruct.hadamard_reconstruct"),
    ("lasso_spectra.reconstruct", "compare", "reconstruct.compare"),
    ("lasso_spectra.oracle", "richardson_eigs", "oracle.richardson_eigs"),
    ("lasso_spectra.oracle", "discretize", "oracle.discretize"),
    ("lasso_spectra.oracle", "oracle_eigs", "oracle.oracle_eigs"),
    ("lasso_spectra.cli", "main", "cli.main"),
    ("lasso_spectra.cli", "chunked_eval", "cli.chunked_eval"),
    ("lasso_spectra.cli", "graph_from_json", "graph.graph_from_json"),
    ("lasso_spectra.cli", "build_frame", "trigpoly.build_frame"),
    ("lasso_spectra.cli", "compute_catalog", "spectrum.compute_catalog"),
    ("lasso_spectra.cli", "hadamard_reconstruct", "reconstruct.hadamard_reconstruct"),
    ("lasso_spectra.cli", "compare", "reconstruct.compare"),
)

# (module, attribute, counter name, index of the lambda argument).
COUNTER_WRAPS = (
    ("lasso_spectra.spectrum", "charfn_for", "charfn.scan", 2),
    ("lasso_spectra.cli", "charfn_for", "charfn.cli", 2),
    ("lasso_spectra.charfn", "fundamental_solutions", "propagate.fundamental_solutions", 1),
    ("lasso_spectra.propagate", "phi_pair", "propagate.phi_pair", 0),
    ("lasso_spectra.trigpoly", "phi_pair", "propagate.phi_pair", 0),
)

COUNTER_FIELDS = ("calls", "points", "busy", "scalar_calls", "scalar_busy", "vector_points", "vector_busy")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs", "inner_busy", "inner_points")

    def __init__(self, sid, name, parent, request):
        self.id = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = 0.0
        self.attrs = {}
        self.inner_busy = defaultdict(float)  # counter name -> busy seconds inside
        self.inner_points = defaultdict(int)

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request, "attrs": self.attrs,
            "inner_busy": dict(self.inner_busy), "inner_points": dict(self.inner_points),
        }


class Tracer:
    """Records spans and counters; install() wraps, uninstall() restores."""

    def __init__(self, id_prefix: str = ""):
        self.spans: list[Span] = []
        self.counters = defaultdict(lambda: dict.fromkeys(COUNTER_FIELDS, 0))
        self.absent: list[str] = []
        self.request = None
        self._prefix = id_prefix
        self._next = 0
        self._stack: list[Span] = []  # open spans (opened on the calling thread)
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> Span:
        self._next += 1
        parent = self._stack[-1].id if self._stack else None
        span = Span(f"{self._prefix}{self._next}", name, parent, self.request)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def current_span(self) -> str:
        """Id of the innermost open span, or "" when none is open."""
        return self._stack[-1].id if self._stack else ""

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrapping ----------------------------------------------------------
    def _replace(self, module_name: str, attr: str, make):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(f"{module_name}.{attr}")
            return
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            self.absent.append(f"{module_name}.{attr}")
            return
        self._restore.append((module, attr, original))
        setattr(module, attr, make(original))

    def _span_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            try:
                describe(name, span, args, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                span.attrs["describe_error"] = type(exc).__name__
            return result

        return wrapper

    def _counter_wrapper(self, fn, name: str, lam_index: int):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                lam = args[lam_index] if len(args) > lam_index else kwargs.get("lam", 0.0)
                scalar = isinstance(lam, (float, int)) or np.ndim(lam) == 0
                points = 1 if scalar else int(np.size(lam))
                with tracer._lock:
                    c = tracer.counters[name]
                    c["calls"] += 1
                    c["points"] += points
                    c["busy"] += busy
                    if scalar:
                        c["scalar_calls"] += 1
                        c["scalar_busy"] += busy
                    else:
                        c["vector_points"] += points
                        c["vector_busy"] += busy
                    for span in tracer._stack:
                        span.inner_busy[name] += busy
                        span.inner_points[name] += points

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in SPAN_WRAPS:
            self._replace(module_name, attr, lambda fn, n=name: self._span_wrapper(fn, n))
        for module_name, attr, name, lam_index in COUNTER_WRAPS:
            self._replace(
                module_name, attr, lambda fn, n=name, i=lam_index: self._counter_wrapper(fn, n, i)
            )

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def to_json(self) -> dict:
        return {
            "spans": [s.to_json() for s in self.spans],
            "counters": {k: dict(v) for k, v in self.counters.items()},
            "absent": list(self.absent),
        }


def describe(name: str, span: Span, args, result) -> None:
    """Work counts read off a wrapped call's arguments and result."""
    if name == "spectrum.find_eigenvalues":
        span.attrs["roots"] = len(result)
        span.attrs["tangential"] = sum(1 for rho, mult in result if rho > 0.0 and mult == 2)
    elif name == "spectrum.negative_eigenvalues":
        span.attrs["roots"] = len(result)
    elif name == "spectrum.catalog_spectrum":
        span.attrs["window_violations"] = len(getattr(result, "window_violations", ()))
    elif name == "reconstruct.hadamard_reconstruct":
        span.attrs["factors"] = computed_factors(args[0], args[2], result)
    elif name == "oracle.discretize":
        matrix = getattr(result, "matrix", None)
        if matrix is not None:
            span.attrs["dim"] = int(matrix.shape[0])
            span.attrs["nnz"] = int(np.count_nonzero(matrix))


def computed_factors(catalog, n_max: int, result) -> int:
    """Entries that contribute a factor (moved off their grid point) x grid size.

    Entries with |n| <= n_max are exactly the truncation set for every family
    kind; unmoved entries contribute the constant 1 and are skipped.
    """
    moved = sum(
        1 for e in catalog.entries if abs(e.n) <= n_max and abs(e.lam - e.rho0 * e.rho0) > 1e-12
    )
    return moved * int(np.size(result.grid))


# -- aggregation -------------------------------------------------------------

def merge(into: dict, other: dict, request=None) -> None:
    """Fold a trace written by another process into a trace dict."""
    for span in other["spans"]:
        if request is not None:
            span["request"] = request
        into["spans"].append(span)
    for name, fields in other["counters"].items():
        mine = into["counters"].setdefault(name, dict.fromkeys(COUNTER_FIELDS, 0))
        for key, value in fields.items():
            mine[key] += value
    for name in other["absent"]:
        if name not in into["absent"]:
            into["absent"].append(name)


def _covered(interval, children) -> float:
    """Length of the union of child intervals clipped to the parent interval."""
    lo, hi = interval
    pieces = sorted((max(lo, s), min(hi, e)) for s, e in children if e > lo and s < hi)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in pieces:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span: dict, spans: list[dict]) -> float:
    children = [(c["start"], c["end"]) for c in spans if c["parent"] == span["id"]]
    return (span["end"] - span["start"]) - _covered((span["start"], span["end"]), children)


def layer_metrics(trace: dict, n_requests: int, extra: dict) -> dict:
    """Per-layer figures, per traced request unless the name says otherwise.

    Which end-to-end figure each should move, written down before any change:
    spectrum.*, charfn.calls/points/busy_s/scalar_us_per_call,
    propagate.fundamental_solutions_us_per_call, trigpoly.build_frame_s and
    reconstruct.hadamard_s/compare_s move throughput and latency on catalog
    and should leave cli_eval flat (spectrum.* and charfn.calls read 0 there).
    propagate.phi_pair_ns_per_point, charfn.vector_ns_per_point,
    reconstruct.factors/ns_per_factor and cli.* move throughput and latency on
    cli_eval and should leave catalog flat. oracle.discretize_s/eigs_s/dim/nnz
    move latency on oracle; oracle.first_call_s and graph.load_s move setup_s.
    """
    spans = trace["spans"]
    counters = trace["counters"]
    n = max(n_requests, 1)

    def total(name, field=None):
        picked = [s for s in spans if s["name"] == name]
        if field is None:
            return sum(s["end"] - s["start"] for s in picked)
        return sum(s["attrs"].get(field, 0) for s in picked)

    def inner(name, counter, field="inner_busy"):
        return sum(s[field].get(counter, 0) for s in spans if s["name"] == name)

    def counter(name, field):
        return counters.get(name, {}).get(field, 0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    scan_s = total("spectrum.find_eigenvalues")
    roots = total("spectrum.find_eigenvalues", "roots") + total("spectrum.negative_eigenvalues", "roots")
    scan_points = inner("spectrum.find_eigenvalues", "charfn.scan", "inner_points") + inner(
        "spectrum.negative_eigenvalues", "charfn.scan", "inner_points"
    )
    factors = total("reconstruct.hadamard_reconstruct", "factors")
    vec_busy = counter("charfn.scan", "vector_busy") + counter("charfn.cli", "vector_busy")
    vec_points = counter("charfn.scan", "vector_points") + counter("charfn.cli", "vector_points")
    discretized = [s for s in spans if s["name"] == "oracle.discretize" and "dim" in s["attrs"]]
    mains = [s for s in spans if s["name"] == "cli.main"]

    return {
        "graph.load_s": extra.get("graph_load_s", 0.0),
        "trigpoly.build_frame_s": total("trigpoly.build_frame") / n,
        "spectrum.scan_s": scan_s / n,
        "spectrum.scan_self_s": (scan_s - inner("spectrum.find_eigenvalues", "charfn.scan")) / n,
        "spectrum.negative_sweep_s": total("spectrum.negative_eigenvalues") / n,
        "spectrum.assign_s": total("spectrum.catalog_spectrum") / n,
        "spectrum.roots": roots / n,
        "spectrum.tangential_roots": total("spectrum.find_eigenvalues", "tangential") / n,
        "spectrum.window_violations": total("spectrum.catalog_spectrum", "window_violations") / n,
        "spectrum.evals_per_root": ratio(scan_points, roots),
        "charfn.calls": counter("charfn.scan", "calls") / n,
        "charfn.points": counter("charfn.scan", "points") / n,
        "charfn.busy_s": counter("charfn.scan", "busy") / n,
        "charfn.scalar_us_per_call": ratio(
            counter("charfn.scan", "scalar_busy"), counter("charfn.scan", "scalar_calls"), 1e6
        ),
        "charfn.vector_ns_per_point": ratio(vec_busy, vec_points, 1e9),
        "propagate.fundamental_solutions_us_per_call": ratio(
            counter("propagate.fundamental_solutions", "busy"),
            counter("propagate.fundamental_solutions", "calls"),
            1e6,
        ),
        "propagate.phi_pair_ns_per_point": ratio(
            counter("propagate.phi_pair", "vector_busy"),
            counter("propagate.phi_pair", "vector_points"),
            1e9,
        ),
        "reconstruct.hadamard_s": total("reconstruct.hadamard_reconstruct") / n,
        "reconstruct.compare_s": total("reconstruct.compare") / n,
        "reconstruct.factors": factors / n,
        "reconstruct.ns_per_factor": ratio(total("reconstruct.hadamard_reconstruct"), factors, 1e9),
        "cli.import_s": total("cli.import") / n,
        "cli.eval_s": total("cli.chunked_eval") / n,
        "cli.self_s": sum(self_time(s, spans) for s in mains) / n,
        "cli.bytes_out": extra.get("cli_bytes_out", 0.0),
        "oracle.discretize_s": total("oracle.discretize") / n,
        "oracle.eigs_s": total("oracle.oracle_eigs") / n,
        "oracle.dim": ratio(sum(s["attrs"]["dim"] for s in discretized), len(discretized)),
        "oracle.nnz": ratio(sum(s["attrs"]["nnz"] for s in discretized), len(discretized)),
        "oracle.first_call_s": extra.get("oracle_first_call_s", 0.0),
        "trace.overhead_s": extra.get("trace_overhead_s", 0.0),
        "trace.unaccounted_s": extra.get("trace_unaccounted_s", 0.0),
        "trace.absent_wraps": float(len(trace["absent"])),
    }


LAYER_UNITS = {
    "graph.load_s": "s",
    "trigpoly.build_frame_s": "s",
    "spectrum.scan_s": "s",
    "spectrum.scan_self_s": "s",
    "spectrum.negative_sweep_s": "s",
    "spectrum.assign_s": "s",
    "spectrum.roots": "count",
    "spectrum.tangential_roots": "count",
    "spectrum.window_violations": "count",
    "spectrum.evals_per_root": "ratio",
    "charfn.calls": "count",
    "charfn.points": "count",
    "charfn.busy_s": "s",
    "charfn.scalar_us_per_call": "us",
    "charfn.vector_ns_per_point": "ns",
    "propagate.fundamental_solutions_us_per_call": "us",
    "propagate.phi_pair_ns_per_point": "ns",
    "reconstruct.hadamard_s": "s",
    "reconstruct.compare_s": "s",
    "reconstruct.factors": "count",
    "reconstruct.ns_per_factor": "ns",
    "cli.import_s": "s",
    "cli.eval_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "oracle.discretize_s": "s",
    "oracle.eigs_s": "s",
    "oracle.dim": "count",
    "oracle.nnz": "count",
    "oracle.first_call_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.absent_wraps": "count",
}


def dump(trace: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(trace, fh)
