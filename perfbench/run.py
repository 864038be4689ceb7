"""The lasso-spectra benchmark, run from the working tree.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --seed N     # all three workloads in turn
    python3 perfbench/run.py --smoke

W is catalog, cli_eval or oracle. The library is imported from ``src/`` (it
need not be installed); CLI subprocesses get ``src/`` on PYTHONPATH. The seed
fixes the generated inputs (see gen.py). A run sets up the workload, sends
requests one after another in whole rounds for up to S seconds (at least one
round), checks every output, and prints a report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs the
first half of the time untraced, replays the same requests with the trace
wrappers installed, and reports the per-layer metrics; spans are written to
perfbench/out/ at exit. --smoke runs every workload at a tiny size in both
modes and asserts that each metric named in BENCHMARK.json appears with its
unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
OUT = PERFBENCH / "out"
WORKLOADS = ("catalog", "cli_eval", "oracle")
SETUP_SAMPLES = 3  # this process plus two fresh probe processes
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def limit_threads() -> None:
    """Cap BLAS and library threads at the CPU count, before numpy loads."""
    cap = cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LASSO_SPECTRA_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        os.environ[var] = str(min(current, cap) if current > 0 else cap)


def setup_workload(name: str, seed: int, workdir: Path, tiny: bool):
    """Import, generate, load and warm up; returns (workload, info, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir, tiny)
    info = workload.setup()
    return workload, info, time.perf_counter() - start


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes: the same set-up, nothing else."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe",
        ] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def latency_stats(latencies: list[float], failed: int) -> dict:
    """Median and tail; a failed request ranks as infinitely slow.

    The tail is the highest percentile (nearest rank) with at least
    TAIL_BEYOND samples beyond it, but never below the median.
    """
    xs = sorted(latencies) + [math.inf] * failed
    n = len(xs)
    tail = max(n - TAIL_BEYOND - 1, n // 2)
    return {
        "n": n,
        "p50": statistics.median(xs),
        "tail": xs[tail],
        "tail_pct": 100.0 * (tail + 1) / n,
        "tail_beyond": n - tail - 1,
    }


def run_rounds(workload, requests, seconds: float, tracer, rounds=None):
    """Closed loop over whole rounds: each request is sent after the previous one.

    Every round sends the same requests in the same order, so figures over
    whole rounds do not depend on where the clock stopped. Rounds repeat
    while the next one, judged by the last, still ends within `seconds`;
    at least one round runs. A given `rounds` replays exactly that many.
    """
    results = []
    start = time.perf_counter()
    done = 0
    while True:
        round_start = time.perf_counter()
        for req in requests:
            results.append(send(workload, req, tracer, len(results)))
        done += 1
        now = time.perf_counter()
        if rounds is not None:
            if done >= rounds:
                return results, done
        elif now - start + (now - round_start) > seconds:
            return results, done


def send(workload, req, tracer, request_id):
    """One timed request, then its output check; a failure is counted, never fatal."""
    if tracer is not None:
        tracer.request = request_id
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.execute(req)
        else:
            with tracer.span("request"):
                output = workload.execute(req, tracer)
        error = None
    except Exception as exc:
        output, error = None, exc
    latency = time.perf_counter() - start
    if error is None:
        return req, latency, workload.check(req, output, tracer is not None)
    from workloads import Outcome

    return req, latency, Outcome(False, error=type(error).__name__, detail=str(error)[:120])


def summarize_failures(results) -> dict:
    counts: dict[str, int] = {}
    for _, _, outcome in results:
        if not outcome.ok:
            counts[outcome.error] = counts.get(outcome.error, 0) + 1
    return counts


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")
        blas = info["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "nproc": cpu_count(),
        "LASSO_SPECTRA_THREADS": os.environ.get("LASSO_SPECTRA_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def end_to_end(workload, results, setup_s: float) -> tuple[dict, list[str]]:
    failed = [r for r in results if not r[2].ok]
    ok = [r for r in results if r[2].ok]
    stats = latency_stats([lat for _, lat, o in results if o.ok], len(failed))
    wall = sum(lat for _, lat, _ in results)
    items = sum(o.items for _, _, o in ok)
    if workload.name == "cli_eval":
        rss = max((o.rss_mb for _, _, o in results), default=0.0)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    accuracy = [o.accuracy for _, _, o in ok if o.accuracy is not None]
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (stats["p50"], "s"),
        "latency_tail_s": (stats["tail"], "s"),
        "throughput_per_s": (items / wall if wall else 0.0, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    acc_name = {"catalog": "roundtrip_max_rel", "oracle": "oracle_max_rel", "cli_eval": "cli_roundtrip_max_rel"}[workload.name]
    rate_name = {"catalog": "entries_per_s", "oracle": "eigenvalues_per_s", "cli_eval": "rows_per_s"}[workload.name]
    lines = [
        f"requests: {len(results)} attempted, {len(failed)} failed, closed loop with one caller",
        f"failed_share: {len(failed) / max(len(results), 1):.4f} (failed / attempted)",
        f"latency_p50_s: {stats['p50']:.6g} s (median, n = {stats['n']}, failures ranked as missing every limit)",
        f"latency_tail_s: {stats['tail']:.6g} s (p{stats['tail_pct']:.1f}, n = {stats['n']}, "
        f"{stats['tail_beyond']} samples beyond)",
        f"{rate_name}: {metrics['throughput_per_s'][0]:.6g} 1/s ({workload.item_name} per wall second of requests"
        + (f", rho_max {workload.rho_max})" if workload.name == "catalog" else ")"),
        f"{acc_name}: {max(accuracy) if accuracy else float('nan'):.3e} (max over completed requests)",
        f"peak_rss_mb: {rss:.1f} MB",
        f"setup_s: {setup_s:.4f} s (median of {SETUP_SAMPLES} set-ups, import to warm)",
    ]
    return metrics, lines


def traced_run(workload, info, requests, seconds: float, out_file: Path, rounds=None):
    """Untraced first half, then the same rounds traced; per-layer metrics."""
    import tracing

    plain, rounds = run_rounds(workload, requests, seconds / 2.0, None, rounds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = run_rounds(workload, requests, 0.0, tracer, rounds)
    finally:
        tracer.uninstall()
    trace = tracer.to_json()
    for request_id, path in getattr(workload, "sub_traces", ()):
        if path.exists():
            with open(path) as fh:
                tracing.merge(trace, json.load(fh), request_id)
    spans = trace["spans"]
    roots = [s for s in spans if s["name"] == "request"]
    n = len(traced)
    extra = {
        "graph_load_s": info.graph_load_s,
        "oracle_first_call_s": info.oracle_first_call_s,
        "cli_bytes_out": sum(o.bytes_out for _, _, o in traced) / max(n, 1),
        "trace_overhead_s": (sum(lat for _, lat, _ in traced) - sum(lat for _, lat, _ in plain)) / max(n, 1),
        "trace_unaccounted_s": sum(tracing.self_time(s, spans) for s in roots) / max(n, 1),
    }
    metrics = tracing.layer_metrics(trace, n, extra)
    tracing.dump(trace, out_file)
    lines = [
        f"traced requests: {n} in {rounds} rounds (replaying the {len(plain)} untraced ones)",
        f"absent wrapped names: {', '.join(trace['absent']) or 'none'}",
        f"spans written to {out_file.relative_to(ROOT)}",
    ]
    if getattr(workload, "decomposition_mismatches", 0):
        lines.append(
            f"warning: {workload.decomposition_mismatches} traced catalogs differ from compute_catalog's"
        )
    units = {k: (v, tracing.LAYER_UNITS[k]) for k, v in metrics.items()}
    return plain + traced, units, lines


def run(args) -> int:
    import gen

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, info, setup_main = setup_workload(args.workload, args.seed, workdir, args.tiny)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        requests = workload.requests()
        print(f"workload: {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
        print(f"inputs: {len(workload.cases)} configs, {len(requests)} requests per round, digest {gen.digest(workload.cases)}")
        print(f"property shares: {json.dumps(gen.property_shares(workload.cases))}")
        print(f"environment: {json.dumps(environment())}")
        if info.notes:
            print(f"set-up notes: {json.dumps(info.notes)}")
        rounds = 1 if args.tiny else None
        if args.trace:
            out_file = OUT / f"trace-{args.workload}-{args.seed}.json"
            results, metrics, lines = traced_run(workload, info, requests, args.seconds, out_file, rounds)
        else:
            setup_s = statistics.median([setup_main] + probe_setup(args))
            results, rounds = run_rounds(workload, requests, args.seconds, None, rounds)
            metrics, lines = end_to_end(workload, results, setup_s)
            lines.insert(0, f"rounds: {rounds} of {len(requests)} requests")
        for line in lines:
            print(line)
        for name, count in sorted(summarize_failures(results).items()):
            print(f"failures: {name} x{count}")
        failing = {(req.index, req.case.cell, req.problem, o.error, o.detail) for req, _, o in results if not o.ok}
        for index, cell, problem, error, detail in sorted(failing):
            print(f"  request {index} ({cell}, {problem}): {error} {detail}")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
        report = {
            "correct": not any(o.wrong for _, _, o in results),
            "attempted": len(results),
            "failed": sum(1 for _, _, o in results if not o.ok),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, one after another, with the same seed."""
    code = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        code = max(code, subprocess.run(cmd, cwd=str(ROOT)).returncode)
    return code


def smoke() -> int:
    """Every workload at a tiny size, both modes; metric names and units must match."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=str(ROOT))
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
                raise SystemExit(f"smoke: {workload} trace {trace} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                raise SystemExit(f"smoke: {workload} trace {trace} metrics {sorted(got)} != {sorted(want[trace])}")
            # At this size the accuracy bounds do not hold and most requests
            # may fail; only the shape of the report is checked.
            bad = [k for k, v in result["metrics"].items() if not isinstance(v["value"], (int, float))]
            if bad or result["attempted"] < 1:
                raise SystemExit(f"smoke: {workload} trace {trace}: non-numeric {bad} or no requests")
            print(f"smoke ok: {workload} trace {trace} ({result['attempted']} requests, {result['failed']} failed)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, both modes")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "lasso_spectra" / "__init__.py").is_file():
        print(f"error: no lasso_spectra package under {SRC}", file=sys.stderr)
        return 2
    limit_threads()
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
