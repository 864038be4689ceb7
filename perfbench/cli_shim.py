"""Run one lasso-spectra CLI command with the benchmark's trace wrappers.

Usage: python3 cli_shim.py --trace-out PATH --parent SPAN --request ID -- <cli args>

Behaves like ``python -m lasso_spectra.cli <cli args>`` (same output, same
exit code) and additionally writes the spans and counters of the run to
PATH. The import of the CLI module is recorded as the span ``cli.import``.
Spans without a parent are attached to SPAN, the benchmark's request span.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--parent", default="")
    parser.add_argument("--request", default="")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    import lasso_spectra.cli  # noqa: F401  (timed: every user invocation pays it)

    import_end = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing

    tracer = tracing.Tracer(id_prefix=f"r{args.request}.")
    tracer.request = args.request
    tracer.install()
    try:
        code = lasso_spectra.cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        trace = tracer.to_json()
        trace["spans"].append({
            "id": f"r{args.request}.import", "name": "cli.import", "start": start,
            "end": import_end, "parent": None, "request": args.request, "attrs": {},
            "inner_busy": {}, "inner_points": {},
        })
        for span in trace["spans"]:
            if span["parent"] is None:
                span["parent"] = args.parent or None
        tracing.dump(trace, args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
