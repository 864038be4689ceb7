import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from lasso_spectra import _floattext, checks, cli
from lasso_spectra.charfn import charfn_for
from lasso_spectra.cli import main, parse_grid
from lasso_spectra.errors import WindowViolationWarning
from lasso_spectra.graph import Problem, delta_potential, graph_from_json, graph_to_json, lasso_graph
from lasso_spectra.propagate import fundamental_solutions
from lasso_spectra.spectrum import compute_catalog

ROOT = Path(__file__).resolve().parents[1]
FREE = str(ROOT / "configs" / "lasso_free.json")
DELTA = str(ROOT / "configs" / "lasso_delta.json")
REPEATED = str(ROOT / "configs" / "lasso_repeated.json")
TRIPLE = str(ROOT / "configs" / "lasso_triple.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_grid():
    g = parse_grid("0:10:0.01")
    assert len(g) == 1001 and g[0] == 0.0 and abs(g[-1] - 10.0) < 1e-12
    with pytest.raises(ValueError):
        parse_grid("0:10")
    with pytest.raises(ValueError):
        parse_grid("5:1:0.1")
    with pytest.raises(ValueError, match="finite"):
        parse_grid("0:1:inf")


def test_parse_grid_refuses_more_than_max_points(monkeypatch):
    # The bound is exact: GRID_MAX_POINTS points pass, one more is refused.
    monkeypatch.setattr(cli, "GRID_MAX_POINTS", 1000)
    assert len(parse_grid("1:1000:1")) == len(parse_grid("0:0.999:0.001")) == 1000
    with pytest.raises(ValueError, match="more than 1000 points"):
        parse_grid("0:1000:1")
    with pytest.raises(ValueError, match="more than 1000 points"):
        parse_grid("0:1:0.001")


def test_charfn_csv_row_count(capsys):
    code, out, _ = run(capsys, "charfn", "--config", FREE, "--problem", "L", "--rho", "0:10:0.01")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rho,delta"
    assert len(lines) == 1002


def test_charfn_deterministic_output(capsys, tmp_path):
    args = ("charfn", "--config", DELTA, "--problem", "L", "--rho", "0:5:0.005")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_charfn_lambda_grid_json(capsys):
    code, out, _ = run(
        capsys, "charfn", "--config", FREE, "--problem", "Lj", "--j", "1",
        "--lambda=-2:2:0.5", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert len(blob["lambda"]) == 9 and len(blob["delta"]) == 9


def test_missing_config_exits_2(capsys):
    code, _, err = run(capsys, "charfn", "--config", "/nonexistent.json", "--problem", "L", "--rho", "0:1:0.5")
    assert code == 2
    assert "error" in err


def test_directory_as_config_exits_2(capsys):
    code, _, err = run(capsys, "charfn", "--config", str(ROOT / "configs"), "--rho", "0:1:0.5")
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("edges", [5, [5], "edges", [{"id": 0}, None]])
def test_edges_not_a_list_of_objects_exits_2(capsys, tmp_path, edges):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"edges": edges}))
    code, _, err = run(capsys, "charfn", "--config", str(bad), "--rho", "0:1:0.5")
    assert code == 2
    assert "'edges'" in err


def test_bad_pendant_index_exits_2(capsys):
    code, _, err = run(capsys, "charfn", "--config", FREE, "--problem", "Lj", "--j", "3", "--rho", "0:1:0.5")
    assert code == 2
    assert "pendant index" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--n-max", "-3"), "--n-max"),
        (("reconstruct", "--spectra", "catalog.csv", "--n-max", "-2"), "--n-max"),
        (("eigs", "--rho-max", "inf"), "--rho-max"),
        (("eigs", "--rho-max", "nan"), "--rho-max"),
        (("verify", "--rho-max", "inf"), "--rho-max"),
        (("verify", "--rho-max", "-5"), "--rho-max"),
        (("charfn", "--rho=0:inf:0.1"), "--rho"),
        (("charfn", "--rho=0:1:inf"), "--rho"),
        (("charfn", "--rho=-1e308:1e308:1"), "--rho"),
        (("charfn", "--rho=0:1e12:1"), "--rho"),
        (("charfn", "--lambda=-inf:1:0.1"), "--lambda"),
        (("charfn", "--lambda=nan:1:0.1"), "--lambda"),
        (("reconstruct", "--spectra", "catalog.csv", "--lambda=0:1:nan"), "--lambda"),
        (("reconstruct", "--spectra", "catalog.csv", "--lambda=0:inf:1"), "--lambda"),
    ],
    ids=[
        "verify-negative-n-max",
        "reconstruct-negative-n-max",
        "eigs-inf",
        "eigs-nan",
        "verify-inf",
        "verify-negative-rho-max",
        "charfn-rho-inf-stop",
        "charfn-rho-inf-step",
        "charfn-rho-overflowing-count",
        "charfn-rho-too-many-points",
        "charfn-lambda-inf-start",
        "charfn-lambda-nan-start",
        "reconstruct-lambda-nan-step",
        "reconstruct-lambda-inf-stop",
    ],
)
def test_bad_numeric_flag_exits_2(capsys, argv, flag):
    # Refused while parsing, with the flag named, before any config is read.
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", FREE, *argv[1:]])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and f"argument {flag}" in out.err


@pytest.mark.parametrize("n_max", [0, 3])
def test_verify_honours_n_max(capsys, monkeypatch, n_max):
    calls = []
    monkeypatch.setattr(checks, "verify", lambda graph, rho_max, n: calls.append((rho_max, n)) or [])
    code, _, _ = run(capsys, "verify", "--config", FREE, "--rho-max", "20", "--n-max", str(n_max))
    assert code == 0 and calls == [(20.0, n_max)]


def test_eigs_outputs(capsys, tmp_path):
    base = str(tmp_path / "eigs")
    code, out, _ = run(capsys, "eigs", "--config", FREE, "--rho-max", "6", "--out", base)
    assert code == 0
    frame = json.loads(Path(base + ".frame.json").read_text())
    assert frame["tau"] == 2.0 and frame["mu0"] == 1
    assert [round(a["alpha"], 4) for a in frame["alphas"]] == [0.0, 0.5, 0.6667]
    rows = Path(base + ".csv").read_text().strip().splitlines()
    assert rows[0] == "n,k,lambda,rho,rho0,eps,multiplicity"
    assert len(rows) == 1 + 19  # slots with rho0 <= 6


def test_eigs_rho_max_zero_empty_catalog(capsys):
    code, out, _ = run(capsys, "eigs", "--config", FREE, "--rho-max", "0")
    assert code == 0
    assert out.strip() == "n,k,lambda,rho,rho0,eps,multiplicity"


def test_reconstruct_round_trip(capsys, tmp_path):
    base = str(tmp_path / "cat")
    run(capsys, "eigs", "--config", DELTA, "--rho-max", "63", "--out", base)
    rec = str(tmp_path / "rec")
    code, out, _ = run(
        capsys, "reconstruct", "--config", DELTA, "--spectra", base + ".csv",
        "--n-max", "30", "--lambda=-3:3:0.37", "--out", rec,
    )
    assert code == 0
    summary = json.loads(Path(rec + ".summary.json").read_text())
    assert summary["n_max"] == 30
    assert summary["max_error"] < 2e-3
    rows = Path(rec + ".csv").read_text().strip().splitlines()
    assert rows[0] == "lambda,delta_hat,delta_direct,rel_error"


def test_reconstruct_evaluates_direct_once(capsys, tmp_path, monkeypatch):
    base = str(tmp_path / "cat")
    run(capsys, "eigs", "--config", DELTA, "--rho-max", "30", "--out", base)
    calls, charfn_for = [], cli.charfn_for

    def counting_charfn_for(*args):
        calls.append(args)
        return charfn_for(*args)

    monkeypatch.setattr(cli, "charfn_for", counting_charfn_for)
    code, out, err = run(
        capsys, "reconstruct", "--config", DELTA, "--spectra", base + ".csv",
        "--n-max", "10", "--lambda=-1:1:0.25",
    )
    assert code == 0
    assert len(calls) == 1
    assert out.splitlines()[0] == "lambda,delta_hat,delta_direct,rel_error"
    assert json.loads(err)["max_error"] < 1e-2


def test_reconstruct_without_potentials_emits_bare_values(capsys, tmp_path):
    base = str(tmp_path / "cat")
    run(capsys, "eigs", "--config", DELTA, "--rho-max", "10", "--out", base)
    geometry_only = {
        "length_unit": "pi",
        "edges": [
            {"id": 0, "length": "1", "role": "cycle"},
            {"id": 1, "length": "1", "role": "pendant"},
            {"id": 2, "length": "1", "role": "pendant"},
        ],
    }
    cfg = tmp_path / "geom.json"
    cfg.write_text(json.dumps(geometry_only))
    code, out, err = run(
        capsys, "reconstruct", "--config", str(cfg), "--spectra", base + ".csv",
        "--n-max", "4", "--lambda=-1:1:0.25",
    )
    assert code == 0
    assert out.splitlines()[0] == "lambda,delta_hat"
    assert json.loads(err)["max_error"] is None


def test_reconstruct_insufficient_catalog_exits_4(capsys, tmp_path):
    base = str(tmp_path / "cat")
    run(capsys, "eigs", "--config", DELTA, "--rho-max", "6", "--out", base)
    code, _, err = run(
        capsys, "reconstruct", "--config", DELTA, "--spectra", base + ".csv", "--n-max", "50",
    )
    assert code == 4
    assert "does not cover" in err


def test_reconstruct_malformed_csv_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense,header\n1,2\n")
    code, _, _ = run(capsys, "reconstruct", "--config", DELTA, "--spectra", str(bad), "--n-max", "5")
    assert code == 2


def test_eigs_half_period_zero_warns_but_succeeds(capsys, tmp_path):
    cfg = tmp_path / "half.json"
    cfg.write_text(
        json.dumps(
            {
                "length_unit": "pi",
                "edges": [
                    {"id": 0, "length": "2", "role": "cycle",
                     "sigma": {"breakpoints": ["0", "2"], "values": [0.0]}},
                    {"id": 1, "length": "1", "role": "pendant",
                     "sigma": {"breakpoints": ["0", "1"], "values": [0.0]}},
                ],
            }
        )
    )
    with pytest.warns(Warning):
        code, out, _ = run(capsys, "eigs", "--config", str(cfg), "--rho-max", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 13


def test_verify_passes_on_free_fixture(capsys):
    code, out, _ = run(capsys, "verify", "--config", FREE, "--rho-max", "20")
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert {"wronskian", "catalog_bijection", "oracle_agreement", "reconstruction_round_trip"} <= names
    for c in report["checks"]:
        assert {"value", "bound", "elapsed_s"} <= c.keys() and c["elapsed_s"] >= 0.0
    # catalog_bijection holds the largest |eps| at lambda >= 0 to half the grid gap.
    bijection = next(c for c in report["checks"] if c["name"] == "catalog_bijection")
    graph, _ = graph_from_json(FREE)
    cat = compute_catalog(graph, Problem.neumann(), 20.0)
    worst = max(abs(e.eps) for e in cat.entries if e.lam >= 0.0)
    assert bijection["value"] == worst / (cat.frame.delta() / 2.0) < 1.0
    assert bijection["bound"] == 1.0
    n = len(cat.frame.slots(20.0))
    assert bijection["detail"] == {"entries": n, "grid_points": n, "windows_ok": True}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("config", [FREE, DELTA, TRIPLE], ids=["free", "delta", "triple"])
def test_verify_at_n_max_1_has_no_invalid_value(capsys, config):
    # At n_max 1 the round-trip grid [-5, 9] holds lambda = 9 = u0^2 (u0 = 3),
    # where the tail integral is infinite: a family with a zero mean shift
    # multiplied it by 0. Its tail factor is exactly 1.
    code, out, _ = run(capsys, "verify", "--config", config, "--n-max", "1")
    values = [c["value"] for c in json.loads(out)["checks"] if c["value"] is not None]
    assert np.all(np.isfinite(values))
    # |n| <= 1 is too short a truncation for lasso_delta's round trip (0.043 against 1e-3).
    assert code == (1 if config == DELTA else 0)


@pytest.mark.parametrize(
    "extra",
    [("--problem", "Lj"), ("--j", "1"), ("--problem", "Lj", "--j", "1")],
    ids=["problem", "j", "both"],
)
def test_verify_rejects_a_pinned_problem(capsys, extra):
    # verify checks L only: a pinned problem is refused, not silently checked as L.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", DELTA, *extra])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and extra[0] in out.err


VERIFY_CHECKS = [
    "wronskian", "free_closed_form", "periodicity", "catalog_bijection", "oracle_agreement",
    "reconstruction_round_trip", "normalization_limit", "epsilon_diagnostics",
]


def test_verify_reports_every_check_when_the_catalog_fails(capsys, tmp_path, monkeypatch):
    # p = 3, lengths pi, delta -4 at each pendant midpoint: a simple and a double
    # eigenvalue lie within one scan cell, so the catalog fails at rho_max 20.
    # Should the scan learn to resolve them, use a config whose catalog still fails.
    graph = lasso_graph(
        1, [1, 1, 1], potentials=[None] + [delta_potential(1, "1/2", -4.0)] * 3, length_unit="pi"
    )
    cfg = tmp_path / "attractive.json"
    cfg.write_text(json.dumps(graph_to_json(graph)))
    solves = []
    monkeypatch.setattr(checks, "richardson_eigs", lambda *args: solves.append(args))
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--rho-max", "20")
    assert code == 1
    report = json.loads(out)
    assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == VERIFY_CHECKS[3:]
    assert all("error" in c["detail"] for c in report["checks"][3:])
    assert solves == []  # no oracle solve without a catalog


def test_verify_wronskian_matches_scalar_loop(capsys):
    code, out, _ = run(capsys, "verify", "--config", DELTA, "--rho-max", "20")
    assert code == 0
    check = next(c for c in json.loads(out)["checks"] if c["name"] == "wronskian")
    graph, _ = graph_from_json(DELTA)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        lam = float(rng.uniform(-4.0, 400.0))
        for segs in graph.segments:
            f = fundamental_solutions(segs, lam)
            worst = max(worst, abs(f.wronskian() - 1.0))
    assert check["detail"]["max_deviation"] == worst
    assert check["passed"] and worst <= 1e-10


def _set(path, value):
    """A change to the lasso_delta config: value at the key path."""

    def change(blob):
        *head, last = path
        for key in head:
            blob = blob[key]
        blob[last] = value

    return change


CONFIG_REFUSALS = {
    "unknown-role": (_set(("edges", 1, "role"), "loop"), "unknown edge role 'loop'"),
    "edge-0-not-cycle": (_set(("edges", 0, "role"), "pendant"), "edge 0 must be the cycle edge"),
    "second-cycle": (_set(("edges", 2, "role"), "cycle"), "exactly one cycle edge is allowed"),
    "unknown-unit": (_set(("length_unit",), "2pi"), "unknown length unit '2pi'"),
    "ids-out-of-order": (_set(("edges", 2, "id"), 5), "edge ids must be 0..p in order, got 5 at 2"),
    "first-breakpoint": (
        _set(("edges", 1, "sigma", "breakpoints"), ["1/4", "1/2", "1"]),
        "first breakpoint must be 0, got 1/4",
    ),
    "nan-sigma": (_set(("edges", 1, "sigma", "values"), [0.0, float("nan")]), "non-finite sigma values"),
    "count-mismatch": (
        _set(("edges", 1, "sigma", "values"), [0.0]),
        "need M+1 breakpoints and M values, got 3 and 1",
    ),
    "true-length": (_set(("edges", 2, "length"), True), "not an exact rational: True"),
}


@pytest.mark.parametrize("change, message", CONFIG_REFUSALS.values(), ids=CONFIG_REFUSALS.keys())
def test_eigs_refuses_a_bad_config(capsys, tmp_path, change, message):
    blob = json.loads(Path(DELTA).read_text())
    change(blob)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))  # NaN is written as the literal NaN, which json reads back
    code, out, err = run(capsys, "eigs", "--config", str(bad), "--rho-max", "5")
    assert code == 2
    assert out == "" and err.startswith("config error: ") and message in err


def test_charfn_overflowing_grid_exits_3(capsys):
    # kappa = 1000 on a pi-length lasso: cosh and sinh overflow, which is
    # reported as a numeric failure, with no RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "charfn", "--config", DELTA, "--lambda=-1000000:-999999:1")
    assert code == 3
    assert out == "" and "characteristic function overflowed on the grid" in err


def test_charfn_overflowing_grid_exits_3_with_runtime_warnings_as_errors():
    # The overflow and the nan it leads to are the numeric failure exit 3
    # reports, not a traceback.
    proc = _python(
        "-W", "error::RuntimeWarning", "-m", "lasso_spectra.cli",
        "charfn", "--config", DELTA, "--lambda=-1000000:-999999:1",
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "numeric error: characteristic function overflowed on the grid\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--problem", "Lj", "--rho", "0:1:0.5"), "--problem Lj requires --j"),
        ((), "exactly one of --rho or --lambda is required"),
    ],
    ids=["lj-without-j", "no-grid"],
)
def test_charfn_incomplete_request_exits_2(capsys, extra, message):
    code, out, err = run(capsys, "charfn", "--config", DELTA, *extra)
    assert code == 2
    assert out == "" and message in err


def test_verify_corrupted_fixture_exits_2(capsys, tmp_path):
    blob = json.loads(Path(DELTA).read_text())
    blob["edges"][1]["length"] = "0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    code, _, _ = run(capsys, "verify", "--config", str(bad))
    assert code == 2


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def _cli_in_fresh_process(tmp_path, *argv, packages=("scipy",)):
    """Run the CLI on argv in a new interpreter: its exit code and the
    modules of packages (scipy by default) loaded by the end of the run."""
    report = tmp_path / "modules.json"
    proc = _python(
        "-c",
        "import json, sys\n"
        "from lasso_spectra.cli import main\n"
        f"code = main({list(argv)!r})\n"
        f"loaded = [m for m in sys.modules if m.split('.')[0] in {list(packages)!r}]\n"
        f"open({str(report)!r}, 'w').write(json.dumps([code, loaded]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


def test_charfn_loads_no_scipy(tmp_path):
    # No command loads scipy (for verify, see test_oracle_and_verify_run_on_numpy_alone).
    out = str(tmp_path / "charfn.csv")
    code, loaded = _cli_in_fresh_process(
        tmp_path, "charfn", "--config", DELTA, "--rho=0:5:0.01", "--out", out
    )
    assert (code, loaded) == (0, [])
    assert len(Path(out).read_text().splitlines()) == 1 + 501

    spectra = str(tmp_path / "spectra")
    code, loaded = _cli_in_fresh_process(
        tmp_path, "eigs", "--config", DELTA, "--rho-max", "20", "--out", spectra
    )
    assert (code, loaded) == (0, [])
    assert Path(spectra + ".csv").read_text().splitlines()[0] == "n,k,lambda,rho,rho0,eps,multiplicity"

    rec = str(tmp_path / "rec")
    code, loaded = _cli_in_fresh_process(
        tmp_path, "reconstruct", "--config", DELTA, "--spectra", spectra + ".csv",
        "--n-max", "8", "--out", rec,
    )
    assert (code, loaded) == (0, [])
    assert len(Path(rec + ".csv").read_text().splitlines()) > 100


def test_charfn_loads_only_what_it_evaluates(tmp_path):
    # A grid of 30,001 rows: formatted in parts where the machine has more
    # than one CPU, with no process pool.
    code, loaded = _cli_in_fresh_process(
        tmp_path, "charfn", "--config", DELTA, "--rho=0:30:0.001", "--out", str(tmp_path / "c.csv"),
        packages=("lasso_spectra", "multiprocessing", "concurrent"),
    )
    assert code == 0 and "lasso_spectra.charfn" in loaded
    for unused in ("oracle", "spectrum", "trigpoly", "reconstruct", "checks", "_rootscan"):
        assert f"lasso_spectra.{unused}" not in loaded
    assert not [m for m in loaded if not m.startswith("lasso_spectra")], loaded


# Every name the package exported when its __init__ imported every module.
PUBLIC_NAMES = (
    "charfn_for weyl EdgeSpec GraphSpec PotentialSpec Problem ValidatedGraph delta_potential "
    "graph_from_json graph_to_json lasso_graph parse_rational validate zero_potential "
    "DiscreteOperator discretize richardson_eigs FundamentalSolution fundamental_solutions "
    "ReconstructionResult compare hadamard_reconstruct CatalogEntry SpectrumCatalog "
    "catalog_spectrum catalog_to_csv compute_catalog entries_from_csv epsilon_diagnostics "
    "find_eigenvalues AsymptoticFrame TrigPoly base_zeros build_frame "
    "expand_free_charfn frame_to_json smallest_period __version__"
).split()


def test_package_names_load_on_first_use():
    proc = _python(
        "-c",
        "import lasso_spectra\n"
        f"from lasso_spectra import {', '.join(PUBLIC_NAMES)}\n"
        "from lasso_spectra import graph, oracle, reconstruct, spectrum\n"
        "assert lasso_spectra.compute_catalog is spectrum.compute_catalog\n"
        "assert lasso_spectra.Problem is graph.Problem\n"
        "assert set(lasso_spectra.__all__) < set(dir(lasso_spectra))\n"
        "try:\n"
        "    from lasso_spectra import no_such_name\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('no_such_name imported')\n",
    )
    assert proc.returncode == 0, proc.stderr


def test_eigs_window_violation_warns(capsys, tmp_path):
    blob = json.loads(Path(DELTA).read_text())
    blob["edges"][1]["sigma"]["values"] = [0.0, 2.0]
    cfg = tmp_path / "strong.json"
    cfg.write_text(json.dumps(blob))
    with pytest.warns(WindowViolationWarning, match="low-spectrum window exceeded") as record:
        code, out, err = run(capsys, "eigs", "--config", str(cfg), "--rho-max", "20")
    assert code == 0
    assert len([w for w in record if w.category is WindowViolationWarning]) == 1
    assert "warning: entry" not in err


def test_eigs_on_repeated_lengths_exits_0(capsys):
    # Cycle 1/2, pendants 1, 2, 3 (unit 1), L2: a frame with two double base
    # zeros among its 26 per period, which derivative tests miscount.
    code, _, err = run(
        capsys, "eigs", "--config", REPEATED, "--problem", "Lj", "--j", "2", "--rho-max", "30"
    )
    assert code == 0
    doubles = [a["alpha"] for a in json.loads(err)["alphas"] if a["mu"] == 2]
    assert np.allclose(doubles, [np.pi / 2, 3 * np.pi / 2], rtol=0.0, atol=1e-12)


def test_oracle_and_verify_run_on_numpy_alone(tmp_path):
    # scipy is a test dependency only: with it unimportable, the FE oracle
    # and `verify` run and pass.
    report = tmp_path / "verify.json"
    proc = _python(
        "-c",
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from lasso_spectra.cli import main\n"
        "from lasso_spectra.graph import Problem, graph_from_json\n"
        "from lasso_spectra.oracle import richardson_eigs\n"
        f"graph = graph_from_json({DELTA!r})[0]\n"
        "assert len(richardson_eigs(graph, Problem.neumann(), 6, 60)) == 6\n"
        f"sys.exit(main(['verify', '--config', {DELTA!r}, '--out', {str(report)!r}]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report.read_text())["all_passed"]


# Values whose repr the CSV must keep: non-finite, signed zero, subnormal,
# the largest float, and each layout switch of the array formatter (see
# lasso_spectra._floattext): the normal/subnormal boundary, 2^53 and the
# integers past it, 1e22 (the last exact power of ten) and its neighbours,
# 17-digit values, the switches of repr's exponent notation, and both sides
# of 1e-280 and 1e280, outside which repr formats the value itself.
SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1e-5,
    1.7976931348623157e308, 0.1, -2.5e-7, 123456789.123,
    2.2250738585072014e-308, 2.225073858507201e-308, 2.0**53, 2.0**53 + 2,
    1e22, 1e23, 9.999999999999999e22, 0.30000000000000004, 9999999999999998.0,
    1e-4, 1e15, 1.0000000000000001e-280, 1e-280, 9.999999999999999e279, 1e280,
    -1.0000000000000002e280,
]


def _row_loop_csv(header, *columns):
    """The reference CSV: the header, then one f-string row of reprs per index."""
    lines = [header] + [",".join(f"{float(x)!r}" for x in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


def _columns(rows, width):
    """width columns of rows values: SPECIAL_FLOATS in turn, half of them
    replaced by random floats of any magnitude."""
    rng = np.random.default_rng(rows)
    cells = np.resize(np.array(SPECIAL_FLOATS), rows * width)
    drawn = rng.standard_normal(cells.size) * 10.0 ** rng.integers(-300, 300, cells.size)
    return np.where(rng.random(cells.size) < 0.5, cells, drawn).reshape(width, rows)


def _count_parts(monkeypatch, cpus):
    """Format in blocks of 40 rows with cpus usable CPUs; the list of parts
    each formatting call ran in, appended as it runs."""
    monkeypatch.setattr(_floattext, "BLOCK_ROWS", 40)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    parts, part = [], _floattext._part

    def counting_part(*args):
        parts.append(threading.current_thread())
        return part(*args)

    monkeypatch.setattr(_floattext, "_part", counting_part)
    return parts


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("rows", ["0", "1", "min-1", "min", "2min+1"])
def test_float_csv_is_the_row_loop_csv(monkeypatch, cpus, rows):
    # In parts or not, the bytes are those of the per-row f-strings; "min"
    # is one block of rows.
    parts = _count_parts(monkeypatch, cpus)
    n = {"0": 0, "1": 1, "min-1": 39, "min": 40, "2min+1": 81}[rows]
    for width, header in ((2, "rho,delta"), (4, "lambda,delta_hat,delta_direct,rel_error")):
        columns = _columns(n, width)
        assert cli.float_csv(header, *columns) == _row_loop_csv(header, *columns)
    per_call = max(1, min(cpus, -(-n // 40)))
    assert len(parts) == 2 * per_call
    assert len(set(parts)) == 1 + 2 * (per_call - 1)  # the caller's thread, and one per other part


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("rows", ["0", "1", "min", "2min-1", "2min", "3min+1"])
def test_float_json_is_json_dumps(monkeypatch, cpus, rows):
    # In parts or not, the bytes are those of one json.dumps of the lists.
    parts = _count_parts(monkeypatch, cpus)
    n = {"0": 0, "1": 1, "min": 40, "2min-1": 79, "2min": 80, "3min+1": 121}[rows]
    columns = _columns(n, 2)
    grid, values = np.where(np.isfinite(columns), columns, 0.5)  # JSON has no nan or inf
    want = (json.dumps({"rho": grid.tolist(), "delta": values.tolist()}) + "\n").encode()
    assert cli.float_json(("rho", "delta"), grid, values) == want
    assert len(parts) == 2 * max(1, min(cpus, -(-n // 40)))  # a call per column


def test_float_csv_raises_what_a_thread_raised(monkeypatch):
    # A part that fails on its own thread fails the call: no block is left out.
    _count_parts(monkeypatch, 3)
    block = _floattext._block

    def failing_off_the_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("no room for a block")
        return block(*args)

    monkeypatch.setattr(_floattext, "_block", failing_off_the_main_thread)
    with pytest.raises(MemoryError, match="no room"):
        cli.float_csv("x,y", *_columns(200, 2))


def test_charfn_json_is_json_dumps(capsys, monkeypatch):
    # charfn --format json in three parts writes the bytes of one json.dumps.
    parts = _count_parts(monkeypatch, 3)
    code, out, err = run(capsys, "charfn", "--config", DELTA, "--rho=0:3:0.01", "--format", "json")
    assert code == 0 and err == "" and len(parts) == 2 * 3
    graph, _ = graph_from_json(DELTA)
    rho = 0.0 + 0.01 * np.arange(301)
    values = charfn_for(graph, Problem.neumann(), rho * rho)
    assert out == json.dumps({"rho": rho.tolist(), "delta": values.tolist()}) + "\n"


def _charfn_and_reconstruct(tmp_path, capsys):
    """charfn (rho and lambda grids) and reconstruct (with and without
    potentials), each to stdout and with --out: {run: its CSV bytes}."""
    spectra = str(tmp_path / "spectra")
    assert main(["eigs", "--config", DELTA, "--rho-max", "20", "--out", spectra]) == 0
    geometry = json.loads(Path(DELTA).read_text())
    for edge in geometry["edges"]:
        del edge["sigma"]
    bare = tmp_path / "geometry.json"
    bare.write_text(json.dumps(geometry))
    runs = {
        "charfn-rho": ["charfn", "--config", DELTA, "--rho=0:3:0.01"],
        "charfn-lambda": ["charfn", "--config", DELTA, "--problem", "Lj", "--j", "1", "--lambda=-4:9:0.05"],
        "reconstruct": ["reconstruct", "--config", DELTA, "--spectra", spectra + ".csv", "--n-max", "5"],
        "reconstruct-bare": ["reconstruct", "--config", str(bare), "--spectra", spectra + ".csv", "--n-max", "5"],
    }
    capsys.readouterr()
    out = {}
    for name, argv in runs.items():
        assert main(argv) == 0
        out[name] = capsys.readouterr().out.encode()
        path = str(tmp_path / name)
        assert main([*argv, "--out", path]) == 0
        capsys.readouterr()
        out[name + "-out"] = Path(path + ".csv" if argv[0] == "reconstruct" else path).read_bytes()
    return out


def test_cli_csv_is_the_row_loop_csv(tmp_path, capsys, monkeypatch):
    # Every CSV the CLI formats in parts, to stdout and to a file, has the
    # bytes of the reference rows, computed here from the library.
    from lasso_spectra.reconstruct import compare, hadamard_reconstruct
    from lasso_spectra.spectrum import SpectrumCatalog, build_frame, entries_from_csv

    parts = _count_parts(monkeypatch, 3)
    out = _charfn_and_reconstruct(tmp_path, capsys)
    assert len(parts) == 4 * 2 * 3  # 4 runs of 200-301 rows, 2 outputs each, 3 parts

    graph, _ = graph_from_json(DELTA)
    rho = 0.0 + 0.01 * np.arange(301)
    lam = -4.0 + 0.05 * np.arange(261)
    want = {
        "charfn-rho": _row_loop_csv("rho,delta", rho, charfn_for(graph, Problem.neumann(), rho * rho)),
        "charfn-lambda": _row_loop_csv("lambda,delta", lam, charfn_for(graph, Problem.dirichlet(1), lam)),
    }
    entries = entries_from_csv((tmp_path / "spectra.csv").read_text())
    frame = build_frame(graph, Problem.neumann())
    catalog = SpectrumCatalog(entries, frame, max(e.rho0 for e in entries), "L")
    result = hadamard_reconstruct(catalog, np.linspace(-5.0, 9.0, 200), 5)
    report = compare(result, lambda x: charfn_for(graph, Problem.neumann(), x))
    want["reconstruct"] = _row_loop_csv(
        "lambda,delta_hat,delta_direct,rel_error", report.grid, report.recovered, report.direct, report.rel_error
    )
    want["reconstruct-bare"] = _row_loop_csv("lambda,delta_hat", result.grid, result.values)
    for name, data in want.items():
        assert out[name] == out[name + "-out"] == data, name


def test_forked_csv_writes_nothing_to_stderr():
    # With every warning an error, a run formatted in parts on threads writes
    # its CSV and nothing to stderr. Two CPUs and blocks of 100 rows are
    # forced, so it runs in two parts whatever the machine.
    proc = _python(
        "-W", "error", "-c",
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from lasso_spectra import _floattext, cli\n"
        "_floattext.BLOCK_ROWS = 100\n"
        f"sys.exit(cli.main(['charfn', '--config', {DELTA!r}, '--rho=0:5:0.01']))\n",
    )
    assert proc.returncode == 0 and proc.stderr == ""
    graph, _ = graph_from_json(DELTA)
    rho = 0.01 * np.arange(501)
    assert proc.stdout.encode() == _row_loop_csv("rho,delta", rho, charfn_for(graph, Problem.neumann(), rho * rho))
