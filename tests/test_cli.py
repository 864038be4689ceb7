import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lasso_spectra import checks, cli
from lasso_spectra.cli import main, parse_grid
from lasso_spectra.errors import WindowViolationWarning
from lasso_spectra.graph import Problem, delta_potential, graph_from_json, graph_to_json, lasso_graph
from lasso_spectra.propagate import fundamental_solutions
from lasso_spectra.spectrum import compute_catalog

ROOT = Path(__file__).resolve().parents[1]
FREE = str(ROOT / "configs" / "lasso_free.json")
DELTA = str(ROOT / "configs" / "lasso_delta.json")
REPEATED = str(ROOT / "configs" / "lasso_repeated.json")


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
    ],
    ids=["verify-negative-n-max", "reconstruct-negative-n-max", "eigs-inf", "eigs-nan", "verify-inf"],
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


def test_verify_corrupted_fixture_exits_2(capsys, tmp_path):
    blob = json.loads(Path(DELTA).read_text())
    blob["edges"][1]["length"] = "0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    code, _, _ = run(capsys, "verify", "--config", str(bad))
    assert code == 2


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def _cli_in_fresh_process(tmp_path, *argv):
    """Run the CLI on argv in a new interpreter: its exit code and the scipy
    modules loaded by the end of the run."""
    report = tmp_path / "modules.json"
    proc = _python(
        "import json, sys\n"
        "from lasso_spectra.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        f"open({str(report)!r}, 'w').write(json.dumps([code, loaded]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


def test_charfn_loads_no_scipy(tmp_path):
    # Only verify loads scipy, for the finite-element oracle.
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
