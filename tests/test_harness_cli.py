"""Verification harness and command-line interface."""
import json
import math
import os
import time

import pytest

from tipcrit.cli import main
from tipcrit.harness import (ramp_family, run_sweep, run_verification,
                             sweep_rows_to_csv)


# --------------------------------------------------------------------------
# harness
# --------------------------------------------------------------------------

def test_small_verification_campaign_passes():
    report = run_verification("x^2-1", -1.0, 3.0, n_samples=25, seed=11,
                              workers=1)
    assert report.n_samples == 25
    assert report.n_tracks == 25
    assert report.n_tips == 0
    assert report.violating_seeds == []
    assert report.tightness_upper_tips
    assert report.tightness_lower_tracks
    assert report.passed
    assert abs(report.threshold_estimate - report.m_c) <= 1e-3 * report.m_c


def test_verification_identical_serial_and_parallel():
    serial = run_verification("x^2-1", -1.0, 3.0, n_samples=16, seed=5,
                              workers=1)
    parallel = run_verification("x^2-1", -1.0, 3.0, n_samples=16, seed=5,
                                workers=2)
    assert serial.n_tracks == parallel.n_tracks
    assert serial.n_tips == parallel.n_tips
    assert serial.violating_seeds == parallel.violating_seeds
    assert serial.m_c == parallel.m_c


def test_verification_rejects_bad_margin():
    with pytest.raises(ValueError):
        run_verification("x^2-1", -1.0, 3.0, n_samples=4, margin=1.5)


def test_ramp_family_signs():
    up = ramp_family(1, 3.0)(2.0)
    assert up.final_value() == 3.0
    down = ramp_family(-1, 3.0)(2.0)
    assert down.final_value() == -3.0
    assert down.sup_speed() == 2.0


def test_sweep_rows_monotone_and_csv():
    rows = run_sweep("x^2-1", -1.0, 2.2, 30.0, 6)
    rates = [r.m_c for r in rows]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    text = sweep_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "L,m_c,side,j_residual"
    assert len(lines) == 7


def test_single_step_sweep():
    rows = run_sweep("x^2-1", -1.0, 3.0, 50.0, 1)
    assert len(rows) == 1
    assert rows[0].arclength == 3.0


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def test_cli_analyze(capsys):
    code = main(["analyze", "--field", "x^2-1", "--attractor", "-1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["beta"] == 1
    assert payload["R"] == 2
    assert payload["mu"] == 1
    assert payload["alpha"] == "-inf"


def test_cli_analyze_cubic(capsys):
    code = main(["analyze", "--field", "x*(x-1)*(x+2)", "--attractor", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == pytest.approx(-2.0, abs=1e-9)
    assert payload["beta"] == pytest.approx(1.0, abs=1e-9)
    assert payload["mu"] == pytest.approx(0.6311303094408989, abs=1e-9)


def test_cli_analyze_degenerate_field_exits_2(capsys):
    code = main(["analyze", "--field", "x^2", "--attractor", "0"])
    assert code == 2
    assert "non-hyperbolic" in capsys.readouterr().err


def test_cli_parse_error_exits_2(capsys):
    code = main(["analyze", "--field", "x^^2", "--attractor", "0"])
    assert code == 2


def test_cli_critical_rate(capsys):
    code = main(["critical-rate", "--field", "x^2-1", "--attractor", "-1",
                 "--arclength", str(math.pi)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_c"] == pytest.approx(2.0, abs=1e-8)
    assert payload["side"] == 1


def test_cli_infeasible_budget_exits_3(capsys):
    code = main(["critical-rate", "--field", "x^2-1", "--attractor", "-1",
                 "--arclength", "1"])
    assert code == 3
    assert "arclength" in capsys.readouterr().err


def test_cli_classify_tracks(capsys):
    code = main(["classify", "--field", "x^2-1", "--attractor", "-1",
                 "--forcing", "pl:3:2.0"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["variant"] == "tracks"


def test_cli_classify_tips(capsys):
    code = main(["classify", "--field", "x^2-1", "--attractor", "-1",
                 "--forcing", "pl:3:2.3"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["variant"] == "tips"


def test_cli_classify_tanh_supercritical(capsys):
    code = main(["classify", "--field", "x^2-1", "--attractor", "-1",
                 "--forcing", "tanh:3:1.5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["variant"] == "tips"


def test_cli_bad_forcing_spec_exits_1(capsys):
    code = main(["classify", "--field", "x^2-1", "--attractor", "-1",
                 "--forcing", "wat:1"])
    assert code == 1


def test_cli_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--field", "x^2-1", "--attractor", "-1",
                 "--l-min", "2.2", "--l-max", "20", "--steps", "4",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "L,m_c,side,j_residual"
    assert len(lines) == 5


@pytest.mark.parametrize("args", [
    ["sweep", "--l-min", "10", "--l-max", "3", "--steps", "3"],
    ["sweep", "--l-min", "3", "--l-max", "3", "--steps", "3"],
    ["verify", "--arclength", "3", "--samples", "-5", "--workers", "1"],
], ids=["descending", "repeated", "negative-samples"])
def test_cli_rejects_misleading_inputs(capsys, args):
    code = main(args[:1] + ["--field", "x^2-1", "--attractor", "-1"]
                + args[1:])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_cli_verify_small(capsys):
    code = main(["verify", "--field", "x^2-1", "--attractor", "-1",
                 "--arclength", "3", "--samples", "12", "--seed", "3",
                 "--workers", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_tips"] == 0
    assert payload["passed"] is True


def test_cli_outputs_are_byte_identical(capsys):
    args = ["classify", "--field", "x^2-1", "--attractor", "-1",
            "--forcing", "random:3:1.5:6:42"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(["analyze", "--field", "x*(x-1)*(x+2)", "--attractor", "0"]) == 0
    third = capsys.readouterr().out
    assert main(["analyze", "--field", "x*(x-1)*(x+2)", "--attractor", "0"]) == 0
    assert capsys.readouterr().out == third


def test_cli_verify_failure_exits_4(capsys, monkeypatch):
    import tipcrit.cli as cli_mod

    def failing_verification(*args, **kwargs):
        report = run_verification("x^2-1", -1.0, 3.0, n_samples=2, seed=1,
                                  workers=1)
        report.n_tips = 1
        report.violating_seeds = [0]
        return report

    monkeypatch.setattr(cli_mod, "run_verification", failing_verification)
    code = main(["verify", "--field", "x^2-1", "--attractor", "-1",
                 "--arclength", "3", "--samples", "2", "--workers", "1"])
    assert code == 4
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] is False
    assert "verification failure" in captured.err


def test_threads_env_variable_caps_workers(monkeypatch):
    from tipcrit.harness import resolve_workers
    monkeypatch.setenv("TIPCRIT_THREADS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2
    monkeypatch.delenv("TIPCRIT_THREADS")
    assert resolve_workers(None) == (os.cpu_count() or 1)


def test_cli_sign_change_through_pole_exits_2(capsys):
    code = main(["analyze", "--field", "(x^2-1)/(x-3.01)", "--attractor", "1"])
    assert code == 2
    assert "pole" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_cli_non_finite_budget_exits_1(capsys, budget):
    code = main(["critical-rate", "--field", "x^2-1", "--attractor", "-1",
                 "--arclength", budget])
    assert code == 1
    assert "arclength must be finite" in capsys.readouterr().err


def test_sweep_rejects_infinite_budget_before_the_grid():
    # np.geomspace would warn first, which the suite turns into an error
    with pytest.raises(ValueError, match="finite"):
        run_sweep("x^2-1", -1.0, 3.0, math.inf, 4)


def test_cli_pole_on_equilibrium_grid_exits_2(capsys):
    # 50 is a point of find_equilibria's grid around the attractor
    code = main(["analyze", "--field", "(x^2-1)/(50-x)", "--attractor", "-1"])
    assert code == 2
    assert "undefined at x = 50.0" in capsys.readouterr().err


def test_cli_critical_rate_quadrature_fault_exits_1_quickly(capsys):
    # the drive at this budget is within 1.5e-10 of mu, where the roundoff
    # of 1 / (f + M) swamps the passage time
    start = time.perf_counter()
    code = main(["critical-rate", "--field", "x*(x-1)*(x+2)", "--attractor",
                 "0", "--arclength", "1e5"])
    assert time.perf_counter() - start < 2.0
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "roundoff" in captured.err
