"""Verification harness and command-line interface."""
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tipcrit.harness as harness
from tipcrit.cli import main
from tipcrit.forcing import sample_random_forcing
from tipcrit.harness import (prototype_failures, prototype_table,
                             ramp_family, random_forcing_for_sample,
                             run_sweep, run_verification)


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


def test_ramp_at_the_critical_rate_is_the_least_that_tips():
    # criterion 4's cells: the bracketed ramp threshold is m_c to within
    # the bracket width, so no slower one-segment ramp tips
    for field_text, attractor, radius in (("x^2-1", -1.0, 2.0),
                                          ("x*(x-1)*(x+2)", 0.0, 1.0)):
        for L in np.geomspace(1.1 * radius, 5.0 * radius, 5):
            report = run_verification(field_text, attractor, float(L),
                                      n_samples=1)
            assert (abs(report.threshold_estimate - report.m_c)
                    <= 1e-6 * report.m_c)


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


# knots of random_forcing_for_sample(2.0, 1.5, root_seed, index) as
# float.hex pairs; the campaign's variants and violating seeds are keyed to
# these draws, so any change to them must show here
_GOLDEN_DRAWS = {
    (11, 0): [("0x0.0p+0", "0x0.0p+0"),
              ("0x1.340473da9c409p+0", "-0x1.7d081d6120ac6p-1"),
              ("0x1.05798bb44885dp+1", "0x1.05efc53dbea72p-1")],
    (11, 7): [("0x0.0p+0", "0x0.0p+0"),
              ("0x1.38828e1a290bep-3", "-0x1.9a8fab64c7414p-3"),
              ("0x1.322edd9526934p-2", "-0x1.a5247ad13f8eap-2"),
              ("0x1.811796a6add00p-2", "-0x1.323f4ad85f85cp-2"),
              ("0x1.27974b3867d42p+0", "0x1.e7bdf59b18d60p-6"),
              ("0x1.7ef80fb3c481ap+0", "0x1.ec5cae79939e7p-3"),
              ("0x1.be4e308e377d1p+0", "0x1.0dd5b72fa1b37p-1"),
              ("0x1.22fcbe6c7479ap+1", "0x1.979b4d57ad990p-1"),
              ("0x1.62c89a704a593p+1", "0x1.ec3cb8588526ap-2"),
              ("0x1.6ab578f6b0a39p+1", "0x1.a8b62b0135812p-2")],
    (2023, 199): [("0x0.0p+0", "0x0.0p+0"),
                  ("0x1.21385a903249cp-1", "0x1.13b430f519ca4p-2"),
                  ("0x1.861b7930e88f5p-1", "0x1.ba42852d8c7f8p-2"),
                  ("0x1.b19dcf25ba1dep-1", "0x1.7b8f1036b8fdfp-2"),
                  ("0x1.def85db40667ap-1", "0x1.18912ce2f4ac8p-2"),
                  ("0x1.236e40d6ea28ap+0", "0x1.083b7599ea4d9p-1"),
                  ("0x1.41473230b82ecp+0", "0x1.cee611b5d10bfp-2"),
                  ("0x1.b1472b33396d1p+0", "0x1.6b5666aaf5b81p-1"),
                  ("0x1.d908ef49f65c4p+0", "0x1.0dbfd67b7fc80p-1"),
                  ("0x1.14df9ba536d0cp+1", "0x1.76a17945ad858p-1"),
                  ("0x1.74059860938b4p+1", "0x1.f31a8a88b3bd0p-1"),
                  ("0x1.a23de0faade21p+1", "0x1.a4492fc90d4dbp-1"),
                  ("0x1.b3150aac378d3p+1", "0x1.84a46738eebc4p-1")],
}


@pytest.mark.parametrize("key", sorted(_GOLDEN_DRAWS))
def test_random_forcing_draws_are_frozen(key):
    profile = random_forcing_for_sample(2.0, 1.5, *key)
    assert [(t.hex(), v.hex()) for t, v in profile.knots] == _GOLDEN_DRAWS[key]


# entropies whose SeedSequence -> PCG64 state the vectorised hash must
# reproduce: one- to four-word ints, and (root, index) pairs up to a
# 2**100 root, whose five words take the pool-overflow mixing
_SEED_ROOTS = (0, 2**31 - 1, 2**32, 2**64 + 3, 2**100)
_SEED_ENTROPIES = ([0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1,
                    2**128 - 1]
                   + [(root, index) for root in _SEED_ROOTS
                      for index in (0, 1, 2**32 - 1, 2**32)])


def test_batch_seeding_matches_numpy():
    expected = []
    for entropy in _SEED_ENTROPIES:
        state = np.random.PCG64(np.random.SeedSequence(entropy)).state
        expected.append((state["state"]["state"], state["state"]["inc"]))
    assert harness._pcg64_states(_SEED_ENTROPIES) == expected


@pytest.mark.parametrize("root", _SEED_ROOTS)
def test_batch_draws_match_numpy_seeding(root):
    expected = []
    for i in range(200):
        rng = np.random.default_rng(np.random.SeedSequence((root, i)))
        n_segments = int(rng.integers(1, harness.MAX_RANDOM_SEGMENTS + 1))
        expected.append(sample_random_forcing(
            2.0, 1.5, n_segments, int(rng.integers(0, 2**63 - 1))).knots)
    assert [p.knots for p in harness._random_forcings(2.0, 1.5, root,
                                                      range(200))] == expected


@pytest.mark.parametrize("draw", [
    lambda: random_forcing_for_sample(2.0, 1.5, -1, 0),
    lambda: random_forcing_for_sample(2.0, 1.5, 0, -1),
    lambda: harness._random_forcings(2.0, 1.5, 3, [0, 1, -2]),
    lambda: sample_random_forcing(2.0, 1.5, 3, -5),
    lambda: run_verification("x^2-1", -1.0, 3.0, n_samples=4, seed=-1)])
def test_negative_seeds_are_refused(draw):
    with pytest.raises(ValueError,
                       match="^seed must be a non-negative integer$"):
        draw()


def test_ramp_family_signs():
    up = ramp_family(1, 3.0)(2.0)
    assert up.final_value() == 3.0
    down = ramp_family(-1, 3.0)(2.0)
    assert down.final_value() == -3.0
    assert down.sup_speed() == 2.0


def test_sweep_rows_monotone_and_csv(capsys):
    rows = run_sweep("x^2-1", -1.0, 2.2, 30.0, 6)
    rates = [r.m_c for r in rows]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    assert main(["sweep", "--field", "x^2-1", "--attractor", "-1",
                 "--l-min", "2.2", "--l-max", "30", "--steps", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
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


def test_cli_successive_calls_share_one_parser(capsys):
    assert main(["critical-rate", "--field", "x^2-1", "--attractor", "-1",
                 "--arclength", str(math.pi)]) == 0
    assert json.loads(capsys.readouterr().out)["m_c"] == pytest.approx(
        2.0, abs=1e-8)
    assert main(["analyze", "--field", "x*(x-1)*(x+2)", "--attractor",
                 "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["beta"] == pytest.approx(1.0, abs=1e-9)
    assert "m_c" not in payload and "arclength" not in payload
    with pytest.raises(SystemExit) as exc:
        main(["critical-rate", "--field", "x^2-1", "--attractor", "-1",
              "--arclength", "many"])
    assert exc.value.code == 2


def test_cli_reads_negative_numbers_with_an_exponent(capsys):
    # argparse's own negative-number pattern reads -4.2e-05 as an option
    assert main(["analyze", "--field", "(x+1.2)*(x+4.2e-05)*(x-0.9)",
                 "--attractor", "-4.2e-05"]) == 0
    assert json.loads(capsys.readouterr().out)["a"] == pytest.approx(
        -4.2e-05, rel=1e-9)
    base = ["analyze", "--field", "x^2-1", "--attractor", "-1"]
    assert main(base) == 0
    default = capsys.readouterr().out
    assert main(base + ["--interval", "-1e2", "1e2"]) == 0
    assert capsys.readouterr().out == default


def test_cli_field_starting_with_a_minus_needs_the_equals_sign(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--field", "-x^3+x", "--attractor", "-1"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    assert main(["analyze", "--field=-x^3+x", "--attractor", "-1"]) == 0


def test_cli_infeasible_budget_exits_3(capsys):
    code = main(["critical-rate", "--field", "x^2-1", "--attractor", "-1",
                 "--arclength", "1"])
    assert code == 3
    assert "arclength" in capsys.readouterr().err


def test_cli_sweep_from_the_radius_exits_3(capsys):
    code = main(["sweep", "--field", "x^2-1", "--attractor", "-1",
                 "--l-min", "2", "--l-max", "30", "--steps", "25"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not exceed the basin radius" in captured.err


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


def test_cli_negative_seed_exits_1_before_any_work(capsys, monkeypatch):
    def no_field(*args):
        raise AssertionError("build_field called")

    monkeypatch.setattr(harness, "build_field", no_field)
    assert main(["verify", "--field", "x^2-1", "--attractor", "-1",
                 "--arclength", "3", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "tipcrit: error: seed must be a non-negative integer\n")


def test_cli_negative_random_spec_seed_exits_1(capsys):
    assert main(["classify", "--field", "x^2-1", "--attractor", "-1",
                 "--forcing", "random:3:0.5:2:-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "tipcrit: error: bad forcing spec 'random:3:0.5:2:-5': "
        "seed must be a non-negative integer\n")


def test_cli_overflowing_tanh_spec_exits_1(capsys):
    assert main(["classify", "--field", "x^2-1", "--attractor", "-1",
                 "--forcing", "tanh:1e200:1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "tipcrit: error: bad forcing spec 'tanh:1e200:1': the peak speed ")
    assert "out of range" not in captured.err


def test_cli_blow_up_inside_the_basin_exits_1(capsys):
    # alpha = -inf, and f > 0 below the attractor: the state returns, so
    # the integrator's |y| >= 1e6 stop is a fault, not tipping
    code = main(["classify", "--field", "x^2-1", "--attractor", "-1",
                 "--forcing", "knots:0,0;1e-7,-2e6"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "blow-up" in captured.err


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


def _verify_failure_message(capsys, monkeypatch, **fields):
    """stderr of ``tipcrit verify`` on a passing report with ``fields``
    replaced; the exit code must be 4."""
    import tipcrit.cli as cli_mod

    report = run_verification("x^2-1", -1.0, 3.0, n_samples=4, seed=1)
    failing = replace(report, **fields)
    monkeypatch.setattr(cli_mod, "run_verification",
                        lambda *args, **kwargs: failing)
    code = main(["verify", "--field", "x^2-1", "--attractor", "-1",
                 "--arclength", "3", "--samples", "4"])
    assert code == 4
    return capsys.readouterr().err


def test_cli_verify_failure_names_critical_samples(capsys, monkeypatch):
    err = _verify_failure_message(capsys, monkeypatch, n_tracks=2,
                                  n_tips=1, violating_seeds=[1, 3])
    assert ("2 of 4 samples under the speed cap did not track "
            "(1 tipping, 1 critical; violating seeds: [1, 3])") in err
    assert "ramp" not in err


@pytest.mark.parametrize("field,message", [
    ("tightness_upper_tips", "the ramp at 1.001 m_c did not tip"),
    ("tightness_lower_tracks", "the ramp at 0.999 m_c did not track")])
def test_cli_verify_failure_names_the_tightness_ramp(capsys, monkeypatch,
                                                     field, message):
    err = _verify_failure_message(capsys, monkeypatch, **{field: False})
    assert message in err
    assert "samples" not in err and err.count("ramp") == 1


def test_cli_verify_ignores_threads_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("TIPCRIT_THREADS", "abc")
    code = main(["verify", "--field", "x^2-1", "--attractor", "-1",
                 "--arclength", "3", "--samples", "4"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_import_starts_no_process_machinery():
    code = ("import sys, tipcrit, tipcrit.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_sweep_does_not_import_numpy_ma():
    # numpy.ma costs about 1 MB of resident memory; np.unique imports it
    code = ("import sys; from tipcrit.harness import run_sweep; "
            "run_sweep('x^2-1', -1.0, 2.1, 100.0, 25); "
            "run_sweep('x*(x-1)*(x+2)', 0.0, 1.05, 50.0, 25); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("module", sorted(
    p.stem for p in (Path(__file__).parents[1] / "src" / "tipcrit").glob("*.py")
    if p.stem != "__init__"))
def test_each_module_imports_alone(module):
    # the package's __init__ is bypassed, so the module pulls in only its own
    # imports and an import cycle among them fails here
    src = Path(__file__).parents[1] / "src"
    code = ("import importlib, sys, types; "
            "pkg = types.ModuleType('tipcrit'); "
            f"pkg.__path__ = [{str(src / 'tipcrit')!r}]; "
            "sys.modules['tipcrit'] = pkg; "
            f"importlib.import_module('tipcrit.{module}')")
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, text=True)


def test_cli_prototype_table(capsys):
    assert main(["prototype"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("lambda_inf,r_c_closed_form,r_star_bracket,"
                        "m_c_implicit,m_star_bracket,m_c_general")
    assert len(lines) == 6
    assert all(len(line.split(",")) == 6 for line in lines)


def test_prototype_failures_flag_an_off_bracket():
    rows = prototype_table()
    assert prototype_failures(rows) == []
    off = replace(rows[0], r_star_bracket=1.01 * rows[0].r_star_bracket)
    problems = prototype_failures([off] + rows[1:])
    assert len(problems) == 1
    assert "sigmoid threshold" in problems[0]


def test_prototype_general_rates_are_one_batch_of_single_solves(monkeypatch):
    # one critical-rate batch per call, each m_c_general equal to its
    # single solve to the bit
    amplitudes = (2.3, 4.0, 7.0, 12.0)
    calls = []
    real_rates = harness._critical_rates

    def counted_rates(geometry, field, arclengths):
        calls.append(list(arclengths))
        return real_rates(geometry, field, arclengths)

    monkeypatch.setattr(harness, "_critical_rates", counted_rates)
    rows = prototype_table(amplitudes)
    monkeypatch.undo()
    assert calls == [list(amplitudes)]
    field, geometry = harness.build_field("x^2-1", -1.0)
    for lam, row in zip(amplitudes, rows):
        single = harness.critical_rate(geometry, field, lam).m_c
        assert row.m_c_general.hex() == single.hex()


def test_cli_analyze_csv_record(capsys):
    assert main(["analyze", "--field", "x^2-1", "--attractor", "-1",
                 "--csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert list(record) == ["field", "a", "alpha", "beta", "R", "mu_minus",
                            "mu_plus", "mu"]
    assert record["alpha"] == "-inf"
    assert record["mu_minus"] == "inf"
    assert float(record["beta"]) == 1.0


# CLI inputs by name, every subcommand among them; the fields are
# polynomials, so that no transcendental kernel of numpy can move a digit
_CLI_CASES = {
    "analyze": ["analyze", "--field", "x^2-1", "--attractor", "-1"],
    "analyze-cubic": ["analyze", "--field", "x*(x-1)*(x+2)",
                      "--attractor", "0"],
    "critical-rate": ["critical-rate", "--field", "x^2-1", "--attractor",
                      "-1", "--arclength", "3"],
    "critical-rate-cubic": ["critical-rate", "--field", "x*(x-1)*(x+2)",
                            "--attractor", "0", "--arclength", "2"],
    "classify": ["classify", "--field", "x^2-1", "--attractor", "-1",
                 "--forcing", "pl:3:2.3"],
    "classify-knots": ["classify", "--field", "x*(x-1)*(x+2)",
                       "--attractor", "0", "--forcing",
                       "knots:0,0;1,0.8;2,-0.4"],
    "classify-random": ["classify", "--field", "x^2-1", "--attractor", "-1",
                        "--forcing", "random:3:1.5:7:12345"],
    "sweep": ["sweep", "--field", "x^2-1", "--attractor", "-1",
              "--l-min", "2.2", "--l-max", "20", "--steps", "3"],
    "verify": ["verify", "--field", "x*(x-1)*(x+2)", "--attractor", "0",
               "--arclength", "2", "--samples", "12", "--seed", "3"],
    "prototype": ["prototype"],
}
_FORMATS = {"default": [], "json": ["--json"], "csv": ["--csv"]}


@pytest.fixture
def cli_out(capsys, monkeypatch):
    """Runs the CLI to exit 0 and returns its stdout.  The campaign's
    clock is stopped, so ``verify`` prints ``wall_time_s`` as 0."""
    monkeypatch.setattr(harness, "time",
                        SimpleNamespace(perf_counter=lambda: 0.0))

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out
    return run


def _csv_text(value) -> str:
    """A parsed JSON value as the CLI's CSV cell prints it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return ";".join(map(_csv_text, value))
    return str(value)


@pytest.mark.parametrize("case", ["analyze", "critical-rate", "classify",
                                  "sweep", "verify", "prototype"])
def test_cli_json_rows_match_the_csv(cli_out, case):
    lines = cli_out(_CLI_CASES[case] + ["--csv"]).splitlines()
    payload = json.loads(cli_out(_CLI_CASES[case] + ["--json"]))
    tables = {"sweep": 3, "prototype": 5}  # row counts; a record is one row
    rows = payload["rows"] if case in tables else [payload]
    header = lines[0].split(",")
    assert [list(row) for row in rows] == [header] * tables.get(case, 1)
    assert [[_csv_text(v) for v in row.values()] for row in rows] == [
        line.split(",") for line in lines[1:]]


# SHA-256 prefixes of the bytes each case prints by default, on --json and
# on --csv, with verify's clock stopped
_CLI_DIGESTS = {
    "analyze": ("84cc111345c3d678", "84cc111345c3d678",
                "3596a32968b2e0f9"),
    "analyze-cubic": ("657f2ab27e6f13e4", "657f2ab27e6f13e4",
                      "350c9ddc02142414"),
    "critical-rate": ("4afc618d706351c8", "4afc618d706351c8",
                      "6afefadfd8b3febf"),
    "critical-rate-cubic": ("1dd1aacba2e72848", "1dd1aacba2e72848",
                            "4d5d860328e78ed9"),
    "classify": ("4665eaf8e00dee93", "4665eaf8e00dee93",
                 "710fa199ddb0fcbf"),
    "classify-knots": ("b8fe8f3e5128587e", "b8fe8f3e5128587e",
                       "18168e958b33bc1f"),
    "classify-random": ("0b6ffc0feb70864d", "0b6ffc0feb70864d",
                        "7d665e167d897d13"),
    "sweep": ("3f6b108925d8a2d0", "169a15d3162da64c",
              "3f6b108925d8a2d0"),
    "verify": ("46014f2fbf2f812e", "46014f2fbf2f812e",
               "8cf955ddb63781bd"),
    "prototype": ("61fe9f794fe3fda5", "8a6d71e90410c983",
                  "61fe9f794fe3fda5"),
}


@pytest.mark.parametrize("fmt", sorted(_FORMATS))
@pytest.mark.parametrize("case", sorted(_CLI_CASES))
def test_cli_prints_the_recorded_bytes(cli_out, case, fmt):
    text = cli_out(_CLI_CASES[case] + _FORMATS[fmt])
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == _CLI_DIGESTS[case][list(_FORMATS).index(fmt)]


def test_cli_interval_matches_the_default(capsys):
    base = ["analyze", "--field", "x^2-1", "--attractor", "-1"]
    assert main(base) == 0
    default = capsys.readouterr().out
    assert main(base + ["--interval", "-3", "3"]) == 0
    assert capsys.readouterr().out == default


def test_cli_interval_without_the_attractor_exits_1(capsys):
    assert main(["analyze", "--field", "x^2-1", "--attractor", "-1",
                 "--interval", "0", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "attractor must lie inside the search interval" in captured.err


@pytest.mark.parametrize("interval", [("-3", "inf"), ("-inf", "1e2"),
                                      ("nan", "3")])
def test_cli_non_finite_interval_exits_1(capsys, interval):
    # refused before the containment check, and never as a numpy warning
    # or a field-analysis fault
    assert main(["analyze", "--field", "x^2-1", "--attractor", "-1",
                 "--interval", *interval]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"tipcrit: error: search interval [{float(interval[0])}, "
        f"{float(interval[1])}] is not finite\n")


@pytest.mark.parametrize("attractor", ["nan", "inf"])
def test_cli_non_finite_attractor_exits_1(capsys, attractor):
    assert main(["analyze", "--field", "x^2-1", "--attractor", attractor,
                 "--interval", "-3", "3"]) == 1
    assert capsys.readouterr().err == (
        f"tipcrit: error: attractor {attractor} is not finite\n")


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


def test_cli_degenerate_root_beyond_the_basin_exits_0(capsys):
    code = main(["analyze", "--field", "x*(x-1)*(x+2)*(x-50)^2",
                 "--attractor", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["alpha"], payload["beta"]) == (-2, 1)


def test_cli_zero_over_zero_on_equilibrium_grid_exits_2(capsys):
    # 1 is a point of the grid, where f is 0/0; numpy reads that as nan
    code = main(["analyze", "--field", "(1-x^2)/(x-1)", "--attractor", "-1"])
    assert code == 2
    assert "f is undefined at x = 1.0" in capsys.readouterr().err


def test_cli_overflow_on_the_scan_grid_reads_as_minus_inf(capsys):
    code = main(["analyze", "--field", "2-exp(x^2)", "--attractor",
                 "0.8325546111576977"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    root = math.sqrt(math.log(2.0))
    assert payload["a"] == pytest.approx(root, abs=1e-15)
    assert -payload["alpha"] == pytest.approx(root, abs=1e-15)
    assert payload["beta"] == "inf"
    assert payload["mu"] == 1


def test_cli_overflow_on_the_scan_grid_reads_as_plus_inf(capsys):
    code = main(["analyze", "--field", "x^200-1", "--attractor", "-1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == "-inf"
    assert (payload["beta"], payload["R"], payload["mu"]) == (1, 2, 1)


def test_cli_overflow_while_refining_a_root_exits_2(capsys):
    # the grid reads -inf and +inf around the sign change at 50.01, where
    # the scalar f overflows
    code = main(["analyze", "--field", "(x+1)*exp(x^2)*(x-50.01)",
                 "--attractor", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "the field overflows while refining a root in [50.0, 50.05" in err


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
