import csv
import json

import numpy as np
import pytest

from diamondstab import integrator, propagation, spectral
from diamondstab.cli import _criterion, main
from diamondstab.integrator import gauss_tableau, solve_diamond_rk
from diamondstab.msform import (
    MultiSymplecticForm,
    PolynomialTerm,
    form_to_dict,
    load_form_json,
    registry_get,
    registry_names,
)
from diamondstab.pipeline import run_pipeline


def test_analyze_kdv_stops_after_step1():
    report = run_pipeline(registry_get("kdv"))
    assert report.classification == "StructurallyInconsistent"
    assert report.verdict is None and report.spectral_verdict is None
    kinds = {b.kind for b in report.dm.blocks}
    assert "overdetermined" in kinds and "underdetermined" in kinds


def test_analyze_mixed_kg_stops_after_step2():
    report = run_pipeline(registry_get("mixed_kg"))
    assert report.classification == "UnconditionallyUnstable"
    assert report.spectral_verdict is None
    assert "-s-1" in [c.weight.label() for c in report.verdict.witness]


def test_analyze_dirac_full_pipeline():
    report = run_pipeline(registry_get("dirac"), dt=0.2, dx=0.3, N=40, scheme="simple")
    assert report.classification == "ConditionallyStable"
    assert report.spectral_verdict.stable is True
    assert report.verdict.unconditionally_unstable is False


def test_classify_registry_categories():
    rows = {n: run_pipeline(registry_get(n), stop_after=2).classification for n in registry_names()}
    assert len(rows) == 14
    expected_inconsistent = {
        "advection", "kdv", "camassa_holm", "bbm", "hunter_saxton_1", "hunter_saxton_2",
    }
    expected_unstable = {"mixed_kg", "ostrovsky", "improved_boussinesq"}
    expected_stable = {"wave", "linear_kg", "dirac", "good_boussinesq", "nls"}
    assert {k for k, v in rows.items() if v == "StructurallyInconsistent"} == expected_inconsistent
    assert {k for k, v in rows.items() if v == "UnconditionallyUnstable"} == expected_unstable
    assert {k for k, v in rows.items() if v == "ConditionallyStable"} == expected_stable


def test_cli_analyze_json_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["analyze", "wave", "--format", "json", "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["analyze", "wave", "--format", "json", "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("generated_at")
    b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_unknown_pde_is_operational_error(capsys):
    assert main(["analyze", "heat"]) == 1
    # one unquoted line that lists the available names
    available = ", ".join(sorted(registry_names()))
    assert capsys.readouterr().err == f"error: unknown form 'heat'; available: {available}\n"


def test_cli_unstable_verdict_exits_zero(capsys):
    assert main(["analyze", "ostrovsky"]) == 0
    out = capsys.readouterr().out
    assert "UnconditionallyUnstable" in out


def test_cli_classify_csv(tmp_path):
    path = tmp_path / "table.csv"
    assert main(["classify", "--out", str(path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 14
    assert {r["category"] for r in rows} == {
        "StructurallyInconsistent", "UnconditionallyUnstable", "ConditionallyStable",
    }


def test_cli_classify_filter_empty(tmp_path):
    path = tmp_path / "none.csv"
    assert main(["classify", "--category", "NoSuchCategory", "--out", str(path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == []


def test_cli_run_writes_outputs(tmp_path):
    outdir = tmp_path / "run"
    rc = main([
        "run", "--pde", "dirac", "--scheme", "simple", "--dx", "0.6", "--dt", "0.2",
        "--domain=-12,12", "--T", "1.0", "--ic", "breather",
        "--observe", "energy,snapshots", "--out", str(outdir),
    ])
    assert rc == 0
    meta = json.loads((outdir / "run.json").read_text())
    assert meta["status"] == "completed"
    assert (outdir / "energy.csv").exists()
    snaps = sorted(outdir.glob("snapshot_*.csv"))
    assert snaps
    with open(snaps[0], newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["x", "p1", "q1", "p2", "q2"]


@pytest.mark.parametrize("T,t_end,note", [(0.2, 0.2, False), (0.01, 0.1, True), (0.26, 0.30000000000000004, True)])
def test_cli_run_reports_the_time_it_reached(T, t_end, note, tmp_path, capsys):
    # a run takes round(T / dt) whole steps, at least one: run.json records
    # where it ended, and the status line names that time where it is not T
    outdir = tmp_path / "run"
    rc = main(["run", "--pde", "wave", "--dx", "0.1", "--dt", "0.1", "--T", str(T), "--ic", "zero",
               "--out", str(outdir)])
    assert rc == 0
    meta = json.loads((outdir / "run.json").read_text())
    assert meta["T"] == T and meta["t_end"] == t_end and meta["status"] == "completed"
    line = capsys.readouterr().out.strip()
    if note:
        assert line == f"status: completed (ran to t_end={t_end}, the whole step nearest T={T})"
    else:
        assert line == "status: completed"


def test_cli_run_collocation_writes_norms_from_t0(tmp_path):
    outdir = tmp_path / "run"
    rc = main([
        "run", "--pde", "dirac", "--scheme", "rk:2", "--dx", "0.3", "--dt", "0.2",
        "--domain=-24,24", "--T", "0.4", "--ic", "breather",
        "--observe", "norms", "--out", str(outdir),
    ])
    assert rc == 0
    with open(outdir / "norms.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["t"]) for r in rows] == pytest.approx([0.0, 0.4])
    assert all(float(r["max_abs"]) > 0.0 for r in rows)
    assert not (outdir / "energy.csv").exists()


def test_cli_run_default_observer_follows_the_scheme(tmp_path, capsys):
    args = ["run", "--pde", "dirac", "--dx", "0.3", "--dt", "0.2", "--domain=-24,24", "--T", "0.4",
            "--ic", "breather"]
    assert main(args + ["--scheme", "rk:2", "--out", str(tmp_path / "rk")]) == 0
    assert (tmp_path / "rk" / "norms.csv").exists() and not (tmp_path / "rk" / "energy.csv").exists()
    assert main(args + ["--scheme", "simple", "--out", str(tmp_path / "simple")]) == 0
    assert (tmp_path / "simple" / "energy.csv").exists()
    capsys.readouterr()
    # a collocation run cannot record the energy: asking for it is an error
    assert main(args + ["--scheme", "rk:2", "--observe", "energy", "--out", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'energy'" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_run_solver_failure_is_one_line_error(tmp_path, capsys):
    # kdv is structurally inconsistent: the collocation stage solve fails
    rc = main([
        "run", "--pde", "kdv", "--scheme", "rk:2", "--dx", "0.1", "--dt", "0.01",
        "--T", "0.02", "--ic", "zero", "--out", str(tmp_path / "run"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "singular" in err
    assert len(err.strip().splitlines()) == 1


DECIDED_BEFORE_STEP3 = {
    "kdv": "StructurallyInconsistent",
    "camassa_holm": "StructurallyInconsistent",
    "mixed_kg": "UnconditionallyUnstable",
}


@pytest.mark.parametrize("pde", sorted(DECIDED_BEFORE_STEP3))
def test_cli_sweep_decided_form_is_one_line_verdict(pde, tmp_path, capsys):
    # Steps 1 and 2 decide these forms before any pivot is built: the
    # classification is a successful answer, not an error
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--pde", pde, "--dx-list", "0.4", "--domain-length", "4", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.strip().splitlines() == [
        f"{pde}: {DECIDED_BEFORE_STEP3[pde]}, no stability boundary to sweep"
    ]
    assert not out.exists()


def test_python_m_diamondstab_runs_the_cli():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "diamondstab", "sweep", "--pde", "kdv", "--dx-list", "0.4", "--domain-length", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("kdv: StructurallyInconsistent")


def test_cli_sweep_emits_slope(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    args = ["sweep", "--pde", "linear_kg", "--criterion", "nozero", "--dx-list", "0.4,0.2", "--domain-length", "4"]
    assert main(args + ["--out", str(path)]) == 0
    rows = list(csv.reader(open(path, newline="")))
    assert rows[0] == ["dx", "N", "dt_max"]
    assert rows[-1][0] == "slope"
    # "--out -" writes the same table to stdout
    capsys.readouterr()
    assert main(args + ["--out", "-"]) == 0
    assert capsys.readouterr().out == path.read_bytes().decode()


def _nonlinear_only_consistent_form():
    # S = -z1 z2^2 + z1 z3^2: equations 2 and 3 reach z2 and z3 only through
    # the quadratic gradient terms, which vanish in the linearization at 0
    K = np.zeros((4, 4))
    K[1, 2], K[2, 1] = -0.5, 0.5
    P = np.diag([1.0, 1.0, 0.0, 0.0])
    P[1, 3] = P[3, 1] = -1.0
    terms = (
        PolynomialTerm(2, -1.0, (0, 0, 2, 0)),
        PolynomialTerm(2, 1.0, (0, 0, 0, 2)),
        PolynomialTerm(3, -2.0, (0, 1, 1, 0)),
        PolynomialTerm(4, 2.0, (0, 1, 0, 1)),
    )
    return MultiSymplecticForm("nonlinear_only", ("z0", "z1", "z2", "z3"), K, np.zeros((4, 4)), P, terms)


def test_form_consistent_only_through_nonlinear_terms(tmp_path, capsys):
    path = tmp_path / "nonlinear_only.json"
    path.write_text(json.dumps(form_to_dict(_nonlinear_only_consistent_form())))
    form = load_form_json(path)
    report = run_pipeline(form)
    assert report.dm.consistent and not report.lin_dm.consistent
    assert report.classification == "StructurallyInconsistent"
    assert report.lin is not None and report.verdict is None and report.spectral_verdict is None
    # the collocation stage test refuses the same form
    with pytest.raises(spectral.SingularUpdateError):
        solve_diamond_rk(form, gauss_tableau(2), np.zeros((2, 4)), np.zeros((2, 4)), 0.1, 0.1)

    assert main(["analyze", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classification"] == "StructurallyInconsistent"
    assert out["step1"]["consistent"] and not out["step1_linearization"]["consistent"]
    assert "step2" not in out
    assert main(["analyze", str(path)]) == 0
    text = capsys.readouterr().out
    assert "step 1: consistent" in text
    assert "step 1 on the linearization: structurally inconsistent" in text
    assert main(["analyze", str(path), "--params", "a=1"]) == 1
    assert "JSON" in capsys.readouterr().err


def test_cli_analyze_json_nls_linearizes_at_zero(tmp_path, capsys):
    # a JSON form carries no constants: the plane-wave linearization belongs
    # to the registered NLS, and the JSON copy is linearized at zero
    path = tmp_path / "nls.json"
    path.write_text(json.dumps(form_to_dict(registry_get("nls"))))
    assert main(["analyze", str(path), "--step2", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "ConditionallyStable"
    assert report["step2"]["verdict"]["s_lo"] == "2"


def test_cli_step1_only_report(capsys):
    assert main(["analyze", "camassa_holm", "--step1", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"pde", "step1", "classification"}
    assert "step2" not in report


def test_cli_params_override(capsys):
    assert main(["analyze", "bbm", "--params", "sigma=2.0", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "StructurallyInconsistent"


def test_cli_analyze_names_the_dominant_frequency(capsys):
    # linear_kg at dt = dx / 2: the strict verdict is decided at k = 0
    cmd = ["analyze", "linear_kg", "--dt", "0.025", "--dx", "0.05", "--N", "160"]
    assert main(cmd + ["--format", "json"]) == 0
    step3 = json.loads(capsys.readouterr().out)["step3"]
    assert step3["dominant_k"] == 0
    assert 1 <= step3["dominant_k_nonzero_modes"] <= 80
    assert main(cmd) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if "step 3" in ln)
    assert " at k=0 " in line and f"at k={step3['dominant_k_nonzero_modes']})" in line


def test_cli_step1_on_consistent_form_is_undecided(capsys):
    assert main(["analyze", "wave", "--step1", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] is None and report["step1"]["consistent"]
    assert main(["analyze", "wave", "--step1"]) == 0
    assert "classification: undecided after step 1" in capsys.readouterr().out


def test_cli_step_flags_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "wave", "--step2", "--step3"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def _count_calls(monkeypatch, module, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_step_flags_stop_the_pipeline(monkeypatch, capsys):
    step3 = _count_calls(
        monkeypatch, spectral, ["spectral_verdict", "build_blocks_simple", "build_blocks_rk"]
    )
    step2 = _count_calls(monkeypatch, propagation, ["build_propagation_graph"])
    assert main(["analyze", "wave", "--step1"]) == 0
    assert step2["build_propagation_graph"] == 0
    assert main(["analyze", "wave", "--step2"]) == 0
    assert main(["analyze", "wave", "--step2", "--scheme", "rk:2"]) == 0
    assert main(["classify"]) == 0
    assert step2["build_propagation_graph"] == 2 + 8  # two analyze runs, 8 consistent forms
    assert step3 == {"spectral_verdict": 0, "build_blocks_simple": 0, "build_blocks_rk": 0}
    # the counters see Step 3 when it does run
    assert main(["analyze", "wave"]) == 0
    assert main(["analyze", "wave", "--scheme", "rk:2"]) == 0
    assert step3 == {"spectral_verdict": 2, "build_blocks_simple": 1, "build_blocks_rk": 1}


def test_run_pipeline_rejects_bad_stop_after():
    with pytest.raises(ValueError, match="stop_after"):
        run_pipeline(registry_get("wave"), stop_after=4)


BAD_SCHEME_COMMANDS = {
    "analyze": ["analyze", "wave"],
    "sweep": ["sweep", "--pde", "wave", "--dx-list", "0.4", "--domain-length", "4"],
    "run": ["run", "--pde", "dirac", "--dx", "0.6", "--dt", "0.2", "--domain=-12,12",
            "--T", "0.4", "--ic", "breather"],
}


@pytest.mark.parametrize("scheme", ["rk", "foo", "rk:x"])
@pytest.mark.parametrize("command", sorted(BAD_SCHEME_COMMANDS))
def test_cli_bad_scheme_is_one_line_error(command, scheme, tmp_path, capsys):
    argv = BAD_SCHEME_COMMANDS[command] + ["--scheme", scheme]
    if command == "run":
        argv += ["--out", str(tmp_path / "run")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and repr(scheme) in err[0]
    assert captured.out == ""


# a command that must be refused, and the name its error gives the input
BAD_INPUT_COMMANDS = {
    "analyze_unknown_constant": (["analyze", "wave", "--params", "a=1"], "constant a"),
    "sweep_unknown_constant": (["sweep", "--pde", "wave", "--dx-list", "0.4", "--domain-length", "4",
                                "--params", "a=1"], "constant a"),
    "run_unknown_constant": (["run", "--pde", "nls", "--params", "rho=3", "--dx", "0.1", "--dt", "0.01",
                              "--domain=-10,10", "--T", "0.02", "--ic", "two_soliton"], "constant rho"),
    "analyze_negative_dt": (["analyze", "wave", "--dt", "-0.1"], "dt"),
    "analyze_zero_dt": (["analyze", "wave", "--dt", "0"], "dt"),
    "analyze_zero_dx": (["analyze", "wave", "--dx", "0"], "dx"),
    "analyze_infinite_dx": (["analyze", "wave", "--dx", "inf"], "dx"),
    "analyze_rk_negative_dt": (["analyze", "wave", "--scheme", "rk:2", "--dt", "-0.1"], "dt"),
    "analyze_zero_N": (["analyze", "wave", "--N", "0"], "N"),
    "sweep_zero_dx": (["sweep", "--pde", "wave", "--dx-list", "0", "--domain-length", "4"], "dx"),
    "sweep_zero_domain_length": (["sweep", "--pde", "wave", "--dx-list", "0.4", "--domain-length", "0"], "domain"),
    "sweep_infinite_domain_length": (["sweep", "--pde", "wave", "--dx-list", "0.4", "--domain-length", "inf"],
                                     "domain"),
    # Steps 1 and 2 would decide kdv without a mesh: its inputs are refused first
    "sweep_decided_form_infinite_domain_length": (["sweep", "--pde", "kdv", "--dx-list", "0.4",
                                                   "--domain-length", "inf"], "domain"),
    "sweep_infinite_cell_count": (["sweep", "--pde", "wave", "--dx-list", "1e-300", "--domain-length", "1e300"],
                                  "domain_length / dx[0]"),
    "run_infinite_step_count": (["run", "--pde", "wave", "--dx", "0.1", "--dt", "1e-300", "--T", "1e300",
                                 "--ic", "zero"], "T / dt"),
    "run_infinite_cell_count": (["run", "--pde", "wave", "--dx", "1e-300", "--dt", "0.1", "--T", "0.2",
                                 "--ic", "zero", "--domain", "0,1e300"], "domain_length / dx"),
    "run_zero_dx": (["run", "--pde", "wave", "--dx", "0", "--dt", "0.1", "--T", "0.2", "--ic", "zero"], "dx"),
    "run_infinite_T": (["run", "--pde", "wave", "--dx", "0.1", "--dt", "0.1", "--T", "inf", "--ic", "zero"], "T"),
    "run_negative_T": (["run", "--pde", "wave", "--dx", "0.1", "--dt", "0.1", "--T", "-1", "--ic", "zero"], "T"),
    "run_nan_dt": (["run", "--pde", "wave", "--dx", "0.1", "--dt", "nan", "--T", "0.2", "--ic", "zero"], "dt"),
    "run_nan_domain": (["run", "--pde", "wave", "--dx", "0.1", "--dt", "0.1", "--T", "0.2", "--ic", "zero",
                        "--domain", "0,nan"], "domain"),
    "analyze_rho_on_other_form": (["analyze", "wave", "--params", "rho=3"], "rho"),
    "sweep_rho_on_other_form": (["sweep", "--pde", "wave", "--dx-list", "0.4", "--domain-length", "4",
                                 "--params", "rho=3"], "rho"),
    "analyze_negative_rho": (["analyze", "nls", "--params", "rho=-1"], "rho"),
    "analyze_nan_rho": (["analyze", "nls", "--params", "rho=nan"], "rho"),
    "analyze_infinite_rho": (["analyze", "nls", "--params", "rho=inf"], "rho"),
    "analyze_param_without_value": (["analyze", "wave", "--params", "a"], "--params"),
    "analyze_nonfinite_constant": (["analyze", "dirac", "--params", "m=nan"], "constant m"),
    "analyze_growth_theta_zero": (["analyze", "wave", "--criterion", "growth:0"], "theta"),
    "analyze_growth_theta_nan": (["analyze", "wave", "--criterion", "growth:nan"], "theta"),
    "sweep_growth_theta_inf": (["sweep", "--pde", "wave", "--dx-list", "0.4", "--domain-length", "4",
                                "--criterion", "growth:inf"], "theta"),
    "analyze_nozero_one_mode": (["analyze", "linear_kg", "--N", "1", "--criterion", "nozero"], "N"),
    "analyze_param_not_a_number": (["analyze", "wave", "--params", "a=abc"],
                                   "--params a expects a number, got 'abc'"),
    "sweep_dx_list_not_a_number": (["sweep", "--pde", "wave", "--dx-list", "0.4,abc", "--domain-length", "4"],
                                   "--dx-list expects comma-separated numbers, got '0.4,abc'"),
    "run_domain_one_number": (["run", "--pde", "wave", "--dx", "0.1", "--dt", "0.1", "--T", "0.2", "--ic", "zero",
                               "--domain", "0"], "--domain expects 2 comma-separated numbers, got '0'"),
    "run_domain_three_numbers": (["run", "--pde", "wave", "--dx", "0.1", "--dt", "0.1", "--T", "0.2", "--ic", "zero",
                                  "--domain", "1,2,3"], "--domain expects 2 comma-separated numbers, got '1,2,3'"),
    "analyze_growth_theta_not_a_number": (["analyze", "wave", "--criterion", "growth:abc"],
                                          "--criterion growth expects a number, got 'abc'"),
    "sweep_growth_theta_missing": (["sweep", "--pde", "wave", "--dx-list", "0.4", "--domain-length", "4",
                                    "--criterion", "growth:"], "--criterion growth expects a number, got ''"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BAD_INPUT_COMMANDS))
def test_cli_bad_input_is_one_line_error(case, tmp_path, capsys):
    # an unknown form constant or an inadmissible mesh input is refused up
    # front: exit 1, one error line naming the input, no verdict, no
    # warning and no run directory
    argv, name = BAD_INPUT_COMMANDS[case]
    if argv[0] == "run":
        argv = argv + ["--out", str(tmp_path / "run")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and name in err[0], captured.err
    assert captured.out == ""
    assert not (tmp_path / "run").exists()


def test_criterion_text():
    assert _criterion("strict") == spectral.Criterion("strict")
    assert _criterion("nozero") == spectral.Criterion("nozero")
    assert _criterion("growth:1.2") == spectral.Criterion("growth", theta=1.2)
    assert _criterion("growth") == spectral.Criterion("growth", theta=1.1)
    for text in ("bogus", "growthx", "growthx:1.2", "strict:2"):
        with pytest.raises(ValueError, match="unknown criterion"):
            _criterion(text)


# an entry of the NLS JSON form set to a non-finite or non-integral value,
# and the name the error gives it
BAD_JSON_ENTRIES = {
    "coeff_nan": (("terms", 0, "coeff"), float("nan"), "terms[0].coeff"),
    "P_nan": (("P", 2, 2), float("nan"), "P[2][2]"),
    "L_inf": (("L", 0, 2), float("inf"), "L[0][2]"),
    "L_minus_inf": (("L", 0, 2), -float("inf"), "L[0][2]"),
    "exponent_fraction": (("terms", 0, "exponents", 0), 3.5, "terms[0].exponents[0]"),
    "row_fraction": (("terms", 0, "row"), 1.9, "terms[0].row"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BAD_JSON_ENTRIES))
def test_cli_bad_json_entry_is_one_line_error(case, tmp_path, capsys):
    (*keys, last), value, name = BAD_JSON_ENTRIES[case]
    data = form_to_dict(registry_get("nls"))
    entry = data
    for key in keys:
        entry = entry[key]
    entry[last] = value
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"{name} = {value}" in err[0], captured.err
    assert captured.out == ""


# an NLS JSON form whose term 0, or the entry at a key path, has the wrong
# shape, and the fault the error names
BAD_JSON_SHAPES = {
    "term_without_row": (("terms", 0, "row"), None, "terms[0] has no 'row'"),
    "exponents_not_a_list": (("terms", 0, "exponents"), 3, "terms[0].exponents = 3 is not a list"),
    "names_not_a_list": (("names",), 5, "names = 5 is not a list"),
    "term_not_an_object": (("terms",), [5], "terms[0] = 5 is not an object"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BAD_JSON_SHAPES))
def test_cli_bad_json_shape_is_one_line_error(case, tmp_path, capsys):
    (*keys, last), value, fault = BAD_JSON_SHAPES[case]
    entry = data = form_to_dict(registry_get("nls"))
    for key in keys:
        entry = entry[key]
    if value is None:
        del entry[last]
    else:
        entry[last] = value
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == f"error: {path}: {fault}"
    assert captured.out == ""


# a JSON copy of a registered form with one entry changed, and its error
# line; none of them is a valid form, so none may be analysed
BAD_JSON_FORMS = {
    "coeff_not_exact": ("nls", ("terms", 1, "coeff"), 2.0000002,
                        "grad S is not exact: S's monomial p^2*q^2 has coefficient 1.0000001 by row 1 "
                        "but 1.0 by row 2"),
    "names_repeated": ("nls", ("names",), ["z"] * 4, "variable name 'z' is repeated"),
    "wave_names_repeated": ("wave", ("names",), ["z"] * 3, "variable name 'z' is repeated"),
    "good_boussinesq_names_repeated": ("good_boussinesq", ("names",), ["u", "v", "u", "q"],
                                       "variable name 'u' is repeated"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BAD_JSON_FORMS))
def test_cli_refuses_a_json_form_that_is_not_exact_or_repeats_a_name(case, tmp_path, capsys):
    name, (*keys, last), value, fault = BAD_JSON_FORMS[case]
    entry = data = form_to_dict(registry_get(name))
    for key in keys:
        entry = entry[key]
    entry[last] = value
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == f"error: {fault}" and captured.out == ""


def test_unknown_constant_error_names_the_form_constants(capsys):
    assert main(["analyze", "dirac", "--params", "mass=2"]) == 1
    assert capsys.readouterr().err.strip() == "error: form 'dirac' has no constant mass; its constants: m, lam"
    assert main(["analyze", "wave", "--params", "a=1"]) == 1
    assert capsys.readouterr().err.strip() == "error: form 'wave' has no constant a; its constants: none"


def test_params_faults_name_their_cause(capsys):
    assert main(["analyze", "dirac", "--params", "m=nan"]) == 1
    assert capsys.readouterr().err.strip() == "error: form 'dirac': constant m = nan is not finite"
    assert main(["analyze", "wave", "--params", "a"]) == 1
    assert capsys.readouterr().err.strip() == "error: --params expects key=val, got 'a'"
    assert main(["analyze", "wave", "--params", "rho=3", "--step1"]) == 1
    assert "plane-wave amplitude of the registered nls" in capsys.readouterr().err
    # the registered NLS takes rho as before
    assert main(["analyze", "nls", "--params", "rho=4", "--step2", "--format", "json"]) == 0


def _json_copy(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(form_to_dict(registry_get(name))))
    return str(path)


@pytest.mark.parametrize("name", ["good_boussinesq", "wave", "linear_kg", "dirac"])
def test_cli_sweep_of_a_json_copy_is_byte_identical(name, tmp_path):
    args = ["--dx-list", "0.4,0.2", "--domain-length", "4"]
    assert main(["sweep", "--pde", name, *args, "--out", str(tmp_path / "name.csv")]) == 0
    assert main(["sweep", "--pde", _json_copy(tmp_path, name), *args, "--out", str(tmp_path / "json.csv")]) == 0
    assert (tmp_path / "json.csv").read_bytes() == (tmp_path / "name.csv").read_bytes()


@pytest.mark.parametrize("scheme", ["simple", "rk:2"])
def test_cli_run_of_a_json_copy_is_byte_identical(scheme, tmp_path):
    args = ["--scheme", scheme, "--dx", "0.1", "--dt", "0.05", "--domain", "0,6.283185307179586", "--T", "0.3",
            "--ic", "plane_wave", "--observe", "norms,snapshots"]
    assert main(["run", "--pde", "linear_kg", *args, "--out", str(tmp_path / "name")]) == 0
    assert main(["run", "--pde", _json_copy(tmp_path, "linear_kg"), *args, "--out", str(tmp_path / "json")]) == 0
    files = sorted(p.name for p in (tmp_path / "name").iterdir())
    assert len(files) >= 3 and files == sorted(p.name for p in (tmp_path / "json").iterdir())
    for f in files:
        assert (tmp_path / "json" / f).read_bytes() == (tmp_path / "name" / f).read_bytes(), f


@pytest.mark.parametrize("name", [n for n in registry_names() if n != "nls"])
def test_cli_analyze_of_a_json_copy_matches(name, tmp_path, capsys):
    # the JSON NLS has no constant a and is linearized at zero, so it is left out
    reports = []
    for pde in (name, _json_copy(tmp_path, name)):
        assert main(["analyze", pde, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("pde") == pde
        report.pop("generated_at")
        reports.append(report)
    assert reports[0] == reports[1]


def test_cli_run_of_a_json_copy_refuses_constants_it_lacks(tmp_path, capsys):
    # the breather reads the constants m and lam of the registered dirac
    path = _json_copy(tmp_path, "dirac")
    rc = main(["run", "--pde", path, "--dx", "0.6", "--dt", "0.2", "--domain=-12,12", "--T", "0.4",
               "--ic", "breather", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == "error: form 'dirac' has no constant m; its constants: none\n"
    assert main(["run", "--pde", path, "--params", "rho=3", "--dx", "0.6", "--dt", "0.2", "--T", "0.4",
                 "--ic", "zero", "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: form 'dirac' has no constant rho; its constants: none\n"
    assert not (tmp_path / "run").exists()


def test_cli_edges_final_x_are_the_sampled_positions(tmp_path, monkeypatch):
    # record the x at which init_edges_rk samples the exact breather
    sampled = []
    original = integrator.init_edges_rk

    def recording(form, tableau, ic, mesh, exact=None):
        def spy(x, t):
            sampled.append(np.array(x, dtype=float))
            return exact(x, t)

        return original(form, tableau, ic, mesh, exact=spy)

    monkeypatch.setattr(integrator, "init_edges_rk", recording)
    rc = main(["run", "--pde", "dirac", "--scheme", "rk:2", "--dx", "0.3", "--dt", "0.2", "--domain=-24,24",
               "--T", "0.4", "--ic", "breather", "--observe", "snapshots", "--out", str(tmp_path / "run")])
    assert rc == 0
    # node k of the rising edges, then of the falling ones, for k = 0, 1
    assert len(sampled) == 4 and all(x.shape == (160,) for x in sampled)
    positions = np.array(sampled).reshape(2, 2, 160)  # [k, j, i]: edge 2i+j, node k
    with open(tmp_path / "run" / "edges_final.csv", newline="") as fh:
        xs = [float(row["x"]) for row in csv.DictReader(fh)]
    assert xs == positions.transpose(2, 1, 0).reshape(-1).tolist()


def test_sweep_without_a_stable_dt_leaves_dt_max_empty(tmp_path, capsys):
    # K = [[0, 1], [-1, 0]], L = 0, P = diag(1, -1): Steps 1-2 find s_lo = 0,
    # but no dt meets the growth criterion at either dx
    form = MultiSymplecticForm("no_stable_dt", ("u", "v"), [[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)),
                               np.diag([1.0, -1.0]))
    report = run_pipeline(form, stop_after=2)
    assert report.classification == "ConditionallyStable" and report.verdict.s_lo == 0
    result = spectral.stability_boundary_sweep(report.lin, "simple", 4.0, [0.4, 0.2], spectral.Criterion("growth"))
    assert [p.dt_max for p in result.points] == [None, None] and result.slope is None
    path = tmp_path / "g.json"
    path.write_text(json.dumps(form_to_dict(form)))
    argv = ["sweep", "--pde", str(path), "--criterion", "growth:1.1", "--dx-list", "0.4,0.2", "--domain-length", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["dx,N,dt_max", "0.4,10,", "0.2,20,", "slope,,"]


def test_cli_analyze_writes_dot_files(tmp_path):
    assert main(["analyze", "nls", "--params", "rho=9", "--dot-dir", str(tmp_path / "nls")]) == 0
    report = run_pipeline(registry_get("nls"), rho=9.0, stop_after=2)
    assert sorted(p.name for p in (tmp_path / "nls").iterdir()) == ["nls_bipartite.dot", "nls_propagation.dot"]
    # one undirected line per Step-1 edge, solid where K gives it
    lines = (tmp_path / "nls" / "nls_bipartite.dot").read_text().splitlines()
    assert [line for line in lines if " -- " in line] == [
        f"  eq{i} -- un{j} [style={'solid' if tag == 'K' else 'dashed'}];" for (i, j), tag in report.bip.provenance
    ]
    # one directed line per Step-2 edge, labelled with its index
    lines = (tmp_path / "nls" / "nls_propagation.dot").read_text().splitlines()
    assert [line for line in lines if " -> " in line] == [
        f'  "{e.src}" -> "{e.dst}" [label="{e.index.label()}"];' for e in report.graph.edges
    ]
    assert len(report.bip.provenance) == 6 and len(report.graph.edges) == 10
    # kdv stops at Step 1: no propagation graph to draw
    assert main(["analyze", "kdv", "--dot-dir", str(tmp_path / "kdv")]) == 0
    assert [p.name for p in (tmp_path / "kdv").iterdir()] == ["kdv_bipartite.dot"]
