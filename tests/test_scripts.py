"""The scripts' exit codes: the multiplexing demo fails when the codec does not
recover its input, the Gabor dual experiment runs past the dense cap, and the
sweep fails when a verdict disagrees with the dense oracle."""

import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gtiframes import SuperSignal

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "multiplex_demo.py"
GABOR = DEMO.with_name("gabor_dual_experiment.py")
SWEEP = DEMO.with_name("run_sweep.py")


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "fault, code",
    [(None, 0), (np.nan, 1), (np.inf, 1), (1e-6, 1)],
    ids=["exact", "nan", "inf", "relative-1e-6"],
)
def test_multiplex_demo_exit_code(monkeypatch, capsys, fault, code):
    demo = load_script(DEMO)
    synthesis = demo.synthesis

    def faulty(system, coeffs):
        back = synthesis(system, coeffs)
        if fault is None:
            return back
        values = back.stacked()
        if np.isfinite(fault):
            values[-1] *= 1 + fault  # relative L2 error `fault` on the last channel
        else:
            values[-1, 3] = fault
        return SuperSignal.from_stacked(back.channels[0].group, values)

    monkeypatch.setattr(demo, "synthesis", faulty)
    monkeypatch.setattr(sys, "argv", ["multiplex_demo.py", "--trials", "2"])
    assert demo.main() == code
    assert ("is not within 1e-09" in capsys.readouterr().err) == bool(code)


def test_gabor_dual_experiment_skips_bounds_above_the_dense_cap(monkeypatch, capsys):
    experiment = load_script(GABOR)
    monkeypatch.setattr(sys, "argv", ["gabor_dual_experiment.py", "--order", "512",
                                      "--windows", "1"])
    assert experiment.main() == 0
    out = capsys.readouterr().out
    rows = out.splitlines()[2:]
    assert len(rows) == 100  # 10 subgroups of Z512, every lattice pair
    assert all(row.split()[3:5] == ["skipped", "skipped"] for row in rows)
    # Below redundancy 1 every window is refused: the row says so, not nan.
    assert "nan" not in out
    sparse = [row for row in rows if float(row.split()[2]) < 1]
    assert len(sparse) == 45
    assert all(row.endswith("not a frame") for row in sparse)


@pytest.mark.parametrize("flip, code", [(False, 0), (True, 1)], ids=["agree", "disagree"])
def test_run_sweep_exit_code_and_stage_times(monkeypatch, capsys, flip, code):
    sweep = load_script(SWEEP)
    check = sweep.check_super_duality

    def verdict(f_system, h_system):
        out = check(f_system, h_system)
        return dataclasses.replace(out, passed=not out.passed) if flip else out

    monkeypatch.setattr(sweep, "check_super_duality", verdict)
    monkeypatch.setattr(sys, "argv", ["run_sweep.py"])
    assert sweep.main() == code
    out = capsys.readouterr().out
    assert "216 cases in" in out and "(seed 20240801)" in out
    assert re.search(r"^  corpus built in \d+\.\d{3}s, cases checked in \d+\.\d{3}s$", out, re.M)
    assert ("full agreement" in out, "DISAGREEMENT FOUND" in out) == (not flip, flip)
