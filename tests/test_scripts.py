"""The multiplexing demo script fails when the codec does not recover its input."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from gtiframes import SuperSignal

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "multiplex_demo.py"


def load_demo():
    spec = importlib.util.spec_from_file_location("multiplex_demo", DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "fault, code",
    [(None, 0), (np.nan, 1), (np.inf, 1), (1e-6, 1)],
    ids=["exact", "nan", "inf", "relative-1e-6"],
)
def test_multiplex_demo_exit_code(monkeypatch, capsys, fault, code):
    demo = load_demo()
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
