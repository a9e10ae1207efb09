"""Tests for the exit status of ``scripts/sweep_lower_bound.py``."""

import importlib.util
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "sweep_lower_bound",
    Path(__file__).resolve().parent.parent / "scripts" / "sweep_lower_bound.py")
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)

ARGV = ["sweep_lower_bound.py", "--decades", "3"]


def test_sweep_passes_when_twin_agrees(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ARGV)
    assert sweep.main() == 0
    assert "worst |closed - quadrature| / |closed|" in capsys.readouterr().out


def test_sweep_fails_when_twin_drifts(monkeypatch, capsys):
    # a quadrature twin 2e-6 off its closed value, in one row only, must
    # fail the sweep even though the closed fraction still clears 0.98
    real = sweep.bilinear_form_numeric
    calls = []

    def drifting(params, fam, order):
        calls.append(order)
        value = real(params, fam, order=order)
        return value * (1.0 + 2e-6) if len(calls) == 2 else value

    monkeypatch.setattr(sys, "argv", ARGV)
    monkeypatch.setattr(sweep, "bilinear_form_numeric", drifting)
    assert sweep.main() == 1
    assert "2.000e-06" in capsys.readouterr().out
