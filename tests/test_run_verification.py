"""Tests for the configuration of ``scripts/run_verification.py``."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "run_verification",
    Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py")
run_verification = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_verification)


@pytest.mark.parametrize("argv, message", [
    (["--order", "4"], "error: quadrature order must be at least 8, got 4\n"),
    (["--seed", "abc"], "error: bad value for seed: invalid literal for int()"
                        " with base 10: 'abc'\n"),
    (["--seed", "-1"], "error: seed must be a non-negative integer, got -1\n"),
], ids=["order=4", "seed=abc", "seed=-1"])
def test_out_of_range_settings_exit_two(argv, message, capsys):
    # the checks of bergnorm's build_config, before any suite runs
    assert run_verification.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message


def test_only_its_own_flags():
    with pytest.raises(SystemExit) as err:
        run_verification.main(["--mu", "2"])
    assert err.value.code == 2
