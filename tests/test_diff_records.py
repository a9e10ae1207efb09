"""Tests for the record comparison of ``scripts/diff_records.py``."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "diff_records", Path(__file__).resolve().parent.parent / "scripts" / "diff_records.py")
diff_records = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_records)


def _record(scenario, status="pass", value=2.0, error=None):
    inputs = {"p": 2.0} if error is None else {"p": 2.0, "error": error}
    return {"scenario": scenario, "status": status, "closed_form": 2.0, "inputs": inputs,
            "numeric_routes": {"schur_right": value}, "rel_errors": {"schur_right": 0.0}}


def test_moved_leaves_are_listed_with_their_relative_change():
    old = [_record("a"), _record("b")]
    new = [_record("a", value=2.0 + 2.0 ** -50), _record("b")]
    lines, breaking = diff_records.diff_records(old, new)
    assert not breaking
    assert lines == ["moved: a: numeric_routes.schur_right: 2.0 -> 2.000000000000001 "
                     "(rel 4.4e-16)", "1 of 12 leaves moved"]


def test_status_and_scenario_changes_exit_one(tmp_path):
    old = [_record("a"), _record("b"), _record("c")]
    new = [_record("a", status="flagged", error="nodes"), _record("c"), _record("d")]
    lines, breaking = diff_records.diff_records(old, new)
    assert breaking
    assert lines == ["removed scenario: b", "added scenario: d",
                     "status: a: pass -> flagged", "added leaf: a: inputs.error",
                     "1 of 12 leaves moved"]
    paths = []
    for name, records in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(records))
    assert diff_records.main([str(p) for p in paths]) == 1
    assert diff_records.main([str(paths[0]), str(paths[0])]) == 0
