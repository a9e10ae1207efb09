#!/usr/bin/env python3
"""Compare two ``bergnorm --format json`` record lists leaf by leaf.

    python scripts/diff_records.py OLD.json NEW.json

Records are matched by scenario.  The script prints every scenario found
in only one list, every status change, and every leaf whose value differs,
a numeric one with its relative change |new - old| / |old|, and a last
line counting the moved leaves.  It exits 1 when a scenario was added or
removed or a status changed, and 0 otherwise, also when leaves moved.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def _leaves(node, path=""):
    """(dotted path, value) for every scalar under ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _same(old, new) -> bool:
    if _is_number(old) and _is_number(new) and math.isnan(old) and math.isnan(new):
        return True
    return type(old) is type(new) and old == new


def _relative(old, new) -> float:
    return abs(new - old) / abs(old) if old else math.inf


def diff_records(old: list[dict], new: list[dict]) -> tuple[list[str], bool]:
    """The report lines, and whether a scenario or a status changed."""
    old_by, new_by = ({r["scenario"]: r for r in records} for records in (old, new))
    lines = [f"removed scenario: {s}" for s in old_by if s not in new_by]
    lines += [f"added scenario: {s}" for s in new_by if s not in old_by]
    breaking = bool(lines)
    total = moved = 0
    for scenario in (s for s in old_by if s in new_by):
        before, after = old_by[scenario], new_by[scenario]
        if before["status"] != after["status"]:
            breaking = True
            lines.append(f"status: {scenario}: {before['status']} -> {after['status']}")
        old_leaves, new_leaves = dict(_leaves(before)), dict(_leaves(after))
        total += len(old_leaves)
        for path in [*old_leaves, *(p for p in new_leaves if p not in old_leaves)]:
            if path not in new_leaves or path not in old_leaves:
                moved += 1
                side = "removed" if path not in new_leaves else "added"
                lines.append(f"{side} leaf: {scenario}: {path}")
                continue
            a, b = old_leaves[path], new_leaves[path]
            if _same(a, b) or path == "status":
                continue
            moved += 1
            change = (f" (rel {_relative(a, b):.2g})"
                      if _is_number(a) and _is_number(b) else "")
            lines.append(f"moved: {scenario}: {path}: {a!r} -> {b!r}{change}")
    lines.append(f"{moved} of {total} leaves moved")
    return lines, breaking


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the earlier --format json output")
    parser.add_argument("new", help="the later --format json output")
    args = parser.parse_args(argv)
    with open(args.old) as f_old, open(args.new) as f_new:
        lines, breaking = diff_records(json.load(f_old), json.load(f_new))
    print("\n".join(lines))
    return 1 if breaking else 0


if __name__ == "__main__":
    sys.exit(main())
