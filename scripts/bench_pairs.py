#!/usr/bin/env python3
"""Alternating parent/change pairs of ``bench/run.py`` runs, kept as a BENCH file.

    python scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload bilinear-twin \\
        --seed 41 --pairs 10 --label near_one_vec

Each root is a checkout of the repository (its own ``bench/`` and ``src/``).
Runs last ``run_seconds`` of the change's ``BENCHMARK.json`` on both sides.
Pair i runs ``bench/run.py --trace 0`` once in each root, the parent first
in even pairs and the change first in odd ones, so drift in the machine's
load falls on both sides alike.  The workload's entry in
``BENCH_<label>.json`` (in the current directory) is written or replaced;
other workloads already in the file are kept.  It holds every run's result
line and raw-time line, the machine record, each side's median and
quartiles per end-to-end metric, and how many pairs the change won.  A
gain is claimed only when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``root``: its machine, raw and result lines."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    machine = next(json.loads(line.split(": ", 1)[1]) for line in lines
                   if line.startswith("machine: "))
    raw = next(json.loads(line) for line in lines if line.startswith('{"raw"'))
    return {"machine": machine, "raw": raw, "result": json.loads(lines[-1])}


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        stats = {}
        for side, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            stats[side] = {"median": med, "q1": q1, "q3": q3}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        gap = stats["parent"]["median"] - stats["change"]["median"]
        gain = gap if lower else -gap
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[name] = {**stats, "unit": spec["unit"], "better": spec["better"],
                     "wins": wins, "pairs": len(values["parent"]),
                     "gain_rule_met": wins >= 0.9 * len(values["parent"]) and gain > iqr}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent commit")
    parser.add_argument("change", type=Path, help="checkout root of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    order = []
    for i in range(args.pairs):
        first = SIDES if i % 2 == 0 else SIDES[::-1]
        order.append(list(first))
        for side in first:
            runs[side].append(run_once(roots[side], args.workload, args.seed, seconds))
            value = runs[side][-1]["result"]["metrics"]
            print(f"pair {i + 1}/{args.pairs} {side}: "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in value.items()), flush=True)

    out_file = Path(f"BENCH_{args.label}.json")
    record = json.loads(out_file.read_text(encoding="utf-8")) if out_file.exists() else {}
    record.setdefault("workloads", {})[args.workload] = {
        "seed": args.seed, "seconds": seconds, "pairs": args.pairs, "order": order,
        "machine": runs["change"][0]["machine"],
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": {side: [{"raw": r["raw"], "result": r["result"]} for r in runs[side]]
                 for side in SIDES},
    }
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, s in record["workloads"][args.workload]["summary"].items():
        print(f"{name:<14} parent {s['parent']['median']:.4g} [{s['parent']['q1']:.4g}, "
              f"{s['parent']['q3']:.4g}]  change {s['change']['median']:.4g} "
              f"[{s['change']['q1']:.4g}, {s['change']['q3']:.4g}]  wins {s['wins']}/{s['pairs']}"
              f"{'  gain' if s['gain_rule_met'] else ''}")
    print(f"wrote {out_file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
