#!/usr/bin/env python3
"""Run every verification suite and print one table per suite.

This is the long-form counterpart of ``bergnorm --suite all``: the same
records, but grouped under per-suite banners, and optionally saved as one
JSON artifact per suite for archiving alongside a run.

    python3 scripts/run_verification.py
    python3 scripts/run_verification.py --seed 3 --artifacts out/
"""

import argparse
import pathlib
import sys

from bergnorm.cli import (_SUITES, ConfigError, add_setting_flags, build_config,
                          emit_table, run_suite)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_setting_flags(parser, ("seed", "order"))
    parser.add_argument("--artifacts", type=str, default=None,
                        help="directory for per-suite JSON output")
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    art_dir = None
    if args.artifacts is not None:
        art_dir = pathlib.Path(args.artifacts)
        art_dir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for name in _SUITES:
        status, records = run_suite(name, cfg)
        worst = max(worst, status)
        banner = f"suite: {name}"
        print(banner)
        print("=" * len(banner))
        print(emit_table(records, "aligned-text"))
        if art_dir is not None:
            path = art_dir / f"{name}.json"
            path.write_text(emit_table(records, "json"), encoding="utf-8")
            print(f"wrote {path}")
            print()
    return worst


if __name__ == "__main__":
    sys.exit(main())
