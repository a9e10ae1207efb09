"""Runs benchmark operations in a fresh interpreter; ``run.py`` spawns it.

    python3 bench/worker.py setup <workload>
        import the workload's entry modules and report how long that took
    python3 bench/worker.py reference
        import only numpy and scipy.linalg, the libraries the program loads,
        and report how long that took (``run.py`` scales setup time by it)
    python3 bench/worker.py ops <workload> <trace 0|1>
        read ops from stdin, one ``{"index": k, "op": {...}}`` a line, run
        each as it comes and answer with one line holding its latency and
        the outputs the reference checks need; at the end of input, write
        one last line with the peak RSS and (traced) the spans and counters

The program is always imported from the ``src`` directory next to this
benchmark, never from an installed copy.  Replies are JSON, one a line.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules an op of each workload calls; setup_s is the time to import them,
# so nothing else that imports numpy may be loaded before.
ENTRY_MODULES = {
    "cli-suites": ("bergnorm.cli",),
    "bilinear-twin": ("bergnorm.intop", "bergnorm.normest"),
    "nystrom-1024": ("bergnorm.intop", "bergnorm.normest"),
}
# The third-party modules the program imports; no bergnorm code.
REFERENCE_MODULES = ("numpy", "scipy.linalg")


def _import(modules) -> float:
    start = time.perf_counter()
    for name in modules:
        importlib.import_module(name)
    return time.perf_counter() - start


def _import_program(modules) -> float:
    if not (SRC / "bergnorm" / "__init__.py").is_file():
        sys.exit(f"worker: no bergnorm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    elapsed = _import(modules)
    origin = Path(sys.modules["bergnorm"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"worker: bergnorm was imported from {origin}, not from {SRC}")
    return elapsed


# Each workload has a timed part, which calls the program, and an untimed
# part, which extracts what the reference checks need.  The program's
# functions are looked up at call time so that traced runs call the
# tracer's wrappers.

def _cli_timed(op):
    from bergnorm import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(op["argv"])
    return {"exit": status, "stdout": buf.getvalue()}


def _twin_timed(op):
    from bergnorm.intop import OperatorParams
    from bergnorm.normest import (bilinear_form_closed, bilinear_form_numeric,
                                  make_extremal_family)

    params = OperatorParams(mu=op["mu"], sigma=op["sigma"])
    fam = make_extremal_family(params, op["p"], op["theta"], op["theta_tilde"])
    return {"closed": bilinear_form_closed(params, fam),
            "numeric": bilinear_form_numeric(params, fam, order=op["order"])}


def _nystrom_timed(op):
    from bergnorm.intop import OperatorParams, discretize
    from bergnorm.normest import l2_opnorm_svd, lp_opnorm_numeric

    disc = discretize(OperatorParams(mu=op["mu"], sigma=op["sigma"]), op["p"],
                      op["order"])
    out = {"estimate": lp_opnorm_numeric(disc, seed=0), "disc": disc}
    if op["svd"]:
        out["svd"] = l2_opnorm_svd(disc)
    return out


def _nystrom_untimed(op, out):
    import numpy as np
    from bergnorm.intop import norm_formula

    disc = out.pop("disc")
    i, j = np.asarray(op["entries"]).T
    t, w = disc.nodes, disc.rule.weights
    out["closed"] = norm_formula(disc.params, op["p"])
    out["z"] = (t[i] * t[j]).tolist()
    out["f"] = (disc.matrix[i, j] / (disc.params.mu * w[j])).tolist()
    return out


TIMED = {"cli-suites": _cli_timed, "bilinear-twin": _twin_timed,
         "nystrom-1024": _nystrom_timed}
UNTIMED = {"nystrom-1024": _nystrom_untimed}


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def serve_ops(workload: str, trace: bool) -> None:
    """Run each op read from stdin as it arrives; the parent process runs
    its calibration kernel while this one waits for the next line."""
    from tracer import ROOT, Tracer

    tracer = Tracer() if trace else None
    bound = tracer.install() if tracer else {}
    timed, untimed = TIMED[workload], UNTIMED.get(workload)
    try:
        for line in sys.stdin:
            msg = json.loads(line)
            op, root = msg["op"], None
            if tracer:
                tracer.op = msg["index"]
                root = tracer.open(ROOT)
            t0 = time.perf_counter()
            try:
                out = timed(op)
            except Exception as exc:  # an op that raises is a failed op
                out = {"error": f"{type(exc).__name__}: {exc}"}
            latency = time.perf_counter() - t0
            if root is not None:
                tracer.close(root)
            if untimed is not None and "error" not in out:
                out = untimed(op, out)
            _reply({"latency": latency, "output": out})
    finally:
        if tracer:
            tracer.uninstall()
    summary = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        summary.update(spans=tracer.spans, counts=tracer.counts,
                       miss_orders=tracer.miss_orders, bound=bound)
    _reply(summary)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "reference":
        _reply({"import_s": _import(REFERENCE_MODULES)})
        return 0
    workload = argv[1]
    import_s = _import_program(ENTRY_MODULES[workload])
    if mode == "setup":
        _reply({"import_s": import_s})
    elif mode == "ops":
        serve_ops(workload, argv[2] == "1")
    else:
        sys.exit(f"worker: unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
