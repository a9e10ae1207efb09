"""The three benchmark workloads: seeded inputs and reference checks.

Every workload is a closed loop: one client, one operation at a time.  The
operation sequence is a pure function of (workload, seed, length), so the
program only ever sees the generated inputs.  Parameters are drawn by
stratified sampling (one draw per equal-width stratum, strata in random
order), which keeps the mix of cheap and expensive operations in a run
close to the distribution's and so keeps run-to-run spread small without
fixing any value.

Why each workload is here (shares measured at the seed commit):

* ``cli-suites``: a cold ``bergnorm --suite all --format json`` run, the
  command users and ``scripts/run_verification.py`` run.  Many small
  ``hyp2f1_grid`` calls with distinct parameters, scalar ``hyp2f1`` and
  ~360 cold Jacobi rules per op; ``eigh_tridiagonal`` is ~40% of the
  ``identities`` suite.  The only workload that reaches ``ball`` and ``cli``.
* ``bilinear-twin``: the closed/numeric bilinear twin of acceptance
  criterion 5.  ~53% of an op is the scalar near-one connection fallback,
  against ~8% of ``nystrom-1024`` and ~3% of ``cli-suites``.
* ``nystrom-1024``: an order-1024 Nystrom matrix and its p-norm power
  method; ``_series_vec`` is ~83% of an op, in a few calls of 1M entries
  each.  Every fourth op is p = 2 and also runs the svd (the slowest ops).
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("cli-suites", "bilinear-twin", "nystrom-1024")

# Seconds per op at the seed commit on a 2-core Xeon (cli-suites counts the
# whole child process).  They fix how many ops a run of --seconds holds, so
# the sequence never depends on how fast the code under test is.
NOMINAL_OP_S = {"cli-suites": 5.0, "bilinear-twin": 0.3, "nystrom-1024": 1.75}

TWIN_ORDER = 192
TWIN_TOL = 1e-7              # acceptance criterion 5
NYSTROM_ORDER = 1024
NYSTROM_ENTRIES = 200
NYSTROM_EXCESS = 1e-9        # the estimate may overshoot the closed form by this
NYSTROM_SVD_TOL = 1e-8       # power method against svd at p = 2
NYSTROM_ENTRY_TOL = 1e-9     # matrix entries against mpmath.hyp2f1
DIGITS_CAP = 16.0


def op_count(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / NOMINAL_OP_S[workload]))


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """n draws on [lo, hi), one from each of n equal strata, in random order."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return [float(x) for x in lo + (hi - lo) * u]


def _choices(rng: np.random.Generator, n: int, values) -> list:
    """n values cycling evenly through ``values``, in random order."""
    return [values[i % len(values)] for i in rng.permutation(n)]


def make_ops(workload: str, seed: int, n: int) -> list[dict]:
    """The seeded op sequence of a workload, as plain JSON-able dicts."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cli-suites":
        mus = _strata(rng, n, 0.5, 3.0)
        sigmas = _strata(rng, n, 0.1, 2.0)
        ps = _strata(rng, n, 1.25, 4.0)
        dims = _choices(rng, n, (1, 2, 3))
        seeds = rng.integers(0, 2**31, size=n)
        return [{"argv": ["--suite", "all", "--format", "json",
                          "--seed", str(int(k)), "--mu", repr(mu),
                          "--sigma", repr(sigma), "--p", repr(p), "--n", str(dim)]}
                for mu, sigma, p, dim, k in zip(mus, sigmas, ps, dims, seeds)]
    if workload == "bilinear-twin":
        # acceptance criterion 5's distribution, drawn from the workload seed
        cols = (_strata(rng, n, 0.5, 3.0), _strata(rng, n, 0.0, 2.0),
                _strata(rng, n, 1.2, 4.0), _strata(rng, n, 1.05, 3.0),
                _strata(rng, n, -0.9, 1.5))
        return [dict(zip(("mu", "sigma", "p", "theta", "theta_tilde"), row),
                     order=TWIN_ORDER) for row in zip(*cols)]
    if workload == "nystrom-1024":
        svd = [k % 4 == 3 for k in range(n)]
        other = iter(_strata(rng, n - sum(svd), 1.2, 4.0))
        ps = [2.0 if s else next(other) for s in svd]
        mus = _strata(rng, n, 0.5, 3.0)
        ops = []
        for p, mu, u, s in zip(ps, mus, _strata(rng, n, 0.0, 1.0), svd):
            lo = max(0.0, 1.0 / p - 1.0) + 0.05
            entries = rng.integers(0, NYSTROM_ORDER, size=(NYSTROM_ENTRIES, 2))
            ops.append({"mu": mu, "sigma": lo + (2.0 - lo) * (1.0 - u), "p": p,
                        "order": NYSTROM_ORDER, "svd": s,
                        "entries": entries.tolist()})
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _digits(rel: float) -> float:
    return DIGITS_CAP if rel == 0.0 else min(DIGITS_CAP, -math.log10(rel))


def check_op(workload: str, op: dict, out: dict) -> tuple[bool, float | None, str]:
    """Reference check of one op's output: (passed, digits, reason).

    digits is None when the op raised and so produced no value."""
    if "error" in out:
        return False, None, out["error"]
    if workload == "cli-suites":
        import json

        records = json.loads(out["stdout"])
        bad = [r["scenario"] for r in records if r["status"] != "pass"]
        rel = max((abs(v) for r in records for v in r["rel_errors"].values()), default=0.0)
        ok = out["exit"] == 0 and not bad
        return ok, _digits(rel), "" if ok else f"exit {out['exit']}, not pass: {bad}"
    if workload == "bilinear-twin":
        rel = abs(out["closed"] - out["numeric"]) / abs(out["closed"])
        ok = rel <= TWIN_TOL
        return ok, _digits(rel), "" if ok else f"closed/numeric rel err {rel:.3g}"
    if workload == "nystrom-1024":
        import mpmath

        reasons = []
        if not out["estimate"] <= out["closed"] * (1.0 + NYSTROM_EXCESS):
            reasons.append(f"estimate {out['estimate']!r} above closed {out['closed']!r}")
        if op["svd"]:
            gap = abs(out["estimate"] - out["svd"]) / out["svd"]
            if not gap <= NYSTROM_SVD_TOL:
                reasons.append(f"power/svd rel gap {gap:.3g}")
        with mpmath.workdps(30):
            lam = (mpmath.mpf(op["mu"]) + mpmath.mpf(op["sigma"]) + 1) / 2
            worst = 0.0
            for z, f in zip(out["z"], out["f"]):
                ref = mpmath.hyp2f1(lam, lam, op["mu"], z)
                worst = max(worst, float(abs((f - ref) / ref)))
        if not worst <= NYSTROM_ENTRY_TOL:
            reasons.append(f"matrix entry rel err {worst:.3g} against mpmath")
        return not reasons, _digits(worst), "; ".join(reasons)
    raise ValueError(f"unknown workload {workload!r}")
