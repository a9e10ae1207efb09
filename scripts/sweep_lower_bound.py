#!/usr/bin/env python3
"""Trace how the extremal-family lower bound climbs toward the exact norm.

For a chosen (mu, sigma, p) this sweeps the family path parameter eta over
a logarithmic grid and prints, per eta, the closed-form bilinear value, its
independent double-quadrature evaluation, and the fraction of the exact
operator norm recovered.  The fraction should increase toward 1 as eta
shrinks; the quadrature column guards the closed form.  The script exits 1
when the last fraction is 0.98 or less, or when any row's quadrature
differs from its closed value by more than TWIN_RTOL relative (the guard
``bilinear_form_numeric`` applies itself).

    python3 scripts/sweep_lower_bound.py
    python3 scripts/sweep_lower_bound.py --mu 2 --sigma 0.5 --p 3 --decades 6
"""

import argparse
import math
import sys

from bergnorm.intop import OperatorParams, norm_formula
from bergnorm.normest import bilinear_form_closed, bilinear_form_numeric, family_on_path

TWIN_RTOL = 1e-6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--sigma", type=float, default=0.0)
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--decades", type=int, default=4,
                        help="sweep eta = 10^-1 .. 10^-decades")
    parser.add_argument("--per-decade", type=int, default=2)
    parser.add_argument("--quadrature-order", type=int, default=128)
    args = parser.parse_args()

    params = OperatorParams(mu=args.mu, sigma=args.sigma)
    exact = norm_formula(params, args.p)
    print(f"mu={args.mu:g} sigma={args.sigma:g} p={args.p:g}  "
          f"exact norm = {exact:.12g}")
    print(f"{'eta':>12}  {'closed bilinear':>18}  {'quadrature':>18}  "
          f"{'fraction':>10}")

    steps = (args.decades - 1) * args.per_decade
    worst_gap = 0.0
    for k in range(steps + 1):
        eta = 10.0 ** (-1.0 - k / args.per_decade)
        fam = family_on_path(params, args.p, eta)
        closed = bilinear_form_closed(params, fam)
        numeric = bilinear_form_numeric(params, fam,
                                        order=args.quadrature_order)
        worst_gap = max(worst_gap, abs(closed - numeric) / abs(closed))
        print(f"{eta:12.3e}  {closed:18.12g}  {numeric:18.12g}  "
              f"{closed / exact:10.6f}")

    final = closed / exact
    print(f"\nrecovered {100.0 * final:.4f}% of the exact norm at "
          f"eta = {eta:.1e}")
    print(f"worst |closed - quadrature| / |closed| = {worst_gap:.3e} "
          f"(limit {TWIN_RTOL:g})")
    return 0 if final > 0.98 and worst_gap <= TWIN_RTOL else 1


if __name__ == "__main__":
    sys.exit(main())
