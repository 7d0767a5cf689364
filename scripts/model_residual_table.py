#!/usr/bin/env python3
"""Residual table for the local model geometry.

Runs every numerical verifier (model twist, involution identities,
handle symmetry, suspension symmetry, splitting) over a range of sphere
dimensions and both involution kinds, and prints the worst residual per
identity.  Useful for eyeballing how the finite-difference residuals
scale with dimension.

Usage: python3 scripts/model_residual_table.py [--samples 4000]
       [--dims 1 2 3] [--seed 0]
"""

import argparse

import numpy as np

from twistcheck import modelgeo as mg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=4000)
    ap.add_argument("--dims", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epsilon", type=float, default=1.0)
    args = ap.parse_args()
    # the Dehn profile pi - r needs 0 < epsilon <= pi
    if not 0 < args.epsilon <= np.pi:
        ap.error("--epsilon must be a number > 0 and <= pi")

    nu = mg.ProfileFunction("dehn", args.epsilon)
    rows = []
    for dim in args.dims:
        rows.append((f"twist n={dim}", mg.verify_model_twist(
            nu, dim, args.samples, seed=args.seed)))
        for kind in ("id", "r"):
            rows.append((f"lemma n={dim} {kind}",
                         mg.verify_lemma_identities(
                             kind, dim, args.samples, seed=args.seed)))
            rows.append((f"handle n={dim} {kind}",
                         mg.verify_handle_symmetry(
                             kind, nu, dim, args.samples,
                             seed=args.seed)))
            rows.append((f"suspension n={dim} {kind}",
                         mg.verify_suspension_symmetry(
                             kind, nu, dim, args.samples,
                             seed=args.seed)))
            rows.append((f"splitting n={dim} {kind}",
                         mg.verify_involution_splitting(
                             kind, nu, dim, args.samples,
                             seed=args.seed)))

    width = max(len(label) for label, _ in rows)
    for label, rep in rows:
        worst = max(rep.residuals.values())
        detail = ", ".join(f"{k}={v:.1e}"
                           for k, v in sorted(rep.residuals.items()))
        print(f"{label:<{width}}  max {worst:.2e}   {detail}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
