#!/usr/bin/env python3
"""Canonical dual windows across lattice densities on one cyclic group.

For each (translation, modulation) subgroup pair of Z_n, draw random
windows, compute frame bounds, and where the system is a frame solve for
the canonical dual and certify it.  Prints a table of density vs bounds
vs certification residual; exits 1 when a canonical dual fails its
duality check.  Above the dense cap the bounds columns read `skipped`, and
the NotAFrameError of `gabor_canonical_dual` alone leaves out a window; a
lattice where every window is left out reads `not a frame`.
"""

import argparse

import numpy as np

from gtiframes import (
    CapExceededError,
    NotAFrameError,
    check_gabor_duality,
    frame_bounds,
    gabor_canonical_dual,
    gabor_system,
    make_group,
    random_signal,
)
from gtiframes.sweeps import all_small_subgroups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=12, help="cyclic group order")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--windows", type=int, default=3, help="windows per lattice")
    args = parser.parse_args()

    group = make_group([args.order])
    rng = np.random.default_rng(args.seed)
    subgroups = sorted(all_small_subgroups(group), key=lambda s: -s.order)

    failures = 0
    print(f"group {group}: |translation| x |modulation| / |G| = redundancy")
    print(f"{'trans':>6} {'mod':>6} {'redundancy':>10} {'lower':>10} {'upper':>10} "
          f"{'dual residual':>14}")
    for trans in subgroups:
        for mod in subgroups:
            redundancy = trans.order * mod.order / group.size
            w = random_signal(group, rng)
            line = f"{trans.order:6d} {mod.order:6d} {redundancy:10.2f} "
            try:
                bounds = frame_bounds(gabor_system([[w]], trans, mod))
            except CapExceededError:
                line += f"{'skipped':>10} {'skipped':>10}"
            else:
                line += f"{bounds.lower:10.3e} {bounds.upper:10.3e}"
                if not bounds.is_frame:
                    print(line + "   not a frame")
                    continue
            residuals = []
            for _ in range(args.windows):
                w = random_signal(group, rng)
                try:
                    dual = gabor_canonical_dual(w, trans, mod)
                except NotAFrameError:
                    continue
                verdict = check_gabor_duality([[w]], [[dual]], trans, mod)
                residuals.append(verdict.max_residual)
                failures += not verdict.passed
            if residuals:
                print(line + f" {max(residuals):14.3e}")
            else:
                print(line + "   not a frame")
    if failures:
        print(f"{failures} canonical duals failed the duality check")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
