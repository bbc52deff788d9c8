#!/usr/bin/env python3
"""Run the standard sweep corpus and tabulate verdict/oracle agreement.

For every case the duality and orthogonality verdicts (fiber route) are
compared against the dense mixed dual Gramian (matrix route), and the
translation-commutation defect is compared against the off-zero fibers.
"""

import argparse
import time

import numpy as np

from gtiframes import (
    check_orthogonality,
    check_super_duality,
    commutation_defect,
    fiber_table,
    gramian_identity_residual,
    mixed_dual_gramian,
)
from gtiframes.sweeps import sweep_cases


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20240801)
    parser.add_argument("--verbose", action="store_true", help="print one line per case")
    args = parser.parse_args()

    start = time.perf_counter()
    cases = sweep_cases(seed=args.seed)
    stats = {"cases": 0, "dual_pass": 0, "orth_pass": 0,
             "dual_agree": 0, "orth_agree": 0, "commute_agree": 0}
    for case in cases:
        verdict = check_super_duality(case.f_system, case.h_system)
        orth = check_orthogonality(case.f_system, case.h_system, tol=verdict.tolerance)
        matrix = mixed_dual_gramian(case.f_system, case.h_system)
        dual_oracle = gramian_identity_residual(matrix)
        orth_oracle = float(np.abs(matrix).max())
        defect = commutation_defect(case.f_system, case.h_system, matrix=matrix)
        fibers = fiber_table(case.f_system, case.h_system)
        off_translation = np.abs(fibers.stack[fibers.offset_indices != 0]).max(initial=0.0)

        stats["cases"] += 1
        stats["dual_pass"] += verdict.passed
        stats["orth_pass"] += orth.passed
        stats["dual_agree"] += verdict.passed == (dual_oracle <= verdict.tolerance)
        stats["orth_agree"] += orth.passed == (orth_oracle <= orth.tolerance)
        stats["commute_agree"] += (defect <= verdict.tolerance) == (
            off_translation <= verdict.tolerance
        )
        if args.verbose:
            print(
                f"{case.name:24s} kind={case.kind:10s} dual={verdict.passed!s:5s} "
                f"residual={verdict.max_residual:10.3e} oracle={dual_oracle:10.3e} "
                f"defect={defect:10.3e}"
            )
    elapsed = time.perf_counter() - start

    n = stats["cases"]
    print(f"\n{n} cases in {elapsed:.1f}s (seed {args.seed})")
    print(f"  duality verdicts passing:        {stats['dual_pass']:4d}")
    print(f"  orthogonality verdicts passing:  {stats['orth_pass']:4d}")
    print(f"  duality verdict == oracle:       {stats['dual_agree']:4d}/{n}")
    print(f"  orthogonality verdict == oracle: {stats['orth_agree']:4d}/{n}")
    print(f"  commutation == fiber criterion:  {stats['commute_agree']:4d}/{n}")
    all_agree = stats["dual_agree"] == stats["orth_agree"] == stats["commute_agree"] == n
    print("  full agreement" if all_agree else "  DISAGREEMENT FOUND")
    return 0 if all_agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
