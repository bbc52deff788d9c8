#!/usr/bin/env python3
"""Multiplexing demo: push N independent channels through one coefficient
stream of an engineered super dual pair and measure recovery error.

Exits 1 when the worst relative L2 error of a channel, over all trials, is
not finite or exceeds 1e-9.

With --emit, also writes the pair and a signal file as JSON configs so the
same roundtrip can be replayed through the command line front end.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from gtiframes import (
    SuperSignal,
    analysis_coeffs,
    check_super_duality,
    make_group,
    multiplex_encode,
    synthesis,
)
from gtiframes.configio import descriptor_to_config, super_signal_to_json
from gtiframes.sweeps import _random_windows, dual_pair

MAX_RELATIVE_ERROR = 1e-9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", type=int, nargs="+", default=[8])
    parser.add_argument("--channels", type=int, default=2)
    parser.add_argument("--layers", type=int, default=1)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--emit", metavar="DIR", default=None,
                        help="write pair + signals configs into DIR")
    args = parser.parse_args()

    group = make_group(args.orders)
    rng = np.random.default_rng(args.seed)
    f_sys, h_sys = dual_pair(rng, group, args.channels, n_layers=args.layers)
    verdict = check_super_duality(f_sys, h_sys)
    print(f"group {group}, {args.channels} channels, {args.layers} layer(s)")
    print(f"pair certified dual: {verdict.passed} (residual {verdict.max_residual:.3e})")
    stream = sum(e.size for e in multiplex_encode(
        (f_sys, h_sys), SuperSignal(_random_windows(rng, group, args.channels))
    ).entries)
    print(f"coefficient stream length {stream} carries {args.channels} x {group.size} samples")

    errors = []
    for t in range(args.trials):
        signals = SuperSignal(_random_windows(rng, group, args.channels))
        # The pair was certified by the first encode, so the trials run the codec directly.
        back = synthesis(h_sys, analysis_coeffs(f_sys, signals))
        # Per channel ||back - sent|| / ||sent||, the measure of `gtiframes multiplex`.
        errors.append([np.linalg.norm(b.values - a.values) / max(a.norm(), 1e-300)
                       for a, b in zip(signals.channels, back.channels)])
        # np.max keeps a NaN, which the built-in max would drop.
        print(f"  trial {t}: max relative channel error {np.max(errors[-1]):.3e}")
    worst = float(np.max(errors))
    print(f"worst error over {args.trials} trials: {worst:.3e}")

    if args.emit:
        out = Path(args.emit)
        out.mkdir(parents=True, exist_ok=True)
        (out / "pair_f.json").write_text(json.dumps(descriptor_to_config(f_sys), indent=2))
        (out / "pair_h.json").write_text(json.dumps(descriptor_to_config(h_sys), indent=2))
        signals = SuperSignal(_random_windows(rng, group, args.channels))
        (out / "signals.json").write_text(json.dumps(super_signal_to_json(signals), indent=2))
        print(f"configs written to {out}/ (try: gtiframes multiplex "
              f"{out}/pair_f.json {out}/pair_h.json --signals {out}/signals.json)")
    if not (math.isfinite(worst) and worst <= MAX_RELATIVE_ERROR):
        print(f"recovery error {worst:.3e} is not within {MAX_RELATIVE_ERROR:.0e}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
