"""Batch front end: parse configs, run verdicts and oracles, emit JSON reports.

Exit codes: 0 when the requested verdict passes (or the command only reports),
1 when a verdict fails, 2 on any parse or structural error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import (
    DEFAULT_CAP,
    frame_bounds,
    gramian_identity_residual,
    mixed_dual_gramian,
    analysis_coeffs,
    synthesis,
)
from .characterization import (
    check_gabor_duality,
    check_orthogonality,
    check_parseval_super,
    check_super_duality,
    fiber_table,
    gabor_canonical_dual,
)
from .configio import (
    coefficients_from_json,
    coefficients_to_json,
    config_digest,
    load_config,
    super_signal_from_json,
    super_signal_to_json,
    vector_to_json,
    _config_doc,
    _config_section,
    _structured_spec,
)
from .errors import CapExceededError, ConfigError, GtiError
from .systems import Verdict, require_matching_structure


def _verdict_json(verdict: Verdict) -> dict:
    doc = {
        "pass": verdict.passed,
        "max_residual": verdict.max_residual,
        "tolerance": verdict.tolerance,
        "witnesses": [
            {
                "channels": list(w.channels),
                "offset": list(w.offset),
                "frequency": list(w.frequency),
                "residual": w.residual,
            }
            for w in verdict.witnesses
        ],
    }
    if verdict.bessel_bound is not None:
        doc["bessel_bound"] = verdict.bessel_bound
    if verdict.blocks is not None:
        doc["blocks"] = {
            f"{n1},{n2}": {"pass": sub.passed, "max_residual": sub.max_residual}
            for (n1, n2), sub in sorted(verdict.blocks.items())
        }
    return doc


def _emit(report: dict, output: str | None) -> None:
    """Write the report to `output`, then print it: a failed write prints nothing."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if output:
        Path(output).write_text(text + "\n")
    print(text)
    sys.stdout.flush()


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_info(args: argparse.Namespace) -> tuple[dict, int]:
    system, doc = load_config(args.config, seed=args.seed)
    layers = []
    for layer in system.layers:
        ann = layer.subgroup.annihilator
        layers.append(
            {
                "subgroup_order": layer.subgroup.order,
                "covolume": layer.subgroup.covolume,
                "annihilator": [list(e) for e in ann.elements()],
                "generator_count": len(layer.generators),
            }
        )
    report = {
        "command": "info",
        "config_digest": config_digest(doc),
        "group": list(system.group.orders),
        "group_size": system.group.size,
        "channels": system.channels,
        "layers": layers,
    }
    try:
        bounds = frame_bounds(system, cap=args.cap)
        report["frame_bounds"] = {"lower": bounds.lower, "upper": bounds.upper}
    except CapExceededError as exc:
        report["frame_bounds_skipped"] = str(exc)
    return report, 0


def _fiber_dump(f_system, h_system) -> dict:
    table = fiber_table(f_system, h_system)
    dump: dict = {"offsets": [list(o) for o in table.offsets]}
    tables: dict = {}
    for offset, block in zip(dump["offsets"], table.stack):
        for n1 in range(table.channels):
            for n2 in range(table.channels):
                tables.setdefault(f"{n1},{n2}", {})[str(offset)] = vector_to_json(block[n1, n2])
    dump["tables"] = tables
    return dump


def cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    f_system, f_doc = load_config(args.config_f, seed=args.seed)
    report: dict = {
        "command": f"check {args.kind}",
        "config_digest_f": config_digest(f_doc),
    }
    if args.kind == "parseval":
        if args.config_h is not None:
            raise ConfigError("parseval takes a single configuration")
        h_system = f_system
    elif args.config_h is None:
        h_system = f_system
    else:
        h_system, h_doc = load_config(args.config_h, seed=args.seed)
        report["config_digest_h"] = config_digest(h_doc)

    start = time.perf_counter()
    if args.kind == "duality":
        verdict = check_super_duality(f_system, h_system, tol=args.tol, top_k=args.top_k)
    elif args.kind == "orthogonality":
        verdict = check_orthogonality(f_system, h_system, tol=args.tol, top_k=args.top_k)
    else:
        verdict = check_parseval_super(f_system, tol=args.tol, top_k=args.top_k)
    report["verdict"] = _verdict_json(verdict)
    if args.oracle:
        try:
            matrix = mixed_dual_gramian(f_system, h_system, cap=args.cap)
            if args.kind == "orthogonality":
                oracle_residual = float(np.abs(matrix).max())
            else:
                oracle_residual = gramian_identity_residual(matrix)
            agrees = (oracle_residual <= verdict.tolerance) == verdict.passed
            report["oracle_residual"] = oracle_residual
            report["verdict_agrees_with_oracle"] = agrees
        except CapExceededError as exc:
            report["oracle_skipped"] = str(exc)
    if args.dump_fibers:
        report["fibers"] = _fiber_dump(f_system, h_system)
    report["timing_seconds"] = time.perf_counter() - start
    return report, 0 if verdict.passed else 1


def cmd_gabor_dual(args: argparse.Namespace) -> tuple[dict, int]:
    doc = _config_doc(args.config)
    group, channels, kind, sec = _config_section(doc)
    if kind != "gabor":
        raise ConfigError("gabor-dual needs a structured 'gabor' configuration")
    if channels != 1:
        raise ConfigError("gabor-dual is defined for single-channel configurations")
    windows, _, translation, modulation = _structured_spec(group, channels, kind, sec, args.seed)
    if len(windows) != 1:
        raise ConfigError("gabor-dual needs exactly one base window")
    window = windows[0][0]
    start = time.perf_counter()
    dual = gabor_canonical_dual(window, translation, modulation)
    verdict = check_gabor_duality([[window]], [[dual]], translation, modulation,
                                  tol=args.tol, top_k=args.top_k)
    dual_doc = {
        "group": list(group.orders),
        "channels": 1,
        "gabor": {
            "windows": [[vector_to_json(dual.values)]],
            "translation_generators": sec["translation_generators"],
            "modulation_generators": sec["modulation_generators"],
        },
    }
    _write_json(args.dual_output, dual_doc)
    report = {
        "command": "gabor-dual",
        "config_digest": config_digest(doc),
        "dual_config": args.dual_output,
        "dual_window": vector_to_json(dual.values),
        "certification": _verdict_json(verdict),
        "timing_seconds": time.perf_counter() - start,
    }
    return report, 0 if verdict.passed else 1


def cmd_multiplex(args: argparse.Namespace) -> tuple[dict, int]:
    f_system, f_doc = load_config(args.config_f, seed=args.seed)
    h_system, h_doc = load_config(args.config_h, seed=args.seed)
    require_matching_structure(f_system, h_system)
    report: dict = {
        "command": f"multiplex {args.mode}",
        "config_digest_f": config_digest(f_doc),
        "config_digest_h": config_digest(h_doc),
    }
    start = time.perf_counter()
    verdict = check_super_duality(f_system, h_system, tol=args.tol, top_k=args.top_k)
    report["certification"] = _verdict_json(verdict)
    if not verdict.passed and not args.force:
        raise GtiError(
            f"pair is not a certified dual pair (residual {verdict.max_residual:.3e}); "
            "rerun with --force to report anyway"
        )

    def read_signals() -> "SuperSignal":
        if not args.signals:
            raise ConfigError(f"mode {args.mode} needs --signals")
        return super_signal_from_json(json.loads(Path(args.signals).read_text()))

    # The certification above stops an uncertified pair unless --force, so the
    # codec runs without repeating it.
    if args.mode == "encode":
        signals = read_signals()
        coeffs = analysis_coeffs(f_system, signals)
        if args.coeffs_out:
            _write_json(args.coeffs_out, coefficients_to_json(coeffs))
        report["coefficient_count"] = coeffs.total_size()
    elif args.mode == "decode":
        if not args.coeffs:
            raise ConfigError("mode decode needs --coeffs")
        coeffs = coefficients_from_json(json.loads(Path(args.coeffs).read_text()))
        signals = synthesis(h_system, coeffs)
        if args.signals_out:
            _write_json(args.signals_out, super_signal_to_json(signals))
    else:  # roundtrip
        signals = read_signals()
        coeffs = analysis_coeffs(f_system, signals)
        recovered = synthesis(h_system, coeffs)
        errors = []
        for orig, back in zip(signals.channels, recovered.channels):
            # Both norms of the channel scaled to a largest modulus of 1, so
            # their sums of squares cannot overflow.
            peak = float(np.abs(orig.values).max()) or 1.0
            norm = max(float(np.linalg.norm(orig.values / peak)), 1e-300)
            errors.append(float(np.linalg.norm(back.values / peak - orig.values / peak)) / norm)
        report["relative_errors_per_channel"] = errors
        report["max_relative_error"] = max(errors)
        if args.signals_out:
            _write_json(args.signals_out, super_signal_to_json(recovered))
    report["timing_seconds"] = time.perf_counter() - start
    return report, 0


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite non-negative number, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtiframes",
        description="Duality and orthogonality checks for layered translation"
                    " systems on finite abelian groups",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # Each flag goes to the subcommands that read it.
    every = argparse.ArgumentParser(add_help=False)
    every.add_argument("--seed", type=int, default=0,
                       help="seed for bare 'random' window shorthands")
    every.add_argument("--output", default=None, help="also write the report here")
    verdict = argparse.ArgumentParser(add_help=False)
    verdict.add_argument("--tol", type=_tolerance, default=None,
                         help="residual tolerance (default: 1e-9, scaled by the frame "
                              f"bounds when N*|G| <= {DEFAULT_CAP})")
    verdict.add_argument("--top-k", type=_non_negative_int, default=10,
                         help="witnesses to keep")
    dense = argparse.ArgumentParser(add_help=False)
    dense.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="max N*|G| for dense-matrix operations (info's bounds, "
                            "check --oracle); verdicts ignore it")

    p_info = sub.add_parser("info", parents=[every, dense], help="describe a configuration")
    p_info.add_argument("config")
    p_info.set_defaults(handler=cmd_info)

    p_check = sub.add_parser("check", parents=[every, verdict, dense],
                             help="run a duality/orthogonality/parseval verdict")
    p_check.add_argument("kind", choices=["duality", "orthogonality", "parseval"])
    p_check.add_argument("config_f")
    p_check.add_argument("config_h", nargs="?", default=None)
    p_check.add_argument("--oracle", action="store_true",
                         help="also run the dense Gramian oracle and report agreement")
    p_check.add_argument("--dump-fibers", action="store_true",
                         help="include the full fiber table in the report")
    p_check.set_defaults(handler=cmd_check)

    p_dual = sub.add_parser("gabor-dual", parents=[every, verdict],
                            help="compute the canonical dual window")
    p_dual.add_argument("config")
    p_dual.add_argument("--dual-output", default="dual_window.json",
                        help="path for the emitted dual-window configuration")
    p_dual.set_defaults(handler=cmd_gabor_dual)

    p_mux = sub.add_parser("multiplex", parents=[every, verdict],
                           help="encode/decode channels through a dual pair")
    p_mux.add_argument("config_f")
    p_mux.add_argument("config_h")
    p_mux.add_argument("--mode", choices=["encode", "decode", "roundtrip"],
                       default="roundtrip")
    p_mux.add_argument("--signals", default=None, help="input signals file")
    p_mux.add_argument("--coeffs", default=None, help="input coefficients file")
    p_mux.add_argument("--signals-out", default=None, help="output signals file")
    p_mux.add_argument("--coeffs-out", default=None, help="output coefficients file")
    p_mux.add_argument("--force", action="store_true",
                       help="run even when the pair fails certification")
    p_mux.set_defaults(handler=cmd_multiplex)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.handler(args)
        _emit(report, args.output)
    except (GtiError, ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # stdout was closed: the rest goes to devnull, so the flush at exit raises nothing.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
