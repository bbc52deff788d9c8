"""Self-test of the benchmark: tiny-size smoke runs of every workload, the
metric names and units against BENCHMARK.json, and one negative control per
workload showing that its correctness gate can fail.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import gtiframes  # noqa: E402
import gtiframes.configio  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sweep216": {"corpora": 1, "per_group": {"random": 1, "full_group": 1, "dual": 1,
                                            "orthogonal": 1}},
    "gabor_wide": {"order": 512, "windows": 1},
    "codec_stream": {"order": 256, "frames": 2},
}


def benchmark_spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(name: str, trace: bool = False, tmp_path: Path | None = None) -> dict:
    spans = tmp_path / "spans.jsonl" if tmp_path is not None else None
    result, _ = run.run_workload(name, seed=3, seconds=0.2, trace=trace, sizes=TINY[name],
                                 spans_path=spans)
    return result


def test_benchmark_json_names_every_workload_and_metric():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = dict(tracing.PER_LAYER_UNITS, **{"trace.overhead_ratio": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_smoke_reports_end_to_end_metrics(name):
    result = tiny_run(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = {m: v["unit"] for m, v in result["metrics"].items()}
    assert units == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_smoke_reports_per_layer_metrics(name, tmp_path):
    result = tiny_run(name, trace=True, tmp_path=tmp_path)
    assert result["correct"]
    spec = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == spec
    values = {m: v["value"] for m, v in result["metrics"].items()}
    busy = {
        "sweep216": ("sweeps.self_s", "analysis.dense_rows", "characterization.verdicts"),
        "gabor_wide": ("fourier.points", "systems.generators_built", "analysis.cap_fallbacks"),
        "codec_stream": ("analysis.coefficients", "analysis.table_bytes_computed",
                         "configio.json_bytes"),
    }[name]
    assert all(values[m] > 0 for m in busy)
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["workload"] == name and len(lines) > 1


def test_tracer_self_times_partition_root_spans_and_uninstall_restores():
    case = gtiframes.sweeps.sweep_cases(seed=5, per_group={"random": 1, "full_group": 0,
                                                           "dual": 0, "orthogonal": 0})[0]
    original = gtiframes.characterization.dft
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gtiframes.characterization.dft is not original
        with tracer.span("op"):
            gtiframes.check_super_duality(case.f_system, case.h_system)
    finally:
        tracer.uninstall()
    assert gtiframes.characterization.dft is original
    root = tracer.spans[0]
    total_self = sum(tracer.self_times()["setup"].values())
    assert total_self == pytest.approx(root[tracing.END] - root[tracing.START], rel=1e-9)
    assert tracer.counts["setup"]["characterization.verdicts"] == 1


def test_fingerprint_ignores_last_bit_noise_only():
    values = np.random.default_rng(0).standard_normal(4096) + 0j
    assert workloads.fingerprint(values) == workloads.fingerprint(values * (1 + 1e-15))
    assert workloads.fingerprint(values) != workloads.fingerprint(values * (1 + 1e-3))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_reference_inputs_match_committed_fingerprints(name):
    workload = workloads.WORKLOADS[name](workloads.REFERENCE_SEED)
    assert workload.reference_fingerprint() == workloads.REFERENCE_FINGERPRINTS[name]


# Negative controls: each breaks one thing the gate must catch.

def test_sweep216_gate_catches_a_flipped_oracle(monkeypatch):
    residual = gtiframes.gramian_identity_residual
    monkeypatch.setattr(gtiframes, "gramian_identity_residual",
                        lambda matrix: 0.0 if residual(matrix) > 1e-6 else 1.0)
    result = tiny_run("sweep216")
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_gabor_wide_gate_catches_a_corrupted_dual(monkeypatch):
    build = workloads.GaborWide.build_inputs

    def corrupted_duals(self, seed):
        windows, _, corrupted = build(self, seed)
        return windows, corrupted, corrupted

    monkeypatch.setattr(workloads.GaborWide, "build_inputs", corrupted_duals)
    result = tiny_run("gabor_wide")
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_codec_stream_gate_catches_a_wrong_sign_coefficient(monkeypatch):
    decode = gtiframes.configio.coefficients_from_json

    def flip_one(doc):
        coeffs = decode(doc)
        coeffs.entries[0][0, 0] *= -1
        return coeffs

    monkeypatch.setattr(gtiframes.configio, "coefficients_from_json", flip_one)
    result = tiny_run("codec_stream")
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep216", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
