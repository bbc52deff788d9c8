"""Front-end behaviour: config round trips, exit codes, command flows."""

import contextlib
import copy
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gtiframes import (
    SuperSignal,
    analysis_coeffs,
    fiber_table,
    make_group,
    mixed_dual_gramian,
)
from gtiframes.cli import main
from gtiframes.configio import (
    coefficients_to_json,
    config_digest,
    descriptor_to_config,
    parse_config,
    super_signal_to_json,
    vector_to_json,
)
from gtiframes.sweeps import _random_windows, dual_pair, matched_random_pair


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


PARSEVAL_DOC = {
    "group": [4],
    "channels": 2,
    "layers": [
        {
            "subgroup_generators": [[1]],
            "generators": [
                {"weight": 1.0, "windows": ["delta", {"re": [0, 0, 0, 0], "im": [0, 0, 0, 0]}]},
                {"weight": 1.0, "windows": [{"re": [0, 0, 0, 0], "im": [0, 0, 0, 0]}, "delta"]},
            ],
        }
    ],
}

GABOR_DOC = {
    "group": [8],
    "channels": 1,
    "gabor": {
        "windows": [["random:42"]],
        "translation_generators": [[2]],
        "modulation_generators": [[2]],
    },
}

# One layer on <2> of Z8 with two random generators: a failing Parseval check.
Z8_DOC = {
    "group": [8],
    "channels": 1,
    "layers": [{"subgroup_generators": [[2]], "generators": [
        {"windows": ["random:1"]}, {"windows": ["random:2"]}]}],
}


def descriptors_equal(a, b) -> bool:
    if a.group.orders != b.group.orders or a.channels != b.channels:
        return False
    if len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if not la.subgroup.same_set(lb.subgroup):
            return False
        if len(la.generators) != len(lb.generators):
            return False
        for ga, gb in zip(la.generators, lb.generators):
            if ga.weight != gb.weight:
                return False
            for wa, wb in zip(ga.windows, gb.windows):
                if not np.array_equal(wa.values, wb.values):
                    return False
    return True


class TestConfigIO:
    @pytest.mark.parametrize("doc", [PARSEVAL_DOC, GABOR_DOC])
    def test_expand_serialize_reparse_roundtrip(self, doc):
        system = parse_config(doc)
        serialized = descriptor_to_config(system)
        again = parse_config(serialized)
        assert descriptors_equal(system, again)
        # Serialization itself is stable.
        assert config_digest(serialized) == config_digest(descriptor_to_config(again))

    def test_structured_wavelet_and_wavepacket_forms(self):
        base = {
            "group": [8],
            "channels": 1,
            "wavelet": {
                "windows": [["random:1"]],
                "automorphism_matrices": [[[3]], [[5]]],
                "translation_generators": [[4]],
            },
        }
        system = parse_config(base)
        assert len(system.layers) == 2
        wp = {
            "group": [8],
            "channels": 1,
            "wavepacket": {
                "windows": [["random:1"]],
                "automorphism_matrices": [[[3]]],
                "translation_generators": [[4]],
                "modulation_generators": [[4]],
            },
        }
        system = parse_config(wp)
        assert len(system.layers[0].generators) == 2  # |J| * |Lambda|

    def test_window_shorthands(self):
        doc = {
            "group": [4],
            "channels": 1,
            "layers": [
                {
                    "subgroup_generators": [[1]],
                    "generators": [
                        {"windows": ["delta"]},
                        {"windows": ["constant"]},
                        {"windows": ["indicator:[[2]]"]},
                        {"windows": ["random:7"]},
                    ],
                }
            ],
        }
        system = parse_config(doc)
        wins = [gen.windows[0].values for gen in system.layers[0].generators]
        assert np.allclose(wins[0], [1, 0, 0, 0])
        assert np.allclose(wins[1], [1, 1, 1, 1])
        assert np.allclose(wins[2], [1, 0, 1, 0])
        again = parse_config(doc)
        assert np.array_equal(wins[3], again.layers[0].generators[3].windows[0].values)

    def test_bare_random_is_seed_zero(self):
        doc = {"group": [6], "channels": 1, "layers": [{"subgroup_generators": [[2]],
               "generators": [{"windows": ["random"]}, {"windows": ["random:0"]}]}]}
        bare, zero = (gen.windows[0].values for gen in parse_config(doc).layers[0].generators)
        assert bare.tobytes() == zero.tobytes()

    def test_bad_window_length_names_location(self):
        from gtiframes import ConfigError

        doc = {
            "group": [4],
            "channels": 1,
            "layers": [
                {
                    "subgroup_generators": [[1]],
                    "generators": [{"windows": [{"re": [0, 0], "im": [0, 0]}]}],
                }
            ],
        }
        with pytest.raises(ConfigError, match="layer 0 generator 0 window 0"):
            parse_config(doc)


class TestCheckCommand:
    def test_parseval_pass_exit_zero(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", PARSEVAL_DOC)
        code, report, _ = run_cli(capsys, "check", "parseval", cfg, "--oracle")
        assert code == 0
        assert report["verdict"]["pass"] is True
        assert report["verdict_agrees_with_oracle"] is True

    def test_delta_orthogonality_fails_exit_one(self, tmp_path, capsys):
        doc = {
            "group": [4],
            "channels": 1,
            "layers": [
                {"subgroup_generators": [[1]], "generators": [{"windows": ["delta"]}]}
            ],
        }
        cfg = write_json(tmp_path / "d.json", doc)
        code, report, _ = run_cli(capsys, "check", "orthogonality", cfg, cfg)
        assert code == 1
        assert report["verdict"]["max_residual"] == pytest.approx(1.0)

    def test_negative_top_k_exit_two(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "z8.json", Z8_DOC)
        _, report, _ = run_cli(capsys, "check", "parseval", cfg, "--top-k", "0")
        assert report["verdict"]["witnesses"] == []
        _, report, _ = run_cli(capsys, "check", "parseval", cfg)
        assert len(report["verdict"]["witnesses"]) == 2  # one per offset of ann(<2>)
        with pytest.raises(SystemExit) as exc:
            main(["check", "parseval", cfg, "--top-k", "-1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--top-k: must be a non-negative integer" in captured.err

    def test_closed_stdout_exit_two_without_traceback(self, tmp_path):
        cfg = write_json(tmp_path / "z8.json", Z8_DOC)
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gtiframes", "check", "parseval", cfg, "--top-k", "0"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "Broken pipe" in proc.stderr

    def test_unwritable_output_exit_two_prints_nothing(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "z8.json", Z8_DOC)
        out = tmp_path / "missing" / "report.json"
        code, report, err = run_cli(capsys, "check", "parseval", cfg, "--output", str(out))
        assert code == 2 and report is None and not out.exists()
        assert err.startswith("error:") and "No such file or directory" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_non_finite_or_negative_tol_exit_two(self, tmp_path, capsys, tol):
        cfg = write_json(tmp_path / "z8.json", Z8_DOC)
        with pytest.raises(SystemExit) as exc:
            main(["check", "parseval", cfg, "--tol", tol])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--tol: must be a finite non-negative number" in captured.err

    def test_random_pair_oracle_agreement(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        f_sys, h_sys = matched_random_pair(rng, make_group([8]), 2, 2, 2)
        f_cfg = write_json(tmp_path / "f.json", descriptor_to_config(f_sys))
        h_cfg = write_json(tmp_path / "h.json", descriptor_to_config(h_sys))
        code, report, _ = run_cli(capsys, "check", "duality", f_cfg, h_cfg, "--oracle")
        assert code == 1
        assert report["verdict_agrees_with_oracle"] is True

    def test_orthogonality_oracle_is_the_largest_gramian_entry(self, tmp_path, capsys):
        # The oracle of orthogonality is max |M|, not the distance to the identity.
        rng = np.random.default_rng(5)
        f_sys, h_sys = matched_random_pair(rng, make_group([8]), 2, 2, 2)
        f_cfg = write_json(tmp_path / "f.json", descriptor_to_config(f_sys))
        h_cfg = write_json(tmp_path / "h.json", descriptor_to_config(h_sys))
        code, report, _ = run_cli(capsys, "check", "orthogonality", f_cfg, h_cfg, "--oracle")
        assert code == 1
        matrix = mixed_dual_gramian(f_sys, h_sys)
        assert report["oracle_residual"] == float(np.abs(matrix).max())
        assert report["verdict_agrees_with_oracle"] is True
        # A zero analysis window: zero Gramian, a passing verdict the oracle agrees with.
        zero = copy.deepcopy(PARSEVAL_DOC)
        zero["layers"][0]["generators"][0]["windows"][0] = {"re": [0] * 4, "im": [0] * 4}
        zero["layers"][0]["generators"][1]["windows"][1] = {"re": [0] * 4, "im": [0] * 4}
        f_cfg = write_json(tmp_path / "p.json", PARSEVAL_DOC)
        h_cfg = write_json(tmp_path / "z.json", zero)
        code, report, _ = run_cli(capsys, "check", "orthogonality", f_cfg, h_cfg, "--oracle")
        assert code == 0
        assert report["oracle_residual"] == 0.0
        assert report["verdict_agrees_with_oracle"] is True

    def test_oracle_above_cap_is_skipped_and_verdict_unchanged(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        f_sys, h_sys = matched_random_pair(rng, make_group([8]), 2, 2, 2)
        f_cfg = write_json(tmp_path / "f.json", descriptor_to_config(f_sys))
        h_cfg = write_json(tmp_path / "h.json", descriptor_to_config(h_sys))
        _, full, _ = run_cli(capsys, "check", "duality", f_cfg, h_cfg, "--oracle")
        code, capped, _ = run_cli(capsys, "check", "duality", f_cfg, h_cfg, "--oracle",
                                  "--cap", "8")
        assert code == 1
        assert capped["oracle_skipped"] == "dense operation needs 16 rows, above the cap of 8"
        assert "oracle_residual" not in capped and "verdict_agrees_with_oracle" not in capped
        assert "oracle_skipped" not in full and "oracle_residual" in full
        assert capped["verdict"] == full["verdict"]

    def test_parseval_with_two_configs_exit_two(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", PARSEVAL_DOC)
        code = main(["check", "parseval", cfg, cfg])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: parseval takes a single configuration\n"

    def test_duality_with_one_config_is_parseval(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "z8.json", Z8_DOC)
        code, duality, _ = run_cli(capsys, "check", "duality", cfg)
        _, parseval, _ = run_cli(capsys, "check", "parseval", cfg)
        assert code == 1
        assert "config_digest_h" not in duality
        assert duality["verdict"] == parseval["verdict"]
        assert duality["config_digest_f"] == parseval["config_digest_f"]

    def test_structure_mismatch_exit_two(self, tmp_path, capsys):
        doc_a = {
            "group": [4],
            "channels": 1,
            "layers": [
                {"subgroup_generators": [[1]], "generators": [{"windows": ["delta"]}]}
            ],
        }
        doc_b = {
            "group": [4],
            "channels": 1,
            "layers": [
                {"subgroup_generators": [[2]], "generators": [{"windows": ["delta"]}]}
            ],
        }
        a = write_json(tmp_path / "a.json", doc_a)
        b = write_json(tmp_path / "b.json", doc_b)
        code, report, err = run_cli(capsys, "check", "duality", a, b)
        assert code == 2
        assert report is None
        assert "subgroup" in err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "check", "parseval", str(bad))
        assert code == 2
        assert "JSON" in err

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"group": [4], "channels": 1, "layers": [1]}, "layer 0"),
            ({"group": [4], "channels": 1,
              "layers": [{"subgroup_generators": [[1]], "generators": [1]}]}, "layer 0"),
            ({"group": [4], "channels": [1], "layers": PARSEVAL_DOC["layers"]}, "channels"),
            *[({"group": [4], "channels": 1, "layers": [{"subgroup_generators": [[1]],
                "generators": [{"weight": weight, "windows": ["delta"]}]}]},
               "layer 0 generator 0: weight must be a finite number")
              for weight in ([1], float("nan"), float("inf"), "1", 10**400)],
            ({"group": [4.5], "channels": 1, "layers": [{"subgroup_generators": [[1]],
              "generators": [{"windows": ["delta"]}]}]}, "group"),
            ({"group": [True], "channels": 1, "layers": [{"subgroup_generators": [[0]],
              "generators": [{"windows": ["delta"]}]}]}, "group"),
            ({"group": [4], "channels": float("inf"), "layers": PARSEVAL_DOC["layers"]},
             "channels"),
            *[({"group": [4], "channels": 1, "layers": [{"subgroup_generators": [[1]],
                "generators": [{"windows": [window]}]}]}, "layer 0 generator 0 window 0")
              for window in ({"re": 5, "im": 5},
                             {"re": [10**400, 0, 0, 0], "im": [0, 0, 0, 0]},
                             {"re": [0, 0, 0, 0], "im": [float("inf"), 0, 0, 0]},
                             {"re": ["1", 0, 0, 0], "im": [0, 0, 0, 0]},
                             {"re": [1, 0, 0, 0], "im": [0, 0, True, 0]})],
            ({"group": [4], "channels": 1, "gabor": 5}, "'gabor' section"),
            ({"group": [4], "channels": 1, "wavelet": []}, "'wavelet' section"),
            ({"group": [4], "channels": 1, "wavepacket": "delta"}, "'wavepacket' section"),
            *[({"group": [4], "channels": channels, "layers": [{"subgroup_generators": [[1]],
                "generators": [{"windows": ["delta"]}]}]}, "channels")
              for channels in (1.5, True)],
            *[({"group": [4], "channels": 1, "layers": [{"subgroup_generators": [[entry]],
                "generators": [{"windows": ["delta"]}]}]}, "layer 0 subgroup_generators")
              for entry in (1.5, "1", True)],
            *[({"group": [5], "channels": 1, "wavelet": {
                "windows": [["delta"]], "automorphism_matrices": [[[entry]]],
                "translation_generators": [[1]]}}, "wavelet automorphism_matrices")
              for entry in (2.5, 10**30)],
            ({"group": [4], "channels": 1, "layers": [{"subgroup_generators": [[1]],
              "generators": [{"windows": ["indicator:[[1"]}]}]},
             "layer 0 generator 0 window 0: bad indicator shorthand"),
            ({"group": [4], "channels": 1, "layers": [{"subgroup_generators": [[1]],
              "generators": [{"windows": ["random:abc"]}]}]},
             "layer 0 generator 0 window 0: bad random shorthand"),
            ({"group": [4], "channels": 1, "layers": [{"subgroup_generators": [[1]],
              "generators": [{"weight": -1.0, "windows": ["delta"]}]}]},
             "layer 0 generator 0: negative weight"),
            (None, "cannot read config"),  # the config path is a directory
        ],
        ids=["layer", "generator", "channels", "weight-list", "weight-nan", "weight-inf",
             "weight-string", "weight-huge",
             "group-float", "group-bool", "channels-inf", "window-re-int", "window-re-overflow",
             "window-im-inf", "window-re-string", "window-im-bool", "gabor-number",
             "wavelet-list", "wavepacket-string",
             "channels-float", "channels-bool", "subgroup-float", "subgroup-string",
             "subgroup-bool", "automorphism-float", "automorphism-huge",
             "indicator-shorthand", "random-shorthand", "weight-negative", "directory"],
    )
    def test_malformed_config_exit_two(self, tmp_path, capsys, doc, where):
        cfg = str(tmp_path) if doc is None else write_json(tmp_path / "m.json", doc)
        code, report, err = run_cli(capsys, "check", "parseval", cfg)
        assert code == 2 and report is None
        assert err.startswith("error:") and where in err

    def test_overflowing_frame_bounds_fail_closed(self, tmp_path, capsys):
        # B_F * B_H = 1e400 overflows; the tolerance must stay finite, so a
        # residual of 1e200 fails instead of passing under an inf tolerance.
        doc = {"group": [4], "channels": 1, "layers": [{"subgroup_generators": [[1]],
               "generators": [{"weight": 1e200, "windows": ["delta"]}]}]}
        cfg = write_json(tmp_path / "o.json", doc)
        code, report, _ = run_cli(capsys, "check", "parseval", cfg)
        assert code == 1
        assert report["verdict"]["max_residual"] == pytest.approx(1e200)
        assert report["verdict"]["tolerance"] == pytest.approx(1e-9 * 1e200)

    @pytest.mark.parametrize("command", [["check", "parseval"], ["info"]], ids=["check", "info"])
    def test_overflowing_frame_operator_exit_two_naming_overflow(self, tmp_path, capsys, command):
        # Two generators of weight 1.7e308 sum past the float range in the
        # frame operator; that is reported as such, with no numpy warning.
        doc = {"group": [4], "channels": 1, "layers": [{"subgroup_generators": [[1]],
               "generators": [{"weight": 1.7e308, "windows": ["delta"]}] * 2}]}
        cfg = write_json(tmp_path / "o.json", doc)
        code, report, err = run_cli(capsys, *command, cfg)
        assert code == 2 and report is None
        assert err.startswith("error:") and "overflows" in err and "weights" in err

    def test_overflowing_fiber_table_exit_two_naming_overflow(self, tmp_path, capsys):
        # With --tol given no dense operator runs: the fiber table itself
        # overflows, and is refused instead of printing "max_residual": Infinity.
        doc = {"group": [4], "channels": 1, "layers": [{"subgroup_generators": [[1]],
               "generators": [{"weight": 1.7e308, "windows": ["delta"]}] * 2}]}
        cfg = write_json(tmp_path / "o.json", doc)
        code = main(["check", "parseval", cfg, "--tol", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: fiber table overflows")

    def test_verdict_does_not_depend_on_cap(self, tmp_path, capsys):
        # A painless Gabor pair on Z256 (N*|G| = 256) whose dual has one sample
        # off by 2e-7: residual 3.57e-9, under the bounds-scaled tolerance
        # 4.45e-9 and over the raw 1e-9, which a --cap below 256 used to select.
        n, step, modulations = 256, 16, 32
        rng = np.random.default_rng(3)
        window = np.zeros(n, dtype=np.complex128)
        window[:modulations] = (rng.standard_normal(modulations)
                                + 1j * rng.standard_normal(modulations))
        periodized = sum(np.abs(np.roll(window, k * step)) ** 2 for k in range(n // step))
        dual = window / (step * modulations * periodized)
        dual[5] *= 1 + 2e-7
        cfgs = [
            write_json(tmp_path / f"{name}.json", {
                "group": [n], "channels": 1,
                "gabor": {"windows": [[vector_to_json(w)]], "translation_generators": [[step]],
                          "modulation_generators": [[n // modulations]]},
            })
            for name, w in (("g", window), ("h", dual))
        ]
        verdicts = []
        for cap in ("1", "255", "256", "100000"):
            code, report, _ = run_cli(capsys, "check", "duality", *cfgs, "--cap", cap)
            assert code == 0, cap
            verdicts.append(report["verdict"])
        assert all(v == verdicts[0] for v in verdicts)
        assert verdicts[0]["max_residual"] > 1e-9 and "bessel_bound" in verdicts[0]

    def test_nan_window_sample_exit_two_naming_window(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        f_sys, h_sys = dual_pair(rng, make_group([8]), channels=2)
        h_doc = descriptor_to_config(h_sys)
        h_doc["layers"][0]["generators"][0]["windows"][1]["re"][5] = float("nan")
        f_cfg = write_json(tmp_path / "f.json", descriptor_to_config(f_sys))
        h_cfg = write_json(tmp_path / "h.json", h_doc)
        code, report, err = run_cli(capsys, "check", "duality", f_cfg, h_cfg)
        assert code == 2 and report is None
        assert "layer 0 generator 0 window 1" in err and "non-finite" in err

    def test_deterministic_reports_with_seed(self, tmp_path, capsys):
        doc = {
            "group": [6],
            "channels": 1,
            "layers": [
                {"subgroup_generators": [[2]], "generators": [{"windows": ["random:9"]}]}
            ],
        }
        cfg = write_json(tmp_path / "r.json", doc)
        _, rep1, _ = run_cli(capsys, "check", "parseval", cfg)
        _, rep2, _ = run_cli(capsys, "check", "parseval", cfg)
        rep1.pop("timing_seconds")
        rep2.pop("timing_seconds")
        assert rep1 == rep2

    @pytest.mark.parametrize("argv", [["info", "c.json"], ["check", "parseval", "c.json"],
                                      ["gabor-dual", "c.json"],
                                      ["multiplex", "f.json", "h.json"]],
                             ids=["info", "check", "gabor-dual", "multiplex"])
    def test_seed_is_not_an_option(self, capsys, argv):
        # Seeds live in the config ("random:N"), where its digest names them.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "9"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --seed 9" in captured.err
        assert "Traceback" not in captured.err

    def test_fiber_dump(self, tmp_path, capsys):
        # Two channels, layers on <2> and <4> of Z8: offsets 0, 2, 4 and 6.
        doc = {
            "group": [8],
            "channels": 2,
            "layers": [
                {"subgroup_generators": [[2]],
                 "generators": [{"windows": ["random:1", "random:2"]},
                                {"windows": ["random:3", "delta"]}]},
                {"subgroup_generators": [[4]],
                 "generators": [{"windows": ["random:4", "random:5"]}]},
            ],
        }
        cfg = write_json(tmp_path / "f.json", doc)
        _, report, _ = run_cli(capsys, "check", "parseval", cfg, "--dump-fibers")
        system = parse_config(doc)
        table = fiber_table(system, system)
        dump = report["fibers"]
        assert dump["offsets"] == [[0], [2], [4], [6]] == [list(o) for o in table.offsets]
        assert sorted(dump["tables"]) == ["0,0", "0,1", "1,0", "1,1"]
        for key, entries in dump["tables"].items():
            n1, n2 = map(int, key.split(","))
            assert list(entries) == [str(o) for o in dump["offsets"]]
            for entry, block in zip(entries.values(), table.stack):
                assert entry == vector_to_json(block[n1, n2])


class TestInfoCommand:
    def test_info_reports_lattice_data(self, tmp_path, capsys):
        doc = {
            "group": [8],
            "channels": 1,
            "layers": [
                {"subgroup_generators": [[2]], "generators": [{"windows": ["delta"]}]}
            ],
        }
        cfg = write_json(tmp_path / "i.json", doc)
        code, report, _ = run_cli(capsys, "info", cfg)
        assert code == 0
        layer = report["layers"][0]
        assert layer["covolume"] == 2
        assert sorted(tuple(e) for e in layer["annihilator"]) == [(0,), (4,)]

    def test_info_trivial_delta_bounds(self, tmp_path, capsys):
        doc = {
            "group": [4],
            "channels": 1,
            "layers": [
                {"subgroup_generators": [[1]], "generators": [{"windows": ["delta"]}]}
            ],
        }
        cfg = write_json(tmp_path / "i.json", doc)
        _, report, _ = run_cli(capsys, "info", cfg)
        assert report["frame_bounds"]["lower"] == pytest.approx(1.0)
        assert report["frame_bounds"]["upper"] == pytest.approx(1.0)

    def test_info_above_cap_skips_frame_bounds(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", PARSEVAL_DOC)
        code, report, _ = run_cli(capsys, "info", cfg, "--cap", "7")
        assert code == 0
        assert "frame_bounds" not in report
        assert report["frame_bounds_skipped"] == "dense operation needs 8 rows, above the cap of 7"
        _, report, _ = run_cli(capsys, "info", cfg, "--cap", "8")
        assert "frame_bounds_skipped" not in report
        assert report["frame_bounds"] == {"lower": pytest.approx(1.0), "upper": pytest.approx(1.0)}

    def test_info_malformed_window_exit_two(self, tmp_path, capsys):
        doc = {
            "group": [4],
            "channels": 1,
            "layers": [
                {
                    "subgroup_generators": [[1]],
                    "generators": [{"windows": [{"re": [1], "im": [0]}]}],
                }
            ],
        }
        cfg = write_json(tmp_path / "i.json", doc)
        code, _, err = run_cli(capsys, "info", cfg)
        assert code == 2
        assert "layer 0 generator 0" in err

    def test_info_string_and_bool_samples_exit_two(self, tmp_path, capsys):
        # A float conversion reads "1" and true as 1.0; samples must be JSON numbers.
        doc = {"group": [4], "channels": 1, "layers": [{"subgroup_generators": [[1]],
               "generators": [{"windows": [{"re": ["1", True, 0, 0],
                                            "im": [0, 0, False, "0"]}]}]}]}
        cfg = write_json(tmp_path / "i.json", doc)
        code, report, err = run_cli(capsys, "info", cfg)
        assert code == 2 and report is None
        assert err == ("error: layer 0 generator 0 window 0: 're' sample 0 must be a number, "
                       "got '1'\n")

    @pytest.mark.parametrize("flag", [["--tol", "1e-3"], ["--top-k", "3"]], ids=["tol", "top-k"])
    def test_verdict_flags_are_not_options(self, tmp_path, capsys, flag):
        # info runs no verdict, so nothing would read them.
        cfg = write_json(tmp_path / "i.json", PARSEVAL_DOC)
        with pytest.raises(SystemExit) as exc:
            main(["info", cfg, *flag])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


class TestGaborDualCommand:
    def test_emits_certified_dual_config(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "g.json", GABOR_DOC)
        dual_path = tmp_path / "dual.json"
        code, report, _ = run_cli(
            capsys, "gabor-dual", cfg, "--dual-output", str(dual_path)
        )
        assert code == 0
        assert report["certification"]["pass"] is True
        code, report, _ = run_cli(capsys, "check", "duality", cfg, str(dual_path), "--oracle")
        assert code == 0
        assert report["verdict_agrees_with_oracle"] is True

    def test_cap_is_not_an_option(self, tmp_path, capsys):
        # The dual is solved per coset block; no dense operator bounds it.
        cfg = write_json(tmp_path / "g.json", GABOR_DOC)
        out = tmp_path / "dual.json"
        with pytest.raises(SystemExit) as exc:
            main(["gabor-dual", cfg, "--cap", "8", "--dual-output", str(out)])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "" and not out.exists()
        assert "unrecognized arguments: --cap 8" in captured.err

    def test_zero_window_not_a_frame_exit_two(self, tmp_path, capsys):
        doc = {
            "group": [4],
            "channels": 1,
            "gabor": {
                "windows": [[{"re": [0, 0, 0, 0], "im": [0, 0, 0, 0]}]],
                "translation_generators": [[1]],
                "modulation_generators": [[1]],
            },
        }
        cfg = write_json(tmp_path / "z.json", doc)
        code, _, err = run_cli(capsys, "gabor-dual", cfg, "--dual-output",
                               str(tmp_path / "out.json"))
        assert code == 2
        assert "not a frame" in err

    @pytest.mark.parametrize(
        "doc, where",
        [
            (PARSEVAL_DOC, "structured 'gabor'"),
            ({**GABOR_DOC, "gabor": {**GABOR_DOC["gabor"],
              "windows": [["delta"], ["constant"]]}}, "exactly one base window"),
            ({**GABOR_DOC, "channels": 2, "gabor": {**GABOR_DOC["gabor"],
              "windows": [["delta", "delta"]]}}, "single-channel"),
            ({**GABOR_DOC, "gabor": {**GABOR_DOC["gabor"], "modulation_generators": 3}},
             "gabor modulation_generators"),
        ],
        ids=["layers", "two-windows", "two-channels", "bad-modulation"],
    )
    def test_malformed_config_exit_two(self, tmp_path, capsys, doc, where):
        cfg = write_json(tmp_path / "m.json", doc)
        out = tmp_path / "out.json"
        code, report, err = run_cli(capsys, "gabor-dual", cfg, "--dual-output", str(out))
        assert code == 2 and report is None and not out.exists()
        assert err.startswith("error:") and where in err


# Valid documents of every kind on groups of order <= 16, for the fuzz test.
FUZZ_DOCS = [
    PARSEVAL_DOC,
    {"group": [2, 4], "channels": 1, "layers": [
        {"subgroup_generators": [[0, 2]], "generators": [
            {"weight": 0.5, "windows": ["random:1"]},
            {"windows": [{"re": [1, 0, 0, 0, 0, 0, 0, 2], "im": [0] * 8}]}]},
        {"subgroup_generators": [[1, 0]], "generators": [{"windows": ["indicator:[[0, 2]]"]}]},
    ]},
    GABOR_DOC,
    {"group": [12], "channels": 1, "gabor": {"windows": [["random"]],
     "translation_generators": [[3]], "modulation_generators": [[2]]}},
    {"group": [16], "channels": 2, "wavelet": {
        "windows": [["random:1", "delta"], ["constant", "random:2"]],
        "automorphism_matrices": [[[1]], [[3]]], "translation_generators": [[4]]}},
    {"group": [4, 4], "channels": 1, "wavepacket": {
        "windows": [["random:5"]],
        "automorphism_matrices": [[[1, 0], [0, 1]], [[1, 1], [0, 1]]],
        "translation_generators": [[2, 0], [0, 2]], "modulation_generators": [[0, 2]]}},
]

FUZZ_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "delta", "random", "indicator:[[1]]", [], {},
                     [[]], 1.5, -0.0, float("nan"), float("inf"), -float("inf"),
                     10**400, -10**30, 2**63]),
    st.integers(-20, 20),
)


def _paths(doc, prefix=()):
    """Every place in a JSON document, the root first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, prefix + (key,))


def _mutated(doc, path, op, value):
    """`doc` with the value at `path` replaced, deleted or wrapped one level deeper."""
    if not path:
        return {"replace": value, "list": [doc], "dict": {"x": doc}}.get(op, {})
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "delete":
        del parent[key]
    else:
        parent[key] = {"replace": value, "list": [parent[key]], "dict": {"x": parent[key]}}[op]
    return doc


def _mutate(data, doc, values):
    """One to three random replacements, deletions or wrappings of a copy of
    `doc`.  Drawn values are copied too: a shared `[[]]` mutated in place
    would change the strategy itself and could nest into itself."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        op = data.draw(st.sampled_from(["replace", "delete", "list", "dict"]))
        doc = _mutated(doc, path, op, copy.deepcopy(data.draw(values)))
    return doc


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _strict_json(text):
    """Parse JSON, refusing the NaN and Infinity constants Python writes."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


class TestCliContractFuzz:
    @given(st.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mutated_documents_exit_zero_one_or_two(self, data):
        # The CLI contract: any document ends in exit 0, 1 or 2, never in a
        # traceback or a numpy warning; a refused document prints an error
        # and no report.
        doc = _mutate(data, data.draw(st.sampled_from(FUZZ_DOCS)), FUZZ_VALUES)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.json"
            cfg.write_text(json.dumps(doc))
            for argv in (["info", str(cfg)], ["check", "parseval", str(cfg)],
                         ["gabor-dual", str(cfg), "--dual-output", str(Path(tmp) / "d.json")]):
                code, out, err = _run_main(argv)
                assert code in (0, 1, 2), (argv, doc)
                if code == 2:
                    assert out == "" and err.startswith("error:")
                else:
                    json.loads(out)


@functools.lru_cache(maxsize=None)
def _multiplex_docs():
    """A 2-channel dual pair on Z8 with a signal and its coefficients, as
    JSON text: (f config, h config, signals, coefficients)."""
    rng = np.random.default_rng(11)
    g = make_group([8])
    f_sys, h_sys = dual_pair(rng, g, channels=2)
    signals = SuperSignal(_random_windows(rng, g, 2))
    coeffs = coefficients_to_json(analysis_coeffs(f_sys, signals))
    return tuple(json.dumps(d) for d in (descriptor_to_config(f_sys), descriptor_to_config(h_sys),
                                         super_signal_to_json(signals), coeffs))


class TestMultiplexContractFuzz:
    @given(st.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mutated_signals_and_coefficients(self, data):
        # Signal documents through encode and roundtrip, coefficient documents
        # through decode: exit 0, 1 or 2 with no numpy warning, an error and
        # no report on exit 2, and otherwise strict JSON on stdout and in
        # every file written.
        f_text, h_text, sig_text, coeff_text = _multiplex_docs()
        kind = data.draw(st.sampled_from(["signals", "coeffs"]))
        base = json.loads(sig_text if kind == "signals" else coeff_text)
        doc = _mutate(data, base, st.one_of(FUZZ_VALUES, st.just(1e308)))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, text in (("f", f_text), ("h", h_text), ("in", json.dumps(doc))):
                (tmp / f"{name}.json").write_text(text)
            pair = [str(tmp / "f.json"), str(tmp / "h.json"), f"--{kind}", str(tmp / "in.json")]
            out_file = tmp / "out.json"
            if kind == "signals":
                runs = [["--mode", "encode", "--coeffs-out", str(out_file)],
                        ["--mode", "roundtrip", "--signals-out", str(out_file)]]
            else:
                runs = [["--mode", "decode", "--signals-out", str(out_file)]]
            for extra in runs:
                out_file.unlink(missing_ok=True)
                code, out, err = _run_main(["multiplex", *pair, *extra])
                assert code in (0, 1, 2), (extra, doc)
                if code == 2:
                    assert out == "" and err.startswith("error:"), (extra, doc)
                else:
                    _strict_json(out)
                    _strict_json(out_file.read_text())


class TestMultiplexCommand:
    def _dual_pair_files(self, tmp_path, channels=2):
        rng = np.random.default_rng(11)
        g = make_group([8])
        f_sys, h_sys = dual_pair(rng, g, channels=channels)
        f_cfg = write_json(tmp_path / "mf.json", descriptor_to_config(f_sys))
        h_cfg = write_json(tmp_path / "mh.json", descriptor_to_config(h_sys))
        signals = SuperSignal(_random_windows(rng, g, channels))
        sig = write_json(tmp_path / "sig.json", super_signal_to_json(signals))
        return f_cfg, h_cfg, sig

    def test_roundtrip_small_error(self, tmp_path, capsys):
        f_cfg, h_cfg, sig = self._dual_pair_files(tmp_path)
        code, report, _ = run_cli(
            capsys, "multiplex", f_cfg, h_cfg, "--signals", sig, "--mode", "roundtrip"
        )
        assert code == 0
        assert report["max_relative_error"] < 1e-10

    @pytest.mark.parametrize("hit", [[0], [0, 1]], ids=["one-channel", "both-channels"])
    def test_roundtrip_errors_finite_for_huge_samples(self, tmp_path, capsys, hit):
        # The sum of squares of a 1e160 sample overflows; that channel's error
        # used to read 0.0 with a numpy warning.  A channel left at unit scale
        # beside a 1e160 one keeps the codec's rounding leak (~1e144 relative),
        # which is float64 range, not a reporting fault.
        f_cfg, h_cfg, sig = self._dual_pair_files(tmp_path)
        doc = json.loads(Path(sig).read_text())
        for n in hit:
            doc["channels"][n]["re"][0] = 1e160
        big = write_json(tmp_path / "big.json", doc)
        code, report, _ = run_cli(
            capsys, "multiplex", f_cfg, h_cfg, "--signals", big, "--mode", "roundtrip"
        )
        assert code == 0
        errors = report["relative_errors_per_channel"]
        assert len(errors) == 2 and all(np.isfinite(errors))
        assert all(errors[n] <= 1e-9 for n in hit)
        assert report["max_relative_error"] == max(errors)

    @pytest.mark.parametrize("top_k", [1, 3])
    def test_top_k_limits_certification_witnesses(self, tmp_path, capsys, top_k):
        f_cfg, h_cfg, sig = self._dual_pair_files(tmp_path)
        _, full, _ = run_cli(capsys, "multiplex", f_cfg, h_cfg, "--signals", sig)
        code, report, _ = run_cli(
            capsys, "multiplex", f_cfg, h_cfg, "--signals", sig, "--top-k", str(top_k)
        )
        assert code == 0 and len(full["certification"]["witnesses"]) > top_k
        assert len(report["certification"]["witnesses"]) == top_k

    def test_encode_then_decode_files(self, tmp_path, capsys):
        f_cfg, h_cfg, sig = self._dual_pair_files(tmp_path)
        coeffs = tmp_path / "c.json"
        out = tmp_path / "rec.json"
        code, _, _ = run_cli(
            capsys, "multiplex", f_cfg, h_cfg, "--signals", sig,
            "--mode", "encode", "--coeffs-out", str(coeffs),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "multiplex", f_cfg, h_cfg, "--coeffs", str(coeffs),
            "--mode", "decode", "--signals-out", str(out),
        )
        assert code == 0
        original = json.loads((tmp_path / "sig.json").read_text())
        recovered = json.loads(out.read_text())
        for a, b in zip(original["channels"], recovered["channels"]):
            assert np.abs(np.array(a["re"]) - np.array(b["re"])).max() < 1e-9
            assert np.abs(np.array(a["im"]) - np.array(b["im"])).max() < 1e-9

    def test_decode_ignores_measure_data_of_older_files(self, tmp_path, capsys):
        f_cfg, h_cfg, sig = self._dual_pair_files(tmp_path)
        coeffs = tmp_path / "c.json"
        run_cli(capsys, "multiplex", f_cfg, h_cfg, "--signals", sig,
                "--mode", "encode", "--coeffs-out", str(coeffs))
        doc = json.loads(coeffs.read_text())
        assert all(layer.keys() == {"entries"} for layer in doc["layers"])
        outputs = []
        for layer_extra in ({}, {"covolume": 1, "weights": [1.0]}):
            for layer in doc["layers"]:
                layer.update(layer_extra)
            write_json(coeffs, doc)
            out = tmp_path / f"rec{len(outputs)}.json"
            code, _, _ = run_cli(capsys, "multiplex", f_cfg, h_cfg, "--coeffs", str(coeffs),
                                 "--mode", "decode", "--signals-out", str(out))
            assert code == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "doc, where",
        [
            *[({"group": [8], "channels": 2, "layers": [layer]}, "coefficients layer 0")
              for layer in ({"covolume": 1, "weights": [1.0]}, 1)],
            ({"layers": []}, "'group'"),
            *[({"group": [8], "channels": 2, "layers": [{"entries": rows}]},
               "coefficients layer 0 row 0")
              for rows in ([1], [{}], [{"re": [10**400], "im": [0]}],
                           [{"re": [0], "im": [float("inf")]}],
                           [{"re": ["1"], "im": [0]}], [{"re": [0], "im": [True]}])],
        ],
        ids=["no-entries", "not-an-object", "no-group", "entries-int", "entries-empty-object",
             "re-overflow", "im-inf", "re-string", "im-bool"],
    )
    def test_malformed_coefficients_exit_two(self, tmp_path, capsys, doc, where):
        f_cfg, h_cfg, _ = self._dual_pair_files(tmp_path)
        coeffs = write_json(tmp_path / "bad_c.json", doc)
        code, report, err = run_cli(
            capsys, "multiplex", f_cfg, h_cfg, "--coeffs", coeffs, "--mode", "decode"
        )
        assert code == 2 and report is None
        assert err.startswith("error:") and where in err

    @pytest.mark.parametrize(
        "doc, where",
        [({"channels": 5}, "'channels' list"),
         ({"group": [8], "channels": [{"re": [10**400] + [0] * 7, "im": [0] * 8}]},
          "signal channel 0"),
         ({"group": [8], "channels": [{"re": [0] * 8, "im": [float("inf")] + [0] * 7}]},
          "signal channel 0"),
         # Two channels of the pair's group: read as 1.0, these would decode.
         ({"group": [8], "channels": [{"re": ["1"] + [0] * 7, "im": [0] * 8},
                                      {"re": [0] * 8, "im": [0] * 8}]}, "signal channel 0"),
         ({"group": [8], "channels": [{"re": [0] * 8, "im": [0] * 8},
                                      {"re": [0] * 8, "im": [0] * 7 + [True]}]},
          "signal channel 1: 'im' sample 7")],
        ids=["channels-int", "re-overflow", "im-inf", "re-string", "im-bool"],
    )
    def test_malformed_signals_exit_two(self, tmp_path, capsys, doc, where):
        f_cfg, h_cfg, _ = self._dual_pair_files(tmp_path)
        sig = write_json(tmp_path / "bad_s.json", doc)
        code, report, err = run_cli(
            capsys, "multiplex", f_cfg, h_cfg, "--signals", sig, "--mode", "roundtrip"
        )
        assert code == 2 and report is None
        assert err.startswith("error:") and where in err

    @pytest.mark.parametrize("mode", ["encode", "roundtrip"])
    @pytest.mark.parametrize("group", [[2, 4], None, [999999999]],
                             ids=["other-group", "no-group", "too-large"])
    def test_signals_group_is_read_and_checked(self, tmp_path, capsys, mode, group):
        f_cfg, h_cfg, sig = self._dual_pair_files(tmp_path)
        doc = json.loads(Path(sig).read_text())
        if group is None:
            del doc["group"]
        else:
            doc["group"] = group
        bad = write_json(tmp_path / "bad_s.json", doc)
        out = tmp_path / "out.json"
        out_flag = "--coeffs-out" if mode == "encode" else "--signals-out"
        code, report, err = run_cli(capsys, "multiplex", f_cfg, h_cfg, "--signals", bad,
                                    "--mode", mode, out_flag, str(out))
        assert code == 2 and report is None and not out.exists()
        assert err.startswith("error:") and "group" in err

    def _encoded(self, tmp_path, capsys):
        f_cfg, h_cfg, sig = self._dual_pair_files(tmp_path)
        coeffs = tmp_path / "c.json"
        run_cli(capsys, "multiplex", f_cfg, h_cfg, "--signals", sig,
                "--mode", "encode", "--coeffs-out", str(coeffs))
        return f_cfg, h_cfg, json.loads(coeffs.read_text())

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda doc: doc.update(channels=7), "coefficients have 7 channels, system expects 2"),
         (lambda doc: doc["layers"][0]["entries"].pop(),
          "coefficient block 0 has shape (1, 8), expected (2, 8)")],
        ids=["channels", "block-shape"],
    )
    def test_decode_refuses_coefficients_of_another_system(self, tmp_path, capsys, edit, message):
        f_cfg, h_cfg, doc = self._encoded(tmp_path, capsys)
        edit(doc)
        bad = write_json(tmp_path / "bad_c.json", doc)
        code, report, err = run_cli(
            capsys, "multiplex", f_cfg, h_cfg, "--coeffs", bad, "--mode", "decode"
        )
        assert code == 2 and report is None
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("mode, message", [("encode", "mode encode needs --signals"),
                                               ("decode", "mode decode needs --coeffs")])
    def test_mode_without_its_input_file_exit_two(self, tmp_path, capsys, mode, message):
        f_cfg, h_cfg, _ = self._dual_pair_files(tmp_path)
        code, report, err = run_cli(capsys, "multiplex", f_cfg, h_cfg, "--mode", mode)
        assert code == 2 and report is None
        assert err == f"error: {message}\n"

    def test_overflowing_roundtrip_exit_two_naming_overflow(self, tmp_path, capsys):
        # Two samples of 1e308 overflow the transform; the report used to
        # say "max_relative_error": NaN, which is not JSON.
        f_cfg, h_cfg, sig = self._dual_pair_files(tmp_path)
        doc = json.loads(Path(sig).read_text())
        doc["channels"][0]["re"][:2] = [1e308, 1e308]
        big = write_json(tmp_path / "big.json", doc)
        code, report, err = run_cli(
            capsys, "multiplex", f_cfg, h_cfg, "--signals", big, "--mode", "roundtrip"
        )
        assert code == 2 and report is None
        assert err.startswith("error:") and "overflows" in err

    def test_non_integer_coefficients_group_exit_two(self, tmp_path, capsys):
        f_cfg, h_cfg, sig = self._dual_pair_files(tmp_path)
        coeffs = tmp_path / "c.json"
        run_cli(capsys, "multiplex", f_cfg, h_cfg, "--signals", sig,
                "--mode", "encode", "--coeffs-out", str(coeffs))
        doc = json.loads(coeffs.read_text())
        doc["group"] = [8.5]
        bad = write_json(tmp_path / "bad_c.json", doc)
        code, report, err = run_cli(
            capsys, "multiplex", f_cfg, h_cfg, "--coeffs", bad, "--mode", "decode"
        )
        assert code == 2 and report is None
        assert "cyclic order" in err

    def test_broken_pair_refused_then_forced(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        g = make_group([8])
        f_sys, h_sys = matched_random_pair(rng, g, 2, 1, 2)
        f_cfg = write_json(tmp_path / "bf.json", descriptor_to_config(f_sys))
        h_cfg = write_json(tmp_path / "bh.json", descriptor_to_config(h_sys))
        sig = write_json(
            tmp_path / "bs.json", super_signal_to_json(SuperSignal(_random_windows(rng, g, 2)))
        )
        code, _, err = run_cli(
            capsys, "multiplex", f_cfg, h_cfg, "--signals", sig, "--mode", "roundtrip"
        )
        assert code == 2 and "certified" in err
        code, report, _ = run_cli(
            capsys, "multiplex", f_cfg, h_cfg, "--signals", sig,
            "--mode", "roundtrip", "--force",
        )
        assert code == 0
        assert report["max_relative_error"] > 1e-3


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps(PARSEVAL_DOC))
    proc = subprocess.run(
        [sys.executable, "-m", "gtiframes", "check", "parseval", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"]["pass"] is True
