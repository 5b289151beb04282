import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmwbeam import __version__, cli, montecarlo
from mmwbeam.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    """Split a CSV emission into (preamble dict, header, rows)."""
    lines = text.strip().split("\n")
    meta = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:]]
    return meta, header, rows


class TestClosedform:
    def test_v_orth_example(self, capsys):
        code, out, err = run_cli(
            capsys, "closedform", "--case", "v-orth", "--a1", "2", "--a2", "1", "--uu", "0.5"
        )
        assert code == EXIT_OK and err == ""
        doc = json.loads(out)
        assert doc["version"] == __version__
        res = doc["results"]
        assert res["delta_snr_db"] == pytest.approx(0.3169, abs=1e-4)
        assert res["beta_sq"] == pytest.approx(0.5 * (1 + 3 / math.sqrt(13.0)), rel=1e-12)
        assert res["gains_swapped"] is False
        cfg = doc["config"]
        assert set(cfg) == {"command", "parameters", "output_path", "format"}
        assert cfg["command"] == "closedform"
        assert cfg["parameters"]["a1"] == 2.0

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "closedform",
            "--case",
            "u-parallel",
            "--a1",
            "1",
            "--a2",
            "1",
            "--vv",
            "0.9",
            "--nu-deg",
            "180",
            "--format",
            "csv",
        )
        assert code == EXIT_OK
        meta, header, rows = parse_csv(out)
        assert meta["version"] == __version__
        echoed = json.loads(meta["config"])
        assert echoed["command"] == "closedform"
        assert echoed["format"] == "csv"
        assert len(rows) == 1
        assert float(rows[0]["delta_snr_db"]) == pytest.approx(13.0103, abs=1e-3)

    def test_v_parallel_case(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "closedform", "--case", "v-parallel", "--a1", "1", "--a2", "1",
            "--uu", "1", "--nu-deg", "180",
        )
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        assert res["delta_snr"] == 1.0
        assert res["beta_sq"] is None  # any split achieves the optimum
        assert res["snr_optimal"] == pytest.approx(0.0, abs=1e-12)

    def test_v_parallel_csv_leaves_the_split_cells_empty(self, capsys):
        # any split achieves the optimum: beta_sq and theta_deg are None, written as empty cells
        code, out, _ = run_cli(
            capsys,
            "closedform", "--case", "v-parallel", "--a1", "1", "--a2", "1",
            "--uu", "1", "--nu-deg", "180", "--format", "csv",
        )
        assert code == EXIT_OK
        _, header, rows = parse_csv(out)
        assert len(rows) == 1 and len(rows[0]) == len(header)
        assert rows[0]["beta_sq"] == rows[0]["theta_deg"] == ""
        assert rows[0]["delta_snr"] == "1"

    def test_cancelled_dominant_beam_reads_zero(self, capsys):
        # the dominant beam's sum rounds to -1.1e-16 here; snr_dominant read it
        code, out, _ = run_cli(
            capsys,
            "closedform", "--case", "v-parallel", "--a1", "0.9222109257625241",
            "--a2", "0.9222109262438443", "--uu", "1", "--nu-deg", "180",
        )
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        assert (res["snr_dominant"], res["snr_optimal"], res["delta_snr"]) == (0.0, 0.0, 1.0)

    def test_destructive_alignment_reports_infinite_loss(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "closedform", "--case", "u-parallel", "--a1", "1", "--a2", "1",
            "--vv", "1", "--nu-deg", "180",
        )
        assert code == EXIT_OK
        res = json.loads(out)["results"]  # json.loads accepts the Infinity literal
        assert math.isinf(res["delta_snr"])
        assert math.isinf(res["delta_snr_db"])

    def test_regime_conflict_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "closedform", "--case", "v-orth", "--a1", "1", "--a2", "1", "--vv", "0.5",
        )
        assert code == EXIT_USAGE
        record = json.loads(err)
        assert record["error"]["type"] == "usage"

    @pytest.mark.parametrize("bounds", [("nan", "2"), ("1", "nan"), ("1", "inf")],
                             ids=["nan-min", "nan-max", "inf-max"])
    def test_non_finite_k_bound_is_usage_error(self, capsys, bounds):
        # NaN reached TwoPathParams ("mag_a1 must be >= 0 ..."), and an infinite --k-max
        # printed numpy's RuntimeWarning ahead of the error record
        argv = ["sweep", "--case", "v-orth", "--k-min", bounds[0], "--k-max", bounds[1]]
        message = usage_message(capsys, *argv, "--uu", "0.3")
        assert "--k-min" in message and "--k-max" in message

    def test_overflowing_gain_is_usage_error(self, capsys):
        # the squared gain overflows; this used to end in an OverflowError traceback
        code, out, err = run_cli(
            capsys, "closedform", "--case", "v-orth", "--a1", "1e160", "--a2", "1", "--uu", "0.5",
        )
        assert code == EXIT_USAGE and out == ""
        record = json.loads(err)
        assert record["error"]["type"] == "usage"
        assert "finite square" in record["error"]["message"]

    def test_huge_gains_give_finite_snrs(self, capsys):
        # 2 * a1 * a2 overflowed and was multiplied by vv = 0: both SNRs read NaN
        code, out, err = run_cli(
            capsys, "closedform", "--case", "v-orth", "--a1", "1.3e154", "--a2", "1.2e154",
            "--uu", "0.5", "--format", "json",
        )
        assert code == EXIT_OK and err == ""
        res = json.loads(out)["results"]
        a, b = 1.3**2, 1.2**2
        optimal = (a + b + math.sqrt((a - b) ** 2 + a * b)) / 4.0
        assert res["snr_dominant"] == pytest.approx(a / 2.0 * 1e308, rel=1e-12)
        assert res["snr_optimal"] == pytest.approx(optimal * 1e308, rel=1e-12)

    def test_underflowing_gains_are_defined(self, capsys):
        # both squared gains underflow to 0; this used to exit 2
        def record(a1, a2):
            code, out, err = run_cli(
                capsys, "closedform", "--case", "u-orth", "--a1", a1, "--a2", a2, "--vv", "0.5"
            )
            assert code == EXIT_OK and err == ""
            return json.loads(out)["results"]

        tiny, unit = record("1e-170", "1e-170"), record("1", "1")
        for key in ("delta_snr", "delta_snr_db", "theta_deg", "gains_swapped"):
            assert tiny[key] == unit[key]
        assert tiny["delta_snr"] == 1.2  # (1 + vv) / (1 + vv^2) at equal gains
        # the split is scale-free: the same bits at any power-of-two scale of the gains
        scaled = record(repr(math.ldexp(1e-170, 560)), repr(math.ldexp(1e-170, 560)))
        assert tiny["beta_sq"] == scaled["beta_sq"] == pytest.approx(unit["beta_sq"], rel=1e-15)

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "closedform", "--case", "v-orth", "--a1", "1")
        assert code == EXIT_USAGE
        assert "--a2" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("flag, value", [
        ("--nu-deg", "nan"), ("--phase-diff-deg", "-inf"), ("--uu-phase-deg", "nan"),
        ("--vv-phase-deg", "inf"),
    ])
    def test_non_finite_phase_is_usage_error(self, capsys, flag, value):
        # this exited 0 with NaN for snr_dominant, snr_optimal and theta_deg
        argv = ["closedform", "--case", "v-orth", "--a1", "1", "--a2", "0.5", "--uu", "0.3"]
        assert "must be finite" in usage_message(capsys, *argv, f"{flag}={value}")

    def test_nu_exclusive_with_phase_trio(self, capsys):
        code, _, err = run_cli(
            capsys,
            "closedform", "--case", "v-orth", "--a1", "1", "--a2", "1",
            "--nu-deg", "10", "--phase-diff-deg", "20",
        )
        assert code == EXIT_USAGE


class TestSweep:
    def test_u_orth_worst_case_row(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--case", "u-orth", "--k-min", "1", "--k-max", "10",
            "--vv", "0.41421", "--out", str(out_file),
        )
        assert code == EXIT_OK
        meta, header, rows = parse_csv(out_file.read_text())
        assert header == ["k", "beta_sq", "delta_snr", "delta_snr_db"]
        assert float(rows[0]["k"]) == 1.0
        assert float(rows[0]["delta_snr_db"]) == pytest.approx(0.8175, abs=1e-3)
        # loss shrinks as one path dominates
        assert float(rows[-1]["delta_snr_db"]) < float(rows[0]["delta_snr_db"])

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--case", "v-orth", "--k-min", "1", "--k-max", "2",
            "--k-points", "3", "--uu", "1.0", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        rows = doc["results"]["rows"]
        assert len(rows) == 3
        assert rows[0]["delta_snr_db"] == pytest.approx(10 * math.log10(2.0), abs=1e-9)

    def test_k_range_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--case", "v-orth", "--k-min", "0.5", "--k-max", "2", "--uu", "0.3"
        )
        assert code == EXIT_USAGE

    def test_zero_k_points_is_usage_error(self, capsys):
        argv = ["sweep", "--case", "v-orth", "--k-min", "1", "--k-max", "2", "--uu", "0.3"]
        assert usage_message(capsys, *argv, "--k-points", "0") == "--k-points must be >= 1"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_phase_is_usage_error(self, capsys, value):
        argv = ["sweep", "--case", "v-orth", "--k-min", "1", "--k-max", "2", "--uu", "0.3"]
        assert "phase_diff must be finite" in usage_message(capsys, *argv, "--nu-deg", value)

    def test_overflowing_gain_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--case", "v-orth", "--k-min", "1", "--k-max", "1e160", "--uu", "0.5"
        )
        assert code == EXIT_USAGE and out == ""
        assert json.loads(err)["error"]["type"] == "usage"


def usage_message(capsys, *argv):
    """The message of a usage-error exit, which must leave stdout empty."""
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    record = json.loads(err)
    assert record["error"]["type"] == "usage"
    return record["error"]["message"]


def regime_argv(command, case, **flags):
    """A closedform or sweep call of one case, valid apart from the regime flags given."""
    if command == "closedform":
        argv = [command, "--case", case, "--a1", "2", "--a2", "1"]
    else:
        argv = [command, "--case", case, "--k-min", "1", "--k-max", "2"]
    for flag, value in flags.items():
        argv += [f"--{flag}", value]
    return argv


# (case, constrained flag, free flag): the constrained magnitude is forced to 0 or 1
REGIME_FLAGS = [
    ("v-orth", "vv", "uu"),
    ("u-orth", "uu", "vv"),
    ("v-parallel", "vv", "uu"),
    ("u-parallel", "uu", "vv"),
]
SWEEP_FLAGS = [flags for flags in REGIME_FLAGS if flags[0] != "v-parallel"]


class TestRegimeRules:
    @pytest.mark.parametrize(
        "command, case, constrained, free",
        [("closedform", *flags) for flags in REGIME_FLAGS]
        + [("sweep", *flags) for flags in SWEEP_FLAGS],
    )
    def test_wrong_constrained_flag(self, capsys, command, case, constrained, free):
        argv = regime_argv(command, case, **{constrained: "0.5", free: "0.3"})
        message = usage_message(capsys, *argv)
        assert case in message and f"--{constrained}" in message

    @pytest.mark.parametrize("case, constrained, free", SWEEP_FLAGS)
    def test_sweep_needs_the_free_flag(self, capsys, case, constrained, free):
        message = usage_message(capsys, *regime_argv("sweep", case))
        assert case in message and f"--{free}" in message

    @pytest.mark.parametrize(
        "argv",
        [
            regime_argv("closedform", "u-orth", vv="0"),
            regime_argv("closedform", "u-orth", vv="1e-10"),
            regime_argv("closedform", "u-orth"),
            regime_argv("sweep", "u-orth", vv="0"),
        ],
        ids=["closedform", "closedform-vv-1e-10", "closedform-no-vv", "sweep"],
    )
    def test_u_orth_needs_nonzero_transmit_coupling(self, capsys, argv):
        # the u-orth split refuses a vanishing transmit coupling, 1e-10 included: the
        # v-orth closed forms hold there
        message = usage_message(capsys, *argv)
        assert "v-orthogonal closed form" in message

    @pytest.mark.parametrize(
        "argv",
        [
            ["closedform", "--case", "u-orth", "--a1", "1", "--a2", "1"],
            ["sweep", "--case", "u-orth", "--k-min", "1", "--k-max", "2", "--k-points", "3"],
        ],
        ids=["closedform", "sweep"],
    )
    def test_u_orth_just_above_orthogonal_transmitters(self, capsys, argv):
        # equal gains at vv = 5e-9 ended in a ZeroDivisionError traceback
        code, out, err = run_cli(capsys, *argv, "--vv", "5e-9", "--format", "json")
        assert code == EXIT_OK and err == ""
        results = json.loads(out)["results"]
        first = results["rows"][0] if argv[0] == "sweep" else results
        assert first["beta_sq"] == pytest.approx(0.5, abs=1e-15)
        assert first["delta_snr"] == pytest.approx(1.0 + 5e-9, abs=1e-15)

    @pytest.mark.parametrize(
        "argv",
        [
            regime_argv("closedform", "v-orth", uu="1.5"),
            regime_argv("closedform", "v-orth", uu="nan"),
            regime_argv("closedform", "v-orth", uu="0.5", a1="-1"),
            regime_argv("sweep", "v-orth", uu="1.5"),
            regime_argv("sweep", "v-orth", uu="nan"),
        ],
        ids=lambda argv: "-".join(argv[:1] + argv[-2:]),
    )
    def test_values_the_params_refuse_are_usage_errors(self, capsys, argv):
        # the range of a coupling and the sign of a gain are TwoPathParams' rules
        usage_message(capsys, *argv)

    def test_accepted_defaults(self, capsys):
        code, out, _ = run_cli(capsys, *regime_argv("closedform", "v-orth"))
        assert code == EXIT_OK
        assert json.loads(out)["results"]["uu_mag"] == 0.0
        code, out, _ = run_cli(capsys, *regime_argv("closedform", "v-parallel"))
        assert code == EXIT_OK
        assert json.loads(out)["results"]["vv_mag"] == 1.0


class TestCcdf:
    def test_deterministic_csv_output(self, capsys, tmp_path):
        # identical command (including --out, which the config echo records)
        # must reproduce the file byte for byte
        out_file = tmp_path / "a.csv"
        argv = [
            "ccdf", "--paths", "2", "--nt", "16", "--nr", "4",
            "--trials", "60", "--seed", "42", "--out", str(out_file),
        ]
        assert main(list(argv)) == EXIT_OK
        first = out_file.read_bytes()
        out_file.unlink()
        assert main(list(argv)) == EXIT_OK
        capsys.readouterr()
        assert out_file.read_bytes() == first

    def test_csv_header_and_config_echo(self, capsys, tmp_path):
        out_file = tmp_path / "ccdf.csv"
        code, _, _ = run_cli(
            capsys,
            "ccdf", "--paths", "1", "--nt", "8", "--nr", "2",
            "--trials", "25", "--seed", "3", "--out", str(out_file),
        )
        assert code == EXIT_OK
        meta, header, rows = parse_csv(out_file.read_text())
        assert header == ["delta_snr_db", "ccdf"]
        assert len(rows) == 25
        echoed = json.loads(meta["config"])["parameters"]
        assert echoed["trials"] == 25
        assert echoed["nt"] == 8
        assert echoed["scheme"] == "bidirectional"

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ccdf", "--paths", "2", "--nt", "8", "--nr", "2",
            "--trials", "40", "--seed", "5", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        res = doc["results"]
        assert res["config"]["rng"] == "philox4x64-v2"
        assert doc["config"]["parameters"]["rng"] == "philox4x64-v2"
        assert len(res["samples_db"]) == 40
        assert res["p90_db"] >= res["median_db"]

    def test_spacing_and_fov_pass_through(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ccdf", "--paths", "1", "--nt", "4", "--nr", "2", "--trials", "10",
            "--seed", "1", "--spacing", "0.25", "--fov-deg", "90", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["config"]["spacing_wavelengths"] == 0.25
        assert doc["results"]["config"]["fov_deg"] == 90.0
        assert doc["config"]["parameters"]["spacing"] == 0.25

    def test_angle_sampling_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ccdf", "--paths", "2", "--nt", "8", "--nr", "2", "--trials", "20",
            "--seed", "4", "--angle-sampling", "uniform_cosine", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["config"]["angle_sampling"] == "uniform_cosine"

    def test_rng_flag_and_config_key(self, capsys, tmp_path):
        argv = ["ccdf", "--paths", "2", "--nt", "8", "--nr", "2", "--trials", "20", "--seed", "4"]
        rng = "philox4x64-v2"
        code, out, _ = run_cli(capsys, *argv, "--rng", rng)
        assert code == EXIT_OK
        meta, _, rows = parse_csv(out)
        assert json.loads(meta["config"])["parameters"]["rng"] == rng
        cfg_file = tmp_path / f"{rng}.json"
        cfg_file.write_text(json.dumps({"rng": rng}))
        assert run_cli(capsys, *argv, "--config", str(cfg_file))[1] == out
        # the default is the same stream
        assert run_cli(capsys, *argv)[1] == out

    # philox4x64 is the retired v1 stream: its files must not quietly run on v2
    @pytest.mark.parametrize("rng", ["philox4x64-v3", "philox4x64"])
    def test_unknown_rng_is_usage_error(self, capsys, tmp_path, rng):
        argv = ["ccdf", "--paths", "1", "--trials", "5"]
        code, out, err = run_cli(capsys, *argv, "--rng", rng)
        assert code == EXIT_USAGE and out == "" and f"'{rng}'" in err
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"rng": rng}))
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg_file))
        assert code == EXIT_USAGE and out == ""
        assert f"'{rng}'" in json.loads(err)["error"]["message"]

    def test_infinite_spacing_is_usage_error(self, capsys, tmp_path):
        # an infinite spacing used to run, writing inf for every loss and recording Infinity
        argv = ["ccdf", "--paths", "2", "--trials", "5"]
        message = usage_message(capsys, *argv, "--spacing", "inf")
        assert "spacing_wavelengths must be finite" in message
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"spacing": math.inf}))
        assert cfg_file.read_text() == '{"spacing": Infinity}'
        assert usage_message(capsys, *argv, "--config", str(cfg_file)) == message

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "ccdf", "--paths", "1", "--trials", "5", "--nt", "4", "--nr", "2",
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        )
        assert code == EXIT_IO
        assert json.loads(err)["error"]["type"] == "io"

    def test_bad_scheme_combination(self, capsys):
        code, _, err = run_cli(
            capsys,
            "ccdf", "--paths", "3", "--trials", "5", "--scheme", "equal_power",
        )
        assert code == EXIT_USAGE


class TestVerifyCommand:
    def test_bounds_suite_passes(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--suite", "bounds", "--out", str(out_file))
        assert code == EXIT_OK
        assert "suite bounds" in out
        assert "[pass]" in out
        doc = json.loads(out_file.read_text())
        assert doc["results"]["passed"] is True

    def test_small_randomized_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "prop2", "--trials", "10")
        assert code == EXIT_OK
        assert "5/5 checks passed" in out

    def test_failure_exits_four(self, capsys, monkeypatch):
        from mmwbeam import verify as verify_module

        def fake_suite(suite, trials=None, seed=0):
            report = verify_module.SuiteReport(suite=suite, trials=1, seed=seed)
            report.checks.append(verify_module.CheckResult("forced", 1.0, 0.5))
            return report

        monkeypatch.setattr(verify_module, "run_suite", fake_suite)
        code, out, err = run_cli(capsys, "verify", "--suite", "prop3")
        assert code == EXIT_VERIFY
        assert "[FAIL]" in out
        assert json.loads(err)["error"]["type"] == "verification"

    def test_bounds_trials_must_be_nonnegative(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "bounds", "--trials", "-3")
        assert code == EXIT_USAGE and out == ""
        assert json.loads(err)["error"]["type"] == "usage"
        for extra in ((), ("--trials", "0")):
            code, out, _ = run_cli(capsys, "verify", "--suite", "bounds", *extra)
            assert code == EXIT_OK
            assert out.startswith("suite bounds: trials=0 ")

    @pytest.mark.parametrize("seed, from_file", [
        ("-1", False), (str(2**64), False), (1e20, True),
    ], ids=["negative", "two-to-the-64", "config-1e20"])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, tmp_path, seed, from_file):
        # keying the Philox stream raised OverflowError, a traceback with exit 1
        argv = ["verify", "--suite", "prop2", "--trials", "1"]
        if from_file:
            cfg_file = tmp_path / "run.json"
            cfg_file.write_text(json.dumps({"seed": seed}))
            argv += ["--config", str(cfg_file)]
        else:
            argv += ["--seed", seed]
        assert usage_message(capsys, *argv) == "seed must be a 64-bit unsigned integer"

    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "prop9")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config"])
    def test_csv_format_rejected(self, capsys, tmp_path, from_file):
        # a report is JSON only: csv must not write a JSON document under a csv name
        out_file = tmp_path / "report.csv"
        argv = ["verify", "--suite", "bounds", "--out", str(out_file)]
        if from_file:
            cfg_file = tmp_path / "run.json"
            cfg_file.write_text(json.dumps({"format": "csv"}))
            argv += ["--config", str(cfg_file)]
        else:
            argv += ["--format", "csv"]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert json.loads(err)["error"]["type"] == "usage"
        assert not out_file.exists()

    def test_json_format_accepted(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        argv = ["verify", "--suite", "bounds", "--out", str(out_file), "--format", "json"]
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        assert json.loads(out_file.read_text())["config"]["format"] == "json"


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(
            json.dumps({"case": "v-orth", "a1": 2.0, "a2": 1.0, "uu": 0.9})
        )
        code, out, _ = run_cli(
            capsys, "closedform", "--config", str(cfg_file), "--uu", "0.5"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["uu_mag"] == 0.5  # flag wins
        assert doc["results"]["mag_a1"] == 2.0  # file fills the rest

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"case": "v-orth", "bogus": 1}))
        code, _, err = run_cli(capsys, "closedform", "--config", str(cfg_file))
        assert code == EXIT_USAGE
        assert "bogus" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("closedform", {"case": "bogus", "a1": 1.0, "a2": 1.0, "uu": 1.0}),
            # sweep has no v-parallel case; it used to run as u-parallel from a file
            ("sweep", {"case": "v-parallel", "k_min": 1.0, "k_max": 2.0, "vv": 0.5}),
        ],
    )
    def test_case_outside_the_command_rejected(self, capsys, tmp_path, command, doc):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(doc))
        message = usage_message(capsys, command, "--config", str(cfg_file))
        assert repr(doc["case"]) in message

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            ("closedform", {"case": "v-orth", "a1": 1.0, "a2": 1.0, "format": "xml"}, "format"),
            ("ccdf", {"paths": 2, "trials": 5, "scheme": "foo"}, "scheme"),
            ("ccdf", {"paths": 2, "trials": 5, "angle_sampling": "foo"}, "angle_sampling"),
            ("ccdf", {"paths": 2, "trials": 5, "rng": "philox4x64"}, "rng"),
            ("verify", {"suite": "bogus"}, "suite"),
            ("closedform", {"case": "u-para", "a1": 1.0, "a2": 1.0, "vv": 0.5}, "case"),
            ("sweep", {"case": "v-parallel", "k_min": 1.0, "k_max": 2.0, "uu": 0.5}, "case"),
        ],
        ids=["format", "scheme", "angle_sampling", "rng", "suite", "closedform-case",
             "sweep-case"],
    )
    def test_value_outside_the_flag_choices_rejected(self, capsys, tmp_path, command, doc, key):
        # a file is checked against its flag's choices, as the flag itself would be
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(doc))
        message = usage_message(capsys, command, "--config", str(cfg_file))
        assert repr(key) in message and repr(doc[key]) in message

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["closedform", "--a1", "2", "--a2", "1"], "case", "v-orth"),
            (["closedform", "--case", "v-orth", "--a1", "2", "--a2", "1"], "format", "csv"),
            (["sweep", "--k-min", "1", "--k-max", "2", "--k-points", "3", "--vv", "0.3"],
             "case", "u-orth"),
            (["ccdf", "--paths", "2", "--nt", "8", "--trials", "5"], "scheme", "equal_power"),
            (["ccdf", "--paths", "2", "--nt", "8", "--trials", "5"],
             "angle_sampling", "uniform_cosine"),
            (["ccdf", "--paths", "2", "--nt", "8", "--trials", "5"], "rng", "philox4x64-v2"),
            (["verify"], "suite", "bounds"),
        ],
        ids=["closedform-case", "format", "sweep-case", "scheme", "angle_sampling", "rng",
             "suite"],
    )
    def test_value_inside_the_choices_runs_as_the_flag(self, capsys, tmp_path, argv, key, value):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({key: value}))
        from_file = run_cli(capsys, *argv, "--config", str(cfg_file))
        from_flag = run_cli(capsys, *argv, "--" + key.replace("_", "-"), value)
        assert from_file == from_flag and from_file[0] == EXIT_OK

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "closedform", "--config", str(tmp_path / "nope.json")
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "doc",
        [
            {"seed": 1.7}, {"trials": 3.9}, {"paths": 2.5}, {"seed": True},
            {"nt": False}, {"spacing": True}, {"fov_deg": False},
            pytest.param({"spacing": 10**400}, id="spacing=10**400"),
        ],
        ids=lambda doc: "-".join(f"{key}={value}" for key, value in doc.items()),
    )
    def test_fractional_or_boolean_value_is_usage_error(self, capsys, tmp_path, doc):
        # int() alone ran seed 1.7 as seed 1 and true as 1, and recorded them so;
        # float() of a 400-digit integer raised OverflowError past the usage check
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"paths": 2, "trials": 5, **doc}))
        message = usage_message(capsys, "ccdf", "--config", str(cfg_file))
        assert repr(next(iter(doc))) in message

    @pytest.mark.parametrize(
        "doc",
        [{"out": {"a": 1}}, {"out": 5}, {"scheme": True}, {"rng": ["philox4x64-v2"]}],
        ids=lambda doc: "-".join(f"{key}={value}" for key, value in doc.items()),
    )
    def test_non_string_value_for_a_string_key_is_usage_error(
        self, capsys, tmp_path, monkeypatch, doc
    ):
        # str() alone wrote the output to a file named "{'a': 1}"
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"paths": 2, "trials": 5, **doc}))
        message = usage_message(capsys, "ccdf", "--config", str(cfg_file))
        assert repr(next(iter(doc))) in message and "expected a string" in message
        assert list(tmp_path.iterdir()) == [cfg_file]

    @pytest.mark.parametrize("argv", [
        ["ccdf", "--paths", "2", "--trials", "5"],
        ["closedform", "--case", "v-orth", "--a1", "2", "--a2", "1", "--uu", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_nul_in_the_output_path_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        # open() raised "embedded null byte", a traceback with exit 1, after the whole run
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output path was checked")

        monkeypatch.setattr(montecarlo, "run_ccdf", no_work)
        monkeypatch.setattr(cli, "_closedform_record", no_work)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"out": "a\u0000b"}))
        assert "NUL" in usage_message(capsys, *argv, "--config", str(cfg_file))

    def test_integral_float_value_is_accepted(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"paths": 2.0, "trials": 5, "seed": 3.0}))
        code, out, _ = run_cli(capsys, "ccdf", "--config", str(cfg_file), "--nt", "8")
        assert code == EXIT_OK
        assert out == run_cli(capsys, "ccdf", "--paths", "2", "--trials", "5", "--seed", "3",
                              "--nt", "8")[1]

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text("{not json")
        code, _, err = run_cli(capsys, "closedform", "--config", str(cfg_file))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("doc", [[], [1, 2], "text", 3, None])
    def test_file_that_is_not_a_json_object_is_usage_error(self, capsys, tmp_path, doc):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(doc))
        message = usage_message(capsys, "closedform", "--config", str(cfg_file))
        assert message == "config file must contain a JSON object"

    def test_file_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        # reading it raised UnicodeDecodeError, a traceback
        cfg_file = tmp_path / "run.json"
        cfg_file.write_bytes(b"\xff\xfe{}")
        assert "not valid JSON" in usage_message(capsys, "closedform", "--config", str(cfg_file))

    def test_nul_in_the_config_path_is_usage_error(self, capsys):
        # open() raised "embedded null byte", a traceback
        assert "NUL" in usage_message(capsys, "closedform", "--config", "a\0b")


@pytest.mark.parametrize("argv, callee, error", [
    (["ccdf", "--paths", "2", "--trials", "5"], "run_ccdf",
     MemoryError("Unable to allocate 7.3 PiB for an array")),
    (["sweep", "--case", "v-orth", "--k-min", "1", "--k-max", "2", "--uu", "0.3"],
     "_closedform_record", MemoryError()),
], ids=["ccdf", "sweep"])
def test_a_run_out_of_memory_is_usage_error(capsys, monkeypatch, argv, callee, error):
    # a huge --trials or --k-points ended in a MemoryError traceback with exit 1
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(montecarlo if callee == "run_ccdf" else cli, callee, exhausted)
    assert usage_message(capsys, *argv) == (str(error) or "out of memory")


def test_a_config_file_out_of_memory_is_usage_error(capsys, monkeypatch, tmp_path):
    # a MemoryError while reading --config ended in a traceback with exit 1
    def exhausted(*args, **kwargs):
        raise MemoryError()

    cfg_file = tmp_path / "run.json"
    cfg_file.write_text("{}")
    monkeypatch.setattr(cli.json, "load", exhausted)
    assert usage_message(capsys, "closedform", "--config", str(cfg_file)) == "out of memory"


class TestArgparseBoundary:
    def test_unknown_flag_exits_two(self, capsys):
        assert main(["closedform", "--nonsense", "1"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_subcommand_exits_two(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()


class TestParserReuse:
    ARGVS = [
        ["closedform", "--case", "v-orth", "--a1", "2", "--a2", "1", "--uu", "0.5"],
        ["sweep", "--case", "u-orth", "--k-min", "1", "--k-max", "4", "--k-points", "5",
         "--vv", "0.3", "--format", "json"],
        ["ccdf", "--paths", "2", "--trials", "5", "--nt", "8", "--scheme", "equal_power"],
        ["verify", "--suite", "prop1", "--trials", "2"],
        ["closedform", "--nonsense", "1"],
        ["--version"],
    ]

    def test_repeated_calls_give_the_same_bytes(self, capsys):
        # a valid line builds no parser; the error line and --version build the full parser,
        # once per process; a second round must not see the first
        cli._build_parser.cache_clear()
        first = [run_cli(capsys, *argv) for argv in self.ARGVS]
        second = [run_cli(capsys, *argv) for argv in self.ARGVS]
        assert second == first
        parsers = cli._build_parser.cache_info()
        assert (parsers.misses, parsers.currsize) == (1, 1)
        codes = [code for code, _, _ in first]
        assert codes == [EXIT_OK] * 4 + [EXIT_USAGE, EXIT_OK]
        assert first[4][2].startswith("usage: mmwbeam")
        assert first[5][1] == f"mmwbeam {__version__}\n"


class TestDirectParse:
    # (argv, the route that parses it): "table" reads a command and exact --flag value pairs
    # of its flags without argparse; every other line goes to the "full" parser
    CORPUS = [
        (["closedform", "--case", "v-orth", "--a1", "2", "--a2", "1", "--uu", "0.5"], "table"),
        (["closedform", "--case=v-orth", "--a1=2", "--a2=1", "--uu=0.5", "--format=csv"],
         "full"),
        (["sweep", "--case", "u-orth", "--k-min", "1", "--k-max", "4", "--k-points", "5",
          "--vv", "0.3"], "table"),
        (["ccdf", "--paths", "3", "--trials", "20", "--nt", "8"], "table"),
        (["ccdf", "--paths=2", "--trials=10", "--scheme=equal_power", "--format=json"], "full"),
        (["ccdf", "--path", "2", "--trials", "5"], "full"),
        (["ccdf", "--config", "{config}", "--nt", "8"], "table"),
        (["verify", "--suite", "prop1", "--trials", "2"], "table"),
        (["ccdf", "-h"], "full"),
        (["ccdf", "--paths", "2", "--scheme", "nope"], "full"),
        (["ccdf", "--paths", "x"], "full"),
        (["ccdf", "--paths"], "full"),
        (["ccdf", "--trials", "5"], "table"),
        (["closedform", "--case", "v-orth", "--uu", "0.5"], "table"),
        (["ccdf", "--paths", "3", "--trials", "5", "--paths", "2", "--nt", " 8"], "table"),
        (["ccdf", "--paths", "2", "--trials", "1_0", "--spacing", "nan"], "table"),
        (["ccdf", "--paths", "2", "--trials", "5", "--spacing", "1e999"], "table"),
        (["ccdf", "--paths", "2", "--trials", ""], "full"),
        (["ccdf", "--paths", "2", "--trials", "5", "--seed", "-5"], "full"),
        (["ccdf", "--paths", "2", "--trials", "5", "--spacing", "-.5"], "full"),
        (["ccdf", "--paths", "2", "--out", "-x"], "full"),
        (["ccdf", "--paths", "2", "--trials", "5", "--format", "-h"], "full"),
        (["ccdf", "--paths", "2", "--trials", "5", "--paths"], "full"),
        (["ccdf", "--paths", "2", "--trials", "5", "--rng", "pcg64"], "full"),
        (["closedform", "--case", "u-orth", "--case", "nope", "--a1", "2"], "full"),
        (["--version"], "full"),
        (["-h"], "full"),
        (["--version", "ccdf"], "full"),
        (["ccdf", "--version"], "full"),
        ([], "full"),
        (["bogus", "--paths", "2"], "full"),
        (["ccdf", "--bogus", "1", "--paths", "2"], "full"),
        (["ccdf", "--paths", "2", "extra"], "full"),
        (["ccdf", "--paths", "2", "--", "--trials", "5"], "full"),
        (["ccdf", "--paths", "2", "--"], "full"),
        (["--", "ccdf", "--paths", "2"], "full"),
    ]

    def test_each_route_gives_the_bytes_of_the_full_parser(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "ccdf.json"
        config.write_text(json.dumps({"paths": 2, "trials": 8}), encoding="utf-8")
        corpus = [[arg.format(config=config) for arg in argv] for argv, _ in self.CORPUS]
        parses = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, args=None, namespace=None):
            parses.append(parser.prog)
            return parse_args(parser, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        direct, routes = [], []
        for argv in corpus:
            parses.clear()
            direct.append(run_cli(capsys, *argv))
            routes.append({(): "table", ("mmwbeam",): "full"}.get(tuple(parses), parses[:]))
        assert routes == [route for _, route in self.CORPUS]
        monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
        assert [run_cli(capsys, *argv) for argv in corpus] == direct
        codes = [code for code, _, _ in direct]
        assert codes[:8] == [EXIT_OK] * 8 and set(codes[8:]) == {EXIT_OK, EXIT_USAGE}


# A fresh interpreter runs one command line and prints its exit code, its standard output
# and error, the mmwbeam modules it loaded, whether it loaded argparse, and whether it built
# the full parser.
_FRESH_RUN = """\
import contextlib, io, json, sys
from mmwbeam import cli
with contextlib.redirect_stdout(io.StringIO()) as out, \\
        contextlib.redirect_stderr(io.StringIO()) as err:
    code = cli.main(json.loads(sys.argv[1]))
loaded = sorted(name for name in sys.modules if name.startswith("mmwbeam."))
print(json.dumps([code, out.getvalue(), err.getvalue(), loaded, "argparse" in sys.modules,
                  cli._build_parser.cache_info().currsize]))
"""


def fresh_run(tmp_path, argv):
    """What :data:`_FRESH_RUN` prints for ``argv``, at 80 columns."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, json.dumps(argv)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path, COLUMNS="80"), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def eager_parser():
    """A full parser, not shared, whose every command's subparser has its flags already."""
    parser = cli._build_parser.__wrapped__()
    (subs,) = [action for action in parser._actions if action.dest == "command"]
    for sub in subs.choices.values():
        sub.parse_known_args([])
    return parser


class TestColdStart:
    @pytest.mark.parametrize("argv, unloaded", [
        (["ccdf", "--paths", "2", "--trials", "5", "--nt", "8"], ["closedform", "verify"]),
        (["closedform", "--case", "v-orth", "--a1", "2", "--a2", "1", "--uu", "0.5"],
         ["montecarlo", "verify"]),
        (["sweep", "--case", "u-orth", "--k-min", "1", "--k-max", "4", "--vv", "0.3"],
         ["montecarlo", "verify"]),
    ], ids=["ccdf", "closedform", "sweep"])
    def test_a_command_loads_only_its_own_modules_and_no_parser(self, tmp_path, argv, unloaded):
        code, _, _, loaded, argparse_loaded, full_parsers = fresh_run(tmp_path, argv)
        assert code == EXIT_OK
        assert "mmwbeam.cli" in loaded
        assert [name for name in loaded if name.split(".")[1] in unloaded] == []
        assert not argparse_loaded
        assert full_parsers == 0

    @pytest.mark.parametrize("argv", [["--version"], ["-h"], ["bogus"], []],
                             ids=["version", "help", "unknown", "empty"])
    def test_a_line_the_full_parser_stops_loads_no_command(self, capsys, monkeypatch, tmp_path,
                                                          argv):
        # the subparsers get their flags only when handed a line, so these lines import no
        # command's module, and print what a parser with every flag in place prints
        code, out, err, loaded, argparse_loaded, full_parsers = fresh_run(tmp_path, argv)
        assert [name for name in loaded
                if name.split(".")[1] in ("closedform", "montecarlo", "verify")] == []
        assert argparse_loaded and full_parsers == 1
        monkeypatch.setenv("COLUMNS", "80")
        parser = eager_parser()
        monkeypatch.setattr(cli, "_parse", lambda argv: parser.parse_args(argv))
        assert [code, out, err] == list(run_cli(capsys, *argv))
        assert code == (EXIT_OK if argv in (["--version"], ["-h"]) else EXIT_USAGE)


def indented_json(run_config, results):
    """The text _wrap_json must write: the plain indented ``json.dumps`` and a newline."""
    doc = {"config": run_config, "version": __version__, "results": results}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestWrapJson:
    CONFIG = {"command": "ccdf", "parameters": {"paths": 2}, "output_path": None, "format": "json"}

    @pytest.mark.parametrize("n", [1, 2, 200, 10_000])
    def test_float_lists_keep_the_bytes_of_the_indented_encoder(self, n):
        # a negative zero, inf and subnormals among the samples
        samples = np.sort(np.random.default_rng(n).standard_normal(n))
        samples[: min(n, 5)] = [-0.0, math.inf, 5e-324, 1e-310, -2.5e-320][:n]
        results = {"samples_db": samples.tolist(), "ccdf": ((n - np.arange(n)) / n).tolist(),
                   "num_resampled": 0, "median_db": float(samples[0])}
        assert cli._wrap_json(self.CONFIG, results) == indented_json(self.CONFIG, results)

    def test_float_lists_keep_the_sign_of_a_zero(self):
        # equal lists that encode differently: -0.0 == 0.0
        for values in ([0.0, 0.5], [-0.0, 0.5], [0.0, 0.5]):
            results = {"ccdf": values}
            assert cli._wrap_json(self.CONFIG, results) == indented_json(self.CONFIG, results)


# Strings a document may hold: any text, non-ASCII text, and the placeholder that an earlier
# writer put in place of each float list, as it stood and as json encodes it.
json_strings = st.one_of(
    st.text(), st.sampled_from(["\0float list 0\0", '"\\u0000float list 1\\u0000"', "é ∞ 😀"]))
# Floats json writes in its own way: inf, NaN and a negative zero, among any others.
json_floats = st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), json_floats, json_strings)
# Lists and tuples of floats alone, which the writer hands to json whole.
float_lists = st.lists(json_floats, max_size=3)
json_documents = st.recursive(
    st.one_of(json_scalars, float_lists, float_lists.map(tuple)),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_strings, children, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=json_documents, results=json_documents)
@example(config={}, results=[])
@example(config={"x": [-0.0, math.inf, math.nan]}, results=(math.nan,))
@example(config={"\0float list 0\0": [0.5]}, results={"a": "\0float list 0\0", "b": [1.0]})
def test_wrap_json_writes_the_bytes_of_the_indented_encoder(config, results):
    assert cli._wrap_json(config, results) == indented_json(config, results)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(key=st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
       results=json_documents)
def test_wrap_json_refuses_a_key_that_is_no_string(key, results):
    # json would write such a key as a string; no output of the CLI holds one
    for doc in ({key: results}, {"rows": [{"a": 1, key: results}]}):
        with pytest.raises(TypeError):
            cli._wrap_json({}, doc)
