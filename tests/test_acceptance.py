"""Acceptance suite: every repository-level guarantee, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and the reported (non-gating) comparisons.
"""

import math
import time

import numpy as np
import pytest

from mmwbeam.beamformer import dominant_path_beamformer, equal_power_beamformer
from mmwbeam.channel import PathComponent, assemble_channel, channel_power
from mmwbeam.closedform import (
    AllocationPoint,
    TwoPathParams,
    delta_snr_u_parallel,
    delta_snr_v_orth,
    objective_grid,
    snr_dominant_path,
    two_path_objective,
)
from mmwbeam.cli import EXIT_OK, main
from mmwbeam.montecarlo import McConfig, percentile, run_ccdf
from mmwbeam.steering import AngleSpec, ArrayGeometry
from mmwbeam.verify import verify_prop1, verify_prop2, verify_prop3, verify_prop4

SEED = 20240801


def announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _plain_channel(gains, aods, aoas, nt, nr):
    """The channel ``assemble_channel`` builds, with numpy alone: test 01's timing reference."""
    rx = np.exp(1j * math.pi * np.arange(nr)[:, None] * np.cos(np.array(aoas))) / math.sqrt(nr)
    tx = np.exp(1j * math.pi * np.arange(nt)[:, None] * np.cos(np.array(aods))) / math.sqrt(nt)
    return math.sqrt(nr * nt / len(gains)) * (rx * np.array(gains)) @ tx.conj().T


# Bound on the time of an assemble_channel call over that of a _plain_channel call.
# The ratio reads 1.4-1.5 on an idle 2-core x86-64 box (Python 3.11, numpy 2.4) and
# held under two busy processes on both cores; a twice slower assemble_channel reads 2.9.
CALL_TIME_RATIO = 2.5


def test_01_channel_power_normalization():
    num_paths, nt, nr = 3, 16, 4
    tx_geom, rx_geom = ArrayGeometry(nt), ArrayGeometry(nr)
    draws, blocks, reference_calls = 100_000, 10, 1_000
    rng = np.random.default_rng(SEED)
    gains = (
        rng.standard_normal((draws, num_paths)) + 1j * rng.standard_normal((draws, num_paths))
    ) / math.sqrt(2.0)
    aods = rng.uniform(0.0, 2.0 * math.pi, (draws, num_paths))
    aoas = rng.uniform(0.0, 2.0 * math.pi, (draws, num_paths))

    # Each block times its assemble_channel calls right after reference calls on the
    # block's first trials, so machine load reaches both sides of the ratio alike.
    elapsed = reference = total = 0.0
    for block in np.split(np.arange(draws), blocks):
        paths = [
            [
                PathComponent(
                    complex(gains[trial, k]),
                    AngleSpec(float(aods[trial, k])),
                    AngleSpec(float(aoas[trial, k])),
                )
                for k in range(num_paths)
            ]
            for trial in block.tolist()
        ]
        plain = [(gains[t].tolist(), aods[t].tolist(), aoas[t].tolist())
                 for t in block[:reference_calls].tolist()]
        start = time.perf_counter()
        for args in plain:
            _plain_channel(*args, nt, nr)
        reference += time.perf_counter() - start
        start = time.perf_counter()
        channels = [assemble_channel(trial_paths, tx_geom, rx_geom) for trial_paths in paths]
        elapsed += time.perf_counter() - start
        total += sum(channel_power(channel) for channel in channels)
    assert np.allclose(channels[0].entries, _plain_channel(*plain[0], nt, nr), rtol=0, atol=1e-12)
    mean = total / draws / (nt * nr)
    ratio = (elapsed / draws) / (reference / (blocks * reference_calls))
    ok = 0.99 <= mean <= 1.01 and ratio < CALL_TIME_RATIO
    announce(1, "average channel power normalization", ok,
             f"mean={mean:.5f} elapsed={elapsed:.1f}s call_time_ratio={ratio:.2f}")


def test_02_optimal_beam_span_and_route_agreement():
    report = verify_prop1(trials=1000, seed=SEED)
    worst = {c.name: c.worst for c in report.checks}
    ok = (
        worst["tx beam within steering span"] < 1e-8
        and worst["rx beam within steering span"] < 1e-8
        and worst["cross-route SNR relative difference"] < 1e-9
    )
    announce(2, "steering-span structure and dense vs. reduced route agreement", ok,
             f"residual={worst['tx beam within steering span']:.2e} "
             f"snr_rel={worst['cross-route SNR relative difference']:.2e}")


def test_03_v_orthogonal_allocation_vs_grid():
    report = verify_prop2(trials=500, seed=SEED)
    worst = {c.name: c.worst for c in report.checks}
    beta_step = 1.0 / 200
    ok = (
        worst["allocation argmax vs grid (beta)"] <= beta_step + 1e-12
        and worst["grid SNR minus closed-form SNR"] <= 1e-6
    )
    announce(3, "v-orthogonal closed-form split vs 201-point beta scan", ok,
             f"beta_dev={worst['allocation argmax vs grid (beta)']:.2e} "
             f"margin={worst['grid SNR minus closed-form SNR']:.2e}")


def test_04_single_path_loss_bound():
    equal = delta_snr_v_orth(TwoPathParams(1.0, 1.0, uu_mag=1.0))
    db_err = abs(10.0 * math.log10(equal) - 10.0 * math.log10(2.0))
    sup = 0.0
    for k in np.linspace(1.0, 10.0, 100):
        for uu in np.linspace(0.0, 1.0, 100):
            sup = max(sup, delta_snr_v_orth(TwoPathParams(float(k), 1.0, uu_mag=float(uu))))
    ok = equal == 2.0 and db_err < 1e-9 and sup <= 2.0 + 1e-12
    announce(4, "worst v-orthogonal loss is exactly 3 dB", ok,
             f"equal-gain={equal} dB_err={db_err:.1e} sup={sup}")


def test_05_u_orthogonal_allocation_and_worst_coupling():
    report = verify_prop3(trials=500, seed=SEED)
    worst = {c.name: c.worst for c in report.checks}
    beta_step = 1.0 / 200
    suite_ok = (
        worst["allocation argmax vs grid (beta)"] <= beta_step + 1e-12
        and worst["grid SNR minus closed-form SNR"] <= 1e-6
    )
    vv_grid = np.linspace(0.0, 1.0, 10001)
    losses = (1.0 + vv_grid) / (1.0 + vv_grid**2)
    top = int(np.argmax(losses))
    loc_err = abs(float(vv_grid[top]) - (math.sqrt(2.0) - 1.0))
    val_err = abs(float(losses[top]) - (math.sqrt(2.0) + 1.0) / 2.0)
    db_err = abs(10.0 * math.log10(float(losses[top])) - 0.8175)
    grid_step = float(vv_grid[1] - vv_grid[0])
    ok = suite_ok and loc_err <= grid_step and val_err < 1e-9 and db_err < 1e-4
    announce(5, "u-orthogonal split vs grid and 0.8175 dB worst case", ok,
             f"beta_dev={worst['allocation argmax vs grid (beta)']:.2e} "
             f"loc_err={loc_err:.1e} val_err={val_err:.1e} dB_err={db_err:.1e}")


def test_06_parallel_transmit_vectors_make_allocation_irrelevant():
    rng = np.random.default_rng(SEED)
    betas = np.linspace(0.0, 1.0, 100)
    worst = 0.0
    for _ in range(100):
        params = TwoPathParams(
            mag_a1=float(rng.rayleigh(math.sqrt(0.5))) + 1e-3,
            mag_a2=float(rng.rayleigh(math.sqrt(0.5))) + 1e-3,
            phase_diff=float(rng.uniform(0.0, 2.0 * math.pi)),
            uu_mag=float(rng.uniform(0.0, 1.0)),
            uu_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
            vv_mag=1.0,
            vv_phase=0.0,
        )
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        values = objective_grid(params, betas, [theta])
        worst = max(worst, float(values.max() - values.min()))
    ok = worst < 1e-10
    announce(6, "loss-free power allocation under parallel transmit vectors", ok,
             f"max_variation={worst:.2e}")


def test_07_parallel_receive_allocation_and_deep_fade_example():
    report = verify_prop4(trials=500, seed=SEED)
    worst = {c.name: c.worst for c in report.checks}
    beta_step = 1.0 / 200
    suite_ok = (
        worst["allocation argmax vs grid (beta)"] <= beta_step + 1e-12
        and worst["grid SNR minus closed-form SNR"] <= 1e-6
    )
    fade = delta_snr_u_parallel(
        TwoPathParams(1.0, 1.0, phase_diff=math.pi, uu_mag=1.0, vv_mag=0.9)
    )
    fade_db = 10.0 * math.log10(fade)
    ok = suite_ok and abs(fade_db - 13.01) <= 0.01 and fade_db > 3.0
    announce(7, "gain-proportional split vs grid and the deep-fade example", ok,
             f"beta_dev={worst['allocation argmax vs grid (beta)']:.2e} fade={fade_db:.4f} dB")


def test_08_equal_power_wastes_half_under_orthogonal_transmit():
    # analytic limit of the dominant-to-equal-power ratio as the gain
    # ratio grows: 2K^2/(K^2+1) -> 2
    limit_db = 10.0 * math.log10(2.0)
    k = 100.0
    p = TwoPathParams(k, 1.0, uu_mag=0.0, vv_mag=0.0)
    equal_split = AllocationPoint(beta=math.sqrt(0.5), theta=0.0)
    closed_ratio_db = 10.0 * math.log10(
        snr_dominant_path(p) / two_path_objective(p, equal_split)
    )

    # the same comparison on an assembled channel with both separations on
    # exact array nulls
    nt, nr = 8, 4
    paths = [
        PathComponent(k, AngleSpec(math.acos(-1.0 / nt)), AngleSpec(math.acos(-1.0 / nr))),
        PathComponent(1.0, AngleSpec(math.acos(1.0 / nt)), AngleSpec(math.acos(1.0 / nr))),
    ]
    tx_geom, rx_geom = ArrayGeometry(nt), ArrayGeometry(nr)
    dom = dominant_path_beamformer(paths, tx_geom, rx_geom)
    eq = equal_power_beamformer(paths, tx_geom, rx_geom)
    matrix_ratio_db = 10.0 * math.log10(dom.normalized_snr / eq.normalized_snr)

    ok = (
        abs(limit_db - 3.0103) < 1e-6
        and abs(closed_ratio_db - 3.0103) < 0.01
        and abs(matrix_ratio_db - 3.0103) < 0.01
    )
    announce(8, "equal power loses 3 dB under orthogonal transmit vectors", ok,
             f"limit={limit_db:.7f} closed@K=100={closed_ratio_db:.5f} "
             f"matrix@K=100={matrix_ratio_db:.5f}")


def test_09_ccdf_study_properties():
    start = time.perf_counter()
    tables = {
        num_paths: run_ccdf(
            McConfig(num_paths=num_paths, trials=10_000, seed=SEED, nt=64, nr=4)
        )
        for num_paths in (1, 2, 3, 5)
    }
    elapsed = time.perf_counter() - start

    min_sample = min(float(t.samples_db[0]) for t in tables.values())
    medians = {k: percentile(t, 0.5) for k, t in tables.items()}
    p90s = {k: percentile(t, 0.9) for k, t in tables.items()}
    ordered = medians[2] <= medians[3] <= medians[5]
    tails = all(p90s[k] >= medians[k] for k in tables)
    single_path = abs(medians[1]) < 1e-6

    # reported, not asserted: reference medians from a study with an
    # unspecified path-gain model (here: unit complex Gaussian)
    reference = {2: 0.3, 3: 0.95, 5: 1.85}
    comparison = "  ".join(
        f"L={k}: {medians[k]:.2f}dB (ref {reference[k]:.2f}dB)" for k in (2, 3, 5)
    )
    print(f"ACCEPTANCE 09 note: median comparison {comparison}; p90 "
          + "  ".join(f"L={k}: {p90s[k]:.2f}dB" for k in (2, 3, 5)))

    ok = min_sample >= -1e-9 and ordered and tails and single_path and elapsed < 60.0
    announce(9, "bi-directional loss CCDF properties", ok,
             f"min={min_sample:.1e} medians 2/3/5={medians[2]:.3f}/{medians[3]:.3f}/"
             f"{medians[5]:.3f} elapsed={elapsed:.1f}s")


def test_10_cli_ccdf_byte_determinism(tmp_path, capsys):
    out_file = tmp_path / "ccdf.csv"
    argv = [
        "ccdf", "--paths", "2", "--nt", "64", "--nr", "4",
        "--trials", "2000", "--seed", "42", "--out", str(out_file),
    ]
    code1 = main(list(argv))
    first = out_file.read_bytes()
    out_file.unlink()
    code2 = main(list(argv))
    second = out_file.read_bytes()
    capsys.readouterr()
    ok = code1 == EXIT_OK and code2 == EXIT_OK and first == second
    announce(10, "repeated seeded CCDF runs are byte-identical", ok,
             f"bytes={len(first)}")
