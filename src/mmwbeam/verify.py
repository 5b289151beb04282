"""Oracle-equivalence batteries for the optimal-pair and closed-form solvers.

Each suite draws randomized instances, compares an analytic result against
an independent brute-force or cross-route oracle, and reports worst-case
discrepancies:

* ``prop1``: the optimal transmit (receive) beam from the dense SVD of the
  channel lies in the span of the transmit (receive) steering vectors, and
  the dense and reduced L x L routes agree on the achieved SNR.
* ``prop2``: closed-form allocation vs. a search of the (beta, theta)
  allocation grid, transmit vectors electrically orthogonal; plus
  consistency with an actual ULA channel.
* ``prop3``: same for electrically orthogonal receive vectors.
* ``prop4``: same for parallel receive vectors (gain-proportional split).
* ``bounds``: worst-case loss bounds of dominant-path beamforming.

``prop2``-``prop4`` look their regime up in ``closedform.REGIMES`` by the
paper's proposition number, and draw and build their instances by one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import beamformer, closedform
from .channel import PathComponent, assemble_channel
from .steering import AngleSpec, ArrayGeometry, mainlobe_freq_delta, steering_matrix

__all__ = ["CheckResult", "SuiteReport", "SUITE_NAMES", "run_suite"]

_TWO_PI = 2.0 * math.pi

# Suite ``name`` runs as the function ``verify_<name>``, whose ``trials`` default is the suite's.
SUITE_NAMES = ("prop1", "prop2", "prop3", "prop4", "bounds")

# The closed-form case each allocation suite checks.
_SUITE_CASES = {
    f"prop{regime.proposition}": case
    for case, regime in closedform.REGIMES.items()
    if regime.proposition is not None
}

# Denominator floor of a relative difference: a reference of 0 gives the absolute one.
_REL_FLOOR = 1e-300

# Drawn gains are floored here, so both are nonzero and every loss is defined.
_MIN_DRAWN_GAIN = 1e-6

# Range of the free coupling a suite draws, by end.  The transmit coupling stays
# clear of 0, where u-orth meets v-orth, and of 1, where the u-parallel loss is unbounded.
_FREE_RANGE = {"uu": (0.0, 1.0), "vv": (0.05, 0.95)}

# Beta and theta resolution of the allocation grid the suites search.
_NUM_BETA, _NUM_THETA = 201, 360


def _rel_diff(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), _REL_FLOOR)


@dataclass(frozen=True)
class CheckResult:
    """Worst observed discrepancy of one check against its limit."""

    name: str
    worst: float
    limit: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "worst", float(self.worst))
        object.__setattr__(self, "limit", float(self.limit))

    @property
    def passed(self) -> bool:
        return bool(self.worst <= self.limit)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"  [{status}] {self.name}: worst {self.worst:.3e} (limit {self.limit:.3e})"


@dataclass
class SuiteReport:
    suite: str
    trials: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def num_failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    def lines(self) -> list[str]:
        head = (
            f"suite {self.suite}: trials={self.trials} seed={self.seed} -> "
            f"{len(self.checks) - self.num_failed}/{len(self.checks)} checks passed"
        )
        return [head] + [c.line() for c in self.checks]

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "worst": c.worst, "limit": c.limit, "passed": c.passed}
                for c in self.checks
            ],
        }


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _angles_for_freqs(f1: float, f2: float) -> tuple[AngleSpec, AngleSpec]:
    return AngleSpec(math.acos(f1)), AngleSpec(math.acos(f2))


def _two_path_fixture(
    case: str,
    mags: tuple[float, float],
    phases: tuple[float, float],
    coupling: float,
    nt: int = 16,
    nr: int = 8,
):
    """An actual ULA channel realizing the closed-form regime of ``case``.

    The constrained end sits exactly at a Dirichlet null (orthogonal) or
    at zero separation (parallel); the free end is placed on the main
    lobe so its inner-product magnitude equals ``coupling``.  Each end's
    spatial frequencies are +-half its separation.
    """
    regime = closedform.REGIMES[case]
    geoms = {"vv": ArrayGeometry(nt), "uu": ArrayGeometry(nr)}
    fixed = geoms[regime.constrained]
    null = 1.0 / (fixed.num_elements * fixed.spacing_wavelengths)
    half = {
        regime.constrained: 0.0 if regime.forced else null / 2,
        regime.free: mainlobe_freq_delta(geoms[regime.free], coupling) / 2,
    }
    aod = _angles_for_freqs(-half["vv"], half["vv"])
    aoa = _angles_for_freqs(-half["uu"], half["uu"])
    paths = [
        PathComponent(mags[0] * np.exp(1j * phases[0]), aod=aod[0], aoa=aoa[0]),
        PathComponent(mags[1] * np.exp(1j * phases[1]), aod=aod[1], aoa=aoa[1]),
    ]
    return paths, geoms["vv"], geoms["uu"]


def _span_residual(basis: np.ndarray, vec: np.ndarray) -> float:
    q, _ = np.linalg.qr(basis)
    return float(np.linalg.norm(vec - q @ (q.conj().T @ vec)))


def verify_prop1(trials: int = 1000, seed: int = 0) -> SuiteReport:
    """Span structure of the optimal pair and cross-route SNR agreement.

    The reduced route's SNR is its kernel's (``beamformer._optimal_snr`` on
    the paths' Grams), the bits ``reduced_optimal_beamformer`` reports, without
    the beam and matched filter that no check here reads.
    """
    path_counts = (1, 2, 3, 5)
    tx_sizes = (8, 16, 64)
    rx_sizes = (2, 4)
    worst_tx_resid = 0.0
    worst_rx_resid = 0.0
    worst_rel = 0.0
    for i in range(trials):
        rng = _instance_rng(seed, i)
        num_paths = int(rng.choice(path_counts))
        nt = int(rng.choice(tx_sizes))
        nr = int(rng.choice(rx_sizes))
        tx_geom = ArrayGeometry(nt)
        rx_geom = ArrayGeometry(nr)
        normals = rng.standard_normal((2, num_paths))
        gains = (normals[0] + 1j * normals[1]) / math.sqrt(2.0)
        aods = rng.uniform(0.0, _TWO_PI, num_paths)
        aoas = rng.uniform(0.0, _TWO_PI, num_paths)
        paths = [
            PathComponent(complex(gains[k]), AngleSpec(float(aods[k])), AngleSpec(float(aoas[k])))
            for k in range(num_paths)
        ]
        channel = assemble_channel(paths, tx_geom, rx_geom)
        dense = beamformer.optimal_beamformer(channel)
        args, _ = beamformer._path_grams(paths, tx_geom, rx_geom)
        reduced = float(beamformer._optimal_snr(*args)[0][0])
        tx_span = steering_matrix(tx_geom, [p.aod for p in paths])
        rx_span = steering_matrix(rx_geom, [p.aoa for p in paths])
        worst_tx_resid = max(worst_tx_resid, _span_residual(tx_span, dense.tx))
        worst_rx_resid = max(worst_rx_resid, _span_residual(rx_span, dense.rx))
        worst_rel = max(worst_rel, _rel_diff(reduced, dense.normalized_snr))
    report = SuiteReport(suite="prop1", trials=trials, seed=seed)
    report.checks.append(CheckResult("tx beam within steering span", worst_tx_resid, 1e-8))
    report.checks.append(CheckResult("rx beam within steering span", worst_rx_resid, 1e-8))
    report.checks.append(CheckResult("cross-route SNR relative difference", worst_rel, 1e-9))
    return report


def _draw_params(rng: np.random.Generator, regime: closedform.Regime) -> closedform.TwoPathParams:
    """Random parameters in ``regime``, drawn in a fixed order.

    Rayleigh gains and their phase difference; the constrained end's phase
    (a parallel end only: an orthogonal one has none); then the free
    coupling's magnitude, uniform on its ``_FREE_RANGE``, and its phase.
    """
    m1, m2 = _rayleigh_pair(rng)
    fields = {"phase_diff": float(rng.uniform(0.0, _TWO_PI))}
    fields[f"{regime.constrained}_mag"] = regime.forced
    if regime.forced:
        fields[f"{regime.constrained}_phase"] = float(rng.uniform(0.0, _TWO_PI))
    fields[f"{regime.free}_mag"] = float(rng.uniform(*_FREE_RANGE[regime.free]))
    fields[f"{regime.free}_phase"] = float(rng.uniform(0.0, _TWO_PI))
    return closedform.TwoPathParams(mag_a1=m1, mag_a2=m2, **fields)


def _alloc_suite(name: str, trials: int, seed: int) -> SuiteReport:
    """Closed-form allocation of one suite's regime vs. the grid, plus a matrix check."""
    case = _SUITE_CASES[name]
    regime = closedform.REGIMES[case]
    beta_step = 1.0 / (_NUM_BETA - 1)
    worst_beta = 0.0
    worst_margin = -math.inf
    worst_refined = 0.0
    worst_identity = 0.0
    worst_matrix = 0.0
    for i in range(trials):
        rng = _instance_rng(seed, i)
        params = _draw_params(rng, regime)
        alloc = regime.beta_opt(params)
        grid_alloc, grid_value = closedform.allocation_grid_search(params, _NUM_BETA, _NUM_THETA)
        cf_value = closedform.two_path_objective(params, alloc)
        worst_beta = max(worst_beta, abs(alloc.beta - grid_alloc.beta))
        worst_margin = max(worst_margin, grid_value - cf_value)
        worst_identity = max(worst_identity, _rel_diff(cf_value, regime.snr_optimal(params)))
        # zoomed second pass resolves optima near the beta = 1 edge, where
        # the sqrt(1 - beta^2) dependence defeats a uniform coarse grid;
        # theta stays a full sweep because it is unidentified at beta = 1
        window = (grid_alloc.beta - beta_step, grid_alloc.beta + beta_step)
        _, refined_value = closedform.allocation_grid_search(params, _NUM_BETA, _NUM_THETA, window)
        refined_value = max(refined_value, grid_value)
        worst_refined = max(worst_refined, _rel_diff(cf_value, refined_value))

        paths, tx_geom, rx_geom = _two_path_fixture(
            case,
            (params.mag_a1, params.mag_a2),
            (params.phase_diff, 0.0),
            getattr(params, f"{regime.free}_mag"),
        )
        measured = closedform.TwoPathParams.from_paths(paths, tx_geom, rx_geom)
        channel = assemble_channel(paths, tx_geom, rx_geom)
        pair = beamformer.optimal_beamformer(channel)
        worst_matrix = max(
            worst_matrix, _rel_diff(pair.normalized_snr, regime.snr_optimal(measured))
        )
    report = SuiteReport(suite=name, trials=trials, seed=seed)
    report.checks.append(
        CheckResult("allocation argmax vs grid (beta)", worst_beta, beta_step + 1e-12)
    )
    report.checks.append(CheckResult("grid SNR minus closed-form SNR", worst_margin, 1e-6))
    report.checks.append(
        CheckResult("refined grid vs closed-form SNR (relative)", worst_refined, 1e-3)
    )
    report.checks.append(
        CheckResult("closed-form SNR identity (objective)", worst_identity, 1e-9)
    )
    report.checks.append(
        CheckResult("ULA channel eigensolver consistency", worst_matrix, 1e-6)
    )
    return report


def _rayleigh_pair(rng: np.random.Generator) -> tuple[float, float]:
    mags = rng.rayleigh(math.sqrt(0.5), 2)
    return float(max(mags[0], _MIN_DRAWN_GAIN)), float(max(mags[1], _MIN_DRAWN_GAIN))


def verify_prop2(trials: int = 500, seed: int = 0) -> SuiteReport:
    """Orthogonal transmit vectors: optimal power split and its SNR."""
    return _alloc_suite("prop2", trials, seed)


def verify_prop3(trials: int = 500, seed: int = 0) -> SuiteReport:
    """Orthogonal receive vectors: optimal power split and its SNR."""
    return _alloc_suite("prop3", trials, seed)


def verify_prop4(trials: int = 500, seed: int = 0) -> SuiteReport:
    """Parallel receive vectors: gain-proportional power split."""
    return _alloc_suite("prop4", trials, seed)


def verify_bounds(trials: int = 0, seed: int = 0) -> SuiteReport:
    """Worst-case loss bounds of dominant-path beamforming.

    Deterministic: ``trials`` and ``seed`` are only recorded.  The v-orth
    bound takes its sup over a 100 x 100 grid of gain ratio K in [1, 10] and
    ``|u1^H u2|`` in [0, 1] in one array call to the body of
    :func:`closedform.delta_snr_v_orth`, and the u-orth bound over 10 001
    couplings in one call to :func:`closedform.delta_snr_u_orth_equal_gains`,
    so both test the library's formulas.
    """
    report = SuiteReport(suite="bounds", trials=trials, seed=seed)

    ks = np.linspace(1.0, 10.0, 100)
    uus = np.linspace(0.0, 1.0, 100)
    sup = float(closedform._v_orth_loss(ks[:, None] ** 2, 1.0, uus).max())
    report.checks.append(CheckResult("v-orth loss bound (sup <= 2)", sup, 2.0 + 1e-12))

    equal = closedform.delta_snr_v_orth(
        closedform.TwoPathParams(mag_a1=1.0, mag_a2=1.0, uu_mag=1.0)
    )
    report.checks.append(CheckResult("v-orth equal-gain loss == 2", abs(equal - 2.0), 0.0))
    equal_db = 10.0 * math.log10(equal)
    report.checks.append(
        CheckResult(
            "v-orth equal-gain loss in dB", abs(equal_db - 10.0 * math.log10(2.0)), 1e-9
        )
    )

    vv_grid = np.linspace(0.0, 1.0, 10001)
    losses = closedform.delta_snr_u_orth_equal_gains(vv_grid)
    top = int(np.argmax(losses))
    vv_step = vv_grid[1] - vv_grid[0]
    report.checks.append(
        CheckResult(
            "u-orth worst-coupling location",
            abs(float(vv_grid[top]) - (math.sqrt(2.0) - 1.0)),
            vv_step + 1e-15,
        )
    )
    report.checks.append(
        CheckResult(
            "u-orth worst loss value",
            abs(float(losses[top]) - (math.sqrt(2.0) + 1.0) / 2.0),
            1e-9,
        )
    )
    return report


def run_suite(suite: str, trials: int | None = None, seed: int = 0) -> SuiteReport:
    """Run one verification suite by name, with its own trial count unless ``trials`` is given.

    The function is looked up in this module at each call, so a rebinding of
    ``verify_<suite>`` reaches it.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    run = globals()[f"verify_{suite}"]
    if trials is None:
        return run(seed=seed)
    floor = 0 if suite == "bounds" else 1
    if trials < floor:
        raise ValueError(f"trials must be >= {floor}")
    return run(trials, seed)
