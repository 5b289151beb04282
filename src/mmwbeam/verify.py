"""Oracle-equivalence batteries for the optimal-pair and closed-form solvers.

Each suite draws randomized instances, compares an analytic result against
an independent brute-force or cross-route oracle, and reports worst-case
discrepancies:

* ``prop1``: the optimal transmit (receive) beam from the dense SVD of the
  channel lies in the span of the transmit (receive) steering vectors, and
  the dense and reduced L x L routes agree on the achieved SNR.
* ``prop2``: closed-form allocation vs. a scan of a beta grid that takes
  each beta at its exact maximum over theta, transmit vectors electrically
  orthogonal; plus consistency with an actual ULA channel.
* ``prop3``: same for electrically orthogonal receive vectors.
* ``prop4``: same for parallel receive vectors (gain-proportional split).
* ``bounds``: worst-case loss bounds of dominant-path beamforming.

The exact reference of ``prop2``-``prop4`` is :func:`closedform.snr_optimal`.
Their fourth check is per instance the larger of two relative differences
from it at the drawn parameters: that of the objective at the closed-form
split, and that of the loss times the objective at the dominant split (all
power on the stronger path); a NaN on either side fails it.  Their fifth
compares the dense optimum of a ULA channel built with the drawn gains and
free coupling, ``sigma_1^2 / (Nt Nr)`` from the singular values of its dense
SVD alone, with it at the parameters measured on that channel, whose
coupling phases come from the array geometry.

``prop2``-``prop4`` look their regime up in ``closedform.REGIMES`` by the
paper's proposition number, and draw and build their instances by one rule.

Instances are drawn as ``montecarlo`` draws its trials: instance ``i`` of
a run at ``seed`` owns the counter blocks after ``i * blocks`` of the one
Philox keyed by ``(seed, 0)``, 6 blocks for ``prop1`` and 2 for the
allocation suites, and a chunk of up to ``_CHUNK`` instances is read in one
call (:func:`_uniforms`).  Slots do not overlap, so an instance's values depend
neither on the chunk it is drawn in nor on the other instances, and
instance ``i`` alone is its suite's draw function on ``range(i, i + 1)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from . import beamformer, closedform, montecarlo
from .channel import _channel_stack
from .steering import (
    ArrayGeometry,
    _grams,
    mainlobe_freq_delta,
    spatial_frequencies,
    steering_stack,
)

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

# Beta resolution of the suites' scans, and the theta grid of their near-singular rows.
_NUM_BETA, _NUM_THETA = 201, 360

# The coarse scan's amplitudes, which every instance shares.
_COARSE_BETAS = np.linspace(0.0, 1.0, _NUM_BETA).reshape(1, -1)

# What prop1 draws: path counts, transmit and receive array sizes.
_PATH_COUNTS, _TX_SIZES, _RX_SIZES = (1, 2, 3, 5), (8, 16, 64), (2, 4)

# Transmit and receive array sizes of the allocation suites' ULA channels.
_FIXTURE_NT, _FIXTURE_NR = 16, 8

# Instances a suite draws and checks in one array pass, at any trial count: the
# allocation suites' beta scans hold (S, 201) grids of several columns each, a few
# megabytes at this many instances.
_CHUNK = 256


def _rel_diff(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), _REL_FLOOR)


@dataclass(frozen=True)
class CheckResult:
    """Worst observed discrepancy of one check against its limit.

    ``instance`` is the index of the first instance that attains ``worst``;
    None for a check over no random instances.  Instance ``i`` reads its own
    slot of the run's Philox (see the module docstring), so the suite's draw
    function on ``range(i, i + 1)`` draws it again alone.
    """

    name: str
    worst: float
    limit: float
    instance: int | None = None

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
                {
                    "name": c.name,
                    "worst": c.worst,
                    "limit": c.limit,
                    "passed": c.passed,
                    "worst_instance": c.instance,
                }
                for c in self.checks
            ],
        }


def _uniforms(seed: int, indices: range, blocks: int) -> np.ndarray:
    """Uniforms (S, 4 blocks) on [0, 1) of the consecutive instances ``indices``, in one call.

    Row s holds the ``blocks`` counter blocks after ``indices[s] * blocks``
    of the Philox keyed by ``(seed, 0)``: instance ``indices[s]``'s slot.
    """
    uniforms = np.empty((len(indices), 4 * blocks))
    montecarlo._slot_rng(seed, 0, indices.start, blocks).random(out=uniforms)
    return uniforms


def _chunked_values(values, trials: int, *args) -> list[list]:
    """Each check's values over ``range(trials)``, in instance order.

    ``values(*args, indices)`` gives them for each chunk of at most
    ``_CHUNK`` consecutive instances.
    """
    starts = range(0, trials, _CHUNK)
    chunks = [values(*args, range(start, min(start + _CHUNK, trials))) for start in starts]
    return [list(itertools.chain(*column)) for column in zip(*chunks)]


def _stacked(keys: list, kernel, *inputs: list) -> list:
    """Each instance's row of ``kernel``, run once per group of instances with equal keys.

    ``kernel(key, *stacks)`` gets the rows of ``inputs`` of one group's
    instances, stacked in instance order, and returns one row per instance.
    """
    groups: dict = {}
    for position, key in enumerate(keys):
        groups.setdefault(key, []).append(position)
    rows = [None] * len(keys)
    for key, members in groups.items():
        stacks = (np.array([values[k] for k in members]) for values in inputs)
        for k, row in zip(members, kernel(key, *stacks)):
            rows[k] = row
    return rows


def _worst(name: str, values: list[float], limit: float, start: float = 0.0) -> CheckResult:
    """The check of per-instance ``values``: Python's ``max`` run from ``start`` over them.

    The check records the first instance whose value is the worst.  A NaN
    value, which never raises a running maximum, makes the worst NaN instead,
    at the first NaN instance, so the check fails.
    """
    worst = math.nan if any(map(math.isnan, values)) else max([start, *values])
    instance = next((i for i, v in enumerate(values) if v == worst or math.isnan(v)), None)
    return CheckResult(name, worst, limit, instance)


def _fixtures(case: str, mags, phases, couplings):
    """Actual ULA channels realizing the closed-form regime of ``case``, one per row.

    Row s has the gains ``mags[s]`` (2,) with phases ``phases[s]`` and the
    free coupling ``couplings[s]``.  The constrained end sits exactly at a
    Dirichlet null (orthogonal) or at zero separation (parallel); the free
    end is placed on the main lobe so its inner-product magnitude equals the
    coupling, by one scalar Newton inversion (:func:`mainlobe_freq_delta`) per
    row.  Each end's spatial frequencies are +-half its separation.  Returns
    the gains (S, 2), the departure and arrival azimuths (S, 2) and the
    transmit and receive geometries.
    """
    regime = closedform.REGIMES[case]
    geoms = {"vv": ArrayGeometry(_FIXTURE_NT), "uu": ArrayGeometry(_FIXTURE_NR)}
    fixed = geoms[regime.constrained]
    null = 1.0 / (fixed.num_elements * fixed.spacing_wavelengths)
    deltas = [mainlobe_freq_delta(geoms[regime.free], coupling) for coupling in couplings]
    halves = {
        regime.constrained: [0.0 if regime.forced else null / 2] * len(deltas),
        regime.free: [delta / 2 for delta in deltas],
    }
    # math.acos: numpy's arccos rounds differently
    aods = np.array([(math.acos(-half), math.acos(half)) for half in halves["vv"]])
    aoas = np.array([(math.acos(-half), math.acos(half)) for half in halves["uu"]])
    gains = np.asarray(mags, dtype=float) * np.exp(1j * np.asarray(phases, dtype=float))
    return gains, aods, aoas, geoms["vv"], geoms["uu"]


def _residuals(bases: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Distances (B,) of vectors (B, N) from the spans of bases (B, N, L).

    Only Q of the reduced QR is formed: the two LAPACK gufuncs behind
    ``np.linalg.qr`` (zgeqrf, then zungqr) run on a copy of the stack, so Q
    has the bits of ``np.linalg.qr(bases)[0]`` without its R.  Where numpy's
    wrapper raises ``LinAlgError`` on a non-finite basis, this gives a NaN
    residual, which fails its check.  The norm is that of ``np.linalg.norm``
    (see :func:`beamformer._norms`), so each has the bits of its instance's
    own residual.
    """
    q = np.array(bases, dtype=complex)
    with np.errstate(all="ignore"):
        tau = _umath_linalg.qr_r_raw(q, signature="D->D")
        q = _umath_linalg.qr_reduced(q, tau, signature="DD->D")
    resid = (vecs[..., None] - q @ (np.conj(np.swapaxes(q, -1, -2)) @ vecs[..., None]))[..., 0]
    return beamformer._norms(resid)


def _draw_prop1(seed: int, indices: range) -> tuple[list, ...]:
    """Nt, Nr and the gains, departure and arrival azimuths (L,) of ``prop1`` instances.

    Each instance reads 6 counter blocks (:func:`_uniforms`).  Block 0 picks
    L, Nt and Nr from its first three uniforms, each as ``sizes[floor(u n)]``
    (``u < 1`` keeps ``u n`` below ``n`` after rounding).  Blocks 1-5 hold
    five each of ``u1``, ``u2``, departure and arrival uniforms, of which the
    first L are read: the gains are ``montecarlo._gains`` of ``u1`` and
    ``u2``, so CN(0, 1), and the azimuths ``2 pi u``, uniform on [0, 2 pi).
    """
    most = max(_PATH_COUNTS)
    uniforms = _uniforms(seed, indices, 1 + most)
    num_paths, nts, nrs = (
        np.array(sizes)[(uniforms[:, k] * len(sizes)).astype(int)].tolist()
        for k, sizes in enumerate((_PATH_COUNTS, _TX_SIZES, _RX_SIZES))
    )
    paths = uniforms[:, 4:].reshape(-1, 4, most)
    azimuths = _TWO_PI * paths[:, 2:]
    return nts, nrs, *(
        [row[:count] for row, count in zip(rows, num_paths)]
        for rows in (montecarlo._gains(paths), azimuths[:, 0], azimuths[:, 1])
    )


def _prop1_values(seed: int, indices: range) -> tuple[list, list, list]:
    """The span residuals at each end and the cross-route SNR differences of some instances.

    Each stage runs once per group of instances it can stack: the reduced
    SNR per path count L (:func:`beamformer._optimal_snr` on Grams of any
    array sizes, which at L = 2 hands their couplings to the two-path
    kernel the engine calls), the steering stacks and span residuals per
    array size and L, the channels per (Nt, Nr, L), and the dense SVD route
    per (Nt, Nr).
    Every stacked kernel gives each instance the bits of its own call.
    """
    nts, nrs, gains, aods, aoas = _draw_prop1(seed, indices)
    freqs_t, freqs_r = ([spatial_frequencies(a) for a in azimuths] for azimuths in (aods, aoas))
    paths = [len(g) for g in gains]
    spacing = ArrayGeometry(1).spacing_wavelengths  # every array here has the default spacing

    def reduced_snr(_, gain, freq_t, freq_r, nt, nr):
        grams = _grams(nt[:, None], spacing, freq_t), _grams(nr[:, None], spacing, freq_r)
        return beamformer._optimal_snr(gain, *grams)[0].tolist()

    def steering(key, freqs):
        return steering_stack(ArrayGeometry(key[0]), freqs)

    reduced = _stacked(paths, reduced_snr, gains, freqs_t, freqs_r, nts, nrs)
    steer_t = _stacked(list(zip(nts, paths)), steering, freqs_t)
    steer_r = _stacked(list(zip(nrs, paths)), steering, freqs_r)
    channels = _stacked(
        list(zip(nts, nrs, paths)), lambda _, *args: _channel_stack(*args), gains, steer_r, steer_t
    )
    pairs = _stacked(list(zip(nts, nrs)), lambda _, h: zip(*beamformer._dense_optimal(h)), channels)
    tx, rx, dense = zip(*pairs)
    resid_t, resid_r = (
        _stacked(list(zip(sizes, paths)), lambda _, *args: _residuals(*args).tolist(), steer, beams)
        for sizes, steer, beams in ((nts, steer_t, tx), (nrs, steer_r, rx))
    )
    rel = [_rel_diff(r, d) for r, d in zip(reduced, dense)]
    return resid_t, resid_r, rel


def verify_prop1(trials: int = 1000, seed: int = 0) -> SuiteReport:
    """Span structure of the optimal pair and cross-route SNR agreement.

    The reduced route's SNR is its kernel's (``beamformer._optimal_snr`` on
    the paths' Grams), the bits ``reduced_optimal_beamformer`` reports, without
    the beam and matched filter that no check here reads.  The instances are
    checked ``_CHUNK`` at a time (see :func:`_prop1_values`).
    """
    resid_t, resid_r, rel = _chunked_values(_prop1_values, trials, seed)
    report = SuiteReport(suite="prop1", trials=trials, seed=seed)
    report.checks.append(_worst("tx beam within steering span", resid_t, 1e-8))
    report.checks.append(_worst("rx beam within steering span", resid_r, 1e-8))
    report.checks.append(_worst("cross-route SNR relative difference", rel, 1e-9))
    return report


def _draw_params(
    seed: int, indices: range, regime: closedform.Regime
) -> list[closedform.TwoPathParams]:
    """Random parameters in ``regime`` of allocation instances.

    Each instance reads 2 counter blocks (:func:`_uniforms`), eight
    uniforms ``u``: the gain magnitudes ``sqrt(-log1p(-u))`` of ``u[0:2]``
    (Rayleigh, their squares Exp(1)), floored at ``_MIN_DRAWN_GAIN``; the
    phase difference ``2 pi u[2]``; the constrained end's phase ``2 pi
    u[3]``, read at a parallel end only (an orthogonal one has none); the
    free coupling's magnitude, uniform on its ``_FREE_RANGE``, from
    ``u[4]``, and its phase ``2 pi u[5]``.
    """
    uniforms = _uniforms(seed, indices, 2)
    mags = np.maximum(np.sqrt(-np.log1p(-uniforms[:, :2])), _MIN_DRAWN_GAIN)
    phases = _TWO_PI * uniforms
    lo, hi = _FREE_RANGE[regime.free]
    columns = {
        "mag_a1": mags[:, 0],
        "mag_a2": mags[:, 1],
        "phase_diff": phases[:, 2],
        f"{regime.free}_mag": lo + (hi - lo) * uniforms[:, 4],
        f"{regime.free}_phase": phases[:, 5],
    }
    if regime.forced:
        columns[f"{regime.constrained}_phase"] = phases[:, 3]
    rows = zip(*(column.tolist() for column in columns.values()))
    forced = {f"{regime.constrained}_mag": regime.forced}
    return [closedform.TwoPathParams(**dict(zip(columns, row)), **forced) for row in rows]


def _alloc_values(case: str, seed: int, indices: range) -> tuple[list, ...]:
    """The five allocation checks' values of some instances of the regime of ``case``.

    The closed forms run per instance; the coarse and refined scans of the
    beta axis, the objective at the closed-form and the dominant split (one
    block of two columns), the fixtures' main-lobe inversion and measurement
    and their singular values each run once over all the instances.  Check
    5 reads only the dense optimum ``sigma_1^2 / (Nt Nr)`` of each fixture
    (:func:`_fixture_snrs`), not its beams.
    """
    regime = closedform.REGIMES[case]
    beta_step = 1.0 / (_NUM_BETA - 1)
    params = _draw_params(seed, indices, regime)
    allocs = [regime.beta_opt(p) for p in params]
    terms = closedform._grid_terms(params)
    coarse = closedform._scans(terms, _COARSE_BETAS, _NUM_THETA)
    # all power on the stronger path: the beam the loss is taken against
    splits = [closedform.AllocationPoint(float(p.mag_a1 >= p.mag_a2), 0.0) for p in params]
    cf_values, dominant = closedform._objectives(terms, allocs, splits)
    # zoomed second pass resolves optima near the beta = 1 edge, where
    # the sqrt(1 - beta^2) dependence defeats a uniform coarse grid.
    # Each window spans 2 beta_step > 0, so linspace takes the same steps
    # on the array of windows as on each window alone.
    starts = np.array([point.beta - beta_step for point, _ in coarse])
    stops = np.array([point.beta + beta_step for point, _ in coarse])
    windows = np.clip(np.linspace(starts, stops, _NUM_BETA, axis=1), 0.0, 1.0)
    refined = closedform._scans(terms, windows, _NUM_THETA)

    betas, margins, refined_diffs, identities = [], [], [], []
    for p, alloc, (point, scan_value), cf_value, dominant_value, (_, refined_value) in zip(
        params, allocs, coarse, cf_values, dominant, refined
    ):
        betas.append(abs(alloc.beta - point.beta))
        margins.append(scan_value - cf_value)
        opt = closedform.snr_optimal(p)
        product = regime.delta_snr(p) * dominant_value
        # np.maximum, not max: a NaN on either side must fail the check
        identities.append(float(np.maximum(_rel_diff(cf_value, opt), _rel_diff(product, opt))))
        refined_diffs.append(_rel_diff(cf_value, max(refined_value, scan_value)))

    gains, aods, aoas, tx_geom, rx_geom = _fixtures(
        case,
        [(p.mag_a1, p.mag_a2) for p in params],
        [(p.phase_diff, 0.0) for p in params],
        [getattr(p, f"{regime.free}_mag") for p in params],
    )
    freqs_t, freqs_r = spatial_frequencies(aods), spatial_frequencies(aoas)
    measured = closedform._measured(gains, freqs_t, freqs_r, tx_geom, rx_geom)
    entries = _channel_stack(
        gains, steering_stack(rx_geom, freqs_r), steering_stack(tx_geom, freqs_t)
    )
    snrs = _fixture_snrs(entries)
    matrix = [_rel_diff(snr, closedform.snr_optimal(m)) for snr, m in zip(snrs, measured)]
    return betas, margins, refined_diffs, identities, matrix


def _fixture_snrs(entries: np.ndarray) -> list[float]:
    """The dense optimum ``sigma_1^2 / (Nt Nr)`` of each channel (B, Nr, Nt).

    The singular values alone come from LAPACK (zgesdd without vectors),
    which runs on each matrix of the stack alone, so each value has the bits
    of its own channel's.  The optimal pair's normalized SNR is this value up
    to rounding; the beams are not formed.
    """
    size = entries.shape[-2] * entries.shape[-1]
    return [sigma**2 / size for sigma in np.linalg.svd(entries, compute_uv=False)[:, 0].tolist()]


def _alloc_suite(name: str, trials: int, seed: int) -> SuiteReport:
    """Closed-form allocation of one suite's regime vs. the grid, plus a matrix check.

    The instances are checked ``_CHUNK`` at a time (see :func:`_alloc_values`).
    """
    values = _chunked_values(_alloc_values, trials, _SUITE_CASES[name], seed)
    betas, margins, refined, identities, matrix = values
    beta_step = 1.0 / (_NUM_BETA - 1)
    report = SuiteReport(suite=name, trials=trials, seed=seed)
    report.checks.append(
        _worst("allocation argmax vs grid (beta)", betas, beta_step + 1e-12)
    )
    report.checks.append(_worst("grid SNR minus closed-form SNR", margins, 1e-6, -math.inf))
    report.checks.append(_worst("refined grid vs closed-form SNR (relative)", refined, 1e-3))
    report.checks.append(_worst("closed-form SNR identity (objective)", identities, 1e-9))
    report.checks.append(_worst("ULA channel eigensolver consistency", matrix, 1e-6))
    return report


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
    # McConfig's rule: a float seed would key Philox as its uint64 cast
    montecarlo._check_integers(seed=seed, **({} if trials is None else {"trials": trials}))
    run = globals()[f"verify_{suite}"]
    if trials is None:
        return run(seed=seed)
    floor = 0 if suite == "bounds" else 1
    if trials < floor:
        raise ValueError(f"trials must be >= {floor}")
    return run(trials, seed)
