"""The per-instance loops of the ``verify`` suites: the reference for their batched form.

Each function draws the suite's instances one at a time, each from its own
generator at its slot (:func:`slot_uniforms`), and returns every check's
value of every instance, in instance order, through the library's
per-instance public functions.  A suite's worst value is Python's running
``max`` over these lists.  The allocation suites' fixtures are measured here
by the scalar coupling of each pair (:func:`measured_params`), and
:func:`scan_bounds` gives the rounding bounds the tests hold the scan of the
beta axis to.
"""

import math

import numpy as np

from conftest import kernel_args
from mmwbeam import beamformer, closedform, verify
from mmwbeam.channel import PathComponent, _path_arrays, assemble_channel
from mmwbeam.steering import (
    AngleSpec,
    ArrayGeometry,
    cpo_inner_product,
    mainlobe_freq_delta,
    steering_matrix,
)

TWO_PI = 2.0 * math.pi
NUM_BETA, NUM_THETA = 201, 360
EPS = float(np.finfo(float).eps)
SUBNORMAL = float(np.finfo(float).smallest_subnormal)


def two_path_fixture(case, mags, phases, coupling, nt=16, nr=8):
    """One ULA channel realizing the regime of ``case``, built path by path."""
    regime = closedform.REGIMES[case]
    geoms = {"vv": ArrayGeometry(nt), "uu": ArrayGeometry(nr)}
    fixed = geoms[regime.constrained]
    null = 1.0 / (fixed.num_elements * fixed.spacing_wavelengths)
    half = {
        regime.constrained: 0.0 if regime.forced else null / 2,
        regime.free: mainlobe_freq_delta(geoms[regime.free], coupling) / 2,
    }
    aod = AngleSpec(math.acos(-half["vv"])), AngleSpec(math.acos(half["vv"]))
    aoa = AngleSpec(math.acos(-half["uu"])), AngleSpec(math.acos(half["uu"]))
    paths = [
        PathComponent(mags[0] * np.exp(1j * phases[0]), aod=aod[0], aoa=aoa[0]),
        PathComponent(mags[1] * np.exp(1j * phases[1]), aod=aod[1], aoa=aoa[1]),
    ]
    return paths, geoms["vv"], geoms["uu"]


def measured_params(paths, tx_geom, rx_geom):
    """The reduced parameters of two paths, one scalar Dirichlet kernel per coupling."""
    (g1, g2), (tx1, tx2), (rx1, rx2) = (values.tolist() for values in _path_arrays(paths))
    uu = cpo_inner_product(rx_geom, rx2 - rx1)
    vv = cpo_inner_product(tx_geom, tx2 - tx1)
    return closedform.TwoPathParams(
        mag_a1=abs(g1),
        mag_a2=abs(g2),
        phase_diff=math.atan2(g1.imag, g1.real) - math.atan2(g2.imag, g2.real),
        uu_mag=min(abs(uu), 1.0),
        uu_phase=float(np.angle(uu)) if abs(uu) > 0 else 0.0,
        vv_mag=min(abs(vv), 1.0),
        vv_phase=float(np.angle(vv)) if abs(vv) > 0 else 0.0,
    )


def scan_bounds(params, betas):
    """Rounding bounds at each amplitude of ``betas``, unscaled: the scan's row maximum,
    ``objective_grid``'s entries, and ``snr_optimal``.

    With u = eps / 2, ``M = |alpha| + |cos_coef| + 2 |cross_coef|`` of the row's
    columns, ``g = (1 - delta)(1 + delta)`` and ``s`` the smallest subnormal:

    * the scan's value is within ``(16 eps M + 32 s) / g`` of the row's exact
      maximum, half the doubled bound derived in ``closedform._row_peaks``;
    * an entry of ``objective_grid`` at a phase ``theta`` in [0, 2 pi) is within
      ``(M (E + 5u) + 8 s) / o^2`` of the exact row there, ``o = 1 - |delta|``.
      ``phi = theta + p`` rounds by ``u (2 pi + |p|)``, ``p`` the transmit
      phase, and ``nu +- phi`` by as much again plus ``u (3 pi + |p|)``, so
      each cosine, and the coupling row ``w cos(nu + phi) + cos(nu - phi)``,
      is off by at most ``E = 4u (3 pi + |p| + 3)``.  The numerator's three
      products and two sums add ``4u M``, so it is off by ``M (E + 4u)``, and
      the denominator by ``E + 4u``.  The doubled value ``v = num / den``,
      ``|v| <= M / o`` and ``den >= o``, is off by ``(M (E + 4u) + M (E + 4u)
      / o) / o + u M / o <= 2 M (E + 5u) / o^2``; the value is half of it;
    * ``snr_optimal`` is within ``16 eps (a + b) + 16 s`` of the exact optimum
      of the scaled squared gains: the dozen roundings of ``_two_path_snrs``
      each cost at most ``u`` of a partial sum below ``2 (a + b)``.
    """
    terms = closedform._grid_terms([params])
    columns = closedform._grid_columns(terms, np.reshape(betas, (1, -1)))
    alpha, cos_coef, cross_coef, delta = (col[0] for col in columns)
    u = EPS / 2
    big = np.abs(alpha) + np.abs(cos_coef) + 2.0 * np.abs(cross_coef)
    gap = (1.0 - delta) * (1.0 + delta)
    off = 1.0 - np.abs(delta)
    phase_err = 4.0 * u * (3.0 * math.pi + abs(params.vv_phase) + 3.0)
    shift = -int(terms["shift"][0, 0])
    with np.errstate(divide="ignore", over="ignore"):  # |delta| = 1: no bound
        scan = np.ldexp((16.0 * EPS * big + 32.0 * SUBNORMAL) / gap, shift)
        grid = np.ldexp((big * (phase_err + 5.0 * u) + 8.0 * SUBNORMAL) / off**2, shift)
    a, b = terms["a"][0, 0], terms["b"][0, 0]
    return scan, grid, math.ldexp(16.0 * EPS * (a + b) + 16.0 * SUBNORMAL, shift)


def dense_optimum(channel):
    """``sigma_1^2 / (Nt Nr)`` of the channel's matrix: the optimal pair's SNR, up to rounding."""
    sigma = float(np.linalg.svd(channel.entries, compute_uv=False)[0])
    return sigma**2 / (channel.num_tx * channel.num_rx)


def span_residual(basis, vec):
    q, _ = np.linalg.qr(basis)
    return float(np.linalg.norm(vec - q @ (q.conj().T @ vec)))


def slot_uniforms(seed, index, blocks):
    """The ``4 blocks`` uniforms of instance ``index``, from a Philox of its own at its slot."""
    key = np.array([seed, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=index * blocks))
    return rng.random(4 * blocks)


def prop1_instance(seed, index):
    """The paths and geometries of one ``prop1`` instance."""
    u = slot_uniforms(seed, index, 6)
    num_paths = (1, 2, 3, 5)[int(u[0] * 4)]
    nt = (8, 16, 64)[int(u[1] * 3)]
    nr = (2, 4)[int(u[2] * 2)]
    u1, u2, aods, aoas = u[4:].reshape(4, 5)[:, :num_paths]
    gains = np.sqrt(-np.log1p(-u1)) * np.exp(2j * np.pi * u2)
    aods, aoas = TWO_PI * aods, TWO_PI * aoas
    paths = [
        PathComponent(complex(gains[k]), AngleSpec(float(aods[k])), AngleSpec(float(aoas[k])))
        for k in range(num_paths)
    ]
    return paths, ArrayGeometry(nt), ArrayGeometry(nr)


def alloc_params(seed, index, regime):
    """The parameters of one allocation instance in ``regime``."""
    u = slot_uniforms(seed, index, 2)
    mags = np.maximum(np.sqrt(-np.log1p(-u[:2])), verify._MIN_DRAWN_GAIN)
    lo, hi = verify._FREE_RANGE[regime.free]
    fields = {
        f"{regime.constrained}_mag": regime.forced,
        f"{regime.free}_mag": float(lo + (hi - lo) * u[4]),
        f"{regime.free}_phase": float(TWO_PI * u[5]),
    }
    if regime.forced:
        fields[f"{regime.constrained}_phase"] = float(TWO_PI * u[3])
    return closedform.TwoPathParams(
        mag_a1=float(mags[0]), mag_a2=float(mags[1]), phase_diff=float(TWO_PI * u[2]), **fields
    )


def prop1_values(seed, indices):
    """Transmit and receive span residuals and cross-route SNR differences, per instance."""
    tx_resid, rx_resid, rel = [], [], []
    for i in indices:
        paths, tx_geom, rx_geom = prop1_instance(seed, i)
        dense = beamformer.optimal_beamformer(assemble_channel(paths, tx_geom, rx_geom))
        reduced = float(beamformer._optimal_snr(*kernel_args(paths, tx_geom, rx_geom))[0][0])
        tx_span = steering_matrix(tx_geom, [p.aod for p in paths])
        rx_span = steering_matrix(rx_geom, [p.aoa for p in paths])
        tx_resid.append(span_residual(tx_span, dense.tx))
        rx_resid.append(span_residual(rx_span, dense.rx))
        rel.append(verify._rel_diff(reduced, dense.normalized_snr))
    return tx_resid, rx_resid, rel


def alloc_values(suite, seed, indices):
    """The five allocation checks' values per instance of ``suite`` (``prop2``-``prop4``)."""
    case = verify._SUITE_CASES[suite]
    regime = closedform.REGIMES[case]
    beta_step = 1.0 / (NUM_BETA - 1)
    values = ([], [], [], [], [])
    for i in indices:
        params = alloc_params(seed, i, regime)
        alloc = regime.beta_opt(params)
        grid_alloc, grid_value = closedform.allocation_grid_search(params, NUM_BETA, NUM_THETA)
        cf_value = closedform.two_path_objective(params, alloc)
        window = (grid_alloc.beta - beta_step, grid_alloc.beta + beta_step)
        _, refined = closedform.allocation_grid_search(params, NUM_BETA, NUM_THETA, window)
        paths, tx_geom, rx_geom = two_path_fixture(
            case,
            (params.mag_a1, params.mag_a2),
            (params.phase_diff, 0.0),
            getattr(params, f"{regime.free}_mag"),
        )
        measured = measured_params(paths, tx_geom, rx_geom)
        dense = dense_optimum(assemble_channel(paths, tx_geom, rx_geom))
        optimal = closedform.snr_optimal(params)
        dominant_split = closedform.AllocationPoint(float(params.mag_a1 >= params.mag_a2), 0.0)
        product = regime.delta_snr(params) * closedform.two_path_objective(params, dominant_split)
        identity = (verify._rel_diff(cf_value, optimal), verify._rel_diff(product, optimal))
        for out, value in zip(values, (
            abs(alloc.beta - grid_alloc.beta),
            grid_value - cf_value,
            verify._rel_diff(cf_value, max(refined, grid_value)),
            math.nan if any(map(math.isnan, identity)) else max(identity),
            verify._rel_diff(dense, closedform.snr_optimal(measured)),
        )):
            out.append(value)
    return values
