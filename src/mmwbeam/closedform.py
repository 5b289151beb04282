"""Closed-form two-path results: optimal power split, phase, and SNR loss.

Everything here works on a reduced parameterization of a two-path channel:
the two gain magnitudes, the magnitudes/phases of the steering-vector
inner products at each end, and the gain phase difference.  A candidate
transmit beam is ``f = beta*v_1 + sqrt(1-beta^2)*exp(1j*theta)*v_2``, so
the whole optimization lives on a (beta, theta) rectangle.

The optimal SNR of any two-path channel is one 2 x 2 eigenvalue
(:func:`snr_optimal`).  Four regimes admit closed forms for the optimal
split ``beta_opt`` and the SNR loss of dominant-path beamforming: transmit
steering vectors electrically orthogonal, receive steering vectors
electrically orthogonal, and the parallel counterparts of both.
:data:`REGIMES` is the one table of them, keyed by the CLI's case names: it
says which coupling each regime fixes and names its closed forms, and the
CLI and ``verify`` dispatch through it.  The general objective function is
provided for everything in between and as the brute-force oracle target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .beamformer import MIN_BEAM_NORM_SQ, _unscaled
from .channel import _path_arrays
from .steering import ArrayGeometry, _grams

__all__ = [
    "TwoPathParams",
    "AllocationPoint",
    "RegimeError",
    "Regime",
    "REGIMES",
    "ORTHOGONAL_TOL",
    "PARALLEL_TOL",
    "two_path_objective",
    "objective_grid",
    "allocation_grid_search",
    "beta_opt_v_orth",
    "delta_snr_v_orth",
    "beta_opt_u_orth",
    "delta_snr_u_orth",
    "delta_snr_u_orth_equal_gains",
    "delta_snr_v_parallel",
    "beta_opt_u_parallel",
    "delta_snr_u_parallel",
    "snr_dominant_path",
    "snr_optimal",
]

_TWO_PI = 2.0 * math.pi

ORTHOGONAL_TOL = 1e-9
PARALLEL_TOL = 1e-9

# The u-parallel loss divides by the dominant beam's power over a squared gain
# scaled into [0.5, 1): at most this, that power is cancellation residue, and
# the loss is +inf rather than a ratio of rounding noise.
CANCELLED_POWER = 1e-300


class RegimeError(ValueError):
    """Parameters do not satisfy the regime a closed form assumes."""


def _wrap_pi(x: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    w = (x + math.pi) % _TWO_PI - math.pi
    return math.pi if w == -math.pi else w


@dataclass(frozen=True)
class TwoPathParams:
    """Reduced description of a two-path channel.

    ``uu_mag``/``uu_phase`` describe the receive-side steering inner
    product ``u_1^H u_2`` and ``vv_mag``/``vv_phase`` the transmit-side
    one; ``phase_diff`` is the gain phase difference (path 1 minus path 2).
    """

    mag_a1: float
    mag_a2: float
    phase_diff: float = 0.0
    uu_mag: float = 0.0
    uu_phase: float = 0.0
    vv_mag: float = 0.0
    vv_phase: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mag_a1", "mag_a2"):
            val = getattr(self, name)
            # the squared gains must be finite too: Python's float ** raises on overflow
            if not (val >= 0.0 and math.isfinite(val * val)):
                raise ValueError(f"{name} must be >= 0 with a finite square, got {val}")
        for name in ("uu_mag", "vv_mag"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        for name in ("phase_diff", "uu_phase", "vv_phase"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")

    @property
    def misalignment(self) -> float:
        """Phase misalignment between the two paths, in (-pi, pi].

        Zero means the paths combine coherently at the receiver.
        """
        return _wrap_pi(self.vv_phase - self.uu_phase + self.phase_diff)

    @classmethod
    def from_paths(cls, paths, tx_geom: ArrayGeometry, rx_geom: ArrayGeometry) -> "TwoPathParams":
        """Measure the reduced parameters of two paths; each coupling is a Dirichlet kernel."""
        if len(paths) != 2:
            raise ValueError("exactly two paths are required")
        gains, freqs_t, freqs_r = _path_arrays(paths)
        return _measured(gains[None], freqs_t[None], freqs_r[None], tx_geom, rx_geom)[0]


def _measured(gains, freqs_t, freqs_r, tx_geom: ArrayGeometry, rx_geom: ArrayGeometry) -> list:
    """:meth:`TwoPathParams.from_paths` of two-path channels, one per row of the (B, 2) inputs.

    ``gains`` are complex, ``freqs_t`` and ``freqs_r`` the departure and
    arrival spatial frequencies.  Each end's couplings are one :func:`_grams`
    call, whose entries have the bits of :func:`cpo_inner_product`; ``abs``
    and ``np.angle`` keep the bits they have on one value.
    """
    ends = []
    for geom, freqs in ((rx_geom, freqs_r), (tx_geom, freqs_t)):
        kernel = _grams(geom.num_elements, geom.spacing_wavelengths, freqs)[:, 0, 1]
        ends.append([
            (min(abs(z), 1.0), phase if abs(z) > 0 else 0.0)
            for z, phase in zip(kernel.tolist(), np.angle(kernel).tolist())
        ])
    return [
        TwoPathParams(
            abs(g1), abs(g2), math.atan2(g1.imag, g1.real) - math.atan2(g2.imag, g2.real), *uu, *vv
        )
        for (g1, g2), uu, vv in zip(np.asarray(gains).tolist(), *ends)
    ]


@dataclass(frozen=True)
class AllocationPoint:
    """Power split and relative phase of the two-path transmit beam.

    ``beta`` is the amplitude on path 1 (path 2 gets ``sqrt(1-beta^2)``);
    ``theta`` is the phase applied to path 2, stored in [0, 2*pi); it must be finite.
    """

    beta: float
    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        object.__setattr__(self, "theta", self.theta % _TWO_PI)


@dataclass(frozen=True)
class Regime:
    """One closed-form regime: the coupling it fixes and the closed forms that hold in it.

    ``constrained`` is the end whose steering vectors the regime fixes
    (``"uu"`` receive, ``"vv"`` transmit) and ``forced`` their inner-product
    magnitude: 0.0 electrically orthogonal, 1.0 parallel.  :attr:`free` is
    the other end.  ``proposition`` numbers the paper's proposition on the
    regime's split.

    The closed forms are held by name and looked up in this module at each
    call, so a rebinding of the module attribute reaches every caller; the
    dominant-path SNR is :func:`snr_dominant_path` and the optimal SNR
    :func:`snr_optimal` in every regime.  ``allocation`` is None where every
    split is optimal.
    """

    constrained: str
    forced: float
    allocation: str | None
    loss: str
    proposition: int | None = None

    @property
    def free(self) -> str:
        return "vv" if self.constrained == "uu" else "uu"

    def beta_opt(self, params: TwoPathParams) -> AllocationPoint | None:
        return None if self.allocation is None else globals()[self.allocation](params)

    def delta_snr(self, params: TwoPathParams) -> float:
        return globals()[self.loss](params)


REGIMES = {
    "v-orth": Regime("vv", 0.0, "beta_opt_v_orth", "delta_snr_v_orth", proposition=2),
    "u-orth": Regime("uu", 0.0, "beta_opt_u_orth", "delta_snr_u_orth", proposition=3),
    "v-parallel": Regime("vv", 1.0, None, "delta_snr_v_parallel"),
    "u-parallel": Regime("uu", 1.0, "beta_opt_u_parallel", "delta_snr_u_parallel", proposition=4),
}


# Rows whose denominator column lies within this of 1 in magnitude, where the beam
# can vanish, are searched on the theta grid instead of by their root (see _scans).
_DEN_GAP = 1e-6

# The per-set scalars of the grid, in the order _grid_terms computes them.
_TERMS = (
    "a", "b", "root_ab", "shift", "uu", "vv", "vv_sq", "nu", "vv_phase", "coupling", "a_plus_b",
    "cos_factor", "sin_factor")


def _grid_terms(params: Sequence[TwoPathParams]) -> dict[str, np.ndarray]:
    """The per-set scalars of the grid's terms, each a column (S, 1), one row per set.

    Each is computed from one set by Python's scalar operations (Python's
    ``**`` rounds unlike numpy's ``power``), so a set's terms do not depend
    on the batch it is in.  They are ``a``, ``b``, ``root_ab`` and
    ``shift`` of :func:`_scaled_terms`; the couplings, ``vv^2``, the
    misalignment ``nu`` and the transmit coupling's phase; the coupling term
    of the beta-only column and ``a + b``; and the factors of a row's ``B``
    and ``C`` (see :func:`_row_peaks`).
    """
    table = []
    for p in params:
        a, b, root_ab, shift = _scaled_terms(p)
        uu, vv, nu = p.uu_mag, p.vv_mag, p.misalignment
        vv_sq = vv**2
        table.append((
            a, b, root_ab, shift, uu, vv, vv_sq, nu, p.vv_phase,
            2.0 * root_ab * vv * uu * math.cos(nu),
            a + b,
            (1.0 + vv_sq) * math.cos(nu),
            (1.0 - vv_sq) * math.sin(nu),
        ))
    columns = np.array(table, dtype=float).reshape(-1, len(_TERMS)).T
    return {name: column[:, None] for name, column in zip(_TERMS, columns)}


def _grid_columns(terms: dict[str, np.ndarray], betas) -> tuple[np.ndarray, ...]:
    """The beta axis of the objective for each set of :func:`_grid_terms`: four columns (S, K).

    ``betas`` (S, K) holds each set's amplitudes, or (1, K) amplitudes that
    every set shares.  The terms are taken on the squared gains ``a``, ``b``
    and their geometric mean ``root_ab`` of :func:`_scaled_terms`, all times
    ``2**shift``; the objective is of degree one in them, so a value of
    :func:`_grid_block` times ``2**-shift`` is the objective's.  The columns
    are the beta-only terms, then the coefficients of ``cos(phi)`` in the
    numerator, of the coupling row (:func:`_grid_rows`), and of ``cos(phi)``
    in the denominator.  Every entry is elementwise in its own set's terms,
    so a set's entries keep their bits in any batch.
    """
    a, b, vv = terms["a"], terms["b"], terms["vv"]
    beta = np.asarray(betas, dtype=float)
    spread = np.sqrt(np.clip(1.0 - beta**2, 0.0, None))
    pair_amp = 2.0 * beta * spread
    beta_terms = (
        a * beta**2 + b * spread**2 + (b * beta**2 + a * spread**2) * terms["vv_sq"]
        + terms["coupling"]
    )
    return (
        beta_terms,
        pair_amp * terms["a_plus_b"] * vv,
        pair_amp * terms["root_ab"] * terms["uu"],
        pair_amp * vv,
    )


def _grid_rows(terms: dict[str, np.ndarray], thetas) -> tuple[np.ndarray, np.ndarray]:
    """The theta axis of the objective for each set of :func:`_grid_terms`: two rows (S, T).

    ``thetas`` (S, T) holds each set's phases, or (1, T) phases that every
    set shares.  With ``phi = theta + vv_phase`` the rows are ``cos(phi)``
    and ``vv^2 cos(nu + phi) + cos(nu - phi)``, elementwise as the columns.
    """
    nu = terms["nu"]
    phi = np.asarray(thetas, dtype=float) + terms["vv_phase"]
    return np.cos(phi), terms["vv_sq"] * np.cos(nu + phi) + np.cos(nu - phi)


def _grid_block(columns, rows) -> np.ndarray:
    """The objective on the rows of ``columns``: one row per column entry, one column per phase.

    ``columns`` are (R, 1) and ``rows`` (R, T), each row its own phases, or
    (1, T), phases every row shares.  The numerator keeps the term order of
    the plain left-to-right sum on purpose: the cos(phi) product, then the
    beta-only column, then the coupling product, each added in place.  Every
    entry is elementwise and keeps the bits of that sum whichever rows share
    the block.  Entries where the beam norm vanishes are ``-inf``.
    """
    beta_terms, cos_coef, cross_coef, den_coef = columns
    cos_phi, cross_row = rows
    num = cos_coef * cos_phi
    num += beta_terms
    num += cross_coef * cross_row
    den = den_coef * cos_phi
    den += 1.0
    ok = den > MIN_BEAM_NORM_SQ
    num /= np.where(ok, den, 1.0)
    num *= 0.5  # the bits of / 2.0, at a third of the cost
    num[~ok] = -np.inf
    return num


def objective_grid(params: TwoPathParams, betas, thetas) -> np.ndarray:
    """Normalized SNR of the two-path beam on a (beta, theta) product grid.

    Returns an array of shape ``(len(betas), len(thetas))``; entries whose
    beam degenerates to the zero vector are ``-inf``.  The per-axis terms
    (:func:`_grid_columns`, :func:`_grid_rows`) are combined by one block over
    every row (:func:`_grid_block`) and scaled back, as the scan's values
    are; beyond the float range an entry is infinite.
    """
    terms = _grid_terms([params])
    columns = _grid_columns(terms, np.asarray(betas, dtype=float).reshape(1, -1))
    rows = _grid_rows(terms, np.asarray(thetas, dtype=float).reshape(1, -1))
    block = _grid_block([col.reshape(-1, 1) for col in columns], rows)
    with np.errstate(over="ignore"):
        return np.ldexp(block, -int(terms["shift"][0, 0]), out=block)


def two_path_objective(params: TwoPathParams, alloc: AllocationPoint) -> float:
    """Normalized SNR achieved by one allocation on the two-path channel.

    Matrix-free evaluation of ``f^H H^H H f / (L * Nt * Nr * f^H f)`` for
    ``f = beta*v_1 + sqrt(1-beta^2)*exp(1j*theta)*v_2``, on the scaled
    terms of :func:`_grid_columns` and scaled back, so it reads the values of
    :func:`objective_grid`; beyond the float range it is infinite.  This is
    :func:`_objectives` on one set.
    """
    return _objectives(_grid_terms([params]), [alloc])[0]


def _objectives(terms: dict[str, np.ndarray], allocs: Sequence[AllocationPoint]) -> list[float]:
    """:func:`two_path_objective` of each set of :func:`_grid_terms` at its own allocation."""
    columns = _grid_columns(terms, np.array([[alloc.beta] for alloc in allocs]))
    rows = _grid_rows(terms, np.array([[alloc.theta] for alloc in allocs]))
    values = _grid_block(columns, rows)[:, 0].tolist()
    if -math.inf in values:
        raise ValueError("beam has numerically zero norm at this allocation")
    return [_unscaled(value, int(shift)) for value, shift in zip(values, terms["shift"][:, 0])]


def allocation_grid_search(
    params: TwoPathParams,
    num_beta: int = 201,
    num_theta: int = 360,
    beta_window: tuple[float, float] | None = None,
) -> tuple[AllocationPoint, float]:
    """Maximizer of the two-path objective over a uniform beta grid, theta exact at each beta.

    Beta spans [0, 1] inclusive; ``beta_window`` restricts it to a
    sub-interval (with endpoints), for zoom-in refinement around a coarse
    argmax.  Theta is not on a grid: each beta row is maximized over a
    continuous phase in closed form (:func:`_row_peaks`), and the value is
    that maximum, not an entry of :func:`objective_grid`.  Only a row whose
    beam can vanish (``|delta| > 1 - 1e-6``, nearly parallel transmit vectors)
    is searched on ``num_theta`` phases in [0, 2*pi), with the grid's
    entries.  The point is the first row of largest value, at its maximizing
    phase.  The rows are taken on the scaled terms of :func:`_grid_columns`
    and the value scaled back (beyond the float range it reads infinite), so
    scaling both gains by a power of two keeps the point and scales the value
    exactly.  This is :func:`_scans` on one set.
    """
    if num_beta < 2 or num_theta < 2:
        raise ValueError("grid resolutions must be at least 2")
    start, stop = (0.0, 1.0) if beta_window is None else beta_window
    betas = np.clip(np.linspace(start, stop, num_beta), 0.0, 1.0)
    return _scans(_grid_terms([params]), betas.reshape(1, -1), num_theta)[0]


def _scans(terms: dict[str, np.ndarray], betas, num_theta: int) -> list:
    """:func:`allocation_grid_search` of each set of :func:`_grid_terms` on its own amplitudes.

    ``betas`` is (S, K), or (1, K) amplitudes every set shares.  One array
    pass serves all sets; the theta grid's phase rows are built only for
    near-singular rows.  Every step is elementwise, so a set keeps its bits
    in any batch.
    """
    columns = _grid_columns(terms, betas)
    peaks, phases = _row_peaks(terms, columns)
    values = 0.5 * peaks
    thetas = phases - terms["vv_phase"]
    singular = np.abs(columns[3]) > 1.0 - _DEN_GAP
    if singular.any():
        sets, rows = np.nonzero(singular)
        grid = np.linspace(0.0, _TWO_PI, num_theta, endpoint=False)
        phase_rows = _grid_rows({name: col[sets] for name, col in terms.items()}, grid[None])
        block = _grid_block([col[sets, rows, None] for col in columns], phase_rows)
        arg = np.argmax(block, axis=1)
        values[sets, rows] = block[np.arange(sets.size), arg]
        thetas[sets, rows] = grid[arg]
    top = np.argmax(values, axis=1)[:, None]  # each set's first maximum, or first NaN
    betas = np.broadcast_to(betas, values.shape)
    picked = (np.take_along_axis(x, top, axis=1)[:, 0].tolist() for x in (betas, thetas, values))
    return [
        (AllocationPoint(beta, theta), _unscaled(value, int(shift)))
        for beta, theta, value, shift in zip(*picked, terms["shift"][:, 0].tolist())
    ]


def _row_peaks(terms: dict[str, np.ndarray], columns) -> tuple[np.ndarray, np.ndarray]:
    """Each row's doubled maximum over a continuous phase, and the ``phi`` that attains it.

    As ``vv^2 cos(nu + phi) + cos(nu - phi) = (1 + vv^2) cos(nu) cos(phi) + (1
    - vv^2) sin(nu) sin(phi)``, a row's doubled objective is ``(alpha + B
    cos(phi) + C sin(phi)) / (1 + delta cos(phi))``, with ``alpha`` and
    ``delta`` its first and last columns, ``B = cos_coef + cross_coef
    cos_factor`` and ``C = cross_coef sin_factor``.  For ``|delta| < 1`` it
    stays at most ``T`` exactly when ``hypot(B - T delta, C) <= T - alpha``,
    so its maximum is the larger root of ``g T^2 - 2 p T - (B^2 + C^2 -
    alpha^2) = 0``, ``g = (1 - delta)(1 + delta)``, ``p = alpha - B delta``,
    attained at ``phi = atan2(C, B - T delta)``.  The discriminant is the sum
    of squares ``D = (B - alpha delta)^2 + C^2 g``; the root is ``(p +
    sqrt(D)) / g`` for ``p >= 0`` and, where that cancels, the conjugate
    ``(B^2 + C^2 - alpha^2) / (sqrt(D) - p)``.  The numerator is a squared
    norm, so ``alpha >= hypot(B, C)`` and ``p >= alpha (1 - |delta|) >= 0``:
    only rounding (as on the cancelling set) takes ``p`` below 0.  Rows with
    ``|delta| >= 1`` read NaN or infinity; :func:`_scans` does not use them.

    Rounding bound, with u = eps / 2, ``M = |alpha| + |cos_coef| + 2
    |cross_coef|`` and ``N = |alpha| + |B| + |C| <= M``.  The row's values
    lie in ``[-N, N] / (1 - |delta|)``, and ``1 - |delta| >= g / 2``.
    ``B`` and ``C`` are off by ``16u M`` together (their factors by ``8u``
    each, a product and a sum), which moves the maximum by ``32u M / g``.
    ``g`` is off by ``3u`` relative, ``p`` and ``B - alpha delta`` by ``2u N``,
    ``sqrt(D)`` by ``4u N + 3u sqrt(D)``.  For ``p >= 0`` the sum ``p +
    sqrt(D) = T g`` of nonnegative parts is off by ``6u N + 4u T g``, so ``T``
    by ``6u N / g + 8u T <= 22u N / g``.  For ``p < 0``, ``sqrt(D) - p`` is at
    least ``T g`` and ``N g / 4`` (as ``|B - alpha delta| + |p| >= (|alpha| +
    |B|)(1 - |delta|)`` and ``sqrt(D) >= |C| (1 - |delta|)``); the numerator
    is off by ``3u N^2`` and the denominator by ``6u N + 4u (sqrt(D) - p)``,
    so ``T`` by ``12u N / g + 6u N / g + 5u T <= 28u N / g``.  A subnormal
    result rounds by at most half the smallest subnormal ``s``, for each of
    the twenty-odd operations, each carried into ``T`` by at most ``4 / g``.
    So the doubled maximum is within ``(32 eps M + 64 s) / g`` of the exact
    maximum of the row's columns, and the value within half that.
    """
    alpha, cos_coef, cross_coef, delta = columns
    b = cos_coef + cross_coef * terms["cos_factor"]
    c = cross_coef * terms["sin_factor"]
    p = alpha - b * delta
    gap = (1.0 - delta) * (1.0 + delta)
    root = np.sqrt((b - alpha * delta) ** 2 + c * c * gap)
    with np.errstate(divide="ignore", invalid="ignore"):
        peaks = np.where(p >= 0.0, (p + root) / gap, (b * b + c * c - alpha * alpha) / (root - p))
        return peaks, np.arctan2(c, b - peaks * delta)


def _scaled_terms(params: TwoPathParams) -> tuple[float, float, float, int]:
    """The squared gains ``a``, ``b`` and ``sqrt(ab)``, scaled, and the exponent of their scale.

    The three are the squared gains and their geometric mean times
    ``2**shift``, the power of two that takes the larger squared gain into
    [0.5, 1).  The magnitudes are scaled before they are squared, so the
    terms depend on the gains' ratio and mantissas only: gains whose squares
    would under- or overflow keep their ratio, and a ratio of terms of one
    degree in ``a`` and ``b`` keeps its value.  Zero gains give zeros and a
    shift of 0.
    """
    larger = max(params.mag_a1, params.mag_a2)
    if larger == 0.0:
        return 0.0, 0.0, 0.0, 0
    half = -math.frexp(larger)[1]
    m1, m2 = math.ldexp(params.mag_a1, half), math.ldexp(params.mag_a2, half)
    a, b = m1 * m1, m2 * m2
    rest = -math.frexp(max(a, b))[1]
    return math.ldexp(a, rest), math.ldexp(b, rest), math.ldexp(m1 * m2, rest), 2 * half + rest


def _regime_terms(params: TwoPathParams, case: str) -> tuple[float, float, float, int]:
    """:func:`_scaled_terms` of parameters in ``REGIMES[case]``: every closed form's entry.

    Raises :class:`RegimeError` unless the coupling the regime fixes is
    (nearly) forced, then ``ValueError`` when both gains are zero.
    """
    end, forced = REGIMES[case].constrained, REGIMES[case].forced
    mag = getattr(params, f"{end}_mag")
    if not (mag < ORTHOGONAL_TOL if forced == 0.0 else mag > 1.0 - PARALLEL_TOL):
        kind = "electrically orthogonal" if forced == 0.0 else "parallel"
        side = "transmit" if end == "vv" else "receive"
        raise RegimeError(f"requires {kind} {side} vectors, |{end[0]}1^H {end[1]}2| = {mag}")
    if max(params.mag_a1, params.mag_a2) == 0.0:
        raise ValueError("undefined when both path gains are zero")
    return _scaled_terms(params)


def beta_opt_v_orth(params: TwoPathParams) -> AllocationPoint:
    """Optimal allocation when the transmit steering vectors are orthogonal.

    The optimal split solves ``beta^2 = (1 + (a-b)/sqrt((a-b)^2 + 4ab*uu^2))/2``
    and the phase aligns the two paths through the receive-side coupling.
    """
    a, b, _, _ = _regime_terms(params, "v-orth")
    root = _v_orth_root(a, b, params.uu_mag)
    beta_sq = 0.5 if root == 0.0 else 0.5 * (1.0 + (a - b) / root)
    theta = params.phase_diff - params.uu_phase
    return AllocationPoint(beta=math.sqrt(min(beta_sq, 1.0)), theta=theta)


def _v_orth_root(a, b, uu_mag):
    """The root ``sqrt((a - b)^2 + 4ab uu^2)`` of squared gains ``a``, ``b``.

    The radicand is written as this sum, which does not cancel.  Callers
    pass gains scaled as :func:`_scaled_terms` does, or bounded ones, so
    their products neither under- nor overflow.  Floats or arrays broadcast.
    """
    return np.sqrt((a - b) ** 2 + 4.0 * a * b * uu_mag**2)


def _v_orth_loss(a, b, uu_mag):
    """Body of :func:`delta_snr_v_orth` on squared gains; floats or arrays broadcast."""
    return (a + b + _v_orth_root(a, b, uu_mag)) / (2.0 * np.maximum(a, b))


def delta_snr_v_orth(params: TwoPathParams) -> float:
    """Loss (linear ratio >= 1) of dominant-path beamforming, v-orthogonal case.

    Equals ``(a + b + sqrt((a - b)^2 + 4ab uu^2)) / (2 max(a, b))``;
    at most 2 (a 3 dB loss), attained at equal gains with parallel receive
    steering vectors.
    """
    a, b, _, _ = _regime_terms(params, "v-orth")
    return float(_v_orth_loss(a, b, params.uu_mag))


def beta_opt_u_orth(params: TwoPathParams) -> AllocationPoint:
    """Optimal allocation when the receive steering vectors are orthogonal.

    Requires a nonzero transmit-side inner product; the fully orthogonal
    corner is covered by :func:`beta_opt_v_orth`.

    With ``s = (a - b)/vv`` the split is ``(term_a + root)/(2 term_c)``,
    where ``term_a = s^2 + 2a(a + b)``, ``term_c = (a + b)^2 + s^2`` and
    ``root = |s| sqrt(s^2 + 4ab)``.  Every term is a sum of nonnegative
    parts, so none cancels as ``vv`` nears 0.  For ``a < b`` the root is
    subtracted instead, which is the cancellation-free ``2a^2/(term_a + root)``.
    """
    a, b, _, _ = _regime_terms(params, "u-orth")
    if params.vv_mag < ORTHOGONAL_TOL:
        raise RegimeError(
            "transmit vectors are also orthogonal; use the v-orthogonal closed form"
        )
    s = (a - b) / params.vv_mag
    term_a = s**2 + 2.0 * a * (a + b)
    term_c = (a + b) ** 2 + s**2
    root = abs(s) * math.sqrt(s**2 + 4.0 * a * b)
    if a >= b:
        beta_sq = (term_a + root) / (2.0 * term_c)
    else:
        beta_sq = 2.0 * a**2 / (term_a + root)
    beta_sq = min(beta_sq, 1.0)
    return AllocationPoint(beta=math.sqrt(beta_sq), theta=-params.vv_phase)


def delta_snr_u_orth(params: TwoPathParams) -> float:
    """Loss of dominant-path beamforming when receive vectors are orthogonal.

    The optimal over the dominant-path SNR, both on the scaled terms of
    :func:`_two_path_snrs`, and never below 1.  When the transmit vectors are
    orthogonal too, the dominant path is exactly optimal and the ratio is 1.
    """
    terms = _regime_terms(params, "u-orth")
    if params.vv_mag < ORTHOGONAL_TOL:
        return 1.0
    optimal, dominant, _ = _two_path_snrs(params, terms)
    # the optimum is never below the dominant beam's SNR: a ratio under 1 is rounding
    return max(optimal / dominant, 1.0)


def delta_snr_u_orth_equal_gains(vv_mag):
    """Equal-gain simplification of the u-orthogonal loss: (1+vv)/(1+vv^2).

    Maximized at ``vv = sqrt(2) - 1`` with value ``(sqrt(2)+1)/2``.  Takes a
    float or an array of couplings, each of which must lie in [0, 1].
    """
    vv = np.asarray(vv_mag, dtype=float)
    if not np.all((vv >= 0.0) & (vv <= 1.0)):
        raise ValueError("vv_mag must lie in [0, 1]")
    loss = (1.0 + vv) / (1.0 + vv**2)
    return float(loss) if loss.ndim == 0 else loss


def delta_snr_v_parallel(params: TwoPathParams) -> float:
    """Loss when the transmit steering vectors are parallel: exactly 1.

    The objective is independent of the power split, so any allocation,
    the dominant path included, achieves the optimum.
    """
    _regime_terms(params, "v-parallel")
    return 1.0


def beta_opt_u_parallel(params: TwoPathParams) -> AllocationPoint:
    """Optimal allocation when the receive steering vectors are parallel.

    Mimics maximum ratio combining: power proportional to path gain,
    ``beta^2 = a / (a + b)``.
    """
    a, b, _, _ = _regime_terms(params, "u-parallel")
    theta = params.phase_diff - params.uu_phase
    return AllocationPoint(beta=math.sqrt(a / (a + b)), theta=theta)


def delta_snr_u_parallel(params: TwoPathParams) -> float:
    """Loss of dominant-path beamforming when receive vectors are parallel.

    ``1 + lo*(1 - vv^2) / (hi + vv^2*lo + 2*sqrt(hi*lo)*vv*cos(nu))`` with
    hi/lo the ordered squared gains, scaled as :func:`_scaled_terms` does;
    the denominator is twice the dominant-path SNR of :func:`_two_path_snrs`.
    Returns ``+inf`` when it vanishes (equal gains, parallel transmit
    vectors, opposite phase: the dominant-path beam is fully cancelled while
    the optimal beam still combines the paths, so the loss is unbounded).
    """
    terms = _regime_terms(params, "u-parallel")
    lo = min(terms[:2])
    den = _two_path_snrs(params, terms)[1]
    if den <= CANCELLED_POWER:
        return math.inf
    return 1.0 + lo * (1.0 - params.vv_mag**2) / den


def _two_path_snrs(params: TwoPathParams, terms: tuple) -> tuple[float, float, int]:
    """Twice the optimal and twice the dominant-path SNR on ``terms``, and their shift.

    ``terms`` are ``params``' :func:`_scaled_terms`, which the caller has.
    The optimum is the L = 2 form of :func:`beamformer._optimal_snr` written
    on the parameters: in the orthonormal basis ``v_1``, ``(v_2 - (v_1^H
    v_2) v_1) / sqrt(1 - vv^2)`` the core has ``C00 = a + b vv^2 + 2r vv uu
    cos(nu)``, ``C11 = b (1 - vv^2)`` and ``|C01| = sqrt(1 - vv^2) hypot(r uu
    + b vv cos(nu), b vv sin(nu))``, with ``r = sqrt(ab)`` and ``nu`` the
    misalignment, and twice the SNR is its top eigenvalue.  ``|C01|`` is
    written with the hypot on purpose: the shorter ``sqrt(C11 (a uu^2 + b
    vv^2 + 2r uu vv cos(nu)))`` cancels at equal gains, ``uu = vv`` and ``nu
    = pi``.  The dominant beam steers at the stronger path, ``max(a + b vv^2,
    b + a vv^2)`` plus the same cross term, clamped at 0: at ``uu = vv = 1``
    and ``nu = pi`` the sum cancels and may round below it.  At ``vv = 1``
    the two are equal.
    """
    a, b, root_ab, shift = terms
    uu, vv, nu = params.uu_mag, params.vv_mag, params.misalignment
    vv_sq = vv**2
    cos_nu = math.cos(nu)
    cross = 2.0 * root_ab * vv * uu * cos_nu
    c00 = a + b * vv_sq + cross
    c11 = b * (1.0 - vv_sq)
    c01 = math.sqrt(1.0 - vv_sq) * math.hypot(root_ab * uu + b * vv * cos_nu, b * vv * math.sin(nu))
    optimal = (c00 + c11) / 2.0 + math.hypot((c00 - c11) / 2.0, c01)
    return optimal, max(max(a + b * vv_sq, b + a * vv_sq) + cross, 0.0), shift


def snr_dominant_path(params: TwoPathParams) -> float:
    """Normalized SNR of steering all power along the stronger path; never below 0."""
    _, dominant, shift = _two_path_snrs(params, _scaled_terms(params))
    return _unscaled(dominant / 2.0, shift)


def snr_optimal(params: TwoPathParams) -> float:
    """Optimal normalized SNR of any two-path channel, on the gains of :func:`_scaled_terms`.

    Half the top eigenvalue of :func:`_two_path_snrs`, scaled back.
    """
    optimal, _, shift = _two_path_snrs(params, _scaled_terms(params))
    return _unscaled(optimal / 2.0, shift)

