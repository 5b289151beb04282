"""Closed-form two-path results: optimal power split, phase, and SNR loss.

Everything here works on a reduced parameterization of a two-path channel:
the two gain magnitudes, the magnitudes/phases of the steering-vector
inner products at each end, and the gain phase difference.  A candidate
transmit beam is ``f = beta*v_1 + sqrt(1-beta^2)*exp(1j*theta)*v_2``, so
the whole optimization lives on a (beta, theta) rectangle.

Four regimes admit closed forms for the optimal split ``beta_opt`` and the
SNR loss of dominant-path beamforming: transmit steering vectors
electrically orthogonal, receive steering vectors electrically orthogonal,
and the parallel counterparts of both.  :data:`REGIMES` is the one table
of them, keyed by the CLI's case names: it says which coupling each regime
fixes and names its closed forms, and the CLI and ``verify`` dispatch
through it.  The general objective function is provided for everything in
between and as the brute-force oracle target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamformer import MIN_BEAM_NORM_SQ
from .channel import PathComponent
from .steering import ArrayGeometry, inner_product, steering_vector

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
    "snr_v_parallel",
    "beta_opt_u_parallel",
    "delta_snr_u_parallel",
    "snr_u_parallel",
    "snr_dominant_path",
    "snr_equal_power_coherent",
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

    @property
    def gain_sq_1(self) -> float:
        return self.mag_a1**2

    @property
    def gain_sq_2(self) -> float:
        return self.mag_a2**2

    @property
    def misalignment(self) -> float:
        """Phase misalignment between the two paths, in (-pi, pi].

        Zero means the paths combine coherently at the receiver.
        """
        return _wrap_pi(self.vv_phase - self.uu_phase + self.phase_diff)

    @classmethod
    def from_paths(
        cls,
        paths,
        tx_geom: ArrayGeometry,
        rx_geom: ArrayGeometry,
    ) -> "TwoPathParams":
        """Measure the reduced parameters of an actual two-path channel."""
        if len(paths) != 2:
            raise ValueError("exactly two paths are required")
        p1, p2 = paths
        uu = inner_product(
            steering_vector(rx_geom, p1.aoa), steering_vector(rx_geom, p2.aoa)
        )
        vv = inner_product(
            steering_vector(tx_geom, p1.aod), steering_vector(tx_geom, p2.aod)
        )
        g1 = complex(p1.gain)
        g2 = complex(p2.gain)
        return cls(
            mag_a1=abs(g1),
            mag_a2=abs(g2),
            phase_diff=math.atan2(g1.imag, g1.real) - math.atan2(g2.imag, g2.real),
            uu_mag=min(abs(uu), 1.0),
            uu_phase=float(np.angle(uu)) if abs(uu) > 0 else 0.0,
            vv_mag=min(abs(vv), 1.0),
            vv_phase=float(np.angle(vv)) if abs(vv) > 0 else 0.0,
        )


@dataclass(frozen=True)
class AllocationPoint:
    """Power split and relative phase of the two-path transmit beam.

    ``beta`` is the amplitude on path 1 (path 2 gets ``sqrt(1-beta^2)``);
    ``theta`` is the phase applied to path 2, stored in [0, 2*pi).
    """

    beta: float
    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        object.__setattr__(self, "theta", self.theta % _TWO_PI)


@dataclass(frozen=True)
class Regime:
    """One closed-form regime: the coupling it fixes and the closed forms that hold in it.

    ``constrained`` is the end whose steering vectors the regime fixes
    (``"uu"`` receive, ``"vv"`` transmit) and ``forced`` their inner-product
    magnitude: 0.0 electrically orthogonal, 1.0 parallel.  ``free`` is the
    other end; ``free_positive`` marks a regime whose free coupling must not
    vanish (u-orth: with both ends orthogonal the v-orth forms hold).
    ``proposition`` numbers the paper's proposition on the regime's split.

    The closed forms are held by name and looked up in this module at each
    call, so a rebinding of the module attribute reaches every caller.
    ``allocation`` is None where every split is optimal, and ``optimal`` None
    where the optimal SNR is the loss times the dominant-path SNR.
    """

    constrained: str
    forced: float
    free: str
    allocation: str | None
    loss: str
    optimal: str | None
    dominant: str
    free_positive: bool = False
    proposition: int | None = None

    def beta_opt(self, params: TwoPathParams) -> AllocationPoint | None:
        return None if self.allocation is None else globals()[self.allocation](params)

    def delta_snr(self, params: TwoPathParams) -> float:
        return globals()[self.loss](params)

    def snr_dominant(self, params: TwoPathParams) -> float:
        return globals()[self.dominant](params)

    def snr_optimal(self, params: TwoPathParams) -> float:
        if self.optimal is None:
            return self.delta_snr(params) * self.snr_dominant(params)
        return globals()[self.optimal](params)


REGIMES = {
    "v-orth": Regime(
        "vv", 0.0, "uu", "beta_opt_v_orth", "delta_snr_v_orth", None, "snr_dominant_path",
        proposition=2,
    ),
    "u-orth": Regime(
        "uu", 0.0, "vv", "beta_opt_u_orth", "delta_snr_u_orth", None, "snr_dominant_path",
        free_positive=True, proposition=3,
    ),
    "v-parallel": Regime(
        "vv", 1.0, "uu", None, "delta_snr_v_parallel", "snr_v_parallel", "snr_v_parallel"
    ),
    "u-parallel": Regime(
        "uu", 1.0, "vv", "beta_opt_u_parallel", "delta_snr_u_parallel", "snr_u_parallel",
        "snr_dominant_path", proposition=4,
    ),
}


def _require_regime(params: TwoPathParams, end: str, forced: float) -> None:
    """Raise :class:`RegimeError` unless the coupling at ``end`` is (nearly) ``forced``."""
    mag = getattr(params, f"{end}_mag")
    holds = mag < ORTHOGONAL_TOL if forced == 0.0 else mag > 1.0 - PARALLEL_TOL
    if holds:
        return
    kind = "electrically orthogonal" if forced == 0.0 else "parallel"
    side = "transmit" if end == "vv" else "receive"
    raise RegimeError(f"requires {kind} {side} vectors, |{end[0]}1^H {end[1]}2| = {mag}")


def objective_grid(params: TwoPathParams, betas, thetas) -> np.ndarray:
    """Normalized SNR of the two-path beam on a (beta, theta) product grid.

    Returns an array of shape ``(len(betas), len(thetas))``; entries whose
    beam degenerates to the zero vector are ``-inf``.

    The numerator keeps the term order of the plain left-to-right sum on
    purpose: the beta-only terms as one (B, 1) column, then the two
    theta-dependent outer products, added in place into at most two (B, T)
    buffers (the second one then holds the denominator).  Every entry keeps
    the bits of that sum, so grid searches keep their argmax, at about half
    the full-size array passes.  The masked division runs only when some
    beam norm vanishes.
    """
    a = params.gain_sq_1
    b = params.gain_sq_2
    uu = params.uu_mag
    vv = params.vv_mag
    nu = params.misalignment
    root_ab = params.mag_a1 * params.mag_a2

    beta = np.asarray(betas, dtype=float).reshape(-1, 1)
    spread = np.sqrt(np.clip(1.0 - beta**2, 0.0, None))
    phi = np.asarray(thetas, dtype=float).reshape(1, -1) + params.vv_phase
    cos_phi = np.cos(phi)
    pair_amp = 2.0 * beta * spread

    beta_terms = (
        a * beta**2
        + b * spread**2
        + (b * beta**2 + a * spread**2) * vv**2
        + 2.0 * root_ab * vv * uu * math.cos(nu)
    )
    num = np.multiply(pair_amp * (a + b) * vv, cos_phi)
    num += beta_terms
    work = np.multiply(pair_amp * root_ab * uu, vv**2 * np.cos(nu + phi) + np.cos(nu - phi))
    num += work
    den = np.multiply(pair_amp * vv, cos_phi, out=work)
    den += 1.0
    if den.min(initial=math.inf) > MIN_BEAM_NORM_SQ:
        num /= den
        num *= 0.5  # the bits of / 2.0, at a third of the cost
        return num
    ok = den > MIN_BEAM_NORM_SQ
    return np.where(ok, num / np.where(ok, den, 1.0) / 2.0, -np.inf)


def two_path_objective(params: TwoPathParams, alloc: AllocationPoint) -> float:
    """Normalized SNR achieved by one allocation on the two-path channel.

    Matrix-free evaluation of ``f^H H^H H f / (L * Nt * Nr * f^H f)`` for
    ``f = beta*v_1 + sqrt(1-beta^2)*exp(1j*theta)*v_2``.
    """
    value = float(objective_grid(params, [alloc.beta], [alloc.theta])[0, 0])
    if not math.isfinite(value):
        raise ValueError("beam has numerically zero norm at this allocation")
    return value


def allocation_grid_search(
    params: TwoPathParams,
    num_beta: int = 201,
    num_theta: int = 360,
    beta_window: tuple[float, float] | None = None,
) -> tuple[AllocationPoint, float]:
    """Brute-force maximizer of the two-path objective on a uniform grid.

    Beta spans [0, 1] inclusive and theta spans [0, 2*pi) without the
    endpoint; ``beta_window`` restricts beta to a sub-interval (with
    endpoints), which supports zoom-in refinement around a coarse argmax.
    Ties resolve to the lowest (beta-major) linear index.
    """
    if num_beta < 2 or num_theta < 2:
        raise ValueError("grid resolutions must be at least 2")
    if beta_window is None:
        betas = np.linspace(0.0, 1.0, num_beta)
    else:
        betas = np.clip(np.linspace(beta_window[0], beta_window[1], num_beta), 0.0, 1.0)
    thetas = np.linspace(0.0, _TWO_PI, num_theta, endpoint=False)
    values = objective_grid(params, betas, thetas)
    flat = int(np.argmax(values))
    i, j = divmod(flat, num_theta)
    return AllocationPoint(beta=float(betas[i]), theta=float(thetas[j])), float(
        values[i, j]
    )


def _scaled_gains(params: TwoPathParams) -> tuple[float, float]:
    """The squared gains, scaled by the power of two that takes the larger into [0.5, 1).

    The scaling is exact, so a ratio of terms of one degree in ``a`` and
    ``b`` keeps its bits wherever nothing under- or overflows, and products
    of tiny or huge squared gains no longer do.
    """
    if params.mag_a1 == 0.0 and params.mag_a2 == 0.0:
        raise ValueError("SNR loss is undefined when both path gains are zero")
    a = params.gain_sq_1
    b = params.gain_sq_2
    if a == 0.0 and b == 0.0:
        raise ValueError("SNR loss is undefined when both squared path gains underflow to zero")
    shift = -math.frexp(max(a, b))[1]
    return math.ldexp(a, shift), math.ldexp(b, shift)


def beta_opt_v_orth(params: TwoPathParams) -> AllocationPoint:
    """Optimal allocation when the transmit steering vectors are orthogonal.

    The optimal split solves ``beta^2 = (1 + (a-b)/sqrt((a-b)^2 + 4ab*uu^2))/2``
    and the phase aligns the two paths through the receive-side coupling.
    """
    _require_regime(params, "vv", 0.0)
    a, b, root = _v_orth_terms(params.gain_sq_1, params.gain_sq_2, params.uu_mag)
    beta_sq = 0.5 if root == 0.0 else 0.5 * (1.0 + (a - b) / root)
    theta = params.phase_diff - params.uu_phase
    return AllocationPoint(beta=math.sqrt(min(beta_sq, 1.0)), theta=theta)


def _v_orth_terms(a, b, uu_mag):
    """Squared gains ``a``, ``b`` rescaled, and the root ``sqrt((a - b)^2 + 4ab uu^2)`` of them.

    The radicand is written as this sum, which does not cancel.  The gains
    are first scaled by the power of two that takes the larger into [0.5,
    1): the scaling is exact, so every ratio of these terms keeps its bits
    wherever nothing under- or overflows, and squares of tiny or huge gains
    no longer do.  On float scalars ``**`` is the C ``pow`` of the scalar route, so the
    scalar functions keep their bits; arrays get one vectorized evaluation.
    """
    shift = -np.frexp(np.maximum(a, b))[1]
    a, b = np.ldexp(a, shift), np.ldexp(b, shift)
    return a, b, np.sqrt((a - b) ** 2 + 4.0 * a * b * uu_mag**2)


def _v_orth_loss(a, b, uu_mag):
    """Body of :func:`delta_snr_v_orth` on squared gains; floats or arrays broadcast."""
    a, b, root = _v_orth_terms(a, b, uu_mag)
    return (a + b + root) / (2.0 * np.maximum(a, b))


def delta_snr_v_orth(params: TwoPathParams) -> float:
    """Loss (linear ratio >= 1) of dominant-path beamforming, v-orthogonal case.

    Equals ``(a + b + sqrt((a - b)^2 + 4ab uu^2)) / (2 max(a, b))``;
    at most 2 (a 3 dB loss), attained at equal gains with parallel receive
    steering vectors.
    """
    _require_regime(params, "vv", 0.0)
    a, b = _scaled_gains(params)
    return float(_v_orth_loss(a, b, params.uu_mag))


def beta_opt_u_orth(params: TwoPathParams) -> AllocationPoint:
    """Optimal allocation when the receive steering vectors are orthogonal.

    Requires a nonzero transmit-side inner product; the fully orthogonal
    corner is covered by :func:`beta_opt_v_orth`.
    """
    _require_regime(params, "uu", 0.0)
    if params.vv_mag < ORTHOGONAL_TOL:
        raise RegimeError(
            "transmit vectors are also orthogonal; use the v-orthogonal closed form"
        )
    a, b = _scaled_gains(params)
    vv_sq = params.vv_mag**2
    diff_sq = (a - b) ** 2
    term_a = diff_sq / vv_sq + 2.0 * a * (a + b)
    term_b = diff_sq**2 / vv_sq**2 + 4.0 * a * b * diff_sq / vv_sq
    term_c = (1.0 + 1.0 / vv_sq) * (a + b) ** 2 - 4.0 * a * b / vv_sq
    root = math.sqrt(max(term_b, 0.0))
    if a >= b:
        beta_sq = (term_a + root) / (2.0 * term_c)
    else:
        beta_sq = (term_a - root) / (2.0 * term_c)
    beta_sq = min(max(beta_sq, 0.0), 1.0)
    return AllocationPoint(beta=math.sqrt(beta_sq), theta=-params.vv_phase)


def delta_snr_u_orth(params: TwoPathParams) -> float:
    """Loss of dominant-path beamforming when receive vectors are orthogonal.

    Evaluates the optimal-over-dominant SNR ratio at the closed-form
    allocation, and never below 1.  When the transmit vectors are
    orthogonal too, the dominant path is exactly optimal and the ratio is 1.
    """
    _require_regime(params, "uu", 0.0)
    a, b = _scaled_gains(params)
    if params.vv_mag < ORTHOGONAL_TOL:
        return 1.0
    vv = params.vv_mag
    beta = beta_opt_u_orth(params).beta
    spread = math.sqrt(max(1.0 - beta**2, 0.0))
    optimal = a + b - (1.0 - vv**2) * (beta**2 * b + spread**2 * a) / (
        1.0 + 2.0 * beta * spread * vv
    )
    dominant = max(a + b * vv**2, b + a * vv**2)
    # the optimum is never below the dominant beam's SNR: a ratio under 1 is the
    # rounding of a + b minus a term within a few ulps of it
    return max(optimal / dominant, 1.0)


def delta_snr_u_orth_equal_gains(vv_mag: float) -> float:
    """Equal-gain simplification of the u-orthogonal loss: (1+vv)/(1+vv^2).

    Maximized at ``vv = sqrt(2) - 1`` with value ``(sqrt(2)+1)/2``.
    """
    if not 0.0 <= vv_mag <= 1.0:
        raise ValueError("vv_mag must lie in [0, 1]")
    return (1.0 + vv_mag) / (1.0 + vv_mag**2)


def delta_snr_v_parallel(params: TwoPathParams) -> float:
    """Loss when the transmit steering vectors are parallel: exactly 1.

    The objective is independent of the power split, so any allocation,
    the dominant path included, achieves the optimum.
    """
    _require_regime(params, "vv", 1.0)
    return 1.0


def snr_v_parallel(params: TwoPathParams) -> float:
    """Common normalized SNR of every allocation in the v-parallel regime."""
    _require_regime(params, "vv", 1.0)
    cross = 2.0 * params.mag_a1 * params.mag_a2 * params.uu_mag
    return (params.gain_sq_1 + params.gain_sq_2 + cross * math.cos(params.misalignment)) / 2.0


def beta_opt_u_parallel(params: TwoPathParams) -> AllocationPoint:
    """Optimal allocation when the receive steering vectors are parallel.

    Mimics maximum ratio combining: power proportional to path gain,
    ``beta^2 = a / (a + b)``.
    """
    _require_regime(params, "uu", 1.0)
    a = params.gain_sq_1
    b = params.gain_sq_2
    if a + b == 0.0:
        raise ValueError("undefined allocation: both path gains are zero")
    theta = params.phase_diff - params.uu_phase
    return AllocationPoint(beta=math.sqrt(a / (a + b)), theta=theta)


def snr_u_parallel(params: TwoPathParams) -> float:
    """Optimal normalized SNR in the u-parallel regime."""
    _require_regime(params, "uu", 1.0)
    cross = 2.0 * params.mag_a1 * params.mag_a2 * params.vv_mag
    return (params.gain_sq_1 + params.gain_sq_2 + cross * math.cos(params.misalignment)) / 2.0


def delta_snr_u_parallel(params: TwoPathParams) -> float:
    """Loss of dominant-path beamforming when receive vectors are parallel.

    ``1 + lo*(1 - vv^2) / (hi + vv^2*lo + 2*sqrt(hi*lo)*vv*cos(nu))`` with
    hi/lo the ordered squared gains, scaled as :func:`_scaled_gains` does.
    Returns ``+inf`` when the denominator vanishes (equal gains, parallel
    transmit vectors, opposite phase: the dominant-path beam is fully
    cancelled while the optimal beam still combines the paths, so the loss
    is unbounded).
    """
    _require_regime(params, "uu", 1.0)
    hi, lo = sorted(_scaled_gains(params), reverse=True)
    vv = params.vv_mag
    den = hi + vv**2 * lo + 2.0 * math.sqrt(hi * lo) * vv * math.cos(params.misalignment)
    if den <= CANCELLED_POWER:
        return math.inf
    return 1.0 + lo * (1.0 - vv**2) / den


def snr_dominant_path(params: TwoPathParams) -> float:
    """Normalized SNR of steering all power along the stronger path."""
    a = params.gain_sq_1
    b = params.gain_sq_2
    vv_sq = params.vv_mag**2
    cross = (
        2.0
        * params.mag_a1
        * params.mag_a2
        * params.vv_mag
        * params.uu_mag
        * math.cos(params.misalignment)
    )
    return (max(a + b * vv_sq, b + a * vv_sq) + cross) / 2.0


def snr_equal_power_coherent(params: TwoPathParams) -> float:
    """Normalized SNR of the equal-split beam under coherent alignment.

    Assumes the beam phase and the path misalignment are both zero, in
    which case the split achieves ``(1+vv)*(a + b + 2*sqrt(ab)*uu)/4``.
    """
    cross = 2.0 * params.mag_a1 * params.mag_a2 * params.uu_mag
    return (
        (1.0 + params.vv_mag)
        * (params.gain_sq_1 + params.gain_sq_2 + cross)
        / 4.0
    )
