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
from .steering import ArrayGeometry, angle_frequencies, cpo_inner_product

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
        """Measure the reduced parameters of two paths; each coupling is a Dirichlet kernel."""
        if len(paths) != 2:
            raise ValueError("exactly two paths are required")
        p1, p2 = paths
        rx1, rx2 = angle_frequencies([p1.aoa, p2.aoa]).tolist()
        tx1, tx2 = angle_frequencies([p1.aod, p2.aod]).tolist()
        uu = cpo_inner_product(rx_geom, rx2 - rx1)
        vv = cpo_inner_product(tx_geom, tx2 - tx1)
        g1, g2 = complex(p1.gain), complex(p2.gain)
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
        "vv", 1.0, "uu", None, "delta_snr_v_parallel", None, "snr_dominant_path"
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


def _grid_axes(params: TwoPathParams, a: float, b: float, root_ab: float, betas, thetas):
    """The per-axis terms of the objective: three (B, 1) columns and two (1, T) rows.

    ``a``, ``b`` and ``root_ab`` stand for the squared gains and their
    geometric mean; the objective is of degree one in them.  The columns
    are the beta-only terms, then the coefficients of ``cos(phi)`` in the
    numerator, of the coupling row, and of ``cos(phi)`` in the denominator;
    the rows are ``cos(phi)`` and ``vv^2 cos(nu + phi) + cos(nu - phi)``.
    """
    uu = params.uu_mag
    vv = params.vv_mag
    nu = params.misalignment

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
    columns = (beta_terms, pair_amp * (a + b) * vv, pair_amp * root_ab * uu, pair_amp * vv)
    rows = (cos_phi, vv**2 * np.cos(nu + phi) + np.cos(nu - phi))
    return columns, rows


def _grid_block(columns, rows, r0: int, r1: int, num: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Write the objective's rows ``[r0, r1)`` into ``num`` (``work`` is scratch); return ``num``.

    Both buffers hold ``r1 - r0`` rows of the grid's width.  The numerator
    keeps the term order of the plain left-to-right sum on purpose: the
    cos(phi) product, then the beta-only column, then the coupling product,
    each added in place; ``work`` then holds the denominator.  Every entry
    keeps the bits of that sum whatever the block, so grid searches keep
    their argmax.  The masked division runs only in a block where some beam
    norm vanishes; such entries are ``-inf``.
    """
    beta_terms, cos_coef, cross_coef, den_coef = (col[r0:r1] for col in columns)
    cos_phi, cross_row = rows
    np.multiply(cos_coef, cos_phi, out=num)
    num += beta_terms
    num += np.multiply(cross_coef, cross_row, out=work)
    den = np.multiply(den_coef, cos_phi, out=work)
    den += 1.0
    if den.min(initial=math.inf) > MIN_BEAM_NORM_SQ:
        num /= den
        num *= 0.5  # the bits of / 2.0, at a third of the cost
        return num
    ok = den > MIN_BEAM_NORM_SQ
    num /= np.where(ok, den, 1.0)
    num *= 0.5
    num[~ok] = -np.inf
    return num


def objective_grid(params: TwoPathParams, betas, thetas) -> np.ndarray:
    """Normalized SNR of the two-path beam on a (beta, theta) product grid.

    Returns an array of shape ``(len(betas), len(thetas))``; entries whose
    beam degenerates to the zero vector are ``-inf``.  The per-axis terms
    (:func:`_grid_axes`) are combined by one block over every row
    (:func:`_grid_block`), in two full-size buffers.
    """
    columns, rows = _grid_axes(
        params, params.gain_sq_1, params.gain_sq_2, params.mag_a1 * params.mag_a2, betas, thetas
    )
    shape = (columns[0].shape[0], rows[0].shape[1])
    return _grid_block(columns, rows, 0, shape[0], np.empty(shape), np.empty(shape))


def _unscaled(value: float, shift: int) -> float:
    """``value * 2**-shift``: an objective evaluated on gains scaled by ``2**shift``, scaled back.

    A value beyond the float range reads as infinite.
    """
    try:
        return math.ldexp(value, -shift)
    except OverflowError:
        return math.copysign(math.inf, value)


def two_path_objective(params: TwoPathParams, alloc: AllocationPoint) -> float:
    """Normalized SNR achieved by one allocation on the two-path channel.

    Matrix-free evaluation of ``f^H H^H H f / (L * Nt * Nr * f^H f)`` for
    ``f = beta*v_1 + sqrt(1-beta^2)*exp(1j*theta)*v_2``, on the scaled
    gains of :func:`allocation_grid_search` and scaled back, so it reads
    that search's values; beyond the float range it is infinite.
    """
    *gains, shift = _scaled_terms(params)
    columns, rows = _grid_axes(params, *gains, [alloc.beta], [alloc.theta])
    value = float(_grid_block(columns, rows, 0, 1, np.empty((1, 1)), np.empty((1, 1)))[0, 0])
    if value == -math.inf:
        raise ValueError("beam has numerically zero norm at this allocation")
    return _unscaled(value, shift)


# Rows of one block of the grid search.  At the default 360 phases a block buffer
# is 180 KiB, and glibc serves the two of them again from its heap on every call.
# The row test leaves about 2 rows of a coarse search and 30-130 of a refined one,
# so blocks rarely fill.  Median of 15 rounds of a coarse and a refined search on
# 120 of verify's prop2-prop4 draws, on a 2-vCPU x86-64 box (numpy 2.4, glibc 2.36),
# by rows per block: 32 -> 628 us, 64 -> 607 us, 96 -> 606 us, 128 -> 603 us,
# 201 (one block) -> 703 us.  64 is within noise of the fastest and keeps both
# buffers far from the size at which they would come from fresh, faulting pages.
GRID_BLOCK_ROWS = 64


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

    The grid is evaluated on the squared gains of :func:`_scaled_gains` and
    their geometric mean, and its value scaled back (beyond the float range
    it reads infinite), so scaling both gains by a power of two keeps the
    point and scales the value exactly, and huge and tiny gains keep their
    argmax.  Where the larger gain lies in [0.5, 1) every entry has the bits
    of :func:`objective_grid`; elsewhere the two may differ in the last bit
    of a squared gain, because ``x**2`` (libm's ``pow``) does not commute
    with a power-of-two scaling.

    Most rows are never evaluated.  A row's doubled objective is
    ``(alpha + b cos(phi) + c sin(phi)) / (1 + delta cos(phi))``, which stays
    below ``T`` at every phase exactly when ``hypot(b - T delta, c) < T - alpha``
    (:func:`_candidate_blocks`).  ``T`` is twice the grid maximum of the row
    whose maximum over a continuous phase is largest, and a row is skipped
    only when ``T`` is finite, ``|delta| <= 1 - 1e-6`` and the test holds with
    the margin ``64 eps (|alpha| + |cos_coef| + 2 (1 + |p| + 3 pi) |cross_coef|
    + |T| (1 + |delta|))`` plus 64 times the smallest subnormal (``p`` the
    transmit coupling's phase), which covers the rounding of the entries and
    of the test.  A skipped row holds only finite entries strictly below the
    grid's maximum; NaN and masked rows are always evaluated.  The other rows
    are evaluated in ascending order in blocks of at most ``GRID_BLOCK_ROWS``
    rows, into two buffers allocated once per call, under a running argmax
    in which a later block wins only strictly.  So the result is the point
    and value of ``np.argmax`` over the whole scaled grid: ties resolve to
    the lowest (beta-major) linear index.
    """
    if num_beta < 2 or num_theta < 2:
        raise ValueError("grid resolutions must be at least 2")
    if beta_window is None:
        betas = np.linspace(0.0, 1.0, num_beta)
    else:
        betas = np.clip(np.linspace(beta_window[0], beta_window[1], num_beta), 0.0, 1.0)
    thetas = np.linspace(0.0, _TWO_PI, num_theta, endpoint=False)
    *gains, shift = _scaled_terms(params)
    columns, rows = _grid_axes(params, *gains, betas, thetas)
    shape = (min(GRID_BLOCK_ROWS, num_beta), num_theta)
    num, work = np.empty(shape), np.empty(shape)
    best, best_flat = -math.inf, -1
    for r0, r1 in _candidate_blocks(params, columns, rows, num, work):
        block = _grid_block(columns, rows, r0, r1, num[: r1 - r0], work[: r1 - r0])
        flat = int(np.argmax(block))
        value = float(block.flat[flat])
        # a later block wins only strictly; a NaN (a NaN phase) fills every unmasked
        # entry and leaves every row a candidate, so the first block's holds, as
        # np.argmax over the whole grid picks it
        if best_flat < 0 or value > best:
            best, best_flat = value, r0 * num_theta + flat
    i, j = divmod(best_flat, num_theta)
    return AllocationPoint(beta=float(betas[i]), theta=float(thetas[j])), _unscaled(best, shift)


# The row test of the grid search leaves to the blocks every row whose denominator
# column lies within this of 1 in magnitude, where a beam norm may come near vanishing.
_ROW_TEST_DEN_GAP = 1e-6
# Margin of the row test, in units of eps (see _candidate_blocks).
_ROW_TEST_ULPS = 64.0


def _candidate_blocks(params: TwoPathParams, columns, rows, num, work) -> list[tuple[int, int]]:
    """Ascending ``[r0, r1)`` blocks of at most ``GRID_BLOCK_ROWS`` rows, holding every row of
    the search's grid that may hold or tie its maximum (see :func:`allocation_grid_search`).

    With ``w = vv^2``, ``vv^2 cos(nu + phi) + cos(nu - phi) = (1 + w) cos(nu) cos(phi)
    + (1 - w) sin(nu) sin(phi)``, so a row's doubled objective is ``(alpha + b cos(phi)
    + c sin(phi)) / (1 + delta cos(phi))``: ``alpha`` the beta-only column, ``delta``
    the denominator column, ``b = cos_coef + cross_coef (1 + w) cos(nu)`` and
    ``c = cross_coef (1 - w) sin(nu)``.  Where ``|delta| < 1`` the denominator is
    positive, so the row stays below ``T`` at every phase if and only if
    ``hypot(b - T delta, c) < T - alpha``; the smallest such ``T`` is the row's
    maximum over a continuous phase, the larger root of ``(T - alpha)^2 =
    (b - T delta)^2 + c^2``.  The row with the largest such maximum is the seed, and
    ``T`` is twice the largest entry the blocks compute for it, a value the grid holds.

    The margin bounds how far the entries :func:`_grid_block` computes, and the
    test's own arithmetic, stray from the exact row at the stored phases ``phi``.
    With u = eps / 2 and ``p`` the transmit coupling's phase: ``cos(phi)`` is off by
    a few u; the phases ``nu +- phi`` round by at most ``u |nu +- phi| <= u (|p| +
    3 pi)``, as the search's phases lie in [0, 2 pi) and ``|nu| <= pi``, so the
    coupling row is off by under ``2u (|p| + 3 pi + 4)``.  The numerator's three
    products and two sums each round by u of a partial sum at most ``|alpha| +
    |cos_coef| + 2 |cross_coef|``; the denominator is off by under ``4u (1 +
    |delta|)``, which with the division's rounding costs ``6u |T| (1 + |delta|)``
    against ``T``.  The test's ``b``, ``c``, ``b - T delta``, hypot and ``T - alpha``
    add under ``8u`` of the same terms.  All of it is under a fifth of the margin;
    where a result is subnormal its rounding is absolute, which the subnormal term
    covers.  So a skipped row's computed entries are finite and strictly below half
    of ``T``, hence below the grid's maximum: they can neither win nor tie.
    """
    alpha, cos_coef, cross_coef, den_coef = (col[:, 0] for col in columns)
    vv_sq = params.vv_mag**2
    nu = params.misalignment
    b = cos_coef + cross_coef * ((1.0 + vv_sq) * math.cos(nu))
    c = cross_coef * ((1.0 - vv_sq) * math.sin(nu))
    tested = np.abs(den_coef) <= 1.0 - _ROW_TEST_DEN_GAP
    delta = np.where(tested, den_coef, 0.0)
    # the root's discriminant reduces to this sum of squares
    root = np.sqrt((b - alpha * delta) ** 2 + c * c * (1.0 - delta * delta))
    peaks = (alpha - b * delta + root) / (1.0 - delta * delta)
    peaks[~tested] = -np.inf
    seed = int(np.argmax(peaks))
    top = 2.0 * float(_grid_block(columns, rows, seed, seed + 1, num[:1], work[:1]).max())
    skip = np.zeros(alpha.shape, dtype=bool)
    if math.isfinite(top):
        ulps = _ROW_TEST_ULPS * np.finfo(float).eps
        margin = ulps * (np.abs(alpha) + np.abs(cos_coef) + abs(top) * (1.0 + np.abs(delta)))
        # scaled before the product, so a huge phase cannot overflow it
        margin += 2.0 * ulps * (1.0 + abs(params.vv_phase) + 3.0 * math.pi) * np.abs(cross_coef)
        margin += _ROW_TEST_ULPS * np.finfo(float).smallest_subnormal
        skip = tested & (np.hypot(b - top * delta, c) < (top - alpha) - margin)
    # kept rows run between the rises and falls of the padded skip mask
    edges = np.flatnonzero(np.diff(skip, prepend=True, append=True)).tolist()
    return [
        (r0, min(r0 + GRID_BLOCK_ROWS, stop))
        for start, stop in zip(edges[::2], edges[1::2])
        for r0 in range(start, stop, GRID_BLOCK_ROWS)
    ]


def _scaled_terms(params: TwoPathParams) -> tuple[float, float, float, int]:
    """``a``, ``b`` and ``sqrt(ab)`` of :func:`_scaled_gains`, and the exponent of their scale.

    The three are the squared gains and their geometric mean times
    ``2**shift``, squared from the scaled magnitudes, so they depend on the
    gains' ratio and mantissas only.  Zero gains give zeros and a shift of 0.
    """
    larger = max(params.mag_a1, params.mag_a2)
    if larger == 0.0:
        return 0.0, 0.0, 0.0, 0
    half = -math.frexp(larger)[1]
    m1, m2 = math.ldexp(params.mag_a1, half), math.ldexp(params.mag_a2, half)
    a, b = m1**2, m2**2
    rest = -math.frexp(max(a, b))[1]
    return math.ldexp(a, rest), math.ldexp(b, rest), math.ldexp(m1 * m2, rest), 2 * half + rest


def _scaled_gains(params: TwoPathParams) -> tuple[float, float]:
    """The squared gains, scaled by the power of two that takes the larger into [0.5, 1).

    The magnitudes are scaled by a power of two before they are squared, so
    gains whose squares would under- or overflow keep their ratio.  The
    scaling is exact, so a ratio of terms of one degree in ``a`` and ``b``
    keeps its value wherever nothing under- or overflows, up to the last bit
    of a square (libm's ``x**2`` is not correctly rounded), and products of
    tiny or huge squared gains no longer under- or overflow.
    """
    if max(params.mag_a1, params.mag_a2) == 0.0:
        raise ValueError("undefined when both path gains are zero")
    return _scaled_terms(params)[:2]


def beta_opt_v_orth(params: TwoPathParams) -> AllocationPoint:
    """Optimal allocation when the transmit steering vectors are orthogonal.

    The optimal split solves ``beta^2 = (1 + (a-b)/sqrt((a-b)^2 + 4ab*uu^2))/2``
    and the phase aligns the two paths through the receive-side coupling.
    """
    _require_regime(params, "vv", 0.0)
    a, b = _scaled_gains(params)
    root = _v_orth_root(a, b, params.uu_mag)
    beta_sq = 0.5 if root == 0.0 else 0.5 * (1.0 + (a - b) / root)
    theta = params.phase_diff - params.uu_phase
    return AllocationPoint(beta=math.sqrt(min(beta_sq, 1.0)), theta=theta)


def _v_orth_root(a, b, uu_mag):
    """The root ``sqrt((a - b)^2 + 4ab uu^2)`` of squared gains ``a``, ``b``.

    The radicand is written as this sum, which does not cancel.  Callers
    pass gains scaled as :func:`_scaled_gains` does, or bounded ones, so
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
    _require_regime(params, "vv", 0.0)
    a, b = _scaled_gains(params)
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
    _require_regime(params, "uu", 0.0)
    if params.vv_mag < ORTHOGONAL_TOL:
        raise RegimeError(
            "transmit vectors are also orthogonal; use the v-orthogonal closed form"
        )
    a, b = _scaled_gains(params)
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


def delta_snr_u_orth_equal_gains(vv_mag):
    """Equal-gain simplification of the u-orthogonal loss: (1+vv)/(1+vv^2).

    Maximized at ``vv = sqrt(2) - 1`` with value ``(sqrt(2)+1)/2``.  Takes a
    float or an array of couplings, each of which must lie in [0, 1].
    """
    vv = np.asarray(vv_mag)
    if not np.all((vv >= 0.0) & (vv <= 1.0)):
        raise ValueError("vv_mag must lie in [0, 1]")
    return (1.0 + vv_mag) / (1.0 + vv_mag**2)


def delta_snr_v_parallel(params: TwoPathParams) -> float:
    """Loss when the transmit steering vectors are parallel: exactly 1.

    The objective is independent of the power split, so any allocation,
    the dominant path included, achieves the optimum.
    """
    _require_regime(params, "vv", 1.0)
    return 1.0


def beta_opt_u_parallel(params: TwoPathParams) -> AllocationPoint:
    """Optimal allocation when the receive steering vectors are parallel.

    Mimics maximum ratio combining: power proportional to path gain,
    ``beta^2 = a / (a + b)``.
    """
    _require_regime(params, "uu", 1.0)
    a, b = _scaled_gains(params)
    theta = params.phase_diff - params.uu_phase
    return AllocationPoint(beta=math.sqrt(a / (a + b)), theta=theta)


def snr_u_parallel(params: TwoPathParams) -> float:
    """Optimal normalized SNR in the u-parallel regime, on the gains of :func:`_scaled_terms`."""
    _require_regime(params, "uu", 1.0)
    a, b, root_ab, shift = _scaled_terms(params)
    cross = 2.0 * root_ab * params.vv_mag
    return _unscaled((a + b + cross * math.cos(params.misalignment)) / 2.0, shift)


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
    """Normalized SNR of steering all power along the stronger path, on :func:`_scaled_terms`."""
    a, b, root_ab, shift = _scaled_terms(params)
    vv_sq = params.vv_mag**2
    cross = 2.0 * root_ab * params.vv_mag * params.uu_mag * math.cos(params.misalignment)
    return _unscaled((max(a + b * vv_sq, b + a * vv_sq) + cross) / 2.0, shift)


def snr_equal_power_coherent(params: TwoPathParams) -> float:
    """Normalized SNR of the equal-split beam under coherent alignment.

    Assumes the beam phase and the path misalignment are both zero, in
    which case the split achieves ``(1+vv)*(a + b + 2*sqrt(ab)*uu)/4``, on
    the gains of :func:`_scaled_terms` and scaled back.
    """
    a, b, root_ab, shift = _scaled_terms(params)
    return _unscaled((1.0 + params.vv_mag) * (a + b + 2.0 * root_ab * params.uu_mag) / 4.0, shift)
