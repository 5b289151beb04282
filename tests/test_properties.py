"""Properties of the batched Monte Carlo engine and its steering stacks over random inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from mmwbeam.montecarlo import ANGLE_SAMPLING, McConfig, _trial_losses  # noqa: E402
from mmwbeam.steering import ArrayGeometry, steering_stack  # noqa: E402

# Losses may dip below zero by rounding only.
LOSS_FLOOR_DB = -1e-12

configs = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**64 - 1),
        "num_paths": st.integers(1, 5),
        "nt": st.integers(1, 64),
        "nr": st.integers(1, 64),
        "spacing_wavelengths": st.floats(0.01, 0.5),
        "angle_sampling": st.sampled_from(ANGLE_SAMPLING),
        "trials": st.integers(1, 40),
    }
)


def losses(scheme, **cfg):
    return _trial_losses(McConfig(scheme=scheme, **cfg))[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=configs)
def test_losses_are_nonnegative_and_ordered(cfg):
    bidirectional = losses("bidirectional", **cfg)
    dominant = losses("dominant_tx_mf_rx", **cfg)
    assert np.all(bidirectional >= LOSS_FLOOR_DB)
    assert np.all(dominant >= LOSS_FLOOR_DB)
    # per trial, the matched-filter receiver can only improve on the steered one
    assert np.all(dominant <= bidirectional - LOSS_FLOOR_DB)
    if cfg["num_paths"] == 1:
        assert np.all(np.abs(bidirectional) <= -LOSS_FLOOR_DB)
        assert np.all(np.abs(dominant) <= -LOSS_FLOOR_DB)
    if cfg["num_paths"] == 2:
        assert np.all(losses("equal_power", **cfg) >= LOSS_FLOOR_DB)


# Units of the steering-entry error bound: 4 * eps * (1 + m * |step|) / sqrt(N).
STEERING_ULPS = 4.0 * np.finfo(float).eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.one_of(st.sampled_from([1, 2, 7, 13, 64, 256, 1000, 1024]), st.integers(1, 1024)),
    spacing=st.floats(0.001, 1.0),
    freqs=hnp.arrays(
        float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5), elements=st.floats(-1.0, 1.0)
    ),
)
def test_steering_stack_matches_definition(n, spacing, freqs):
    geom = ArrayGeometry(n, spacing)
    stack = steering_stack(geom, freqs)
    assert stack.shape == freqs.shape[:-1] + (n, freqs.shape[-1])
    m = np.arange(n)[:, None]
    steps = 2.0 * np.pi * spacing * freqs[..., None, :]
    exact = np.exp(1j * (m * steps)) / np.sqrt(n)
    assert np.all(np.abs(stack - exact) <= STEERING_ULPS * (1.0 + m * np.abs(steps)) / np.sqrt(n))
    # each row of the stack holds the bits of that row built alone
    for row, row_freqs in zip(stack, freqs):
        assert np.array_equal(row, steering_stack(geom, row_freqs))
