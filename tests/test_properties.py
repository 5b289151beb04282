"""Properties of the batched Monte Carlo engine over random configurations."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mmwbeam.montecarlo import ANGLE_SAMPLING, McConfig, _trial_losses  # noqa: E402

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
