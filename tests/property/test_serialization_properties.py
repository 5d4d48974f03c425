"""Property-based tests for checkpoint serialization across architectures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.fog.deployment import _bytes_to_dict, _dict_to_bytes
from repro.nn.tensor import Tensor


def build_mlp(widths, seed):
    layers = []
    rng = np.random.default_rng(seed)
    for in_width, out_width in zip(widths, widths[1:]):
        layers.append(nn.Linear(in_width, out_width, rng=rng))
        layers.append(nn.ReLU())
    return nn.Sequential(*layers[:-1])  # drop trailing activation


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=4),
       st.integers(0, 1000))
def test_state_bytes_roundtrip_random_mlps(widths, seed):
    """Through the npz payload a deployment ships to each tier."""
    source = build_mlp(widths, seed)
    target = build_mlp(widths, seed + 1)
    target.load_state_dict(_bytes_to_dict(_dict_to_bytes(source.state_dict())))
    x = Tensor(np.random.default_rng(seed).normal(0, 1, (3, widths[0])))
    np.testing.assert_allclose(source(x).data, target(x).data)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=4),
       st.integers(0, 1000))
def test_state_dict_is_complete(widths, seed):
    model = build_mlp(widths, seed)
    state = model.state_dict()
    expected_params = sum(
        widths[i] * widths[i + 1] + widths[i + 1]
        for i in range(len(widths) - 1))
    assert sum(v.size for v in state.values()) == expected_params


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 100))
def test_mismatched_architecture_rejected(a, b, seed):
    source = nn.Linear(a, b, rng=np.random.default_rng(seed))
    target = nn.Linear(a + 1, b, rng=np.random.default_rng(seed))
    with pytest.raises(ValueError):
        target.load_state_dict(source.state_dict())
