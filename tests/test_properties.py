"""Property tests at the input boundary: bad input is rejected with ValueError.

A sweep config parsed from any JSON-like dict and an observation set built
from any coefficient grid either exist (and are then valid) or raise
ValueError; no other exception may escape to the caller.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phaseinpaint.gabor import benchmark_system
from phaseinpaint.griffin_lim import GliConfig
from phaseinpaint.observe import Observations
from phaseinpaint.phasecut import PciConfig
from phaseinpaint.phaselift import CONSTRAINT_MODES, PliConfig
from phaseinpaint.sweeps import METHODS, ExperimentConfig, config_from_dict

BLOCKS = {"gli": GliConfig, "pli": PliConfig, "pci": PciConfig}


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


# JSON scalars, biased towards values a real config holds so that some
# drawn dicts build; integers beyond a double's range are JSON too
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=20)
    | st.sampled_from([2**1100, -(2**1100)])
    | st.floats(min_value=0.0, max_value=1.0)
    | st.floats()
    | st.sampled_from(METHODS + CONSTRAINT_MODES + ("ratio", "hole_width"))
    | st.text(max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _block(cls):
    keys = st.sampled_from(_names(cls)) | st.text(max_size=6)
    return st.dictionaries(keys, json_values, max_size=3)


@st.composite
def config_dicts(draw):
    keys = draw(st.lists(st.sampled_from(_names(ExperimentConfig) + ["bogus"]), unique=True, max_size=5))
    data = {}
    for key in keys:
        as_block = key in BLOCKS and draw(st.booleans())
        data[key] = draw(_block(BLOCKS[key]) if as_block else json_values)
    return data


@settings(deadline=None)
@given(config_dicts())
def test_config_from_dict_builds_or_raises_value_error(data):
    try:
        cfg = config_from_dict(data)
    except ValueError:
        return
    assert isinstance(cfg, ExperimentConfig)


SHAPE = (32, 16)
coefficients = arrays(
    complex, SHAPE, elements=st.complex_numbers(allow_nan=True, allow_infinity=True)
)
masks = arrays(np.int64, SHAPE, elements=st.integers(0, 1))


@settings(deadline=None)
@given(coefficients, masks)
def test_observations_build_exactly_on_finite_coefficients(coeffs, mask):
    system = benchmark_system()
    if np.all(np.isfinite(coeffs)):
        obs = Observations(system, coeffs, mask)
        assert np.array_equal(obs.mask, mask)
    else:
        with pytest.raises(ValueError, match="finite"):
            Observations(system, coeffs, mask)
