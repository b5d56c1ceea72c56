"""Property tests at the input boundary: bad input is rejected with ValueError.

A sweep config parsed from any JSON-like dict, an observation set built
from any coefficient grid and one loaded from any observation directory
either exist (and are then valid) or raise ValueError; no other exception
may escape to the caller.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phaseinpaint.gabor import benchmark_system, hann_window, make_gabor_system
from phaseinpaint.masks import random_mask
from phaseinpaint.observe import Observations, load_observations, observe, save_observations
from phaseinpaint.sweeps import METHODS, ExperimentConfig, config_from_dict


# JSON scalars, biased towards values a real config holds so that some
# drawn dicts build; integers beyond a double's range are JSON too
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=20)
    | st.sampled_from([2**1100, -(2**1100)])
    | st.floats(min_value=0.0, max_value=1.0)
    | st.floats()
    | st.sampled_from(METHODS + ("ratio", "hole_width"))
    | st.text(max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def config_dicts(draw):
    # the config's fields, an unknown key and the solver blocks it has no more
    names = [f.name for f in dataclasses.fields(ExperimentConfig)] + ["bogus", "gli", "pli", "pci"]
    keys = draw(st.lists(st.sampled_from(names), unique=True, max_size=5))
    return {key: draw(json_values) for key in keys}


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
    with np.errstate(over="ignore"):
        finite = np.all(np.isfinite(coeffs)) and np.all(np.isfinite(np.abs(coeffs)))
    if finite:
        obs = Observations(system, coeffs, mask)
        assert np.array_equal(obs.mask, mask)
    else:
        with pytest.raises(ValueError, match="finite"):
            Observations(system, coeffs, mask)


# hostile observation directories: a valid 4 x 4 set whose files are each
# kept, edited or replaced. Declared sizes are small, or from 2^20 up so
# large that a grid or fold allocated before the checks would show as a
# MemoryError or OverflowError
def _valid_files():
    system = make_gabor_system(hann_window(4), hop=2, bins=4, signal_len=8)
    x = np.random.default_rng(5).standard_normal(8) + 0j
    with tempfile.TemporaryDirectory() as tmp:
        save_observations(observe(system, x, random_mask(4, 4, 0.5, seed=5)), tmp)
        return {name: (Path(tmp) / name).read_text() for name in ("sys.json", "r.csv", "mask.csv", "b.csv")}


VALID_FILES = _valid_files()
tokens = st.sampled_from(["", "x", "nan", "inf", "-1", "0.5", "2", "1e400", "1e3", "-0.0", "True"])
sizes = st.integers(-2, 20) | st.sampled_from([2**20, 2**40, 2**70])
windows = st.lists(st.floats() | st.integers(-2, 3), min_size=1, max_size=6)
other_values = st.none() | st.booleans() | st.floats() | tokens | st.lists(tokens, max_size=3)


@st.composite
def sys_json_texts(draw):
    desc = json.loads(VALID_FILES["sys.json"])
    if draw(st.booleans()):  # one shift geometry scaled up or down
        desc["hop"] = desc["signal_len"] = draw(sizes)
    for key in draw(st.lists(st.sampled_from(["window", "hop", "bins", "signal_len"]), max_size=3)):
        edit = draw(st.sampled_from(["typed", "other", "drop"]))
        if edit == "typed":
            desc[key] = draw(windows if key == "window" else sizes)
        elif edit == "other":
            desc[key] = draw(other_values)
        else:
            desc.pop(key, None)
    return draw(st.just(json.dumps(desc)) | st.sampled_from(["[]", "3", '"x"', "{", ""]))


@st.composite
def grid_texts(draw, name, cells):
    rows = [row.split(",") for row in VALID_FILES[name].splitlines()]
    if draw(st.booleans()):  # a fresh grid of any small shape
        n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        rows = [[draw(cells) for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["cell", "drop_row", "drop_col", "add_row"]))
        r = draw(st.integers(0, len(rows) - 1))
        if edit == "cell":
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(cells)
        elif edit == "drop_row" and len(rows) > 1:
            del rows[r]
        elif edit == "drop_col" and len(rows[r]) > 1:
            rows = [row[:-1] for row in rows]
        elif edit == "add_row":
            rows.append(list(rows[r]))
    return "\n".join(",".join(row) for row in rows) + "\n"


@st.composite
def b_csv_texts(draw):
    lines = VALID_FILES["b.csv"].splitlines()
    header, rows = lines[0], lines[1:]
    rows = draw(st.lists(st.sampled_from(rows), max_size=len(rows) + 1)) if rows else []
    numbers = st.floats().map(repr) | tokens
    extra = st.tuples(st.integers(-2, 17).map(str) | tokens, numbers, numbers).map(",".join)
    short = st.sampled_from(["3", "3,1.0", "3,1,2,4", ""])
    rows += draw(st.lists(extra | short, max_size=3))
    return "\n".join([header] + rows) + "\n"


observation_dirs = st.fixed_dictionaries(
    {
        "sys.json": st.just(VALID_FILES["sys.json"]) | sys_json_texts(),
        "r.csv": st.just(VALID_FILES["r.csv"]) | grid_texts("r.csv", st.floats().map(repr) | tokens),
        "mask.csv": st.just(VALID_FILES["mask.csv"]) | grid_texts("mask.csv", st.sampled_from(["0", "1"]) | tokens),
        "b.csv": st.just(VALID_FILES["b.csv"]) | b_csv_texts(),
    }
)


@settings(deadline=None)
@given(observation_dirs)
def test_load_observations_loads_or_raises_value_error(files):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        try:
            obs = load_observations(tmp)
        except ValueError:
            return
    assert isinstance(obs, Observations)
    assert obs.magnitudes.shape == obs.mask.shape == (obs.system.bins, obs.system.frames)
