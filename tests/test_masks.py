"""Mask generator contracts: exact counts, determinism, hole structure."""

import numpy as np
import pytest

from phaseinpaint.masks import hole_mask, load_mask_csv, random_mask, save_mask_csv


class TestRandomMask:
    def test_ratio_zero_is_all_ones(self):
        assert np.all(random_mask(32, 16, 0.0, seed=0) == 1)

    def test_ratio_one_is_all_zeros(self):
        assert np.all(random_mask(32, 16, 1.0, seed=0) == 0)

    def test_exact_zero_count(self):
        mask = random_mask(32, 16, 0.3, seed=1)
        assert int(np.count_nonzero(mask == 0)) == round(0.3 * 512) == 154

    def test_deterministic_per_seed(self):
        assert np.array_equal(random_mask(32, 16, 0.4, 7), random_mask(32, 16, 0.4, 7))

    def test_distinct_seeds_differ(self):
        distinct = 0
        for seed in range(100):
            a = random_mask(32, 16, 0.3, seed)
            b = random_mask(32, 16, 0.3, seed + 1000)
            distinct += int(not np.array_equal(a, b))
        assert distinct == 100

    def test_ratio_out_of_range(self):
        with pytest.raises(ValueError, match="ratio"):
            random_mask(32, 16, 1.5, seed=0)


class _RecordingRng:
    """Generator proxy that logs the draws of ``integers`` and ``choice``."""

    def __init__(self, rng):
        self._rng, self.integers_drawn, self.choices_drawn = rng, [], []

    def integers(self, *args, **kwargs):
        value = self._rng.integers(*args, **kwargs)
        self.integers_drawn.append(int(value))
        return value

    def choice(self, *args, **kwargs):
        value = self._rng.choice(*args, **kwargs)
        self.choices_drawn.append(value)
        return value


class TestHoleMask:
    def test_width_one_count_matches_random(self):
        mask = hole_mask(32, 16, 0.3, width=1, seed=3)
        assert int(np.count_nonzero(mask == 0)) == 154

    def test_exact_count_for_all_widths(self):
        for width in (1, 3, 5, 7, 9):
            mask = hole_mask(32, 16, 0.3, width=width, seed=width)
            assert int(np.count_nonzero(mask == 0)) == 154

    def test_ratio_zero_any_width(self):
        assert np.all(hole_mask(32, 16, 0.0, width=5, seed=0) == 1)

    def test_pre_trim_zeros_lie_in_placed_blocks(self, monkeypatch):
        # the blocks and the restored cells are read off the generator's draws
        rngs = []
        default_rng = np.random.default_rng

        def recording_rng(seed):
            rngs.append(_RecordingRng(default_rng(seed)))
            return rngs[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        mask = hole_mask(32, 16, 0.3, width=5, seed=11)
        monkeypatch.undo()
        (rng,) = rngs
        corners = rng.integers_drawn
        assert len(corners) % 2 == 0 and len(rng.choices_drawn) == 1
        blocks = [(i, i + 5, j, j + 5) for i, j in zip(corners[::2], corners[1::2])]
        covered = np.zeros_like(mask)
        for i0, i1, j0, j1 in blocks[:-1]:
            covered[i0:i1, j0:j1] = 1
        i0, i1, j0, j1 = blocks[-1]
        last_new = np.argwhere(covered[i0:i1, j0:j1] == 0) + (i0, j0)
        restored = last_new[rng.choices_drawn[0]]
        covered[i0:i1, j0:j1] = 1
        pre_trim = mask.copy()
        for bi, bj in restored:
            assert mask[bi, bj] == 1
            pre_trim[bi, bj] = 0
        zero_cells = np.argwhere(pre_trim == 0)
        assert all(covered[i, j] == 1 for i, j in zero_cells)
        assert np.array_equal(pre_trim == 0, covered == 1)
        assert int(np.count_nonzero(mask == 0)) == 154

    def test_deterministic(self):
        assert np.array_equal(hole_mask(32, 16, 0.3, 5, 9), hole_mask(32, 16, 0.3, 5, 9))

    def test_width_out_of_range(self):
        with pytest.raises(ValueError, match="width"):
            hole_mask(32, 16, 0.3, width=17, seed=0)
        with pytest.raises(ValueError, match="width"):
            hole_mask(32, 16, 0.3, width=0, seed=0)


def test_mask_csv_round_trip(tmp_path):
    mask = hole_mask(32, 16, 0.3, width=3, seed=5)
    path = tmp_path / "mask.csv"
    save_mask_csv(mask, path)
    assert np.array_equal(load_mask_csv(path), mask)
