"""Analysis/synthesis operator contracts."""

import time
import tracemalloc

import numpy as np
import pytest

from phaseinpaint.gabor import (
    GaborSystem,
    atom_matrix,
    benchmark_system,
    consistency_projection,
    flatten_grid,
    frame_analysis,
    frame_atoms,
    hann_window,
    istft,
    make_gabor_system,
    range_projector,
    stft,
    synthesis_matrix,
    unflatten_grid,
)
from phaseinpaint.metrics import error_db


def random_signal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def atom(sys: GaborSystem, t: int, nu: int) -> np.ndarray:
    """Gabor atom: window circularly shifted by t*hop, modulated to bin nu."""
    if not (0 <= t < sys.frames):
        raise IndexError(f"frame index {t} outside [0, {sys.frames})")
    if not (0 <= nu < sys.bins):
        raise IndexError(f"bin index {nu} outside [0, {sys.bins})")
    n = np.arange(sys.signal_len)
    w_full = np.zeros(sys.signal_len)
    w_full[: sys.window.size] = sys.window
    shifted = np.roll(w_full, t * sys.hop)
    return shifted * np.exp(2j * np.pi * nu * n / sys.bins)


def naive_stft(sys, x):
    out = np.zeros((sys.bins, sys.frames), dtype=complex)
    for t in range(sys.frames):
        for nu in range(sys.bins):
            out[nu, t] = np.vdot(atom(sys, t, nu), x)
    return out


class TestMakeGaborSystem:
    def test_benchmark_configuration(self):
        sys_ = benchmark_system()
        assert sys_.frames == 16
        assert sys_.bins == 32
        assert sys_.signal_len == 128
        assert sys_.n_cells == 512

    def test_unit_window_degenerate_system(self):
        sys_ = make_gabor_system(np.array([1.0]), hop=1, bins=1, signal_len=4)
        assert sys_.frames == 4
        assert sys_.bins == 1

    def test_hop_must_divide_length(self):
        with pytest.raises(ValueError, match="divisible"):
            make_gabor_system(hann_window(16), hop=7, bins=32, signal_len=128)

    def test_bins_smaller_than_window_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            make_gabor_system(hann_window(16), hop=8, bins=8, signal_len=128)

    @pytest.mark.parametrize(
        "sizes",
        [
            dict(hop=8.0, bins=32, signal_len=128),
            dict(hop=8, bins=32.0, signal_len=128),
            dict(hop=8, bins=32, signal_len=128.0),
            dict(hop=True, bins=32, signal_len=128),
        ],
        ids=["hop_float", "bins_float", "signal_len_float", "hop_bool"],
    )
    def test_non_integer_sizes_rejected(self, sizes):
        # caught here, not later as a casting TypeError in atom_matrix
        name = next(k for k, v in sizes.items() if type(v) is not int)
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            make_gabor_system(hann_window(16), **sizes)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            make_gabor_system(np.zeros(4), hop=2, bins=4, signal_len=8)

    def test_uncovered_samples_rejected(self):
        # a one-sample window hopping by 2 misses every odd sample
        with pytest.raises(ValueError, match="uncovered"):
            make_gabor_system(np.array([1.0]), hop=2, bins=1, signal_len=8)

    @pytest.mark.parametrize("hop", [2**20, 2**70])
    def test_hop_longer_than_window_rejected_before_fold(self, hop):
        # the fold would hold hop entries: 8 MB at 2^20, past int64 at 2^70
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="uncovered"):
                make_gabor_system(hann_window(16), hop=hop, bins=16, signal_len=hop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize(
        "window, hop, signal_len",
        [
            (hann_window(4), 2, 8),
            (hann_window(16), 8, 128),
            (np.array([1.0, 0.5, 0.25]), 1, 5),
            (np.array([0.0, 1.0, 0.0, 1.0, 3.0]), 2, 10),
            (np.array([1.0]), 2, 8),  # odd samples uncovered
            (hann_window(4), 4, 8),  # w[0] = 0 leaves every fourth sample
            (np.array([1.0, 0.0, 2.0]), 3, 12),  # the middle tap is zero
        ],
    )
    def test_coverage_fold_matches_roll_sum(self, window, hop, signal_len):
        # the sum of hop-shifted copies of w^2 over the whole signal is the
        # fold of w^2 modulo hop repeated frames times; the check folds the
        # squares over the peak's square, which is positive exactly where
        # this fold is. bins = signal_len keeps every frame operator
        # diagonal (row [1, .5, .25] at hop 1 and n = 5 is not at bins = 3)
        frames = signal_len // hop
        wsq = np.zeros(signal_len)
        wsq[: window.size] = window * window
        roll_sum = sum(np.roll(wsq, t * hop) for t in range(frames))
        fold = np.bincount(np.arange(window.size) % hop, weights=window * window, minlength=hop)
        assert np.allclose(np.tile(fold, frames), roll_sum, rtol=1e-15, atol=0.0)
        if np.min(roll_sum) > 0.0:
            assert make_gabor_system(window, hop, signal_len, signal_len).frames == frames
        else:
            with pytest.raises(ValueError, match="uncovered"):
                make_gabor_system(window, hop, signal_len, signal_len)

    def test_underflowing_fold_rejected(self):
        # sample 0's only window sample squares to 1e-400 next to the peak's
        # 1: the frame operator's diagonal has a zero in floating point
        with pytest.raises(ValueError, match="underflow"):
            make_gabor_system(np.array([1e-200, 1.0]), hop=2, bins=2, signal_len=4)

    def test_rule_matches_off_diagonal_frame_operator(self):
        # every small geometry with bins >= len(w) and a positive window:
        # make_gabor_system rejects exactly those whose M^H M has an entry
        # off its diagonal
        rng = np.random.default_rng(14)
        seen = {True: 0, False: 0}
        for width in range(1, 7):
            for hop in range(1, width + 1):
                for bins in range(width, 10):
                    for n in range(hop * -(-width // hop), 19, hop):
                        w = rng.uniform(0.5, 1.5, width)
                        M = atom_matrix(GaborSystem(w, hop, bins, n // hop, n))
                        gram = np.abs(M.conj().T @ M)
                        off_diagonal = np.max(gram - np.diag(np.diag(gram))) > 1e-9 * np.max(gram)
                        seen[off_diagonal] += 1
                        if off_diagonal:
                            with pytest.raises(ValueError, match="frame operator"):
                                make_gabor_system(w, hop, bins, n)
                        else:
                            make_gabor_system(w, hop, bins, n)
        assert seen[True] > 100 and seen[False] > 100, seen

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_window_scale_does_not_decide_coverage(self, scale, recwarn):
        # the window's squares overflow to inf or underflow to 0; the fold
        # is of the squares over the peak's square, so neither the check nor
        # the closed-form synthesis warns or rejects, and the system is exact
        sys_ = make_gabor_system(scale * hann_window(16), 8, 32, 128)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        assert np.linalg.norm(istft(sys_, stft(sys_, x)) - x) <= 1e-12 * np.linalg.norm(x)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_long_signal_with_unit_hop_builds_fast(self):
        # one np.roll per frame would take minutes here; the fold is linear
        start = time.perf_counter()
        sys_ = make_gabor_system(hann_window(4), hop=1, bins=4, signal_len=10**6)
        assert time.perf_counter() - start < 1.0
        assert sys_.frames == 10**6


class TestAtom:
    def test_zero_shift_zero_bin_is_padded_window(self):
        sys_ = benchmark_system()
        a = atom(sys_, 0, 0)
        expected = np.zeros(128, dtype=complex)
        expected[:16] = sys_.window
        assert np.allclose(a, expected)

    def test_norm_equals_window_norm(self):
        sys_ = benchmark_system()
        rng = np.random.default_rng(1)
        wnorm = np.linalg.norm(sys_.window)
        for _ in range(10):
            t = int(rng.integers(sys_.frames))
            nu = int(rng.integers(sys_.bins))
            assert np.linalg.norm(atom(sys_, t, nu)) == pytest.approx(wnorm, rel=1e-12)

    def test_frame_shift_is_circular(self):
        sys_ = benchmark_system()
        shifted = np.roll(atom(sys_, 0, 0), sys_.hop)
        assert np.allclose(atom(sys_, 1, 0), shifted, atol=1e-15)

    def test_out_of_range_indices(self):
        sys_ = benchmark_system()
        with pytest.raises(IndexError):
            atom(sys_, sys_.frames, 0)
        with pytest.raises(IndexError):
            atom(sys_, 0, -1)


class TestStft:
    def test_impulse_signal(self):
        sys_ = benchmark_system()
        n0 = 37
        x = np.zeros(128, dtype=complex)
        x[n0] = 1.0
        got = stft(sys_, x)
        w_full = np.zeros(128)
        w_full[:16] = sys_.window
        for t in range(sys_.frames):
            for nu in range(sys_.bins):
                expected = np.roll(w_full, t * sys_.hop)[n0] * np.exp(
                    -2j * np.pi * nu * n0 / sys_.bins
                )
                assert got[nu, t] == pytest.approx(expected, abs=1e-12)

    def test_zero_signal(self):
        sys_ = benchmark_system()
        assert np.all(stft(sys_, np.zeros(128)) == 0)

    def test_matches_naive_inner_products(self):
        sys_ = benchmark_system()
        x = random_signal(np.random.default_rng(2), 128)
        got = stft(sys_, x)
        want = naive_stft(sys_, x)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            stft(benchmark_system(), np.zeros(100))


class TestIstft:
    def test_round_trip(self):
        sys_ = benchmark_system()
        x = random_signal(np.random.default_rng(3), 128)
        assert np.linalg.norm(istft(sys_, stft(sys_, x)) - x) <= 1e-10 * np.linalg.norm(x)

    def test_zero_coefficients(self):
        sys_ = benchmark_system()
        assert np.all(istft(sys_, np.zeros((32, 16))) == 0)

    def test_least_squares_optimality(self):
        # synthesis of an infeasible grid beats any consistent competitor
        sys_ = benchmark_system()
        rng = np.random.default_rng(4)
        C = rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16))
        residual = np.linalg.norm(stft(sys_, istft(sys_, C)) - C)
        for _ in range(3):
            competitor = stft(sys_, random_signal(rng, 128))
            assert residual <= np.linalg.norm(competitor - C) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            istft(benchmark_system(), np.zeros((16, 32)))


class TestAtomMatrix:
    def test_benchmark_shape(self):
        assert atom_matrix(benchmark_system()).shape == (512, 128)

    def test_application_matches_stft(self):
        sys_ = benchmark_system()
        x = random_signal(np.random.default_rng(5), 128)
        flat = atom_matrix(sys_) @ x
        assert np.allclose(flat, flatten_grid(stft(sys_, x)), rtol=1e-12, atol=1e-14)

    def test_pseudo_inverse_identity(self):
        sys_ = benchmark_system()
        eye = synthesis_matrix(sys_) @ atom_matrix(sys_)
        assert np.linalg.norm(eye - np.eye(128)) <= 1e-9

    def test_unit_window_rows_have_unit_modulus(self):
        sys_ = make_gabor_system(np.array([1.0]), hop=1, bins=1, signal_len=4)
        mat = atom_matrix(sys_)
        assert mat.shape == (4, 4)
        assert np.allclose(np.abs(mat[np.abs(mat) > 0]), 1.0)


class TestConsistencyProjection:
    def test_fixed_point_on_consistent_grid(self):
        sys_ = benchmark_system()
        C = stft(sys_, random_signal(np.random.default_rng(6), 128))
        assert np.allclose(consistency_projection(sys_, C), C, atol=1e-10)

    def test_idempotent(self):
        sys_ = benchmark_system()
        rng = np.random.default_rng(7)
        C = rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16))
        once = consistency_projection(sys_, C)
        twice = consistency_projection(sys_, once)
        assert np.allclose(twice, once, atol=1e-10)

    def test_zero_grid(self):
        sys_ = benchmark_system()
        assert np.all(consistency_projection(sys_, np.zeros((32, 16))) == 0)

    def test_linear_and_self_adjoint(self):
        sys_ = benchmark_system()
        rng = np.random.default_rng(8)
        A = rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16))
        B = rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16))
        pa = consistency_projection(sys_, A)
        pb = consistency_projection(sys_, B)
        combo = consistency_projection(sys_, 2.0 * A + 0.5j * B)
        assert np.allclose(combo, 2.0 * pa + 0.5j * pb, atol=1e-9)
        lhs = np.vdot(flatten_grid(pa), flatten_grid(B))
        rhs = np.vdot(flatten_grid(A), flatten_grid(pb))
        assert lhs == pytest.approx(rhs, abs=1e-9)


# (window, hop, bins, n): frames that wrap with a window no multiple of the
# hop, bins that divide nothing (56 % 20 = 16 keeps the frame operator
# diagonal), and a window as long as the signal
OFF_BENCHMARK = [(6, 4, 10, 48), (16, 8, 20, 56), (8, 4, 8, 8)]


def geometry_system(geometry):
    if geometry is None:
        return benchmark_system()
    width, hop, bins, n = geometry
    return make_gabor_system(hann_window(width), hop=hop, bins=bins, signal_len=n)


GEOMETRIES = pytest.mark.parametrize(
    "geometry", [None, *OFF_BENCHMARK], ids=["benchmark", "w6h4b10n48", "w16h8b20n56", "w8h4b8n8"]
)


@GEOMETRIES
class TestFrameAnalysis:
    def test_atoms_hold_every_nonzero_of_atom_matrix(self, geometry):
        sys_ = geometry_system(geometry)
        support, atoms = frame_atoms(sys_)
        dense = np.zeros((sys_.frames, sys_.bins, sys_.signal_len), dtype=complex)
        np.put_along_axis(dense, support[:, None, :], atoms, axis=2)
        assert np.array_equal(dense.reshape(sys_.n_cells, sys_.signal_len), atom_matrix(sys_))

    def test_matches_atom_matrix(self, geometry):
        sys_ = geometry_system(geometry)
        x = random_signal(np.random.default_rng(12), sys_.signal_len)
        dense = atom_matrix(sys_) @ x
        assert np.linalg.norm(frame_analysis(sys_, x) - dense) <= 1e-13 * np.linalg.norm(dense)

    def test_length_mismatch(self, geometry):
        # frame_analysis reads only the window samples, so a longer signal
        # would pass its gather unnoticed
        sys_ = geometry_system(geometry)
        for length in (sys_.signal_len - 1, sys_.signal_len + 1):
            with pytest.raises(ValueError, match="shape"):
                frame_analysis(sys_, np.zeros(length))

    def test_consistency_projection_matches_range_projector(self, geometry):
        sys_ = geometry_system(geometry)
        rng = np.random.default_rng(13)
        shape = (sys_.bins, sys_.frames)
        C = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dense = range_projector(sys_) @ flatten_grid(C)
        got = flatten_grid(consistency_projection(sys_, C))
        assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense)


@GEOMETRIES
class TestClosedFormSynthesis:
    def test_round_trip(self, geometry):
        sys_ = geometry_system(geometry)
        x = random_signal(np.random.default_rng(15), sys_.signal_len)
        assert np.linalg.norm(istft(sys_, stft(sys_, x)) - x) <= 1e-13 * np.linalg.norm(x)

    def test_synthesis_inverts_analysis(self, geometry):
        sys_ = geometry_system(geometry)
        eye = synthesis_matrix(sys_) @ atom_matrix(sys_)
        assert np.max(np.abs(eye - np.eye(sys_.signal_len))) <= 1e-12

    def test_matches_pseudo_inverse(self, geometry):
        # the SVD pseudo-inverse is the reference for both cached operators
        sys_ = geometry_system(geometry)
        M = atom_matrix(sys_)
        pinv = np.linalg.pinv(M)
        S = synthesis_matrix(sys_)
        assert S.flags.c_contiguous
        assert np.max(np.abs(S - pinv)) <= 1e-12 * np.max(np.abs(pinv))
        P = M @ pinv
        assert np.max(np.abs(range_projector(sys_) - P)) <= 1e-12 * np.max(np.abs(P))


class TestFrameProperties:
    def test_round_trip_error_floor(self):
        sys_ = benchmark_system()
        rng = np.random.default_rng(9)
        for _ in range(5):
            x = random_signal(rng, 128)
            assert error_db(x, istft(sys_, stft(sys_, x))).e_db <= -200.0

    def test_energy_identity(self):
        sys_ = benchmark_system()
        rng = np.random.default_rng(10)
        M = atom_matrix(sys_)
        gram = M.conj().T @ M
        for _ in range(5):
            x = random_signal(rng, 128)
            lhs = np.linalg.norm(flatten_grid(stft(sys_, x))) ** 2
            rhs = np.vdot(x, gram @ x).real
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_flatten_unflatten_bijection(self):
        sys_ = benchmark_system()
        rng = np.random.default_rng(11)
        C = rng.standard_normal((32, 16))
        assert np.array_equal(unflatten_grid(sys_, flatten_grid(C)), C)
        flat = flatten_grid(C)
        # canonical ordering: k = t * bins + nu
        assert flat[3 * 32 + 7] == C[7, 3]

    def test_projector_is_hermitian(self):
        proj = range_projector(benchmark_system())
        # exactly, not just to rounding: phase_cost_matrix's reduced cost
        # inherits its Hermitian symmetry from P
        assert np.array_equal(proj, proj.conj().T)
