import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import multischmidt as ms
from conftest import brute_partial_trace
from multischmidt.core import _svd, local_weights, weight_rank


def ket(label, dims=(2, 2)):
    return ms.basis_state(ms.DimensionProfile(dims), tuple(int(c) for c in label))


class TestDomainTypes:
    def test_profile_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            ms.DimensionProfile((2, 0))
        with pytest.raises(ValueError):
            ms.DimensionProfile(())

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ms.SubsystemSet(()),
            lambda: ms.SubsystemSet((2, 2)),
            lambda: ms.SubsystemSet((0,)),
            lambda: ms.SubsystemSet((1, 2)).complement(2),
        ],
        ids=["empty", "repeated", "zero", "complement-of-all"],
    )
    def test_subsystem_rejects_bad_indices(self, make):
        with pytest.raises(ValueError):
            make()

    def test_subsystem_of_sorts_and_deduplicates(self):
        sub = ms.SubsystemSet.of([3, 1, 3])
        assert sub == ms.SubsystemSet((1, 3))
        assert list(sub) == [1, 3]

    @given(st.integers(2, 7), st.data())
    def test_complement_is_involution(self, m, data):
        size = data.draw(st.integers(1, m - 1))
        indices = tuple(sorted(data.draw(
            st.sets(st.integers(1, m), min_size=size, max_size=size))))
        sub = ms.SubsystemSet(indices)
        assert sub.complement(m).complement(m) == sub

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda prof: ms.PureState(prof, np.array([1.0, 1.0, 0.0, 0.0])), "norm"),
            (lambda prof: ms.PureState(prof, np.array([1.0, 0.0, 0.0])), "length"),
            (lambda prof: ms.normalized_state(prof, np.zeros(4)), "zero vector"),
            (lambda prof: ms.basis_state(prof, (0,)), "one label per party"),
            (lambda prof: ms.basis_state(prof, (0, 2)), "out of range"),
        ],
        ids=["unnormalized", "length-mismatch", "zero-vector", "label-count", "label-range"],
    )
    def test_pure_state_validation(self, make, message):
        with pytest.raises(ValueError, match=message):
            make(ms.DimensionProfile((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_input_rejected(self, bad):
        prof = ms.DimensionProfile((2, 2))
        amps = np.array([1.0, 0.0, 0.0, bad], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            ms.PureState(prof, amps)
        with pytest.raises(ValueError, match="finite"):
            ms.normalized_state(prof, amps)
        mat = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        mat[3, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            ms.DensityMatrix(prof, mat)

    def test_tensor_has_one_axis_per_party_party_one_slowest(self):
        st_ = ms.random_pure(ms.DimensionProfile((2, 3, 4)), 0)
        tensor = st_.tensor()
        assert tensor.shape == (2, 3, 4)
        assert tensor[1, 2, 3] == st_.amplitudes[1 * 12 + 2 * 4 + 3]

    def test_pure_state_amplitudes_are_read_only(self):
        st_ = ms.w_state(3)
        with pytest.raises(ValueError):
            st_.amplitudes[0] = 1.0

    @pytest.mark.parametrize(
        "mat",
        [np.array([[0.5, 1j], [2j, 0.5]]), np.diag([1.5, -0.5]), np.diag([0.7, 0.7]), np.eye(3) / 3],
        ids=["non-hermitian", "negative", "trace", "shape-mismatch"],
    )
    def test_density_matrix_validation(self, mat):
        with pytest.raises(ValueError):
            ms.DensityMatrix(ms.DimensionProfile((2,)), mat)


class TestReduce:
    def test_product_state_reduction(self):
        red = ms.reduce(ket("00"), ms.SubsystemSet((1,)))
        assert np.allclose(red.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_ghz_single_party_is_maximally_mixed(self):
        ghz = ms.ghz_state(3)
        red = ms.reduce(ghz, ms.SubsystemSet((1,)))
        oracle = brute_partial_trace(ghz.amplitudes, ghz.profile.dims, [0])
        assert np.allclose(red.matrix, oracle, atol=1e-12)
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_w3_pair_reduction(self):
        w3 = ms.w_state(3)
        red = ms.reduce(w3, ms.SubsystemSet((2, 3)))
        oracle = brute_partial_trace(w3.amplitudes, w3.profile.dims, [1, 2])
        assert np.allclose(red.matrix, oracle, atol=1e-12)
        psi_plus = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
        expected = np.outer([1, 0, 0, 0], [1, 0, 0, 0]) / 3 + (2 / 3) * np.outer(
            psi_plus, psi_plus
        )
        assert np.allclose(red.matrix, expected, atol=1e-12)

    def test_density_matrix_input_matches_pure_input(self):
        st_ = ms.random_pure(ms.DimensionProfile((2, 3, 2)), 5)
        keep = ms.SubsystemSet((1, 3))
        assert np.allclose(
            ms.reduce(st_, keep).matrix,
            ms.reduce(st_.density(), keep).matrix,
            atol=1e-12,
        )

    def test_out_of_range_party_rejected(self):
        with pytest.raises(ValueError):
            ms.reduce(ms.w_state(3), ms.SubsystemSet((4,)))

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_matches_across_complementary_cuts(self, seed):
        for dims in ((2, 3, 2), (3, 3), (2, 2, 3), (2, 2, 2, 2)):
            prof = ms.DimensionProfile(dims)
            m = len(dims)
            for st_ in (ms.random_pure(prof, seed), ms.random_product(prof, seed)):
                for cut in ms.enumerate_bipartitions(m):
                    red = ms.reduce(st_, cut)
                    ra = ms.numerical_rank(red)
                    assert ra == ms.numerical_rank(ms.reduce(st_, cut.complement(m)))
                    # the unfolding SVD gives the same spectrum and rank
                    w = local_weights(st_.amplitudes, dims, cut)
                    assert weight_rank(w) == ra
                    evals = np.linalg.eigvalsh(red.matrix)[::-1]
                    padded = np.concatenate([w, np.zeros(evals.size - w.size)])
                    assert np.allclose(padded, evals, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_reduction_composes(self, seed):
        st_ = ms.random_pure(ms.DimensionProfile((2, 2, 3)), seed)
        via_two_steps = ms.reduce(
            ms.reduce(st_, ms.SubsystemSet((1, 3))), ms.SubsystemSet((2,))
        )
        direct = ms.reduce(st_, ms.SubsystemSet((3,)))
        assert np.allclose(via_two_steps.matrix, direct.matrix, atol=1e-10)
        assert abs(np.trace(direct.matrix) - 1.0) < 1e-10


class TestRankAndSpectrum:
    @pytest.mark.parametrize(
        "mat, want", [(np.eye(2) / 2, 2), (np.diag([1.0, 0.0]), 1), (np.zeros((2, 2)), 0)]
    )
    def test_trivial_ranks(self, mat, want):
        assert ms.numerical_rank(mat) == want

    def test_w3_reduction_rank(self):
        w3 = ms.w_state(3)
        oracle = brute_partial_trace(w3.amplitudes, w3.profile.dims, [0])
        evals = np.linalg.eigvalsh(oracle)
        assert sorted(np.round(evals, 10)) == [pytest.approx(1 / 3), pytest.approx(2 / 3)]
        assert ms.numerical_rank(ms.reduce(w3, ms.SubsystemSet((1,)))) == 2

    @pytest.mark.parametrize(
        "mat", [np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 3))], ids=["non-hermitian", "non-square"]
    )
    def test_non_hermitian_rejected(self, mat):
        with pytest.raises(ValueError):
            ms.numerical_rank(mat)

    def test_spectrum_descending_and_reconstructs(self):
        w3 = ms.w_state(3)
        red = ms.reduce(w3, ms.SubsystemSet((1,)))
        vals, vecs = ms.spectrum(red)
        assert vals[0] >= vals[1]
        assert np.allclose(vals, [2 / 3, 1 / 3], atol=1e-10)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(recon - red.matrix) <= 1e-8

    def test_spectrum_simple_cases(self):
        vals, _ = ms.spectrum(np.eye(2) / 2)
        assert np.allclose(vals, [0.5, 0.5])
        vals, _ = ms.spectrum(np.diag([1.0, 0.0]))
        assert np.allclose(vals, [1.0, 0.0])

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 4), (2, 2, 2)])
    def test_stacked_weights_and_ranks_equal_single_calls_bitwise(self, dims):
        prof = ms.DimensionProfile(dims)
        states = [ms.random_pure(prof, seed) for seed in range(4)]
        states += [ms.random_product(prof, seed) for seed in range(2)]
        stack = np.stack([s.amplitudes for s in states])
        for cut in ms.enumerate_bipartitions(len(dims)):
            weights = local_weights(stack, dims, cut)
            ranks = weight_rank(weights)
            assert weights.shape[0] == ranks.shape[0] == len(states)
            for st_, row, rank in zip(states, weights, ranks.tolist()):
                single = local_weights(st_.amplitudes, dims, cut)
                assert row.tobytes() == single.tobytes()
                assert rank == weight_rank(single)
                assert isinstance(weight_rank(single), int)
            assert ranks.tolist()[4:] == [1, 1]

    @pytest.mark.parametrize("seed", range(10))
    def test_density_spectrum_sums_to_one(self, seed):
        st_ = ms.random_pure(ms.DimensionProfile((2, 2, 2)), seed)
        red = ms.reduce(st_, ms.SubsystemSet((1, 2)))
        assert abs(float(np.sum(ms.spectrum(red).values)) - 1.0) < 1e-9


def _cached_eigensystem_inputs():
    """Reductions of seeded states, plus public matrices with a 1e-12 anti-Hermitian part."""
    out = []
    for seed in range(4):
        st_ = ms.random_pure(ms.DimensionProfile((2, 3, 2)), seed)
        for keep in ((1,), (1, 2), (2, 3), (1, 3)):
            out.append(ms.reduce(st_, ms.SubsystemSet(keep)))
        out.append(st_.density())
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        herm = g @ g.conj().T
        skew = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        mat = herm / np.trace(herm).real + 1e-12 * (skew - skew.conj().T)
        out.append(ms.DensityMatrix(ms.DimensionProfile((2, 3)), mat))
    return out


class TestCachedEigensystem:
    @pytest.mark.parametrize("k", range(24))
    def test_spectrum_is_bit_identical_to_the_matrix_path(self, k):
        rho = _cached_eigensystem_inputs()[k]
        cached, direct = ms.spectrum(rho), ms.spectrum(rho.matrix)
        for a, b in zip(cached, direct):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_anti_hermitian_input_is_kept_as_given(self):
        rho = _cached_eigensystem_inputs()[5]
        assert float(np.max(np.abs(rho.matrix - rho.matrix.conj().T))) > 0.0

    def test_cached_arrays_are_read_only(self):
        vals, vecs = ms.spectrum(ms.reduce(ms.w_state(3), ms.SubsystemSet((1, 2))))
        with pytest.raises(ValueError):
            vals[0] = 0.0
        with pytest.raises(ValueError):
            vecs[0, 0] = 0.0

    @pytest.mark.parametrize("k", range(24))
    def test_numerical_rank_is_unchanged(self, k):
        rho = _cached_eigensystem_inputs()[k]
        for tol in (1e-8, 1e-3):
            assert ms.numerical_rank(rho, tol) == ms.numerical_rank(rho.matrix, tol)


class TestScaledRoot:
    def test_maximally_mixed_qubit(self):
        rho = ms.DensityMatrix(ms.DimensionProfile((2,)), np.eye(2) / 2)
        vals = np.linalg.eigvalsh(ms.scaled_root(rho))
        assert np.allclose(sorted(vals), [0.5, 0.5], atol=1e-12)

    def test_pure_projector(self):
        rho = ms.DensityMatrix(ms.DimensionProfile((2,)), np.diag([1.0, 0.0]))
        vals = sorted(np.linalg.eigvalsh(ms.scaled_root(rho)))
        assert np.allclose(vals, [0.0, 1 / np.sqrt(2)], atol=1e-12)

    def test_w3_reduction(self):
        red = ms.reduce(ms.w_state(3), ms.SubsystemSet((1,)))
        vals = sorted(np.linalg.eigvalsh(ms.scaled_root(red)), reverse=True)
        assert np.allclose(vals, [1 / np.sqrt(3), 1 / np.sqrt(6)], atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_squares_sum_to_half(self, seed):
        st_ = ms.random_pure(ms.DimensionProfile((2, 3)), seed)
        red = ms.reduce(st_, ms.SubsystemSet((2,)))
        vals = np.linalg.eigvalsh(ms.scaled_root(red))
        assert abs(float(np.sum(vals**2)) - 0.5) < 1e-9


# every shape whose coefficient calls build reductions, plus the closed-form states
BUILDER_STATES = {
    f"Haar{''.join(map(str, dims))}#{seed}": ms.random_pure(ms.DimensionProfile(dims), seed)
    for dims in [(2, 2, 2), (2, 2, 3), (2, 3, 4), (2, 4, 4), (3, 3, 3), (2, 2, 2, 2), (2, 2, 2, 3)]
    for seed in range(4)
} | {"W3": ms.w_state(3), "W4": ms.w_state(4), "GHZ3": ms.ghz_state(3)}


@pytest.mark.parametrize("name", list(BUILDER_STATES))
def test_internal_reductions_equal_reduce_bitwise(name):
    """The unvalidated builder gives reduce's matrix, eigensystem and profile, read-only."""
    from multischmidt.core import _pure_reductions

    state = BUILDER_STATES[name]
    m = state.party_count
    keeps = [ms.SubsystemSet((i,)).complement(m) for i in range(1, m + 1)]
    profiles = [state.profile.restrict(keep) for keep in keeps]
    for keep, rho in zip(keeps, _pure_reductions(state, keeps, profiles)):
        want = ms.reduce(state, keep)
        assert rho.profile == want.profile
        for got, ref in zip((rho.matrix, *rho.eigensystem), (want.matrix, *want.eigensystem)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            assert not got.flags.writeable


def _gaussian(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


SVD_SHAPES = [(2, 2), (2, 4), (4, 2), (3, 8), (8, 3), (4, 4), (7, 7), (3, 81), (81, 3), (5, 3, 4)]


class TestSvdKernel:
    """core._svd against np.linalg.svd; not bitwise, as numpy's and scipy's LAPACK builds may differ."""

    @pytest.mark.parametrize("shape", SVD_SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("full_matrices", [True, False])
    @pytest.mark.parametrize("compute_uv", [True, False])
    @pytest.mark.parametrize("seed", range(2))
    def test_agrees_with_numpy(self, shape, full_matrices, compute_uv, seed):
        a = _gaussian(shape, seed)
        got = _svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
        want = np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
        if not compute_uv:
            got, want = (got,), (want,)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.flags.c_contiguous == w.flags.c_contiguous
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("shape", [(2, 4), (4, 2), (3, 2, 4)], ids=["wide", "tall", "stack"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf], ids=["nan", "inf", "-inf", "infj"])
    @pytest.mark.parametrize("compute_uv", [True, False])
    def test_non_finite_entries_raise(self, shape, bad, compute_uv):
        a = _gaussian(shape, 0)
        a[..., -1, 1] = bad
        with pytest.raises(np.linalg.LinAlgError):
            _svd(a, compute_uv=compute_uv)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 3)], ids=["matrix", "stack"])
    def test_overflowing_finite_operand_returns_as_numpy(self, shape):
        a = np.full(shape, 1e308 + 0j)
        got, want = _svd(a, compute_uv=False), np.linalg.svd(a, compute_uv=False)
        assert np.isinf(got[..., 0]).all()
        np.testing.assert_array_equal(got, want)


def _tol_calls():
    ghz = ms.ghz_state(3)
    rho = ghz.density()
    red = ms.reduce(ghz, ms.SubsystemSet((2, 3)))
    fast = ms.SearchBudget(restarts=4, iters=20, seed=0)
    return {
        "pure_schmidt_number": lambda tol: ms.pure_schmidt_number(ghz, fast, tol),
        "mixed_schmidt_number": lambda tol: ms.mixed_schmidt_number(red, fast, tol),
        "ensemble_search": lambda tol: ms.ensemble_search(red, 1, fast, tol),
        "slocc_rank_check": lambda tol: ms.slocc_rank_check(
            ghz, ms.random_local_unitary(ghz.profile, 0), fast, tol
        ),
        "pure_schmidt_coefficients": lambda tol: ms.pure_schmidt_coefficients(ghz, fast, tol),
        "max_entropy_ensemble_element": lambda tol: ms.max_entropy_ensemble_element(
            red, 1, fast, tol
        ),
        "mixed_generalized_eof": lambda tol: ms.mixed_generalized_eof(red, fast, tol),
        "factorize": lambda tol: ms.factorize(ghz, tol),
        "local_rank_vector": lambda tol: ms.local_rank_vector(ghz, tol),
        "schmidt_decompose": lambda tol: ms.schmidt_decompose(
            ms.bell_state(), ms.SubsystemSet((1,)), tol
        ),
        "numerical_rank": lambda tol: ms.numerical_rank(rho, tol),
        "numerical_rank-array": lambda tol: ms.numerical_rank(rho.matrix, tol),
    }


TOL_CALLS = _tol_calls()


class TestRankTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), 2.0, 1.0, 0.0, -1e-8])
    @pytest.mark.parametrize("name", list(TOL_CALLS))
    def test_tol_outside_the_open_unit_interval_is_rejected(self, name, tol):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            TOL_CALLS[name](tol)
