import numpy as np
import pytest

import multischmidt as ms
from multischmidt.bipartite import PPT_NEG_TOL, _pt_least_eigenvalue
from multischmidt.core import DensityMatrix


def two_qubit_mixture_of_products(seeds, weights):
    prof = ms.DimensionProfile((2, 2))
    mat = np.zeros((4, 4), dtype=complex)
    for s, w in zip(seeds, weights):
        st = ms.random_product(prof, s)
        mat += w * np.outer(st.amplitudes, st.amplitudes.conj())
    return DensityMatrix(prof, mat)


class TestSchmidtDecompose:
    def test_bell_state(self):
        dec = ms.schmidt_decompose(ms.bell_state(), ms.SubsystemSet((1,)))
        assert dec.rank == 2
        assert np.allclose(dec.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_product_state(self):
        st = ms.basis_state(ms.DimensionProfile((2, 2)), (0, 0))
        dec = ms.schmidt_decompose(st, ms.SubsystemSet((1,)))
        assert dec.rank == 1
        assert np.allclose(dec.coefficients, [1.0])

    def test_w3_across_first_party(self):
        w3 = ms.w_state(3)
        # oracle: SVD of the explicit 2x4 coefficient matrix
        mat = w3.amplitudes.reshape(2, 4)
        svals = np.linalg.svd(mat, compute_uv=False)
        assert np.allclose(sorted(svals, reverse=True)[:2],
                           [np.sqrt(2 / 3), np.sqrt(1 / 3)], atol=1e-12)
        dec = ms.schmidt_decompose(w3, ms.SubsystemSet((1,)))
        assert dec.rank == 2
        assert np.allclose(dec.coefficients, [np.sqrt(2 / 3), np.sqrt(1 / 3)], atol=1e-10)

    def test_reconstruction(self):
        st = ms.random_pure(ms.DimensionProfile((2, 3, 2)), 9)
        dec = ms.schmidt_decompose(st, ms.SubsystemSet((1, 3)))
        mat = ms.bipartite.coefficient_matrix(st, ms.SubsystemSet((1, 3)))
        assert np.linalg.norm(dec.reconstruct() - mat) <= 1e-8

    @pytest.mark.parametrize(
        "call",
        [
            lambda cut: ms.schmidt_decompose(ms.bell_state(), cut),
            lambda cut: ms.partial_transpose(ms.bell_state().density(), cut),
        ],
        ids=["schmidt-decompose", "partial-transpose"],
    )
    def test_rejects_full_or_empty_left(self, call):
        with pytest.raises(ValueError):
            call(ms.SubsystemSet((1, 2)))

    @pytest.mark.parametrize("seed", range(50))
    def test_rank_equals_reduction_rank(self, seed):
        st = ms.random_pure(ms.DimensionProfile((2, 3)), seed)
        dec = ms.schmidt_decompose(st, ms.SubsystemSet((1,)))
        assert dec.rank == ms.numerical_rank(ms.reduce(st, ms.SubsystemSet((1,))))


class TestEntropy:
    def test_values(self):
        prof = ms.DimensionProfile((2, 2))
        st = ms.basis_state(prof, (0, 0))
        assert ms.entanglement_entropy(ms.schmidt_decompose(st, ms.SubsystemSet((1,)))) == 0.0
        dec = ms.schmidt_decompose(ms.bell_state(), ms.SubsystemSet((1,)))
        assert ms.entanglement_entropy(dec) == pytest.approx(1.0, abs=1e-12)

    def test_two_thirds_split(self):
        # oracle: direct evaluation of -sum l^2 log2 l^2
        lams = np.array([np.sqrt(2 / 3), np.sqrt(1 / 3)])
        oracle = float(-np.sum(lams**2 * np.log2(lams**2)))
        dec = ms.schmidt_decompose(ms.w_state(3), ms.SubsystemSet((1,)))
        assert ms.entanglement_entropy(dec) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.9183, abs=1e-4)

    @pytest.mark.parametrize("seed", range(30))
    def test_invariant_under_local_unitaries(self, seed):
        prof = ms.DimensionProfile((2, 3))
        st = ms.random_pure(prof, seed)
        e0 = ms.entanglement_entropy(ms.schmidt_decompose(st, ms.SubsystemSet((1,))))
        st_u = ms.apply_local_operators(st, ms.random_local_unitary(prof, seed + 100))
        e1 = ms.entanglement_entropy(ms.schmidt_decompose(st_u, ms.SubsystemSet((1,))))
        assert abs(e0 - e1) < 1e-9


class TestPPT:
    def test_negativity_of_a_bell_state_and_a_product(self):
        first = ms.SubsystemSet((1,))
        bell = ms.bell_state().density()
        assert ms.bipartite.ppt_negativity(bell, first) == pytest.approx(0.5, abs=1e-12)
        product = ms.basis_state(ms.DimensionProfile((2, 2)), (0, 1)).density()
        assert ms.bipartite.ppt_negativity(product, first) == 0.0

    def test_ghz_reduction_is_ppt(self):
        red = ms.reduce(ms.ghz_state(3), ms.SubsystemSet((2, 3)))
        assert not ms.ppt_entangled(red, ms.SubsystemSet((1,)))

    def test_w3_reduction_is_npt(self):
        red = ms.reduce(ms.w_state(3), ms.SubsystemSet((2, 3)))
        # oracle: explicit partial transpose built by reindexing
        mat = red.matrix.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        assert float(np.linalg.eigvalsh(mat)[0]) < -1e-9
        assert ms.ppt_entangled(red, ms.SubsystemSet((1,)))

    def test_maximally_mixed_is_ppt(self):
        rho = ms.DensityMatrix(ms.DimensionProfile((2, 2)), np.eye(4) / 4)
        assert not ms.ppt_entangled(rho, ms.SubsystemSet((1,)))

    def test_decisive_shapes(self):
        rho22 = ms.DensityMatrix(ms.DimensionProfile((2, 2)), np.eye(4) / 4)
        rho23 = ms.DensityMatrix(ms.DimensionProfile((2, 3)), np.eye(6) / 6)
        rho33 = ms.DensityMatrix(ms.DimensionProfile((3, 3)), np.eye(9) / 9)
        assert ms.ppt_decisive(rho22, ms.SubsystemSet((1,)))
        assert ms.ppt_decisive(rho23, ms.SubsystemSet((1,)))
        assert not ms.ppt_decisive(rho33, ms.SubsystemSet((1,)))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("case", range(10))
    def test_product_mixtures_never_flagged(self, dims, case):
        prof = ms.DimensionProfile(dims)
        rng = np.random.default_rng(case)
        n = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(n))
        mat = np.zeros((prof.total_dim,) * 2, dtype=complex)
        for j in range(n):
            st = ms.random_product(prof, 100 * case + j)
            mat += weights[j] * np.outer(st.amplitudes, st.amplitudes.conj())
        rho = DensityMatrix(prof, mat)
        assert not ms.ppt_entangled(rho, ms.SubsystemSet((1,)))


    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (2, 2, 2, 2)])
    def test_stack_matches_each_matrix(self, dims):
        """Leading axes stack matrices of one profile: one least eigenvalue per matrix, bit for bit."""
        prof = ms.DimensionProfile(dims)
        keep = ms.SubsystemSet(tuple(range(1, len(dims) + 1)))
        purified = [ms.random_pure(ms.DimensionProfile(dims + (2,)), seed) for seed in range(4)]
        rhos = [ms.reduce(state, keep) for state in purified]
        rhos.append(DensityMatrix(prof, np.eye(prof.total_dim) / prof.total_dim))
        stack = np.array([rho.matrix for rho in rhos])
        for cut in ms.enumerate_bipartitions(len(dims)):
            pts = ms.partial_transpose(stack, cut, prof)
            lams = _pt_least_eigenvalue(stack, cut, prof)
            assert lams.shape == (len(rhos),)
            for rho, pt, lam in zip(rhos, pts, lams):
                assert np.array_equal(pt, ms.partial_transpose(rho, cut))
                assert lam == _pt_least_eigenvalue(rho, cut)
                assert (lam < -PPT_NEG_TOL) == ms.ppt_entangled(rho, cut)
            flags = lams < -PPT_NEG_TOL
            assert flags.any() and not flags[-1]


class TestMixedBipartiteSchmidtNumber:
    def test_ghz_reduction_exactly_one(self):
        red = ms.reduce(ms.ghz_state(3), ms.SubsystemSet((2, 3)))
        res = ms.mixed_bipartite_schmidt_number(red)
        assert (res.value_lo, res.value_hi, res.exact) == (1, 1, True)
        assert res.witness_ensemble is not None

    def test_w3_reduction_exactly_two(self):
        red = ms.reduce(ms.w_state(3), ms.SubsystemSet((2, 3)))
        res = ms.mixed_bipartite_schmidt_number(red)
        assert (res.value_lo, res.value_hi, res.exact) == (2, 2, True)

    def test_pure_entangled_projector(self):
        st = ms.random_pure(ms.DimensionProfile((2, 2)), 17)
        res = ms.mixed_bipartite_schmidt_number(st.density())
        assert (res.value_lo, res.value_hi) == (2, 2)

    def test_rejects_multipartite_profile(self):
        red = ms.reduce(ms.ghz_state(4), ms.SubsystemSet((2, 3, 4)))
        with pytest.raises(ValueError):
            ms.mixed_bipartite_schmidt_number(red)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("seed", range(10))
    def test_pure_projector_matches_schmidt_rank(self, dims, seed):
        st = ms.random_pure(ms.DimensionProfile(dims), seed)
        rank = ms.schmidt_decompose(st, ms.SubsystemSet((1,))).rank
        res = ms.mixed_bipartite_schmidt_number(st.density())
        assert res.exact and res.value_hi == rank
