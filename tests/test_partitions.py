import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import multischmidt as ms
from conftest import near_bell_times_zero
from multischmidt.core import PureState


class TestEnumerateBipartitions:
    def test_small_cases(self):
        assert [b.indices for b in ms.enumerate_bipartitions(2)] == [(1,)]
        assert [b.indices for b in ms.enumerate_bipartitions(3)] == [(1,), (1, 2), (1, 3)]
        assert len(ms.enumerate_bipartitions(4)) == 7

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            ms.enumerate_bipartitions(1)

    @given(st.integers(2, 8))
    def test_count_and_canonical_form(self, m):
        cuts = ms.enumerate_bipartitions(m)
        assert len(cuts) == 2 ** (m - 1) - 1
        assert all(1 in c for c in cuts)
        assert len({c.indices for c in cuts}) == len(cuts)
        sizes = [len(c) for c in cuts]
        assert sizes == sorted(sizes)


class TestFactorize:
    def test_basis_state_fully_separable(self):
        st_ = ms.basis_state(ms.qubits(3), (0, 0, 0))
        structure = ms.factorize(st_)
        assert structure.label == ms.FULLY_SEPARABLE
        assert all(len(f) == 1 for f in structure.factors)
        assert not any(structure.entangled)

    def test_zero_times_bell(self):
        amps = np.kron([1.0, 0.0], ms.bell_state().amplitudes)
        structure = ms.factorize(PureState(ms.qubits(3), amps))
        assert structure.label == "1|23"
        assert [f.indices for f in structure.factors] == [(1,), (2, 3)]
        assert structure.entangled == (False, True)
        pair = structure.factor_states[1]
        assert abs(abs(np.vdot(pair.amplitudes, ms.bell_state().amplitudes)) - 1.0) < 1e-9

    @pytest.mark.parametrize("tol", [1e-6, 1e-4])
    def test_loose_tol_splits_a_near_product_state(self, tol):
        # the discarded tail (~1e-7) is below tol but above 1e-8 of the weight
        noisy = near_bell_times_zero()
        assert ms.factorize(noisy, tol).label == "12|3"
        assert ms.factorize(noisy).label == ms.GENUINELY_ENTANGLED
        res = ms.pure_schmidt_number(noisy, tol=tol)
        assert (res.value_lo, res.value_hi) == (2, 2)

    def test_w3_genuinely_entangled(self):
        structure = ms.factorize(ms.w_state(3))
        assert structure.label == ms.GENUINELY_ENTANGLED
        assert structure.is_genuinely_entangled

    def test_two_entangled_pairs(self):
        pair_a = ms.random_pure(ms.DimensionProfile((2, 2)), 21)
        pair_b = ms.random_pure(ms.DimensionProfile((2, 2)), 22)
        amps = np.kron(pair_a.amplitudes, pair_b.amplitudes)
        structure = ms.factorize(PureState(ms.qubits(4), amps))
        assert structure.label == "12|34"
        assert [f.indices for f in structure.factors] == [(1, 2), (3, 4)]

    def test_factor_states_rebuild_the_state(self):
        pair = ms.random_pure(ms.DimensionProfile((2, 2)), 31)
        qutrit = ms.random_pure(ms.DimensionProfile((3,)), 32)
        block = ms.random_pure(ms.DimensionProfile((2, 3)), 33)
        amps = np.kron(np.kron(pair.amplitudes, qutrit.amplitudes), block.amplitudes)
        structure = ms.factorize(PureState(ms.DimensionProfile((2, 2, 3, 2, 3)), amps))
        assert [f.indices for f in structure.factors] == [(1, 2), (3,), (4, 5)]
        rebuilt = np.ones(1, dtype=complex)
        for fs in structure.factor_states:
            rebuilt = np.kron(rebuilt, fs.amplitudes)
        phase = np.vdot(rebuilt, amps)
        assert abs(abs(phase) - 1.0) < 1e-10
        assert np.allclose(phase * rebuilt, amps, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(1000))
    def test_invariant_under_local_unitaries(self, seed):
        prof = ms.qubits(3)
        st_ = ms.random_pure(prof, seed)
        factors = [f.indices for f in ms.factorize(st_).factors]
        rotated = ms.apply_local_operators(st_, ms.random_local_unitary(prof, seed + 7777))
        assert [f.indices for f in ms.factorize(rotated).factors] == factors

    def test_structure_keeps_no_separate_cut_weights(self):
        # the cut spectra live only in the cut record, beside their SVD factors
        fields = {f.name for f in dataclasses.fields(ms.PartitionStructure)}
        assert "cut_weights" not in fields
        structure = ms.factorize(ms.w_state(3))
        for _, s, _, weights, _ in structure._cut_factors.values():
            assert np.array_equal(weights, s**2)

    @pytest.mark.parametrize("seed", range(50))
    def test_products_split_to_singletons(self, seed):
        st_ = ms.random_product(ms.DimensionProfile((2, 3, 2)), seed)
        structure = ms.factorize(st_)
        assert structure.label == ms.FULLY_SEPARABLE


class TestLocalRankVector:
    def test_paper_pair(self):
        assert ms.local_rank_vector(ms.w_state(3)) == (2, 2, 2)
        assert ms.local_rank_vector(ms.ghz_state(3)) == (2, 2, 2)

    def test_product(self):
        assert ms.local_rank_vector(ms.basis_state(ms.qubits(3), (0, 0, 0))) == (1, 1, 1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_single_party(self, d):
        st_ = ms.random_pure(ms.DimensionProfile((d,)), 0)
        assert ms.local_rank_vector(st_) == (1,)
        assert ms.factorize(st_).is_fully_separable

    @pytest.mark.parametrize("seed", range(20))
    def test_entries_bounded(self, seed):
        prof = ms.DimensionProfile((2, 3, 4))
        st_ = ms.random_pure(prof, seed)
        ranks = ms.local_rank_vector(st_)
        for i, r in enumerate(ranks):
            rest = prof.total_dim // prof.dims[i]
            assert 1 <= r <= min(prof.dims[i], rest)
