import tracemalloc

import numpy as np
import pytest

import multischmidt as ms
from multischmidt.seeding import stream


class TestWStates:
    def test_w3_amplitudes(self):
        w3 = ms.w_state(3)
        nz = {i: a for i, a in enumerate(w3.amplitudes) if abs(a) > 1e-12}
        assert set(nz) == {0b001, 0b010, 0b100}
        assert all(abs(a - 1 / np.sqrt(3)) < 1e-12 for a in nz.values())

    def test_w2_is_psi_plus(self):
        assert np.allclose(ms.w_state(2).amplitudes, [0, 1, 1, 0] / np.sqrt(2))

    def test_w4_four_amplitudes_half(self):
        w4 = ms.w_state(4)
        nz = [a for a in w4.amplitudes if abs(a) > 1e-12]
        assert len(nz) == 4 and all(abs(a - 0.5) < 1e-12 for a in nz)

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            ms.w_state(1)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_reductions_are_entangled(self, m):
        # every (m-1)-party reduction of the W family detects entanglement
        # across each of its bipartitions
        w = ms.w_state(m)
        for i in range(1, m + 1):
            red = ms.reduce(w, ms.SubsystemSet((i,)).complement(m))
            for cut in ms.enumerate_bipartitions(m - 1):
                assert ms.ppt_entangled(red, cut)


class TestGhzStates:
    def test_ghz3(self):
        g = ms.ghz_state(3)
        assert abs(g.amplitudes[0] - 1 / np.sqrt(2)) < 1e-12
        assert abs(g.amplitudes[7] - 1 / np.sqrt(2)) < 1e-12
        assert np.count_nonzero(np.abs(g.amplitudes) > 1e-12) == 2

    def test_ghz2_is_bell(self):
        assert np.allclose(ms.ghz_state(2).amplitudes, [1, 0, 0, 1] / np.sqrt(2))

    def test_qutrit_ghz(self):
        g = ms.ghz_state(3, 3)
        nz = np.flatnonzero(np.abs(g.amplitudes) > 1e-12)
        assert list(nz) == [0, 13, 26]  # |000>, |111>, |222> in base 3
        assert np.allclose(g.amplitudes[nz], 1 / np.sqrt(3))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ms.ghz_state(1)
        with pytest.raises(ValueError):
            ms.ghz_state(3, 1)

    @pytest.mark.parametrize("m,d", [(3, 2), (3, 3), (4, 2)])
    def test_local_reductions_flat(self, m, d):
        g = ms.ghz_state(m, d)
        for i in range(1, m + 1):
            red = ms.reduce(g, ms.SubsystemSet((i,)))
            off = red.matrix - np.diag(np.diag(red.matrix))
            assert np.max(np.abs(off)) < 1e-12
            assert np.allclose(np.diag(red.matrix).real, 1 / d)


class TestAcinStates:
    def test_ghz_point(self):
        p = ms.AcinParameters((1 / np.sqrt(2), 0, 0, 0, 1 / np.sqrt(2)))
        st = ms.acin_state(p)
        assert np.allclose(st.amplitudes, ms.ghz_state(3).amplitudes, atol=1e-12)

    def test_basis_point(self):
        st = ms.acin_state(ms.AcinParameters((1, 0, 0, 0, 0)))
        assert abs(st.amplitudes[0] - 1.0) < 1e-12

    def test_three_equal_middle_amplitudes(self):
        v = 1 / np.sqrt(3)
        st = ms.acin_state(ms.AcinParameters((0, v, v, v, 0)))
        # first party splits off: rank of its reduction is 1
        assert ms.numerical_rank(ms.reduce(st, ms.SubsystemSet((1,)))) == 1
        assert ms.pure_schmidt_number(st).value == 2

    @pytest.mark.parametrize(
        "lams, theta, message",
        [
            ((1, 1, 0, 0, 0), 0.0, "sum to 1"),
            ((1, 0, 0, 0, 0), 4.0, "theta"),
            ((-0.6, 0.8, 0, 0, 0), 0.0, "nonnegative"),
        ],
        ids=["norm", "theta", "negative"],
    )
    def test_validation(self, lams, theta, message):
        with pytest.raises(ValueError, match=message):
            ms.AcinParameters(lams, theta)


class TestRandomGenerators:
    def test_determinism(self):
        prof = ms.DimensionProfile((2, 3, 2))
        a = ms.random_pure(prof, 9)
        b = ms.random_pure(prof, 9)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        c = ms.random_pure(prof, 10)
        assert not np.allclose(a.amplitudes, c.amplitudes)

    def test_all_constructors_normalized(self):
        prof = ms.DimensionProfile((2, 2, 3))
        for st in (
            ms.random_pure(prof, 0),
            ms.random_product(prof, 0),
            ms.w_state(4),
            ms.ghz_state(3, 3),
        ):
            assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_random_bipartite_has_full_rank(self, seed):
        st = ms.random_pure(ms.DimensionProfile((2, 2)), seed)
        assert ms.schmidt_decompose(st, ms.SubsystemSet((1,))).rank == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_random_product_factorizes_to_singletons(self, seed):
        st = ms.random_product(ms.DimensionProfile((2, 2, 2, 3)), seed)
        assert ms.factorize(st).label == ms.FULLY_SEPARABLE

    def test_unitaries_are_unitary(self):
        ops = ms.random_local_unitary(ms.DimensionProfile((2, 3)), 4)
        for op in ops:
            assert np.allclose(op @ op.conj().T, np.eye(op.shape[0]), atol=1e-12)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: ms.random_local_invertible(ms.qubits(2), 0, max_condition=0.5), RuntimeError),
            (lambda: stream(0, 1.5), TypeError),
        ],
        ids=["condition-below-one", "float-tag"],
    )
    def test_rejects_what_it_cannot_draw(self, call, error):
        with pytest.raises(error):
            call()

    def test_invertibles_are_well_conditioned(self):
        ops = ms.random_local_invertible(ms.DimensionProfile((2, 2, 2)), 4)
        for op in ops:
            assert np.linalg.cond(op) <= 30.0


class TestApplyLocalOperators:
    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 3), (3, 2, 2, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_kronecker_product(self, dims, seed):
        prof = ms.DimensionProfile(dims)
        st = ms.random_pure(prof, seed)
        ops = ms.random_local_invertible(prof, seed + 50)
        full = ops[0]
        for op in ops[1:]:
            full = np.kron(full, op)
        want = full @ st.amplitudes
        want /= np.linalg.norm(want)
        got = ms.apply_local_operators(st, ops).amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_ten_qubits_never_form_the_full_operator(self):
        prof = ms.qubits(10)
        st = ms.random_pure(prof, 0)
        ops = ms.random_local_invertible(prof, 0)
        tracemalloc.start()
        try:
            ms.apply_local_operators(st, ops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the 1024 x 1024 Kronecker product alone is 16 MB

    @pytest.mark.parametrize(
        "ops, message",
        [
            ([np.eye(2), np.eye(2)], "operator"),
            ([np.eye(2), np.eye(3), np.eye(2)], "operator"),
            ([np.diag([1.0, 0.0])] * 3, "vanished"),  # W_3 has no |000> component
        ],
        ids=["count", "shape", "vanishing"],
    )
    def test_rejects_mismatched_operators(self, ops, message):
        with pytest.raises(ValueError, match=message):
            ms.apply_local_operators(ms.w_state(3), ops)
