import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hyp
from scipy.linalg import eigvals
from scipy.stats import unitary_group

import multischmidt as ms
from conftest import product_mixture
from multischmidt import core, loci, number
from multischmidt.core import DEFAULT_RANK_TOL, DensityMatrix, PureState, local_weights, weight_rank

FAST = ms.SearchBudget(restarts=16, iters=150, seed=0)
# one L-BFGS restart of 30 iterations per target
SHORT = ms.SearchBudget(restarts=8, iters=60, seed=0)


def mixture(states, weights):
    prof = states[0].profile
    mat = np.zeros((prof.total_dim,) * 2, dtype=complex)
    for st, w in zip(states, weights):
        mat += w * np.outer(st.amplitudes, st.amplitudes.conj())
    return DensityMatrix(prof, mat)


def planted_ket(rng, dims, rank):
    """A normalized two-party amplitude vector of the given Schmidt rank."""
    a = rng.normal(size=(dims[0], rank)) + 1j * rng.normal(size=(dims[0], rank))
    b = rng.normal(size=(rank, dims[1])) + 1j * rng.normal(size=(rank, dims[1]))
    vec = (a @ b).reshape(-1)
    return vec / np.linalg.norm(vec)


class TestPureSchmidtNumber:
    @pytest.mark.parametrize(
        "state, want",
        [
            (ms.w_state(3), 4),
            (ms.ghz_state(3), 3),
            (ms.ghz_state(3, 3), 4),
        ],
    )
    def test_paper_examples(self, state, want):
        res = ms.pure_schmidt_number(state)
        assert res.exact and res.value_hi == want

    def test_zero_times_bell(self):
        amps = np.kron([1.0, 0.0], ms.bell_state().amplitudes)
        res = ms.pure_schmidt_number(PureState(ms.qubits(3), amps))
        assert res.exact and res.value_hi == 2
        assert res.branch_trace["rule"] == "single-entangled-factor"

    def test_w4(self):
        res = ms.pure_schmidt_number(ms.w_state(4))
        assert res.exact and res.value_hi == 6

    def test_pair_times_pair_adds(self):
        pair_a = ms.random_pure(ms.DimensionProfile((2, 2)), 1)
        pair_b = ms.random_pure(ms.DimensionProfile((3, 3)), 2)
        amps = np.kron(pair_a.amplitudes, pair_b.amplitudes)
        st = PureState(ms.DimensionProfile((2, 2, 3, 3)), amps)
        ra = ms.pure_schmidt_number(pair_a).value_hi
        rb = ms.pure_schmidt_number(pair_b).value_hi
        res = ms.pure_schmidt_number(st)
        assert res.exact and res.value_hi == ra + rb
        assert res.branch_trace["rule"] == "factor-sum"

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("seed", range(25))
    def test_bipartite_oracle_equivalence(self, dims, seed):
        st = ms.random_pure(ms.DimensionProfile(dims), seed)
        rank = ms.schmidt_decompose(st, ms.SubsystemSet((1,))).rank
        res = ms.pure_schmidt_number(st)
        assert res.exact and res.value_hi == rank

    @pytest.mark.parametrize("seed", range(30))
    def test_fully_separable_iff_value_one(self, seed):
        prof = ms.qubits(3)
        prod = ms.random_product(prof, seed)
        res = ms.pure_schmidt_number(prod)
        assert res.exact and res.value_hi == 1
        assert ms.factorize(prod).label == ms.FULLY_SEPARABLE
        ent = ms.random_pure(prof, seed)
        res2 = ms.pure_schmidt_number(ent)
        is_sep = ms.factorize(ent).label == ms.FULLY_SEPARABLE
        assert (res2.value_hi == 1) == is_sep

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_under_appending_product(self, seed):
        base = ms.random_pure(ms.qubits(2), seed)
        tail = ms.random_product(ms.qubits(2), seed + 50)
        amps = np.kron(base.amplitudes, tail.amplitudes)
        joined = PureState(ms.qubits(4), amps)
        assert (
            ms.pure_schmidt_number(joined).value_hi
            >= ms.pure_schmidt_number(base).value_hi
        )


class TestMixedSchmidtNumber:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3)])
    @pytest.mark.parametrize("s", range(3))
    def test_a_search_that_closes_the_interval_is_labelled_searched_ensemble(self, dims, s):
        rho = product_mixture(dims, s)
        res = ms.mixed_schmidt_number(rho)
        assert (res.value_lo, res.value_hi, res.exact) == (1, 1, True)
        assert res.branch_trace["rule"] == "searched-ensemble"
        assert res.branch_trace["search_attempts"] == [{"target": 1, "found": True}]
        witness = res.witness_ensemble
        assert np.linalg.norm(witness.reconstruct() - rho.matrix) <= number.RECONSTRUCTION_ATOL
        assert all(ms.pure_schmidt_number(st).value == 1 for st in witness.states)

    def test_one_party_state_is_exactly_one(self):
        rho = DensityMatrix(ms.DimensionProfile((3,)), np.eye(3) / 3)
        res = ms.mixed_schmidt_number(rho)
        assert (res.value_lo, res.value_hi, res.exact) == (1, 1, True)
        assert res.branch_trace == {"rule": "single-party"}
        assert res.witness_ensemble is None

    def test_pure_projector_short_circuits(self):
        w3 = ms.w_state(3)
        res = ms.mixed_schmidt_number(w3.density())
        assert res.exact and res.value_hi == 4

    def test_ghz_reduction(self):
        red = ms.reduce(ms.ghz_state(3), ms.SubsystemSet((2, 3)))
        res = ms.mixed_schmidt_number(red)
        assert (res.value_lo, res.value_hi) == (1, 1)
        assert res.witness_ensemble is not None
        weights = sorted(res.witness_ensemble.weights)
        assert np.allclose(weights, [0.5, 0.5], atol=1e-9)

    def test_basis_mixture_is_separable(self):
        prof = ms.qubits(3)
        rho = mixture(
            [ms.basis_state(prof, (0, 0, 0)), ms.basis_state(prof, (1, 1, 1))],
            [0.5, 0.5],
        )
        res = ms.mixed_schmidt_number(rho)
        assert (res.value_lo, res.value_hi, res.exact) == (1, 1, True)

    def test_w4_reduction_certified(self):
        red = ms.reduce(ms.w_state(4), ms.SubsystemSet((2, 3, 4)))
        res = ms.mixed_schmidt_number(red)
        assert (res.value_lo, res.value_hi, res.exact) == (4, 4, True)
        assert res.branch_trace["rule"] == "range-span-certified"

    @pytest.mark.parametrize("seed", range(10))
    def test_product_mixtures_resolve_exactly(self, seed):
        prof = ms.qubits(3)
        rho = mixture(
            [ms.random_product(prof, 2 * seed), ms.random_product(prof, 2 * seed + 1)],
            [0.35, 0.65],
        )
        res = ms.mixed_schmidt_number(rho, FAST)
        assert (res.value_lo, res.value_hi, res.exact) == (1, 1, True)

    @pytest.mark.parametrize("seed", range(5))
    def test_schmidt_rank_two_mixture_is_at_most_two(self, seed):
        rng = np.random.default_rng(seed)
        states = [
            PureState(ms.DimensionProfile((3, 3)), planted_ket(rng, (3, 3), 2)) for _ in range(2)
        ]
        res = ms.mixed_schmidt_number(mixture(states, [0.5, 0.5]))
        assert (res.value_lo, res.value_hi, res.exact) == (2, 2, True)
        for st in res.witness_ensemble.states:
            assert ms.schmidt_decompose(st, ms.SubsystemSet((1,))).rank <= 2

    @pytest.mark.parametrize(
        "dims, ranks",
        [
            (d, (k1, k2))
            for d in [(2, 4), (3, 3), (3, 4), (4, 4), (5, 5)]
            for k1 in (1, 2, 3, 4)
            for k2 in (1, 2, 3, 4)
            if k1 <= k2 <= min(d)
        ]
        + [((12, 12), (3, 5)), ((12, 12), (12, 12))],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_planted_rank_two_mixture_is_exact_and_sound(self, dims, ranks, seed):
        rng = np.random.default_rng([seed, *ranks, *dims])
        prof = ms.DimensionProfile(dims)
        states = [PureState(prof, planted_ket(rng, dims, k)) for k in ranks]
        rho = mixture(states, [0.4, 0.6])
        res = ms.mixed_schmidt_number(rho)
        assert res.exact and res.value_lo <= max(ranks)
        witness = res.witness_ensemble
        assert np.linalg.norm(witness.reconstruct() - rho.matrix) <= number.RECONSTRUCTION_ATOL
        assert all(ms.pure_schmidt_number(st).value_hi <= res.value_hi for st in witness.states)

    @pytest.mark.parametrize("seed", range(5))
    def test_haar_rank_two_mixture_stays_three(self, seed):
        prof = ms.DimensionProfile((3, 3))
        rho = mixture([ms.random_pure(prof, 2 * seed), ms.random_pure(prof, 2 * seed + 1)], [0.5, 0.5])
        res = ms.mixed_schmidt_number(rho)
        assert (res.value_lo, res.value_hi, res.exact) == (3, 3, True)

    def test_bipartite_rank_two_runs_no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a two-party rank-2 state reached a heuristic")

        monkeypatch.setattr(number, "minimize", refuse)
        monkeypatch.setattr(number._Engine, "search_ensemble", refuse)
        rng = np.random.default_rng(7)
        prof = ms.DimensionProfile((3, 4))
        for rank, want in ((2, 2), (3, 3)):
            states = [PureState(prof, planted_ket(rng, (3, 4), rank)) for _ in range(2)]
            res = ms.mixed_schmidt_number(mixture(states, [0.3, 0.7]))
            assert (res.value_lo, res.value_hi, res.exact) == (want, want, True)
            assert "grid" not in res.branch_trace["certificate"]

    def test_qubit_range_lines_run_no_heuristic(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a qubit range line reached a heuristic")

        monkeypatch.setattr(number, "minimize", refuse)
        monkeypatch.setattr(number._Engine, "search_ensemble", refuse)
        for state, want in ((ms.w_state(4), 6), (ms.w_state(5), 8)):
            res = ms.pure_schmidt_number(state)
            assert (res.value_lo, res.value_hi, res.exact) == (want, want, True)
        rng = np.random.default_rng(11)
        states = [lu_ghz(rng), lu_ghz(rng)]
        w = rng.uniform(0.2, 0.8)
        res = ms.mixed_schmidt_number(mixture(states, [w, 1.0 - w]))
        assert (res.value_lo, res.value_hi, res.exact) == (3, 3, True)

    @pytest.mark.parametrize(
        "dims, rank",
        [(d, k) for d in [(2, 4), (4, 2), (2, 5), (2, 6)] for k in range(3, max(d) + 1)],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_qubit_party_product_mixture_runs_no_search(self, dims, rank, seed, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a qubit-party product mixture reached a heuristic")

        monkeypatch.setattr(number, "minimize", refuse)
        monkeypatch.setattr(number._Engine, "search_ensemble", refuse)
        rng = np.random.default_rng([seed, rank, *dims])
        prof = ms.DimensionProfile(dims)
        states = [PureState(prof, planted_ket(rng, dims, 1)) for _ in range(rank)]
        rho = mixture(states, rng.dirichlet(np.ones(rank)))
        res = ms.mixed_schmidt_number(rho)
        assert (res.value_lo, res.value_hi, res.exact) == (1, 1, True)
        assert res.branch_trace["product_route"] == "qubit-pencil-products"
        witness = res.witness_ensemble
        assert np.linalg.norm(witness.reconstruct() - rho.matrix) <= number.RECONSTRUCTION_ATOL
        for st in witness.states:
            assert ms.schmidt_decompose(st, ms.SubsystemSet((1,))).rank == 1

    def test_qutrit_party_line_is_certified_by_its_range_rays(self):
        # W_3 on the qubit levels of a (2,2,3) profile mixed with |000>: a
        # three-party line with a qutrit party
        prof = ms.DimensionProfile((2, 2, 3))
        w3 = sum(ms.basis_state(prof, idx).amplitudes for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
        zero = ms.basis_state(prof, (0, 0, 0))
        rho = mixture([PureState(prof, w3 / np.sqrt(3)), zero], [0.75, 0.25])
        res = ms.mixed_schmidt_number(rho, ms.SearchBudget(restarts=8, iters=20, seed=0))
        assert (res.value_lo, res.value_hi, res.exact) == (4, 4, True)
        assert res.branch_trace["certificate"] == {"certified": True, "level": 3, "range_rays": 1}


def lu_ghz(rng, m=3):
    """sqrt(c)|0..0> + sqrt(1-c)|1..1>, c ~ U(0.3, 0.7), under m Haar unitaries."""
    c = rng.uniform(0.3, 0.7)
    vec = np.zeros(2**m, dtype=complex)
    vec[0], vec[-1] = np.sqrt(c), np.sqrt(1.0 - c)
    op = np.ones((1, 1))
    for _ in range(m):
        op = np.kron(op, unitary_group.rvs(2, random_state=rng))
    return PureState(ms.qubits(m), op @ vec)


def planted_three_qubit(kind, seed):
    """A rank-2 (2,2,2) mixture of two planted states, and the states."""
    prof = ms.qubits(3)
    rng = np.random.default_rng([seed, 222])
    if kind == "product+product":
        states = [ms.random_product(prof, 2 * seed), ms.random_product(prof, 2 * seed + 1)]
    elif kind == "w-class pair":
        states = [
            ms.apply_local_operators(ms.w_state(3), ms.random_local_invertible(prof, 2 * seed + k))
            for k in range(2)
        ]
    else:
        states = [lu_ghz(rng), ms.random_product(prof, seed)]
    w = rng.uniform(0.2, 0.8)
    return mixture(states, [w, 1.0 - w]), states


class TestThreeQubitCertificateSoundness:
    @pytest.mark.parametrize(
        "kind, seed",
        [("product+product", s) for s in range(3)]
        + [("w-class pair", s) for s in range(2)]
        + [("lu-ghz+product", s) for s in range(2)],
    )
    def test_planted_mixture_is_sound(self, kind, seed):
        rho, states = planted_three_qubit(kind, seed)
        res = ms.mixed_schmidt_number(rho)
        assert res.value_lo <= max(ms.pure_schmidt_number(st).value_hi for st in states)
        witness = res.witness_ensemble
        if witness is not None:
            assert np.linalg.norm(witness.reconstruct() - rho.matrix) <= number.RECONSTRUCTION_ATOL

    def test_lu_ghz_mixture_is_at_most_three(self):
        rng = np.random.default_rng(11)
        states = [lu_ghz(rng), lu_ghz(rng)]
        w = rng.uniform(0.2, 0.8)
        assert all(ms.pure_schmidt_number(st).value_hi == 3 for st in states)
        rho = mixture(states, [w, 1.0 - w])
        res = ms.mixed_schmidt_number(rho)
        assert (res.value_lo, res.value_hi, res.exact) == (3, 3, True)
        witness = res.witness_ensemble
        assert np.linalg.norm(witness.reconstruct() - rho.matrix) <= number.RECONSTRUCTION_ATOL
        assert all(ms.pure_schmidt_number(st).value_hi <= 3 for st in witness.states)

    @pytest.mark.parametrize("kind", ["lu-ghz", "slocc-w"])
    @pytest.mark.parametrize("seed", range(3))
    def test_line_through_a_product_state_is_exact(self, kind, seed):
        # S and H vanish at the product state, which the CKW solve must divide
        # out: otherwise its eliminant is singular for every z
        rng = np.random.default_rng([seed, 555])
        states = [planted_element(kind, rng), planted_element("product", rng)]
        res = ms.mixed_schmidt_number(mixture(states, [0.5, 0.5]), FAST)
        assert res.exact and res.value_lo <= PLANTED_VALUE[kind]

    @pytest.mark.parametrize("seed", range(3))
    def test_lu_ghz4_mixture_is_at_most_three(self, seed):
        # no party's slices span a fixed plane on these lines, so the composed
        # bound decides only levels 1 and 2 and the search gets one short try
        rng = np.random.default_rng([seed, 44])
        states = [lu_ghz(rng, 4), lu_ghz(rng, 4)]
        w = rng.uniform(0.2, 0.8)
        res = ms.mixed_schmidt_number(mixture(states, [w, 1.0 - w]), SHORT)
        assert res.value_lo <= 3


PLANTED_VALUE = {"product": 1, "biseparable": 2, "lu-ghz": 3, "slocc-w": 4}


def planted_element(kind, rng):
    """A three-qubit state of the given class; its value is PLANTED_VALUE[kind]."""
    prof = ms.qubits(3)
    seed = int(rng.integers(2**31))
    if kind == "lu-ghz":
        return lu_ghz(rng)
    if kind == "slocc-w":
        return ms.apply_local_operators(ms.w_state(3), ms.random_local_invertible(prof, seed))
    if kind == "biseparable":
        one = ms.random_pure(ms.qubits(1), seed).amplitudes
        pair = ms.random_pure(ms.qubits(2), seed + 1).amplitudes
        tensor = np.moveaxis(np.kron(one, pair).reshape(2, 2, 2), 0, int(rng.integers(3)))
        return PureState(prof, tensor.reshape(-1))
    return ms.random_product(prof, seed)


@given(
    kinds=hyp.tuples(*[hyp.sampled_from(sorted(PLANTED_VALUE))] * 2),
    seed=hyp.integers(0, 2**16),
    w=hyp.floats(0.2, 0.8),
)
def test_planted_three_qubit_mixture_is_exact_and_sound(kinds, seed, w):
    rng = np.random.default_rng([seed, 2222])
    rho = mixture([planted_element(kind, rng) for kind in kinds], [w, 1.0 - w])
    res = ms.mixed_schmidt_number(rho, FAST)
    assert res.exact and res.value_lo <= max(PLANTED_VALUE[kind] for kind in kinds)
    witness = res.witness_ensemble
    assert np.linalg.norm(witness.reconstruct() - rho.matrix) <= number.RECONSTRUCTION_ATOL
    assert all(ms.pure_schmidt_number(st).value_hi <= res.value_hi for st in witness.states)


QUDIT_KINDS = ("product", "biseparable", "lu-ghz", "slocc-w", "haar")
QUDIT_SHAPES = [(2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 3, 3)]


def planted_qudit_element(kind, dims, rng):
    """A three-party state of the given class; GHZ and W sit on the qubit levels."""
    prof = ms.DimensionProfile(dims)
    seed = int(rng.integers(2**31))
    if kind == "product":
        return ms.random_product(prof, seed)
    if kind == "haar":
        return ms.random_pure(prof, seed)
    if kind == "biseparable":
        i = int(rng.integers(3))
        rest = dims[:i] + dims[i + 1 :]
        one = ms.random_pure(ms.DimensionProfile((dims[i],)), seed).amplitudes
        pair = ms.random_pure(ms.DimensionProfile(rest), seed + 1).amplitudes
        tensor = np.moveaxis(np.kron(one, pair).reshape(dims[i], *rest), 0, i)
        return PureState(prof, tensor.reshape(-1))
    base = np.zeros(dims, dtype=complex)
    if kind == "lu-ghz":
        c = rng.uniform(0.3, 0.7)
        base[0, 0, 0], base[1, 1, 1] = np.sqrt(c), np.sqrt(1.0 - c)
        ops = ms.random_local_unitary(prof, seed)
    else:
        base[0, 0, 1] = base[0, 1, 0] = base[1, 0, 0] = 1.0 / np.sqrt(3.0)
        ops = ms.random_local_invertible(prof, seed)
    return ms.apply_local_operators(PureState(prof, base.reshape(-1)), ops)


def planted_qudit_mixture(dims, seed):
    """A rank-2 mixture of two seeded planted elements, and the elements."""
    rng = np.random.default_rng([seed, *dims, 33])
    kinds = [QUDIT_KINDS[k] for k in rng.integers(len(QUDIT_KINDS), size=2)]
    states = [planted_qudit_element(kind, dims, rng) for kind in kinds]
    w = rng.uniform(0.2, 0.8)
    return mixture(states, [w, 1.0 - w]), states


RANK_TWO_FUZZ = {
    **{
        f"{''.join(map(str, dims))}-{k1}{k2}": (dims, (k1, k2), 0)
        for dims in [(2, 4), (3, 3), (3, 4), (4, 4)]
        for k1 in (1, 2, 3, 4)
        for k2 in (1, 2, 3, 4)
        if k1 <= k2 <= min(dims)
    },
    **{
        f"222-{kind}-{seed}": ((2, 2, 2), kind, seed)
        for kind in ("product+product", "w-class pair", "lu-ghz+product")
        for seed in range(2)
    },
    **{f"223-{seed}": ((2, 2, 3), "qudit", seed) for seed in range(8)},
    **{f"2222-lu-ghz-{seed}": ((2, 2, 2, 2), "lu-ghz", seed) for seed in range(3)},
    "2222-product": ((2, 2, 2, 2), "product", 0),
}


def rank_two_fuzz(name):
    """A planted rank-2 mixture: two-party, three-qubit, (2,2,3) or (2,2,2,2)."""
    dims, kind, seed = RANK_TWO_FUZZ[name]
    if len(dims) == 2:
        rng = np.random.default_rng([seed, *kind, *dims])
        prof = ms.DimensionProfile(dims)
        return mixture([PureState(prof, planted_ket(rng, dims, k)) for k in kind], [0.4, 0.6])
    if dims == (2, 2, 2):
        return planted_three_qubit(kind, seed)[0]
    if dims == (2, 2, 3):
        return planted_qudit_mixture(dims, seed)[0]
    if kind == "product":
        return mixture([ms.random_product(ms.qubits(4), j) for j in (0, 1)], [0.35, 0.65])
    rng = np.random.default_rng([seed, 44])
    states = [lu_ghz(rng, 4), lu_ghz(rng, 4)]
    w = rng.uniform(0.2, 0.8)
    return mixture(states, [w, 1.0 - w])


def walk_oracle(rho, budget):
    """(lo, hi, decided) from solving the range line's levels one by one.

    Brute force: from the PPT bound, every level up to min(eigen value - 1,
    top) is solved over engine._range_rays, none skipped and no shortcut to
    the level below the eigen value. The first level that mixes is the value;
    reaching the eigen value decides it too.
    """
    engine = number._Engine(budget, DEFAULT_RANK_TOL)
    w, v = ms.spectrum(rho)
    kept = v[:, w > number.EIGEN_WEIGHT_FLOOR].T
    hi = max(engine.pure_value(PureState(rho.profile, vec)).value_hi for vec in kept)
    if hi == 1:
        return 1, 1, True  # the eigen ensemble
    cuts = number._bipartitions(rho.profile.party_count)
    lo = 2 if any(number.ppt_entangled(rho, c) for c in cuts) else 1
    found = engine._range_rays(rho.profile, v)
    if found is None:
        return lo, hi, lo == hi
    rays, top = found
    for r in range(lo, min(hi, top + 1)):
        if number._solve_mixture(rho, [s for s, val in rays if val <= r]) is not None:
            return r, r, True
        lo = r + 1
    return lo, hi, lo == hi


# NPT rank-2 matrices: their interval and the walk's certificate summary
NPT_LINES = {
    "W4-234": ((4, 4), {"certified": True, "level": 3, "range_rays": 1}),
    "W3+000-223": ((4, 4), {"certified": True, "level": 3, "range_rays": 1}),
    "Haar34-r2": ((3, 3), {"certified": True, "level": 2, "range_rays": 0}),
}


def npt_line(name):
    """(rho, interval, certificate summary) for a name of NPT_LINES."""
    if name == "W4-234":
        rho = ms.reduce(ms.w_state(4), ms.SubsystemSet((2, 3, 4)))
    elif name == "W3+000-223":  # W_3 on the qubit levels of a (2,2,3) profile, mixed with |000>
        prof = ms.DimensionProfile((2, 2, 3))
        w3 = sum(ms.basis_state(prof, idx).amplitudes for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
        rho = mixture([PureState(prof, w3 / np.sqrt(3)), ms.basis_state(prof, (0, 0, 0))], [0.75, 0.25])
    else:
        prof = ms.DimensionProfile((3, 4))
        rho = mixture([ms.random_pure(prof, s) for s in (0, 1)], [0.3, 0.7])
    return (rho, *NPT_LINES[name])


class TestRangeLineWalk:
    """One walk decides a range line's levels, each ray set solved once, products only under PPT."""

    @pytest.mark.parametrize("name", sorted(RANK_TWO_FUZZ))
    def test_walk_matches_the_brute_force_oracle(self, name):
        rho = rank_two_fuzz(name)
        lo, hi, decided = walk_oracle(rho, SHORT)
        res = ms.mixed_schmidt_number(rho, SHORT)
        if not decided:  # the search may still lower hi
            assert res.value_lo == lo and res.value_hi <= hi
            return
        assert (res.value_lo, res.value_hi) == (lo, hi)
        witness = res.witness_ensemble
        assert max(ms.pure_schmidt_number(st).value_hi for st in witness.states) == hi

    @pytest.fixture(params=sorted(NPT_LINES))
    def pinned(self, request):
        return npt_line(request.param)

    def test_no_product_route_after_an_npt_cut(self, pinned, monkeypatch):
        rho, interval, summary = pinned
        routed = []
        real = number._Engine._product_route

        def spy(self, sub, *args):
            routed.append(sub)
            return real(self, sub, *args)

        monkeypatch.setattr(number._Engine, "_product_route", spy)
        res = ms.mixed_schmidt_number(rho, SHORT)
        assert (res.value_lo, res.value_hi) == interval
        assert res.branch_trace["certificate"] == summary
        assert res.branch_trace["npt_cuts"] and "product_route" not in res.branch_trace
        for sub in routed:  # nested reductions may still take the route, but only under PPT
            cuts = number._bipartitions(sub.profile.party_count)
            assert not any(number.ppt_entangled(sub, c) for c in cuts)

    def test_each_ray_set_is_solved_once(self, pinned, monkeypatch):
        rho, interval, summary = pinned
        solved = []
        real = number._solve_mixture

        def spy(sub, states):
            rays = tuple(sorted(s.amplitudes.tobytes() for s in states))
            solved.append(hash((sub.matrix.tobytes(), rays)))
            return real(sub, states)

        monkeypatch.setattr(number, "_solve_mixture", spy)
        res = ms.mixed_schmidt_number(rho, SHORT)
        assert (res.value_lo, res.value_hi) == interval
        assert res.branch_trace["certificate"] == summary
        assert len(set(solved)) == len(solved)


class TestQuditThreePartyLines:
    """Three parties, not all qubits: every rank-2 range takes the exact range rays."""

    @pytest.mark.parametrize(
        "dims, seed",
        [
            pytest.param(d, s, id="".join(map(str, d)) + f"-{s}")
            for d, s in [(d, s) for d in QUDIT_SHAPES for s in range(16)]
            + [((3, 3, 3), 2), ((3, 3, 3), 3)]
        ],
    )
    def test_planted_mixture_is_sound(self, dims, seed):
        rho, states = planted_qudit_mixture(dims, seed)
        res = ms.mixed_schmidt_number(rho)
        assert res.value_lo <= max(ms.pure_schmidt_number(st).value_hi for st in states)
        witness = res.witness_ensemble
        assert np.linalg.norm(witness.reconstruct() - rho.matrix) <= number.RECONSTRUCTION_ATOL

    def test_no_line_reaches_the_grid(self):
        for dims in QUDIT_SHAPES:
            for seed in range(4):
                res = ms.mixed_schmidt_number(planted_qudit_mixture(dims, seed)[0])
                assert "grid" not in res.branch_trace.get("certificate", {})


def wootters_lambdas(rho):
    """Descending square roots of the eigenvalues of R = rho (Y x Y) rho^* (Y x Y)."""
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    ev = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy).real
    return np.sqrt(np.clip(np.sort(ev)[::-1], 0.0, None))


def concurrence_margin(rho):
    """lambda_1 - lambda_2 - lambda_3 - lambda_4 of Wootters' R.

    The concurrence is its positive part, so it is > 0 iff rho is entangled.
    """
    lam = wootters_lambdas(rho)
    return lam[0] - lam[1] - lam[2] - lam[3]


@pytest.mark.parametrize("seed", range(20))
def test_ckw_polynomials_match_wootters_concurrences(seed):
    """S and H at a seeded point of a seeded line satisfy Coffman-Kundu-Wootters.

    For a normalized three-qubit state, sum_i 4 det(rho_i) - 3 tau =
    2 sum_pairs C^2 with tau = 4 |H|. A pair reduction has rank <= 2, so R
    has at most two nonzero eigenvalues and C = lambda_1 - lambda_2.
    """
    rng = np.random.default_rng([seed, 333])
    v1, v2 = (rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2))
    z = complex(rng.normal(), rng.normal())
    sig, h = loci._ckw_polynomials(v1, v2)
    norm2 = np.linalg.norm(v1 + z * v2) ** 2
    s = (z ** np.arange(3)) @ sig @ (np.conj(z) ** np.arange(3)) / norm2**2
    tau = 4.0 * abs(np.polyval(h[::-1], z)) / norm2**2
    state = PureState(ms.qubits(3), (v1 + z * v2) / np.sqrt(norm2))
    c2 = 0.0
    for pair in ((1, 2), (1, 3), (2, 3)):
        lam = wootters_lambdas(ms.reduce(state, ms.SubsystemSet(pair)).matrix)
        c2 += (lam[0] - lam[1]) ** 2
    assert abs(s.imag) <= 1e-12
    assert abs(4.0 * s.real - 3.0 * tau - 2.0 * c2) <= 1e-12


def _locally_rotated(state, seed):
    return ms.apply_local_operators(state, ms.random_local_unitary(state.profile, seed))


CKW_ORACLE_STATES = {
    **{f"Haar222#{seed}": ms.random_pure(ms.qubits(3), seed) for seed in range(8)},
    "W3": ms.w_state(3),
    "GHZ3": ms.ghz_state(3),
    **{f"LU-W3#{seed}": _locally_rotated(ms.w_state(3), seed) for seed in range(3)},
    **{f"LU-GHZ3#{seed}": _locally_rotated(ms.ghz_state(3), seed) for seed in range(3)},
}
# GHZ3 + eps W3: the least squared pair concurrence rises from ~7e-9 to near 4/9,
# through the margin max(CKW_MARGIN, 4 tol) of every tol of the route test
GHZ_PLUS_W = [
    ms.normalized_state(ms.qubits(3), ms.ghz_state(3).amplitudes + eps * ms.w_state(3).amplitudes)
    for eps in np.geomspace(1e-4, 1e2, 25)
]


def _least_pair_concurrence(state, tol):
    weights = [rec.weights for rec in ms.factorize(state, tol)._party_records()]
    return float(np.min(loci._pair_concurrences(state.amplitudes, weights)))


def _outcomes(state, tol):
    """The number's interval and trace, and the coefficients' values and provenance."""
    res = ms.pure_schmidt_number(state, FAST, tol)
    try:
        cs = ms.pure_schmidt_coefficients(state, FAST, tol)
        coeffs = (cs.values, cs.provenance)
    except ms.SearchError as exc:
        coeffs = repr(exc)
    return res.value_lo, res.value_hi, res.branch_trace, coeffs


class TestCkwRoute:
    """A three-qubit state's pair reductions decided from its pair concurrences."""

    @pytest.mark.parametrize("name", list(CKW_ORACLE_STATES))
    def test_pair_concurrences_match_wootters(self, name):
        """The closed form against Wootters' concurrence of each ``reduce``d pair.

        R has rank <= 2 here, so the square roots of its rounding-level
        eigenvalues put errors of ~1e-8 into the oracle's C^2.
        """
        state = CKW_ORACLE_STATES[name]
        weights = [rec.weights for rec in ms.factorize(state)._party_records()]
        got = loci._pair_concurrences(state.amplitudes, weights)
        for i, c2 in enumerate(got, 1):
            lam = wootters_lambdas(ms.reduce(state, ms.SubsystemSet((i,)).complement(3)).matrix)
            assert abs(c2 - max(lam[0] - lam[1] - lam[2] - lam[3], 0.0) ** 2) <= 1e-7

    @pytest.mark.parametrize("tol", [1e-8, 1e-3, 0.1])
    def test_route_agrees_with_the_ladder(self, tol, monkeypatch):
        """Number and coefficients are identical with the closed form and without it."""
        margin = max(loci.CKW_MARGIN, 4.0 * tol)
        least = [_least_pair_concurrence(st, tol) for st in GHZ_PLUS_W]
        assert min(least) <= margin < max(least)  # the family straddles the margin
        states = [ms.random_pure(ms.qubits(3), seed) for seed in range(200)] + GHZ_PLUS_W
        closed = [_outcomes(st, tol) for st in states]
        with monkeypatch.context() as patch:
            patch.setattr(number._Engine, "_ckw_reductions", lambda self, state, records: None)
            ladder = [_outcomes(st, tol) for st in states]
        assert closed == ladder


class TestWoottersOracle:
    """Two-qubit densities: the value is 2 iff Wootters' concurrence is positive.

    Each draw mixes k product vectors perturbed by seeded Gaussian noise of
    random strength, so ranks 3 and 4 include separable and entangled draws.
    Separable rank-2 states sit on the boundary (margin 0) and are skipped.
    """

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(12))
    def test_value_two_iff_concurrence_positive(self, rank, seed):
        rng = np.random.default_rng([seed, rank])

        def ket(n):
            return rng.normal(size=n) + 1j * rng.normal(size=n)

        cols = np.column_stack([np.kron(ket(2), ket(2)) for _ in range(rank)])
        scale = rng.uniform(0.0, 1.0)
        cols = cols + scale * (rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank)))
        mat = cols @ cols.conj().T
        mat = mat / np.trace(mat).real
        assert np.linalg.matrix_rank(mat, 1e-10) == rank
        margin = concurrence_margin(mat)
        if abs(margin) < 1e-6:
            pytest.skip("concurrence too close to 0 to decide")
        res = ms.mixed_schmidt_number(DensityMatrix(ms.qubits(2), mat))
        assert res.exact
        assert (res.value_hi == 2) == (margin > 0)


class TestEnsembleSearch:
    def test_ghz_reduction_product_ensemble(self):
        red = ms.reduce(ms.ghz_state(3), ms.SubsystemSet((2, 3)))
        cand = ms.ensemble_search(red, 1)
        assert cand is not None
        assert np.linalg.norm(cand.reconstruct() - red.matrix) <= 1e-7
        for st in cand.states:
            assert ms.pure_schmidt_number(st).value_hi == 1

    def test_pure_projector_singleton(self):
        st = ms.random_pure(ms.DimensionProfile((2, 2)), 3)
        rank = ms.schmidt_decompose(st, ms.SubsystemSet((1,))).rank
        cand = ms.ensemble_search(st.density(), rank)
        assert cand is not None and len(cand.states) == 1

    def test_w3_reduction_product_impossible(self):
        red = ms.reduce(ms.w_state(3), ms.SubsystemSet((2, 3)))
        assert ms.ensemble_search(red, 1, FAST) is None

    @pytest.mark.parametrize("target", [2, 3])
    def test_target_at_the_eigen_value_takes_the_eigen_ensemble(self, target, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the eigen ensemble already meets the target")

        monkeypatch.setattr(number, "minimize", refuse)
        red = ms.reduce(ms.w_state(3), ms.SubsystemSet((2, 3)))
        cand = ms.ensemble_search(red, target)
        assert cand.weights == pytest.approx((2 / 3, 1 / 3), abs=1e-12)
        assert np.linalg.norm(cand.reconstruct() - red.matrix) <= 1e-15

    def test_rejects_bad_target(self):
        red = ms.reduce(ms.ghz_state(3), ms.SubsystemSet((2, 3)))
        with pytest.raises(ValueError):
            ms.ensemble_search(red, 0)

    def test_no_optimizer_where_the_surrogate_vanishes(self, monkeypatch):
        # three qubits at target 3: no search runs on three parties above target 1
        def refuse(*args, **kwargs):
            raise AssertionError("the ensemble optimizer ran on a vanishing surrogate")

        monkeypatch.setattr(number, "minimize", refuse)
        prof = ms.qubits(3)
        rho = mixture([ms.random_pure(prof, k) for k in range(3)], [0.5, 0.3, 0.2])
        assert ms.ensemble_search(rho, 3, FAST) is None

    @pytest.mark.parametrize("name", ["werner", "haar33", "haar223", "haar222"])
    def test_an_npt_cut_rules_out_target_one_without_search(self, name, monkeypatch):
        # on three or more parties target 2 is a product search too (_element_tail)
        def refuse(*args, **kwargs):
            raise AssertionError("an NPT matrix reached the ensemble optimizer")

        monkeypatch.setattr(number, "minimize", refuse)
        if name == "werner":
            rho = _werner(0.5)
        else:
            dims = {"haar33": (3, 3), "haar223": (2, 2, 3), "haar222": (2, 2, 2)}[name]
            prof = ms.DimensionProfile(dims)
            rho = mixture([ms.random_pure(prof, k) for k in range(3)], [0.5, 0.3, 0.2])
        for target in (1, 2) if rho.party_count >= 3 else (1,):
            assert ms.ensemble_search(rho, target) is None

    def test_a_rank_one_matrix_is_its_only_ensemble(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a rank-one matrix reached the ensemble optimizer")

        monkeypatch.setattr(number, "minimize", refuse)
        assert ms.ensemble_search(ms.w_state(3).density(), 2) is None

    @pytest.mark.parametrize("seed", range(3))
    def test_the_walk_finds_a_schmidt_rank_two_mixture(self, seed, monkeypatch):
        # a (3,3) rank-2 matrix of eigen value 3: the walk's level 2 mixes
        def refuse(*args, **kwargs):
            raise AssertionError("a rank-2 range line reached the ensemble optimizer")

        monkeypatch.setattr(number, "minimize", refuse)
        prof = ms.DimensionProfile((3, 3))
        rng = np.random.default_rng([seed, 33])
        rho = mixture([PureState(prof, planted_ket(rng, (3, 3), 2)) for _ in range(2)], [0.5, 0.5])
        cand = ms.ensemble_search(rho, 2)
        assert np.linalg.norm(cand.reconstruct() - rho.matrix) <= number.RECONSTRUCTION_ATOL
        assert all(ms.pure_schmidt_number(st).value_hi <= 2 for st in cand.states)

    @pytest.mark.parametrize("seed", range(3))
    def test_the_walk_proves_no_target_two_mixture(self, seed, monkeypatch):
        # a (3,3) Haar rank-2 mixture has value 3: the walk certifies level 2 fails
        def refuse(*args, **kwargs):
            raise AssertionError("a rank-2 range line reached the ensemble optimizer")

        monkeypatch.setattr(number, "minimize", refuse)
        prof = ms.DimensionProfile((3, 3))
        rho = mixture([ms.random_pure(prof, 2 * seed + k) for k in range(2)], [0.5, 0.5])
        assert ms.ensemble_search(rho, 2) is None

    def test_target_two_surrogate_is_not_the_product_one_on_two_parties(self):
        # two parties, the only ones searched above target 1: only the weight
        # past the second Schmidt coefficient counts, not the target-1 tail
        dims = (3, 3)
        prof = ms.DimensionProfile(dims)
        rng = np.random.default_rng([len(dims), *dims])
        stack = rng.normal(size=(6, prof.total_dim)) + 1j * rng.normal(size=(6, prof.total_dim))
        two = np.array(number._element_tail(stack, prof, 2))
        one = np.array(number._element_tail(stack, prof, 1))
        assert np.all(one - two > 1e-3)

    def test_the_ladder_routes_each_reduction_once(self, monkeypatch):
        # the three reductions of a rotated qutrit GHZ_3 are 3x3 rank-3 separable
        # mixtures searched at target 1; the search stage repeats no product route
        calls = {"route": 0, "solve": 0}
        real_route, real_solve = number._Engine._product_route, number._solve_mixture

        def route(self, *args):
            calls["route"] += 1
            return real_route(self, *args)

        def solve(*args):
            calls["solve"] += 1
            return real_solve(*args)

        monkeypatch.setattr(number._Engine, "_product_route", route)
        monkeypatch.setattr(number, "_solve_mixture", solve)
        prof = ms.DimensionProfile((3, 3, 3))
        state = ms.apply_local_operators(ms.ghz_state(3, 3), ms.random_local_unitary(prof, 0))
        res = ms.pure_schmidt_number(state)
        assert (res.value_lo, res.value_hi, res.exact) == (4, 4, True)
        assert calls == {"route": 3, "solve": 3}

    @pytest.mark.parametrize("seed", range(5))
    def test_candidates_always_reconstruct(self, seed):
        prof = ms.DimensionProfile((2, 2))
        rho = mixture(
            [ms.random_pure(prof, 3 * seed + k) for k in range(3)],
            [0.5, 0.3, 0.2],
        )
        cand = ms.ensemble_search(rho, 2, FAST)
        assert cand is not None  # every 2x2 pure state has rank <= 2
        assert np.linalg.norm(cand.reconstruct() - rho.matrix) <= 1e-7


def _rank_three_mixture(dims, s):
    """The 0.5 / 0.3 / 0.2 mixture of random_pure seeds 3s, 3s + 1 and 3s + 2 on ``dims``."""
    prof = ms.DimensionProfile(dims)
    return mixture([ms.random_pure(prof, 3 * s + j) for j in range(3)], [0.5, 0.3, 0.2])


def _planted_ghz_223(s):
    """The same mixture of three locally rotated GHZ_3 states on the qubit levels of (2,2,3).

    Each state has value 3, so the mixture has value <= 3.
    """
    prof = ms.DimensionProfile((2, 2, 3))
    ghz = PureState(prof, (np.eye(12)[0] + np.eye(12)[10]) / np.sqrt(2))  # |000> + |111>
    states = [_locally_rotated(ghz, 3 * s + j) for j in range(3)]
    return mixture(states, [0.5, 0.3, 0.2])


def _digest_rank_two_mixture(profile, seed):
    """scripts/digest_outputs.rank_two_mixture: Haar seeds 2S and 2S + 1, seeded weights."""
    weights = np.random.default_rng(seed).uniform(0.2, 1.0, size=2)
    weights /= weights.sum()
    kets = [ms.random_pure(profile, 2 * seed + j).amplitudes for j in range(2)]
    rho = sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets))
    return DensityMatrix(profile, (rho + rho.conj().T) / 2.0)


class TestSearchScope:
    """The search asks for products on any party count and for Schmidt rank <= r on two parties."""

    @pytest.mark.parametrize("name", ["haar223", "haar233", "ghz223"])
    @pytest.mark.parametrize("s", range(3))
    def test_no_search_above_target_one_on_three_parties(self, name, s, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a three-party matrix reached the optimizer above target 1")

        monkeypatch.setattr(number, "minimize", refuse)
        if name == "ghz223":
            rho = _planted_ghz_223(s)
        else:
            rho = _rank_three_mixture({"haar223": (2, 2, 3), "haar233": (2, 3, 3)}[name], s)
        res = ms.mixed_schmidt_number(rho)
        assert (res.value_lo, res.value_hi) == (2, 5)
        assert res.branch_trace["search_attempts"] == []
        assert ms.ensemble_search(rho, 3) is None

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3)])
    def test_a_product_ensemble_meets_every_target_on_three_parties(self, dims):
        # above target 1 ensemble_search asks the product question there
        rho = product_mixture(dims, 0)
        for r in (1, 2, 3):
            cand = ms.ensemble_search(rho, r)
            assert np.linalg.norm(cand.reconstruct() - rho.matrix) <= number.RECONSTRUCTION_ATOL
            assert all(ms.pure_schmidt_number(st).value == 1 for st in cand.states)

    @pytest.mark.parametrize(
        "name, seed",
        [("mix223", s) for s in range(8)]
        + [("mix2222", s) for s in range(4)]
        + [("products223", 0), ("haar33", 0)],
    )
    def test_search_attempts_list_the_searches_that_ran(self, name, seed, monkeypatch):
        # a search ran iff it reached L-BFGS: every budget has a restart
        real_search, real_minimize = number._Engine.search_ensemble, number.minimize
        open_calls, ran = [], []

        def search(engine, rho, target_r):
            open_calls.append(False)
            cand = real_search(engine, rho, target_r)
            if open_calls.pop():
                ran.append((rho.matrix.tobytes(), {"target": target_r, "found": cand is not None}))
            return cand

        def optimizer(*args, **kwargs):
            open_calls[-1] = True
            return real_minimize(*args, **kwargs)

        monkeypatch.setattr(number._Engine, "search_ensemble", search)
        monkeypatch.setattr(number, "minimize", optimizer)
        if name == "products223":
            rho = product_mixture((2, 2, 3), seed)
        elif name == "haar33":
            rho = _rank_three_mixture((3, 3), seed)
        else:
            dims = {"mix223": (2, 2, 3), "mix2222": (2, 2, 2, 2)}[name]
            rho = _digest_rank_two_mixture(ms.DimensionProfile(dims), seed)
        res = ms.mixed_schmidt_number(rho)
        key = rho.matrix.tobytes()
        assert "search_attempts" in res.branch_trace
        assert res.branch_trace["search_attempts"] == [a for k, a in ran if k == key]


class TestSearchBudget:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("restarts", 0),
            ("restarts", -1),
            ("iters", 0),
            ("iters", -5),
            ("restarts", 2.0),
            ("iters", True),
            ("seed", -3),
            ("seed", 2**64),
            ("seed", 1.5),
            ("seed", "1"),
            ("seed", None),
        ],
    )
    def test_rejects_what_is_not_a_count_or_a_64_bit_seed(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ms.SearchBudget(**{field: value})

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)])
    def test_accepts_every_64_bit_seed(self, seed):
        assert ms.SearchBudget(restarts=1, iters=1, seed=seed).seed == seed

    def test_a_replaced_field_is_checked_too(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            dataclasses.replace(ms.DEFAULT_BUDGET, seed=-1)


class TestSloccRankCheck:
    def test_w3_random_invertibles(self):
        ops = ms.random_local_invertible(ms.qubits(3), 5)
        assert ms.slocc_rank_check(ms.w_state(3), ops)

    def test_ghz3_local_unitaries(self):
        ops = ms.random_local_unitary(ms.qubits(3), 6)
        assert ms.slocc_rank_check(ms.ghz_state(3), ops)

    def test_product_state(self):
        ops = ms.random_local_invertible(ms.qubits(3), 7)
        st = ms.basis_state(ms.qubits(3), (0, 0, 0))
        assert ms.slocc_rank_check(st, ops)

    def test_rejects_singular_operator(self):
        """A singular operator, a wrong operator count and a wrong shape are all refused."""
        for ops in (
            [np.eye(2), np.eye(2), np.diag([1.0, 0.0])],
            [np.eye(2), np.eye(2)],
            [np.eye(2), np.eye(2), np.ones((2, 3))],
        ):
            with pytest.raises(ValueError):
                ms.slocc_rank_check(ms.ghz_state(3), ops)


class TestResultInvariants:
    def test_result_validation(self):
        with pytest.raises(ValueError):
            ms.SchmidtNumberResult(2, 1, False, None, {})
        with pytest.raises(ValueError):
            ms.SchmidtNumberResult(1, 1, False, None, {})

    def test_interval_value_raises_when_inexact(self):
        res = ms.SchmidtNumberResult(1, 2, False, None, {})
        with pytest.raises(ValueError):
            _ = res.value

    @pytest.mark.parametrize(
        "weights, states, message",
        [
            ((0.5, 0.5), ("00",), "nonempty and aligned"),
            ((), (), "nonempty and aligned"),
            ((1.5, -0.5), ("00", "11"), "positive"),
            ((0.5, 0.4), ("00", "11"), "sum to 1"),
            ((0.5, 0.5), ("00", "000"), "one profile"),
        ],
        ids=["misaligned", "empty", "non-positive-weight", "weights-off-1", "mixed-profiles"],
    )
    def test_ensemble_candidate_validation(self, weights, states, message):
        basis = [ms.basis_state(ms.qubits(len(s)), tuple(map(int, s))) for s in states]
        with pytest.raises(ValueError, match=message):
            ms.EnsembleCandidate(weights, tuple(basis))


class TestOneSpectralPass:
    """Each unfolding of a pure state is decomposed once; shapes share one stacked SVD."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        real = core._svd

        def spy(a, *args, **kwargs):
            calls.append(np.array(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(core, "_svd", spy)
        return calls

    @pytest.mark.parametrize(
        "state, trace",
        [
            (ms.random_product(ms.DimensionProfile((2, 3)), 4), {"rule": "fully-separable", "partition": "FullySeparable"}),
            (ms.bell_state(), {"rule": "bipartite-rank", "rank": 2}),
            (ms.random_pure(ms.DimensionProfile((3, 4)), 5), {"rule": "bipartite-rank", "rank": 3}),
        ],
    )
    def test_two_party_value_is_one_svd(self, state, trace, svd_calls, monkeypatch):
        def no_factorize(*args, **kwargs):
            raise AssertionError("factorize called on a two-party state")

        monkeypatch.setattr(number, "factorize", no_factorize)
        res = ms.pure_schmidt_number(state)
        assert len(svd_calls) == 1
        assert res.branch_trace == trace

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_haar_state_decomposes_each_unfolding_once(self, dims, seed, svd_calls):
        ms.pure_schmidt_number(ms.random_pure(ms.DimensionProfile(dims), seed))
        # factorize's three cuts; the reductions take no SVD (pair concurrences or PPT)
        assert len(svd_calls) <= 3
        seen = set()
        for op in svd_calls:
            for mat in op.reshape(-1, *op.shape[-2:]):
                wide = mat if mat.shape[0] <= mat.shape[1] else mat.T  # a cut or its complement
                key = (wide.shape, np.ascontiguousarray(wide).tobytes())
                assert key not in seen
                seen.add(key)


    # the PPT tests of the reductions: one eigvalsh per (reduction profile, cut);
    # a Haar three-qubit state's pair concurrences decide its reductions without PPT
    @pytest.mark.parametrize(
        "state, count",
        [
            *((ms.random_pure(ms.DimensionProfile((2, 2, 2)), seed), 0) for seed in range(3)),
            *((ms.random_pure(ms.DimensionProfile((2, 2, 3)), seed), 2) for seed in range(3)),
            (ms.apply_local_operators(ms.ghz_state(3), ms.random_local_unitary(ms.qubits(3), 0)), 1),
        ],
        ids=[*(f"Haar222#{seed}" for seed in range(3)), *(f"Haar223#{seed}" for seed in range(3)), "LU-GHZ3"],
    )
    def test_haar_state_tests_ppt_once_per_reduction_profile(self, state, count, monkeypatch):
        calls = []
        real = core._eigh

        def spy(a, compute_v=True):
            if not compute_v:  # an eigvalsh
                calls.append(np.shape(a))
            return real(a, compute_v)

        monkeypatch.setattr(core, "_eigh", spy)
        res = ms.pure_schmidt_number(state)
        assert res.exact
        assert len(calls) == count


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 5)])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_stacked_element_ranks_match_single_ones(dims, rank):
    """Eigen elements: a product, one with degenerate singular values, Haar ones."""
    rng = np.random.default_rng(100 * dims[0] + 10 * dims[1] + rank)
    d1, d2 = dims
    e1, e2 = np.eye(d1), np.eye(d2)
    product = np.kron(e1[0], e2[0])
    degenerate = (np.kron(e1[0], e2[1]) + np.kron(e1[1], e2[0])) / np.sqrt(2.0)
    extra = rng.normal(size=(d1 * d2, rank - 2)) + 1j * rng.normal(size=(d1 * d2, rank - 2))
    q, _ = np.linalg.qr(np.column_stack([product, degenerate, extra]))
    local = np.kron(unitary_group.rvs(d1, random_state=rng), unitary_group.rvs(d2, random_state=rng))
    vecs = local @ q
    weights = np.arange(rank, 0, -1) / (rank * (rank + 1) / 2)
    rho = DensityMatrix(ms.DimensionProfile(dims), (vecs * weights) @ vecs.conj().T)
    engine = number._Engine(ms.DEFAULT_BUDGET, DEFAULT_RANK_TOL)
    _, elements = engine._eigen_elements(rho, *ms.spectrum(rho))
    first = ms.SubsystemSet((1,))
    stack = np.stack([e.amplitudes for e in elements])
    got = weight_rank(local_weights(stack, dims, first), DEFAULT_RANK_TOL).tolist()
    want = [
        weight_rank(local_weights(e.amplitudes, dims, first), DEFAULT_RANK_TOL) for e in elements
    ]
    assert got == want
    assert got[:2] == [1, 2]  # the planted product and degenerate elements


def with_noise(state, eps, draw):
    """``state`` plus relative complex Gaussian noise of norm ``eps``, renormalized."""
    rng = np.random.default_rng(draw)
    size = state.amplitudes.size
    z = rng.normal(size=size) + 1j * rng.normal(size=size)
    return ms.normalized_state(state.profile, state.amplitudes + eps * z / np.linalg.norm(z))


NOISE_STATES = {
    "W3": ms.w_state(3),
    "W4": ms.w_state(4),
    "W5": ms.w_state(5),
    "GHZ3": ms.ghz_state(3),
    "GHZ4": ms.ghz_state(4),
    "GHZ3d3": ms.ghz_state(3, 3),
    "Haar222": ms.random_pure(ms.DimensionProfile((2, 2, 2)), 11),
    "Haar223": ms.random_pure(ms.DimensionProfile((2, 2, 3)), 12),
    "Haar33": ms.random_pure(ms.DimensionProfile((3, 3)), 13),
}


def interval_under_noise(name, eps, draw):
    state = NOISE_STATES[name]
    clean = ms.pure_schmidt_number(state, SHORT)
    noisy = ms.pure_schmidt_number(with_noise(state, eps, draw), SHORT)
    return (clean.value_lo, clean.value_hi), (noisy.value_lo, noisy.value_hi)


@pytest.mark.parametrize("name", list(NOISE_STATES))
@pytest.mark.parametrize("eps", [1e-13, 1e-12])
@pytest.mark.parametrize("draw", range(5))
def test_noise_below_tol_keeps_the_interval(name, eps, draw):
    clean, noisy = interval_under_noise(name, eps, draw)
    assert noisy == clean


@pytest.mark.parametrize("name", ["W4", "W5"])
@pytest.mark.parametrize("draw", range(3))
def test_noise_1e11_keeps_the_w_intervals(name, draw):
    clean, noisy = interval_under_noise(name, 1e-11, draw)
    assert noisy == clean


# one L-BFGS restart of 30 iterations: the reductions, not the search, are under test
TINY = ms.SearchBudget(restarts=1, iters=20, seed=0)


class TestCutReductions:
    """The max-party rule builds each reduction from factorize's cut SVDs."""

    @pytest.fixture
    def genuine_reductions(self, monkeypatch):
        """(state, parties whose reduction is built, reductions built) per call of the max-party rule.

        A reduction is built where the pair concurrences and the PPT test of
        _ppt_reductions leave it open.
        """
        records, active = [], []
        real_genuine, real_cut = number._Engine._genuine_value, number._cut_reductions
        real_ppt = number._Engine._ppt_reductions

        def genuine(self, state, *args):
            active.append((state, [], []))
            try:
                return real_genuine(self, state, *args)
            finally:
                records.append(active.pop())

        def ppt(self, *args):
            subs = real_ppt(self, *args)
            active[-1][1].extend(i for i, sub in enumerate(subs, 1) if sub is None)
            return subs

        def cut(*args):
            rhos = real_cut(*args)
            active[-1][2].extend(rhos)
            return rhos

        monkeypatch.setattr(number._Engine, "_genuine_value", genuine)
        monkeypatch.setattr(number._Engine, "_ppt_reductions", ppt)
        monkeypatch.setattr(number, "_cut_reductions", cut)
        return records

    @pytest.mark.parametrize(
        "state",
        [
            # only the (3, 3) reduction: the (2, 3) ones are decided by their partial transpose
            ms.random_pure(ms.DimensionProfile((2, 3, 3)), 0),
            ms.random_pure(ms.DimensionProfile((2, 3, 4)), 3),
            ms.random_pure(ms.DimensionProfile((3, 3, 3)), 0),
            ms.ghz_state(3, 3),
            ms.random_pure(ms.DimensionProfile((2, 2, 2, 2)), 5),
            ms.random_pure(ms.DimensionProfile((2, 2, 2, 3)), 1),
            ms.w_state(5),
            PureState(
                ms.DimensionProfile((3, 3, 3, 2)),
                np.kron(ms.ghz_state(3, 3).amplitudes, [0.6, 0.8j]),
            ),
        ],
        ids=["Haar233", "Haar234", "Haar333", "qutritGHZ3", "Haar2222", "Haar2223", "W5", "qutritGHZ3x1"],
    )
    def test_reductions_match_the_partial_trace(self, state, genuine_reductions):
        ms.pure_schmidt_number(state, TINY)
        built = [record for record in genuine_reductions if record[2]]
        assert built
        for st, parties, reductions in built:
            m = st.party_count
            assert len(reductions) == len(parties)
            assert len(parties) == m or m == 3
            for i, rho in zip(parties, reductions):
                want = ms.reduce(st, ms.SubsystemSet((i,)).complement(m))
                assert rho.profile == want.profile
                assert np.allclose(rho.matrix, want.matrix, rtol=0, atol=1e-12)
                w, v = rho.eigensystem
                assert np.allclose((v * w) @ v.conj().T, rho.matrix, rtol=0, atol=1e-12)
                assert np.allclose(v.conj().T @ v, np.eye(v.shape[0]), rtol=0, atol=1e-12)
                assert np.all(w >= 0) and np.all(np.diff(w) <= 0)
                assert not any(a.flags.writeable for a in (rho.matrix, w, v))

    def test_haar_three_qubit_state_builds_no_reduction(self, genuine_reductions):
        ms.pure_schmidt_number(ms.random_pure(ms.DimensionProfile((2, 2, 2)), 1), TINY)
        assert [reductions for _, _, reductions in genuine_reductions] == [[]]

    def test_haar_state_is_validated_only_at_the_boundary(self, monkeypatch):
        state = ms.random_pure(ms.DimensionProfile((2, 2, 2)), 9)
        calls = {"eigh": 0, "reduce": 0, "density": 0, "pure": 0}

        def counted(key, real):
            def spy(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            return spy

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        for module in (core, number):
            monkeypatch.setattr(module, "reduce", counted("reduce", core.reduce))
        monkeypatch.setattr(
            DensityMatrix, "__post_init__", counted("density", DensityMatrix.__post_init__)
        )
        monkeypatch.setattr(PureState, "__post_init__", counted("pure", PureState.__post_init__))
        res = ms.pure_schmidt_number(state)
        assert res.exact and res.value == 4
        assert calls == {"eigh": 0, "reduce": 0, "density": 0, "pure": 0}


def _haar(dims, seed):
    return ms.random_pure(ms.DimensionProfile(dims), seed)


def _gray_zone_state(b2=2e-6):
    """A (2, 2, 3) state whose rho_(not 3) has its least PT eigenvalue in (-margin, -PPT_NEG_TOL).

    It is (a/sqrt 2)(|000> + |111>) + b |Phi+>|2> with b^2 = b2, so
    rho_(not 3) = (a^2/2)(|00><00| + |11><11|) + b^2 |Phi+><Phi+|, whose
    partial transpose has least eigenvalue -b^2/2 (on (|01> - |10>)/sqrt 2).
    The other two reductions mix two product states.
    """
    t = np.zeros((2, 2, 3), dtype=complex)
    t[0, 0, 0] = t[1, 1, 1] = np.sqrt((1.0 - b2) / 2.0)
    t[0, 0, 2] = t[1, 1, 2] = np.sqrt(b2 / 2.0)
    return PureState(ms.DimensionProfile((2, 2, 3)), t.reshape(-1))


def _ladder_only(monkeypatch):
    """Disable _ppt_reductions, so every reduction it would decide goes to mixed_value."""
    monkeypatch.setattr(
        number._Engine, "_ppt_reductions", lambda self, dims, records: [None] * len(records)
    )


class TestPptReductions:
    """A three-party state's 2 x 2 and 2 x 3 reductions, decided by their partial transpose."""

    @pytest.mark.parametrize(
        "state",
        [
            *(_haar(dims, seed) for dims in ((2, 2, 3), (2, 3, 2), (3, 2, 2)) for seed in range(20)),
            *(_haar(dims, seed) for dims in ((2, 3, 3), (2, 3, 4)) for seed in range(4)),
            ms.ghz_state(3),
            ms.apply_local_operators(ms.ghz_state(3), ms.random_local_unitary(ms.qubits(3), 0)),
        ],
        ids=[
            *(f"Haar{d}#{seed}" for d in ("223", "232", "322") for seed in range(20)),
            *(f"Haar{d}#{seed}" for d in ("233", "234") for seed in range(4)),
            "GHZ3",
            "LU-GHZ3",
        ],
    )
    def test_rule_gives_the_ladder_result(self, state, monkeypatch):
        got = ms.pure_schmidt_number(state, TINY)
        _ladder_only(monkeypatch)
        want = ms.pure_schmidt_number(state, TINY)
        assert (got.value_lo, got.value_hi, got.exact) == (want.value_lo, want.value_hi, want.exact)
        assert got.branch_trace == want.branch_trace  # per_party included

    @pytest.mark.parametrize("dims, seed", [((2, 2, 3), 25), ((2, 3, 2), 4), ((3, 2, 2), 13)])
    def test_separable_reduction_gives_the_ladder_result(self, dims, seed, monkeypatch):
        got = ms.pure_schmidt_number(_haar(dims, seed), TINY)
        assert [1, 1] in [p["reduction"] for p in got.branch_trace["per_party"]]
        _ladder_only(monkeypatch)
        assert got.branch_trace == ms.pure_schmidt_number(_haar(dims, seed), TINY).branch_trace

    def test_gray_zone_goes_to_the_ladder(self, monkeypatch):
        from multischmidt.bipartite import PPT_NEG_TOL, _pt_least_eigenvalue

        state = _gray_zone_state()
        rho = ms.reduce(state, ms.SubsystemSet((1, 2)))
        lam = _pt_least_eigenvalue(rho, ms.SubsystemSet((1,)))
        margin = max(PPT_NEG_TOL, np.sqrt(DEFAULT_RANK_TOL + 1e-14) + 4 * number.EIGEN_WEIGHT_FLOOR)
        assert -margin < lam < -PPT_NEG_TOL
        seen = []
        real = number._Engine.mixed_value

        def spy(self, rho):
            seen.append(rho)
            return real(self, rho)

        monkeypatch.setattr(number._Engine, "mixed_value", spy)
        got = ms.pure_schmidt_number(state, TINY)
        (sent,) = seen
        assert sent.profile.dims == (2, 2)
        assert np.allclose(sent.matrix, rho.matrix, rtol=0, atol=1e-12)
        _ladder_only(monkeypatch)
        want = ms.pure_schmidt_number(state, TINY)
        assert got.branch_trace == want.branch_trace
        assert [p["reduction"] for p in got.branch_trace["per_party"]] == [[1, 1], [1, 1], [2, 2]]
        assert got.exact and got.value == 4

    @pytest.mark.parametrize(
        "state",
        [
            _haar((2, 2, 3), 0),
            _haar((2, 3, 2), 0),
            _haar((3, 2, 2), 0),
            _haar((2, 3, 3), 0),
            ms.ghz_state(3),
            ms.apply_local_operators(ms.ghz_state(3), ms.random_local_unitary(ms.qubits(3), 0)),
            _gray_zone_state(),
        ],
        ids=["Haar223", "Haar232", "Haar322", "Haar233", "GHZ3", "LU-GHZ3", "gray-zone"],
    )
    def test_matrices_match_the_partial_trace(self, state, monkeypatch):
        mats = []
        real = number._cut_matrices

        def spy(*args):
            out = real(*args)
            mats.extend(out)
            return out

        monkeypatch.setattr(number, "_cut_matrices", spy)
        ms.pure_schmidt_number(state, TINY)
        m = state.party_count
        wants = [ms.reduce(state, ms.SubsystemSet((i,)).complement(m)).matrix for i in range(1, m + 1)]
        decisive = [i for i, want in enumerate(wants) if want.shape[0] in (4, 6)]
        matched = []
        for mat in mats:
            hits = [
                i
                for i in decisive
                if i not in matched
                and wants[i].shape == mat.shape
                and np.allclose(mat, wants[i], rtol=0, atol=1e-12)
            ]
            assert hits
            matched.append(hits[0])
        assert sorted(matched) == decisive


def _werner(p):
    """p |Phi+><Phi+| + (1 - p) I/4: separable for p <= 1/3, with an entangled eigen element."""
    bell = ms.bell_state().amplitudes
    return DensityMatrix(ms.qubits(2), p * np.outer(bell, bell.conj()) + (1 - p) * np.eye(4) / 4)


def _planted_products(dims, count, seed):
    """A mixture of ``count`` seeded product states on two parties."""
    prof = ms.DimensionProfile(dims)
    return mixture([ms.random_product(prof, 10 * seed + j) for j in range(count)], [0.5, 0.3, 0.2])


ORACLE_STATES = {
    "Haar222": ms.random_pure(ms.DimensionProfile((2, 2, 2)), 1),
    "Haar223": ms.random_pure(ms.DimensionProfile((2, 2, 3)), 2),
    "Haar234": ms.random_pure(ms.DimensionProfile((2, 3, 4)), 3),
    "Haar333": ms.random_pure(ms.DimensionProfile((3, 3, 3)), 0),
    "Haar2222": ms.random_pure(ms.DimensionProfile((2, 2, 2, 2)), 5),
    "Haar2223": ms.random_pure(ms.DimensionProfile((2, 2, 2, 3)), 1),
    "W3": ms.w_state(3),
    "W4": ms.w_state(4),
    "W5": ms.w_state(5),
    "GHZ3": ms.ghz_state(3),
    "GHZ4": ms.ghz_state(4),
    "GHZ5": ms.ghz_state(5),
    "W3x1": PureState(ms.qubits(4), np.kron(ms.w_state(3).amplitudes, [0.6, 0.8j])),
}


def _reductions(state):
    m = state.party_count
    return [ms.reduce(state, ms.SubsystemSet((i,)).complement(m)) for i in range(1, m + 1)]


class TestMixedValue:
    """One engine's mixed_value decides each matrix as a fresh engine does, and each matrix once."""

    @staticmethod
    def assert_same(got, want):
        assert (got.value_lo, got.value_hi, got.exact) == (want.value_lo, want.value_hi, want.exact)
        assert json.dumps(got.branch_trace) == json.dumps(want.branch_trace)
        assert (got.witness_ensemble is None) == (want.witness_ensemble is None)
        if got.witness_ensemble is not None:
            assert got.witness_ensemble.weights == want.witness_ensemble.weights
            for x, y in zip(got.witness_ensemble.states, want.witness_ensemble.states):
                assert np.array_equal(x.amplitudes, y.amplitudes)

    def test_mixed_profiles_and_rules(self):
        rhos = [
            _werner(0.2),  # decisive PPT, separable
            _planted_products((2, 4), 3, 0),  # PPT on a non-decisive 2 x 4 shape
            *_reductions(ORACLE_STATES["W3x1"]),  # one of them is rank one
            _werner(0.25),
            _planted_products((2, 4), 3, 1),
            *_reductions(ORACLE_STATES["Haar223"]),
        ]
        shared = number._Engine(TINY, DEFAULT_RANK_TOL)
        results = [shared.mixed_value(rho) for rho in rhos]
        for rho, res in zip(rhos, results):
            self.assert_same(res, number._Engine(TINY, DEFAULT_RANK_TOL).mixed_value(rho))
        rules = [res.branch_trace.get("rule") for res in results]
        assert rules[:2] == ["ppt-decisive-separable", "product-ensemble"]
        assert "rank-one" in rules[2:6]

    def test_duplicates_are_decided_once(self, monkeypatch):
        misses = []
        real = number._Engine._mixed_value

        def counted(self, rho):
            misses.append(rho)
            return real(self, rho)

        monkeypatch.setattr(number._Engine, "_mixed_value", counted)
        rhos = _reductions(ms.w_state(5))  # five copies of one matrix
        engine = number._Engine(TINY, DEFAULT_RANK_TOL)
        results = [engine.mixed_value(rho) for rho in rhos]
        assert [rho.party_count for rho in misses].count(4) == 1  # the rest are nested
        assert all(res is results[0] for res in results)


def _eigen_witnessed(trace):
    """Whether a mixed result's witness is its matrix's eigen ensemble."""
    if trace["rule"] == "interval":
        return not any(a["found"] for a in trace["search_attempts"])
    return trace["rule"] in {
        "rank-one",
        "eigen-ensemble",
        "ppt-meets-eigen",
        "range-span-certified",
    }


class TestWitnessOnDemand:
    """No value reads a witness, so one is built only when read, and public results carry theirs."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = {"candidate": 0, "element": 0}
        real_post, real_unit = number.EnsembleCandidate.__post_init__, number._unit_state

        def post(self):
            calls["candidate"] += 1
            real_post(self)

        def unit(*args):
            calls["element"] += 1
            return real_unit(*args)

        monkeypatch.setattr(number.EnsembleCandidate, "__post_init__", post)
        monkeypatch.setattr(number, "_unit_state", unit)
        return calls

    @pytest.mark.parametrize("name", ["Haar222", "Haar223", "W3"])
    def test_max_party_rule_builds_no_ensemble(self, name, builds):
        res = ms.pure_schmidt_number(ORACLE_STATES[name])
        assert res.exact
        assert builds == {"candidate": 0, "element": 0}

    @pytest.mark.parametrize("name", ["Haar222", "Haar223", "Haar234", "W3", "GHZ3", "W3x1"])
    def test_read_witness_is_the_eigen_ensemble(self, name):
        engine = number._Engine(TINY, DEFAULT_RANK_TOL)
        rhos = _reductions(ORACLE_STATES[name])
        checked = 0
        for rho, res in zip(rhos, map(engine.mixed_value, rhos)):
            if not _eigen_witnessed(res.branch_trace):
                continue
            want = number._build_candidate(rho, *engine._eigen_elements(rho, *ms.spectrum(rho)))
            got = res.witness_ensemble
            assert got is not None and want is not None
            assert got.weights == want.weights
            assert len(got.states) == len(want.states)
            for x, y in zip(got.states, want.states):
                assert np.array_equal(x.amplitudes, y.amplitudes)
            checked += 1
        assert checked > 0

    def test_a_builder_runs_once_on_first_read(self):
        runs = []
        res = ms.SchmidtNumberResult(1, 1, True, lambda: runs.append(1), {})
        assert runs == []
        assert res.witness_ensemble is None and res.witness_ensemble is None
        assert runs == [1]

    @pytest.mark.parametrize(
        "rho",
        [
            ms.reduce(ms.w_state(3), ms.SubsystemSet((2, 3))),  # ppt-meets-eigen
            ms.reduce(ms.ghz_state(3), ms.SubsystemSet((2, 3))),  # eigen-ensemble
            ms.reduce(ORACLE_STATES["W3x1"], ms.SubsystemSet((1, 2, 3))),  # rank-one
            mixture([ms.random_pure(ms.DimensionProfile((3, 3)), s) for s in (0, 1)], [0.6, 0.4]),
        ],
        ids=["W3-pair", "GHZ3-pair", "W3-of-W3x1", "Haar33-rank2"],
    )
    def test_public_mixed_result_carries_its_witness(self, rho, builds):
        res = ms.mixed_schmidt_number(rho)
        before = dict(builds)
        witness = res.witness_ensemble
        assert builds == before
        assert witness is not None
        assert np.linalg.norm(witness.reconstruct() - rho.matrix) <= number.RECONSTRUCTION_ATOL

    def test_only_one_party_and_decisive_ppt_results_have_no_witness(self):
        rhos = [rank_two_fuzz(name) for name in sorted(RANK_TWO_FUZZ)]
        rhos += [_werner(0.2), DensityMatrix(ms.DimensionProfile((3,)), np.eye(3) / 3)]
        rules = set()
        for rho in rhos:
            res = ms.mixed_schmidt_number(rho, SHORT)
            rules.add(res.branch_trace["rule"])
            bare = res.branch_trace["rule"] in {"single-party", "ppt-decisive-separable"}
            assert (res.witness_ensemble is None) == bare
        assert {"single-party", "ppt-decisive-separable"} <= rules


def _local_rotation(rho, ops):
    """U rho U^dag for the local unitary U = ops[0] (x) ops[1] (x) ..."""
    full = np.ones((1, 1))
    for op in ops:
        full = np.kron(full, op)
    return DensityMatrix(rho.profile, full @ rho.matrix @ full.conj().T)


LU_PURE = {
    "W3": ms.w_state(3),
    "W4": ms.w_state(4),
    "GHZ3": ms.ghz_state(3),
    "qutrit GHZ3": ms.ghz_state(3, 3),
    "Haar222": ms.random_pure(ms.DimensionProfile((2, 2, 2)), 1),
    "Haar223": ms.random_pure(ms.DimensionProfile((2, 2, 3)), 2),
    "Haar234": ms.random_pure(ms.DimensionProfile((2, 3, 4)), 3),
}

LU_MIXED = {
    **{
        f"Haar33 rank 2 #{s}": mixture(
            [ms.random_pure(ms.DimensionProfile((3, 3)), 10 * s + k) for k in (0, 1)], [0.6, 0.4]
        )
        for s in range(2)
    },
    **{
        f"{kind} #{s}": planted_three_qubit(kind, s)[0]
        for kind in ("product+product", "w-class pair", "lu-ghz+product")
        for s in range(2)
    },
    **{f"Werner {p}": _werner(p) for p in (0.2, 0.5, 0.8)},
}


class TestLocalUnitaryInvariance:
    """Local unitaries keep every Schmidt number: an outside oracle for the whole ladder.

    The intervals of a state and of its local rotation must intersect and,
    where both are exact, agree.
    """

    @staticmethod
    def assert_consistent(a, b):
        assert max(a.value_lo, b.value_lo) <= min(a.value_hi, b.value_hi)
        if a.exact and b.exact:
            assert a.value == b.value

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("name", list(LU_PURE))
    def test_pure_state(self, name, seed):
        state = LU_PURE[name]
        rotated = ms.apply_local_operators(state, ms.random_local_unitary(state.profile, seed))
        self.assert_consistent(ms.pure_schmidt_number(state), ms.pure_schmidt_number(rotated))

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("name", list(LU_MIXED))
    def test_mixed_state(self, name, seed):
        rho = LU_MIXED[name]
        rotated = _local_rotation(rho, ms.random_local_unitary(rho.profile, seed))
        results = [ms.mixed_schmidt_number(r) for r in (rho, rotated)]
        self.assert_consistent(*results)
        for r, res in zip((rho, rotated), results):
            witness = res.witness_ensemble
            if witness is None:
                continue
            rebuilt = sum(
                w * np.outer(s.amplitudes, s.amplitudes.conj())
                for w, s in zip(witness.weights, witness.states)
            )
            assert np.linalg.norm(rebuilt - r.matrix) <= number.RECONSTRUCTION_ATOL


def _separate_pencil_drops(a, b, tol):
    """The pencil drops with one SVD per probe member, as a reference."""
    svds = [np.linalg.svd(z * a + b) for z in loci._PROBES]
    g = max(weight_rank(s**2, tol) for _, s, _ in svds)
    u, s, vh = max(svds, key=lambda usv: usv[1][g - 1] / usv[1][0])
    left, right = u[:, :g].conj().T, vh[:g].conj().T
    alpha_h, beta_h = eigvals(left @ a @ right, left @ b @ right, homogeneous_eigvals=True)
    rays = np.column_stack([beta_h, -alpha_h])
    return g, rays / np.linalg.norm(rays, axis=1, keepdims=True)


@pytest.mark.parametrize(
    "shape, rank", [((3, 3), 3), ((3, 3), 2), ((2, 4), 2), ((4, 2), 2), ((3, 5), 3)]
)
@pytest.mark.parametrize("seed", range(3))
def test_pencil_drops_take_one_stacked_svd(shape, rank, seed, monkeypatch):
    rng = np.random.default_rng(seed)

    def gaussian(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    # members share a column and a row space of dimension ``rank``
    left, right = gaussian(shape[0], rank), gaussian(rank, shape[1])
    a, b = left @ gaussian(rank, rank) @ right, left @ gaussian(rank, rank) @ right
    g_want, rays_want = _separate_pencil_drops(a, b, DEFAULT_RANK_TOL)
    calls = []
    real = core._svd

    def spy(arr, *args, **kwargs):
        calls.append(np.shape(arr))
        return real(arr, *args, **kwargs)

    monkeypatch.setattr(core, "_svd", spy)
    g, rays = loci._pencil_drops(a, b, DEFAULT_RANK_TOL)
    assert calls == [(3,) + shape]
    assert g == g_want == rank
    assert np.array_equal(rays, rays_want)


@pytest.mark.parametrize("shape", [2, 3, 6])
@pytest.mark.parametrize("seed", range(4))
def test_homogeneous_eigvals_match_scipy(shape, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(2, shape, shape)) + 1j * rng.normal(size=(2, shape, shape)))
    if seed == 3:
        b[:, 0] = 0.0  # a singular member: an infinite eigenvalue, beta = 0
    alpha, beta = loci._homogeneous_eigvals(a, b)
    want = eigvals(a, b, homogeneous_eigvals=True)
    assert np.array_equal(alpha, want[0]) and np.array_equal(beta, want[1])


def test_homogeneous_eigvals_reject_non_finite_input():
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        loci._homogeneous_eigvals(a, np.full((2, 2), np.nan, dtype=complex))


def _column_tail(vec, dims, target_r):
    """The ensemble surrogate of one column, one SVD per party, as a reference."""
    psi = (vec / np.linalg.norm(vec)).reshape(dims)
    spectra = []
    for i, d in enumerate(dims):
        rest = [a for a in range(len(dims)) if a != i]
        unfolding = psi.transpose([i] + rest).reshape(d, -1)
        spectra.append(np.linalg.svd(unfolding, compute_uv=False) ** 2)

    def tail(w, r):
        return float(np.sum(np.sort(w)[::-1][r:]))

    if target_r == 1:
        return float(sum(1.0 - p[0] for p in spectra))
    return tail(spectra[0], target_r)  # two parties: the only ones searched above target 1


@pytest.mark.parametrize("dims", [(2, 2, 3), (3, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_ensemble_objective_is_bitwise_the_column_by_column_sum(dims, seed):
    """One stacked SVD per party gives the objective of one SVD per party and column."""
    state = ms.random_pure(ms.DimensionProfile((2,) + dims), seed)
    rho = ms.reduce(state, ms.SubsystemSet(tuple(range(2, len(dims) + 2))))
    engine = number._Engine(TINY, DEFAULT_RANK_TOL)
    weights, elements = engine._eigen_elements(rho, *ms.spectrum(rho))
    b_mat = np.column_stack([s.amplitudes for s in elements]) * np.sqrt(weights)
    k = len(elements)
    rng = np.random.default_rng(seed)
    for n in (k, k + 1, 2 * k):
        for target_r in (1, 2, 3) if len(dims) == 2 else (1,):
            cols = number._ensemble_columns(b_mat, rng.normal(scale=0.7, size=n * n), n)
            own = reference = 0.0
            for j in range(n):
                p = float(np.vdot(cols[:, j], cols[:, j]).real)
                if p < number.EIGEN_WEIGHT_FLOOR:
                    continue
                col = cols[:, j] / np.sqrt(p)
                own += p * number._element_tail(col, rho.profile, target_r)
                reference += p * _column_tail(col, dims, target_r)
            got = number._ensemble_objective(cols, rho.profile, target_r)
            assert got == own == reference


def _lu(state, seed):
    return ms.apply_local_operators(state, ms.random_local_unitary(state.profile, seed))


def _w_ghz_mixture():
    """LU-W3 + LU-GHZ3, 50/50: exact 4, its level 3 excluded by the line's CKW zeros."""
    return mixture([_lu(ms.w_state(3), 0), _lu(ms.ghz_state(3), 10)], [0.5, 0.5])


def _with_zero_party(rho, first):
    """|0><0| (x) rho when ``first``, else rho (x) |0><0|.

    Every ensemble element of the result is an element of rho with |0> on the
    new party, a product factor that leaves its value unchanged, so the
    result has the value of rho.
    """
    zero = np.diag([1.0, 0.0])
    mat = np.kron(zero, rho.matrix) if first else np.kron(rho.matrix, zero)
    dims = (2,) + rho.profile.dims if first else rho.profile.dims + (2,)
    return DensityMatrix(ms.DimensionProfile(dims), mat)


def _assert_sound(res, rho, value):
    """The interval holds the known value and the witness, if any, rebuilds rho."""
    assert res.value_lo <= value <= res.value_hi
    witness = res.witness_ensemble
    if witness is not None:
        assert np.linalg.norm(witness.reconstruct() - rho.matrix) <= number.RECONSTRUCTION_ATOL
        assert all(ms.pure_schmidt_number(st).value_hi <= res.value_hi for st in witness.states)


class TestExactRouteFallbacks:
    """Where an exact route refuses, the result stays a sound interval.

    No tier-1 input reaches these refusals on its own, so most cases inject
    the fault: a zero ROOT_FLOOR makes every pencil root shallow (no range
    rays at all), and CKW_MARGIN or CKW_FLOOR at 1 makes the CKW zeros
    unlistable (a zero without a margin, or a singular eliminant).
    """

    @pytest.mark.parametrize("m, interval", [(4, (4, 6)), (5, (4, 8))])
    def test_shallow_roots_leave_w_states_an_interval(self, m, interval, monkeypatch):
        value = ms.pure_schmidt_number(ms.w_state(m), SHORT).value
        monkeypatch.setattr(number, "ROOT_FLOOR", 0.0)
        res = ms.pure_schmidt_number(ms.w_state(m), SHORT)
        assert (res.value_lo, res.value_hi) == interval
        assert res.value_lo <= value <= res.value_hi

    def test_shallow_roots_leave_a_two_party_line_ambiguous(self, monkeypatch):
        prof = ms.DimensionProfile((3, 3))
        rho = mixture([ms.random_pure(prof, 0), ms.random_pure(prof, 1)], [0.5, 0.5])
        value = ms.mixed_schmidt_number(rho, SHORT).value
        monkeypatch.setattr(number, "ROOT_FLOOR", 0.0)
        res = ms.mixed_schmidt_number(rho, SHORT)
        assert (res.value_lo, res.value_hi) == (2, 3)
        assert res.branch_trace["rule"] == "interval"
        assert "product_route" not in res.branch_trace  # an NPT cut: no product ensemble
        assert res.branch_trace["certificate"] == {"certified": False, "reason": "ambiguous"}
        _assert_sound(res, rho, value)

    @pytest.mark.parametrize("name", ["CKW_MARGIN", "CKW_FLOOR"])
    def test_unlisted_ckw_zeros_leave_level_three_open(self, name, monkeypatch):
        rho = _w_ghz_mixture()
        value = ms.mixed_schmidt_number(rho, SHORT).value
        assert value == 4
        listed = []
        real = loci._ckw_zeros

        def spy(*args):
            listed.append(real(*args))
            return listed[-1]

        monkeypatch.setattr(loci, name, 1.0)
        monkeypatch.setattr(loci, "_ckw_zeros", spy)
        res = ms.mixed_schmidt_number(rho, SHORT)
        assert (res.value_lo, res.value_hi) == (3, 4)
        assert listed and all(zeros is None for zeros in listed)
        _assert_sound(res, rho, value)

    def test_product_party_line_is_exact(self):
        # every point of the range line factorizes at the cut {1}: generic rank 1
        prof = ms.DimensionProfile((2, 2))
        sigma = mixture([ms.random_product(prof, 1), ms.random_product(prof, 2)], [0.4, 0.6])
        rho = _with_zero_party(sigma, first=True)
        res = ms.mixed_schmidt_number(rho, SHORT)
        assert res.exact and res.value == 1
        assert res.branch_trace["rule"] == "range-ray-mixture"
        assert res.branch_trace["certificate"]["level"] == 1
        _assert_sound(res, rho, 1)

    @pytest.mark.parametrize("first", [True, False])
    def test_product_party_beside_a_ckw_line_stays_an_interval(self, first):
        rho = _with_zero_party(_w_ghz_mixture(), first)
        res = ms.mixed_schmidt_number(rho, SHORT)
        assert (res.value_lo, res.value_hi) == (2, 4)
        _assert_sound(res, rho, 4)


def _haar_pair_mixture(dims, s):
    """Haar (3,3) states of seeds 2s and 2s+1, half and half, as a matrix on ``dims``."""
    prof = ms.DimensionProfile((3, 3))
    rho = mixture([ms.random_pure(prof, 2 * s), ms.random_pure(prof, 2 * s + 1)], [0.5, 0.5])
    return DensityMatrix(ms.DimensionProfile(dims), rho.matrix)


def _w_and_zero(dims):
    """W3 0.75 + |000><000| 0.25, as a matrix on ``dims``."""
    zero = PureState(ms.qubits(3), np.eye(8)[0])
    rho = mixture([ms.w_state(3), zero], [0.75, 0.25])
    return DensityMatrix(ms.DimensionProfile(dims), rho.matrix)


class TestDimensionOneParties:
    """A party of dimension 1 carries nothing: the matrix is decided on the others."""

    @pytest.mark.parametrize(
        "rho, kept, value",
        [
            *(
                (_haar_pair_mixture(dims, s), kept, 3)
                for s in range(3)
                for dims, kept in (
                    ((1, 3, 3), [2, 3]),
                    ((3, 1, 3), [1, 3]),
                    ((3, 3, 1), [1, 2]),
                    ((1, 1, 3, 3), [3, 4]),
                )
            ),
            (_w_and_zero((2, 2, 2, 1)), [1, 2, 3], 4),
            (_w_and_zero((1, 2, 2, 2)), [2, 3, 4], 4),
            (DensityMatrix(ms.DimensionProfile((1, 1)), np.eye(1)), [1], 1),
        ],
    )
    def test_value_is_the_stripped_matrix_value(self, rho, kept, value):
        res = ms.mixed_schmidt_number(rho, SHORT)
        stripped = ms.DimensionProfile([rho.profile.dims[i - 1] for i in kept])
        want = ms.mixed_schmidt_number(DensityMatrix(stripped, rho.matrix), SHORT)
        assert res.exact and res.value == want.value == value
        trace = {"rule": "unit-parties-dropped", "kept": kept, "kept_trace": want.branch_trace}
        assert res.branch_trace == trace
        _assert_sound(res, rho, value)
        if value > 1:  # a one-party matrix has no witness
            assert all(st.profile == rho.profile for st in res.witness_ensemble.states)


def _haar_33_rank_two(seed):
    """0.6/0.4 mixture of the Haar (3,3) states of seeds 2 seed and 2 seed + 1."""
    prof = ms.DimensionProfile((3, 3))
    return mixture([ms.random_pure(prof, 2 * seed), ms.random_pure(prof, 2 * seed + 1)], [0.6, 0.4])


def _count_calls(monkeypatch, owner, names):
    """Spy on ``owner.name`` for each name: {name: [its last positional argument, per call]}."""
    seen = {name: [] for name in names}
    for name in names:
        real = getattr(owner, name)

        def spy(*args, real=real, name=name):
            seen[name].append(args[-1])
            return real(*args)

        monkeypatch.setattr(owner, name, spy)
    return seen


_KEYS = ("_state_key", "_matrix_key", "_range_key")


class TestRootMemo:
    """A public call's engine keys no memo entry for its own input; nested memo hits stay."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_pure_input_is_not_keyed(self, dims, seed, monkeypatch):
        state = _haar(dims, seed)
        want = number._Engine(ms.DEFAULT_BUDGET, DEFAULT_RANK_TOL).pure_value(state)  # keyed
        keys = _count_calls(monkeypatch, number, _KEYS)
        got = ms.pure_schmidt_number(state)
        # the reductions are decided without the ladder, so nothing is keyed at all
        assert keys == {name: [] for name in _KEYS}
        assert got.branch_trace == want.branch_trace
        assert (got.value_lo, got.value_hi) == (want.value_lo, want.value_hi)

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_input_and_its_range_line_are_not_keyed(self, seed, monkeypatch):
        rho = _haar_33_rank_two(seed)
        want = number._Engine(ms.DEFAULT_BUDGET, DEFAULT_RANK_TOL).mixed_value(rho)  # keyed
        keys = _count_calls(monkeypatch, number, _KEYS)
        lines = _count_calls(monkeypatch, number._Engine, ("_line_rays",))
        got = ms.mixed_schmidt_number(rho)
        assert keys["_matrix_key"] == [] and keys["_range_key"] == []
        assert all(st is not rho for st in keys["_state_key"])  # only the line's rays
        assert len(lines["_line_rays"]) == 1  # the walk still reads the line, once
        assert got.branch_trace == want.branch_trace
        assert (got.value_lo, got.value_hi) == (want.value_lo, want.value_hi)

    def test_w5_keeps_its_nested_hits(self, monkeypatch):
        """W5's five reductions are one matrix (4 hits), and W4's four inside it (3 hits)."""
        names = ("pure_value", "_pure_value", "mixed_value", "_mixed_value", "_range_rays", "_line_rays")
        seen = _count_calls(monkeypatch, number._Engine, names)
        res = ms.pure_schmidt_number(ms.w_state(5))
        assert res.exact and res.value == 8
        counts = {name: len(args) for name, args in seen.items()}
        assert counts == {
            "pure_value": 9,
            "_pure_value": 7,
            "mixed_value": 9,
            "_mixed_value": 2,
            "_range_rays": 6,
            "_line_rays": 2,
        }
        assert sorted(rho.party_count for rho in seen["mixed_value"]) == [3] * 4 + [4] * 5

    def test_analyze_state_values_its_input_once(self, monkeypatch):
        """The report's number and coefficients share one engine: the input's value is a memo hit."""
        from multischmidt import cli

        state = ms.w_state(4)
        seen = _count_calls(monkeypatch, number._Engine, ("pure_value", "_pure_value"))
        report = cli.analyze_state(state, ms.DEFAULT_BUDGET, DEFAULT_RANK_TOL)
        assert (report.value_lo, report.value_hi, report.coefficients_note) == (6, 6, None)
        assert sum(st is state for st in seen["pure_value"]) == 2
        assert sum(st is state for st in seen["_pure_value"]) == 1

    @pytest.mark.parametrize("workload", ["families", "haar-survey", "mixed-planted"])
    def test_traced_tiny_run_reports_hit_ratios_in_range(self, workload, monkeypatch):
        """The benchmark's hooks count the unkeyed input once as a call and once as a miss."""
        from pathlib import Path

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import layers
        import workloads
        from spans import Installed, Tracer

        tracer = Tracer()
        budget = dataclasses.replace(ms.DEFAULT_BUDGET, seed=3)
        with Installed(tracer, layers.HOOKS, rebind_in=("multischmidt",)) as installed:
            for case in workloads.WORKLOADS[workload].make(ms, 3, True):
                getattr(ms, case.api)(case.data, budget)
        assert installed.absent == []
        metrics = layers.per_layer_metrics(tracer, 1, 0.0)
        for cache in ("number.pure", "number.mixed"):
            assert tracer.calls[cache + ".miss"] <= tracer.calls[cache]
            assert 0.0 <= metrics[cache + ".hit_ratio"][0] <= 1.0
