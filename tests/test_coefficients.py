import numpy as np
import pytest
from scipy.optimize import minimize

import multischmidt as ms
from conftest import product_mixture
from multischmidt import number
from multischmidt.core import DEFAULT_RANK_TOL, DensityMatrix, PureState, local_weights
from multischmidt.errors import SearchError

FAST = ms.SearchBudget(restarts=16, iters=150, seed=0)
LU_GHZ3 = ms.apply_local_operators(ms.ghz_state(3), ms.random_local_unitary(ms.qubits(3), 0))


class TestPureCoefficients:
    def test_ghz3(self):
        cs = ms.pure_schmidt_coefficients(ms.ghz_state(3))
        want = sorted([0.5, 0.5, 1 / np.sqrt(2)], reverse=True)
        assert np.allclose(cs.values, want, atol=1e-9)

    def test_w3(self):
        cs = ms.pure_schmidt_coefficients(ms.w_state(3))
        want = sorted([1 / np.sqrt(3), 1 / np.sqrt(6), 0.5, 0.5], reverse=True)
        assert np.allclose(cs.values, want, rtol=0, atol=1e-12)

    def test_product(self):
        cs = ms.pure_schmidt_coefficients(ms.basis_state(ms.qubits(3), (0, 0, 0)))
        assert cs.values == (1.0,)

    def test_w3_gives_the_closed_form_floats(self):
        cs = ms.pure_schmidt_coefficients(ms.w_state(3))
        assert cs.values == (1 / np.sqrt(3), 0.5, 0.5, 1 / np.sqrt(6))

    def test_zero_times_bell(self):
        amps = np.kron([1.0, 0.0], ms.bell_state().amplitudes)
        cs = ms.pure_schmidt_coefficients(PureState(ms.qubits(3), amps))
        assert np.allclose(cs.values, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_two_pairs_union(self):
        pair_a = ms.random_pure(ms.DimensionProfile((2, 2)), 31)
        pair_b = ms.random_pure(ms.DimensionProfile((2, 2)), 32)
        st = PureState(ms.qubits(4), np.kron(pair_a.amplitudes, pair_b.amplitudes))
        cs = ms.pure_schmidt_coefficients(st)
        s1 = np.sqrt(ms.spectrum(ms.reduce(st, ms.SubsystemSet((1,)))).values[:2] / 2)
        s3 = np.sqrt(ms.spectrum(ms.reduce(st, ms.SubsystemSet((3,)))).values[:2] / 2)
        want = sorted(np.concatenate([s1, s3]), reverse=True)
        assert np.allclose(cs.values, want, atol=1e-9)

    def test_ghz4(self):
        cs = ms.pure_schmidt_coefficients(ms.ghz_state(4))
        want = sorted([0.5, 0.5, 1 / np.sqrt(2)], reverse=True)
        assert np.allclose(cs.values, want, atol=1e-9)
        assert len(cs.values) == ms.pure_schmidt_number(ms.ghz_state(4)).value

    def test_genuine_five_party_unsupported(self):
        with pytest.raises(ms.UnsupportedStructureError):
            ms.pure_schmidt_coefficients(ms.w_state(5))

    def test_five_party_non_genuine_recurses(self):
        amps = np.kron(ms.bell_state().amplitudes, ms.w_state(3).amplitudes)
        st = PureState(ms.qubits(5), amps)
        cs = ms.pure_schmidt_coefficients(st, FAST)
        assert cs.provenance["rule"] == "factor-union"
        assert cs.provenance["inferred"]
        assert abs(float(np.sum(cs.squares())) - 1.0) < 1e-7
        res = ms.pure_schmidt_number(st)
        assert res.exact and len(cs.values) == res.value

    @pytest.mark.parametrize(
        "st",
        [ms.random_pure(ms.qubits(3), seed) for seed in range(25)]
        + [LU_GHZ3, ms.random_pure(ms.DimensionProfile((2, 2, 2, 3)), 1)],
        ids=[str(seed) for seed in range(25)] + ["LU-GHZ3", "Haar2223#1"],
    )
    def test_normalization_and_cardinality_random_3q(self, st):
        """The coefficients' total value is the number's hi, on an interval too (Haar2223#1)."""
        cs = ms.pure_schmidt_coefficients(st, FAST)
        assert abs(float(np.sum(cs.squares())) - 1.0) < 1e-7
        res = ms.pure_schmidt_number(st)
        assert cs.provenance["total_value"] == res.value_hi
        if res.exact:
            assert len(cs.values) == res.value

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("seed", range(10))
    def test_bipartite_matches_svd(self, dims, seed):
        st = ms.random_pure(ms.DimensionProfile(dims), seed)
        dec = ms.schmidt_decompose(st, ms.SubsystemSet((1,)))
        cs = ms.pure_schmidt_coefficients(st)
        assert np.allclose(cs.values, dec.coefficients, atol=1e-8)
        assert ms.generalized_eof(cs) == pytest.approx(
            ms.entanglement_entropy(dec), abs=1e-9
        )

    def test_tie_branches_share_entropy(self):
        for state in (ms.w_state(3), ms.ghz_state(3)):
            cs = ms.pure_schmidt_coefficients(state)
            ents = cs.provenance["branch_entropies"]
            ties = cs.provenance["ties"]
            assert len(ties) == 3  # symmetric states: every party maximizes
            vals = [ents[t] for t in ties]
            assert max(vals) - min(vals) < 1e-12


class TestMaxEntropyElement:
    def test_w3_reduction_reaches_maximal_entropy(self):
        red = ms.reduce(ms.w_state(3), ms.SubsystemSet((2, 3)))
        elem, cs = ms.max_entropy_ensemble_element(red, 2)
        assert np.allclose(cs.values, [1 / np.sqrt(2)] * 2, rtol=0, atol=1e-12)
        assert cs.provenance["achieved_entropy"] == pytest.approx(1.0, abs=1e-12)

    def test_pure_projector_returns_state_itself(self):
        st = ms.random_pure(ms.DimensionProfile((2, 2)), 41)
        rank = ms.schmidt_decompose(st, ms.SubsystemSet((1,))).rank
        elem, _ = ms.max_entropy_ensemble_element(st.density(), rank)
        assert abs(abs(np.vdot(elem.amplitudes, st.amplitudes)) - 1.0) < 1e-9

    def test_ghz_reduction_rank_one_element(self):
        red = ms.reduce(ms.ghz_state(3), ms.SubsystemSet((2, 3)))
        elem, cs = ms.max_entropy_ensemble_element(red, 1)
        assert cs.values == (1.0,)
        overlaps = [abs(elem.amplitudes[0]), abs(elem.amplitudes[3])]
        assert max(overlaps) == pytest.approx(1.0, abs=1e-9)

    def test_rank_one_element_exists_even_for_entangled_state(self):
        # |00> lies in the range of the W_3 pair reduction, so a rank-1
        # element is available even though no rank-1 ensemble exists
        red = ms.reduce(ms.w_state(3), ms.SubsystemSet((2, 3)))
        elem, cs = ms.max_entropy_ensemble_element(red, 1, FAST)
        assert len(cs.values) == 1 and cs.values[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (2, 4)])
    @pytest.mark.parametrize("s", range(3))
    def test_rank_one_element_of_a_product_mixture(self, dims, s):
        # (2,4) takes the qubit-pencil product route, the others the ensemble search
        rho = product_mixture(dims, s)
        elem, cs = ms.max_entropy_ensemble_element(rho, 1)
        assert cs.values == (1.0,) and cs.provenance["rule"] == "fully-separable"
        assert ms.factorize(elem).label == ms.FULLY_SEPARABLE
        w, v = ms.spectrum(rho)
        kept = v[:, w > number.EIGEN_WEIGHT_FLOOR]
        assert np.linalg.norm(kept @ (kept.conj().T @ elem.amplitudes) - elem.amplitudes) <= 1e-9

    def test_unreachable_rank_raises(self):
        # every state in span{|00>, |01>} is product: no rank-2 element exists
        prof = ms.DimensionProfile((2, 2))
        a = ms.basis_state(prof, (0, 0))
        b = ms.basis_state(prof, (0, 1))
        rho = DensityMatrix(
            prof,
            0.5 * np.outer(a.amplitudes, a.amplitudes.conj())
            + 0.5 * np.outer(b.amplitudes, b.amplitudes.conj()),
        )
        with pytest.raises(SearchError):
            ms.max_entropy_ensemble_element(rho, 2, FAST)

    def test_one_party_range_gives_its_first_eigen_element(self):
        rho = DensityMatrix(ms.DimensionProfile((3,)), np.eye(3) / 3)
        elem, cs = ms.max_entropy_ensemble_element(rho, 1)
        w, v = ms.spectrum(rho)
        assert np.array_equal(elem.amplitudes, v[:, 0])
        assert cs.values == (1.0,)
        assert cs.provenance["rule"] == "single-party"
        assert cs.provenance["achieved_entropy"] == 0.0
        with pytest.raises(SearchError):
            ms.max_entropy_ensemble_element(rho, 2)

    @pytest.mark.parametrize("target", [0, -1])
    def test_nonpositive_rank_target_rejected(self, target):
        red = ms.reduce(ms.w_state(3), ms.SubsystemSet((2, 3)))
        with pytest.raises(ValueError, match="target rank must be >= 1"):
            ms.max_entropy_ensemble_element(red, target)


# (dims, seed) -> coefficients; (2,3,4) seed 0 runs the two-party Nelder-Mead element search
VALIDATION_CASES = {
    ((2, 2, 3), 7): (0.5865810506029693, 0.5000000000000001, 0.49999999999999983,
                     0.3583911037236264, 0.16576636524119623),
    ((2, 3, 4), 0): (0.5111858101701996, 0.5000000025737633, 0.4999999974262365,
                     0.3686002332609508, 0.24786391597403074, 0.20343651264860999),
}


@pytest.mark.parametrize("dims, seed", list(VALIDATION_CASES))
def test_coefficients_validate_only_their_input(dims, seed, monkeypatch):
    """Search states are built from validated data without PureState's validator."""
    state = ms.random_pure(ms.DimensionProfile(dims), seed)
    calls = []
    real = PureState.__post_init__

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(PureState, "__post_init__", spy)
    cs = ms.pure_schmidt_coefficients(state)
    assert calls == []
    assert np.allclose(cs.values, VALIDATION_CASES[dims, seed], rtol=0, atol=1e-12)


def _random_pair_density(rank: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return DensityMatrix(ms.DimensionProfile((2, 2)), rho / np.trace(rho).real)


def _pair_entropy(vec: np.ndarray) -> float:
    p = np.linalg.svd(vec.reshape(2, 2), compute_uv=False) ** 2
    return ms.entropy_bits(p / p.sum())


class TestClosedFormTwoQubitElement:
    """Two-qubit rank-2 elements come from the top Takagi vector, not a search."""

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_no_range_state_beats_it(self, rank, seed):
        rho = _random_pair_density(rank, seed)
        _, cs = ms.max_entropy_ensemble_element(rho, 2)
        got = cs.provenance["achieved_entropy"]
        assert got <= 1.0 + 1e-12
        w, v = np.linalg.eigh(rho.matrix)
        basis = v[:, w > 1e-10]
        assert basis.shape[1] == rank
        rng = np.random.default_rng(100 + seed)

        def entropy_at(x: np.ndarray) -> float:
            u = x[:rank] + 1j * x[rank:]
            return _pair_entropy(basis @ (u / np.linalg.norm(u)))

        for _ in range(200):
            assert got >= entropy_at(rng.normal(size=2 * rank)) - 1e-10
        # reference: Nelder-Mead over the range, best of a few restarts
        reference = max(
            -minimize(
                lambda x: -entropy_at(x),
                rng.normal(size=2 * rank),
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
            ).fun
            for _ in range(4)
        )
        assert got >= reference - 1e-10

    def test_runs_no_optimizer(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the two-qubit element must not be searched for")

        monkeypatch.setattr("multischmidt.coefficients.minimize", refuse)
        elem, cs = ms.max_entropy_ensemble_element(_random_pair_density(3, 7), 2)
        assert len(cs.values) == 2
        want = _pair_entropy(elem.amplitudes)
        assert cs.provenance["achieved_entropy"] == pytest.approx(want, abs=1e-12)


class TestGeneralizedEof:
    @pytest.mark.parametrize("values", [[1.0], [0.0, 0.0]], ids=["one", "all-zero"])
    def test_trivial(self, values):
        assert ms.generalized_eof(values) == 0.0

    def test_ghz3_value(self):
        cs = ms.pure_schmidt_coefficients(ms.ghz_state(3))
        assert ms.generalized_eof(cs) == pytest.approx(1.5, abs=1e-9)

    def test_w3_value_against_oracle(self):
        want = [1 / np.sqrt(3), 1 / np.sqrt(6), 0.5, 0.5]
        oracle = -sum(c * c * np.log2(c * c) for c in want)
        cs = ms.pure_schmidt_coefficients(ms.w_state(3))
        assert ms.generalized_eof(cs) == pytest.approx(oracle, abs=1e-3)
        assert oracle == pytest.approx(1.9591, abs=1e-3)

    def test_permutation_invariance(self):
        vals = (0.8, 0.5, 0.33166247903554)
        assert ms.generalized_eof(vals) == pytest.approx(
            ms.generalized_eof(vals[::-1]), abs=1e-12
        )

    @pytest.mark.parametrize(
        "values, message",
        [((0.8, 0.6, 0.0), "positive"), ((0.6, -0.8), "positive"), ((0.6, 0.8), "descending")],
        ids=["zero", "negative", "ascending"],
    )
    def test_coefficient_set_validation(self, values, message):
        with pytest.raises(ValueError, match=message):
            ms.CoefficientSet(values, {})


def _werner(p):
    """p |Phi+><Phi+| + (1 - p) I/4 on two qubits."""
    phi = ms.bell_state().amplitudes
    return DensityMatrix(ms.DimensionProfile((2, 2)), p * np.outer(phi, phi.conj()) + (1 - p) * np.eye(4) / 4)


def _pure_mixture(dims):
    """The 0.5 / 0.3 / 0.2 mixture of random_pure seeds 0-2 on ``dims``."""
    prof = ms.DimensionProfile(dims)
    states = [ms.random_pure(prof, seed) for seed in range(3)]
    mat = sum(w * np.outer(st.amplitudes, st.amplitudes.conj()) for w, st in zip((0.5, 0.3, 0.2), states))
    return DensityMatrix(prof, mat)


class TestMixedEof:
    def test_pure_ghz_projector(self):
        b = ms.mixed_generalized_eof(ms.ghz_state(3).density())
        assert b.exact
        assert b.lower == pytest.approx(1.5, abs=1e-9)
        assert b.upper == pytest.approx(1.5, abs=1e-9)

    def test_product_projector(self):
        b = ms.mixed_generalized_eof(ms.basis_state(ms.qubits(3), (0, 0, 0)).density())
        assert b.exact and b.lower == 0.0 and b.upper == 0.0

    def test_separable_mixture_upper_zero(self):
        prof = ms.qubits(3)
        a = ms.basis_state(prof, (0, 0, 0))
        b = ms.basis_state(prof, (1, 1, 1))
        rho = DensityMatrix(
            prof,
            0.5 * np.outer(a.amplitudes, a.amplitudes.conj())
            + 0.5 * np.outer(b.amplitudes, b.amplitudes.conj()),
        )
        bounds = ms.mixed_generalized_eof(rho)
        assert bounds.upper == 0.0

    def test_entangled_mixture_reports_inexact_upper(self):
        red = ms.reduce(ms.w_state(3), ms.SubsystemSet((2, 3)))
        bounds = ms.mixed_generalized_eof(red, FAST)
        assert not bounds.exact
        assert bounds.lower == 0.0
        assert bounds.upper > 0.0

    @pytest.mark.parametrize("p", [0.1, 0.2, 1 / 3])
    def test_ppt_decisive_separable_is_exact_zero(self, p):
        """Werner states at p <= 1/3 are PPT on 2 x 2, which proves them separable: no search."""
        bounds = ms.mixed_generalized_eof(_werner(p))
        assert (bounds.lower, bounds.upper, bounds.exact) == (0.0, 0.0, True)
        assert bounds.trace["route"] == "ppt-decisive-separable"

    @pytest.mark.parametrize(
        "rho",
        [
            _werner(0.5),
            _pure_mixture((3, 3)),
            _pure_mixture((2, 2, 3)),
            ms.reduce(ms.w_state(3), ms.SubsystemSet((2, 3))),
        ],
        ids=["werner-0.5", "haar-3x3", "haar-2x2x3", "w3-reduction"],
    )
    def test_npt_input_takes_the_eigen_average_without_search(self, rho, monkeypatch):
        """An NPT cut rules out a product ensemble, so no target-1 search runs."""

        def refuse(*args, **kwargs):
            raise AssertionError("searched for a product ensemble")

        monkeypatch.setattr(number, "minimize", refuse)
        bounds = ms.mixed_generalized_eof(rho)
        w, v = ms.spectrum(rho)
        keep = np.flatnonzero(w > number.EIGEN_WEIGHT_FLOOR)
        eigen_average = sum(
            w[i] / w[keep].sum()
            * ms.generalized_eof(ms.pure_schmidt_coefficients(ms.normalized_state(rho.profile, v[:, i])))
            for i in keep
        )
        assert (bounds.lower, bounds.exact, bounds.trace["route"]) == (0.0, False, "eigen-ensemble")
        assert bounds.upper == pytest.approx(eigen_average, abs=1e-9)

    def test_ppt_runs_once_per_matrix(self, monkeypatch):
        """The EoF's own PPT stage and find_ensemble's share one verdict: one test for one cut."""
        calls = {"ppt": 0}
        monkeypatch.setattr(number, "ppt_entangled", _counting(calls, "ppt", number.ppt_entangled))
        bounds = ms.mixed_generalized_eof(product_mixture((3, 3), 0))
        assert calls["ppt"] == 1
        assert (bounds.upper, bounds.exact, bounds.trace["route"]) == (0.0, True, "product-ensemble")


def _counting(calls, key, real):
    def spy(*args, **kwargs):
        calls[key] += 1
        return real(*args, **kwargs)

    return spy


def test_equal_members_are_searched_once(monkeypatch):
    """W4's four reductions are one matrix: one search, the same coefficients bit for bit."""
    from multischmidt import coefficients

    calls = {"searched": 0}
    spy = _counting(calls, "searched", coefficients._searched_element)
    monkeypatch.setattr(coefficients, "_searched_element", spy)
    cs = ms.pure_schmidt_coefficients(ms.w_state(4))
    assert calls["searched"] == 1
    # the coefficients of the w4 golden sidecar, as searched once per member
    want = [0.6123724356957945, 0.40824829046386296, 0.3535533905932739,
            0.3535533905932738, 0.35355339059327356, 0.28867513459481275]
    assert [v.hex() for v in cs.values] == [v.hex() for v in want]


class TestOneStackedCoefficientPass:
    """sigma from the cut record, reductions without re-validation, one element stage."""

    @pytest.mark.parametrize(
        "state",
        [ms.random_pure(ms.DimensionProfile((2, 2, 2)), 7), ms.w_state(3)],
        ids=["Haar222#7", "W3"],
    )
    def test_call_counts(self, state, monkeypatch):
        from multischmidt import bipartite, coefficients, core

        calls = dict.fromkeys(
            ("reduce", "density", "local_weights", "schmidt_decompose", "element", "svd", "eigh"), 0
        )
        for module in (core, coefficients):
            for name in ("reduce", "local_weights"):
                monkeypatch.setattr(
                    module, name, _counting(calls, name, getattr(core, name)), raising=False
                )
        for module in (bipartite, coefficients):
            spy = _counting(calls, "schmidt_decompose", bipartite.schmidt_decompose)
            monkeypatch.setattr(module, "schmidt_decompose", spy)
        monkeypatch.setattr(
            DensityMatrix, "__post_init__", _counting(calls, "density", DensityMatrix.__post_init__)
        )
        monkeypatch.setattr(
            coefficients,
            "_max_entropy_element",
            _counting(calls, "element", coefficients._max_entropy_element),
        )
        monkeypatch.setattr(core, "_svd", _counting(calls, "svd", core._svd))
        monkeypatch.setattr(np.linalg, "eigh", _counting(calls, "eigh", np.linalg.eigh))
        ms.pure_schmidt_coefficients(state)
        assert calls == {
            "reduce": 0,
            "density": 0,
            "local_weights": 0,
            "schmidt_decompose": 0,
            "element": 1,
            "svd": 4,
            "eigh": 2,
        }


def _pair_reductions(dims, seeds):
    """The two-qubit reductions of seeded Haar states on ``dims``."""
    out = []
    for seed in seeds:
        state = ms.random_pure(ms.DimensionProfile(dims), seed)
        m = state.party_count
        for i in range(1, m + 1):
            rho = ms.reduce(state, ms.SubsystemSet((i,)).complement(m))
            if rho.profile.dims == (2, 2):
                out.append(rho)
    return out


ELEMENT_STACKS = {
    "Haar222": _pair_reductions((2, 2, 2), range(4)),
    "Haar223": _pair_reductions((2, 2, 3), range(4)),
    "W3": [ms.reduce(ms.w_state(3), ms.SubsystemSet((i,)).complement(3)) for i in (1, 2, 3)],
    "k234": [_random_pair_density(k, seed) for seed in range(2) for k in (2, 3, 4)],
}


class TestStackedTwoQubitElements:
    @pytest.mark.parametrize("name", list(ELEMENT_STACKS))
    def test_each_matches_its_single_call(self, name):
        from multischmidt.coefficients import _max_entropy_element
        from multischmidt.number import _Engine

        rhos = ELEMENT_STACKS[name]
        engine = _Engine(ms.DEFAULT_BUDGET, DEFAULT_RANK_TOL)
        stacked = _max_entropy_element([(rho, 2) for rho in rhos], engine, ms.DEFAULT_BUDGET)
        assert len(stacked) == len(rhos)
        for rho, (elem, cs) in zip(rhos, stacked):
            _, want = ms.max_entropy_ensemble_element(rho, 2)
            assert len(cs.values) == 2
            assert np.allclose(cs.values, want.values, rtol=0, atol=1e-15)
            got = cs.provenance["achieved_entropy"]
            assert abs(got - want.provenance["achieved_entropy"]) <= 1e-15
            assert got == pytest.approx(_pair_entropy(elem.amplitudes), abs=1e-12)

    def test_an_all_product_member_raises(self):
        from multischmidt.coefficients import _max_entropy_element
        from multischmidt.number import _Engine

        # span{|00>, |01>} holds only products
        products = DensityMatrix(ms.DimensionProfile((2, 2)), np.diag([0.5, 0.5, 0.0, 0.0]))
        engine = _Engine(ms.DEFAULT_BUDGET, DEFAULT_RANK_TOL)
        members = [(_random_pair_density(2, 0), 2), (products, 2)]
        with pytest.raises(SearchError, match="every state in the range is a product"):
            _max_entropy_element(members, engine, ms.DEFAULT_BUDGET)


def _reference_score(state: PureState, rank_target: int) -> float:
    """Entropy minus 50 x rank penalty, each from its own spectra, as the search defines it."""

    def weights(i):
        return local_weights(state.amplitudes, state.profile.dims, ms.SubsystemSet((i,)))

    first = weights(1)
    if rank_target == 1:
        spectra = [weights(i) for i in (1, 2)]
        penalty = float(sum(1.0 - p[0] for p in spectra))
    else:
        p = np.sort(weights(1))[::-1]
        penalty = float(np.sum(p[rank_target:]))
    return ms.entropy_bits(first) - 50.0 * penalty


class TestTwoPartySearchObjective:
    @pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 4)])
    @pytest.mark.parametrize("rank_target", [1, 2, 3])
    def test_score_is_the_reference_bitwise(self, dims, rank_target):
        from multischmidt.coefficients import _pair_score

        prof = ms.DimensionProfile(dims)
        rng = np.random.default_rng(sum(dims) + 10 * rank_target)
        g = rng.normal(size=(prof.total_dim, 3)) + 1j * rng.normal(size=(prof.total_dim, 3))
        basis = np.linalg.qr(g)[0]
        for _ in range(5):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            vec = basis @ u
            amps = vec / np.linalg.norm(vec)
            want = _reference_score(PureState(prof, amps), rank_target)
            assert _pair_score(amps, dims, rank_target) == want

    @pytest.mark.parametrize("rank_target, per_point", [(1, 2), (2, 1)])
    def test_one_spectrum_per_point(self, rank_target, per_point, monkeypatch):
        from multischmidt import coefficients, core

        counts = {"svd": 0, "points": 0}
        searching = []
        real_svd = core._svd

        def svd(*args, **kwargs):
            counts["svd"] += bool(searching)
            return real_svd(*args, **kwargs)

        def counted_minimize(fun, x0, **kwargs):
            def point(x):
                counts["points"] += 1
                return fun(x)

            searching.append(True)
            try:
                return minimize(point, x0, **kwargs)
            finally:
                searching.pop()

        monkeypatch.setattr(core, "_svd", svd)
        monkeypatch.setattr(coefficients, "minimize", counted_minimize)
        rng = np.random.default_rng(5)
        g = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        rho = g @ g.conj().T
        rho = DensityMatrix(ms.DimensionProfile((2, 3)), rho / np.trace(rho).real)
        ms.max_entropy_ensemble_element(rho, rank_target, FAST)
        assert counts["points"] > 0
        assert counts["svd"] == per_point * counts["points"]


HAAR222_7 = ms.random_pure(ms.DimensionProfile((2, 2, 2)), 7)
HAAR34_1 = ms.random_pure(ms.DimensionProfile((3, 4)), 1)
HAAR223_0 = ms.random_pure(ms.DimensionProfile((2, 2, 3)), 0)
HAAR232_0 = ms.random_pure(ms.DimensionProfile((2, 3, 2)), 0)


class TestOneSpectralPrimitive:
    """Pure-state spectra and ranks from core.local_weights and core.weight_rank."""

    @pytest.mark.parametrize(
        "call, state, want",
        [
            # three qubits: the three cuts, then the pair concurrences in closed form
            (ms.pure_schmidt_number, HAAR222_7, (3, 0, 0)),
            (ms.pure_schmidt_coefficients, HAAR222_7, (4, 2, 0)),
            (ms.pure_schmidt_coefficients, ms.w_state(3), (4, 2, 0)),
            # otherwise the three cuts, then one PPT eigvalsh per 2 x 2 or 2 x 3 reduction profile
            (ms.pure_schmidt_number, HAAR223_0, (3, 0, 2)),
            (ms.pure_schmidt_number, HAAR232_0, (3, 0, 3)),
            # only maximizer reductions of value > 1 are built: none for GHZ3 up to local unitaries
            (ms.pure_schmidt_coefficients, ms.ghz_state(3), (3, 0, 1)),
            (ms.pure_schmidt_coefficients, LU_GHZ3, (3, 0, 1)),
            (ms.pure_schmidt_coefficients, HAAR223_0, (4, 2, 2)),
            # a two-party coefficient call is one Schmidt decomposition
            (ms.pure_schmidt_coefficients, HAAR34_1, (1, 0, 0)),
        ],
        ids=[
            "number-Haar222#7",
            "coeffs-Haar222#7",
            "coeffs-W3",
            "number-Haar223#0",
            "number-Haar232#0",
            "coeffs-GHZ3",
            "coeffs-LU-GHZ3",
            "coeffs-Haar223#0",
            "coeffs-Haar34#1",
        ],
    )
    def test_lapack_calls(self, call, state, want, monkeypatch):
        """(svd, eigh, eigvalsh) calls of one public call, through the core kernels."""
        from multischmidt import core

        calls = dict.fromkeys(("svd", "eigh", "eigvalsh"), 0)
        monkeypatch.setattr(core, "_svd", _counting(calls, "svd", core._svd))
        real_eigh = core._eigh

        def eigh(a, compute_v=True):
            calls["eigh" if compute_v else "eigvalsh"] += 1
            return real_eigh(a, compute_v)

        monkeypatch.setattr(core, "_eigh", eigh)
        call(state)
        assert (calls["svd"], calls["eigh"], calls["eigvalsh"]) == want

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 4)])
    @pytest.mark.parametrize("seed", range(2))
    def test_two_party_provenance_follows_the_schmidt_rank(self, dims, seed):
        prof = ms.DimensionProfile(dims)
        product = ms.pure_schmidt_coefficients(ms.random_product(prof, seed))
        assert product.values == (1.0,)
        assert product.provenance == {"rule": "fully-separable", "exact": True}
        entangled = ms.pure_schmidt_coefficients(ms.random_pure(prof, seed))
        assert len(entangled.values) == min(dims)
        assert entangled.provenance == {"rule": "bipartite-svd", "exact": True}

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_element_provenance_follows_the_schmidt_rank(self, dims):
        prof = ms.DimensionProfile(dims)
        products = [ms.random_product(prof, seed) for seed in (1, 2)]
        separable = DensityMatrix(
            prof, sum(0.5 * np.outer(s.amplitudes, s.amplitudes.conj()) for s in products)
        )
        _, cs = ms.max_entropy_ensemble_element(separable, 1, FAST)
        assert cs.values == (1.0,)
        assert cs.provenance["rule"] == "fully-separable"
        entangled = ms.random_pure(prof, 3).density()
        _, cs = ms.max_entropy_ensemble_element(entangled, 2, FAST)
        assert len(cs.values) == 2
        assert cs.provenance["rule"] == "bipartite-svd"
