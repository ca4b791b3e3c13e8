"""The lean per-state kernels against the numpy formulations they replaced.

Each reference below is the earlier code of a primitive, kept verbatim as
an oracle: the rewritten kernels skip numpy's dispatch on tiny arrays and
0-d values, and must give the same counts and bytes. The squared pair
concurrences are the one exception: numpy may run complex arithmetic on 0-d
arrays through fused multiply-add loops, so there the old formulation is
matched within a few units of rounding and the new one bitwise against
numpy's scalar arithmetic, which evaluates the same expression in the same
order.
"""
import math
from itertools import combinations

import numpy as np
import pytest

import multischmidt as ms
from multischmidt import bipartite, core, loci, number
from multischmidt.core import SubsystemSet, unfold, weight_rank


def old_weight_rank(weights, tol=core.DEFAULT_RANK_TOL):
    if np.ndim(weights) > 1:
        return np.count_nonzero(weights > tol * weights[..., :1], axis=-1)
    top = float(np.max(weights))
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(weights > tol * top))


def old_unfold(amplitudes, dims, side):
    lead = amplitudes.shape[:-1]
    k = len(lead)
    side_axes = [k + i - 1 for i in side.indices]
    rest_axes = [k + a for a in range(len(dims)) if a + 1 not in side]
    rows = math.prod(dims[a - k] for a in side_axes)
    tensor = amplitudes.reshape(lead + tuple(dims))
    return tensor.transpose(list(range(k)) + side_axes + rest_axes).reshape(lead + (rows, -1))


def old_partial_transpose(mat, cut, profile):
    m = profile.party_count
    lead = mat.shape[:-2]
    k = len(lead)
    cut_axes = [k + i - 1 for i in cut.indices]
    rest_axes = [k + a for a in range(m) if a + 1 not in cut]
    d_cut = math.prod(profile.dims[i - 1] for i in cut.indices)
    da, db = d_cut, profile.total_dim // d_cut
    t = mat.reshape(lead + profile.dims + profile.dims)
    perm = list(range(k)) + cut_axes + rest_axes + [m + a for a in cut_axes + rest_axes]
    blk = t.transpose(perm).reshape(lead + (da, db, da, db))
    return blk.swapaxes(k, k + 2).reshape(lead + (da * db, da * db))


def old_pair_concurrences(amplitudes, weights):
    dets = 4.0 * np.array([w[0] * w[1] for w in weights])
    x, y = amplitudes.reshape(2, 2, 2)
    tau = 4.0 * abs(loci._polar(x, y) ** 2 - loci._polar(x, x) * loci._polar(y, y))
    return (dets.sum() - 2.0 * dets - tau) / 2.0


def scalar_pair_concurrences(amplitudes, weights):
    """The same expression on numpy scalars (x[0, 0] is a scalar, x[..., 0, 0] a 0-d array)."""

    def polar(x, y):
        return x[0, 0] * y[1, 1] + x[1, 1] * y[0, 0] - x[0, 1] * y[1, 0] - x[1, 0] * y[0, 1]

    dets = [4.0 * (w[0] * w[1]) for w in weights]
    x, y = amplitudes.reshape(2, 2, 2)
    tau = 4.0 * abs(polar(x, y) ** 2 - polar(x, x) * polar(y, y))
    total = dets[0] + dets[1] + dets[2]
    return [float((total - 2.0 * d - tau) / 2.0) for d in dets]


def _density(profile, rank, seed):
    """The equal mixture of ``rank`` seeded Haar states on ``profile``."""
    kets = [ms.random_pure(profile, seed + j).amplitudes for j in range(rank)]
    return ms.DensityMatrix(profile, sum(np.outer(k, k.conj()) for k in kets) / rank)


def _hexes(values):
    return [float(v).hex() for v in values]


class TestWeightRank:
    TIE = 0.75 * core.DEFAULT_RANK_TOL  # exactly tol * top for top = 0.75

    @pytest.mark.parametrize(
        "weights",
        [
            [0.0, 0.0, 0.0],
            [0.75, TIE, TIE],
            [0.75, np.nextafter(TIE, 1.0), TIE, np.nextafter(TIE, 0.0)],
            [0.5, 0.5, 1e-17, -1e-17, -3e-16],
            [1.0, -1e-18],
            [-1e-18, 0.0],
            [-1e-18, -2e-18],
            [1.0],
            [0.0],
            [-1e-17],
            [np.nan, 0.5],
            [0.5, np.nan],
            [0.5, 0.25, np.nan],
            [np.nan],
            [np.inf, 1.0],
            [np.inf, -np.inf],
            [-np.inf],
            [1e-300, 1e-310, 5e-324],
            sorted([0.3, 0.2, 0.5, 1e-12, 0.0]),  # ascending, as eigvalsh returns
        ],
    )
    @pytest.mark.parametrize("tol", [core.DEFAULT_RANK_TOL, 1e-3, 0.5])
    def test_single_vectors_count_as_before(self, weights, tol):
        arr = np.array(weights, dtype=float)
        got = weight_rank(arr, tol)
        assert type(got) is int
        assert got == old_weight_rank(arr, tol)

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_spectra_count_as_before(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3, 4, 6, 8):
            w = np.sort(rng.uniform(size=n) ** rng.integers(1, 60))[::-1]
            for tol in (core.DEFAULT_RANK_TOL, 1e-3):
                assert weight_rank(w, tol) == old_weight_rank(w, tol)
                assert weight_rank(w[::-1].copy(), tol) == old_weight_rank(w[::-1].copy(), tol)

    def test_an_empty_vector_raises(self):
        with pytest.raises(ValueError):
            weight_rank(np.zeros(0))


SHAPES = [(2, 2, 3), (2, 3, 4), (2, 2, 2, 2)]


def _every_side(m):
    """Every nonempty proper subset of m parties, both sides of each cut."""
    return [SubsystemSet(c) for size in range(1, m) for c in combinations(range(1, m + 1), size)]


def _stack(rng, lead, n):
    return rng.normal(size=lead + (n,)) + 1j * rng.normal(size=lead + (n,))


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dims", SHAPES)
@pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3)])
def test_unfold_matches_the_old_formulation(dims, lead):
    rng = np.random.default_rng(len(lead))
    amps = _stack(rng, lead, math.prod(dims))
    for side in _every_side(len(dims)):
        got, want = unfold(amps, dims, side), old_unfold(amps, dims, side)
        assert _same_bytes(got, want)
        assert got.strides == want.strides
        # and the singular values the kernels take from it
        assert _same_bytes(core._svd(got, compute_uv=False), core._svd(want, compute_uv=False))


@pytest.mark.parametrize("dims", SHAPES)
@pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3)])
def test_partial_transpose_matches_the_old_formulation(dims, lead):
    rng = np.random.default_rng(7 + len(lead))
    profile = ms.DimensionProfile(dims)
    n = profile.total_dim
    mats = _stack(rng, lead + (n,), n)
    for cut in _every_side(len(dims)):
        got = bipartite.partial_transpose(mats, cut, profile)
        assert _same_bytes(got, old_partial_transpose(mats, cut, profile))
    if not lead:  # a DensityMatrix as well
        rho = _density(profile, rank=3, seed=1)
        for cut in _every_side(len(dims)):
            got = bipartite.partial_transpose(rho, cut)
            assert _same_bytes(got, old_partial_transpose(rho.matrix, cut, profile))


class TestBadCutsAfterACachedPlan:
    """A plan is cached per shape and cut; a bad cut is no plan and raises on every call."""

    PROFILE = ms.DimensionProfile((2, 2, 3))

    def _warm(self):
        rho = _density(self.PROFILE, rank=2, seed=0)
        bipartite.partial_transpose(rho, SubsystemSet((1,)))
        unfold(rho.eigensystem.vectors[:, 0], self.PROFILE.dims, SubsystemSet((1,)))
        bipartite._ppt_decides(self.PROFILE, SubsystemSet((1,)))
        return rho

    @pytest.mark.parametrize("cut", [(4,), (1, 2, 3), (2, 5)])
    def test_partial_transpose_and_ppt_raise_every_time(self, cut):
        rho = self._warm()
        for _ in range(3):
            with pytest.raises(ValueError):
                bipartite.partial_transpose(rho, SubsystemSet(cut))
            with pytest.raises(ValueError):
                bipartite._ppt_decides(self.PROFILE, SubsystemSet(cut))
            with pytest.raises(ValueError):
                bipartite._grouped_dims(self.PROFILE, SubsystemSet(cut))
            with pytest.raises(ValueError):
                ms.ppt_entangled(rho, SubsystemSet(cut))

    def test_unfold_of_a_missing_party_raises_every_time(self):
        self._warm()
        amps = np.zeros(12, dtype=complex)
        for _ in range(3):
            with pytest.raises(IndexError):
                unfold(amps, self.PROFILE.dims, SubsystemSet((4,)))

    def test_a_mismatched_profile_raises_every_time(self):
        rho = self._warm()
        for _ in range(3):
            with pytest.raises(ValueError):
                bipartite.partial_transpose(rho.matrix, SubsystemSet((1,)), ms.qubits(3))
            with pytest.raises(ValueError):
                unfold(rho.eigensystem.vectors[:, 0], (2, 2, 2), SubsystemSet((1,)))

    def test_a_good_cut_still_works_after_a_bad_one(self):
        rho = self._warm()
        with pytest.raises(ValueError):
            bipartite.partial_transpose(rho, SubsystemSet((4,)))
        got = bipartite.partial_transpose(rho, SubsystemSet((3,)))
        assert _same_bytes(got, old_partial_transpose(rho.matrix, SubsystemSet((3,)), self.PROFILE))


def _ckw_inputs():
    states = [ms.random_pure(ms.qubits(3), seed) for seed in range(50)]
    return states + [ms.w_state(3), ms.ghz_state(3)]


@pytest.mark.parametrize("state", _ckw_inputs(), ids=[f"haar{s}" for s in range(50)] + ["w3", "ghz3"])
def test_pair_concurrences_match_the_numpy_formulation(state):
    weights = [rec.weights for rec in ms.factorize(state)._party_records()]
    got = loci._pair_concurrences(state.amplitudes, weights)
    assert all(type(c) is float for c in got)
    assert _hexes(got) == _hexes(scalar_pair_concurrences(state.amplitudes, weights))
    old = old_pair_concurrences(state.amplitudes, weights)
    assert np.max(np.abs(np.array(got) - old)) <= 4 * np.finfo(float).eps
    margin = max(loci.CKW_MARGIN, 4.0 * core.DEFAULT_RANK_TOL)
    assert (min(got) <= margin) == bool(np.min(old) <= margin)


def test_stable_bytes_match_np_round():
    rng = np.random.default_rng(3)
    arr = _stack(rng, (4,), 6) * 10.0 ** rng.integers(-14, 2, size=(4, 6))
    arr[0, :2] = [-0.0, complex(-0.0, -1e-15)]
    for decimals in (9, 12):
        want = (np.round(arr, decimals) + (0.0 + 0.0j)).tobytes()
        assert number._stable_bytes(arr, decimals) == want


def test_ggev_workspace_is_queried_once_per_order(monkeypatch):
    queries = []
    real = loci._GGEV

    def spy(*args, **kwargs):
        if kwargs.get("lwork") == -1:
            queries.append(args[0].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(loci, "_GGEV", spy)
    monkeypatch.setattr(loci, "_GGEV_LWORK", {})
    rng = np.random.default_rng(0)
    for n in (3, 3, 5, 3, 5):
        a, b = _stack(rng, (2, n), n)
        loci._homogeneous_eigvals(a, b)
    assert queries == [3, 5]


def test_factorize_factors_are_the_party_sets():
    state = ms.normalized_state(
        ms.qubits(4), np.kron(ms.bell_state().amplitudes, ms.bell_state().amplitudes)
    )
    for _ in range(2):
        factors = ms.factorize(state).factors
        assert factors == (SubsystemSet((1, 2)), SubsystemSet((3, 4)))
