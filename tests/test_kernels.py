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
from scipy.linalg import eigvals

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


# ---- the range-line walk -------------------------------------------------------
#
# The rank-2 path of the mixed ladder: a range line's pencil drops, its rays
# and their margin test, the duplicate filter, the mixture solve and the
# witness check. Each old formulation below is the earlier code, kept as the
# oracle the rewritten kernel must match bit for bit.


def old_pencil_drops(a, b, tol):
    u, s, vh = core._svd(loci._PROBES[:, None, None] * a + b)  # the three members at once
    g = int(weight_rank(s**2, tol).max())
    best = int(np.argmax(s[:, g - 1] / s[:, 0]))
    left, right = u[best, :, :g].conj().T, vh[best, :g].conj().T
    alpha_h, beta_h = loci._homogeneous_eigvals(left @ a @ right, left @ b @ right)
    rays = np.column_stack([beta_h, -alpha_h])
    return g, rays / np.linalg.norm(rays, axis=1, keepdims=True)


def old_unit_state(profile, vec):
    return core._checked_state(profile, vec / np.linalg.norm(vec))


def old_dedupe_index(states):
    out = []
    for j, s in enumerate(states):
        if all(abs(np.vdot(states[i].amplitudes, s.amplitudes)) < 1.0 - 1e-9 for i in out):
            out.append(j)
    return out


def old_dyad_columns(states):
    cols = []
    for s in states:
        dyad = np.outer(s.amplitudes, s.amplitudes.conj()).reshape(-1)
        cols.append(np.concatenate([dyad.real, dyad.imag]))
    return np.column_stack(cols)


def _gaussian(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _assert_same_drops(a, b, tol=core.DEFAULT_RANK_TOL):
    g, rays = loci._pencil_drops(a, b, tol)
    with np.errstate(invalid="ignore", divide="ignore"):  # a zero member's 0 / 0
        g_old, rays_old = old_pencil_drops(a, b, tol)
    assert type(g) is int and g == g_old
    assert _same_bytes(rays, rays_old)
    return g


class TestPencilDrops:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 4), (4, 4), (2, 8)])
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_pencils(self, shape, seed):
        rng = np.random.default_rng(seed)
        assert _assert_same_drops(_gaussian(rng, *shape), _gaussian(rng, *shape)) == min(shape)

    @pytest.mark.parametrize("shape, rank", [((3, 3), 2), ((4, 4), 2), ((4, 4), 3), ((2, 8), 1)])
    @pytest.mark.parametrize("seed", range(4))
    def test_pencils_below_full_rank(self, shape, rank, seed):
        rng = np.random.default_rng(seed)
        left, right = _gaussian(rng, shape[0], rank), _gaussian(rng, rank, shape[1])
        a = left @ _gaussian(rng, rank, rank) @ right
        b = left @ _gaussian(rng, rank, rank) @ right
        assert _assert_same_drops(a, b) == rank

    @pytest.mark.parametrize("seed", range(4))
    def test_generic_rank_one(self, seed):
        rng = np.random.default_rng(seed)
        x = _gaussian(rng, 3, 1)  # every member is x (z y + w)^T
        assert _assert_same_drops(x @ _gaussian(rng, 1, 3), x @ _gaussian(rng, 1, 3)) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tied_probe_ratios(self, n):
        # z * a: every member has the spectrum of a times |z| = 1, and one ratio
        _assert_same_drops(np.diag(np.arange(1.0, n + 1)).astype(complex), np.zeros((n, n), complex))
        _assert_same_drops(np.eye(n, dtype=complex), np.zeros((n, n), complex))

    @pytest.mark.parametrize("member", range(3))
    def test_a_zero_member(self, member):
        # b = -z a makes that probe member exactly zero, its ratio 0 / 0
        rng = np.random.default_rng(member)
        a = _gaussian(rng, 3, 3)
        assert _assert_same_drops(a, -(loci._PROBES[member] * a)) == 3

    @pytest.mark.parametrize(
        "rows",
        [
            [[2.0, 1.0], [4.0, 2.0], [1.0, 0.5]],  # one ratio everywhere: the first
            [[2.0, 1.0], [4.0, 3.0], [1.0, 0.75]],  # a tie after the first
            [[1.0, 0.5], [0.0, 0.0], [1.0, 0.9]],  # a zero member wins as argmax's NaN
            [[1.0, 0.5], [1.0, 0.9], [0.0, 0.0]],
            [[1.0, 1e-5, 0.0], [1.0, 0.5, 1e-9], [1.0, 0.5, 0.25]],  # g from the last row
            [[1e-170, 1e-171], [1e-170, 1e-171], [1e-170, 1e-171]],  # squares underflow: g = 0
        ],
    )
    def test_generic_member_is_numpys_rank_and_argmax(self, rows):
        s = np.array(rows)
        with np.errstate(invalid="ignore"):
            g = int(weight_rank(s**2, core.DEFAULT_RANK_TOL).max())
            best = int(np.argmax(s[:, g - 1] / s[:, 0]))
        assert loci._generic_member(rows, core.DEFAULT_RANK_TOL) == (g, best)


def test_root_margin_at_the_floor_and_one_ulp_either_side():
    """The margin test counts a weight only strictly above ROOT_FLOOR times the row's top."""
    floor = number.ROOT_FLOOR
    rows = []
    for top in (1.0, 0.75, 0.3):
        edge = floor * top  # the weight that sits exactly on the floor
        for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
            rows += [[top, x, 0.0], [top, 0.2 * top, x], [top, x, -x]]
    spectra = np.array(rows)
    got = [core._row_rank(row, floor) for row in spectra.tolist()]
    assert got == weight_rank(spectra, floor).tolist()
    assert got[:3] == [1, 2, 1] and got[3:6] == [1, 2, 1] and got[6:9] == [2, 3, 2]


@pytest.mark.parametrize("seed", range(10))
def test_row_rank_is_the_stacked_weight_rank(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 4, 9):
        spectra = -np.sort(-rng.uniform(size=(5, n)) ** rng.integers(1, 60, size=(5, 1)), axis=1)
        for tol in (core.DEFAULT_RANK_TOL, number.ROOT_FLOOR, 0.5):
            got = [core._row_rank(row, tol) for row in spectra.tolist()]
            assert got == weight_rank(spectra, tol).tolist()


def _line(dims, seed):
    """A seeded range line: the orthonormal eigenvectors v1, v2 of a rank-2 mixture."""
    rho = _density(ms.DimensionProfile(dims), rank=2, seed=seed)
    v = rho.eigensystem.vectors
    return rho, v[:, 0], v[:, 1]


LINE_DIMS = [(3, 3), (2, 4), (2, 2, 2), (2, 2, 3), (2, 2, 2, 2)]


@pytest.mark.parametrize("dims", LINE_DIMS)
@pytest.mark.parametrize("seed", range(3))
def test_unit_state_of_strided_columns(dims, seed):
    profile = ms.DimensionProfile(dims)
    v = _density(profile, rank=3, seed=seed).eigensystem.vectors
    assert not v[:, 0].flags.c_contiguous
    for i in range(v.shape[1]):
        got = core._unit_state(profile, v[:, i]).amplitudes
        assert _same_bytes(got, old_unit_state(profile, v[:, i]).amplitudes)


@pytest.mark.parametrize("dims", LINE_DIMS)
@pytest.mark.parametrize("seed", range(3))
def test_stacked_rays_are_each_rays_unit_state(dims, seed):
    """The roots a*v1 + b*v2 and v1, v2, built and normalized as one stack."""
    _, v1, v2 = _line(dims, seed)
    coeffs = _gaussian(np.random.default_rng(seed), 4, 2)
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    profile = ms.DimensionProfile(dims)
    combos = np.concatenate([coeffs[:, :1] * v1 + coeffs[:, 1:] * v2, (v1, v2)])
    units, states = core._unit_states(profile, combos)
    want = [old_unit_state(profile, a * v1 + b * v2) for a, b in coeffs]
    want += [old_unit_state(profile, v1), old_unit_state(profile, v2)]
    assert not units.flags.writeable
    for st, unit, old in zip(states, units, want):
        assert st.profile == profile and st.amplitudes is not None
        assert _same_bytes(st.amplitudes, old.amplitudes) and _same_bytes(unit, old.amplitudes)


@pytest.mark.parametrize("dims", LINE_DIMS)
@pytest.mark.parametrize("seed", range(4))
def test_reconstruction_error_is_numpys_norm(dims, seed):
    rho = _density(ms.DimensionProfile(dims), rank=2, seed=seed)
    w, v = ms.spectrum(rho)
    weights, states = number._Engine._eigen_elements(rho, w, v)
    cand = number.EnsembleCandidate(tuple(float(p) for p in weights), tuple(states))
    diff = cand.reconstruct() - rho.matrix
    for arr in (diff, diff.T, diff[:, ::2], diff[0], (1e-9 * diff).T):
        got = core._norm(arr)
        assert type(got) is float and got == float(np.linalg.norm(arr))


@pytest.mark.parametrize("dims", LINE_DIMS)
@pytest.mark.parametrize("seed", range(3))
def test_dedupe_index_keeps_the_same_rays(dims, seed):
    _, v1, v2 = _line(dims, seed)
    profile = ms.DimensionProfile(dims)
    rng = np.random.default_rng(seed)
    base = [old_unit_state(profile, a * v1 + b * v2) for a, b in _gaussian(rng, 4, 2)]
    first = base[0].amplitudes
    across = v1 - np.vdot(first, v1) * first  # the line's direction orthogonal to base[0]
    across /= np.linalg.norm(across)

    def at_overlap(gap):  # the line's state whose overlap with base[0] is 1 - gap
        t = np.arccos(1.0 - gap)
        return core._checked_state(profile, np.cos(t) * first + np.sin(t) * across)

    copies = [
        core._checked_state(profile, np.exp(0.7j) * base[1].amplitudes),  # a phase: a duplicate
        at_overlap(1e-8),  # near, but not within 1e-9
        at_overlap(1e-10),  # within 1e-9 of base[0]
        old_unit_state(profile, v1),
        old_unit_state(profile, v1),
    ]
    states = base + copies
    order = rng.permutation(len(states))
    for seq in (states, [states[j] for j in order]):
        got = number._dedupe_index(seq)
        assert got == old_dedupe_index(seq)
        assert len(got) == len(seq) - 3


@pytest.mark.parametrize("dims", LINE_DIMS)
@pytest.mark.parametrize("count", [1, 3, 5])
def test_dyad_columns_are_the_column_stack(dims, count):
    _, v1, v2 = _line(dims, count)
    profile = ms.DimensionProfile(dims)
    coeffs = _gaussian(np.random.default_rng(count), count, 2)
    states = [old_unit_state(profile, a * v1 + b * v2) for a, b in coeffs]
    got, want = number._dyad_columns(states), old_dyad_columns(states)
    assert _same_bytes(np.ascontiguousarray(got), want)
    # nnls reads both as the same C-ordered matrix
    rho = _density(profile, rank=2, seed=count)
    target = rho.matrix.reshape(-1)
    b_vec = np.concatenate([target.real, target.imag])
    x, res = number.nnls(got, b_vec)
    x_old, res_old = number.nnls(want, b_vec)
    assert _same_bytes(x, x_old) and res == res_old


@pytest.mark.parametrize(
    "bad",
    [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf), complex(np.inf, np.inf)],
    ids=["nan", "inf", "-inf", "nan-imag", "-inf-imag", "inf-both"],
)
@pytest.mark.parametrize("side", ["a", "b", "both"])
def test_homogeneous_eigvals_still_raise_on_non_finite_input(bad, side):
    rng = np.random.default_rng(0)
    a, b = _gaussian(rng, 3, 3), _gaussian(rng, 3, 3)
    if side in ("a", "both"):
        a[1, 2] = bad
    if side in ("b", "both"):
        b[0, 0] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        loci._homogeneous_eigvals(a, b)


def test_homogeneous_eigvals_accept_finite_input_whose_squares_overflow():
    a = np.diag([1e200, 1.0]).astype(complex)  # |a|^2 overflows; scipy's check passes it
    b = np.eye(2, dtype=complex)
    alpha, beta = loci._homogeneous_eigvals(a, b)
    want = eigvals(a, b, homogeneous_eigvals=True)
    assert np.array_equal(alpha, want[0]) and np.array_equal(beta, want[1])


# ---- three-party reductions -----------------------------------------------------


def test_decided_reductions_build_no_density_matrix(monkeypatch):
    """A Haar (2,2,3) state whose reductions PPT all decides calls _cut_reductions not at all."""
    calls = []
    real = number._cut_reductions

    def spy(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(number, "_cut_reductions", spy)
    for seed in range(20):
        res = ms.pure_schmidt_number(ms.random_pure(ms.DimensionProfile((2, 2, 3)), seed))
        assert res.exact
        assert all(p["reduction_exact"] for p in res.branch_trace["per_party"])
    assert calls == []
    # four parties leave every reduction to the ladder, built in one call
    ms.pure_schmidt_number(ms.random_pure(ms.qubits(4), 0))
    assert calls == [4]


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3)])
def test_stacked_partial_transposes_need_no_symmetrizing(dims):
    """The cut matrices are exactly Hermitian, so (pt + pt^dag)/2 changes no bit of eigvalsh."""
    first = SubsystemSet((1,))
    for seed in range(300):
        records = ms.factorize(ms.random_pure(ms.DimensionProfile(dims), seed))._party_records()
        for profile, group in number._ppt_groups(dims):
            mats = core._cut_matrices(
                np.array([records[i].vectors for i in group], dtype=np.complex128),
                np.array([records[i].weights for i in group]),
            )
            assert np.array_equal(mats, mats.conj().swapaxes(-1, -2))
            pt = bipartite.partial_transpose(mats, first, profile)
            want = np.linalg.eigvalsh((pt + pt.conj().swapaxes(-1, -2)) / 2.0)[..., 0]
            got = bipartite._pt_least_eigenvalue(mats, first, profile)
            assert _same_bytes(got, want)
