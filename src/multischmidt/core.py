"""Dense multipartite state and operator primitives.

Conventions
-----------
- Parties are numbered 1..m in every public API;
  internally party i lives on tensor axis i - 1.
- Amplitude vectors are row-major over the multi-index (i_1, ..., i_m) with
  party 1 varying slowest.
- All tolerances are explicit; the numerical rank cutoff is relative to the
  largest eigenvalue and defaults to ``DEFAULT_RANK_TOL``. Every public
  entry point that takes it requires 0 < tol < 1 (``_checked_tol``).
- Pure-state ranks and local spectra have one primitive: ``local_weights``
  gives the squared singular values of an amplitude unfolding and
  ``weight_rank`` counts them. Both take stacks, so states of one shape
  share one SVD (the margin test of a range line, the eigen elements of a
  pure state's two-party reductions, the columns of the ensemble search).
  Spectra are computed once per pure state: ``factorize`` hands on the
  spectra of the cuts it decomposed (with their singular vectors), and a
  two-party value or coefficient set takes one SVD.
- Every SVD goes through one kernel, ``_svd``, which keeps
  ``np.linalg.svd``'s contract for complex operands. A single matrix goes
  straight to LAPACK zgesdd through scipy's handle, bound at import:
  numpy's per-call dispatch costs more than zgesdd itself on a 2 x 4
  unfolding. A stack keeps numpy's gufunc, which pays that dispatch once.
  Every Hermitian eigensolve goes through the kernel beside it, ``_eigh``,
  which keeps ``np.linalg.eigh``'s and ``eigvalsh``'s contract: a single
  complex matrix (or a stack of one) goes straight to LAPACK zheevd, other
  stacks keep the gufunc. zheevd must read the lower triangle, as numpy's
  default UPLO='L' does: from the upper one, scipy's default, it differed
  from numpy in the last bits on all 3000 seeded Hermitian matrices of
  order 2 to 16 tried, and from the lower one it agreed bit for bit on all
  3200 of order 1 to 16 (eigenvalues and eigenvectors). zgesdd agrees bit
  for bit too, so results are unchanged, although numpy and scipy ship
  different OpenBLAS builds.
- The optimizer entry points, ``minimize`` and ``nnls``, sit beside those
  kernels. They pass arguments and results through to scipy.optimize's
  functions unchanged and import scipy.optimize inside their bodies: only
  an NNLS (the range-line walk, product listings) or a search needs it, and
  its import costs about a fifth of a second and 20 MB. A process that asks
  only for pure numbers, closed-form coefficients or the CLI's ``gen`` and
  ``reproduce`` never loads it; one that needs it pays the import once, at
  the first call. ``number`` and ``coefficients`` take both from here, so
  each name is one object across the package.
- Validation happens only at the public boundary: ``PureState``,
  ``DensityMatrix`` and ``reduce`` check their input in full. Internal
  objects derived from validated ones skip those checks. ``_checked_state``
  wraps amplitudes known to be a unit vector (singular vectors, normalized
  eigenvectors and rays), and ``_cut_reductions`` builds the reductions of a
  pure state onto one side of its cuts from the cuts' SVDs, which
  ``factorize`` has already computed: no partial trace and no second
  eigendecomposition, and cuts of one shape are built as one stack. Its
  matrix code, ``_cut_matrices``, also serves callers that need only the
  matrices, not a ``DensityMatrix``.
  ``_pure_reductions`` builds ``reduce``'s reductions of a pure state
  bitwise, without re-validation, with one ``_eigh`` per shape; the
  coefficient construction builds with it only the reductions whose
  max-entropy element it needs, because its element searches start from the
  ``eigh`` eigenbasis. ``reduce`` forms reduced density matrices from a
  partial trace and serves mixed states and the public API.
- A ``DensityMatrix`` carries its eigensystem, computed by validation or
  taken from the SVD; ``spectrum`` and ``numerical_rank`` reuse it instead
  of decomposing again.

Kernel rules
------------
Every pure state passes through the same few primitives many times, on
arrays of 2 to 8 elements, where numpy's Python-level dispatch costs more
than the arithmetic; so does every rank-2 mixed matrix, whose range line
(a 3 x 3 pencil, a handful of 9-amplitude rays) is walked once. The
primitives on both paths keep every LAPACK call, evaluate each expression
in the order numpy would, and follow three rules:

- no numpy wrapper on a 0-d value or a few-element vector in a hot path:
  ``weight_rank`` counts a single vector in Python after one ``tolist``,
  and ``_row_rank`` one row of a stacked spectrum (a range line's margin
  test, a pencil's generic rank, ``loci._generic_member``'s argmax); the
  CKW scalars (``loci._pair_concurrences``) are Python floats and complex
  numbers; a range line's rays are formed, normalized and turned into
  states as one stack (``_unit_states``), and a mixture's dyads come from
  one broadcast multiply. A norm is ``_norm``, numpy's own two dots and
  square root written out, never ``np.linalg.norm``;
- anything that depends only on a shape is built once per shape and cached:
  ``unfold``'s axis permutation (``_unfold_plan``), the partial transpose's
  (``bipartite._pt_plan``), PPT decisiveness per profile and cut, factor
  sets, cut tuples, reduction profiles, and the LAPACK workspaces of
  zgesdd, zheevd and zggev. A plan that raises is not cached, so a bad cut
  fails on every call;
- a single-matrix SVD or Hermitian eigensolve calls LAPACK directly
  (``_svd``, ``_eigh``) and returns numpy's bits, and eigen elements keep
  their per-column normalization, because the seeded searches start from
  those exact bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple, Union

import numpy as np
from scipy.linalg import get_lapack_funcs

NORM_ATOL = 1e-10
HERM_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
DEFAULT_RANK_TOL = 1e-8


class Eigensystem(NamedTuple):
    values: np.ndarray  # descending real eigenvalues
    vectors: np.ndarray  # columns are the matching orthonormal eigenvectors


@dataclass(frozen=True)
class DimensionProfile:
    """Ordered local dimensions (N_1, ..., N_m) of a multipartite system."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1:
            raise ValueError("a dimension profile needs at least one party")
        if any(d < 1 for d in dims):
            raise ValueError(f"local dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def party_count(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    def restrict(self, keep: "SubsystemSet") -> "DimensionProfile":
        keep.validate_for(self)
        return DimensionProfile(tuple(self.dims[i - 1] for i in keep.indices))


@dataclass(frozen=True)
class SubsystemSet:
    """A nonempty set of party labels, stored strictly increasing, 1-based."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ValueError("subsystem set must be nonempty")
        if any(i < 1 for i in idx):
            raise ValueError("party labels are 1-based")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"party labels must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, indices: Iterable[int]) -> "SubsystemSet":
        return cls(tuple(sorted(set(int(i) for i in indices))))

    def complement(self, party_count: int) -> "SubsystemSet":
        rest = tuple(i for i in range(1, party_count + 1) if i not in self.indices)
        if not rest:
            raise ValueError("complement of the full party set is empty")
        return SubsystemSet(rest)

    def validate_for(self, profile: DimensionProfile) -> None:
        if self.indices[-1] > profile.party_count:
            raise ValueError(
                f"party {self.indices[-1]} out of range for {profile.party_count} parties"
            )

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, party: int) -> bool:
        return party in self.indices


@dataclass(frozen=True)
class PureState:
    """A normalized complex amplitude vector over a dimension profile."""

    profile: DimensionProfile
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.shape[0] != self.profile.total_dim:
            raise ValueError(
                f"amplitude length {amps.shape[0]} does not match total dimension "
                f"{self.profile.total_dim}"
            )
        norm = float(np.linalg.norm(amps))
        if not math.isfinite(norm):  # a NaN or infinite amplitude
            raise ValueError("amplitudes must be finite")
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def party_count(self) -> int:
        return self.profile.party_count

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.profile.dims)

    def density(self) -> "DensityMatrix":
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.profile, mat)


def _checked_state(profile: DimensionProfile, amplitudes: np.ndarray) -> PureState:
    """A PureState from amplitudes already known to be a finite unit vector.

    The caller vouches for length, finiteness and norm (a singular vector, a
    normalized eigenvector or ray of validated data), so ``__post_init__``
    is skipped. The amplitudes are copied and made read-only as there.
    """
    amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)
    amps.setflags(write=False)
    return _read_only_state(profile, amps)


def _read_only_state(profile: DimensionProfile, amps: np.ndarray) -> PureState:
    """A PureState holding ``amps``, a read-only finite unit vector, without a copy."""
    state = object.__new__(PureState)
    object.__setattr__(state, "profile", profile)
    object.__setattr__(state, "amplitudes", amps)
    return state


def _unit_state(profile: DimensionProfile, vec: np.ndarray) -> PureState:
    """The internal state vec / |vec| of a nonzero combination of unit vectors."""
    return _checked_state(profile, vec / _norm(vec))


def _unit_states(profile: DimensionProfile, vecs: np.ndarray) -> tuple[np.ndarray, list[PureState]]:
    """``_unit_state`` of each row of ``vecs``: the stacked amplitudes and their states.

    Each row is divided by its own ``_norm`` in one broadcast division, the
    same elementwise quotient ``_unit_state`` takes. The states share the
    returned read-only array instead of copying a row each.
    """
    units = vecs / np.array([_norm(x) for x in vecs])[:, None]
    units.setflags(write=False)
    return units, [_read_only_state(profile, amps) for amps in units]


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a)`` of a complex array, without its dispatch.

    numpy's norm without ``ord`` or ``axis`` ravels in memory order and
    takes the square root of two dots, the real parts' and the imaginary
    parts'; this evaluates the same dots in the same order.
    """
    x = a.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def normalized_state(profile: DimensionProfile, amplitudes: np.ndarray) -> PureState:
    """Build a PureState from an unnormalized amplitude vector."""
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(amps)
    if not np.isfinite(norm):
        raise ValueError("amplitudes must be finite")
    if norm <= 0:
        raise ValueError("cannot normalize the zero vector")
    return PureState(profile, amps / norm)


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, positive semidefinite, trace-one operator.

    ``eigensystem`` is the read-only descending decomposition of the
    symmetrized matrix, computed once by validation.
    """

    profile: DimensionProfile
    matrix: np.ndarray
    eigensystem: Eigensystem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.profile.total_dim
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128).copy()
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} does not match profile dimension {n}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        herm_err = float(np.max(np.abs(mat - mat.conj().T))) if n else 0.0
        if herm_err > HERM_ATOL:
            raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {herm_err}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        eig = _descending_eigh((mat + mat.conj().T) / 2.0)
        wmin = float(eig.values[-1])
        if wmin < -PSD_ATOL:
            raise ValueError(f"matrix has negative eigenvalue {wmin}")
        for arr in (mat, *eig):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigensystem", eig)

    @property
    def party_count(self) -> int:
        return self.profile.party_count


def _cut_reductions(profiles, vectors, svals) -> list[DensityMatrix]:
    """The reductions of a validated pure state onto one side of several cuts, from the cuts' SVDs.

    For cut j, ``svals[j]`` are the singular values of the unfolding,
    descending, and ``vectors[j]`` the full unitary of the side's singular
    vectors: U when the side indexes the rows, Vh^T when it indexes the
    columns. The eigenvalues are s**2 padded with zeros, the eigenvectors
    are ``vectors[j]``, and the matrix is (U_r s**2) U_r^dag, symmetrized.
    Hermiticity, positivity and the eigensystem hold by construction; the
    trace, sum s**2, is checked as ``DensityMatrix`` checks it.
    ``profiles[j]`` is the side's restricted profile. Cuts whose factors
    share their shapes are built as one stack.
    """
    out: list = [None] * len(profiles)
    shapes: dict = {}
    for j, (vecs, s) in enumerate(zip(vectors, svals)):
        shapes.setdefault((vecs.shape, s.shape), []).append(j)
    for group in shapes.values():
        vecs = np.array([vectors[j] for j in group], dtype=np.complex128)
        weights = np.array([svals[j] for j in group]) ** 2
        mat = _cut_matrices(vecs, weights)
        values = np.zeros(vecs.shape[:-1])
        values[:, : weights.shape[-1]] = weights
        for arr in (mat, values, vecs):
            arr.setflags(write=False)
        for b, j in enumerate(group):
            out[j] = _built_density(profiles[j], mat[b], values[b], vecs[b])
    return out


def _cut_matrices(vecs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The stacked matrices (U_r w) U_r^dag, symmetrized, of cuts of one shape.

    ``vecs[b]`` is cut b's full unitary of the side's singular vectors and
    ``weights[b]`` its squared singular values, descending. The trace,
    sum w, is checked as ``DensityMatrix`` checks it.
    """
    for tr in weights.sum(axis=-1).tolist():
        if not (math.isfinite(tr) and abs(tr - 1.0) <= TRACE_ATOL):
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
    top = vecs[..., : weights.shape[-1]]
    mat = (top * weights[..., None, :]) @ top.conj().swapaxes(-1, -2)
    return (mat + mat.conj().swapaxes(-1, -2)) / 2.0


def _built_density(profile, matrix, values, vectors) -> DensityMatrix:
    """A DensityMatrix from read-only parts that hold its invariants by construction."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "profile", profile)
    object.__setattr__(rho, "matrix", matrix)
    object.__setattr__(rho, "eigensystem", Eigensystem(values, vectors))
    return rho


MatrixLike = Union[np.ndarray, DensityMatrix]


def _require_hermitian(mat: np.ndarray, atol: float = 1e-8) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    err = float(np.max(np.abs(mat - mat.conj().T)))
    if err > atol:
        raise ValueError(f"matrix is not Hermitian within {atol}: deviation {err}")
    # symmetrize so eigh sees an exactly Hermitian operand
    return (mat + mat.conj().T) / 2.0


def unfold(amplitudes: np.ndarray, dims: tuple[int, ...], side: SubsystemSet) -> np.ndarray:
    """Amplitude tensor as a (side block) x (rest block) matrix.

    Both blocks keep ascending party order, matching ``reduce`` and
    ``DimensionProfile.restrict``. Leading axes of ``amplitudes`` before the
    last stack several states, giving a stack of unfoldings.
    """
    lead = amplitudes.shape[:-1]
    dims = tuple(dims)
    perm, rows = _unfold_plan(len(lead), dims, side.indices)
    return amplitudes.reshape(lead + dims).transpose(perm).reshape(lead + (rows, -1))


@lru_cache(maxsize=None)
def _unfold_plan(k: int, dims: tuple[int, ...], side: tuple[int, ...]):
    """``unfold``'s axis permutation and row count for ``k`` leading axes.

    Built once per shape and side; a side naming a missing party raises on
    every call.
    """
    side_axes = tuple(k + i - 1 for i in side)
    rest_axes = tuple(k + a for a in range(len(dims)) if a + 1 not in side)
    rows = math.prod(dims[a - k] for a in side_axes)
    return tuple(range(k)) + side_axes + rest_axes, rows


def reduce(state: Union[PureState, DensityMatrix], keep: SubsystemSet) -> DensityMatrix:
    """Partial trace over the complement of ``keep``.

    The result profile is the input profile restricted to ``keep`` (ascending
    party order). Works for pure states and density matrices.
    """
    profile = state.profile
    keep.validate_for(profile)
    return DensityMatrix(profile.restrict(keep), _reduced_matrix(state, keep))


def _reduced_matrix(state: Union[PureState, DensityMatrix], keep: SubsystemSet) -> np.ndarray:
    """The partial trace onto ``keep``, symmetrized and unvalidated.

    For a pure state it is (psi psi^dag + h.c.)/2 with psi the unfolding.
    """
    dims = state.profile.dims
    if isinstance(state, PureState):
        psi = unfold(state.amplitudes, dims, keep)
        mat = psi @ psi.conj().T
    else:
        m = len(dims)
        keep_axes = [i - 1 for i in keep.indices]
        traced_axes = [i for i in range(m) if i + 1 not in keep]
        dk = math.prod(dims[a] for a in keep_axes)
        dt = math.prod(dims[a] for a in traced_axes)
        t = state.matrix.reshape(dims + dims)
        perm = keep_axes + traced_axes + [m + a for a in keep_axes] + [m + a for a in traced_axes]
        blocks = t.transpose(perm).reshape(dk, dt, dk, dt)
        mat = np.einsum("ijkj->ik", blocks)
    return (mat + mat.conj().T) / 2.0


def _pure_reductions(state: PureState, keeps, profiles) -> list[DensityMatrix]:
    """``reduce(state, keep)`` for each of ``keeps``, bitwise, without re-validation.

    For a validated pure state and keeps valid for its profile (``profiles``
    are the restricted profiles). The matrices are ``reduce``'s, and their
    trace is checked as ``DensityMatrix`` checks it; Hermiticity and
    positivity hold by construction. Matrices of one shape share one
    ``_eigh``, which LAPACK runs matrix by matrix; validation decomposes
    (A + A^dag)/2, which for the symmetrized A is A bit for bit, so each
    eigensystem is the one validation computes.
    """
    mats = [_reduced_matrix(state, keep) for keep in keeps]
    out: list = [None] * len(mats)
    shapes: dict = {}
    for j, mat in enumerate(mats):
        shapes.setdefault(mat.shape, []).append(j)
    for group in shapes.values():
        stack = np.array([mats[j] for j in group])
        for tr in np.trace(stack, axis1=-2, axis2=-1).tolist():
            if abs(tr - 1.0) > TRACE_ATOL:
                raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        w, v = _eigh(stack)
        values = np.ascontiguousarray(w[:, ::-1])
        vectors = np.ascontiguousarray(v[:, :, ::-1])
        for arr in (stack, values, vectors):
            arr.setflags(write=False)
        for b, j in enumerate(group):
            out[j] = _built_density(profiles[j], stack[b], values[b], vectors[b])
    return out


def local_weights(amplitudes: np.ndarray, dims: tuple[int, ...], side: SubsystemSet) -> np.ndarray:
    """Squared singular values of the side x rest unfolding, descending.

    For a pure state they are its reduction's spectrum on ``side`` (the first
    min(dim_side, dim_rest) eigenvalues; the rest are zero), without forming
    the reduction. Leading axes of ``amplitudes`` before the last stack
    several states, giving one stacked SVD.
    """
    return _svd(unfold(amplitudes, dims, side), compute_uv=False) ** 2


_GESDD, _GESDD_LWORK = get_lapack_funcs(("gesdd", "gesdd_lwork"), dtype=np.complex128)


@lru_cache(maxsize=None)
def _gesdd_lwork(rows: int, cols: int, compute_uv: bool, full_matrices: bool) -> int:
    """zgesdd's optimal workspace for one shape and job, queried once (numpy queries it per call)."""
    return int(_GESDD_LWORK(rows, cols, compute_uv, full_matrices)[0].real)


def _svd(a, full_matrices: bool = True, compute_uv: bool = True):
    """``np.linalg.svd`` of a complex operand: (u, s, vh), or s alone without ``compute_uv``.

    A nonempty single matrix goes straight to LAPACK zgesdd, the routine
    numpy wraps, without numpy's per-call dispatch; u and vh come back
    C-ordered as numpy returns them. A stack keeps numpy's gufunc, which
    pays that dispatch once for the whole stack. A non-finite operand or a
    failed decomposition raises ``np.linalg.LinAlgError``: zgesdd refuses a
    NaN entry (info -4), and an infinite entry leaves no finite singular
    value (LAPACK scales the operand by max|a|).
    """
    a = np.asarray(a)
    if a.ndim != 2 or not a.size:
        out = np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
        if not math.isfinite((out[1] if compute_uv else out).sum()):
            _require_finite(a)
        return out
    lwork = _gesdd_lwork(*a.shape, compute_uv, full_matrices)
    u, s, vt, info = _GESDD(a, compute_uv, full_matrices, lwork)
    if info:
        raise np.linalg.LinAlgError(f"SVD did not converge (LAPACK gesdd info={info})")
    if not math.isfinite(s[0]):
        _require_finite(a)
    if not compute_uv:
        return s
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vt)


def _require_finite(a: np.ndarray) -> None:
    """LinAlgError unless every entry of ``a`` is finite (an overflowing finite ``a`` passes)."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("SVD of a matrix with infs or NaNs")


_HEEVD, _HEEVD_LWORK = get_lapack_funcs(("heevd", "heevd_lwork"), dtype=np.complex128)


@lru_cache(maxsize=None)
def _heevd_lwork(n: int, compute_v: bool) -> tuple[int, int, int]:
    """zheevd's optimal (work, iwork, rwork) sizes for one order and job, queried once.

    numpy queries them on every call.
    """
    work, iwork, rwork, _ = _HEEVD_LWORK(n, compute_v, 1)
    return int(work.real), int(iwork), int(rwork)


def _eigh(a, compute_v: bool = True):
    """``np.linalg.eigh`` of a complex Hermitian operand: (w, v), or w alone without ``compute_v``.

    Eigenvalues ascend, as numpy returns them. A nonempty single complex
    matrix goes straight to LAPACK zheevd, the routine numpy wraps, without
    numpy's per-call dispatch; v comes back C-ordered as numpy returns it.
    zheevd reads the lower triangle, as numpy's default UPLO='L' does: only
    then are its bits numpy's (see the module docstring). A stack of one
    matrix takes the same path, which measures faster than numpy's gufunc
    there; other stacks and real operands keep the gufunc, which for two
    or more matrices is as fast as a loop. As in numpy, a NaN entry gives
    NaN eigenvalues, and a failed decomposition (zheevd info > 0, as an
    infinite entry gives) raises ``np.linalg.LinAlgError``.
    """
    a = np.asarray(a)
    mat = a[0] if a.ndim == 3 and a.shape[0] == 1 else a
    if mat.ndim != 2 or mat.dtype != np.complex128 or not mat.size or mat.shape[0] != mat.shape[1]:
        return np.linalg.eigh(a) if compute_v else np.linalg.eigvalsh(a)
    w, v, info = _HEEVD(mat, compute_v, 1, *_heevd_lwork(mat.shape[0], compute_v))  # lower=1
    if info:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (LAPACK heevd info={info})")
    if mat is not a:  # a stack of one
        w, v = w[None], v[None]
    return (w, np.ascontiguousarray(v)) if compute_v else w


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, with scipy.optimize imported on the first call."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def nnls(*args, **kwargs):
    """``scipy.optimize.nnls``, with scipy.optimize imported on the first call."""
    from scipy.optimize import nnls as scipy_nnls

    return scipy_nnls(*args, **kwargs)


def _checked_tol(tol: float) -> float:
    """``tol`` if it is a relative tolerance strictly between 0 and 1 (not NaN), else ValueError."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"rank tolerance must lie strictly between 0 and 1, got {tol!r}")
    return tol


def weight_rank(weights: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> Union[int, np.ndarray]:
    """Count weights above ``tol`` times the largest weight.

    A stack of weight vectors (leading axes before the last), each
    descending, gives an array of one count per vector. A single vector may
    come in any order; it counts 0 when its largest weight is not positive
    or when it holds a NaN, as a numpy reduction over it would.
    """
    if weights.ndim > 1:
        return np.count_nonzero(weights > tol * weights[..., :1], axis=-1)
    vals = weights.tolist()
    top = max(vals)
    if not top > 0.0 or math.isnan(sum(vals)):  # a NaN anywhere, or +inf beside -inf
        return 0
    cut = tol * top
    return len([x for x in vals if x > cut])


def _row_rank(row: list[float], tol: float) -> int:
    """``weight_rank`` of one vector of a stack, given descending as a list: the count above tol * row[0]."""
    cut = tol * row[0]
    return len([x for x in row if x > cut])


def numerical_rank(mat: MatrixLike, tol: float = DEFAULT_RANK_TOL) -> int:
    """Count eigenvalues above ``tol`` times the largest eigenvalue."""
    _checked_tol(tol)
    if isinstance(mat, DensityMatrix):
        return weight_rank(mat.eigensystem.values, tol)
    return weight_rank(_eigh(_require_hermitian(mat), compute_v=False), tol)


def _descending_eigh(arr: np.ndarray) -> Eigensystem:
    w, v = _eigh(arr)
    return Eigensystem(np.ascontiguousarray(w[::-1]), np.ascontiguousarray(v[:, ::-1]))


def spectrum(mat: MatrixLike) -> Eigensystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    A DensityMatrix returns its cached, read-only eigensystem.
    """
    if isinstance(mat, DensityMatrix):
        return mat.eigensystem
    return _descending_eigh(_require_hermitian(mat))


def scaled_root(rho: DensityMatrix) -> np.ndarray:
    """The square root of a density matrix scaled by 1/sqrt(2).

    The eigenvalues of the result are sqrt(lambda)/sqrt(2) for each
    eigenvalue lambda of ``rho``; their squares sum to 1/2.
    """
    w, v = spectrum(rho)
    if float(w[-1]) < -PSD_ATOL:
        raise ValueError(f"negative eigenvalue {float(w[-1])} beyond tolerance")
    wc = np.clip(w, 0.0, None)
    root = (v * np.sqrt(wc / 2.0)) @ v.conj().T
    return (root + root.conj().T) / 2.0


def entropy_bits(weights: np.ndarray) -> float:
    """Shannon entropy in bits of a nonnegative weight vector, 0*log0 := 0."""
    p = np.asarray(weights, dtype=np.float64)
    p = p[p > 1e-300]
    if p.size == 0:
        return 0.0
    return float(-np.sum(p * np.log2(p)))
