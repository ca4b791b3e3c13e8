"""Bipartite operations: Schmidt decomposition, entropy, PPT separability.

The PPT (partial transpose) test decides separability exactly on 2x2 and 2x3
shapes; on larger shapes a violation still certifies entanglement but a pass
is inconclusive, and callers receive that caveat through ``ppt_decisive``.
``ppt_entangled`` (one matrix) and the max-party rule's direct test of
three-party reductions (a stack of matrices, one eigensolve) both read the
least partial-transpose eigenvalue from ``_pt_least_eigenvalue``. Its
eigenvalues, and ``ppt_negativity``'s, come from ``core._eigh``: LAPACK
zheevd directly for one matrix (or a stack of one), numpy's gufunc for a
larger stack, numpy's bits either way. The module builds on ``core`` alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from . import core
from .core import (
    DEFAULT_RANK_TOL,
    DensityMatrix,
    DimensionProfile,
    PureState,
    SubsystemSet,
    _checked_tol,
    entropy_bits,
    unfold,
    weight_rank,
)

PPT_NEG_TOL = 1e-9


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Singular value form of a pure state across one bipartition."""

    coefficients: np.ndarray  # descending positive reals, length == rank
    left_vectors: np.ndarray  # (dim_left, rank), orthonormal columns
    right_vectors: np.ndarray  # (dim_right, rank), orthonormal columns
    rank: int

    def reconstruct(self) -> np.ndarray:
        """Coefficient matrix sum_k lambda_k |e_k><f_k^*| (left x right)."""
        return (self.left_vectors * self.coefficients) @ self.right_vectors.T


def coefficient_matrix(state: PureState, left: SubsystemSet) -> np.ndarray:
    """Amplitudes reshaped to a (left block) x (right block) matrix."""
    profile = state.profile
    left.validate_for(profile)
    if len(left) >= profile.party_count:
        raise ValueError("left side must be a proper subset of the parties")
    return unfold(state.amplitudes, profile.dims, left)


def schmidt_decompose(
    state: PureState, left: SubsystemSet, tol: float = DEFAULT_RANK_TOL
) -> SchmidtDecomposition:
    """Schmidt decomposition of ``state`` across ``left`` | complement.

    Column phases are fixed by making the first significant component of each
    left vector real positive, so degenerate coefficients come out in a
    reproducible basis.
    """
    _checked_tol(tol)
    mat = coefficient_matrix(state, left)
    u, s, vh = core._svd(mat, full_matrices=False)
    # rank on squared singular values so it agrees with numerical_rank of
    # either reduction (whose eigenvalues are the squares)
    rank = max(weight_rank(s**2, tol), 1)
    u, s, vh = u[:, :rank], s[:rank] / np.linalg.norm(s[:rank]), vh[:rank, :]
    for k in range(rank):
        col = u[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            phase = col[nz[0]] / abs(col[nz[0]])
            u[:, k] = col / phase
            vh[k, :] = vh[k, :] * phase
    return SchmidtDecomposition(
        coefficients=np.ascontiguousarray(s),
        left_vectors=np.ascontiguousarray(u),
        right_vectors=np.ascontiguousarray(vh.T),
        rank=rank,
    )


def entanglement_entropy(decomp: SchmidtDecomposition) -> float:
    """Von Neumann entanglement entropy in bits, -sum lambda^2 log2 lambda^2."""
    return entropy_bits(decomp.coefficients**2)


def _grouped_dims(profile: DimensionProfile, cut: SubsystemSet) -> tuple[int, int]:
    cut.validate_for(profile)
    m = profile.party_count
    if len(cut) >= m:
        raise ValueError("cut must be a proper subset of the parties")
    d_cut = math.prod(profile.dims[i - 1] for i in cut.indices)
    d_rest = profile.total_dim // d_cut
    return d_cut, d_rest


def partial_transpose(
    rho: Union[DensityMatrix, np.ndarray],
    cut: SubsystemSet,
    profile: Optional[DimensionProfile] = None,
) -> np.ndarray:
    """Partial transpose over the ``cut`` group of the bipartition cut|rest.

    ``rho`` is a DensityMatrix, or, with ``profile`` given, an array of
    matrices on that profile whose leading axes stack several of them,
    giving a stack of partial transposes.
    """
    if profile is None:
        mat, profile = rho.matrix, rho.profile
    else:
        mat = np.asarray(rho)
    lead = mat.shape[:-2]
    k = len(lead)
    dims = profile.dims
    perm, blocks, n = _pt_plan(k, dims, cut.indices)
    blk = mat.reshape(lead + dims + dims).transpose(perm).reshape(lead + blocks)
    return blk.swapaxes(k, k + 2).reshape(lead + (n, n))


@lru_cache(maxsize=None)
def _pt_plan(k: int, dims: tuple[int, ...], indices: tuple[int, ...]):
    """``partial_transpose``'s axis permutation, block shape and order for ``k`` leading axes.

    Built once per shape and cut; a bad cut raises on every call.
    """
    da, db = _grouped_dims(DimensionProfile(dims), SubsystemSet(indices))
    m = len(dims)
    cut_axes = [k + i - 1 for i in indices]
    rest_axes = [k + a for a in range(m) if a + 1 not in indices]
    axes = cut_axes + rest_axes
    perm = tuple(range(k)) + tuple(axes) + tuple(m + a for a in axes)
    return perm, (da, db, da, db), da * db


def ppt_entangled(rho: DensityMatrix, cut: SubsystemSet, tol: float = PPT_NEG_TOL) -> bool:
    """True iff the partial transpose over ``cut`` has an eigenvalue < -tol.

    A True result certifies entanglement across cut|rest for any shape; a
    False result certifies separability only where PPT is decisive.
    """
    return bool(_pt_least_eigenvalue(rho, cut) < -tol)


def _pt_least_eigenvalue(
    rho: Union[DensityMatrix, np.ndarray],
    cut: SubsystemSet,
    profile: Optional[DimensionProfile] = None,
):
    """The least eigenvalue of the partial transpose over ``cut``.

    A DensityMatrix's partial transpose is symmetrized, (pt + pt^dag)/2,
    before its eigenvalues (``core._eigh``): its matrix is Hermitian only
    within ``HERM_ATOL``. A stack of matrices on ``profile`` (see
    ``partial_transpose``) gives an array, one value per matrix, from one
    ``core._eigh`` of the partial transposes as they are. The stack must
    be exactly Hermitian, as ``core._cut_matrices`` builds it: a partial
    transpose only moves entries, so it is then exactly Hermitian too, and
    symmetrizing would change no bit.
    """
    pt = partial_transpose(rho, cut, profile)
    if profile is None:
        pt = (pt + pt.conj().T) / 2.0
    return core._eigh(pt, compute_v=False)[..., 0]


def ppt_decisive(rho: DensityMatrix, cut: SubsystemSet) -> bool:
    """Whether PPT decides separability exactly for this grouped shape."""
    return _ppt_decides(rho.profile, cut)


@lru_cache(maxsize=None)
def _ppt_decides(profile: DimensionProfile, cut: SubsystemSet) -> bool:
    """``ppt_decisive`` for any matrix on ``profile``, decided once per profile and cut."""
    da, db = _grouped_dims(profile, cut)
    return tuple(sorted((da, db))) in ((2, 2), (2, 3))


def ppt_negativity(rho: DensityMatrix, cut: SubsystemSet) -> float:
    """Total magnitude of negative partial-transpose eigenvalues."""
    pt = partial_transpose(rho, cut)
    w = core._eigh((pt + pt.conj().T) / 2.0, compute_v=False)
    return float(-np.sum(w[w < 0.0]))
