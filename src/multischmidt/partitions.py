"""Finest product factorization of pure states and separability labels.

A split A|rest is valid iff the A x rest amplitude unfolding has numerical
rank 1, and its leading singular vectors are then the two factor states; the
finest partition is obtained by greedy recursive splitting, which is unique
for pure states. Every multi-party factor of the finest partition is
genuinely entangled on its own parties.

The SVDs of the cuts are kept: their spectra give the local ranks, and the
cut {1} and the complement of each single party keep their full singular
vectors, from which the max-party rule builds each reduction rho_(not i),
or only its matrix (``core._cut_reductions``, ``core._cut_matrices``),
without a partial trace or a second decomposition. Only this module reads
the record's keys: the number and the coefficients take one ``_PartyCut``
per party from ``PartitionStructure._party_records()``. Validation happens
only at the public boundary: the factor states are unit singular vectors of
a validated state and are built without re-validation
(``core._checked_state``). Cut tuples, factor sets and reduction profiles are
built once per party count, party tuple and dims.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import core
from .core import (
    DEFAULT_RANK_TOL,
    DimensionProfile,
    PureState,
    SubsystemSet,
    _checked_state,
    _checked_tol,
    local_weights,
    unfold,
    weight_rank,
)
from .errors import ConsistencyError

FULLY_SEPARABLE = "FullySeparable"
GENUINELY_ENTANGLED = "GenuinelyEntangled"


class _PartyCut(NamedTuple):
    """Party i's cut of a genuinely entangled state, from factorize's record."""

    rank: int  # the local rank r_i at factorize's tol
    weights: np.ndarray  # the spectrum of rho_i, descending (squared singular values)
    s: np.ndarray  # the singular values
    vectors: np.ndarray  # full singular vectors of the side of rho_(not i): its eigenvectors


@dataclass(frozen=True)
class PartitionStructure:
    """Finest product factorization of a pure state.

    ``factors`` partition {1..m}; ``factor_states`` carry the extracted pure
    state of each factor on its restricted profile; a factor is flagged
    entangled iff it has two or more parties (finest factors cannot be
    internally product). ``_cut_factors`` maps each side (a party tuple
    holding party 1) of every cut of the whole state that was decomposed
    (for a genuinely entangled state, every cut) to the (u, s, vh) factors
    of its unfolding's SVD, full for the cut {1} and the complements of
    single parties, thin otherwise, followed by the squared singular values
    and their rank at factorize's tol: (u, s, vh, weights, rank).
    """

    party_count: int
    factors: tuple[SubsystemSet, ...]
    factor_states: tuple[PureState, ...]
    entangled: tuple[bool, ...]
    label: str
    _cut_factors: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def is_fully_separable(self) -> bool:
        return self.label == FULLY_SEPARABLE

    @property
    def is_genuinely_entangled(self) -> bool:
        return self.label == GENUINELY_ENTANGLED

    def entangled_factors(self) -> list[tuple[SubsystemSet, PureState]]:
        return [
            (f, s)
            for f, s, e in zip(self.factors, self.factor_states, self.entangled)
            if e
        ]

    def _party_records(self) -> list[_PartyCut]:
        """The cut record of every party of a genuinely entangled state.

        Party i's cut is {1} for i = 1 and otherwise its complement, whose
        unfolding has the same singular values; the side of rho_(not i) is the
        columns (Vh^T) for party 1 and the rows (U) otherwise.
        """
        out = []
        for i, rest in enumerate(_party_cuts(self.party_count)[1], 1):
            u, s, vh, weights, rank = self._cut_factors[(1,) if i == 1 else rest.indices]
            out.append(_PartyCut(rank, weights, s, vh.T if i == 1 else u))
        return out


def enumerate_bipartitions(m: int) -> list[SubsystemSet]:
    """All unordered proper bipartitions of m parties, canonically ordered.

    Each bipartition is represented by its side containing party 1; ordering
    is by size then lexicographic.
    """
    if m < 2:
        raise ValueError("bipartitions need at least two parties")
    return list(_bipartitions(m))


@lru_cache(maxsize=None)
def _bipartitions(m: int) -> tuple[SubsystemSet, ...]:
    """``enumerate_bipartitions(m)``, built once per m."""
    rest = range(2, m + 1)
    return tuple(
        SubsystemSet((1,) + extra) for size in range(1, m) for extra in combinations(rest, size - 1)
    )


@lru_cache(maxsize=None)
def _party_cuts(m: int) -> tuple[tuple[SubsystemSet, ...], tuple[SubsystemSet, ...]]:
    """The single parties {i} of m parties and their complements, built once per m."""
    singles = tuple(SubsystemSet((i,)) for i in range(1, m + 1))
    return singles, tuple(c.complement(m) for c in singles)


@lru_cache(maxsize=None)
def _reduction_profiles(dims: tuple[int, ...]) -> tuple[DimensionProfile, ...]:
    """The profile of each reduction rho_(not i) of a state on ``dims``, built once per dims."""
    profile = DimensionProfile(dims)
    return tuple(profile.restrict(rest) for rest in _party_cuts(len(dims))[1])


@lru_cache(maxsize=None)
def _subsystem(parties: tuple[int, ...]) -> SubsystemSet:
    """The SubsystemSet of a party tuple, built once per tuple (a factor of ``factorize``)."""
    return SubsystemSet(parties)


def _finest(parties: tuple[int, ...], state: PureState, tol: float, record=None):
    """Finest factors of ``state``; ``record`` collects the SVD factors of its cuts."""
    k = len(parties)
    if k == 1:
        return [(parties, state)]
    profile = state.profile
    for side in _bipartitions(k):
        mat = unfold(state.amplitudes, profile.dims, side)
        # the cut {1} and the complements of single parties give reductions
        full = record is not None and len(side) in (1, k - 1)
        u, s, vh = core._svd(mat, full_matrices=full)
        weights = s**2
        rank = weight_rank(weights, tol)
        if record is not None:
            record[side.indices] = (u, s, vh, weights, rank)
        if rank == 1:
            # state = s[0] u[:, 0] (x) vh[0] up to the discarded tail, whose
            # weights are each <= tol * weights[0]
            if 1.0 - float(weights[0]) > weights.size * tol:
                raise ConsistencyError(
                    f"expected a pure reduction, largest eigenvalue {float(weights[0])}"
                )
            other = side.complement(k)
            state_a = _checked_state(profile.restrict(side), u[:, 0])
            state_b = _checked_state(profile.restrict(other), vh[0])
            parties_a = tuple(parties[i - 1] for i in side.indices)
            parties_b = tuple(parties[i - 1] for i in other.indices)
            return _finest(parties_a, state_a, tol) + _finest(parties_b, state_b, tol)
    return [(parties, state)]


def structure_label(factors: tuple[SubsystemSet, ...], m: int) -> str:
    if all(len(f) == 1 for f in factors):
        return FULLY_SEPARABLE
    if len(factors) == 1:
        return GENUINELY_ENTANGLED
    sep = "," if m > 9 else ""
    return "|".join(sep.join(str(i) for i in f.indices) for f in factors)


def factorize(state: PureState, tol: float = DEFAULT_RANK_TOL) -> PartitionStructure:
    """Finest product factorization of a normalized pure state."""
    _checked_tol(tol)
    m = state.party_count
    cut_factors: dict = {}
    leaves = _finest(tuple(range(1, m + 1)), state, tol, cut_factors)
    leaves.sort(key=lambda item: item[0][0])
    factors = tuple(_subsystem(p) for p, _ in leaves)
    states = tuple(s for _, s in leaves)
    entangled = tuple(len(f) >= 2 for f in factors)
    return PartitionStructure(
        party_count=m,
        factors=factors,
        factor_states=states,
        entangled=entangled,
        label=structure_label(factors, m),
        _cut_factors=cut_factors,
    )


def local_rank_vector(state: PureState, tol: float = DEFAULT_RANK_TOL) -> tuple[int, ...]:
    """Per-party reduction ranks (the entanglement dimensionality vector); (1,) for one party."""
    _checked_tol(tol)
    m, dims = state.party_count, state.profile.dims
    if m == 1:
        return (1,)
    return tuple(
        weight_rank(local_weights(state.amplitudes, dims, side), tol) for side in _party_cuts(m)[0]
    )
