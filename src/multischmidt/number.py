"""Generalized Schmidt number for multipartite pure and mixed states.

Pure states follow the local-rank recursion: 1 for fully separable states,
the value of the single entangled factor for one-factor products, the sum of
factor values when several factors are entangled, and for genuinely
entangled states the maximum over parties of (local rank + Schmidt number of
the complementary mixed reduction).

Mixed states use the convex roof over pure ensembles. Because the roof is
not computable in general, results are intervals [value_lo, value_hi] with
an ``exact`` flag:

- value_hi comes from explicit ensembles (eigen-ensemble, exact mixtures of
  range rays on rank-2 ranges, exact product mixtures of 2 x N states of
  rank <= N from their kernel pencil, or seeded ensemble search over the
  isometry parametrization of all decompositions);
- value_lo combines the partial-transpose test over all bipartitions with a
  range-span certificate on rank-2 ranges: every ensemble of rho spans its
  range, so level r is excluded when the states of value <= r on the range
  line cannot mix to rho. Wherever those states are finitely many and all
  listed, nonnegative least squares decides each level exactly. The list
  holds the rank drops of every cut's unfolding pencil (its generalized
  eigenvalues), which include every state that factorizes. Two parties need
  nothing more. On three qubits the genuinely entangled states of value 3
  are the zeros of the Coffman-Kundu-Wootters gap (S/3)^2 - |H|^2, found
  from a Sylvester eliminant as a 28 x 28 generalized eigenproblem. On four
  or more parties range-only bounds compose: where party i's slices span a
  fixed plane P_i, every other state has value >= g_i + (the least value of
  a rank-2 state with range P_i), a bound from one exact solve on P_i. The
  same composition serves three parties that are not all qubits, whose
  planes P_i are two-party ranges. Above the composed bound the result
  stays an interval.

Every pure-state spectrum and rank comes from the core primitive
(core.local_weights and core.weight_rank, both stack-aware). Spectra are
computed once per pure state, and its reductions are decided together. A
two-party pure state's value is its Schmidt rank, from one SVD.
With three or more parties the max-party rule reads each local rank r_i off
the cut SVDs that factorize has already computed. On three qubits it first
tries a closed form: by Coffman-Kundu-Wootters each pair reduction's squared
concurrence follows from the cut weights and Cayley's hyperdeterminant
(_pair_concurrences), and where every one clears the margin
max(CKW_MARGIN, 4 tol) every reduction is an exact [2, 2], which is what
the mixed ladder would return there (_Engine._ckw_reductions). Otherwise a
three-party state's 2 x 2 and 2 x 3 reductions, where PPT is decisive, are
decided by the least eigenvalue of their partial transpose wherever it is
clear of a margin, from matrices built off the cut record with one stacked
eigvalsh per reduction profile and no DensityMatrix
(_Engine._ppt_reductions); the mixed ladder would return the same exact
values there. Every reduction rho_(not i) left is built from the same cuts'
factors (core._cut_reductions: no partial trace, no second eigh), and all
of them are decided with one call (_Engine.mixed_values). The misses of the
memo run the early stages of the mixed ladder as stacks per profile: one
Schmidt-rank SVD over the kept eigenvectors of every two-party reduction
and one eigvalsh per cut for the PPT test. A Haar (2,2,2) state costs three
SVDs (its cuts) and no eigvalsh; a Haar (2,2,3) state three SVDs and two
eigvalsh, and builds no reduction. The rule reads only the reductions'
intervals, so their witnesses are built on demand: a result holds a builder
of its eigen witness, which forms the eigen elements and runs the
reconstruction check on the first read of witness_ensemble.
mixed_schmidt_number reads it before returning, so a public mixed result
carries its witness. The margin
test of a range line's rank drops takes one stacked SVD per cut, whose
spectra also give the drops' product test and two-party values, and the
ensemble search's objective takes one stacked SVD per party for all of its
columns.

Validation happens only at the public boundary. States and reductions built
inside the recursion from validated data (eigen elements, rays, CKW zeros,
factor states and cut reductions) skip the public validators.

Every worked example in the test suite resolves to a matching lo/hi pair.
Anything the machinery cannot prove is reported inexact, never guessed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.linalg import expm, get_lapack_funcs
from scipy.optimize import minimize, nnls

from .bipartite import (
    PPT_NEG_TOL,
    _ppt_decides,
    _pt_least_eigenvalue,
    ppt_entangled,
)
from .core import (
    DEFAULT_RANK_TOL,
    DensityMatrix,
    DimensionProfile,
    PureState,
    _checked_state,
    _checked_tol,
    _cut_matrices,
    _cut_reductions,
    local_weights,
    reduce,  # unused here; the benchmark's hook test rebinds it in this module
    spectrum,
    unfold,
    weight_rank,
)
from .partitions import (
    FULLY_SEPARABLE,
    PartitionStructure,
    _bipartitions,
    _party_cuts,
    _PartyCut,
    factorize,
)
from .seeding import stream
from .states import apply_local_operators

RECONSTRUCTION_ATOL = 1e-7
EIGEN_WEIGHT_FLOOR = 1e-12
# a range ray's dropped weights sit below this (relative) or above the rank tol
ROOT_FLOOR = 1e-20
# fixed generic members z*M1 + M2 of a range pencil
_PROBES = np.exp(1j * np.array([1.0, 2.0, 3.0]))
# a three-qubit state's relative CKW gap is a zero below CKW_FLOOR and clearly
# off above CKW_MARGIN; CKW_FLOOR also floors S on unit rays and the CKW
# eliminant's relative singular values
CKW_FLOOR = 1e-12
CKW_MARGIN = 1e-6


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs for every randomized search in the package."""

    restarts: int = 64
    iters: int = 500
    seed: int = 0

    def scaled(self, factor: float) -> "SearchBudget":
        return SearchBudget(
            restarts=max(1, int(self.restarts * factor)),
            iters=max(20, int(self.iters * factor)),
            seed=self.seed,
        )


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class EnsembleCandidate:
    """A weighted pure-state ensemble realizing some density matrix."""

    weights: tuple[float, ...]
    states: tuple[PureState, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.states) or not self.states:
            raise ValueError("weights and states must be nonempty and aligned")
        if any(w <= 0 for w in self.weights):
            raise ValueError("ensemble weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-8:
            raise ValueError("ensemble weights must sum to 1")
        profile = self.states[0].profile
        if any(s.profile != profile for s in self.states):
            raise ValueError("ensemble states must share one profile")

    def reconstruct(self) -> np.ndarray:
        kets = np.stack([s.amplitudes for s in self.states], axis=1)
        return (kets * np.array(self.weights)) @ kets.conj().T


class _Witness:
    """The ``witness_ensemble`` field: an ensemble, None, or a builder run on first read.

    A builder (any callable) is replaced by what it returns when the field is
    first read, so a witness nobody reads is never built. The field stays
    required: its class access raises AttributeError, so dataclass finds no
    default.
    """

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.slot[1:])
        value = obj.__dict__[self.slot]
        if callable(value):
            value = value()
            obj.__dict__[self.slot] = value
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class SchmidtNumberResult:
    """Schmidt number as an integer interval with an audit trail."""

    value_lo: int
    value_hi: int
    exact: bool
    witness_ensemble: Optional[EnsembleCandidate] = _Witness()  # required, see _Witness
    branch_trace: dict

    def __post_init__(self):
        if not (1 <= self.value_lo <= self.value_hi):
            raise ValueError(f"bad interval [{self.value_lo}, {self.value_hi}]")
        if self.exact != (self.value_lo == self.value_hi):
            raise ValueError("exact flag must mirror lo == hi")

    @property
    def value(self) -> int:
        """The exact value; raises when only an interval is known."""
        if not self.exact:
            raise ValueError(f"value is an interval [{self.value_lo}, {self.value_hi}]")
        return self.value_hi


class _Open(NamedTuple):
    """A matrix the early stages of the mixed ladder leave undecided."""

    w: np.ndarray
    v: np.ndarray
    k: int
    trace: dict
    lo: int
    hi: int
    witness: Callable[[], Optional[EnsembleCandidate]]  # the eigen witness's builder


def _result(lo: int, hi: int, trace: dict, witness=None) -> SchmidtNumberResult:
    lo, hi = int(lo), int(hi)
    return SchmidtNumberResult(lo, hi, lo == hi, witness, trace)


def _stable_bytes(arr: np.ndarray, decimals: int) -> bytes:
    rounded = np.round(arr, decimals)
    rounded = rounded + (0.0 + 0.0j)  # normalize signed zeros in both parts
    return rounded.tobytes()


def _state_key(state: PureState) -> tuple:
    return (state.profile.dims, _stable_bytes(state.amplitudes, 12))


def _matrix_key(rho: DensityMatrix) -> tuple:
    return _matrix_keys([rho])[0]


def _matrix_keys(rhos: list[DensityMatrix]) -> list[tuple]:
    """(dims, rounded matrix bytes) of each matrix; matrices of one shape are rounded as one stack."""
    shapes: dict = {}
    for j, rho in enumerate(rhos):
        shapes.setdefault(rho.matrix.shape, []).append(j)
    keys: list = [None] * len(rhos)
    for group in shapes.values():
        blob = _stable_bytes(np.array([rhos[j].matrix for j in group]), 12)
        size = len(blob) // len(group)
        for b, j in enumerate(group):
            keys[j] = (rhos[j].profile.dims, blob[b * size : (b + 1) * size])
    return keys


def _range_key(basis: np.ndarray, dims: tuple[int, ...]) -> tuple:
    proj = basis @ basis.conj().T
    return (dims, _stable_bytes(proj, 9))


@lru_cache(maxsize=None)
def _reduction_profiles(dims: tuple[int, ...]) -> tuple[DimensionProfile, ...]:
    """The profile of each reduction rho_(not i) of a state on ``dims``, built once per dims."""
    profile = DimensionProfile(dims)
    return tuple(profile.restrict(rest) for rest in _party_cuts(len(dims))[1])


def _unit_state(profile: DimensionProfile, vec: np.ndarray) -> PureState:
    """The internal state vec / |vec| of a nonzero combination of unit vectors."""
    return _checked_state(profile, vec / np.linalg.norm(vec))


def _tail(weights: np.ndarray, r: int):
    """The sum of all but the first r of descending weights; leading axes stack weight vectors."""
    tail = np.sum(weights[..., r:], axis=-1)
    return float(tail) if weights.ndim == 1 else tail


def _hermitian_from(theta: np.ndarray, n: int) -> np.ndarray:
    """The n x n Hermitian matrix of n*n reals: the diagonal, then the upper triangle row by row."""
    h = np.zeros((n, n), dtype=np.complex128)
    h[np.diag_indices(n)] = theta[:n]
    a, b = np.triu_indices(n, 1)
    upper = (theta[n::2] + 1j * theta[n + 1 :: 2]) / np.sqrt(2.0)
    h[a, b] = upper
    h[b, a] = np.conj(upper)
    return h


class _Engine:
    """Memoized evaluator shared by one public call.

    Caches pure/mixed results by rounded amplitudes/matrices and range rays
    by rounded range projectors, so the nested recursion of the genuinely
    entangled rule (pure -> mixed reductions -> range rays -> pure rays)
    stays affordable. Factorizations are cached by exact amplitudes
    (``structure``), so the number and the coefficients of one state share
    one cut record.

    Mixed states go through one ladder of stages. ``mixed_values`` decides
    several at once: the cheap early stages (spectrum rank, eigen value,
    PPT) run as stacks over the memo's misses of
    one profile (``_early_stages``), and the matrices they leave open take
    the later stages one by one (``_mixed_value``: product routes, range
    rays, certificate, search). ``mixed_value`` is the same ladder for one
    matrix, and every memo lookup passes through it.
    """

    def __init__(self, budget: SearchBudget, tol: float):
        self.budget = budget
        self.tol = _checked_tol(tol)
        self._structure_cache: dict = {}
        self._pure_cache: dict = {}
        self._mixed_cache: dict = {}
        self._ray_cache: dict = {}

    # ---- pure states -----------------------------------------------------

    def structure(self, state: PureState) -> PartitionStructure:
        """The memoized factorize(state, tol), keyed by exact (not rounded) amplitudes and dims."""
        key = (state.profile.dims, state.amplitudes.tobytes())
        hit = self._structure_cache.get(key)
        if hit is None:
            hit = factorize(state, self.tol)
            self._structure_cache[key] = hit
        return hit

    def pure_value(self, state: PureState) -> SchmidtNumberResult:
        """The memoized value of a pure state."""
        key = _state_key(state)
        hit = self._pure_cache.get(key)
        if hit is None:
            hit = self._pure_value(state)
            self._pure_cache[key] = hit
        return hit

    def _pure_value(self, state: PureState) -> SchmidtNumberResult:
        m = state.party_count
        if m == 0:
            raise ValueError("state must have at least one party")
        if m == 1:
            return _result(1, 1, {"rule": "single-party"})
        if m == 2:
            first = _party_cuts(2)[0][0]
            r = weight_rank(local_weights(state.amplitudes, state.profile.dims, first), self.tol)
            if r == 1:
                return _result(1, 1, {"rule": "fully-separable", "partition": FULLY_SEPARABLE})
            return _result(r, r, {"rule": "bipartite-rank", "rank": r})

        structure = self.structure(state)
        entangled = structure.entangled_factors()
        if not entangled:
            return _result(1, 1, {"rule": "fully-separable", "partition": structure.label})
        if len(entangled) == 1:
            factor, factor_state = entangled[0]
            if len(factor) < m:
                sub = self.pure_value(factor_state)
                trace = {
                    "rule": "single-entangled-factor",
                    "partition": structure.label,
                    "factor": list(factor.indices),
                    "factor_trace": sub.branch_trace,
                }
                return _result(sub.value_lo, sub.value_hi, trace)
            return self._genuine_value(state, structure)
        # two or more entangled factors: values add
        lo = hi = 0
        parts = []
        for factor, factor_state in entangled:
            sub = self.pure_value(factor_state)
            lo += sub.value_lo
            hi += sub.value_hi
            parts.append({"factor": list(factor.indices), "interval": [sub.value_lo, sub.value_hi]})
        trace = {
            "rule": "factor-sum",
            "partition": structure.label,
            "terms": parts,
            "inferred": bool(m >= 5),
        }
        return _result(lo, hi, trace)

    def _genuine_value(
        self, state: PureState, structure: PartitionStructure
    ) -> SchmidtNumberResult:
        """The max-party rule, from the cut SVDs of factorize's ``structure``.

        Each party's cut record (structure._party_records()) gives its local
        rank. On three qubits the pair concurrences may decide every
        reduction (_ckw_reductions). Otherwise a three-party state's 2 x 2
        and 2 x 3 reductions are decided by their partial transpose where it
        is clear of a margin (_ppt_reductions). Each reduction rho_(not i)
        left is built from the record, its eigenvectors the cut side's full
        singular vectors, and those are decided together (mixed_values).
        """
        records = structure._party_records()
        subs = self._ckw_reductions(state, records)
        if subs is None:
            subs = self._ppt_reductions(state.profile.dims, records)
            rest = [i for i, sub in enumerate(subs) if sub is None]
            profiles = _reduction_profiles(state.profile.dims)
            rhos = _cut_reductions(
                [profiles[i] for i in rest],
                [records[i].vectors for i in rest],
                [records[i].s for i in rest],
            )
            for i, sub in zip(rest, self.mixed_values(rhos)):
                subs[i] = sub
        lo = hi = 0
        per_party = []
        for i, (rec, sub) in enumerate(zip(records, subs), 1):
            r_i = rec.rank
            lo = max(lo, r_i + sub.value_lo)
            hi = max(hi, r_i + sub.value_hi)
            per_party.append(
                {
                    "party": i,
                    "rank": r_i,
                    "reduction": [sub.value_lo, sub.value_hi],
                    "reduction_exact": sub.exact,
                }
            )
        maximizers = [p["party"] for p in per_party if p["rank"] + p["reduction"][1] == hi]
        trace = {
            "rule": "max-party-rule",
            "per_party": per_party,
            "maximizers": maximizers,
        }
        return _result(lo, hi, trace)

    def _ckw_reductions(
        self, state: PureState, records: list[_PartyCut]
    ) -> Optional[list[SchmidtNumberResult]]:
        """Exact [2, 2] for every pair reduction of a genuinely entangled three-qubit state, or None.

        The reductions are decided from their squared concurrences
        (_pair_concurrences) where every one clears the margin
        max(CKW_MARGIN, 4 tol); there the mixed ladder would also end in
        ppt-meets-eigen at [2, 2]:

        - eigen side: an eigenvector whose Schmidt weights have
          w1 <= tol * w0 has concurrence 2 sqrt(w0 w1) <= 2 sqrt(tol), so
          by convexity C^2 > 4 tol leaves a kept eigenvector of Schmidt
          rank 2 (those below EIGEN_WEIGHT_FLOOR add at most their weight
          to C), and eigen_hi = 2;
        - PPT side: the negativity is at least sqrt((1-C)^2 + C^2) - (1-C)
          (Verstraete, Audenaert, Dehaene and De Moor, J. Phys. A 34, 10327),
          so C^2 >= 1e-6 puts the least eigenvalue of the partial transpose
          below -2.5e-7, far below -PPT_NEG_TOL.

        None (the ladder decides) on other shapes and where a pair
        concurrence does not clear the margin: GHZ-like states and the gray
        zone keep the ladder's answer.
        """
        if state.profile.dims != (2, 2, 2):
            return None
        margin = max(CKW_MARGIN, 4.0 * self.tol)
        if np.min(_pair_concurrences(state.amplitudes, records)) <= margin:
            return None
        return [_result(2, 2, {"rule": "ckw-concurrence"}) for _ in records]

    def _ppt_reductions(
        self, dims: tuple[int, ...], records: list[_PartyCut]
    ) -> list[Optional[SchmidtNumberResult]]:
        """Per party, an exact result for a three-party state's 2 x 2 or 2 x 3 reduction, or None.

        On these shapes every state has Schmidt number <= 2 and PPT decides
        separability, so a reduction's value is 2 if its partial transpose
        has a negative eigenvalue and 1 if not. The matrices come from the
        cut records (core._cut_matrices), and the least partial-transpose
        eigenvalue lam of each from one stacked eigvalsh per reduction
        profile (bipartite._pt_least_eigenvalue). The mixed ladder, which
        would take the same matrices, returns the same exact values:

        - lam >= -PPT_NEG_TOL gives [1, 1]. The ladder computes this lam
          with this threshold and ends in eigen-ensemble or
          ppt-decisive-separable, both [1, 1].
        - lam < -margin, margin = max(PPT_NEG_TOL, sqrt(tol + 1e-14) +
          n EIGEN_WEIGHT_FLOOR) with n the reduction's dimension, gives
          [2, 2]. Were every kept eigenvector e of Schmidt rank 1 at tol,
          with Schmidt weights mu1 <= tol mu0, then (e e^dag)^T_A would have
          least eigenvalue -sqrt(mu0 mu1) >= -sqrt(tol + rounding). Each
          dropped eigenvector has weight <= EIGEN_WEIGHT_FLOOR and adds at
          least -1/2 of it. By Weyl's inequality lam would then be >=
          -margin, so some kept eigenvector has Schmidt rank 2, eigen_hi = 2,
          and the ladder ends in ppt-meets-eigen at [2, 2], the most these
          shapes allow.

        None for the other shapes, for states of other party counts, and in
        the gray zone between: the ladder decides those (mixed_values).
        Decided reductions take no DensityMatrix, memo key or memo entry.
        """
        out: list = [None] * len(records)
        if len(dims) != 3:
            return out
        profiles = _reduction_profiles(dims)
        first = _party_cuts(2)[0][0]
        shapes: dict = {}
        for i, profile in enumerate(profiles):
            if _ppt_decides(profile, first):
                shapes.setdefault(profile.dims, []).append(i)
        for group in shapes.values():
            profile = profiles[group[0]]
            mats = _cut_matrices(
                np.array([records[i].vectors for i in group], dtype=np.complex128),
                np.array([records[i].s for i in group]) ** 2,
            )
            lams = _pt_least_eigenvalue(mats, first, profile).tolist()
            slack = np.sqrt(self.tol + 1e-14) + profile.total_dim * EIGEN_WEIGHT_FLOOR
            margin = max(PPT_NEG_TOL, slack)
            for i, lam in zip(group, lams):
                if lam < -margin:
                    out[i] = _result(2, 2, {"rule": "ppt-decisive-entangled"})
                elif lam >= -PPT_NEG_TOL:
                    out[i] = _result(1, 1, {"rule": "ppt-decisive-separable"})
        return out

    # ---- mixed states ----------------------------------------------------

    def mixed_values(self, rhos: list[DensityMatrix]) -> list[SchmidtNumberResult]:
        """The values of several mixed states, decided together.

        Each matrix is looked up in the memo. The misses, deduplicated by
        key, run the early stages of the ladder stacked per profile
        (_early_stages); those left undecided continue one by one through
        the later stages (_mixed_value). Every result equals the one
        mixed_value gives for the matrix alone.
        """
        keys = _matrix_keys(rhos)
        fresh: dict = {}
        for key, rho in zip(keys, rhos):
            if key not in self._mixed_cache:
                fresh.setdefault(key, rho)
        groups: dict = {}
        for key, rho in fresh.items():
            groups.setdefault(rho.profile.dims, []).append(key)
        rungs = {}
        for group in groups.values():
            members = [fresh[key] for key in group]
            rungs.update(zip(group, self._early_stages(members[0].profile, members)))
        return [self.mixed_value(rho, key, rungs.get(key)) for key, rho in zip(keys, rhos)]

    def mixed_value(self, rho: DensityMatrix, key=None, rung=None) -> SchmidtNumberResult:
        """The value of one mixed state, memoized: ``mixed_values([rho])[0]``.

        ``key`` and ``rung`` (its early stages' outcome) come from
        mixed_values; a direct call computes both for a stack of one.
        """
        if key is None:
            key = _matrix_key(rho)
        hit = self._mixed_cache.get(key)
        if hit is None:
            hit = self._mixed_value(rho, rung)
            self._mixed_cache[key] = hit
        return hit

    @staticmethod
    def _eigen_elements(rho: DensityMatrix, w: np.ndarray, v: np.ndarray):
        keep = np.flatnonzero(w > EIGEN_WEIGHT_FLOOR)
        weights = w[keep] / w[keep].sum()
        states = [_unit_state(rho.profile, v[:, i]) for i in keep]
        return weights, states

    def _early_stages(self, profile: DimensionProfile, rhos: list[DensityMatrix]) -> list:
        """The early stages of the mixed ladder for distinct matrices of one profile.

        Per matrix, its result where these stages decide it, else an _Open
        record for the later stages. The stages, each stacked over the
        matrices still open: the spectrum rank (a rank-one matrix takes its
        eigenvector's pure value); the eigen value eigen_hi, from one
        Schmidt-rank SVD over the kept eigenvectors of every matrix with two
        parties and from the eigen elements' pure values otherwise; the PPT
        test, one eigvalsh per cut. No value reads the eigen witness, so each
        result and record carries only its builder (_eigen_witness), which
        forms the elements and runs the reconstruction check when the
        witness is first read.
        """
        m = profile.party_count
        if m == 1:
            return [_result(1, 1, {"rule": "single-party"}) for _ in rhos]
        spectra = [spectrum(rho) for rho in rhos]
        ranks = weight_rank(np.array([w for w, _ in spectra]), self.tol).tolist()
        out: list = [None] * len(rhos)
        rest = []  # (index, kept eigenvectors as rows, witness builder) of the open matrices
        for j, (rho, (w, v)) in enumerate(zip(rhos, spectra)):
            keep = np.flatnonzero(w > EIGEN_WEIGHT_FLOOR)
            witness = partial(_eigen_witness, rho, w, v)
            if ranks[j] == 1 and len(keep) == 1:
                sub = self.pure_value(_unit_state(profile, v[:, keep[0]]))
                trace = {"rule": "rank-one", "pure_trace": sub.branch_trace}
                out[j] = _result(sub.value_lo, sub.value_hi, trace, witness)
            else:
                rest.append((j, v[:, keep].T, witness))
        if not rest:
            return out
        if m == 2:
            amps = np.concatenate([vecs for _, vecs, _ in rest])
            first = _party_cuts(2)[0][0]
            flat = weight_rank(local_weights(amps, profile.dims, first), self.tol).tolist()
            eigen_his, at = [], 0
            for _, vecs, _ in rest:
                eigen_his.append(max(flat[at : at + len(vecs)]))
                at += len(vecs)
        else:
            eigen_his = [
                max(self.pure_value(_unit_state(profile, vec)).value_hi for vec in vecs)
                for _, vecs, _ in rest
            ]
        ppt = []  # (index, trace, witness) of the matrices the PPT test may decide
        for (j, _, witness), eigen_hi in zip(rest, eigen_his):
            trace = {"rank": ranks[j], "eigen_hi": eigen_hi}
            if eigen_hi == 1:
                trace["rule"] = "eigen-ensemble"
                out[j] = _result(1, 1, trace, witness)
            else:
                ppt.append((j, trace, witness))
        if not ppt:
            return out
        # PPT lower bound over all bipartitions, decisive shapes annotated
        cuts = _bipartitions(m)
        mats = np.array([rhos[j].matrix for j, _, _ in ppt])
        npt = [ppt_entangled(mats, c, profile=profile) for c in cuts]
        decisive = all(_ppt_decides(profile, c) for c in cuts)
        for b, (j, trace, witness) in enumerate(ppt):
            trace["npt_cuts"] = [list(c.indices) for c, flags in zip(cuts, npt) if flags[b]]
            w, v = spectra[j]
            hi = trace["eigen_hi"]
            if trace["npt_cuts"]:
                lo = 2
            elif decisive:
                # Horodecki: PPT on a 2x2 / 2x3 shape proves separability
                trace["rule"] = "ppt-decisive-separable"
                out[j] = _result(1, 1, trace, None)
                continue
            else:
                lo = 1
            if lo == hi:
                trace["rule"] = "ppt-meets-eigen"
                out[j] = _result(lo, hi, trace, witness)
            else:
                out[j] = _Open(w, v, ranks[j], trace, lo, hi, witness)
        return out

    def _mixed_value(self, rho: DensityMatrix, rung=None) -> SchmidtNumberResult:
        """The later stages of the mixed ladder for one matrix.

        ``rung`` is what the early stages left for it (_early_stages; run
        here for a stack of one when absent): a result, or an _Open record
        to continue from.
        """
        if rung is None:
            rung = self._early_stages(rho.profile, [rho])[0]
        if not isinstance(rung, _Open):
            return rung
        w, v, k, trace, lo, hi, witness = rung

        # exact product-ensemble routes; they also sharpen lo when products
        # provably cannot mix to rho
        route, cand = self._product_route(rho, w, v)
        trace["product_route"] = route
        if cand is not None:
            return _result(1, 1, trace | {"rule": "product-ensemble"}, cand)
        if route in ("no-products-in-range", "products-cannot-mix"):
            lo = max(lo, 2)
            if lo == hi:
                trace["rule"] = "product-exclusion-meets-eigen"
                return _result(lo, hi, trace, witness)

        # range-span certificate: prove nothing below the eigen value exists
        plane = k == 2 and w[1] > EIGEN_WEIGHT_FLOOR
        if lo < hi and plane:
            cert = self._span_certificate(rho, v, hi - 1)
            trace["certificate"] = cert["summary"]
            if cert["certified"]:
                return _result(hi, hi, trace | {"rule": "range-span-certified"}, witness)

        # the range rays decide every level up to their top exactly, lowest
        # first: the first level whose rays mix to rho is the value, and each
        # level whose rays cannot mix is a proved lower bound
        found = self._range_rays(rho.profile, v) if plane else None
        if found is not None:
            rays, top = found
            for r in range(lo, min(hi, top + 1)):
                cand = _solve_mixture(rho, [s for s, val in rays if val <= r])
                if cand is not None:
                    return _result(r, r, trace | {"rule": "range-ray-mixture"}, cand)
                lo = r + 1

        # ensemble searches, ascending target
        attempts = []
        for r in range(lo, hi):
            cand = self.search_ensemble(rho, r)
            attempts.append({"target": r, "found": cand is not None})
            if cand is not None:
                hi = r
                witness = cand
                break
        trace["search_attempts"] = attempts
        trace["rule"] = "interval"
        return _result(lo, hi, trace, witness)

    # ---- exact product routes --------------------------------------------

    def _product_route(self, rho: DensityMatrix, w: np.ndarray, v: np.ndarray):
        """Try to settle whether rho is a mixture of fully product states."""
        mat = rho.matrix
        diag = np.real(np.diag(mat)).copy()
        off = mat - np.diag(np.diag(mat))
        if float(np.max(np.abs(off))) <= 1e-11 * max(float(diag.max()), 1e-30):
            idx = [int(i) for i in np.flatnonzero(diag > EIGEN_WEIGHT_FLOOR)]
            weights = diag[idx] / diag[idx].sum()
            states = []
            for i in idx:
                vec = np.zeros(rho.profile.total_dim, dtype=np.complex128)
                vec[i] = 1.0
                states.append(_checked_state(rho.profile, vec))
            cand = _build_candidate(rho, weights, states)
            if cand is not None:
                return "diagonal-basis", cand
        k = weight_rank(w, self.tol)
        if k > 2:
            cand = _qubit_pencil_products(rho, v, k, self.tol)
            return ("qubit-pencil-products", cand) if cand is not None else ("inconclusive", None)
        if k != 2 or w[1] <= EIGEN_WEIGHT_FLOOR:
            return "inconclusive", None
        found = self._range_rays(rho.profile, v)
        if found is None:
            return "inconclusive", None
        rays, top = found
        products = [s for s, val in rays if val == 1]
        cand = _solve_mixture(rho, products)
        if cand is not None:
            return "rank2-products", cand
        if top < 1:
            return "inconclusive", None
        return ("products-cannot-mix" if products else "no-products-in-range"), None

    def _range_rays(self, profile: DimensionProfile, v: np.ndarray) -> Optional[tuple]:
        """(rays, top) for the range line span{v1, v2} (orthonormal columns of v).

        ``rays`` are (state, value) pairs that include every state of value
        <= top on the line, each with its exact value, so _solve_mixture over
        the rays of value <= r decides level r exactly for every r <= top.
        They are v1, v2 and the rank drops of every cut's unfolding pencil
        alpha*M1 + beta*M2 (M1, M2 the unfoldings of v1, v2): a state whose
        rank at a cut is below the pencil's generic rank g is one of its
        finitely many rank-drop rays. Every state that factorizes, so every
        state that is not genuinely entangled, is such a drop wherever all
        cuts have g >= 2. What bounds the genuinely entangled rest:

        - two parties: the Schmidt rank, g everywhere off the drops;
        - three qubits: value <= 3 iff the CKW gap vanishes (_ckw_states);
        - otherwise the range composition of _composed_bound.

        None when a root is too shallow to be accurate. Memoized per range.
        """
        key = _range_key(v[:, :2], profile.dims)
        if key not in self._ray_cache:
            self._ray_cache[key] = self._line_rays(profile, v[:, 0], v[:, 1])
        return self._ray_cache[key]

    def _line_rays(self, profile: DimensionProfile, v1: np.ndarray, v2: np.ndarray):
        dims = profile.dims
        m = len(dims)
        single = _party_cuts(m)[0]
        if m == 2:
            cuts = single[:1]
        else:  # single parties first, then the cuts of two or more on each side
            cuts = single + tuple(c for c in _bipartitions(m) if 1 < len(c) < m - 1)
        generic, drops = [], []
        for cut in cuts:
            g, found = _pencil_drops(unfold(v1, dims, cut), unfold(v2, dims, cut), self.tol)
            generic.append(g)
            drops.extend(found)
        roots = [_unit_state(profile, a * v1 + b * v2) for a, b in drops]
        states = roots + [_unit_state(profile, v1), _unit_state(profile, v2)]
        # one stacked decomposition per cut serves every state of the line
        stack = np.stack([st.amplitudes for st in states])
        spectra = [local_weights(stack, dims, cut) for cut in cuts]
        ranks = [weight_rank(p, self.tol) for p in spectra]
        n = len(roots)
        if any(np.any(weight_rank(p[:n], ROOT_FLOOR) != r[:n]) for p, r in zip(spectra, ranks)):
            return None  # a root neither clean nor clearly off: no exact claim
        if m == 2:
            rays = [(states[j], int(ranks[0][j])) for j in _dedupe_index(states)]
            return rays, generic[0] - 1
        if min(generic) == 1:
            # every point factorizes at that cut; a cut of g >= 2 still lists
            # every fully product state
            top = 1 if max(generic) > 1 else 0
        elif dims == (2, 2, 2):  # the cuts are the three single parties
            products = [
                roots[j]
                for j in _dedupe_index(roots)
                if all(r[j] == 1 for r in ranks)
            ]
            ckw = self._ckw_states(profile, v1, v2, products)
            top = 2 if ckw is None else 3
            states += ckw or []
        else:
            top = self._composed_bound(profile, v1, v2, generic[:m]) - 1
        rays = []
        for st in _dedupe_states(states):
            res = self.pure_value(st)
            if res.value_lo < res.value_hi:
                top = min(top, res.value_lo - 1)
            rays.append((st, res.value_hi))
        return rays, top

    def _ckw_states(self, profile: DimensionProfile, v1: np.ndarray, v2: np.ndarray, products):
        """The states of value <= 3 on a three-qubit line beyond its drops.

        A genuinely entangled three-qubit state has value 2 + (value of a pair
        reduction) at each party, so its value is <= 3 iff every pair
        reduction is separable. By Coffman-Kundu-Wootters,
        sum_i 4 det(rho_i) - 3 tau = 2 sum_pairs C^2 with tau = 4 |Det psi|,
        so that holds iff the gap P = (S/3)^2 - |H|^2 vanishes (S the summed
        det(rho_i), H Cayley's hyperdeterminant). Fully product states are
        zeros too; biseparable states are not (their value 2 comes from the
        party drops). ``products`` are the line's fully product drops. Zeros
        pass a margin test like ROOT_FLOOR's (_ckw_zeros) and must have pure
        value <= 3. None when they cannot be listed: P vanishes on the whole
        line (all of it has value <= 3), a singular eliminant, or a zero
        without a clear margin.
        """
        rays = [(np.vdot(v1, st.amplitudes), np.vdot(v2, st.amplitudes)) for st in products]
        zeros = _ckw_zeros(v1, v2, rays, self.tol)
        if zeros is None:
            return None
        out = [_unit_state(profile, a * v1 + b * v2) for a, b in zeros]
        return out if all(self.pure_value(st).value_hi <= 3 for st in out) else None

    def _composed_bound(self, profile: DimensionProfile, v1, v2, generic: list[int]) -> int:
        """A lower bound on the value of every state of the line off its rank drops.

        Such a state psi is genuinely entangled, so its value is at least
        g_i + R(rho_i') at each party i, with g_i the party's generic local
        rank, rho_i' psi's reduction onto the other parties and R >= 1.
        range(rho_i') is the span of psi's party-i slices. Where the slices of
        v1 and v2 together span only a plane P_i, that range is P_i at every
        point of local rank 2, and the bound of _plane_bound on the value of
        every rank-2 state with range P_i holds there.
        """
        dims = profile.dims
        bound = 0
        for i, g in enumerate(generic):
            side = _party_cuts(len(dims))[0][i]
            slices = np.concatenate([unfold(v1, dims, side), unfold(v2, dims, side)])
            _, s, vh = np.linalg.svd(slices, full_matrices=False)
            least = 1
            if g == 2 and weight_rank(s**2, ROOT_FLOOR) == 2:
                rest = DimensionProfile(dims[:i] + dims[i + 1 :])
                least = self._plane_bound(rest, vh[:2].T)
            bound = max(bound, g + least)
        return bound

    def _plane_bound(self, profile: DimensionProfile, basis: np.ndarray) -> int:
        """The least value any rank-2 state whose range is span(basis) can have.

        Its ensembles span the range, so while the states of value <= s in the
        range span fewer than 2 dimensions, its value exceeds s.
        """
        found = self._range_rays(profile, basis)
        if found is None:
            return 1
        rays, top = found
        for s in range(1, top + 1):
            if sum(val <= s for _, val in rays) >= 2:
                return s
        return top + 1

    # ---- range-span lower bound -------------------------------------------

    def _span_certificate(self, rho: DensityMatrix, v: np.ndarray, r: int) -> dict:
        """Certify that no ensemble of rho can consist of value <= r states.

        Returns {"certified", "summary"}. ``_range_rays`` lists every state of
        value <= r on the range line up to the rays' top (pencil drops; the
        CKW zeros on three qubits; the range composition on three or more
        parties not all qubits): certified iff those states cannot mix to
        rho. Above the top the summary is "inconclusive", and "ambiguous"
        when a root is too shallow to list the rays at all.
        """
        found = self._range_rays(rho.profile, v)
        if found is None:
            return {"certified": False, "summary": {"certified": False, "reason": "ambiguous"}}
        rays, top = found
        if r > top:
            summary = {"certified": False, "level": int(r), "reason": "inconclusive"}
            return {"certified": False, "summary": summary}
        low = [s for s, val in rays if val <= r]
        certified = _solve_mixture(rho, low) is None
        summary = {"certified": certified, "level": int(r), "range_rays": len(low)}
        return {"certified": certified, "summary": summary}

    # only the target of the benchmark's number.polish hook; goes with that hook (ROADMAP item 1)
    def _polish_zero_hunt(self, *args) -> bool:
        raise AssertionError("unreachable")

    # ---- ensemble search ---------------------------------------------------

    def search_ensemble(self, rho: DensityMatrix, target_r: int) -> Optional[EnsembleCandidate]:
        """Find an ensemble of rho whose elements all have value <= target_r.

        Tries the eigen-ensemble, the exact product routes (target 1), then
        seeded smooth optimization over the isometry parametrization of all
        decompositions; candidates pass a hard per-element re-verification.
        The optimization is skipped where its surrogate (_element_tail)
        vanishes on every state: three or more parties with target_r - 1 at
        least every local rank bound. Absence of a result is not a proof of
        impossibility.
        """
        if target_r < 1:
            raise ValueError("target rank must be >= 1")
        w, v = spectrum(rho)
        weights, elements = self._eigen_elements(rho, w, v)
        if all(self.pure_value(s).value_hi <= target_r for s in elements):
            cand = _build_candidate(rho, weights, elements)
            if cand is not None:
                return cand
        if target_r == 1:
            route, cand = self._product_route(rho, w, v)
            if cand is not None:
                return cand
            if route in ("no-products-in-range", "products-cannot-mix"):
                return None
        dims, total = rho.profile.dims, rho.profile.total_dim
        if len(dims) >= 3 and all(target_r - 1 >= min(d, total // d) for d in dims):
            return None  # _element_tail vanishes identically: nothing to minimize
        return self._optimized_ensemble(rho, target_r, weights, elements)

    def _optimized_ensemble(self, rho, target_r, weights, elements):
        k = len(elements)
        basis = np.column_stack([s.amplitudes for s in elements])
        b_mat = basis * np.sqrt(weights)
        profile = rho.profile
        sizes = sorted({min(n, k * k) for n in (k, k + 1, 2 * k)})
        restarts = max(1, self.budget.restarts // 8)
        iters = max(30, self.budget.iters // 5)

        for attempt in range(restarts):
            n = sizes[attempt % len(sizes)]
            rng = stream(self.budget.seed, "ensemble", _matrix_key(rho)[1], target_r, attempt)
            theta0 = rng.normal(scale=0.7, size=n * n)
            res = minimize(
                lambda th: _ensemble_objective(_ensemble_columns(b_mat, th, n), profile, target_r),
                theta0,
                method="L-BFGS-B",
                options={"maxiter": iters},
            )
            if res.fun > 1e-9:
                continue
            cols = _ensemble_columns(b_mat, res.x, n)
            out_w, out_s = [], []
            ok = True
            for j in range(cols.shape[1]):
                p = float(np.vdot(cols[:, j], cols[:, j]).real)
                if p < EIGEN_WEIGHT_FLOOR:
                    continue
                st = _checked_state(profile, cols[:, j] / np.sqrt(p))
                if self.pure_value(st).value_hi > target_r:
                    ok = False
                    break
                out_w.append(p)
                out_s.append(st)
            if not ok or not out_s:
                continue
            cand = _build_candidate(rho, np.array(out_w) / sum(out_w), out_s)
            if cand is not None:
                return cand
        return None


# ---- helpers -----------------------------------------------------------------


def _pencil_drops(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """The generic rank g of alpha*a + beta*b and unit rays (alpha, beta) holding its drops.

    Compressed by the leading singular vectors of a generic member, the
    pencil is a regular g x g one (g its generic rank) whose determinant
    vanishes wherever the rank falls below g; its g generalized eigenvalues
    are those rays and possibly others, whose rank the caller tests. A
    lower-rank ray is generically a semisimple eigenvalue, found to rounding
    accuracy; the caller's margin test catches the others.
    """
    u, s, vh = np.linalg.svd(_PROBES[:, None, None] * a + b)  # the three members at once
    g = int(weight_rank(s**2, tol).max())
    best = int(np.argmax(s[:, g - 1] / s[:, 0]))
    left, right = u[best, :, :g].conj().T, vh[best, :g].conj().T
    # beta_h * A x = alpha_h * B x, so alpha*A + beta*B is singular at (beta_h, -alpha_h)
    alpha_h, beta_h = _homogeneous_eigvals(left @ a @ right, left @ b @ right)
    rays = np.column_stack([beta_h, -alpha_h])
    return g, rays / np.linalg.norm(rays, axis=1, keepdims=True)


def _homogeneous_eigvals(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The generalized eigenvalues (alpha, beta) of the square pencil (a, b): beta*a x = alpha*b x.

    LAPACK ggev with the workspace query of scipy.linalg.eigvals(a, b,
    homogeneous_eigvals=True), without that wrapper's overhead; the inputs
    are checked to be finite as its check_finite does.
    """
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    (ggev,) = get_lapack_funcs(("ggev",), (a, b))
    lwork = ggev(a, b, lwork=-1)[-2][0].real.astype(np.int_)
    alpha, beta, _, _, _, info = ggev(a, b, 0, 0, lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"generalized eig algorithm (ggev) failed (LAPACK info={info})")
    return alpha, beta


def _polar(x: np.ndarray, y: np.ndarray):
    """b(x, y) in det(x + t*y) = det(x) + t*b(x, y) + t^2*det(y), for 2 x 2 blocks."""
    return (
        x[..., 0, 0] * y[..., 1, 1]
        + x[..., 1, 1] * y[..., 0, 0]
        - x[..., 0, 1] * y[..., 1, 0]
        - x[..., 1, 0] * y[..., 0, 1]
    )


def _pair_concurrences(amplitudes: np.ndarray, records: list[_PartyCut]) -> np.ndarray:
    """The squared concurrence of each pair reduction rho_(not i) of a three-qubit state.

    By Coffman-Kundu-Wootters 4 det(rho_i) = C_ij^2 + C_ik^2 + tau at every
    party i, so C_jk^2 = (4 det rho_j + 4 det rho_k - 4 det rho_i - tau) / 2.
    det(rho_i) = w0 * w1 from party i's cut weights, and tau = 4 |H| with
    H = b^2 - 4 det(X) det(Y) Cayley's hyperdeterminant from the party-1
    slices X, Y (b = _polar(X, Y), det X = _polar(X, X) / 2).
    """
    dets = 4.0 * np.array([rec.weights[0] * rec.weights[1] for rec in records])
    x, y = amplitudes.reshape(2, 2, 2)
    tau = 4.0 * abs(_polar(x, y) ** 2 - _polar(x, x) * _polar(y, y))
    return (dets.sum() - 2.0 * dets - tau) / 2.0


def _det_line(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of det(x + z*y) in ascending powers of z, for 2 x 2 blocks."""
    return np.stack([_polar(x, x) / 2.0, _polar(x, y), _polar(y, y) / 2.0], axis=-1)


def _ckw_polynomials(v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S and H of the three-qubit line psi(z) = v1 + z*v2 as coefficient arrays.

    S = sum_i det(rho_i) has bidegree (2, 2) in z and w = conj(z):
    S = sum_ab sig[a, b] z^a w^b. By Cauchy-Binet det(rho_i) is the summed
    |2 x 2 minor|^2 of party i's 2 x 4 unfolding. H = h[0] + ... + h[4] z^4
    is Cayley's hyperdeterminant: with the party-1 slices X, Y,
    det(X + tY) = a + bt + ct^2 and H = b^2 - 4ac.
    """
    t1, t2 = v1.reshape(2, 2, 2), v2.reshape(2, 2, 2)
    pairs = np.array([(j, k) for j in range(4) for k in range(j + 1, 4)])
    minors = []
    for i in range(3):
        u1 = np.moveaxis(t1, i, 0).reshape(2, 4)[:, pairs].transpose(1, 0, 2)
        u2 = np.moveaxis(t2, i, 0).reshape(2, 4)[:, pairs].transpose(1, 0, 2)
        minors.append(_det_line(u1, u2))
    minors = np.concatenate(minors)
    x1, y1, x2, y2 = t1[0], t1[1], t2[0], t2[1]
    b = np.array([_polar(x1, y1), _polar(x1, y2) + _polar(x2, y1), _polar(x2, y2)])
    h = np.convolve(b, b) - 4.0 * np.convolve(_det_line(x1, x2), _det_line(y1, y2))
    return minors.T @ minors.conj(), h


def _ckw_form(sig: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Coefficients of F(z, w) = S(z, w)^2/9 - H(z)*conj(H)(w), as sig for S."""
    n = sig.shape[0]
    f = -np.outer(h, h.conj())
    for a in range(n):
        for b in range(n):
            f[a : a + n, b : b + n] += sig[a, b] * sig / 9.0
    return f


def _ckw_zeros(v1: np.ndarray, v2: np.ndarray, products: list, tol: float) -> Optional[np.ndarray]:
    """Unit rays (beta, alpha) holding every zero of the CKW gap on span{v1, v2}.

    With S and H from _ckw_polynomials, the gap on psi(z) = v1 + z*v2 is
    F(z, conj z) for F = S^2/9 - H(z)*conj(H)(w). ``products`` lists the
    fully product states of the line as rays (a, b) of a*v1 + b*v2. At each
    of them S vanishes on z = b/a and on w = conj(b/a) and H to second order,
    which would give every z a common root w; those factors are divided out
    first. What is left is >= 0 on w = conj(z), so its zeros are critical
    points, where its z- and w-derivatives share a root w. Their Sylvester
    matrix in w (7 x 7 with no product on the line), a polynomial in z, is
    singular there; its companion linearization is a generalized eigenproblem
    (28 x 28), whose eigenvalue z is the state beta*v1 + alpha*v2. Of those
    critical points, the zeros are kept. An empty list when H vanishes (the
    gap S^2/9 is then zero only at fully product states); None when the gap
    vanishes on the whole line, the eliminant is singular or a critical
    point is neither clearly a zero nor clearly off. H and F vanish when
    their coefficients are below ``tol`` times the line's scale: the largest
    S coefficient for H, its square for F.
    """
    sig0, h0 = _ckw_polynomials(v1, v2)
    scale = np.max(np.abs(sig0))
    if np.max(np.abs(h0)) <= tol * scale:
        return np.zeros((0, 2))
    if np.max(np.abs(_ckw_form(sig0, h0))) <= tol * scale**2:
        return None
    if len(products) > 2:
        return None
    sig, h = sig0, h0
    for a, b in products:
        sig = _deflate(_deflate(sig, a, b, 0), np.conj(a), np.conj(b), 1)
        h = _deflate(_deflate(h, a, b, 0), a, b, 0)
    f = _ckw_form(sig, h)
    n = f.shape[0] - 1  # degree in z and in w
    if n == 0:
        return np.zeros((0, 2))
    fz = f[1:] * np.arange(1, n + 1)[:, None]
    fw = f[:, 1:] * np.arange(1, n + 1)
    size = 2 * n - 1
    syl = np.zeros((n + 1, size, size), dtype=np.complex128)  # by powers of z
    for row in range(n - 1):
        syl[:n, row, row : row + n + 1] = fz[:, ::-1]
    for row in range(n):
        syl[:, n - 1 + row, row : row + n] = fw[:, ::-1]
    members = [np.tensordot(z ** np.arange(n + 1), syl, axes=1) for z in _PROBES]
    spectra = [np.linalg.svd(mat, compute_uv=False) for mat in members]
    if all(s[-1] <= CKW_FLOOR * s[0] for s in spectra):  # singular: det M(z) == 0
        return None
    # x = (v, zv, .., z^(n-1) v): x_(k+1) = z x_k, and M(z) v = 0 in the last block row
    lhs = np.eye(n * size, k=size, dtype=np.complex128)
    lhs[-size:] = -syl[:n].transpose(1, 0, 2).reshape(size, n * size)
    rhs = np.eye(n * size, dtype=np.complex128)
    rhs[-size:, -size:] = syl[n]
    alpha, beta = _homogeneous_eigvals(lhs, rhs)
    rays = np.column_stack([beta, alpha])
    norms = np.linalg.norm(rays, axis=1, keepdims=True)
    if not np.all(np.isfinite(rays)) or np.any(norms == 0.0):
        return None
    rays = rays / norms
    # the gap relative to (S/3)^2, 1 - (3|H|/S)^2 in [0, 1], does not shrink
    # near fully product states (S = 0, where it is 0) as the gap does
    quad = rays[:, :1] ** np.arange(2, -1, -1) * rays[:, 1:] ** np.arange(3)  # z^k ~ alpha^k
    quart = rays[:, :1] ** np.arange(4, -1, -1) * rays[:, 1:] ** np.arange(5)
    s = np.maximum(np.einsum("na,ab,nb->n", quad, sig0, quad.conj()).real, 0.0)
    ratio = 3.0 * np.abs(quart @ h0) / np.maximum(s, CKW_FLOOR)
    gap = np.where(s > CKW_FLOOR, 1.0 - ratio**2, 0.0)
    if np.any((gap > CKW_FLOOR) & (gap < CKW_MARGIN)):
        return None  # a zero without a clear margin
    return rays[gap <= CKW_FLOOR]


def _deflate(c: np.ndarray, a: complex, b: complex, axis: int) -> np.ndarray:
    """Quotient of polynomials (ascending coefficients along ``axis``) by a*z - b.

    The division runs from the end where it is stable: from the top when
    |b/a| <= 1, else from the bottom. The remainder, zero up to rounding, is
    dropped.
    """
    c = np.moveaxis(c, axis, 0)
    n = c.shape[0] - 1
    q = np.zeros((n,) + c.shape[1:], dtype=np.complex128)
    if abs(a) >= abs(b):
        q[n - 1] = c[n] / a
        for k in range(n - 1, 0, -1):
            q[k - 1] = (c[k] + b * q[k]) / a
    else:
        q[0] = -c[0] / b
        for k in range(1, n):
            q[k] = (a * q[k - 1] - c[k]) / b
    return np.moveaxis(q, 0, axis)


def _qubit_pencil_products(
    rho: DensityMatrix, v: np.ndarray, k: int, tol: float
) -> Optional[EnsembleCandidate]:
    """A product ensemble of a 2 x N rho of rank k <= N, if one exists.

    a (x) b lies in the range iff a^T C b = 0 for every kernel vector c (C
    its conjugated unfolding, qubit rows), i.e. iff b is a null vector of
    a0*K0 + a1*K1. With k <= N that (2N-k) x N pencil has full column rank
    but at finitely many rays a, its generalized eigenvalues, and a product
    ensemble of rho can only use the products found there. Only a mixture
    is reported; it passes the reconstruction check of _build_candidate.
    """
    dims = rho.profile.dims
    if len(dims) != 2 or 2 not in dims or k > max(dims):
        return None
    q = dims.index(2)
    mats = v[:, k:].conj().T.reshape(-1, *dims)
    if q == 1:
        mats = mats.transpose(0, 2, 1)
    k0, k1 = mats[:, 0, :], mats[:, 1, :]
    products = []
    for a in _pencil_drops(k0, k1, tol)[1]:
        _, s, vh = np.linalg.svd(a[0] * k0 + a[1] * k1)
        if weight_rank(s**2, tol) != s.size - 1:
            continue  # no rank drop, or a continuum of products at this a
        b = vh[-1].conj()
        products.append(_unit_state(rho.profile, np.kron(a, b) if q == 0 else np.kron(b, a)))
    return _solve_mixture(rho, _dedupe_states(products))


def _dedupe_index(states: list[PureState]) -> list[int]:
    """Indices of the states kept when later near-duplicate rays are dropped."""
    out: list[int] = []
    for j, s in enumerate(states):
        if all(abs(np.vdot(states[i].amplitudes, s.amplitudes)) < 1.0 - 1e-9 for i in out):
            out.append(j)
    return out


def _dedupe_states(states: list[PureState]) -> list[PureState]:
    return [states[j] for j in _dedupe_index(states)]


def _solve_mixture(rho: DensityMatrix, states: list[PureState]) -> Optional[EnsembleCandidate]:
    """Nonnegative weights mixing the given pure states into rho, if any."""
    if not states:
        return None
    cols = []
    for s in states:
        dyad = np.outer(s.amplitudes, s.amplitudes.conj()).reshape(-1)
        cols.append(np.concatenate([dyad.real, dyad.imag]))
    a_mat = np.column_stack(cols)
    target = rho.matrix.reshape(-1)
    b_vec = np.concatenate([target.real, target.imag])
    w, resid = nnls(a_mat, b_vec)
    if resid > 1e-8:
        return None
    keep = [(float(w[i]), states[i]) for i in range(len(states)) if w[i] > EIGEN_WEIGHT_FLOOR]
    if not keep:
        return None
    total = sum(p for p, _ in keep)
    return _build_candidate(rho, [p / total for p, _ in keep], [s for _, s in keep])


def _build_candidate(rho: DensityMatrix, weights, states) -> Optional[EnsembleCandidate]:
    """The ensemble if it is valid and reconstructs rho, else None."""
    try:
        cand = EnsembleCandidate(tuple(float(p) for p in weights), tuple(states))
    except ValueError:
        return None
    err = float(np.linalg.norm(cand.reconstruct() - rho.matrix))
    return cand if err <= RECONSTRUCTION_ATOL else None


def _eigen_witness(rho: DensityMatrix, w, v) -> Optional[EnsembleCandidate]:
    """The eigen ensemble of rho (eigensystem w, v), if it passes _build_candidate."""
    return _build_candidate(rho, *_Engine._eigen_elements(rho, w, v))


def _ensemble_columns(b_mat: np.ndarray, theta: np.ndarray, n: int) -> np.ndarray:
    """The n unnormalized ensemble columns b_mat U[:k] of the unitary U = exp(i H(theta))."""
    u = expm(1j * _hermitian_from(theta, n))
    return b_mat @ u[: b_mat.shape[1], :]


def _ensemble_objective(cols: np.ndarray, profile: DimensionProfile, target_r: int) -> float:
    """Sum over the columns of mass times _element_tail, skipping negligible columns.

    The kept columns' surrogates come from one stacked _element_tail, and
    the sum runs in column order: the value is bitwise the column-by-column
    sum.
    """
    mass = [float(np.vdot(cols[:, j], cols[:, j]).real) for j in range(cols.shape[1])]
    kept = [j for j, p in enumerate(mass) if p >= EIGEN_WEIGHT_FLOOR]
    total = 0.0
    if not kept:
        return total
    elements = np.array([cols[:, j] / np.sqrt(mass[j]) for j in kept])
    for j, tail in zip(kept, _element_tail(elements, profile, target_r)):
        total += mass[j] * tail
    return total


def _element_tail(vec: np.ndarray, profile: DimensionProfile, target_r: int):
    """Smooth surrogate for 'value <= target_r' of one ensemble element.

    Leading axes of ``vec`` before the last stack several elements, giving
    the list of their surrogates from one SVD per party; each equals the
    element's own.
    """
    rows = vec.reshape(-1, vec.shape[-1])
    units = np.array([row / np.linalg.norm(row) for row in rows])
    spectra = [local_weights(units, profile.dims, s) for s in _party_cuts(profile.party_count)[0]]
    if target_r == 1:
        tails = sum(1.0 - p[:, 0] for p in spectra)
    elif profile.party_count == 2:
        tails = _tail(spectra[0], target_r)
    else:
        # necessary condition mass: every local rank must stay below target_r
        tails = sum(_tail(p, target_r - 1) for p in spectra)
    return tails.tolist() if vec.ndim > 1 else float(tails[0])


# ---- public API ---------------------------------------------------------------


def pure_schmidt_number(
    state: PureState, budget: SearchBudget = DEFAULT_BUDGET, tol: float = DEFAULT_RANK_TOL
) -> SchmidtNumberResult:
    """Schmidt number of a multipartite pure state (interval, usually exact)."""
    return _Engine(budget, tol).pure_value(state)


def mixed_schmidt_number(
    rho: DensityMatrix, budget: SearchBudget = DEFAULT_BUDGET, tol: float = DEFAULT_RANK_TOL
) -> SchmidtNumberResult:
    """Convex-roof Schmidt number interval of a mixed state, its witness built."""
    result = _Engine(budget, tol).mixed_value(rho)
    result.witness_ensemble  # a public result is returned whole: read the witness here
    return result


def ensemble_search(
    rho: DensityMatrix,
    target_r: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    tol: float = DEFAULT_RANK_TOL,
) -> Optional[EnsembleCandidate]:
    """Search for an ensemble of rho whose elements all have value <= target_r."""
    return _Engine(budget, tol).search_ensemble(rho, target_r)


def slocc_rank_check(
    state: PureState,
    local_invertibles: list[np.ndarray],
    budget: SearchBudget = DEFAULT_BUDGET,
    tol: float = DEFAULT_RANK_TOL,
) -> bool:
    """Whether the Schmidt number survives an invertible local transformation."""
    # apply_local_operators checks the operator count and shapes
    transformed = apply_local_operators(state, local_invertibles)
    for op in local_invertibles:
        if np.linalg.cond(np.asarray(op, dtype=np.complex128)) > 1e10:
            raise ValueError("operator is too close to singular (condition number > 1e10)")
    engine = _Engine(budget, tol)
    before = engine.pure_value(state)
    after = engine.pure_value(transformed)
    return (before.value_lo, before.value_hi) == (after.value_lo, after.value_hi)
