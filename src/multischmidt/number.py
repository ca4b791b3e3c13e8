"""Generalized Schmidt number for multipartite pure and mixed states.

Pure states follow the local-rank recursion: 1 for fully separable states,
the value of the single entangled factor for one-factor products, the sum of
factor values when several factors are entangled, and for genuinely
entangled states the maximum over parties of (local rank + Schmidt number of
the complementary mixed reduction).

Mixed states use the convex roof over pure ensembles. Because the roof is
not computable in general, results are intervals [value_lo, value_hi] with
an ``exact`` flag:

- value_hi comes from explicit ensembles: the eigen ensemble, exact mixtures
  of range rays on rank-2 ranges, exact product mixtures of 2 x N states of
  rank <= N from their kernel pencil, or the seeded search stage
  (_Engine.search_ensemble, rule searched-ensemble where it closes the
  interval). The search answers two questions (_search_answers): is there
  a product ensemble (target 1, any party count), and is there one of
  Schmidt rank <= r (two parties); a trace's search_attempts lists the
  searches that ran. _Engine.find_ensemble runs the same stages at one
  target;
- value_lo combines the partial-transpose test over all bipartitions with
  one level walk on rank-2 ranges (_Engine._span_certificate), which alone
  decides their levels: every ensemble of rho spans its range, so level r
  holds iff the states of value <= r on the range line mix to rho. Wherever
  those are finitely many and all listed (the loci module: every cut's rank
  drops, and on three qubits the zeros of the Coffman-Kundu-Wootters gap),
  nonnegative least squares decides the levels lowest first: the first that
  mixes is the value, each that does not a lower bound. After an NPT cut rho
  has no product ensemble: no product listing or product search runs, so on
  three or more parties no search runs at all. On four or more parties
  range-only bounds compose: where party i's slices span a fixed plane P_i,
  every other state has value >= g_i + (the least value of a rank-2 state
  with range P_i), a bound from one exact solve on P_i. The same composition
  serves three parties that are not all qubits, whose planes P_i are
  two-party ranges. Above the composed bound the result stays an interval.

Every pure-state spectrum and rank comes from the core primitive
(core.local_weights and core.weight_rank, both stack-aware). Spectra are
computed once per pure state. A two-party pure state's value is its Schmidt
rank, from one SVD. With three or more parties the max-party rule reads each
local rank r_i off the cut SVDs that factorize has already computed. On
three qubits it first tries a closed form: by Coffman-Kundu-Wootters each
pair reduction's squared concurrence follows from the cut weights and
Cayley's hyperdeterminant (loci._pair_concurrences), and where every one
clears the margin max(loci.CKW_MARGIN, 4 tol) every reduction is an exact
[2, 2], which is what the mixed ladder would return there
(_Engine._ckw_reductions). Otherwise a three-party state's 2 x 2 and 2 x 3
reductions, where PPT is decisive, are decided by the least eigenvalue of
their partial transpose wherever it is clear of a margin, from matrices
built off the cut record with one eigvalsh per reduction profile and no
DensityMatrix (_Engine._ppt_reductions); the mixed ladder would return the
same exact values there, and the decided reductions share two
module-level results instead of building one each. Every reduction
rho_(not i) left is built from the same cuts' factors (core._cut_reductions:
no partial trace, no second eigh) and goes through the mixed ladder one
matrix at a time (_Engine.mixed_value, memoized per matrix), whose cheap
stages come first: one Schmidt-rank SVD over the kept eigenvectors of a
two-party reduction and one eigvalsh per cut for the PPT test. A Haar
(2,2,2) state costs three SVDs (its cuts) and no eigvalsh; a Haar (2,2,3)
state three SVDs and two eigvalsh, and builds no reduction. The rule reads only the reductions'
intervals, so their witnesses are built on demand: a result holds a builder
of its eigen witness, which forms the eigen elements and runs the
reconstruction check on the first read of witness_ensemble.
mixed_schmidt_number reads it before returning, so a public mixed result
has its witness built (single-party and ppt-decisive-separable results have
none); it also drops parties of dimension 1 before the ladder. The margin
test of a range line's rank drops takes one stacked SVD per cut, whose
spectra also give the drops' product test and two-party values, and the
ensemble search's objective takes one stacked SVD per party for all of its
columns. A (3,3) rank-2 matrix costs three stacked SVDs (its eigen value,
its pencil's three probe members, its rays' margin test), one zggev, one
eigvalsh and one NNLS; the Python around them follows core's kernel rules:
the rays are formed, normalized and made states as one stack, their ranks
and the pencil's generic member are read from ``tolist`` rows, and the
mixture's dyads come from one broadcast multiply.

Every eigvalsh and eigh goes through core._eigh, which sends a single
matrix straight to LAPACK zheevd with numpy's bits. The range-line walk's
and the product listings' NNLS and the searches' minimize are core's
optimizer entry points (core.nnls, core.minimize), which import
scipy.optimize at their first call: a process that settles only pure
states never loads it. Both are looked up here at call time, as
number.nnls and number.minimize.

Validation happens only at the public boundary. States and reductions built
inside the recursion from validated data (eigen elements, rays, CKW zeros,
factor states and cut reductions) skip the public validators.

Each public call runs one engine, which memoizes the pure and mixed values
and the range lines its recursion meets again (_Engine). The call's own
input is its root and is never keyed: the recursion meets only objects on
fewer parties or of another kind, so its value, and a root matrix's range
line, are computed without a memo key and never stored. An engine that asks
for one input twice (cli.analyze_state: the number, then the coefficients)
has no root and memoizes it.

Every worked example in the test suite resolves to a matching lo/hi pair.
Anything the machinery cannot prove is reported inexact, never guessed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np
from scipy.linalg import expm

from . import core, loci
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
    _built_density,
    _checked_state,
    _checked_tol,
    _cut_matrices,
    _cut_reductions,
    _row_rank,
    _unit_state,
    _unit_states,
    local_weights,
    minimize,
    nnls,
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
    _reduction_profiles,
    factorize,
)
from .seeding import stream
from .states import apply_local_operators

RECONSTRUCTION_ATOL = 1e-7
EIGEN_WEIGHT_FLOOR = 1e-12
# a range ray's dropped weights sit below this (relative) or above the rank tol
ROOT_FLOOR = 1e-20
# two rays are one when their overlap reaches this
_DUPLICATE_OVERLAP = 1.0 - 1e-9


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs for every randomized search in the package.

    restarts and iters are integers >= 1, seed an integer in [0, 2**64);
    anything else raises ValueError.
    """

    restarts: int = 64
    iters: int = 500
    seed: int = 0

    def __post_init__(self):
        # seeding.stream keys on the seed's low 64 bits: a seed outside [0, 2**64)
        # would silently share another seed's stream
        for name, low, high in (("restarts", 1, None), ("iters", 1, None), ("seed", 0, 1 << 64)):
            value = getattr(self, name)
            whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (whole and value >= low and (high is None or value < high)):
                bound = f">= {low}" if high is None else f"in [{low}, 2**64)"
                raise ValueError(f"{name} must be an integer {bound}, got {value!r}")

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


def _result(lo: int, hi: int, trace: dict, witness=None) -> SchmidtNumberResult:
    lo, hi = int(lo), int(hi)
    return SchmidtNumberResult(lo, hi, lo == hi, witness, trace)


def _stable_bytes(arr: np.ndarray, decimals: int) -> bytes:
    rounded = arr.round(decimals)
    rounded = rounded + (0.0 + 0.0j)  # normalize signed zeros in both parts
    return rounded.tobytes()


def _state_key(state: PureState) -> tuple:
    return (state.profile.dims, _stable_bytes(state.amplitudes, 12))


def _matrix_key(rho: DensityMatrix) -> tuple:
    return (rho.profile.dims, _stable_bytes(rho.matrix, 12))


def _range_key(basis: np.ndarray, dims: tuple[int, ...]) -> tuple:
    proj = basis @ basis.conj().T
    return (dims, _stable_bytes(proj, 9))


def _hermitian_from(theta: np.ndarray, n: int) -> np.ndarray:
    """The n x n Hermitian matrix of n*n reals: the diagonal, then the upper triangle row by row."""
    h = np.zeros((n, n), dtype=np.complex128)
    h[np.diag_indices(n)] = theta[:n]
    a, b = np.triu_indices(n, 1)
    upper = (theta[n::2] + 1j * theta[n + 1 :: 2]) / np.sqrt(2.0)
    h[a, b] = upper
    h[b, a] = np.conj(upper)
    return h


# a reduction's result decided without the ladder by the max-party rule, which
# reads only its interval: shared by every state, never stored or returned
_CKW_ENTANGLED = _result(2, 2, {"rule": "ckw-concurrence"})
_PPT_ENTANGLED = _result(2, 2, {"rule": "ppt-decisive-entangled"})
_PPT_SEPARABLE = _result(1, 1, {"rule": "ppt-decisive-separable"})


@lru_cache(maxsize=None)
def _ppt_groups(dims: tuple[int, ...]) -> tuple[tuple[DimensionProfile, tuple[int, ...]], ...]:
    """(profile, parties) per reduction profile where PPT decides a state's rho_(not i).

    The parties of a three-party state on ``dims`` whose reductions are
    2 x 2 or 2 x 3, grouped by their profile; built once per dims.
    """
    first = _party_cuts(2)[0][0]
    shapes: dict = {}
    for i, profile in enumerate(_reduction_profiles(dims)):
        if _ppt_decides(profile, first):
            shapes.setdefault(profile.dims, (profile, []))[1].append(i)
    return tuple((profile, tuple(group)) for profile, group in shapes.values())


class _Engine:
    """Memoized evaluator shared by one public call.

    Caches pure/mixed results by rounded amplitudes/matrices and range rays
    by rounded range projectors, so the nested recursion of the genuinely
    entangled rule (pure -> mixed reductions -> range rays -> pure rays)
    stays affordable. ``root``, the input of the one public call the engine
    serves, is never keyed (its value and its range line are never met
    again); an engine without one keys everything. Factorizations are
    cached by exact amplitudes (``structure``), so the number and the
    coefficients of one state share one cut record.

    Mixed states go through one ladder of stages, one matrix at a time:
    ``mixed_value`` is its only entry and memo lookup, and its misses run
    ``_mixed_value``, the cheap stages first (spectrum rank, eigen value,
    PPT), then product routes (only where PPT leaves separability open), the
    range line's level walk and search.
    """

    def __init__(self, budget: SearchBudget, tol: float, root=None):
        self.budget = budget
        self.tol = _checked_tol(tol)
        self._root = root
        self._structure_cache: dict = {}
        self._pure_cache: dict = {}
        self._mixed_cache: dict = {}
        self._ray_cache: dict = {}
        self._ppt_cache: dict = {}

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
        """The memoized value of a pure state (the engine's root unkeyed)."""
        if state is self._root:
            return self._pure_value(state)
        key = _state_key(state)
        hit = self._pure_cache.get(key)
        if hit is None:
            hit = self._pure_value(state)
            self._pure_cache[key] = hit
        return hit

    def _pure_value(self, state: PureState) -> SchmidtNumberResult:
        m = state.party_count
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
        singular vectors, and goes to the mixed ladder (mixed_value).
        """
        records = structure._party_records()
        subs = self._ckw_reductions(state, records)
        if subs is None:
            subs = self._ppt_reductions(state.profile.dims, records)
            rest = [i for i, sub in enumerate(subs) if sub is None]
            if rest:
                profiles = _reduction_profiles(state.profile.dims)
                rhos = _cut_reductions(
                    [profiles[i] for i in rest],
                    [records[i].vectors for i in rest],
                    [records[i].s for i in rest],
                )
                for i, rho in zip(rest, rhos):
                    subs[i] = self.mixed_value(rho)
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
        (loci._pair_concurrences) where every one clears the margin
        max(loci.CKW_MARGIN, 4 tol); there the mixed ladder would also end in
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

        None on other shapes and where a pair concurrence does not clear the
        margin: GHZ-like states and the gray zone go to _ppt_reductions, and
        what it leaves to the ladder.
        """
        if state.profile.dims != (2, 2, 2):
            return None
        margin = max(loci.CKW_MARGIN, 4.0 * self.tol)
        weights = [rec.weights for rec in records]
        if min(loci._pair_concurrences(state.amplitudes, weights)) <= margin:
            return None
        return [_CKW_ENTANGLED] * len(records)

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
        the gray zone between: the ladder decides those (mixed_value).
        Decided reductions take no DensityMatrix, memo key or memo entry, and
        share the module's two results.
        """
        out: list = [None] * len(records)
        if len(dims) != 3:
            return out
        first = _party_cuts(2)[0][0]
        for profile, group in _ppt_groups(dims):
            mats = _cut_matrices(
                np.array([records[i].vectors for i in group], dtype=np.complex128),
                np.array([records[i].weights for i in group]),
            )
            lams = _pt_least_eigenvalue(mats, first, profile).tolist()
            slack = math.sqrt(self.tol + 1e-14) + profile.total_dim * EIGEN_WEIGHT_FLOOR
            margin = max(PPT_NEG_TOL, slack)
            for i, lam in zip(group, lams):
                if lam < -margin:
                    out[i] = _PPT_ENTANGLED
                elif lam >= -PPT_NEG_TOL:
                    out[i] = _PPT_SEPARABLE
        return out

    # ---- mixed states ----------------------------------------------------

    def mixed_value(self, rho: DensityMatrix) -> SchmidtNumberResult:
        """The memoized value of a mixed state (the engine's root unkeyed): the only entry into the ladder."""
        if rho is self._root:
            return self._mixed_value(rho)
        key = _matrix_key(rho)
        hit = self._mixed_cache.get(key)
        if hit is None:
            hit = self._mixed_value(rho)
            self._mixed_cache[key] = hit
        return hit

    @staticmethod
    def _eigen_elements(rho: DensityMatrix, w: np.ndarray, v: np.ndarray):
        keep = np.flatnonzero(w > EIGEN_WEIGHT_FLOOR)
        weights = w[keep] / w[keep].sum()
        states = [_unit_state(rho.profile, v[:, i]) for i in keep]
        return weights, states

    def _mixed_value(self, rho: DensityMatrix) -> SchmidtNumberResult:
        """The mixed ladder for one matrix, its cheap stages first.

        The spectrum rank (a rank-one matrix takes its eigenvector's pure
        value); the eigen value eigen_hi, from one Schmidt-rank SVD over the
        kept eigenvectors for two parties and from the eigen elements' pure
        values otherwise; the PPT test over every cut. No value reads the
        eigen witness, so a result carries only its builder (_eigen_witness),
        which forms the elements and runs the reconstruction check when the
        witness is first read. What these stages leave open goes on to the
        product routes, skipped after an NPT cut (no product ensemble exists
        then), one level walk of a rank-2 range line (_span_certificate) and
        the ensemble search at each target it answers (_search_answers), each
        search listed in search_attempts.
        """
        profile = rho.profile
        m = profile.party_count
        if m == 1:
            return _result(1, 1, {"rule": "single-party"})
        w, v = spectrum(rho)
        k = weight_rank(w, self.tol)
        keep = np.flatnonzero(w > EIGEN_WEIGHT_FLOOR)
        witness = partial(_eigen_witness, rho, w, v)
        if k == 1 and len(keep) == 1:
            sub = self.pure_value(_unit_state(profile, v[:, keep[0]]))
            trace = {"rule": "rank-one", "pure_trace": sub.branch_trace}
            return _result(sub.value_lo, sub.value_hi, trace, witness)
        vecs = v[:, keep].T
        if m == 2:
            first = _party_cuts(2)[0][0]
            spectra = local_weights(vecs, profile.dims, first).tolist()
            hi = max(_row_rank(p, self.tol) for p in spectra)
        else:
            hi = max(self.pure_value(_unit_state(profile, vec)).value_hi for vec in vecs)
        trace = {"rank": k, "eigen_hi": hi}
        if hi == 1:
            return _result(1, 1, trace | {"rule": "eigen-ensemble"}, witness)

        trace["npt_cuts"], decisive = self._ppt_stage(rho)
        if decisive and not trace["npt_cuts"]:
            return _result(1, 1, trace | {"rule": "ppt-decisive-separable"}, None)
        lo = 2 if trace["npt_cuts"] else 1
        if lo == hi:
            return _result(lo, hi, trace | {"rule": "ppt-meets-eigen"}, witness)

        # exact product routes, only while PPT leaves separability open
        if lo == 1:
            route, cand = self._product_route(rho, w, v)
            trace["product_route"] = route
            if cand is not None:
                return _result(1, 1, trace | {"rule": "product-ensemble"}, cand)

        # the range line's level walk, up to the eigen value
        if k == 2 and w[1] > EIGEN_WEIGHT_FLOOR:
            walk = self._span_certificate(rho, v, lo, hi)
            trace["certificate"] = walk["summary"]
            lo = walk["lo"]
            if walk["mixture"] is not None:
                return _result(lo, lo, trace | {"rule": "range-ray-mixture"}, walk["mixture"])
            if walk["certified"]:
                return _result(hi, hi, trace | {"rule": "range-span-certified"}, witness)

        # ensemble searches, ascending target, each one the search answers
        attempts = []
        for r in range(lo, hi):
            if not _search_answers(m, r):
                break
            cand = self.search_ensemble(rho, r)
            attempts.append({"target": r, "found": cand is not None})
            if cand is not None:
                hi, witness = r, cand
                break
        trace["search_attempts"] = attempts
        trace["rule"] = "interval" if lo < hi else "searched-ensemble"
        return _result(lo, hi, trace, witness)

    def _ppt_stage(self, rho: DensityMatrix) -> tuple[list[list[int]], bool]:
        """(the cuts of negative partial transpose, whether PPT is decisive at every cut).

        An NPT cut proves rho entangled, so it has no product ensemble and no
        product listing or search runs (on three or more parties, no search);
        with none, decisive PPT (2x2 and 2x3, Horodecki) proves it separable. One
        party has no cut, and PPT decides nothing there. Memoized per matrix,
        keyed by its exact entries, so the ladder, find_ensemble and the
        generalized EoF test each matrix once; callers must not mutate the list.
        """
        key = (rho.profile.dims, rho.matrix.tobytes())
        hit = self._ppt_cache.get(key)
        if hit is None:
            cuts = _bipartitions(rho.party_count)
            npt = [list(c.indices) for c in cuts if ppt_entangled(rho, c)]
            hit = npt, bool(cuts) and all(_ppt_decides(rho.profile, c) for c in cuts)
            self._ppt_cache[key] = hit
        return hit

    # ---- exact product routes --------------------------------------------

    def _product_route(self, rho: DensityMatrix, w: np.ndarray, v: np.ndarray):
        """(route, ensemble or None) from the diagonal basis or, at rank > 2, a qubit pencil."""
        mat = rho.matrix
        diag = np.real(np.diag(mat)).copy()
        off = mat - np.diag(np.diag(mat))
        if float(np.max(np.abs(off))) <= 1e-11 * max(float(diag.max()), 1e-30):
            idx = [int(i) for i in np.flatnonzero(diag > EIGEN_WEIGHT_FLOOR)]
            weights = diag[idx] / diag[idx].sum()
            basis = np.eye(rho.profile.total_dim, dtype=np.complex128)
            states = [_checked_state(rho.profile, basis[i]) for i in idx]
            cand = _build_candidate(rho, weights, states)
            if cand is not None:
                return "diagonal-basis", cand
        k = weight_rank(w, self.tol)
        found = loci._qubit_pencil_products(rho.profile.dims, v, k, self.tol) if k > 2 else None
        products = [] if found is None else [_unit_state(rho.profile, x) for x in found]
        cand = _solve_mixture(rho, _dedupe_states(products))
        return ("qubit-pencil-products", cand) if cand is not None else ("inconclusive", None)

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
            g, found = loci._pencil_drops(unfold(v1, dims, cut), unfold(v2, dims, cut), self.tol)
            generic.append(g)
            drops.append(found)
        coeffs = np.concatenate(drops)  # a row (a, b) per root
        n = len(coeffs)
        # the roots a*v1 + b*v2, then v1 and v2, normalized as one stack
        combos = np.concatenate([coeffs[:, :1] * v1 + coeffs[:, 1:] * v2, (v1, v2)])
        stack, states = _unit_states(profile, combos)
        roots = states[:n]
        # one stacked decomposition per cut serves every state of the line
        spectra = [local_weights(stack, dims, cut).tolist() for cut in cuts]
        ranks = [[_row_rank(p, self.tol) for p in rows] for rows in spectra]
        for rows, r in zip(spectra, ranks):
            if any(_row_rank(p, ROOT_FLOOR) != r[j] for j, p in enumerate(rows[:n])):
                return None  # a root neither clean nor clearly off: no exact claim
        if m == 2:
            return [(states[j], ranks[0][j]) for j in _dedupe_index(states)], generic[0] - 1
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
        pass a margin test like ROOT_FLOOR's (loci._ckw_zeros) and must have pure
        value <= 3. None when they cannot be listed: P vanishes on the whole
        line (all of it has value <= 3), a singular eliminant, or a zero
        without a clear margin.
        """
        rays = [(np.vdot(v1, st.amplitudes), np.vdot(v2, st.amplitudes)) for st in products]
        zeros = loci._ckw_zeros(v1, v2, rays, self.tol)
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
            _, s, vh = core._svd(slices, full_matrices=False)
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

    def _span_certificate(self, rho: DensityMatrix, v: np.ndarray, lo: int, hi: int) -> dict:
        """Walk the levels lo ... min(hi - 1, top) of rho's range line, lowest first.

        Every ensemble of rho spans the line, whose rays (_range_rays) include
        every state of value <= top, so level r holds iff the rays of value
        <= r mix to rho. The first level that mixes is the value and its
        mixture the witness; each that does not is a proved lower bound. lo
        must be one too, so a level whose rays did not grow since is skipped.
        Returns {"certified": lo reached hi, "lo", "mixture", "summary"}, the
        summary naming the level the walk ended on and its ray count, or why
        it stopped: "inconclusive" above the top, "ambiguous" without rays.
        """
        if rho is self._root:  # its range line is never met again: not keyed
            found = self._line_rays(rho.profile, v[:, 0], v[:, 1])
        else:
            found = self._range_rays(rho.profile, v)
        if found is None:
            summary = {"certified": False, "reason": "ambiguous"}
            return {"certified": False, "lo": lo, "mixture": None, "summary": summary}
        rays, top = found
        solved = sum(val < lo for _, val in rays)
        for r in range(lo, min(hi, top + 1)):
            low = [s for s, val in rays if val <= r]
            if len(low) > solved:
                solved = len(low)
                mixture = _solve_mixture(rho, low)
                if mixture is not None:
                    summary = {"certified": False, "level": r, "range_rays": len(low)}
                    return {"certified": False, "lo": r, "mixture": mixture, "summary": summary}
            lo = r + 1
        if lo >= hi:
            summary = {"certified": True, "level": hi - 1, "range_rays": solved}
        else:
            summary = {"certified": False, "level": lo, "reason": "inconclusive"}
        return {"certified": lo >= hi, "lo": lo, "mixture": None, "summary": summary}

    # only the target of the benchmark's number.polish hook; goes with that hook (ROADMAP item 1)
    def _polish_zero_hunt(self, *args) -> bool:
        raise AssertionError("unreachable")

    # ---- ensemble search ---------------------------------------------------

    def find_ensemble(self, rho: DensityMatrix, r: int) -> Optional[EnsembleCandidate]:
        """An ensemble of rho whose elements all have value <= r, or None.

        The ladder's stages at the fixed target r, each None proved: the eigen
        ensemble (rho's only one at rank one); the PPT bound lo, None if lo > r;
        the product listings while lo = 1; on a rank-2 range the walk over
        levels lo ... r. Then the search stage at target r where it answers
        that target (_search_answers), else at target 1 while lo = 1: a
        product ensemble meets every target. Its None proves nothing.
        """
        if r < 1:
            raise ValueError("target rank must be >= 1")
        w, v = spectrum(rho)
        weights, elements = self._eigen_elements(rho, w, v)
        if all(self.pure_value(s).value_hi <= r for s in elements):
            cand = _build_candidate(rho, weights, elements)
            if cand is not None:
                return cand
        k = weight_rank(w, self.tol)
        if k == 1 and len(elements) == 1:
            return None
        lo = 2 if self._ppt_stage(rho)[0] else 1
        cand = self._product_route(rho, w, v)[1] if lo == 1 else None
        if lo > r or cand is not None:
            return cand
        if k == 2 and w[1] > EIGEN_WEIGHT_FLOOR:
            walk = self._span_certificate(rho, v, lo, r + 1)
            if walk["mixture"] is not None or walk["certified"]:
                return walk["mixture"]
        # a product ensemble has value <= r: where the search does not answer
        # target r it asks for one, unless an NPT cut ruled products out
        target = r if _search_answers(rho.party_count, r) else 1
        return self.search_ensemble(rho, target) if target >= lo else None

    def search_ensemble(self, rho: DensityMatrix, target_r: int) -> Optional[EnsembleCandidate]:
        """The search stage alone: an ensemble of value <= target_r by seeded L-BFGS, or None.

        It optimizes over the isometry parametrization of all decompositions
        of the eigen elements, and every element of a candidate is verified.
        The ladder and find_ensemble run the exact stages first, and call it
        only at the targets it answers (_search_answers): target 1 on any
        party count, any target on two parties.
        """
        profile = rho.profile
        weights, elements = self._eigen_elements(rho, *spectrum(rho))
        k = len(elements)
        b_mat = np.column_stack([s.amplitudes for s in elements]) * np.sqrt(weights)
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
            for j in range(cols.shape[1]):
                p = float(np.vdot(cols[:, j], cols[:, j]).real)
                if p < EIGEN_WEIGHT_FLOOR:
                    continue
                st = _checked_state(profile, cols[:, j] / np.sqrt(p))
                if self.pure_value(st).value_hi > target_r:
                    break
                out_w.append(p)
                out_s.append(st)
            else:  # every element verified
                cand = _build_candidate(rho, np.array(out_w) / sum(out_w), out_s) if out_s else None
                if cand is not None:
                    return cand
        return None


# ---- helpers -----------------------------------------------------------------


def _dedupe_index(states: list[PureState]) -> list[int]:
    """Indices of the states kept when later near-duplicate rays are dropped."""
    out: list[int] = []
    kept: list[np.ndarray] = []
    for j, s in enumerate(states):
        amps = s.amplitudes
        for other in kept:
            if not abs(np.vdot(other, amps)) < _DUPLICATE_OVERLAP:
                break
        else:
            out.append(j)
            kept.append(amps)
    return out


def _dedupe_states(states: list[PureState]) -> list[PureState]:
    return [states[j] for j in _dedupe_index(states)]


def _solve_mixture(rho: DensityMatrix, states: list[PureState]) -> Optional[EnsembleCandidate]:
    """Nonnegative weights mixing the given pure states into rho, if any."""
    if not states:
        return None
    a_mat = _dyad_columns(states)
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


def _dyad_columns(states: list[PureState]) -> np.ndarray:
    """The real matrix whose column j is (Re, Im) of the flattened dyad |s_j><s_j|.

    Every dyad comes from one broadcast multiply, the ufunc np.outer applies
    to each pair of vectors. The result is F-ordered; nnls reads it in C
    order, the layout np.column_stack gives.
    """
    amps = np.array([s.amplitudes for s in states])
    dyads = (amps[:, :, None] * amps.conj()[:, None, :]).reshape(len(states), -1)
    return np.concatenate([dyads.real, dyads.imag], axis=1).T


def _build_candidate(rho: DensityMatrix, weights, states) -> Optional[EnsembleCandidate]:
    """The ensemble if it is valid and reconstructs rho, else None."""
    try:
        cand = EnsembleCandidate(tuple(float(p) for p in weights), tuple(states))
    except ValueError:
        return None
    err = core._norm(cand.reconstruct() - rho.matrix)
    return cand if err <= RECONSTRUCTION_ATOL else None


def _eigen_witness(rho: DensityMatrix, w, v) -> Optional[EnsembleCandidate]:
    """The eigen ensemble of rho (eigensystem w, v), if it passes _build_candidate."""
    return _build_candidate(rho, *_Engine._eigen_elements(rho, w, v))


def _search_answers(party_count: int, target_r: int) -> bool:
    """Whether the ensemble search runs at target_r on party_count parties: its one scope rule.

    It answers whether rho has a product ensemble (target 1, any party
    count) and whether it has one of Schmidt rank <= r (two parties). On
    three or more parties no smooth surrogate of 'value <= r' is known for
    r >= 2: local ranks below r are necessary only, at r = 2 they ask for a
    product again, and the weight past them vanishes on every state once
    r - 1 reaches each party's largest local rank. So no search runs there.
    """
    return target_r == 1 or party_count == 2


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

    At target 1 every party's weight past its largest (zero iff the element
    is a product), above it on two parties the weight past the target_r-th
    Schmidt coefficient (zero iff the Schmidt rank is <= target_r).
    Leading axes of ``vec`` before the last stack several elements, giving
    the list of their surrogates from one SVD per party; each equals the
    element's own.
    """
    rows = vec.reshape(-1, vec.shape[-1])
    units = np.array([row / np.linalg.norm(row) for row in rows])
    spectra = [local_weights(units, profile.dims, s) for s in _party_cuts(profile.party_count)[0]]
    if target_r == 1:
        tails = sum(1.0 - p[:, 0] for p in spectra)
    else:  # two parties (_search_answers)
        tails = np.sum(spectra[0][:, target_r:], axis=-1)
    return tails.tolist() if vec.ndim > 1 else float(tails[0])


# ---- public API ---------------------------------------------------------------


def pure_schmidt_number(
    state: PureState, budget: SearchBudget = DEFAULT_BUDGET, tol: float = DEFAULT_RANK_TOL
) -> SchmidtNumberResult:
    """Schmidt number of a multipartite pure state (interval, usually exact)."""
    return _Engine(budget, tol, root=state).pure_value(state)


def mixed_schmidt_number(
    rho: DensityMatrix, budget: SearchBudget = DEFAULT_BUDGET, tol: float = DEFAULT_RANK_TOL
) -> SchmidtNumberResult:
    """Convex-roof Schmidt number interval of a mixed state, its witness built.

    Single-party and ppt-decisive-separable results have no witness. A party
    of dimension 1 carries nothing, so the matrix is decided on the other
    parties (one is kept if every party has dimension 1), and the witness
    states are relabelled on rho's profile.
    """
    dims = rho.profile.dims
    kept = [i for i, d in enumerate(dims, 1) if d > 1] or [1]
    if len(kept) == len(dims):
        result = _Engine(budget, tol, root=rho).mixed_value(rho)
    else:
        profile = DimensionProfile(tuple(dims[i - 1] for i in kept))
        root = _built_density(profile, rho.matrix, *rho.eigensystem)
        sub = _Engine(budget, tol, root=root).mixed_value(root)
        trace = {"rule": "unit-parties-dropped", "kept": kept, "kept_trace": sub.branch_trace}
        witness = sub.witness_ensemble
        if witness is not None:
            states = tuple(_checked_state(rho.profile, s.amplitudes) for s in witness.states)
            witness = EnsembleCandidate(witness.weights, states)
        result = _result(sub.value_lo, sub.value_hi, trace, witness)
    result.witness_ensemble  # a public result is returned whole: read the witness here
    return result


def mixed_bipartite_schmidt_number(rho: DensityMatrix, budget=None, tol: float = DEFAULT_RANK_TOL):
    """Schmidt number interval of a two-party mixed state: mixed_schmidt_number on two parties."""
    if rho.party_count != 2:
        raise ValueError("mixed_bipartite_schmidt_number expects a two-party profile")
    return mixed_schmidt_number(rho, budget=budget or DEFAULT_BUDGET, tol=tol)


def ensemble_search(
    rho: DensityMatrix,
    target_r: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    tol: float = DEFAULT_RANK_TOL,
) -> Optional[EnsembleCandidate]:
    """An ensemble of rho whose elements all have value <= target_r, or None.

    The ladder's stages at target_r (_Engine.find_ensemble): only a None
    from the final seeded search proves nothing.
    """
    return _Engine(budget, tol, root=rho).find_ensemble(rho, target_r)


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
