"""Schmidt coefficients for multipartite pure states and generalized EoF.

Construction sketch for a genuinely entangled state: pick the parties that
maximize (local rank + reduction Schmidt number); for each such party take
the eigenvalues of the 1/sqrt(2)-scaled square root of its reduction, search
the complementary reduction's ensemble elements of maximal Schmidt number
for the one with maximal entanglement entropy, scale that element's own
coefficients by 1/sqrt(2), and keep the branch with the largest combined
entropy. The union's squares always sum to one and the multiset size equals
the Schmidt number whenever the latter is exact.

A two-party state's coefficients are its Schmidt coefficients, from one
SVD; Schmidt rank 1 is reported as fully separable. A genuinely entangled
state of three or more parties reads the number's max-party rule instead of
deciding it again: the maximizer parties, each reduction's interval and the
total value come from the branch trace of ``_Engine.pure_value``. The local
ranks and sigma (the square roots of rho_i's spectrum over 2) are read off
the cut record of the engine's factorization (``_Engine.structure``), the
one the number used. Only the maximizer reductions rho_(not i) of value
above 1 need an element; they alone are built, by ``reduce`` (one ``eigh``
each), and their elements come from one element stage
(``_max_entropy_element``).

The maximal-entropy element of a two-qubit reduction with target Schmidt
number 2 is found in closed form: entropy rises with concurrence, and the
concurrence maximum over the range is the top Takagi value of a 2k x 2k
eigenproblem. The element stage solves every such member of a call
together: one ``eigh`` per range dimension k and one SVD of all the
elements, which gives their Schmidt ranks and coefficients. Other element
shapes are found by search, one at a time: Nelder-Mead for two parties, with
one spectrum per point, and proxy-ranked candidates for three, whose winner
keeps the coefficient set it was scored by. Every search reads the budget
of the call's one engine (``engine.budget``). Nelder-Mead
is ``core.minimize``, which imports scipy.optimize at its first call, so
closed-form coefficients never load it. Spectra and ranks come from
``core.local_weights`` and ``core.weight_rank``.

Supported genuinely entangled sizes are two, three, and four parties; larger
genuinely entangled states raise ``UnsupportedStructureError``. Non-genuine
states of any size recurse into their factors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import core
from .bipartite import schmidt_decompose
from .core import (
    DEFAULT_RANK_TOL,
    DensityMatrix,
    PureState,
    SubsystemSet,
    _checked_state,
    _unit_state,
    entropy_bits,
    local_weights,
    minimize,
    reduce,
    spectrum,
    weight_rank,
)
from .errors import SearchError, UnsupportedStructureError
from .loci import _max_concurrence_directions
from .number import DEFAULT_BUDGET, EIGEN_WEIGHT_FLOOR, SearchBudget, _Engine
from .partitions import PartitionStructure, _party_cuts
from .seeding import stream

SQRT_HALF = 1.0 / np.sqrt(2.0)
TIE_ATOL = 1e-9
# the two sides of a two-party element
_FIRST, _SECOND = SubsystemSet((1,)), SubsystemSet((2,))


@dataclass(frozen=True)
class CoefficientSet:
    """Descending multiset of Schmidt coefficients plus branch provenance."""

    values: tuple[float, ...]
    provenance: dict

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(v <= 0 for v in vals):
            raise ValueError("Schmidt coefficients must be positive")
        if any(b > a + 1e-12 for a, b in zip(vals, vals[1:])):
            raise ValueError("coefficients must be descending")
        object.__setattr__(self, "values", vals)

    @property
    def exact(self) -> bool:
        return bool(self.provenance.get("exact", True))

    def squares(self) -> np.ndarray:
        return np.asarray(self.values) ** 2


def _make_set(values, provenance) -> CoefficientSet:
    vals = tuple(sorted((float(v) for v in values), reverse=True))
    return CoefficientSet(vals, provenance)


def generalized_eof(coeffs: Union[CoefficientSet, Sequence[float]]) -> float:
    """Generalized entanglement of formation, -sum eta^2 log2 eta^2 (bits)."""
    values = coeffs.values if isinstance(coeffs, CoefficientSet) else coeffs
    return entropy_bits(np.asarray(values, dtype=np.float64) ** 2)


def _bipartite_set(state: PureState, tol: float) -> CoefficientSet:
    """The Schmidt coefficients of a two-party state, from one SVD."""
    dec = schmidt_decompose(state, _FIRST, tol)
    if dec.rank == 1:
        return _make_set((1.0,), {"rule": "fully-separable", "exact": True})
    return _make_set(dec.coefficients, {"rule": "bipartite-svd", "exact": True})


def pure_schmidt_coefficients(
    state: PureState,
    budget: SearchBudget = DEFAULT_BUDGET,
    tol: float = DEFAULT_RANK_TOL,
) -> CoefficientSet:
    """Schmidt coefficient multiset of a multipartite pure state."""
    engine = _Engine(budget, tol, root=state)
    return _coefficients(state, engine)


def _coefficients(state: PureState, engine: _Engine) -> CoefficientSet:
    """The coefficient set of ``state``, from the engine's factorization of it."""
    m = state.party_count
    if m == 1:
        return _make_set((1.0,), {"rule": "single-party", "exact": True})
    if m == 2:
        return _bipartite_set(state, engine.tol)
    structure = engine.structure(state)
    entangled = structure.entangled_factors()
    if not entangled:
        return _make_set((1.0,), {"rule": "fully-separable", "exact": True})
    if len(entangled) == 1:
        factor, factor_state = entangled[0]
        if len(factor) == m:
            return _genuine_coefficients(state, structure, engine)
        sub = _coefficients(factor_state, engine)
        prov = {
            "rule": "single-entangled-factor",
            "partition": structure.label,
            "factor": list(factor.indices),
            "exact": sub.exact,
            "factor_provenance": sub.provenance,
        }
        return _make_set(sub.values, prov)
    # several entangled factors: union of factor sets, rescaled so the
    # squares still sum to one
    count = len(entangled)
    scale = 1.0 / np.sqrt(count)
    values: list[float] = []
    exact = True
    parts = []
    for factor, factor_state in entangled:
        sub = _coefficients(factor_state, engine)
        exact = exact and sub.exact
        values.extend(scale * v for v in sub.values)
        parts.append({"factor": list(factor.indices), "size": len(sub.values)})
    prov = {
        "rule": "factor-union",
        "partition": structure.label,
        "factor_count": count,
        "terms": parts,
        "inferred": bool(m >= 5 or count > 2),
        "exact": exact,
    }
    return _make_set(values, prov)


def _genuine_coefficients(
    state: PureState, structure: PartitionStructure, engine: _Engine
) -> CoefficientSet:
    """The genuinely entangled construction, on the number's max-party rule.

    The maximizer parties, each reduction's interval and the total value
    come from the branch trace of the number (engine.pure_value); each
    party's local rank and the spectrum behind sigma from its cut record
    (structure._party_records()). Only the reductions rho_(not i) that need
    an element (value > 1) are built (reduce), and their elements come from
    one element stage (_max_entropy_element).
    """
    m = state.party_count
    if m not in (3, 4):
        raise UnsupportedStructureError(
            f"no coefficient construction for genuinely entangled states on {m} parties"
        )
    number = engine.pure_value(state)
    per_party = number.branch_trace["per_party"]
    parties = number.branch_trace["maximizers"]
    # a value-1 reduction has a product witness ensemble; the others need an element
    needy = [i for i in parties if per_party[i - 1]["reduction"][1] > 1]
    rests = _party_cuts(m)[1]
    wanted = [(reduce(state, rests[i - 1]), per_party[i - 1]["reduction"][1]) for i in needy]
    elements = dict(zip(needy, _max_entropy_element(wanted, engine)))
    records = structure._party_records()
    branches = []
    exact = True
    for party in parties:
        rec = records[party - 1]
        # the positive eigenvalues of (1/sqrt 2) rho_i^(1/2), sqrt(lambda/2)
        sigma = np.sqrt(rec.weights[: rec.rank] / 2.0)
        exact = exact and per_party[party - 1]["reduction_exact"]
        if party in elements:
            _, elem = elements[party]
            exact = exact and elem.exact
            gamma = np.asarray(elem.values)
        else:
            gamma = np.ones(1)
        vals = np.concatenate([sigma, SQRT_HALF * gamma])
        if m == 3:
            score = entropy_bits(vals**2)
        else:
            score = entropy_bits(sigma**2) + generalized_eof(gamma)
        branches.append((party, float(score), vals))
    best = max(score for _, score, _ in branches)
    ties = [party for party, score, _ in branches if score >= best - TIE_ATOL]
    selected, _, values = next(b for b in branches if b[0] == ties[0])
    prov = {
        "rule": "genuine-three" if m == 3 else "genuine-four",
        "selected_party": selected,
        "ties": ties,
        "branch_entropies" if m == 3 else "branch_scores": {p: s for p, s, _ in branches},
        "total_value": number.value_hi,
        "exact": exact,
    }
    if m == 4:
        # the element entropy is read as the generalized EoF of the element's
        # own construction (its maximal branch)
        prov["element_entropy_convention"] = "max-branch"
    return _make_set(values, prov)


# ---- constrained max-entropy element search -----------------------------------


def max_entropy_ensemble_element(
    rho: DensityMatrix,
    rank_target: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    tol: float = DEFAULT_RANK_TOL,
) -> tuple[PureState, CoefficientSet]:
    """Ensemble element of rho with the given Schmidt number maximizing entropy.

    The search space is the unit sphere of range(rho), exactly the states
    appearing in some pure ensemble of rho. Deterministic given the seed.
    """
    if rank_target < 1:
        raise ValueError("target rank must be >= 1")
    engine = _Engine(budget, tol, root=rho)
    return _max_entropy_element([(rho, rank_target)], engine)[0]


def _max_entropy_element(members, engine) -> list:
    """The element stage of one coefficient call: an element for each (rho, target) member.

    Returns (element, its CoefficientSet with the achieved entropy) per
    member, in order. Two-qubit members with target 2 and a range of
    dimension k >= 2 take the closed form together
    (_max_concurrence_elements); every other member is searched on its own
    (_searched_element), once per distinct (dims, matrix bytes, target):
    a search's seed depends only on (seed, dims, target), so equal members
    share one result. The first member without a qualifying element, in
    order, raises its SearchError.
    """
    spectra = [spectrum(rho) for rho, _ in members]
    keeps = [np.flatnonzero(w > EIGEN_WEIGHT_FLOOR) for w, _ in spectra]
    closed = [
        j
        for j, (rho, target) in enumerate(members)
        if rho.profile.dims == (2, 2) and target == 2 and keeps[j].size >= 2
    ]
    found = {}
    if closed:
        ranges = [(members[j][0].profile, spectra[j].vectors[:, keeps[j]]) for j in closed]
        found = dict(zip(closed, _max_concurrence_elements(ranges, engine.tol)))
    out = []
    searched: dict = {}
    for j, (rho, target) in enumerate(members):
        if j not in found:
            key = (rho.profile.dims, rho.matrix.tobytes(), target)
            if key not in searched:
                searched[key] = _searched_element(rho, target, spectra[j], engine)
            out.append(searched[key])
        elif found[j] is None:
            raise SearchError("every state in the range is a product: no rank-2 element")
        else:
            out.append(found[j])
    return out


def _max_concurrence_elements(ranges, tol) -> list:
    """The max-concurrence element of each two-qubit range, or None for an all-product range.

    ``ranges`` holds (profile, eigenvectors spanning the range) pairs. A
    two-qubit state's entropy rises with its concurrence, whose maximum over
    a range is an eigenvalue problem (loci._max_concurrence_directions): no
    search is needed. Ranges of one dimension share one stacked ``eigh``, and
    all elements share one SVD, which gives both their Schmidt rank (the
    target 2 holds unless the range holds only products) and their
    coefficients.
    """
    amps = np.empty((len(ranges), 4), dtype=np.complex128)
    by_dim: dict = {}
    for j, (_, vecs) in enumerate(ranges):
        by_dim.setdefault(vecs.shape[1], []).append(j)
    for group in by_dim.values():
        basis = np.array([ranges[j][1] for j in group])
        basis = basis / np.linalg.norm(basis, axis=1, keepdims=True)
        amps[group] = (basis @ _max_concurrence_directions(basis)[..., None])[..., 0]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    # the coefficients are these singular values; roots of local_weights could move their bits
    svals = core._svd(amps.reshape(-1, 2, 2), compute_uv=False)
    out = []
    for (profile, _), vec, s, rank in zip(ranges, amps, svals, weight_rank(svals**2, tol)):
        if rank < 2:
            out.append(None)
            continue
        cs = _make_set(s / np.linalg.norm(s), {"rule": "bipartite-svd", "exact": True})
        out.append((_checked_state(profile, vec), _with_entropy(cs, generalized_eof(cs))))
    return out


def _pair_score(amplitudes: np.ndarray, dims: tuple[int, ...], rank_target: int) -> float:
    """The two-party search objective: entropy - 50 * (distance from the rank target).

    The distance is the weight outside the r largest Schmidt weights, and at
    target 1 the sum over both parties of 1 - largest weight. Party 1's
    spectrum, from one SVD, serves the entropy and the distance; target 1
    adds party 2's.
    """
    weights = local_weights(amplitudes, dims, _FIRST)
    if rank_target == 1:
        second = local_weights(amplitudes, dims, _SECOND)
        penalty = float(sum(1.0 - p[0] for p in (weights, second)))
    else:
        penalty = float(np.sum(weights[rank_target:]))
    return entropy_bits(weights) - 50.0 * penalty


def _searched_element(rho, rank_target, eigensystem, engine):
    """A max-entropy element of rho with the target Schmidt number, by exact routes or search."""
    budget = engine.budget
    _, elements = engine._eigen_elements(rho, *eigensystem)
    basis = np.column_stack([s.amplitudes for s in elements])
    kr = basis.shape[1]
    profile = rho.profile

    def make_state(u: np.ndarray) -> PureState:
        return _unit_state(profile, basis @ u)

    def qualifies(st: PureState) -> bool:
        res = engine.pure_value(st)
        return res.exact and res.value_hi == rank_target

    def finish(st: PureState):
        cs = _coefficients(st, engine)
        return st, _with_entropy(cs, generalized_eof(cs))

    if kr == 1 or profile.party_count == 1:
        # the range's only state, or its first eigen element: one-party states all have value 1
        st = make_state(np.eye(kr, dtype=np.complex128)[0])
        if not qualifies(st):
            raise SearchError(f"no state in the range has Schmidt number {rank_target}")
        return finish(st)

    # a rank-1 target takes an element of a product ensemble where one is found
    found = engine.find_ensemble(rho, 1) if rank_target == 1 else None
    if found is not None:
        for st in found.states:
            if qualifies(st):
                return finish(st)

    heavy = profile.party_count >= 3

    starts: list[np.ndarray] = []
    if kr == 2:
        if heavy:
            nt, nph = 5, 4
        else:
            nt, nph = (13, 12) if budget.iters >= 300 else (9, 8)
        for t in np.linspace(0.0, np.pi / 2.0, nt):
            for ph in np.linspace(0.0, 2.0 * np.pi, nph, endpoint=False):
                starts.append(np.array([np.cos(t), np.exp(1j * ph) * np.sin(t)]))
    rng = stream(budget.seed, "maxent", rho.profile.dims, rank_target)
    n_random = 2 if heavy else max(2, budget.restarts // 4)
    for _ in range(n_random):
        u = rng.normal(size=kr) + 1j * rng.normal(size=kr)
        starts.append(u / np.linalg.norm(u))
    starts = [u / np.linalg.norm(u) for u in starts]

    if heavy:
        # evaluating the true entropy means a full nested coefficient
        # construction per point; rank by a cheap proxy instead and spend
        # the real objective on the best qualifying few; the winner keeps its set
        singles = _party_cuts(profile.party_count)[0]

        def proxy(st: PureState) -> float:
            spectra = [local_weights(st.amplitudes, profile.dims, side) for side in singles]
            return float(np.mean([entropy_bits(p) for p in spectra]))

        ranked = sorted(starts, key=lambda u: -proxy(make_state(u)))
        qualifying = []
        for u in ranked:
            st = make_state(u)
            if qualifies(st):
                qualifying.append(st)
                if len(qualifying) >= 4:
                    break
        if not qualifying:
            raise SearchError(
                f"no ensemble element of Schmidt number {rank_target} found within budget"
            )
        sets = [(st, _coefficients(st, engine)) for st in qualifying]
        best, cs = max(sets, key=lambda pair: generalized_eof(pair[1]))
        return best, _with_entropy(cs, generalized_eof(cs))

    # two-party elements: the entropy objective is cheap, so polish properly
    def score(u: np.ndarray) -> float:
        vec = basis @ u
        return _pair_score(vec / np.linalg.norm(vec), profile.dims, rank_target)

    def score_x(x: np.ndarray) -> float:
        u = x[:kr] + 1j * x[kr:]
        nrm = np.linalg.norm(u)
        if nrm < 1e-12:
            return 1e6
        return -score(u / nrm)

    scored = sorted(((score(u), i) for i, u in enumerate(starts)), key=lambda t: -t[0])
    polish = 4 if budget.restarts >= 32 else 2
    maxiter = max(200, budget.iters)
    candidates = []
    for _, idx in scored[:polish]:
        x0 = np.concatenate([starts[idx].real, starts[idx].imag])
        res = minimize(
            score_x,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": maxiter},
        )
        u = res.x[:kr] + 1j * res.x[kr:]
        candidates.append((-res.fun, make_state(u / np.linalg.norm(u))))
    candidates.sort(key=lambda t: -t[0])
    for _, st in candidates:
        if qualifies(st):
            return finish(st)
    raise SearchError(
        f"no ensemble element of Schmidt number {rank_target} found within budget"
    )


def _with_entropy(cs: CoefficientSet, entropy: float) -> CoefficientSet:
    prov = dict(cs.provenance)
    prov["achieved_entropy"] = float(entropy)
    return CoefficientSet(cs.values, prov)


# ---- mixed-state generalized EoF -----------------------------------------------


@dataclass(frozen=True)
class EofBounds:
    """Bounds on the convex-roof generalized EoF of a mixed state."""

    lower: float
    upper: float
    exact: bool
    trace: dict


def mixed_generalized_eof(
    rho: DensityMatrix,
    budget: SearchBudget = DEFAULT_BUDGET,
    tol: float = DEFAULT_RANK_TOL,
) -> EofBounds:
    """Convex-roof generalized EoF: certified upper bound, trivial lower bound.

    A pure projector collapses to the exact pure value. Separability gives
    exact zero, proved by PPT where it is decisive at every cut
    (``ppt-decisive-separable``) or by ``_Engine.find_ensemble``, which finds
    no product ensemble after an NPT cut (``product-ensemble``). Otherwise
    the upper bound is the eigen-ensemble average, inexact. An eigen element
    genuinely entangled on 5+ parties (W_5's) raises UnsupportedStructureError.
    """
    engine = _Engine(budget, tol, root=rho)
    weights, states = engine._eigen_elements(rho, *spectrum(rho))

    if len(states) == 1:
        val = generalized_eof(_coefficients(states[0], engine))
        return EofBounds(val, val, True, {"route": "pure-state"})

    npt_cuts, decisive = engine._ppt_stage(rho)
    if decisive and not npt_cuts:
        return EofBounds(0.0, 0.0, True, {"route": "ppt-decisive-separable"})
    if engine.find_ensemble(rho, 1) is not None:  # None after an NPT cut
        return EofBounds(0.0, 0.0, True, {"route": "product-ensemble"})

    upper = float(
        sum(
            p * generalized_eof(_coefficients(s, engine))
            for p, s in zip(weights, states)
        )
    )
    return EofBounds(0.0, upper, False, {"route": "eigen-ensemble"})
