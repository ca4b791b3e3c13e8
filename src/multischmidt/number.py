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
  range-span certificate. On a rank-2 range of two parties the states of
  value <= r below the generic rank are the finitely many rank-drop rays of
  the unfolding pencil (its generalized eigenvalues), which mix to rho or
  prove value_lo > r, so two-party rank-2 states are exact. For three or
  more parties the certificate is a heuristic grid-and-polish scan.

Every worked example in the test suite resolves to a matching lo/hi pair;
anything the machinery cannot certify is reported inexact, never guessed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigvals, expm
from scipy.optimize import minimize, nnls

from .bipartite import ppt_decisive, ppt_entangled, ppt_negativity
from .core import (
    DEFAULT_RANK_TOL,
    DensityMatrix,
    DimensionProfile,
    PureState,
    SubsystemSet,
    local_weights,
    normalized_state,
    reduce,
    spectrum,
    unfold,
    weight_rank,
)
from .partitions import enumerate_bipartitions, factorize
from .seeding import stream
from .states import apply_local_operators

RECONSTRUCTION_ATOL = 1e-7
EIGEN_WEIGHT_FLOOR = 1e-12
# a range ray's dropped weights sit below this (relative) or above the rank tol
ROOT_FLOOR = 1e-20
# fixed generic members z*M1 + M2 of a range pencil
_PROBES = np.exp(1j * np.array([1.0, 2.0, 3.0]))


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
        out = np.zeros((self.states[0].profile.total_dim,) * 2, dtype=np.complex128)
        for w, s in zip(self.weights, self.states):
            out += w * np.outer(s.amplitudes, s.amplitudes.conj())
        return out


@dataclass(frozen=True)
class SchmidtNumberResult:
    """Schmidt number as an integer interval with an audit trail."""

    value_lo: int
    value_hi: int
    exact: bool
    witness_ensemble: Optional[EnsembleCandidate]
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
    rounded = np.round(arr, decimals)
    rounded = rounded + (0.0 + 0.0j)  # normalize signed zeros in both parts
    return rounded.tobytes()


def _state_key(state: PureState) -> tuple:
    return (state.profile.dims, _stable_bytes(state.amplitudes, 12))


def _matrix_key(rho: DensityMatrix) -> tuple:
    return (rho.profile.dims, _stable_bytes(rho.matrix, 12))


def _range_key(basis: np.ndarray, dims: tuple[int, ...]) -> tuple:
    proj = basis @ basis.conj().T
    return (dims, _stable_bytes(proj, 9))


def _single_party_spectra(psi: np.ndarray) -> list[np.ndarray]:
    """Squared singular values of each single-party unfolding of a tensor."""
    out = []
    for i, d in enumerate(psi.shape):
        rest = [a for a in range(psi.ndim) if a != i]
        out.append(np.linalg.svd(psi.transpose([i] + rest).reshape(d, -1), compute_uv=False) ** 2)
    return out


def _tail(weights: np.ndarray, r: int) -> float:
    w = np.sort(np.asarray(weights))[::-1]
    return float(np.sum(w[r:])) if r < w.size else 0.0


def _hermitian_from(theta: np.ndarray, n: int) -> np.ndarray:
    h = np.zeros((n, n), dtype=np.complex128)
    h[np.diag_indices(n)] = theta[:n]
    k = n
    for a in range(n):
        for b in range(a + 1, n):
            h[a, b] = (theta[k] + 1j * theta[k + 1]) / np.sqrt(2.0)
            h[b, a] = np.conj(h[a, b])
            k += 2
    return h


class _Engine:
    """Memoized evaluator shared by one public call.

    Caches pure/mixed results by rounded amplitudes/matrices and range-span
    certificates and range rays by rounded range projectors, so the nested
    recursion of the genuinely entangled rule (pure -> mixed reductions ->
    range scans -> pure elements) stays affordable.
    """

    # projective-grid resolution of the range-span certificate
    CERT_GRID = (21, 16)
    MAX_FRESH_CERTS = 12

    def __init__(self, budget: SearchBudget, tol: float):
        self.budget = budget
        self.tol = tol
        self._pure_cache: dict = {}
        self._mixed_cache: dict = {}
        self._cert_cache: dict = {}
        self._ray_cache: dict = {}
        self._fresh_certs = 0

    # ---- pure states -----------------------------------------------------

    def pure_value(self, state: PureState) -> SchmidtNumberResult:
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

        structure = factorize(state, self.tol)
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
            return self._genuine_value(state)
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

    def _genuine_value(self, state: PureState) -> SchmidtNumberResult:
        m = state.party_count
        if m == 2:
            r = weight_rank(local_weights(state, SubsystemSet((1,))), self.tol)
            return _result(r, r, {"rule": "bipartite-rank", "rank": r})
        lo = hi = 0
        per_party = []
        for i in range(1, m + 1):
            me = SubsystemSet((i,))
            r_i = weight_rank(local_weights(state, me), self.tol)
            sub = self.mixed_value(reduce(state, me.complement(m)))
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

    # ---- mixed states ----------------------------------------------------

    def mixed_value(self, rho: DensityMatrix) -> SchmidtNumberResult:
        key = _matrix_key(rho)
        hit = self._mixed_cache.get(key)
        if hit is None:
            hit = self._mixed_value(rho)
            self._mixed_cache[key] = hit
        return hit

    def _eigen_elements(self, rho: DensityMatrix, w: np.ndarray, v: np.ndarray):
        keep = [i for i in range(w.size) if w[i] > EIGEN_WEIGHT_FLOOR]
        weights = np.array([w[i] for i in keep], dtype=np.float64)
        weights = weights / weights.sum()
        states = [
            PureState(rho.profile, v[:, i] / np.linalg.norm(v[:, i])) for i in keep
        ]
        return weights, states

    def _mixed_value(self, rho: DensityMatrix) -> SchmidtNumberResult:
        m = rho.party_count
        trace: dict = {}
        if m == 1:
            return _result(1, 1, {"rule": "single-party"})

        w, v = spectrum(rho)
        k = weight_rank(w, self.tol)
        weights, elements = self._eigen_elements(rho, w, v)
        if k == 1 and len(elements) == 1:
            sub = self.pure_value(elements[0])
            trace = {"rule": "rank-one", "pure_trace": sub.branch_trace}
            witness = _build_candidate(rho, weights, elements)
            return _result(sub.value_lo, sub.value_hi, trace, witness)
        trace["rank"] = k

        element_results = [self.pure_value(s) for s in elements]
        eigen_hi = max(r.value_hi for r in element_results)
        witness = _build_candidate(rho, weights, elements)
        hi = eigen_hi
        trace["eigen_hi"] = eigen_hi
        lo = 1

        if lo == hi:
            trace["rule"] = "eigen-ensemble"
            return _result(lo, hi, trace, witness)

        # PPT lower bound over all bipartitions, decisive shapes annotated
        cuts = enumerate_bipartitions(m)
        npt = [c for c in cuts if ppt_entangled(rho, c)]
        decisive = all(ppt_decisive(rho, c) for c in cuts)
        trace["npt_cuts"] = [list(c.indices) for c in npt]
        if npt:
            lo = 2
        elif decisive:
            # Horodecki: PPT on a 2x2 / 2x3 shape proves separability
            trace["rule"] = "ppt-decisive-separable"
            return _result(1, 1, trace, None)
        if lo == hi:
            trace["rule"] = "ppt-meets-eigen"
            return _result(lo, hi, trace, witness)

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
            cert = self._span_certificate(rho, w, v, hi - 1)
            trace["certificate"] = cert["summary"] if cert else "cap-reached"
            if cert and cert["certified"]:
                return _result(hi, hi, trace | {"rule": "range-span-certified"}, witness)

        # two parties: the range rays decide every level exactly, lowest first,
        # so the first level whose rays mix to rho is the value
        rays = self._range_rays(rho, v) if plane and m == 2 else None
        if rays is not None:
            for r in range(lo, hi):
                cand = _solve_mixture(rho, [s for s, val in rays if val <= r])
                if cand is not None:
                    return _result(r, r, trace | {"rule": "range-ray-mixture"}, cand)

        # ensemble searches, ascending target
        attempts = []
        for r in range(lo, hi):
            cand = self.search_ensemble(rho, r)
            attempts.append({"target": r, "found": cand is not None})
            if cand is not None:
                hi = r
                witness = cand
                if lo < hi and plane:
                    cert = self._span_certificate(rho, w, v, hi - 1)
                    if cert and cert["certified"]:
                        lo = hi
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
                states.append(PureState(rho.profile, vec))
            cand = _build_candidate(rho, weights, states)
            if cand is not None:
                return "diagonal-basis", cand
        k = weight_rank(w, self.tol)
        if k > 2:
            cand = _qubit_pencil_products(rho, v, k, self.tol)
            return ("qubit-pencil-products", cand) if cand is not None else ("inconclusive", None)
        if k != 2 or w[1] <= EIGEN_WEIGHT_FLOOR:
            return "inconclusive", None
        rays = self._range_rays(rho, v)
        if rays is None:
            return "inconclusive", None
        products = [s for s, val in rays if val == 1]
        if not products:
            return "no-products-in-range", None
        cand = _solve_mixture(rho, products)
        if cand is not None:
            return "rank2-products", cand
        return "products-cannot-mix", None

    def _range_rays(self, rho: DensityMatrix, v: np.ndarray) -> Optional[list]:
        """(state, value) for the rank-drop states of span{v1, v2} and v1, v2.

        A state whose unfolding rank is below the generic rank g of the
        pencil alpha*M1 + beta*M2 (M1, M2 the unfoldings of v1, v2) is one of
        its finitely many rank-drop rays, so the rays of value <= r listed
        here are all there are, and _solve_mixture decides target r exactly:
        for two parties at any r, for more parties at r = 1 (the pencil of
        the party of largest generic rank). The value is the largest
        single-party rank: the Schmidt number for two parties, or when it is
        1. None when a root's rank drop is too shallow to be accurate.
        Memoized per range.
        """
        dims = rho.profile.dims
        key = _range_key(v[:, :2], dims)
        if key in self._ray_cache:
            return self._ray_cache[key]
        v1, v2 = v[:, 0], v[:, 1]
        drops = np.zeros((0, 2))
        for i in range(1, len(dims) + 1) if len(dims) > 2 else (1,):
            side = SubsystemSet((i,))
            found = _pencil_drops(unfold(v1, dims, side), unfold(v2, dims, side), self.tol)
            drops = found if len(found) > len(drops) else drops
        roots = [normalized_state(rho.profile, a * v1 + b * v2) for a, b in drops]
        spectra = [p for st in roots for p in _single_party_spectra(st.tensor())]
        if any(weight_rank(p, ROOT_FLOOR) != weight_rank(p, self.tol) for p in spectra):
            rays = None  # a root neither clean nor clearly off: no exact claim
        else:
            basis = [normalized_state(rho.profile, v1), normalized_state(rho.profile, v2)]
            rays = [
                (st, max(weight_rank(p, self.tol) for p in _single_party_spectra(st.tensor())))
                for st in _dedupe_states(roots + basis)
            ]
        self._ray_cache[key] = rays
        return rays

    # ---- range-span lower bound -------------------------------------------

    def _span_certificate(
        self, rho: DensityMatrix, w: np.ndarray, v: np.ndarray, r: int
    ) -> Optional[dict]:
        """Certify that no ensemble of rho can consist of value <= r states.

        Returns {"certified", "summary"}, or None when the MAX_FRESH_CERTS cap
        refuses a new grid scan. Two parties: exact, the value <= r rays of
        ``_range_rays`` cannot mix to rho. More parties: a heuristic scan of
        the projective line. Grid points are classified by their (integer)
        pure value; definite zeros must span a proper subspace and no
        ambiguous point may appear; for three parties an exact continuous
        surrogate is also minimized to catch off-grid zeros.
        """
        if rho.party_count == 2:
            rays = self._range_rays(rho, v)
            if rays is None:
                return {"certified": False, "summary": {"certified": False, "reason": "ambiguous"}}
            low = [s for s, val in rays if val <= r]
            certified = _solve_mixture(rho, low) is None
            summary = {"certified": certified, "level": int(r), "range_rays": len(low)}
            return {"certified": certified, "summary": summary}
        basis = v[:, :2]
        key = (_range_key(basis, rho.profile.dims), r)
        if key in self._cert_cache:
            return self._cert_cache[key]
        if self._fresh_certs >= self.MAX_FRESH_CERTS:
            return None
        self._fresh_certs += 1

        dims = rho.profile.dims
        v1, v2 = basis[:, 0], basis[:, 1]

        def ray(t: float, ph: float) -> np.ndarray:
            vec = np.cos(t) * v1 + np.exp(1j * ph) * np.sin(t) * v2
            return (vec / np.linalg.norm(vec)).reshape(dims)

        nt, nph = self.CERT_GRID
        zeros: list[np.ndarray] = []
        ambiguous = False
        samples = [(0.0, 0.0), (np.pi / 2.0, 0.0)]
        for t in np.linspace(0.0, np.pi / 2.0, nt + 2)[1:-1]:
            for ph in np.linspace(0.0, 2.0 * np.pi, nph, endpoint=False):
                samples.append((float(t), float(ph)))
        for t, ph in samples:
            st = PureState(rho.profile, ray(t, ph))
            res = self.pure_value(st)
            if res.value_hi <= r:
                zeros.append(st.amplitudes)
            elif res.value_lo <= r:
                ambiguous = True
                break

        # Rank tolerance blurs classification in a boundary layer of angular
        # width ~sqrt(tol) around true zeros; polished zeros inside that layer
        # are absorbed. Mixing nearly parallel rays cannot rebuild a rank-2
        # state whose eigenvalue ratio exceeds the layer width squared, so the
        # absorption cannot hide a decomposition the certificate should block.
        absorb = min(1e-2, 0.25 * float(np.sqrt(w[1] / w[0])))
        polished_ok = True
        if not ambiguous and len(dims) == 3:
            polished_ok = self._polish_zero_hunt(ray, r, zeros, absorb)

        if ambiguous or not polished_ok:
            cert = {"certified": False, "summary": {"certified": False, "reason": "ambiguous"}}
            self._cert_cache[key] = cert
            return cert

        span_dim = _span_rank(zeros) if zeros else 0
        certified = span_dim < 2
        cert = {
            "certified": certified,
            "summary": {
                "certified": certified,
                "level": int(r),
                "grid": [nt, nph],
                "zero_span": int(span_dim),
                "surrogate_polish": bool(len(dims) == 3),
            },
        }
        self._cert_cache[key] = cert
        return cert

    def _polish_zero_hunt(self, ray, r: int, zeros: list[np.ndarray], absorb: float) -> bool:
        """Minimize the continuous low-value surrogate to catch off-grid zeros.

        ``ray(t, ph)`` is the normalized amplitude tensor of a point of the
        range. Returns False when a genuinely new zero direction turns up
        (the certificate must then fail); zeros converging into the span of
        the grid zeros are absorbed.
        """

        def g(x: np.ndarray) -> float:
            return _low_value_surrogate(ray(float(x[0]), float(x[1])), r)

        rng = stream(self.budget.seed, "cert-polish", r)
        starts = [(rng.uniform(0.05, np.pi / 2 - 0.05), rng.uniform(0, 2 * np.pi)) for _ in range(8)]
        for x0 in starts:
            res = minimize(
                g,
                np.array(x0, dtype=np.float64),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400},
            )
            if res.fun > 1e-10:
                continue
            psi = ray(float(res.x[0]), float(res.x[1]))
            st = PureState(DimensionProfile(psi.shape), psi)
            val = self.pure_value(st)
            if val.value_lo > r:
                continue  # surrogate slack; not an actual low-value state
            if zeros and _angle_to_span(st.amplitudes, zeros) < absorb:
                continue  # converged into the known zero span
            return False
        return True

    # ---- ensemble search ---------------------------------------------------

    def search_ensemble(self, rho: DensityMatrix, target_r: int) -> Optional[EnsembleCandidate]:
        """Find an ensemble of rho whose elements all have value <= target_r.

        Tries the eigen-ensemble, the exact product routes (target 1), then
        seeded smooth optimization over the isometry parametrization of all
        decompositions; candidates pass a hard per-element re-verification.
        Absence of a result is not a proof of impossibility.
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
        return self._optimized_ensemble(rho, target_r, weights, elements)

    def _optimized_ensemble(self, rho, target_r, weights, elements):
        k = len(elements)
        basis = np.column_stack([s.amplitudes for s in elements])
        b_mat = basis * np.sqrt(weights)
        profile = rho.profile
        sizes = sorted({min(n, k * k) for n in (k, k + 1, 2 * k)})
        restarts = max(1, self.budget.restarts // 8)
        iters = max(30, self.budget.iters // 5)

        def columns(theta: np.ndarray, n: int) -> np.ndarray:
            u = expm(1j * _hermitian_from(theta, n))
            return b_mat @ u[:k, :]

        def objective(theta: np.ndarray, n: int) -> float:
            cols = columns(theta, n)
            total = 0.0
            for j in range(cols.shape[1]):
                p = float(np.vdot(cols[:, j], cols[:, j]).real)
                if p < EIGEN_WEIGHT_FLOOR:
                    continue
                st = cols[:, j] / np.sqrt(p)
                total += p * _element_tail(st, profile, target_r)
            return total

        for attempt in range(restarts):
            n = sizes[attempt % len(sizes)]
            rng = stream(self.budget.seed, "ensemble", _matrix_key(rho)[1], target_r, attempt)
            theta0 = rng.normal(scale=0.7, size=n * n)
            res = minimize(
                lambda th: objective(th, n),
                theta0,
                method="L-BFGS-B",
                options={"maxiter": iters},
            )
            if res.fun > 1e-9:
                continue
            cols = columns(res.x, n)
            out_w, out_s = [], []
            ok = True
            for j in range(cols.shape[1]):
                p = float(np.vdot(cols[:, j], cols[:, j]).real)
                if p < EIGEN_WEIGHT_FLOOR:
                    continue
                st = PureState(profile, cols[:, j] / np.sqrt(p))
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


def _pencil_drops(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Unit rays (alpha, beta) holding every rank drop of alpha*a + beta*b.

    Compressed by the leading singular vectors of a generic member, the
    pencil is a regular g x g one (g its generic rank) whose determinant
    vanishes wherever the rank falls below g; its g generalized eigenvalues
    are those rays and possibly others, whose rank the caller tests. A
    lower-rank ray is generically a semisimple eigenvalue, found to rounding
    accuracy; the caller's margin test catches the others.
    """
    svds = [np.linalg.svd(z * a + b) for z in _PROBES]
    g = max(weight_rank(s**2, tol) for _, s, _ in svds)
    u, s, vh = max(svds, key=lambda usv: usv[1][g - 1] / usv[1][0])
    left, right = u[:, :g].conj().T, vh[:g].conj().T
    # beta_h * A x = alpha_h * B x, so alpha*A + beta*B is singular at (beta_h, -alpha_h)
    alpha_h, beta_h = eigvals(left @ a @ right, left @ b @ right, homogeneous_eigvals=True)
    rays = np.column_stack([beta_h, -alpha_h])
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


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
    for a in _pencil_drops(k0, k1, tol):
        _, s, vh = np.linalg.svd(a[0] * k0 + a[1] * k1)
        if weight_rank(s**2, tol) != s.size - 1:
            continue  # no rank drop, or a continuum of products at this a
        b = vh[-1].conj()
        products.append(normalized_state(rho.profile, np.kron(a, b) if q == 0 else np.kron(b, a)))
    return _solve_mixture(rho, _dedupe_states(products))


def _dedupe_states(states: list[PureState]) -> list[PureState]:
    out: list[PureState] = []
    for s in states:
        if all(abs(np.vdot(t.amplitudes, s.amplitudes)) < 1.0 - 1e-9 for t in out):
            out.append(s)
    return out


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
    weights = [float(p) for p in weights]
    try:
        cand = EnsembleCandidate(tuple(weights), tuple(states))
    except ValueError:
        return None
    err = float(np.linalg.norm(cand.reconstruct() - rho.matrix))
    return cand if err <= RECONSTRUCTION_ATOL else None


def _span_rank(vectors: list[np.ndarray], tol: float = 1e-8) -> int:
    stack = np.column_stack(vectors)
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.count_nonzero(s > tol * s[0])) if s.size and s[0] > 0 else 0


def _angle_to_span(vec: np.ndarray, span_vectors: list[np.ndarray]) -> float:
    q, _ = np.linalg.qr(np.column_stack(span_vectors))
    resid = vec - q @ (q.conj().T @ vec)
    return float(np.linalg.norm(resid))


def _element_tail(vec: np.ndarray, profile: DimensionProfile, target_r: int) -> float:
    """Smooth surrogate for 'value <= target_r' of one ensemble element."""
    spectra = _single_party_spectra((vec / np.linalg.norm(vec)).reshape(profile.dims))
    if target_r == 1:
        return float(sum(1.0 - p[0] for p in spectra))
    if profile.party_count == 2:
        return _tail(spectra[0], target_r)
    # necessary condition mass: every local rank must stay below target_r
    return float(sum(_tail(p, target_r - 1) for p in spectra))


def _low_value_surrogate(psi: np.ndarray, r: int) -> float:
    """Continuous nonnegative function vanishing on all states of value <= r.

    ``psi`` is a normalized amplitude tensor. Exact zero set for three-qubit
    states; a sound relaxation (necessary conditions only) elsewhere. Used
    by the range-span certificate to hunt for off-grid low-value states.
    """
    spectra = _single_party_spectra(psi)
    if r == 1:
        return float(sum(1.0 - p[0] for p in spectra))
    m = psi.ndim
    # biseparable branch: some party splits off and the rest stays rank <= r
    split = min(
        (1.0 - spectra[i][0]) + sum(_tail(spectra[j], r) for j in range(m) if j != i)
        for i in range(m)
    )
    if psi.shape == (2, 2, 2) and r >= 3:
        # genuinely entangled branch: value 3 iff every pair reduction is PPT;
        # the reductions onto parties {2,3}, {1,3}, {1,2} as one (3, 4, 4) stack
        cols = np.stack([psi.transpose(1, 2, 0), psi.transpose(0, 2, 1), psi]).reshape(3, 4, 2)
        pairs = cols @ cols.conj().swapaxes(-1, -2)
        pairs = (pairs + pairs.conj().swapaxes(-1, -2)) / 2.0
        npt_mass = ppt_negativity(pairs.reshape(3, 2, 2, 2, 2), SubsystemSet((1,)))
        return float(min(split, npt_mass))
    ge_proxy = float(sum(_tail(p, r - 1) for p in spectra))
    return float(min(split, ge_proxy))


# ---- public API ---------------------------------------------------------------


def pure_schmidt_number(
    state: PureState, budget: SearchBudget = DEFAULT_BUDGET, tol: float = DEFAULT_RANK_TOL
) -> SchmidtNumberResult:
    """Schmidt number of a multipartite pure state (interval, usually exact)."""
    return _Engine(budget, tol).pure_value(state)


def mixed_schmidt_number(
    rho: DensityMatrix, budget: SearchBudget = DEFAULT_BUDGET, tol: float = DEFAULT_RANK_TOL
) -> SchmidtNumberResult:
    """Convex-roof Schmidt number interval of a mixed state."""
    return _Engine(budget, tol).mixed_value(rho)


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
    profile = state.profile
    if len(local_invertibles) != profile.party_count:
        raise ValueError("need one operator per party")
    ops = []
    for d, op in zip(profile.dims, local_invertibles):
        arr = np.asarray(op, dtype=np.complex128)
        if arr.shape != (d, d):
            raise ValueError(f"operator shape {arr.shape} does not match local dimension {d}")
        if np.linalg.cond(arr) > 1e10:
            raise ValueError("operator is too close to singular (condition number > 1e10)")
        ops.append(arr)
    transformed = apply_local_operators(state, ops)
    engine = _Engine(budget, tol)
    before = engine.pure_value(state)
    after = engine.pure_value(transformed)
    return (before.value_lo, before.value_hi) == (after.value_lo, after.value_hi)
