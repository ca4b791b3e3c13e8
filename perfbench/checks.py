"""Output checks for the benchmark, with oracles that do not use the library.

Every check returns a list of problem strings; an empty list means the
result passed. The oracles below work on raw amplitude vectors and density
matrices with plain numpy (unfolding SVDs, an explicit partial transpose),
so a defect in the library's own reductions cannot hide itself.

One class of failures is a documented defect of the library rather than a
fault of a run: two-party rank-2 mixtures with both local dimensions >= 3
get an unsound range-span certificate (value_lo above the planted maximum).
Such a result still counts against ``pass_frac``; it is reported as a known
defect instead of flipping the run's ``correct`` flag. Any other problem,
including an unsound bound on any other shape, does flip it.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

RANK_TOL = 1e-8
RECONSTRUCTION_ATOL = 1e-7
SQUARES_ATOL = 1e-9
CLOSED_FORM_ATOL = 1e-6
PPT_TOL = 1e-9

# Closed-form Schmidt coefficient multisets (README worked examples), descending.
CLOSED_FORMS = {
    "W3": (1 / np.sqrt(3), 0.5, 0.5, 1 / np.sqrt(6)),
    "GHZ3": (1 / np.sqrt(2), 0.5, 0.5),
}

LO_ABOVE_PLANTED = "value_lo above planted maximum"


# ---- oracles -------------------------------------------------------------------


def _unfold(vec: np.ndarray, dims: tuple[int, ...], side: tuple[int, ...]) -> np.ndarray:
    """Amplitudes as a (side) x (rest) matrix; ``side`` holds 0-based axes."""
    rest = tuple(a for a in range(len(dims)) if a not in side)
    rows = int(np.prod([dims[a] for a in side]))
    return np.asarray(vec).reshape(dims).transpose(side + rest).reshape(rows, -1)


def _rank(singular: np.ndarray) -> int:
    sq = singular**2
    return int(np.count_nonzero(sq > RANK_TOL * sq[0])) if sq[0] > 0 else 0


def local_ranks(vec: np.ndarray, dims: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(
        _rank(np.linalg.svd(_unfold(vec, dims, (a,)), compute_uv=False))
        for a in range(len(dims))
    )


def genuinely_entangled(vec: np.ndarray, dims: tuple[int, ...]) -> bool:
    """No bipartition of the parties leaves the state product."""
    m = len(dims)
    for size in range(1, m // 2 + 1):
        for side in combinations(range(m), size):
            if _rank(np.linalg.svd(_unfold(vec, dims, side), compute_uv=False)) == 1:
                return False
    return True


def partial_transpose_min_eig(rho: np.ndarray, da: int, db: int) -> float:
    """Smallest eigenvalue of rho^(T_A) for a da x db bipartite matrix."""
    pt = np.asarray(rho).reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, -1)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0])


def three_qubit_value(vec: np.ndarray) -> int:
    """Schmidt number of a genuinely entangled three-qubit state.

    Each party has local rank 2, and the complementary two-qubit reduction
    has Schmidt number 2 iff it is NPT (PPT decides two qubits), else 1.
    """
    dims = (2, 2, 2)
    if not genuinely_entangled(vec, dims) or local_ranks(vec, dims) != (2, 2, 2):
        raise ValueError("the three-qubit oracle needs a genuinely entangled state")
    best = 0
    for party in range(3):
        pair = _unfold(vec, dims, tuple(a for a in range(3) if a != party))
        rho = pair @ pair.conj().T
        best = max(best, 2 + (2 if partial_transpose_min_eig(rho, 2, 2) < -PPT_TOL else 1))
    return best


# ---- checks --------------------------------------------------------------------


def interval_problems(res) -> list[str]:
    lo, hi, exact = res.value_lo, res.value_hi, res.exact
    if not (isinstance(lo, int) and isinstance(hi, int) and 1 <= lo <= hi):
        return [f"malformed interval [{lo}, {hi}]"]
    if exact != (lo == hi):
        return [f"exact flag {exact} disagrees with [{lo}, {hi}]"]
    return []


def pure_number_problems(case, res) -> list[str]:
    """Pure Schmidt number: exact table value, or the local-rank lower bound."""
    problems = interval_problems(res)
    if problems:
        return problems
    want = case.expect.get("value")
    if want is not None:
        if not (res.value_lo == res.value_hi == want):
            problems.append(f"expected exactly {want}, got [{res.value_lo}, {res.value_hi}]")
    elif case.expect["genuine"] and res.value_lo < case.expect["max_local_rank"] + 1:
        problems.append(
            f"value_lo {res.value_lo} below max local rank + 1 = {case.expect['max_local_rank'] + 1}"
        )
    return problems


def coefficient_problems(case, cs) -> list[str]:
    values = np.asarray(cs.values, dtype=np.float64)
    problems = []
    total = float(np.sum(values**2))
    if abs(total - 1.0) > SQUARES_ATOL:
        problems.append(f"squares sum to {total!r}")
    if values.size != case.expect["value"]:
        problems.append(f"multiset size {values.size} != Schmidt number {case.expect['value']}")
    closed = CLOSED_FORMS.get(case.label)
    if closed is not None:
        err = closed_form_error(case.label, cs)
        if err > CLOSED_FORM_ATOL:
            problems.append(f"{case.label} coefficients off their closed form by {err:.3g}")
    return problems


def closed_form_error(label: str, cs) -> float:
    """Largest deviation of a coefficient set from its closed form."""
    want = np.sort(np.asarray(CLOSED_FORMS[label]))[::-1]
    got = np.sort(np.asarray(cs.values, dtype=np.float64))[::-1]
    if got.size != want.size:
        return float("inf")
    return float(np.max(np.abs(got - want)))


def mixed_problems(case, res, pure_value) -> list[str]:
    """Planted-ensemble soundness, witness validity and the PPT oracle.

    ``pure_value`` maps a witness element (a PureState) to its pure result.
    """
    problems = interval_problems(res)
    if problems:
        return problems
    planted = case.expect["planted_max"]
    if res.value_lo > planted:
        problems.append(f"{LO_ABOVE_PLANTED}: [{res.value_lo}, {res.value_hi}] vs {planted}")
    witness = res.witness_ensemble
    rho = case.data.matrix
    if witness is not None:
        rebuilt = sum(
            w * np.outer(s.amplitudes, s.amplitudes.conj())
            for w, s in zip(witness.weights, witness.states)
        )
        err = float(np.linalg.norm(rebuilt - rho))
        if err > RECONSTRUCTION_ATOL:
            problems.append(f"witness rebuilds rho only to {err:.3g}")
        for s in witness.states:
            if pure_value(s).value_hi > res.value_hi:
                problems.append("a witness element exceeds value_hi")
                break
    ppt = case.expect.get("ppt_separable")
    if ppt is True and not (res.value_lo == res.value_hi == 1):
        problems.append(f"PPT oracle says separable, got [{res.value_lo}, {res.value_hi}]")
    if ppt is False and res.value_lo < 2:
        problems.append(f"PPT oracle says entangled, got value_lo {res.value_lo}")
    return problems


def problems(case, res, pure_value) -> list[str]:
    """The checks of the public function the case went to."""
    if case.api == "pure_schmidt_number":
        return pure_number_problems(case, res)
    if case.api == "pure_schmidt_coefficients":
        return coefficient_problems(case, res)
    return mixed_problems(case, res, pure_value)


def is_known_defect(case, problems: list[str]) -> bool:
    """The documented unsound certificate on two-party rank-2 shapes >= 3x3."""
    return (
        bool(problems)
        and case.expect.get("defect_class", False)
        and all(p.startswith(LO_ABOVE_PLANTED) for p in problems)
    )
