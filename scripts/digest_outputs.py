#!/usr/bin/env python3
"""One md5 over every result of the benchmark workloads at seeds 1-4, and one each over range lines, spectra and coefficients.

The workload inputs are the benchmark's own: this script imports
``perfbench/workloads.py`` and calls each case's public function with the
default SearchBudget at ``seed = S``, as ``perfbench/run.py`` does. Their
per-workload lines and the ``all`` line over them come first. A last line,
``lines``, covers the three- and four-party range lines that the workloads
barely reach: ``mixed_schmidt_number`` of seeded rank-2 mixtures of two
Haar states on (2,2,2), (2,2,3) and (2,2,2,2), and ``pure_schmidt_number``
of seeded Haar (2,2,2,2) states, each with the default SearchBudget. The
``spectra`` line covers the Hermitian eigensolves that the workloads do not
reach: ``pure_schmidt_coefficients`` of seeded Haar (2,2,3) and (2,2,2,2)
states, whose element searches start from the ``eigh`` eigenbasis of their
reductions, and, for seeded (2,2) and (2,3) mixtures of rank 2, 3 and
full rank (Haar and product ones), ``mixed_generalized_eof``,
``numerical_rank`` of the DensityMatrix and of its bare matrix,
``ppt_negativity`` and the raw bytes of ``spectrum`` of the bare matrix.
The ``coefficients`` line covers the element searches:
``pure_schmidt_coefficients`` of W_4 and of seeded Haar (2,2,2,3) and
(2,2,3,3) states, which take the three-party element scan, and
``max_entropy_ensemble_element`` at target 2 of seeded (2,3), (2,4) and
(3,3) mixtures of Haar states of rank 2 and 3, which take the Nelder-Mead
search and, where no polished start qualifies, its ``SearchError``.
Each result is written out canonically and hashed:

- a Schmidt number: its interval, ``exact`` flag and ``branch_trace``, and
  its witness ensemble as weights under ``float.hex`` with the raw bytes of
  every state's amplitudes;
- a coefficient set: its values under ``float.hex`` and its provenance;
- an ensemble element: the raw bytes of its amplitudes and its coefficient set;
- EoF bounds: their fields, floats under ``float.hex``;
- a number or an eigensystem: the number under ``float.hex``, the
  eigensystem's raw bytes;
- a call that raised: the exception's type and message.

Floats anywhere in a trace or provenance are written with ``float.hex``, so
two runs print the same digest only if every bit agrees. A change that
claims byte-identical outputs compares the digest before and after; a
machine with another LAPACK build may print another digest for the same
code.

Usage (from the root of a checkout):

    python3 scripts/digest_outputs.py
"""
from __future__ import annotations

import dataclasses
import hashlib
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import multischmidt as ms  # noqa: E402
import workloads  # noqa: E402
from multischmidt.bipartite import ppt_negativity  # noqa: E402

SEEDS = (1, 2, 3, 4)


def canonical(obj) -> str:
    """A text form of nested JSON-like data in which every float is exact."""
    if isinstance(obj, dict):
        items = sorted((str(k), canonical(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return repr(bool(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (str, type(None))):
        return repr(obj)
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def describe(result) -> bytes:
    """The canonical bytes of one public call's result."""
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}".encode()
    if isinstance(result, ms.CoefficientSet):
        return canonical({"values": result.values, "provenance": result.provenance}).encode()
    if isinstance(result, ms.EofBounds):
        return canonical(dataclasses.asdict(result)).encode()
    if isinstance(result, ms.Eigensystem):
        return result.values.tobytes() + result.vectors.tobytes()
    if isinstance(result, tuple):  # an ensemble element and its coefficient set
        state, coeffs = result
        return state.amplitudes.tobytes() + b"|" + describe(coeffs)
    if isinstance(result, (int, float)):
        return canonical(result).encode()
    head = canonical(
        {
            "lo": result.value_lo,
            "hi": result.value_hi,
            "exact": result.exact,
            "trace": result.branch_trace,
        }
    ).encode()
    witness = result.witness_ensemble
    if witness is None:
        return head + b"|no witness"
    parts = [head, canonical(list(witness.weights)).encode()]
    parts += [s.amplitudes.tobytes() for s in witness.states]
    return b"|".join(parts)


def workload_digest(name: str) -> str:
    workload = workloads.WORKLOADS[name]
    h = hashlib.md5()
    for seed in SEEDS:
        budget = dataclasses.replace(ms.DEFAULT_BUDGET, seed=seed)
        for case in workload.make(ms, seed, False):
            try:
                result = getattr(ms, case.api)(case.data, budget)
            except Exception as exc:  # a failed call is an output too
                result = exc
            h.update(f"{name}|{seed}|{case.label}|{case.api}|".encode())
            h.update(describe(result))
            h.update(b"\n")
    return h.hexdigest()


# (dims, number of seeded rank-2 mixtures) for the range-line digest
LINE_MIXTURES = (((2, 2, 2), 8), ((2, 2, 3), 8), ((2, 2, 2, 2), 4))
LINE_HAAR_QUBITS4 = 20


def rank_two_mixture(profile, seed: int):
    """A seeded mixture of the Haar states ``random_pure`` seeds 2 S and 2 S + 1."""
    weights = np.random.default_rng(seed).uniform(0.2, 1.0, size=2)
    weights /= weights.sum()
    kets = [ms.random_pure(profile, 2 * seed + j).amplitudes for j in range(2)]
    rho = sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets))
    return ms.DensityMatrix(profile, (rho + rho.conj().T) / 2.0)


def cases_digest(tag: str, cases) -> str:
    """The md5 of (label, api, result) for each (label, api, call) of ``cases``."""
    h = hashlib.md5()
    for label, api, call in cases:
        try:
            result = call()
        except Exception as exc:  # a failed call is an output too
            result = exc
        h.update(f"{tag}|{label}|{api}|".encode())
        h.update(describe(result))
        h.update(b"\n")
    return h.hexdigest()


def line_digest() -> str:
    cases = []
    for dims, count in LINE_MIXTURES:
        profile = ms.DimensionProfile(dims)
        for seed in range(count):
            cases.append((f"mix{dims}#{seed}", "mixed_schmidt_number", rank_two_mixture(profile, seed)))
    for seed in range(LINE_HAAR_QUBITS4):
        cases.append((f"haar2222#{seed}", "pure_schmidt_number", ms.random_pure(ms.qubits(4), seed)))
    calls = [(label, api, partial(getattr(ms, api), data, ms.DEFAULT_BUDGET)) for label, api, data in cases]
    return cases_digest("lines", calls)


# (dims, number of seeded Haar states) whose coefficients the spectra digest covers
SPECTRA_STATES = (((2, 2, 3), 4), ((2, 2, 2, 2), 4))
SPECTRA_MIXTURE_DIMS = ((2, 2), (2, 3))
SPECTRA_SEEDS = 3


def spectra_mixtures(profile, seed: int):
    """(label, rho): seeded mixtures of Haar states of rank 2, 3 and full, and of two products."""
    rng = np.random.default_rng([seed, profile.total_dim])
    out = []
    for kind, count in (("r2", 2), ("r3", 3), ("full", profile.total_dim), ("sep", 2)):
        make = ms.random_product if kind == "sep" else ms.random_pure
        kets = [make(profile, 1000 * seed + 10 * count + j).amplitudes for j in range(count)]
        weights = rng.uniform(0.2, 1.0, size=count)
        weights /= weights.sum()
        rho = sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets))
        out.append((kind, ms.DensityMatrix(profile, (rho + rho.conj().T) / 2.0)))
    return out


def spectra_digest() -> str:
    cases = []
    for dims, count in SPECTRA_STATES:
        profile = ms.DimensionProfile(dims)
        for seed in range(count):
            call = partial(ms.pure_schmidt_coefficients, ms.random_pure(profile, seed))
            cases.append((f"haar{dims}#{seed}", "pure_schmidt_coefficients", call))
    first = ms.SubsystemSet((1,))
    for dims in SPECTRA_MIXTURE_DIMS:
        profile = ms.DimensionProfile(dims)
        for seed in range(SPECTRA_SEEDS):
            for kind, rho in spectra_mixtures(profile, seed):
                label = f"{kind}{dims}#{seed}"
                cases += [
                    (label, "mixed_generalized_eof", partial(ms.mixed_generalized_eof, rho)),
                    (label, "numerical_rank", partial(ms.numerical_rank, rho)),
                    (label, "numerical_rank/matrix", partial(ms.numerical_rank, np.array(rho.matrix))),
                    (label, "ppt_negativity", partial(ppt_negativity, rho, first)),
                    (label, "spectrum/matrix", partial(ms.spectrum, np.array(rho.matrix))),
                ]
    return cases_digest("spectra", cases)


# (dims, number of seeded Haar states) whose coefficients take the three-party element scan
COEFFICIENT_STATES = (((2, 2, 2, 3), 6), ((2, 2, 3, 3), 4))
ELEMENT_MIXTURE_DIMS = ((2, 3), (2, 4), (3, 3))
ELEMENT_SEEDS = 2


def element_mixture(profile, rank: int, seed: int):
    """A seeded mixture of ``rank`` Haar states."""
    rng = np.random.default_rng([seed, rank, profile.total_dim])
    kets = [ms.random_pure(profile, 100 * seed + 10 * rank + j).amplitudes for j in range(rank)]
    weights = rng.uniform(0.2, 1.0, size=rank)
    weights /= weights.sum()
    rho = sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets))
    return ms.DensityMatrix(profile, (rho + rho.conj().T) / 2.0)


def coefficients_digest() -> str:
    cases = [("w4", "pure_schmidt_coefficients", partial(ms.pure_schmidt_coefficients, ms.w_state(4)))]
    for dims, count in COEFFICIENT_STATES:
        profile = ms.DimensionProfile(dims)
        for seed in range(count):
            call = partial(ms.pure_schmidt_coefficients, ms.random_pure(profile, seed))
            cases.append((f"haar{dims}#{seed}", "pure_schmidt_coefficients", call))
    for dims in ELEMENT_MIXTURE_DIMS:
        profile = ms.DimensionProfile(dims)
        for rank in (2, 3):
            for seed in range(ELEMENT_SEEDS):
                rho = element_mixture(profile, rank, seed)
                call = partial(ms.max_entropy_ensemble_element, rho, 2)
                cases.append((f"r{rank}{dims}#{seed}", "max_entropy_ensemble_element", call))
    return cases_digest("coefficients", cases)


def main() -> int:
    total = hashlib.md5()
    for name in workloads.WORKLOADS:
        digest = workload_digest(name)
        print(f"{name} {digest}")
        total.update(f"{name} {digest}\n".encode())
    print(f"all {total.hexdigest()}")
    print(f"lines {line_digest()}")
    print(f"spectra {spectra_digest()}")
    print(f"coefficients {coefficients_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
