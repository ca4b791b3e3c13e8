#!/usr/bin/env python3
"""One md5 over every result of the three benchmark workloads at seeds 1-4.

The inputs are the benchmark's own: this script imports
``perfbench/workloads.py`` and calls each case's public function with the
default SearchBudget at ``seed = S``, as ``perfbench/run.py`` does. Each
result is written out canonically and hashed:

- a Schmidt number: its interval, ``exact`` flag and ``branch_trace``, and
  its witness ensemble as weights under ``float.hex`` with the raw bytes of
  every state's amplitudes;
- a coefficient set: its values under ``float.hex`` and its provenance;
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import multischmidt as ms  # noqa: E402
import workloads  # noqa: E402

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


def main() -> int:
    total = hashlib.md5()
    for name in workloads.WORKLOADS:
        digest = workload_digest(name)
        print(f"{name} {digest}")
        total.update(f"{name} {digest}\n".encode())
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
