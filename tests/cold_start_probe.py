"""What a fresh interpreter loads for pure-state work, and the results it gets.

Run as a script (``PYTHONPATH=src python tests/cold_start_probe.py``), it
prints one JSON object: whether ``import scipy.linalg`` alone loads
scipy.optimize, whether the pure-state numbers, closed-form coefficients and
the CLI's reproduce table left it unloaded, whether a (3,3) rank-2 mixture,
whose range-line walk solves an NNLS, loaded it, and the fingerprints of all
those results. ``tests/test_cold_start.py`` compares the fingerprints with
the same calls made in its own process.
"""
import json
import sys

OPTIMIZER = "scipy.optimize"


def _number(result) -> str:
    return f"{result.value_lo} {result.value_hi} {result.exact} {result.branch_trace.get('rule')}"


def pure_fingerprints() -> list[str]:
    """Pure numbers, closed-form coefficients and the reproduce rows: no NNLS and no search."""
    import multischmidt as ms
    from multischmidt import cli

    def haar(dims, seed=1):
        return ms.random_pure(ms.DimensionProfile(dims), seed)

    states = [ms.w_state(m) for m in (3, 4, 5)] + [ms.ghz_state(m) for m in (3, 4, 5)]
    states += [ms.ghz_state(3, 3), haar((2, 2, 2)), haar((2, 2, 3)), haar((2, 2, 2, 2))]
    out = [_number(ms.pure_schmidt_number(st)) for st in states]
    for st in (ms.w_state(3), ms.ghz_state(3), haar((2, 2, 2))):
        out.append(" ".join(float(v).hex() for v in ms.pure_schmidt_coefficients(st).values))
    rows = cli.reproduce_rows(ms.DEFAULT_BUDGET, ms.DEFAULT_RANK_TOL)
    out.extend(f"{r.name}: {r.computed} {r.ok}" for r in rows)
    return out


def mixed_fingerprint() -> str:
    """A seeded (3,3) rank-2 mixture: its range-line walk solves an NNLS."""
    import numpy as np

    import multischmidt as ms

    profile = ms.DimensionProfile((3, 3))
    kets = [ms.random_pure(profile, seed).amplitudes for seed in (1, 2)]
    rho = ms.DensityMatrix(profile, sum(np.outer(k, k.conj()) for k in kets) / 2)
    result = ms.mixed_schmidt_number(rho)
    weights = " ".join(float(w).hex() for w in result.witness_ensemble.weights)
    return f"{_number(result)} {weights}"


def main() -> None:
    import scipy.linalg  # noqa: F401  (core needs it; it must not bring the optimizer)

    out = {"linalg_loads_optimizer": OPTIMIZER in sys.modules}
    if not out["linalg_loads_optimizer"]:
        out["pure"] = pure_fingerprints()
        out["loaded_after_pure"] = OPTIMIZER in sys.modules
        out["mixed"] = mixed_fingerprint()
        out["loaded_after_mixed"] = OPTIMIZER in sys.modules
    print(json.dumps(out))


if __name__ == "__main__":
    main()
