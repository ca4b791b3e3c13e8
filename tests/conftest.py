"""Shared fixtures and independent oracles for the test suite."""
import itertools

import hypothesis
import numpy as np
import pytest

import multischmidt as ms

hypothesis.settings.register_profile(
    "ci", deadline=None, max_examples=40, derandomize=True
)
hypothesis.settings.load_profile("ci")


def brute_partial_trace(vec, dims, keep):
    """Partial trace of |vec><vec| onto 0-based axes ``keep``, by explicit loops.

    Deliberately independent of the library implementation (no reshape or
    transpose tricks): used as the oracle for every derived reduction value.
    """
    vec = np.asarray(vec, dtype=complex)
    m = len(dims)
    traced = [a for a in range(m) if a not in keep]

    def flat(mi):
        f = 0
        for d, i in zip(dims, mi):
            f = f * d + i
        return f

    dk = 1
    for a in keep:
        dk *= dims[a]
    out = np.zeros((dk, dk), dtype=complex)
    keep_ranges = [range(dims[a]) for a in keep]
    traced_ranges = [range(dims[a]) for a in traced] or [range(1)]

    def kflat(ki):
        f = 0
        for a, i in zip(keep, ki):
            f = f * dims[a] + i
        return f

    for ki in itertools.product(*keep_ranges):
        for kj in itertools.product(*keep_ranges):
            acc = 0.0 + 0.0j
            for ti in itertools.product(*traced_ranges):
                mi = [0] * m
                mj = [0] * m
                for pos, a in enumerate(keep):
                    mi[a] = ki[pos]
                    mj[a] = kj[pos]
                for pos, a in enumerate(traced):
                    mi[a] = ti[pos]
                    mj[a] = ti[pos]
                acc += vec[flat(mi)] * np.conj(vec[flat(mj)])
            out[kflat(ki), kflat(kj)] = acc
    return out


def near_bell_times_zero():
    """Bell (x) |0> plus relative complex Gaussian noise of norm 1e-3, renormalized.

    Its 12|3 cut has rank 1 under a tolerance above the noise weight (~1e-7)
    but not under the default 1e-8.
    """
    clean = np.kron(ms.bell_state().amplitudes, [1.0, 0.0])
    gen = np.random.default_rng(0)
    noise = gen.normal(size=8) + 1j * gen.normal(size=8)
    return ms.normalized_state(ms.qubits(3), clean + 1e-3 * noise / np.linalg.norm(noise))


def product_mixture(dims, s):
    """The 0.5 / 0.3 / 0.2 mixture of random_product seeds 3s, 3s + 1 and 3s + 2 on ``dims``."""
    prof = ms.DimensionProfile(dims)
    states = [ms.random_product(prof, 3 * s + j) for j in range(3)]
    mat = sum(w * np.outer(st.amplitudes, st.amplitudes.conj()) for w, st in zip((0.5, 0.3, 0.2), states))
    return ms.DensityMatrix(prof, mat)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
