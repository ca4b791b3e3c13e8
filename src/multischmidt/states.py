"""Constructors for the standard state families and seeded random generators.

Random generators draw from counter-based Philox streams (see ``seeding``),
so every property test is reproducible across platforms. Basis kets are
0-based: the d-level GHZ family superposes |0...0>, |1...1>, ..., |d-1...d-1>.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionProfile, PureState
from .seeding import stream


def qubits(m: int) -> DimensionProfile:
    return DimensionProfile((2,) * m)


def basis_state(profile: DimensionProfile, labels: tuple[int, ...]) -> PureState:
    """Computational basis ket |labels>, party 1 first."""
    if len(labels) != profile.party_count:
        raise ValueError("one label per party required")
    idx = 0
    for d, lab in zip(profile.dims, labels):
        if not 0 <= lab < d:
            raise ValueError(f"label {lab} out of range for local dimension {d}")
        idx = idx * d + lab
    amps = np.zeros(profile.total_dim, dtype=np.complex128)
    amps[idx] = 1.0
    return PureState(profile, amps)


def w_state(m: int) -> PureState:
    """Equal superposition of the m single-excitation qubit basis states."""
    if m < 2:
        raise ValueError("the W family needs at least two parties")
    amps = np.zeros(2**m, dtype=np.complex128)
    for j in range(m):
        amps[1 << j] = 1.0 / np.sqrt(m)
    return PureState(qubits(m), amps)


def ghz_state(m: int, d: int = 2) -> PureState:
    """(1/sqrt d) sum_i |i>^(x m) on m parties of local dimension d."""
    if m < 2:
        raise ValueError("the GHZ family needs at least two parties")
    if d < 2:
        raise ValueError("the GHZ family needs local dimension at least two")
    profile = DimensionProfile((d,) * m)
    amps = np.zeros(profile.total_dim, dtype=np.complex128)
    step = (profile.total_dim - 1) // (d - 1)  # index of |i...i> is i * step
    for i in range(d):
        amps[i * step] = 1.0 / np.sqrt(d)
    return PureState(profile, amps)


def bell_state() -> PureState:
    return ghz_state(2, 2)


@dataclass(frozen=True)
class AcinParameters:
    """Five-amplitude canonical form parameters of a three-qubit pure state."""

    lams: tuple[float, float, float, float, float]
    theta: float = 0.0

    def __post_init__(self):
        lams = tuple(float(x) for x in self.lams)
        if len(lams) != 5:
            raise ValueError("exactly five amplitudes required")
        if any(x < 0 for x in lams):
            raise ValueError("amplitudes must be nonnegative")
        if abs(sum(x * x for x in lams) - 1.0) > 1e-10:
            raise ValueError("squared amplitudes must sum to 1")
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError("theta must lie in [0, pi]")
        object.__setattr__(self, "lams", lams)


def acin_state(params: AcinParameters) -> PureState:
    """l0|000> + l1 e^(i theta)|100> + l2|101> + l3|110> + l4|111>."""
    l0, l1, l2, l3, l4 = params.lams
    amps = np.zeros(8, dtype=np.complex128)
    amps[0b000] = l0
    amps[0b100] = l1 * np.exp(1j * params.theta)
    amps[0b101] = l2
    amps[0b110] = l3
    amps[0b111] = l4
    return PureState(qubits(3), amps)


def _haar_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))


def random_pure(profile: DimensionProfile, seed: int) -> PureState:
    """Haar-distributed global pure state, deterministic per seed."""
    rng = stream(seed, "pure", profile.dims)
    return PureState(profile, _haar_ket(rng, profile.total_dim))


def random_product(profile: DimensionProfile, seed: int) -> PureState:
    """Tensor product of independent Haar kets, one per party."""
    rng = stream(seed, "product", profile.dims)
    amps = np.ones(1, dtype=np.complex128)
    for d in profile.dims:
        amps = np.kron(amps, _haar_ket(rng, d))
    return PureState(profile, amps / np.linalg.norm(amps))


def random_local_unitary(profile: DimensionProfile, seed: int) -> list[np.ndarray]:
    """One Haar unitary per party."""
    rng = stream(seed, "unitary", profile.dims)
    return [_haar_unitary(rng, d) for d in profile.dims]


def random_local_invertible(
    profile: DimensionProfile, seed: int, max_condition: float = 30.0
) -> list[np.ndarray]:
    """One well-conditioned random invertible operator per party."""
    rng = stream(seed, "invertible", profile.dims)
    ops = []
    for d in profile.dims:
        for _ in range(64):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            if np.linalg.cond(a) <= max_condition:
                ops.append(a)
                break
        else:
            raise RuntimeError("failed to draw a well-conditioned operator")
    return ops


def apply_local_operators(state: PureState, ops: list[np.ndarray]) -> PureState:
    """Apply one operator per party and renormalize.

    Each operator acts on its own axis of the amplitude tensor: time grows
    as D * sum(d_i) and memory as D for total dimension D, where the
    operators' Kronecker product would need D^2 of both.
    """
    dims = state.profile.dims
    if len(ops) != len(dims):
        raise ValueError("need one operator per party")
    tensor = state.amplitudes.reshape(dims)
    for axis, (d, op) in enumerate(zip(dims, ops)):
        op = np.asarray(op, dtype=np.complex128)
        if op.shape != (d, d):
            raise ValueError(f"operator shape {op.shape} does not match local dimension {d}")
        tensor = np.moveaxis(np.tensordot(op, tensor, axes=(1, axis)), 0, axis)
    vec = tensor.reshape(-1)
    norm = np.linalg.norm(vec)
    if norm <= 1e-12:
        raise ValueError("transformed state vanished")
    return PureState(state.profile, vec / norm)
