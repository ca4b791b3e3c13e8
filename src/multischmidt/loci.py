"""Exact loci: the special states of a range line or range, listed by algebra.

Pure array algebra that builds no PureState, DensityMatrix or engine. Each
solver returns arrays, or None where the set is not finite or cannot be
listed; the number and the coefficients build states from what it returns.

Every state that factorizes at a cut is a rank drop of that cut's unfolding
pencil alpha*M1 + beta*M2, one of its generalized eigenvalues
(_pencil_drops); two parties need nothing more. On three qubits the
genuinely entangled states of value 3 are the zeros of the
Coffman-Kundu-Wootters gap (S/3)^2 - |H|^2, found from a Sylvester
eliminant as a 28 x 28 generalized eigenproblem (_ckw_zeros). A 2 x N
range's products come from its kernel pencil (_qubit_pencil_products), and
a two-qubit range's maximal concurrence is a top Takagi value
(_max_concurrence_directions).
"""
from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import core
from .core import weight_rank

# fixed generic members z*M1 + M2 of a range pencil
_PROBES = np.exp(1j * np.array([1.0, 2.0, 3.0]))
# a three-qubit state's relative CKW gap is a zero below CKW_FLOOR and clearly
# off above CKW_MARGIN; CKW_FLOOR also floors S on unit rays and the CKW
# eliminant's relative singular values
CKW_FLOOR = 1e-12
CKW_MARGIN = 1e-6
_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
# sigma_y (x) sigma_y, the spin flip behind two-qubit concurrence
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y).real
# LAPACK zggev; _homogeneous_eigvals casts its operands to complex128
_GGEV = get_lapack_funcs("ggev", dtype=np.complex128)
_GGEV_LWORK: dict[int, int] = {}  # by order, filled on first use (_ggev_lwork)


def _pencil_drops(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """The generic rank g of alpha*a + beta*b and unit rays (alpha, beta) holding its drops.

    Compressed by the leading singular vectors of a generic member, the
    pencil is a regular g x g one (g its generic rank) whose determinant
    vanishes wherever the rank falls below g; its g generalized eigenvalues
    are those rays and possibly others, whose rank the caller tests. A
    lower-rank ray is generically a semisimple eigenvalue, found to rounding
    accuracy; the caller's margin test catches the others.
    """
    u, s, vh = core._svd(_PROBES[:, None, None] * a + b)  # the three members at once
    g, best = _generic_member(s.tolist(), tol)
    left, right = u[best, :, :g].conj().T, vh[best, :g].conj().T
    # beta_h * A x = alpha_h * B x, so alpha*A + beta*B is singular at (beta_h, -alpha_h)
    alpha_h, beta_h = _homogeneous_eigvals(left @ a @ right, left @ b @ right)
    rays = np.stack([beta_h, -alpha_h], axis=1)
    # np.linalg.norm(rays, axis=1, keepdims=True), written out
    return g, rays / np.sqrt(np.add.reduce((rays.conj() * rays).real, axis=1, keepdims=True))


def _generic_member(rows: list[list[float]], tol: float) -> tuple[int, int]:
    """(g, best) from the members' singular values, descending rows as ``s.tolist()`` gives them.

    g is the largest ``weight_rank`` of the squared rows, and best the first
    member with the largest s[g - 1] / s[0], the one whose leading g
    singular vectors compress the pencil best. As numpy's argmax does, the
    first member whose ratio is NaN (a zero member: 0 / 0) wins outright.
    """
    g = max(core._row_rank([x * x for x in row], tol) for row in rows)
    best, top = 0, -1.0
    for j, row in enumerate(rows):
        ratio = row[g - 1] / row[0] if row[0] != 0.0 else np.nan
        if ratio != ratio:
            return g, j
        if ratio > top:
            best, top = j, ratio
    return g, best


def _homogeneous_eigvals(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The generalized eigenvalues (alpha, beta) of the square pencil (a, b): beta*a x = alpha*b x.

    LAPACK ggev with the workspace of scipy.linalg.eigvals(a, b,
    homogeneous_eigvals=True), without that wrapper's overhead; the inputs
    are checked to be finite as its check_finite does.
    """
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    # a NaN or infinite entry leaves a sum of squares NaN or infinite; only
    # then (or where finite entries overflow one) are the entries tested one by one
    if not (np.vdot(a, a).real < np.inf and np.vdot(b, b).real < np.inf):
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("array must not contain infs or NaNs")
    alpha, beta, _, _, _, info = _GGEV(a, b, 0, 0, _ggev_lwork(a.shape[0]))
    if info != 0:
        raise np.linalg.LinAlgError(f"generalized eig algorithm (ggev) failed (LAPACK info={info})")
    return alpha, beta


def _ggev_lwork(n: int) -> int:
    """zggev's optimal workspace for order n, queried once as scipy queries it per call.

    The query, with eigenvectors as scipy asks, reads only the order.
    """
    lwork = _GGEV_LWORK.get(n)
    if lwork is None:
        z = np.zeros((n, n), dtype=np.complex128)
        lwork = _GGEV_LWORK[n] = int(_GGEV(z, z, lwork=-1)[-2][0].real)
    return lwork


def _polar(x: np.ndarray, y: np.ndarray):
    """b(x, y) in det(x + t*y) = det(x) + t*b(x, y) + t^2*det(y), for 2 x 2 blocks."""
    return (
        x[..., 0, 0] * y[..., 1, 1]
        + x[..., 1, 1] * y[..., 0, 0]
        - x[..., 0, 1] * y[..., 1, 0]
        - x[..., 1, 0] * y[..., 0, 1]
    )


def _pair_concurrences(amplitudes: np.ndarray, weights: list[np.ndarray]) -> list[float]:
    """The squared concurrence of each pair reduction rho_(not i) of a three-qubit state.

    ``weights`` holds each party's cut weights, the spectrum of rho_i. By
    Coffman-Kundu-Wootters 4 det(rho_i) = C_ij^2 + C_ik^2 + tau at every
    party i, so C_jk^2 = (4 det rho_j + 4 det rho_k - 4 det rho_i - tau) / 2.
    det(rho_i) = w0 * w1 from party i's cut weights, and tau = 4 |H| with
    H = b^2 - 4 det(X) det(Y) Cayley's hyperdeterminant from the party-1
    slices X, Y (b = _polar(X, Y), det X = _polar(X, X) / 2). The scalars
    are Python floats and complex numbers: numpy's dispatch on 0-d values
    costs more than the arithmetic. numpy's loops on 0-d arrays may fuse a
    complex product into multiply-adds where the CPU has them, so a numpy
    evaluation of the same expression can differ in the last bit.
    """
    dets = [4.0 * float(w[0] * w[1]) for w in weights]
    x, y = amplitudes.reshape(2, 2, 2).tolist()
    tau = 4.0 * abs(_polar_2x2(x, y) ** 2 - _polar_2x2(x, x) * _polar_2x2(y, y))
    total = dets[0] + dets[1] + dets[2]
    return [(total - 2.0 * d - tau) / 2.0 for d in dets]


def _polar_2x2(x: list, y: list) -> complex:
    """``_polar`` of one pair of 2 x 2 blocks given as nested lists."""
    return x[0][0] * y[1][1] + x[1][1] * y[0][0] - x[0][1] * y[1][0] - x[1][0] * y[0][1]


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
    spectra = [core._svd(mat, compute_uv=False) for mat in members]
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
    dims: tuple[int, ...], v: np.ndarray, k: int, tol: float
) -> Optional[np.ndarray]:
    """Rows a (x) b: the products a product ensemble of a 2 x N rho of rank k <= N may use.

    ``v`` holds rho's eigenvectors as columns, its range first. a (x) b lies
    in the range iff a^T C b = 0 for every kernel vector c (C its conjugated
    unfolding, qubit rows), i.e. iff b is a null vector of a0*K0 + a1*K1.
    With k <= N that (2N-k) x N pencil has full column rank but at finitely
    many rays a, its generalized eigenvalues, and a product ensemble of rho
    can only use the products found there. Rays with no drop or a continuum
    of products are skipped, and near-duplicate rows may repeat. None for
    other shapes and ranks.
    """
    if len(dims) != 2 or 2 not in dims or k > max(dims):
        return None
    q = dims.index(2)
    mats = v[:, k:].conj().T.reshape(-1, *dims)
    if q == 1:
        mats = mats.transpose(0, 2, 1)
    k0, k1 = mats[:, 0, :], mats[:, 1, :]
    products = []
    for a in _pencil_drops(k0, k1, tol)[1]:
        _, s, vh = core._svd(a[0] * k0 + a[1] * k1)
        if weight_rank(s**2, tol) != s.size - 1:
            continue  # no rank drop, or a continuum of products at this a
        b = vh[-1].conj()
        products.append(np.kron(a, b) if q == 0 else np.kron(b, a))
    return np.array(products).reshape(-1, v.shape[0])


def _max_concurrence_directions(basis: np.ndarray) -> np.ndarray:
    """Per range of the stack, the unit u maximizing the concurrence |u^T A u| of basis @ u.

    ``basis`` stacks n x 4 x k matrices with orthonormal columns and
    A = basis^T (sigma_y (x) sigma_y) basis. For complex symmetric A the
    maximum over unit u is A's top Takagi value (Wootters, PRL 80, 2245;
    Uhlmann, PRA 62, 032307). With u = x + iy it is the top eigenvalue of the
    real symmetric [[Re A, -Im A], [-Im A, -Re A]], whose eigenvector (x, y)
    attains it even when that eigenvalue is degenerate. One ``eigh`` serves
    the stack.
    """
    a = basis.swapaxes(-1, -2) @ _SPIN_FLIP @ basis
    k = a.shape[-1]
    block = np.concatenate(
        [
            np.concatenate([a.real, -a.imag], axis=-1),
            np.concatenate([-a.imag, -a.real], axis=-1),
        ],
        axis=-2,
    )
    top = core._eigh(block)[1][..., -1]
    return top[..., :k] + 1j * top[..., k:]
