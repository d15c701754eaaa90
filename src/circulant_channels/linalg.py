"""Dense complex-matrix primitives: cyclic shifts, circulant structure, the
discrete Fourier transform, vectorization, and bipartite index operations.

Conventions, fixed here and relied on everywhere else:

* indices are 0-based and cyclic arithmetic means ``(i + k) % d``;
* ``cyclic_shift(d, k)`` has its ones at ``(i, (i + k) % d)``, so powers add,
  the transpose is the inverse shift, and ``cyclic_shift(d, 1)`` at d = 2 is
  the Pauli X matrix;
* ``shift_average(x, w, (0, 1), -1)`` is ``sum_k w[k] P^k @ x @ P^-k`` with
  ``P = cyclic_shift(d, 1)``: entry (a, b) of each term is x[a + k, b + k];
* ``vec`` flattens row-major, which gives the identity
  ``vec(A @ X @ B) == kron(A, B.T) @ vec(X)``;
* a bipartite composite index is A-major: ``(i, p) -> i * dB + p``.
"""

from __future__ import annotations

import math

import numpy as np


def _check_dim(d) -> int:
    if not isinstance(d, (int, np.integer)):
        raise ValueError(f"dimension must be an integer, got {type(d).__name__}")
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    return int(d)


def cyclic_add(i: int, k: int, d: int) -> int:
    """(i + k) mod d."""
    return (i + k) % _check_dim(d)


def cyclic_sub(i: int, k: int, d: int) -> int:
    """(i - k) mod d, the inverse of :func:`cyclic_add` in k."""
    return (i - k) % _check_dim(d)


def as_square_matrix(x) -> np.ndarray:
    """Coerce to a square complex ndarray; reject any other shape."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    return x


def as_bipartite(x, dims) -> tuple[np.ndarray, int, int]:
    """Coerce to a square matrix whose size is the product of ``dims``.

    Returns the matrix together with the validated pair (dA, dB).
    """
    x = as_square_matrix(x)
    try:
        da, db = dims
    except (TypeError, ValueError) as exc:
        raise ValueError("dims must be a pair (dA, dB)") from exc
    da, db = _check_dim(da), _check_dim(db)
    if x.shape[0] != da * db:
        raise ValueError(f"matrix of size {x.shape[0]} does not split as {da} x {db}")
    return x, da, db


def cyclic_shift(d: int, k: int = 1) -> np.ndarray:
    """k-th power of the order-d cyclic shift permutation matrix.

    Entry (i, (i + k) % d) is one.  Any integer k is reduced mod d, so
    ``cyclic_shift(d, -1)`` is the transpose of ``cyclic_shift(d, 1)`` and
    ``cyclic_shift(d, d)`` is the identity.
    """
    d = _check_dim(d)
    return np.roll(np.eye(d, dtype=complex), k % d, axis=1)


def shift_average(x, weights, axes, sign: int) -> np.ndarray:
    """sum_k w[k] * roll(x, sign * k), both ``axes`` together; zero weights skipped.

    On axes (0, 1) with ``sign = -1`` this is sum_k w[k] P^k @ x @ P^-k, and
    ``sign = +1`` gives the inverse conjugation.  Every channel apply goes
    through this function, so it alone fixes the shift-index convention.
    """
    x = np.asarray(x, dtype=complex)
    w = np.asarray(weights).ravel()
    out = np.zeros_like(x)
    for k in np.flatnonzero(w):
        s = sign * int(k)
        out += w[k] * np.roll(x, (s, s), axis=axes)
    return out


def circulant(coeffs) -> np.ndarray:
    """Circulant matrix with first row ``coeffs``.

    Equals ``sum_k coeffs[k] * cyclic_shift(d, k)``; row r is row 0 shifted
    cyclically right by r places.
    """
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size < 1:
        raise ValueError("coefficient vector must be nonempty")
    d = c.size
    idx = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    return c[idx]


def is_circulant(x, tol: float = 1e-10) -> bool:
    """True when every entry (i, j) agrees with entry (0, (j - i) % d)."""
    x = as_square_matrix(x)
    d = x.shape[0]
    idx = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    return bool(np.max(np.abs(x - x[0][idx])) <= tol)


def dft_matrix(d: int) -> np.ndarray:
    """Unitary DFT matrix F[j, k] = exp(2 pi i j k / d) / sqrt(d).

    F diagonalizes the cyclic shift:
    ``F @ phase_diag(d) @ F.conj().T == cyclic_shift(d, 1)``.
    """
    d = _check_dim(d)
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def phase_diag(d: int, k: int = 1) -> np.ndarray:
    """diag(1, w^k, w^2k, ...) with w = exp(2 pi i / d).

    These are the k-th powers of the cyclic shift's eigenvalue phases, so
    ``phase_diag(d, d)`` is the identity again.
    """
    d = _check_dim(d)
    return np.diag(np.exp(2j * np.pi * k * np.arange(d) / d))


def vec(x) -> np.ndarray:
    """Row-major flattening; vec of |i><j| is the basis vector e_i (x) e_j."""
    return np.asarray(x, dtype=complex).reshape(-1)


def unvec(v, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; infers a square shape when none is given."""
    v = np.asarray(v, dtype=complex).ravel()
    if shape is None:
        d = math.isqrt(v.size)
        if d * d != v.size:
            raise ValueError(f"length {v.size} is not a perfect square; pass shape")
        shape = (d, d)
    return v.reshape(shape)


def kron(a, b) -> np.ndarray:
    """Kronecker product with A-major composite indices, as complex arrays."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(x, dims, subsystem: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    ``dims`` is (dA, dB); ``subsystem`` 0 traces out the A factor (result is
    dB x dB), 1 traces out the B factor.
    """
    x, da, db = as_bipartite(x, dims)
    t = x.reshape(da, db, da, db)
    if subsystem == 0:
        return np.einsum("ipiq->pq", t)
    if subsystem == 1:
        return np.einsum("ipjp->ij", t)
    raise ValueError(f"subsystem must be 0 or 1, got {subsystem}")


def partial_transpose(x, dims, subsystem: int) -> np.ndarray:
    """Transpose one tensor factor of a bipartite operator.

    With subsystem 1 the entry ((i, p), (j, q)) of the result is the entry
    ((i, q), (j, p)) of the input; subsystem 0 swaps the A indices instead.
    Applying the same partial transpose twice returns the input.
    """
    x, da, db = as_bipartite(x, dims)
    t = x.reshape(da, db, da, db)
    if subsystem == 0:
        t = t.transpose(2, 1, 0, 3)
    elif subsystem == 1:
        t = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"subsystem must be 0 or 1, got {subsystem}")
    return t.reshape(da * db, da * db)


def hermitian_spectrum(x, tol: float | None = None) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Rejects inputs whose deviation from Hermitian exceeds ``tol`` in max
    norm; the default tolerance is 1e-10 * (1 + max |entry|).
    """
    x = as_square_matrix(x)
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    if tol is None:
        tol = 1e-10 * (1.0 + scale)
    dev = float(np.max(np.abs(x - x.conj().T)))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return np.linalg.eigvalsh(x)


def random_density_matrix(d: int, seed=None) -> np.ndarray:
    """Density matrix G G^dag / Tr(G G^dag) with G complex Gaussian.

    ``seed`` may be an int or a numpy Generator; the same integer seed
    always yields bit-for-bit the same matrix.
    """
    d = _check_dim(d)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g /= np.sqrt(2.0)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
