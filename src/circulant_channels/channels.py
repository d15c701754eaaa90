"""Weighted cyclic-conjugation channels built on powers of one cyclic shift.

A length-d probability vector ``lam`` defines the completely positive,
trace-preserving, unital map

    X  ->  sum_k lam[k] * P^k @ X @ P^-k,        P = cyclic_shift(d, 1).

Uniform weights give the averaging channel: it projects every matrix onto
the circulant matrices, is idempotent, and is the only member of the family
whose Choi matrix stays positive under partial transposition, so uniformity
and entanglement breaking coincide.  The module also provides the image
under conjugation averaged over all d! permutation matrices, in closed
form; that coarser average reappears in the coherence bounds.

Every apply is a weighted sum of index shifts (:func:`linalg.shift_average`)
and every spectrum a closed form in the weights' Fourier coefficients; the
dense natural representation, Choi matrix and trace formula are references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg


def uniform_weights(d: int) -> np.ndarray:
    """The uniform probability vector (1/d, ..., 1/d)."""
    d = linalg._check_dim(d)
    return np.full(d, 1.0 / d)


def as_weights(weights) -> np.ndarray:
    """Validate a channel weight vector and return a renormalized copy.

    Entries must be real, finite, nonnegative within 1e-12, and sum to one
    within 1e-12; tiny negatives are clipped and the result is divided by
    its exact sum so downstream code can rely on sum(lam) == 1.
    """
    lam = np.asarray(weights, dtype=float).ravel()
    if lam.size < 1:
        raise ValueError("weight vector must be nonempty")
    if not np.all(np.isfinite(lam)):
        raise ValueError("weights must be finite")
    if lam.min() < -1e-12:
        raise ValueError(f"weights must be nonnegative, got minimum {lam.min():.3e}")
    s = lam.sum()
    if abs(s - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to one, got {s!r}")
    lam = np.clip(lam, 0.0, None)
    return lam / lam.sum()


def _square_input(weights, x) -> tuple[np.ndarray, np.ndarray, int]:
    lam = as_weights(weights)
    x = linalg.as_square_matrix(x)
    if x.shape[0] != lam.size:
        raise ValueError(
            f"matrix dimension {x.shape[0]} does not match weight count {lam.size}"
        )
    return lam, x, lam.size


def apply_kraus(weights, x) -> np.ndarray:
    """Channel image sum_k lam[k] P^k X P^-k, as index shifts of X.

    Entry (a, b) of each Kraus term is X[a + k, b + k], so the sum costs
    O(nnz(lam) d^2) and never forms a shift matrix.
    """
    lam, x, _ = _square_input(weights, x)
    return linalg.shift_average(x, lam, (0, 1), -1)


def apply_closed_form(weights, x) -> np.ndarray:
    """Channel image assembled entrywise from the trace formula.

    Entry (a, b) of the image is Tr(P^-b @ diag(lam) @ P^a @ X).  This is an
    independent evaluation route from :func:`apply_kraus` and the two agree
    to machine precision.
    """
    lam, x, d = _square_input(weights, x)
    lam_diag = np.diag(lam).astype(complex)
    powers = [linalg.cyclic_shift(d, k) for k in range(d)]
    out = np.empty((d, d), dtype=complex)
    for a in range(d):
        left = lam_diag @ powers[a] @ x
        for b in range(d):
            out[a, b] = np.trace(powers[b].conj().T @ left)
    return out


def image_coeffs(x) -> np.ndarray:
    """Circulant coefficients c[k] = Tr(P^-k @ X) / d of the uniform image.

    Tr(P^-k @ X) is the sum of the k-th cyclic diagonal X[i, (i + k) % d],
    so c is the vector of cyclic-diagonal means.

    For a density matrix c[0] == 1/d, and for Hermitian X the coefficients
    pair up as c[r] == conj(c[d - r]).
    """
    x = linalg.as_square_matrix(x)
    d = x.shape[0]
    i, k = np.ogrid[:d, :d]
    return x[i, (i + k) % d].mean(axis=0)


def apply_uniform(x) -> np.ndarray:
    """Project X onto circulant matrices: the uniform-weight channel image.

    Diagonal inputs collapse to Tr(X)/d times the identity, circulant inputs
    are fixed, and applying the map twice changes nothing.
    """
    return linalg.circulant(image_coeffs(x))


def apply_adjoint(weights, x) -> np.ndarray:
    """Adjoint map sum_k lam[k] P^-k X P^k (Heisenberg picture).

    Satisfies <X, channel(Y)> == <adjoint(X), Y> in the Hilbert-Schmidt
    inner product.  It differs from the channel itself whenever the weights
    are asymmetric under k -> d - k; uniform weights are symmetric, so the
    averaging channel is its own adjoint.
    """
    lam, x, _ = _square_input(weights, x)
    return linalg.shift_average(x, lam, (0, 1), +1)


def apply_mixed_permutation(x) -> np.ndarray:
    """Average of conjugations by all d! permutation matrices, closed form.

    The image has every diagonal entry equal to Tr(X)/d and every
    off-diagonal entry equal to the off-diagonal sum of X divided by
    d(d - 1).  At d = 2 this coincides with the uniform cyclic average.
    """
    x = linalg.as_square_matrix(x)
    d = x.shape[0]
    diag = np.trace(x) / d
    if d == 1:
        return np.array([[diag]], dtype=complex)
    off = (x.sum() - np.trace(x)) / (d * (d - 1))
    out = np.full((d, d), off, dtype=complex)
    np.fill_diagonal(out, diag)
    return out


def natural_representation(weights) -> np.ndarray:
    """Matrix K = sum_k lam[k] P^k (x) P^k acting on row-major vec.

    K @ vec(X) == vec(channel(X)); the conjugate on the right factor is
    absent because the shift is real.
    """
    lam = as_weights(weights)
    d = lam.size
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        if lam[k] == 0.0:
            continue
        p = linalg.cyclic_shift(d, k)
        out += lam[k] * linalg.kron(p, p)
    return out


@dataclass(frozen=True)
class ChannelSpectrumReport:
    """Eigenvalues of the natural representation plus tolerance counts.

    ``eigenvalues`` is the full complex multiset (d^2 values, sorted by real
    then imaginary part).  The two counts tally eigenvalues within ``tol``
    of 1 and of 0; for uniform weights they are exhaustive (d ones and
    d^2 - d zeros), for general weights they are just counts.
    """

    eigenvalues: np.ndarray
    multiplicity_of_one: int
    multiplicity_of_zero: int


def channel_spectrum(weights, tol: float = 1e-8) -> ChannelSpectrumReport:
    """Spectrum report of the natural representation of the channel.

    K is a polynomial in P (x) P, which the DFT diagonalizes: its eigenvalues
    are d * alpha[m] from :func:`weight_fourier_coeffs`, each d times.
    """
    alpha = weight_fourier_coeffs(weights)
    eig = np.repeat(alpha.size * alpha, alpha.size)
    eig = eig[np.lexsort((eig.imag, eig.real))]
    return ChannelSpectrumReport(
        eigenvalues=eig,
        multiplicity_of_one=int(np.sum(np.abs(eig - 1.0) <= tol)),
        multiplicity_of_zero=int(np.sum(np.abs(eig) <= tol)),
    )


def choi(weights) -> np.ndarray:
    """Choi matrix sum_k lam[k] vec(P^k) vec(P^k)^dag.

    Positive semidefinite with trace d, on the composite space with A-major
    indexing; equals the channel applied to one half of the unnormalized
    maximally entangled projector vec(I) vec(I)^dag.
    """
    lam = as_weights(weights)
    d = lam.size
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        if lam[k] == 0.0:
            continue
        v = linalg.vec(linalg.cyclic_shift(d, k))
        out += lam[k] * np.outer(v, v.conj())
    return out


def weight_fourier_coeffs(weights) -> np.ndarray:
    """Scaled DFT of the weights: alpha[m] = (1/d) sum_k lam[k] w^{k m}.

    alpha[0] is always 1/d; every other coefficient vanishes exactly when
    the weights are uniform, which is what drives the entanglement-breaking
    classification.
    """
    return np.fft.ifft(as_weights(weights))


def choi_pt_spectrum(weights) -> np.ndarray:
    """Ascending spectrum of the partial transpose of the Choi state.

    The Choi matrix is normalized to unit trace before transposing the B
    factor, so uniform weights give the multiset {1/d x d, 0 x (d^2 - d)}
    and any non-uniform weight vector produces a negative eigenvalue.

    The partial transpose is (1/d) sum_k lam[k] (P^k (x) P^-k) SWAP.  In the
    Fourier product basis |f_i, f_j> it is block diagonal: alpha[0] on each
    of the d states |f_i, f_i>, and on each pair {|f_i, f_j>, |f_j, f_i>}
    with i < j a 2 x 2 block with eigenvalues +-|alpha[(i - j) % d]|.
    """
    alpha = weight_fourier_coeffs(weights)
    d = alpha.size
    i, j = np.triu_indices(d, 1)
    pair = np.abs(alpha[(i - j) % d])
    return np.sort(np.concatenate([np.full(d, alpha[0].real), pair, -pair]))


def is_entanglement_breaking(weights, tol: float = 1e-10) -> bool:
    """True when every nonzero-frequency Fourier coefficient is below tol.

    Equivalent to the partial transpose of the Choi state being positive
    semidefinite, and both hold exactly for uniform weights.
    """
    alpha = weight_fourier_coeffs(weights)
    return bool(np.max(np.abs(alpha[1:]), initial=0.0) <= tol)


def choi_separable_form(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Local unitary and diagonal core reconstructing the uniform Choi matrix.

    Returns (L, C) with L = F (x) conj(F) for the DFT matrix F and
    C = sum_i |ii><ii|, such that L @ C @ L^dag equals choi(uniform).  The
    core is a sum of product projectors, exhibiting separability directly.
    """
    d = linalg._check_dim(d)
    f = linalg.dft_matrix(d)
    local = linalg.kron(f, f.conj())
    core = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        core[i * d + i, i * d + i] = 1.0
    return local, core
