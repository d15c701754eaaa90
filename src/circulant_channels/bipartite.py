"""Local action of the cyclic averaging channel on bipartite operators,
partial-transpose positivity reports, and entanglement-erasure sampling.

Composite indices are A-major: basis vector (i, p) sits at i * dB + p.  A
local channel never forms a Kraus operator: on the (dA, dB, dA, dB) reshape
of X, conjugation by P^r (x) P^s shifts the A index pair by r and the B
index pair by s, so each side is one weighted index-shift sum.

Because the averaging channel is entanglement breaking, applying it to one
side of any state yields a PPT state; at 2 (x) 2 and 2 (x) 3 the PPT test is
decisive, so entanglement is genuinely erased there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, linalg


class EntangledSamplingError(RuntimeError):
    """Rejection sampling failed to find an entangled state within budget."""


def basis_image(i: int, j: int, d: int) -> np.ndarray:
    """Uniform-channel image of the matrix unit |i><j|, indices 1-based.

    Equals the cyclic shift to the power (j - i) mod d, divided by d; in
    particular every |i><i| maps to the maximally mixed state.
    """
    d = linalg._check_dim(d)
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"indices must lie in 1..{d}, got ({i}, {j})")
    return linalg.cyclic_shift(d, (j - i) % d) / d


def apply_uniform_A(x, dims) -> np.ndarray:
    """Averaging channel on subsystem A, identity on B."""
    x, da, _ = linalg.as_bipartite(x, dims)
    return apply_weighted(x, dims, weights_a=channels.uniform_weights(da))


def apply_uniform_AB(x, dims) -> np.ndarray:
    """Averaging channel on both subsystems."""
    x, da, db = linalg.as_bipartite(x, dims)
    return apply_weighted(x, dims, channels.uniform_weights(da), channels.uniform_weights(db))


def apply_weighted(x, dims, weights_a=None, weights_b=None) -> np.ndarray:
    """Weighted cyclic channels on each subsystem, as index shifts.

    ``None`` leaves that side untouched and returns a copy when both are
    None.  The Kraus operator P^r (x) P^s shifts the A index pair by r and
    the B index pair by s, so each side is one :func:`linalg.shift_average`
    call on the (dA, dB, dA, dB) reshape: axes (0, 2) for A, (1, 3) for B.
    """
    x, da, db = linalg.as_bipartite(x, dims)
    if weights_a is None and weights_b is None:
        return x.copy()
    out = x.reshape(da, db, da, db)
    for weights, d, axes in ((weights_a, da, (0, 2)), (weights_b, db, (1, 3))):
        if weights is None:
            continue
        lam = channels.as_weights(weights)
        if lam.size != d:
            raise ValueError(f"weight count {lam.size} does not match dimension {d}")
        out = linalg.shift_average(out, lam, axes, -1)
    return out.reshape(x.shape)


def is_block_circulant(x, dims, tol: float = 1e-10, circulant_blocks: bool = False) -> bool:
    """True when block (i, j) depends only on (j - i) mod dA.

    With ``circulant_blocks`` each block must additionally be circulant
    itself, the structure produced by averaging on both subsystems.
    """
    x, da, db = linalg.as_bipartite(x, dims)
    ref = [x[0:db, k * db : (k + 1) * db] for k in range(da)]
    for i in range(da):
        for j in range(da):
            block = x[i * db : (i + 1) * db, j * db : (j + 1) * db]
            if np.max(np.abs(block - ref[(j - i) % da])) > tol:
                return False
    if circulant_blocks:
        return all(linalg.is_circulant(b, tol) for b in ref)
    return True


@dataclass(frozen=True)
class PptReport:
    """Spectrum of a partial transpose and the resulting PPT verdict."""

    min_eigenvalue: float
    is_ppt: bool
    spectrum: np.ndarray
    subsystem: int


def ppt_check(x, dims, tol: float = 1e-10, subsystem: int = 0) -> PptReport:
    """Eigenvalues of the partial transpose; PPT iff the minimum >= -tol.

    The input must be Hermitian (its partial transpose then is too).  At
    2 (x) 2 and 2 (x) 3 a failing check certifies entanglement and a passing
    one certifies separability.
    """
    x, da, db = linalg.as_bipartite(x, dims)
    spectrum = linalg.hermitian_spectrum(linalg.partial_transpose(x, (da, db), subsystem))
    lo = float(spectrum[0])
    return PptReport(
        min_eigenvalue=lo,
        is_ppt=bool(lo >= -tol),
        spectrum=spectrum,
        subsystem=subsystem,
    )


def pt_invariance_check(x, dims, tol: float = 1e-12) -> bool:
    """dA = 2 only: the A-side image equals its own partial transpose on A.

    Both Kraus operators (identity and the qubit flip) are symmetric, so
    transposing the A factor of the image changes nothing, for any input.
    """
    x, da, db = linalg.as_bipartite(x, dims)
    if da != 2:
        raise ValueError(f"partial-transpose invariance needs dA = 2, got {da}")
    y = apply_uniform_A(x, (da, db))
    return bool(np.max(np.abs(linalg.partial_transpose(y, (da, db), 0) - y)) <= tol)


def random_entangled_state(
    da: int, db: int, seed=None, tol: float = 1e-10, max_tries: int = 10000
) -> np.ndarray:
    """Rejection-sample Gaussian-induced states until one fails the PPT test.

    A failing partial transpose witnesses entanglement at any dimension
    pair.  Deterministic given the seed; raises
    :class:`EntangledSamplingError` if the budget runs out.
    """
    da, db = linalg._check_dim(da), linalg._check_dim(db)
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        rho = linalg.random_density_matrix(da * db, rng)
        if not ppt_check(rho, (da, db), tol=tol).is_ppt:
            return rho
    raise EntangledSamplingError(
        f"no entangled state found at {da} x {db} in {max_tries} draws"
    )
