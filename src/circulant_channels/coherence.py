"""Off-diagonal coherence measures and the channel lower-bound chain.

The l1 measure sums the magnitudes of a density matrix's off-diagonal
entries; the l2 measure sums their squares.  Averaging over cyclic shifts
can only shrink either measure, and averaging over all permutations shrinks
it at least as much again, so for every state

    C(rho) >= C(cyclic average of rho) >= C(permutation average of rho)

and the two image values are cheap lower bounds computable from row sums.
For qutrits everything is also available in closed form through the
Gell-Mann Bloch parameterization, including a one-parameter pure-state
family whose sweep traces the three curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, linalg

_SQRT3 = np.sqrt(3.0)


def validate_density_matrix(rho, tol: float = 1e-10) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity within tol; return rho."""
    rho = linalg.as_square_matrix(rho)
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix entries must be finite")
    dev = float(np.max(np.abs(rho - rho.conj().T)))
    if dev > tol:
        raise ValueError(f"density matrix is not Hermitian (deviation {dev:.3e})")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density matrix must have unit trace, got {tr!r}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    return rho


def _offdiag(rho: np.ndarray) -> np.ndarray:
    return rho[~np.eye(rho.shape[0], dtype=bool)]


def l1_coherence(rho) -> float:
    """Sum of |rho_ij| over i != j."""
    rho = validate_density_matrix(rho)
    return float(np.sum(np.abs(_offdiag(rho))))


def l2_coherence(rho) -> float:
    """Sum of |rho_ij|^2 over i != j (no square root)."""
    rho = validate_density_matrix(rho)
    return float(np.sum(np.abs(_offdiag(rho)) ** 2))


def is_incoherent(rho, tol: float = 1e-10) -> bool:
    """True when every off-diagonal entry is at most tol in magnitude."""
    rho = validate_density_matrix(rho)
    if rho.shape[0] == 1:
        return True
    return bool(np.max(np.abs(_offdiag(rho))) <= tol)


@dataclass(frozen=True)
class CoherenceReport:
    """Coherence of a state and of its two averaged images.

    The three values are decreasing: c_rho >= c_phi >= c_delta, where c_phi
    belongs to the cyclic average and c_delta to the full permutation
    average of the same state.
    """

    p: int
    c_rho: float
    c_phi: float
    c_delta: float


def coherence_report(rho, p: int = 1) -> CoherenceReport:
    """Evaluate the coherence chain for one state with the l_p measure."""
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p!r}")
    rho = validate_density_matrix(rho)
    measure = l1_coherence if p == 1 else l2_coherence
    return CoherenceReport(
        p=p,
        c_rho=measure(rho),
        c_phi=measure(channels.apply_uniform(rho)),
        c_delta=measure(channels.apply_mixed_permutation(rho)),
    )


def _gell_mann() -> list[np.ndarray]:
    g1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    g2 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
    g3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    g4 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    g5 = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
    g6 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    g7 = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
    g8 = np.diag([1.0, 1.0, -2.0]).astype(complex) / _SQRT3
    return [g1, g2, g3, g4, g5, g6, g7, g8]


_GELL_MANN = np.array(_gell_mann())


def gell_mann_basis() -> list[np.ndarray]:
    """The eight Gell-Mann matrices, Hermitian, traceless, Tr(Ga Gb) = 2 d_ab."""
    return [g.copy() for g in _GELL_MANN]


def qutrit_from_bloch(r) -> np.ndarray:
    """Qutrit matrix (I + sqrt(3) sum_a r[a] G_a) / 3 from 8 real components.

    No positivity check is made; not every r in R^8 is a state.
    """
    r = np.asarray(r, dtype=float).ravel()
    if r.size != 8:
        raise ValueError(f"Bloch vector must have 8 components, got {r.size}")
    return (np.eye(3) + _SQRT3 * np.tensordot(r, _GELL_MANN, axes=1)) / 3.0


def bloch_from_qutrit(rho) -> np.ndarray:
    """Components r[a] = (sqrt(3)/2) Tr(rho G_a) of a Hermitian 3x3 matrix."""
    rho = linalg.as_square_matrix(rho)
    if rho.shape[0] != 3:
        raise ValueError(f"expected a 3x3 matrix, got shape {rho.shape}")
    dev = float(np.max(np.abs(rho - rho.conj().T)))
    if dev > 1e-10 * (1.0 + float(np.max(np.abs(rho)))):
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return np.array([(_SQRT3 / 2.0) * np.trace(rho @ g).real for g in _GELL_MANN])


def circulant_image_bloch(r) -> np.ndarray:
    """Bloch vector of the cyclic average, directly from Bloch components.

    With s = r1 + r4 + r6 and t = r2 - r5 + r7 (1-based labels), the image
    vector is (s, t, 0, s, -t, s, t, 0) / 3; both diagonal components die.
    """
    r = np.asarray(r, dtype=float).ravel()
    if r.size != 8:
        raise ValueError(f"Bloch vector must have 8 components, got {r.size}")
    s = r[0] + r[3] + r[5]
    t = r[1] - r[4] + r[6]
    return np.array([s, t, 0.0, s, -t, s, t, 0.0]) / 3.0


def sweep_state(theta: float, phi: float) -> np.ndarray:
    """Unit qutrit vector (cos th, sin th e^{i phi} / sqrt2, sin th / sqrt2)."""
    s = np.sin(theta) / np.sqrt(2.0)
    return np.array([np.cos(theta), s * np.exp(1j * phi), s])


def coherence_sweep(phi: float, thetas, p: int = 1) -> np.ndarray:
    """Closed-form coherence chain along the swept pure-state family.

    Returns one row (theta, c_rho, c_phi, c_delta) per grid point, computed
    from the Bloch components:

        p = 1:  c_rho   = (2/sqrt3) (|r12| + |r45| + |r67|)   (pair moduli)
                c_phi   = (2/sqrt3) sqrt(s^2 + t^2)
                c_delta = (2/sqrt3) |s|
        p = 2:  c_rho   = (2/3) (r1^2 + r2^2 + r4^2 + r5^2 + r6^2 + r7^2)
                c_phi   = (2/9) (s^2 + t^2)
                c_delta = (2/9) s^2

    These agree with the generic coherence_report of the same states to
    machine precision; the absolute value in the p = 1 permutation-average
    term keeps the measure nonnegative on the half of the sweep where s
    goes negative.
    """
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p!r}")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float)).ravel()
    if thetas.size == 0:
        raise ValueError("theta grid must be nonempty")
    # one row of psi per grid point; r[a] = (sqrt3/2) <psi|G_a|psi> over the grid
    psi = sweep_state(thetas, phi).T
    r = (_SQRT3 / 2.0) * np.einsum("ni,aij,nj->an", psi.conj(), _GELL_MANN, psi).real
    s = r[0] + r[3] + r[5]
    t = r[1] - r[4] + r[6]
    if p == 1:
        c_rho = (2.0 / _SQRT3) * (
            np.hypot(r[0], r[1]) + np.hypot(r[3], r[4]) + np.hypot(r[5], r[6])
        )
        c_phi = (2.0 / _SQRT3) * np.hypot(s, t)
        c_delta = (2.0 / _SQRT3) * np.abs(s)
    else:
        c_rho = (2.0 / 3.0) * (
            r[0] ** 2 + r[1] ** 2 + r[3] ** 2 + r[4] ** 2 + r[5] ** 2 + r[6] ** 2
        )
        c_phi = (2.0 / 9.0) * (s**2 + t**2)
        c_delta = (2.0 / 9.0) * s**2
    return np.column_stack((thetas, c_rho, c_phi, c_delta))
