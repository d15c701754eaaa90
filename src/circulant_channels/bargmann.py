"""Cyclic Bargmann invariants of pure-state tuples and their
canonicalization to tuples with circulant Gram matrices.

The invariant of an n-tuple of unit vectors is the cyclic product of
consecutive inner products <psi_0|psi_1> <psi_1|psi_2> ... <psi_{n-1}|psi_0>,
equivalently the trace of the product of the n rank-one projectors.  It is
unchanged by per-vector phases and by a common unitary.

Canonicalization runs in two steps.  First each vector is rephased so every
consecutive inner product carries the same argument theta/n, where theta is
the argument of the invariant in [0, 2pi).  Second the Gram matrix of the
rephased tuple is averaged over cyclic shifts (the uniform channel at
dimension n) and refactored into unit vectors by eigendecomposition.  The
canonical tuple has all consecutive inner products equal to the mean factor
modulus times e^{i theta / n}, so its invariant keeps the original argument
while its modulus grows to (mean of moduli)^n >= (product of moduli), the
arithmetic-geometric mean inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, linalg

_TWO_PI = 2.0 * np.pi


class DegenerateInvariantError(ValueError):
    """A consecutive inner product vanishes, so the invariant carries no phase."""


def as_state_tuple(states) -> np.ndarray:
    """Coerce to an (n, d) complex array of unit row vectors."""
    psi = np.asarray(states, dtype=complex)
    if psi.ndim != 2 or psi.shape[0] < 1 or psi.shape[1] < 1:
        raise ValueError(f"expected an (n, d) array of state vectors, got shape {psi.shape}")
    norms = np.linalg.norm(psi, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > 1e-10:
        raise ValueError(f"state vectors must be unit norm (worst deviation {worst:.3e})")
    return psi


def gram(states) -> np.ndarray:
    """Gram matrix G[i, j] = <psi_i|psi_j>; Hermitian, PSD, unit diagonal."""
    psi = as_state_tuple(states)
    return psi.conj() @ psi.T


def _validated_gram(g) -> np.ndarray:
    g = linalg.as_square_matrix(g)
    if float(np.max(np.abs(g - g.conj().T))) > 1e-10:
        raise ValueError("Gram matrix must be Hermitian")
    if float(np.max(np.abs(np.diag(g) - 1.0))) > 1e-8:
        raise ValueError("Gram matrix must have unit diagonal")
    if float(np.linalg.eigvalsh(g)[0]) < -1e-10:
        raise ValueError("Gram matrix must be positive semidefinite")
    return g


def _consecutive_products(psi: np.ndarray) -> np.ndarray:
    n = psi.shape[0]
    return np.array([np.vdot(psi[k], psi[(k + 1) % n]) for k in range(n)])


def bargmann_invariant(states) -> complex:
    """Cyclic product of consecutive inner products of the tuple."""
    psi = as_state_tuple(states)
    return complex(np.prod(_consecutive_products(psi)))


def bargmann_from_gram(g) -> complex:
    """The same invariant read off a Gram matrix: prod_k G[k, (k+1) % n]."""
    g = _validated_gram(g)
    n = g.shape[0]
    return complex(np.prod([g[k, (k + 1) % n] for k in range(n)]))


def _degenerate_message(factors: np.ndarray) -> str:
    k = int(np.argmin(np.abs(factors)))
    n = factors.size
    return (
        f"invariant vanishes: inner product between states {k} and {(k + 1) % n} "
        f"has magnitude {abs(factors[k]):.3e}"
    )


def phase_align(states) -> np.ndarray:
    """Rephase each vector so consecutive inner products share one argument.

    With theta the invariant's argument in [0, 2pi), the returned tuple has
    arg<psi_k|psi_{k+1}> = theta/n for every k including the wrap-around
    pair; the phases come from accumulating theta/n - arg(g_k) along the
    cycle starting at zero.  The invariant itself is unchanged.
    """
    psi = as_state_tuple(states)
    n = psi.shape[0]
    factors = _consecutive_products(psi)
    inv = complex(np.prod(factors))
    if abs(inv) <= 1e-12:
        raise DegenerateInvariantError(_degenerate_message(factors))
    theta = float(np.angle(inv)) % _TWO_PI
    args = np.angle(factors) % _TWO_PI
    alphas = np.zeros(n)
    for k in range(n - 1):
        alphas[k + 1] = alphas[k] + theta / n - args[k]
    return np.exp(1j * alphas)[:, None] * psi


def circulantize_gram(g) -> np.ndarray:
    """Average a Gram matrix over cyclic shifts.

    The output is circulant with unit diagonal and stays positive
    semidefinite because the averaging map is completely positive.
    """
    return channels.apply_uniform(_validated_gram(g))


def vectors_from_gram(g, rank_tol: float = 1e-10) -> np.ndarray:
    """Unit vectors realizing a PSD unit-diagonal Gram matrix.

    Eigendecomposes G, keeps eigenvalues above rank_tol, and returns an
    (n, r) array whose rows reproduce G as their Gram matrix; r is the
    numerical rank.  Dropping the small eigenvalues moves each row's squared
    length off one by up to n * rank_tol, so the rows are renormalized.
    """
    g = _validated_gram(g)
    lam, u = np.linalg.eigh(g)
    keep = lam > rank_tol
    if not np.any(keep):
        raise ValueError("Gram matrix has no eigenvalue above the rank tolerance")
    psi = u[:, keep].conj() * np.sqrt(lam[keep])
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


@dataclass(frozen=True)
class CanonicalizationReport:
    """What canonicalization did to the invariant.

    ``common_inner_product`` is the shared value of the canonical tuple's
    consecutive inner products; ``arg_match`` records that the invariant's
    argument survived, ``modulus_bound_holds`` that its modulus did not
    decrease.
    """

    original_invariant: complex
    canonical_invariant: complex
    common_inner_product: complex
    arg_match: bool
    modulus_bound_holds: bool


def _wrapped_angle_diff(a: float, b: float) -> float:
    d = (a - b) % _TWO_PI
    return min(d, _TWO_PI - d)


def canonicalize(
    states, arg_tol: float = 1e-8, modulus_tol: float = 1e-10
) -> tuple[np.ndarray, CanonicalizationReport]:
    """Phase-align, circulantize the Gram matrix, and refactor into vectors.

    Returns the canonical tuple together with a report.  Raises
    :class:`DegenerateInvariantError` when the invariant vanishes, naming
    the offending consecutive pair.
    """
    psi = as_state_tuple(states)
    n = psi.shape[0]
    original = bargmann_invariant(psi)
    aligned = phase_align(psi)
    canon = vectors_from_gram(circulantize_gram(gram(aligned)))
    canonical = bargmann_invariant(canon)
    common = complex(np.mean(_consecutive_products(canon)))
    arg_match = _wrapped_angle_diff(np.angle(canonical), np.angle(original)) <= arg_tol
    modulus_ok = abs(original) <= abs(canonical) + modulus_tol
    report = CanonicalizationReport(
        original_invariant=original,
        canonical_invariant=canonical,
        common_inner_product=common,
        arg_match=bool(arg_match),
        modulus_bound_holds=bool(modulus_ok),
    )
    return canon, report


def rescale_ratio(states) -> float:
    """Ratio prod(r_k) / mean(r_k)^n of factor moduli, in (0, 1].

    Multiplying the canonical invariant by this ratio recovers the original
    invariant, since canonicalization preserves the argument and replaces
    the modulus prod(r_k) by mean(r_k)^n.
    """
    psi = as_state_tuple(states)
    factors = _consecutive_products(psi)
    if abs(np.prod(factors)) <= 1e-12:
        raise DegenerateInvariantError(_degenerate_message(factors))
    r = np.abs(factors)
    return float(np.prod(r) / np.mean(r) ** r.size)
