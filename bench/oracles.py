"""Independent oracles for the benchmark's correctness checks.

Nothing here imports circulant_channels: every expected value comes from
index arithmetic, the FFT or a dense eigensolver on a matrix built here, so
an oracle never shares a route with the code it checks.  The eigensolvers
are bound at import time, before the traced run swaps the attributes of
``numpy.linalg``, so oracle work is never counted against the package.

Tolerances scale with the dimension and with the size of the inputs; a
verdict flag is compared with the maths only where the maths decides it by
a margin wider than the flag's own tolerance.
"""

from __future__ import annotations

import numpy as np

_eigvalsh = np.linalg.eigvalsh
EPS = float(np.finfo(float).eps)


def tol(n: int, scale: float = 1.0, k: float = 64.0) -> float:
    """k * n * eps, times the input scale when it exceeds one."""
    return k * n * EPS * max(1.0, float(scale))


def close(a, b, atol: float) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol))


def normalized(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


# ----------------------------------------------------------------- channels


def channel_image(lam, x, adjoint: bool = False) -> np.ndarray:
    """sum_k lam[k] P^k X P^-k entrywise: entry (a, b) is X[a + k, b + k]."""
    sign = 1 if adjoint else -1
    out = np.zeros(x.shape, dtype=complex)
    for k, w in enumerate(lam):
        if w:
            out += w * np.roll(x, (sign * k, sign * k), axis=(0, 1))
    return out


def uniform_image(x) -> np.ndarray:
    """Circulant projection: entry (i, j) is the mean of X along the cyclic
    diagonal (j - i) mod d."""
    d = x.shape[0]
    idx = np.arange(d)
    coeffs = np.array([x[idx, (idx + k) % d].mean() for k in range(d)])
    return coeffs[(idx[None, :] - idx[:, None]) % d]


def mixed_permutation_image(x) -> np.ndarray:
    d = x.shape[0]
    tr = np.trace(x)
    if d == 1:
        return np.array([[tr]], dtype=complex)
    out = np.full((d, d), (x.sum() - tr) / (d * (d - 1)), dtype=complex)
    np.fill_diagonal(out, tr / d)
    return out


def fourier_coeffs(lam) -> np.ndarray:
    """alpha[m] = (1/d) sum_k lam[k] exp(2 pi i k m / d)."""
    return np.fft.ifft(np.asarray(lam, dtype=float))


def natural_spectrum_ok(eigenvalues, lam) -> tuple[bool, float]:
    """Spectrum of sum_k lam[k] P^k (x) P^k is {d alpha[m]}, each d times.

    Every computed eigenvalue must lie near a predicted one, and the count
    near each predicted value must equal its predicted multiplicity.
    Returns the verdict and the tolerance used.
    """
    d = len(lam)
    predicted = d * fourier_coeffs(lam)
    e = np.asarray(eigenvalues)
    atol = tol(d * d, k=256.0)
    if e.size != d * d:
        return False, atol
    near = np.abs(e[:, None] - predicted[None, :]) <= atol
    if not near.any(axis=1).all():
        return False, atol
    same = np.abs(predicted[:, None] - predicted[None, :]) <= atol
    ok = np.array_equal(near.sum(axis=0), d * same.sum(axis=1))
    return bool(ok), atol


def count_near(values, target: float, radius: float) -> int | None:
    """How many predicted values lie within radius of target, or None when
    some value sits too close to the radius for the count to be decided."""
    dist = np.abs(np.asarray(values) - target)
    if np.any((dist > radius / 10) & (dist < radius * 10)):
        return None
    return int(np.sum(dist <= radius))


def choi_pt_spectrum(lam) -> np.ndarray:
    """Partial transpose of the unit-trace Choi state: alpha[0] d times, and
    +-|alpha[(i - j) mod d]| for each pair i < j; ascending."""
    d = len(lam)
    alpha = fourier_coeffs(lam)
    i, j = np.triu_indices(d, 1)
    mags = np.abs(alpha[(i - j) % d])
    return np.sort(np.concatenate([np.full(d, alpha[0].real), mags, -mags]))


def entanglement_breaking(lam, flag_tol: float) -> bool | None:
    """True for exactly uniform weights, False when some nonzero frequency
    exceeds ten times the flag tolerance, None in between."""
    lam = np.asarray(lam, dtype=float)
    if np.all(lam == lam[0]):
        return True
    if np.max(np.abs(fourier_coeffs(lam)[1:]), initial=0.0) > 10 * flag_tol:
        return False
    return None


# ---------------------------------------------------------------- coherence


def l_coherence(rho, p: int) -> float:
    off = np.abs(rho[~np.eye(rho.shape[0], dtype=bool)])
    return float(np.sum(off) if p == 1 else np.sum(off**2))


def coherence_chain(rho, p: int) -> tuple[float, float, float]:
    """(C(rho), C(uniform image), C(permutation image)) by the oracles above."""
    return (
        l_coherence(rho, p),
        l_coherence(uniform_image(rho), p),
        l_coherence(mixed_permutation_image(rho), p),
    )


def sweep_rows(phi: float, thetas, p: int) -> np.ndarray:
    """The coherence chain of each swept qutrit pure state, from the state."""
    rows = []
    for th in np.asarray(thetas, dtype=float):
        s = np.sin(th) / np.sqrt(2.0)
        psi = np.array([np.cos(th), s * np.exp(1j * phi), s])
        rows.append((th, *coherence_chain(np.outer(psi, psi.conj()), p)))
    return np.array(rows)


# ----------------------------------------------------------------- bargmann


def consecutive_overlaps(psi) -> np.ndarray:
    """<psi_k|psi_{k+1}> around the cycle."""
    return np.einsum("ij,ij->i", psi.conj(), np.roll(psi, -1, axis=0))


def wrapped_angle(a: float, b: float) -> float:
    diff = (a - b) % (2 * np.pi)
    return float(min(diff, 2 * np.pi - diff))


# --------------------------------------------------------------- bipartite


def partial_transpose_b(x, da: int, db: int) -> np.ndarray:
    return x.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)


def min_pt_eigenvalue(x, da: int, db: int) -> float:
    return float(_eigvalsh(partial_transpose_b(x, da, db))[0])


def local_image(x, da: int, db: int, lam_a=None, lam_b=None) -> np.ndarray:
    """Weighted cyclic channels on each side by index shifts; None is identity."""
    t = x.reshape(da, db, da, db)
    out = np.zeros_like(t)
    terms_a = [(1.0, 0)] if lam_a is None else [(w, k) for k, w in enumerate(lam_a) if w]
    terms_b = [(1.0, 0)] if lam_b is None else [(w, k) for k, w in enumerate(lam_b) if w]
    for wa, ka in terms_a:
        for wb, kb in terms_b:
            out += wa * wb * np.roll(t, (-ka, -kb, -ka, -kb), axis=(0, 1, 2, 3))
    return out.reshape(x.shape)


def block_circulant(x, da: int, db: int, atol: float) -> bool:
    """Block (i, j) of the A-major block form depends only on (j - i) mod dA."""
    t = x.reshape(da, db, da, db)
    return all(
        close(t, np.roll(t, (k, k), axis=(0, 2)), atol) for k in range(1, da)
    )


# ----------------------------------------------------------------- inputs


def random_state(rng, d: int) -> np.ndarray:
    """Gaussian-induced density matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


WEIGHT_KINDS = ("dirichlet", "sparse", "onehot", "uniform", "near_uniform")


def random_weights(rng, d: int, kind: str) -> np.ndarray:
    """A probability vector of the named kind; near_uniform is uniform moved
    by a log-uniform 1e-9 to 1e-6 and renormalized."""
    if kind == "dirichlet":
        return rng.dirichlet(np.ones(d))
    if kind == "sparse":
        lam = rng.dirichlet(np.ones(d))
        lam[rng.permutation(d)[: d // 2]] = 0.0
        return lam / lam.sum()
    if kind == "onehot":
        lam = np.zeros(d)
        lam[rng.integers(d)] = 1.0
        return lam
    if kind == "uniform":
        return np.full(d, 1.0 / d)
    if kind == "near_uniform":
        step = 10.0 ** rng.uniform(-9, -6)
        lam = np.full(d, 1.0 / d) + step * rng.uniform(-1, 1, d) / d
        return lam / lam.sum()
    raise ValueError(f"unknown weight kind {kind!r}")


def _unit_rows(psi) -> np.ndarray:
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def _gaussian(rng, shape) -> np.ndarray:
    """Complex Gaussian entries with unit mean square modulus."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def state_tuple(rng, n: int, d: int, eps: float) -> np.ndarray:
    """n unit vectors drawn around one common unit vector: each is the
    common vector plus a complex Gaussian perturbation of mean square norm
    eps^2, renormalized."""
    base = _unit_rows(_gaussian(rng, (1, d)))
    return _unit_rows(base + eps * _gaussian(rng, (n, d)) / np.sqrt(d))


def generic_tuple(rng, n: int, d: int) -> np.ndarray:
    """n independent uniformly random unit vectors."""
    return _unit_rows(_gaussian(rng, (n, d)))
