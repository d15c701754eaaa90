import numpy as np
import pytest

from circulant_channels import bargmann, linalg


def random_tuple(n, d, rng):
    psi = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return psi / np.linalg.norm(psi, axis=1)[:, None]


def test_gram_values():
    assert np.array_equal(bargmann.gram(np.eye(3)), np.eye(3))
    psi = np.ones((4, 1), dtype=complex)
    assert np.array_equal(bargmann.gram(psi), np.ones((4, 4)))
    rng = np.random.default_rng(0)
    psi = random_tuple(4, 3, rng)
    g = bargmann.gram(psi)
    for i in range(4):
        for j in range(4):
            assert abs(g[i, j] - np.vdot(psi[i], psi[j])) < 1e-14
    spec = np.linalg.eigvalsh(g)
    assert spec[0] > -1e-12
    assert np.max(np.abs(np.diag(g) - 1.0)) < 1e-12


def test_state_tuple_validation():
    with pytest.raises(ValueError):
        bargmann.as_state_tuple(np.ones(3))
    with pytest.raises(ValueError):
        bargmann.as_state_tuple(2.0 * np.eye(3))


def test_invariant_values():
    psi = np.tile(np.array([1.0, 0.0], dtype=complex), (3, 1))
    assert abs(bargmann.bargmann_invariant(psi) - 1.0) < 1e-14
    ortho = np.array([[1, 0], [0, 1], [1, 0]], dtype=complex)
    assert bargmann.bargmann_invariant(ortho) == 0.0


def test_invariant_matches_projector_trace():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 5))
        psi = random_tuple(n, d, rng)
        prod = np.eye(d, dtype=complex)
        for k in range(n):
            prod = prod @ np.outer(psi[k], psi[k].conj())
        assert abs(bargmann.bargmann_invariant(psi) - np.trace(prod)) < 1e-12


def test_invariant_symmetries():
    rng = np.random.default_rng(2)
    psi = random_tuple(4, 3, rng)
    base = bargmann.bargmann_invariant(psi)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    assert abs(bargmann.bargmann_invariant(phases[:, None] * psi) - base) < 1e-12
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert abs(bargmann.bargmann_invariant(psi @ q.T) - base) < 1e-12


def test_invariant_from_gram():
    rng = np.random.default_rng(3)
    psi = random_tuple(5, 3, rng)
    lhs = bargmann.bargmann_from_gram(bargmann.gram(psi))
    assert abs(lhs - bargmann.bargmann_invariant(psi)) < 1e-12
    assert bargmann.bargmann_from_gram(np.eye(3)) == 0.0
    assert abs(bargmann.bargmann_from_gram(np.ones((4, 4))) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        bargmann.bargmann_from_gram(np.diag([1.0, 2.0]))


def test_phase_align():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 5))
        psi = random_tuple(n, d, rng)
        inv = bargmann.bargmann_invariant(psi)
        if abs(inv) < 1e-8:
            continue
        theta = np.angle(inv) % (2 * np.pi)
        aligned = bargmann.phase_align(psi)
        assert np.max(np.abs(np.linalg.norm(aligned, axis=1) - 1.0)) < 1e-12
        for k in range(n):
            g = np.vdot(aligned[k], aligned[(k + 1) % n])
            delta = (np.angle(g) - theta / n) % (2 * np.pi)
            assert min(delta, 2 * np.pi - delta) < 1e-10
        assert abs(bargmann.bargmann_invariant(aligned) - inv) < 1e-12


def test_phase_align_rejects_vanishing_invariant():
    ortho = np.array([[1, 0], [0, 1]], dtype=complex)
    with pytest.raises(bargmann.DegenerateInvariantError) as err:
        bargmann.phase_align(ortho)
    assert "states 0 and 1" in str(err.value)


def test_circulantize_gram():
    rng = np.random.default_rng(5)
    psi = random_tuple(5, 4, rng)
    g = bargmann.gram(psi)
    gt = bargmann.circulantize_gram(g)
    assert linalg.is_circulant(gt, tol=1e-12)
    assert np.max(np.abs(np.diag(gt) - 1.0)) < 1e-12
    assert np.linalg.eigvalsh(gt)[0] > -1e-10
    # circulant Gram matrices are fixed points
    assert np.max(np.abs(bargmann.circulantize_gram(gt) - gt)) < 1e-12


def test_vectors_from_gram_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(20):
        psi = random_tuple(int(rng.integers(2, 6)), int(rng.integers(2, 5)), rng)
        g = bargmann.gram(psi)
        rebuilt = bargmann.vectors_from_gram(g)
        assert np.max(np.abs(bargmann.gram(rebuilt) - g)) < 1e-8
    ones = bargmann.vectors_from_gram(np.ones((4, 4)))
    assert ones.shape == (4, 1)
    assert np.max(np.abs(bargmann.gram(ones) - 1.0)) < 1e-12
    with pytest.raises(ValueError):
        bargmann.vectors_from_gram(np.diag([1.0, 1.0, 2.0]))


def test_canonicalize_properties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(2, 5))
        psi = random_tuple(n, d, rng)
        factors = [np.vdot(psi[k], psi[(k + 1) % n]) for k in range(n)]
        inv = np.prod(factors)
        if abs(inv) < 1e-10:
            continue
        canon, report = bargmann.canonicalize(psi)
        consec = [np.vdot(canon[k], canon[(k + 1) % n]) for k in range(n)]
        assert max(abs(g - report.common_inner_product) for g in consec) < 1e-8
        assert report.arg_match
        assert report.modulus_bound_holds
        # canonical modulus is the arithmetic mean of moduli to the n-th power
        mean_r = np.mean(np.abs(factors))
        assert abs(abs(report.canonical_invariant) - mean_r**n) < 1e-10
        assert linalg.is_circulant(bargmann.gram(canon), tol=1e-8)
        ratio = bargmann.rescale_ratio(psi)
        assert 0.0 < ratio <= 1.0 + 1e-12
        assert abs(ratio * report.canonical_invariant - report.original_invariant) < 1e-10


def test_canonicalize_near_parallel_tuple():
    # 33 qutrit states within 1e-5 of one vector: the circulant Gram matrix
    # has 30 eigenvalues below the 1e-10 rank tolerance, and dropping them
    # used to leave the canonical rows short enough to report a false
    # modulus_bound_holds
    rng = np.random.default_rng(22)
    n, d = int(rng.integers(10, 40)), int(rng.integers(2, 6))
    assert (n, d) == (33, 3)
    base = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi = base + 1e-5 * (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    canon, report = bargmann.canonicalize(psi)
    assert report.modulus_bound_holds
    assert report.arg_match
    assert np.max(np.abs(np.linalg.norm(canon, axis=1) - 1.0)) < 1e-14
    consec = [np.vdot(canon[k], canon[(k + 1) % n]) for k in range(n)]
    assert max(abs(g - report.common_inner_product) for g in consec) < 1e-12


def test_canonicalize_fixed_point():
    # a tuple of identical vectors is already canonical
    psi = np.tile(np.array([1.0, 0.0, 0.0], dtype=complex), (4, 1))
    canon, report = bargmann.canonicalize(psi)
    assert abs(report.original_invariant - 1.0) < 1e-12
    assert abs(report.canonical_invariant - 1.0) < 1e-12
    assert abs(report.common_inner_product - 1.0) < 1e-12
    # canonicalizing twice leaves the invariant alone
    rng = np.random.default_rng(8)
    tup = random_tuple(4, 3, rng)
    canon, report = bargmann.canonicalize(tup)
    again, report2 = bargmann.canonicalize(canon)
    assert abs(report2.canonical_invariant - report.canonical_invariant) < 1e-9


def test_canonicalize_degenerate_input():
    ortho = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=complex)
    with pytest.raises(bargmann.DegenerateInvariantError):
        bargmann.canonicalize(ortho)
    with pytest.raises(bargmann.DegenerateInvariantError):
        bargmann.rescale_ratio(ortho)


def test_rescale_ratio_equal_moduli():
    psi = np.tile(np.array([1.0, 0.0], dtype=complex), (5, 1))
    assert abs(bargmann.rescale_ratio(psi) - 1.0) < 1e-14
