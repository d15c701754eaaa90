import itertools
import math

import numpy as np
import pytest

from circulant_channels import channels, linalg


def random_state(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_matrix(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def kraus_sum(lam, x, sign=1):
    # literal sum_k lam[k] P^(sign k) X P^-(sign k) from dense shift matrices;
    # sign -1 is the adjoint
    d = len(lam)
    out = np.zeros((d, d), dtype=complex)
    for k in range(d):
        p = linalg.cyclic_shift(d, sign * k)
        out += lam[k] * (p @ x @ p.conj().T)
    return out


def sparse_weights(d, rng):
    # Dirichlet weights with about half the entries set to exactly zero
    lam = rng.dirichlet(np.ones(d)) * (rng.random(d) < 0.5)
    if lam.sum() == 0.0:
        lam[rng.integers(d)] = 1.0
    return lam / lam.sum()


def multiset_close(a, b, tol):
    # tolerance-aware multiset comparison; ordering of near-degenerate
    # complex eigenvalues is solver-dependent
    a = np.asarray(a).ravel()
    b = list(np.asarray(b).ravel())
    if a.size != len(b):
        return False
    for x in a:
        dist = np.abs(np.array(b) - x)
        j = int(np.argmin(dist))
        if dist[j] > tol:
            return False
        b.pop(j)
    return True


def test_weights_validation():
    with pytest.raises(ValueError):
        channels.as_weights([0.5, -0.6, 1.1])
    with pytest.raises(ValueError):
        channels.as_weights([0.5, 0.6])
    with pytest.raises(ValueError):
        channels.as_weights([])
    with pytest.raises(ValueError):
        channels.as_weights([np.nan, 1.0])
    lam = channels.as_weights([1.0 + 5e-13, -5e-13])
    assert lam[1] == 0.0 and abs(lam.sum() - 1.0) < 1e-15
    assert np.array_equal(channels.uniform_weights(4), np.full(4, 0.25))


def test_identity_weights_fix_everything():
    rng = np.random.default_rng(0)
    x = random_matrix(5, rng)
    lam = np.zeros(5)
    lam[0] = 1.0
    assert np.array_equal(channels.apply_kraus(lam, x), x)
    assert np.max(np.abs(channels.apply_adjoint(lam, x) - x)) < 1e-15
    assert np.array_equal(channels.natural_representation(lam), np.eye(25))


def test_uniform_qubit_closed_form():
    rng = np.random.default_rng(1)
    sx = linalg.cyclic_shift(2, 1)
    for _ in range(10):
        x = random_matrix(2, rng)
        expect = 0.5 * (np.trace(x) * np.eye(2) + np.trace(sx @ x) * sx)
        got = channels.apply_kraus(channels.uniform_weights(2), x)
        assert np.max(np.abs(got - expect)) < 1e-13


def test_channel_structural_properties():
    rng = np.random.default_rng(2)
    for d in (2, 3, 5):
        lam = rng.dirichlet(np.ones(d))
        x = random_matrix(d, rng)
        y = channels.apply_kraus(lam, x)
        assert abs(np.trace(y) - np.trace(x)) < 1e-12
        assert np.max(np.abs(channels.apply_kraus(lam, np.eye(d)) - np.eye(d))) < 1e-13
        # commutes with transposition
        assert np.max(np.abs(channels.apply_kraus(lam, x.T) - y.T)) < 1e-12
        h = x + x.conj().T
        yh = channels.apply_kraus(lam, h)
        assert np.max(np.abs(yh - yh.conj().T)) < 1e-12
        rho = random_state(d, rng)
        out = channels.apply_kraus(lam, rho)
        assert np.linalg.eigvalsh(out)[0] > -1e-12


def test_closed_form_matches_kraus():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 4, 5, 6):
        for _ in range(20):
            x = random_matrix(d, rng)
            for lam in (rng.dirichlet(np.ones(d)), sparse_weights(d, rng)):
                a = channels.apply_kraus(lam, x)
                b = channels.apply_closed_form(lam, x)
                assert np.max(np.abs(a - b)) < 1e-12


def test_apply_matches_literal_kraus_sum():
    rng = np.random.default_rng(20)
    for d in (1, 2, 3, 5, 8, 16, 33, 64):
        for lam in (rng.dirichlet(np.ones(d)), sparse_weights(d, rng), np.eye(d)[-1]):
            lam = channels.as_weights(lam)
            x = random_matrix(d, rng)
            scale = 1e-14 * d * np.max(np.abs(x))
            assert np.max(np.abs(channels.apply_kraus(lam, x) - kraus_sum(lam, x))) < scale
            assert np.max(np.abs(channels.apply_adjoint(lam, x) - kraus_sum(lam, x, -1))) < scale


def test_uniform_image_entries_are_shifted_traces():
    rng = np.random.default_rng(4)
    d = 5
    x = random_matrix(d, rng)
    y = channels.apply_uniform(x)
    for i in range(d):
        for j in range(d):
            expect = np.trace(linalg.cyclic_shift(d, -((j - i) % d)) @ x) / d
            assert abs(y[i, j] - expect) < 1e-13


def test_image_coeffs():
    rng = np.random.default_rng(5)
    d = 4
    rho = random_state(d, rng)
    c = channels.image_coeffs(rho)
    assert abs(c[0] - 1.0 / d) < 1e-13
    for r in range(1, d):
        assert abs(c[r] - np.conj(c[d - r])) < 1e-13
    for m in range(d):
        cm = channels.image_coeffs(linalg.cyclic_shift(d, m))
        expect = np.zeros(d)
        expect[m] = 1.0
        assert np.max(np.abs(cm - expect)) < 1e-13


def test_uniform_image_is_circulant_projection():
    rng = np.random.default_rng(6)
    for d in (2, 3, 6):
        x = random_matrix(d, rng)
        y = channels.apply_uniform(x)
        assert linalg.is_circulant(y, tol=1e-12)
        assert np.max(np.abs(channels.apply_uniform(y) - y)) < 1e-12
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        fixed = linalg.circulant(c)
        assert np.max(np.abs(channels.apply_uniform(fixed) - fixed)) < 1e-12
        if d > 1 and not linalg.is_circulant(x, tol=1e-6):
            assert np.max(np.abs(y - x)) > 1e-6
    diag = np.diag([0.7, 0.2, 0.1])
    assert np.max(np.abs(channels.apply_uniform(diag) - np.eye(3) / 3)) < 1e-14


def test_uniform_images_commute():
    rng = np.random.default_rng(7)
    for d in (2, 4):
        a = channels.apply_uniform(random_matrix(d, rng))
        b = channels.apply_uniform(random_matrix(d, rng))
        assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_adjoint_duality():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 5, 16, 64):
        lam = sparse_weights(d, rng) if d > 5 else rng.dirichlet(np.ones(d))
        x, y = random_matrix(d, rng), random_matrix(d, rng)
        lhs = np.trace(x.conj().T @ channels.apply_kraus(lam, y))
        rhs = np.trace(channels.apply_adjoint(lam, x).conj().T @ y)
        assert abs(lhs - rhs) < 1e-12


def test_map_differs_from_adjoint_for_asymmetric_weights():
    x = np.zeros((3, 3), dtype=complex)
    x[0, 1] = 1.0
    lam = [0.5, 0.5, 0.0]
    forward = channels.apply_kraus(lam, x)
    backward = channels.apply_adjoint(lam, x)
    assert np.max(np.abs(forward - backward)) > 1e-6


def test_uniform_qubit_map_is_self_adjoint():
    rng = np.random.default_rng(9)
    lam = channels.uniform_weights(2)
    for _ in range(10):
        x = random_matrix(2, rng)
        diff = channels.apply_kraus(lam, x) - channels.apply_adjoint(lam, x)
        assert np.max(np.abs(diff)) < 1e-14


def test_mixed_permutation_matches_group_average():
    rng = np.random.default_rng(10)
    for d in (2, 3, 4, 5):
        x = random_matrix(d, rng)
        acc = np.zeros((d, d), dtype=complex)
        for perm in itertools.permutations(range(d)):
            p = np.zeros((d, d))
            p[list(perm), range(d)] = 1.0
            acc += p @ x @ p.T
        acc /= math.factorial(d)
        assert np.max(np.abs(acc - channels.apply_mixed_permutation(x))) < 1e-12


def test_mixed_permutation_values():
    rng = np.random.default_rng(11)
    x = random_matrix(2, rng)
    assert np.max(np.abs(channels.apply_mixed_permutation(x) - channels.apply_uniform(x))) < 1e-13
    assert np.array_equal(channels.apply_mixed_permutation(np.eye(4)), np.eye(4))
    assert np.array_equal(channels.apply_mixed_permutation(np.array([[3.0]])), [[3.0]])


def test_natural_representation_acts_on_vec():
    rng = np.random.default_rng(12)
    for d in (2, 3, 4):
        lam = rng.dirichlet(np.ones(d))
        k = channels.natural_representation(lam)
        for _ in range(10):
            x = random_matrix(d, rng)
            lhs = k @ linalg.vec(x)
            rhs = linalg.vec(channels.apply_kraus(lam, x))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_natural_representation_uniform_qubit_value():
    sx = linalg.cyclic_shift(2, 1)
    expect = 0.5 * (np.eye(4) + linalg.kron(sx, sx))
    got = channels.natural_representation(channels.uniform_weights(2))
    assert np.max(np.abs(got - expect)) < 1e-15


def test_channel_spectrum_uniform_counts():
    for d in (2, 3, 5):
        report = channels.channel_spectrum(channels.uniform_weights(d))
        assert report.multiplicity_of_one == d
        assert report.multiplicity_of_zero == d * d - d
        assert report.eigenvalues.size == d * d
    one = channels.channel_spectrum(channels.uniform_weights(1))
    assert (one.multiplicity_of_one, one.multiplicity_of_zero) == (1, 0)


def test_channel_spectrum_matches_fourier_oracle():
    # K is a polynomial in the shift tensor shift, so its eigenvalues are
    # d * alpha[(i + j) % d] over all index pairs
    # dense eigvals of the natural representation is the independent route
    rng = np.random.default_rng(13)
    for d in (1, 2, 3, 4, 5, 7):
        for lam in (rng.dirichlet(np.ones(d)), sparse_weights(d, rng)):
            alpha = channels.weight_fourier_coeffs(lam)
            pred = np.array([d * alpha[(i + j) % d] for i in range(d) for j in range(d)])
            got = channels.channel_spectrum(lam).eigenvalues
            assert multiset_close(pred, got, 1e-8)
            dense = np.linalg.eigvals(channels.natural_representation(lam))
            assert multiset_close(dense, got, 1e-8)


def test_choi_uniform_qubit_value():
    sx = linalg.cyclic_shift(2, 1)
    expect = 0.5 * (np.eye(4) + linalg.kron(sx, sx))
    j = channels.choi(channels.uniform_weights(2))
    assert np.max(np.abs(j - expect)) < 1e-15
    assert np.max(np.abs(linalg.hermitian_spectrum(j) - [0.0, 0.0, 1.0, 1.0])) < 1e-12


def test_choi_structure():
    rng = np.random.default_rng(14)
    for d in (2, 3, 5):
        lam = rng.dirichlet(np.ones(d))
        j = channels.choi(lam)
        assert abs(np.trace(j).real - d) < 1e-12
        assert np.linalg.eigvalsh(j)[0] > -1e-12
    lam = np.zeros(3)
    lam[0] = 1.0
    v = linalg.vec(np.eye(3))
    assert np.max(np.abs(channels.choi(lam) - np.outer(v, v.conj()))) < 1e-15


def test_choi_matches_definition():
    # J equals the channel acting on one half of vec(I) vec(I)^dag
    rng = np.random.default_rng(15)
    for d in (2, 3, 4):
        lam = rng.dirichlet(np.ones(d))
        v = linalg.vec(np.eye(d))
        proj = np.outer(v, v.conj())
        acc = np.zeros((d * d, d * d), dtype=complex)
        for k in range(d):
            u = linalg.kron(linalg.cyclic_shift(d, k), np.eye(d))
            acc += lam[k] * (u @ proj @ u.conj().T)
        assert np.max(np.abs(acc - channels.choi(lam))) < 1e-12


def test_choi_uniform_is_normalized_shift_sum():
    for d in (2, 3, 6):
        acc = sum(
            linalg.kron(linalg.cyclic_shift(d, k), linalg.cyclic_shift(d, k))
            for k in range(d)
        ) / d
        j = channels.choi(channels.uniform_weights(d))
        assert np.max(np.abs(j - acc)) < 1e-13


def test_weight_fourier_coeffs_values():
    alpha = channels.weight_fourier_coeffs(channels.uniform_weights(5))
    assert abs(alpha[0] - 0.2) < 1e-14
    assert np.max(np.abs(alpha[1:])) < 1e-14
    lam = np.zeros(4)
    lam[0] = 1.0
    assert np.max(np.abs(channels.weight_fourier_coeffs(lam) - 0.25)) < 1e-14
    alpha = channels.weight_fourier_coeffs([0.75, 0.25])
    assert np.max(np.abs(alpha - np.array([0.5, 0.25]))) < 1e-14
    rng = np.random.default_rng(16)
    for d in (2, 3, 6):
        lam = rng.dirichlet(np.ones(d))
        assert abs(channels.weight_fourier_coeffs(lam)[0] - 1.0 / d) < 1e-14
        # explicit sum alpha[m] = (1/d) sum_k lam[k] exp(2 pi i k m / d)
        m = np.arange(d)
        explicit = np.exp(2j * np.pi * np.outer(m, m) / d) @ lam / d
        assert np.max(np.abs(channels.weight_fourier_coeffs(lam) - explicit)) < 1e-14


def test_choi_pt_spectrum_values():
    got = channels.choi_pt_spectrum([0.75, 0.25])
    assert np.max(np.abs(got - np.array([-0.25, 0.25, 0.5, 0.5]))) < 1e-12
    got = channels.choi_pt_spectrum(channels.uniform_weights(3))
    expect = np.array([0.0] * 6 + [1.0 / 3.0] * 3)
    assert np.max(np.abs(got - expect)) < 1e-12


def test_choi_pt_spectrum_matches_fourier_prediction():
    # alpha[0] appears d times; each unordered index pair contributes a
    # +-|alpha[i - j]| eigenvalue pair
    rng = np.random.default_rng(17)
    for d in (2, 3, 4, 5, 6):
        for _ in range(10):
            lam = rng.dirichlet(np.ones(d))
            alpha = channels.weight_fourier_coeffs(lam)
            pred = [alpha[0].real] * d
            for i in range(d):
                for j in range(i + 1, d):
                    m = abs(alpha[(i - j) % d])
                    pred.extend((m, -m))
            pred = np.sort(np.asarray(pred))
            got = channels.choi_pt_spectrum(lam)
            assert np.max(np.abs(pred - got)) < 1e-8
            # dense route: partial transpose of the trace-normalized Choi matrix
            pt = linalg.partial_transpose(channels.choi(lam) / d, (d, d), 1)
            assert np.max(np.abs(linalg.hermitian_spectrum(pt) - got)) < 1e-8


def test_entanglement_breaking_iff_uniform():
    rng = np.random.default_rng(18)
    for d in (1, 2, 3, 6):
        assert channels.is_entanglement_breaking(channels.uniform_weights(d))
    for d in (2, 3, 4, 5, 6):
        for _ in range(5):
            lam = rng.dirichlet(np.ones(d))
            if np.max(np.abs(lam - 1.0 / d)) < 1e-6:
                continue
            assert not channels.is_entanglement_breaking(lam)
            assert channels.choi_pt_spectrum(lam)[0] < -1e-10
    # tiny perturbations below tolerance still classify as breaking
    eps = 1e-13
    lam = np.full(4, 0.25) + eps * np.array([1.0, -1.0, 1.0, -1.0])
    assert channels.is_entanglement_breaking(lam)


def test_entanglement_breaking_agrees_with_pt_sign():
    rng = np.random.default_rng(19)
    for d in (2, 3, 4):
        for _ in range(10):
            lam = rng.dirichlet(np.ones(d))
            by_alpha = channels.is_entanglement_breaking(lam)
            by_pt = channels.choi_pt_spectrum(lam)[0] >= -1e-10
            assert by_alpha == by_pt


def test_choi_separable_form():
    for d in range(2, 9):
        local, core = channels.choi_separable_form(d)
        assert np.max(np.abs(local @ local.conj().T - np.eye(d * d))) < 1e-12
        rebuilt = local @ core @ local.conj().T
        j = channels.choi(channels.uniform_weights(d))
        assert np.max(np.abs(rebuilt - j)) < 1e-12
        diag = np.diag(core).real
        assert np.count_nonzero(diag) == d
        assert np.max(np.abs(core - np.diag(diag))) == 0.0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        channels.apply_kraus([0.5, 0.5], np.eye(3))
    with pytest.raises(ValueError):
        channels.apply_closed_form([0.5, 0.5], np.eye(3))
