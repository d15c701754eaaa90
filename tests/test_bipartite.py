import itertools

import numpy as np
import pytest

from circulant_channels import bipartite, channels, linalg


def random_state(d, seed):
    return linalg.random_density_matrix(d, seed)


def random_matrix(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def test_basis_image_values():
    for d in range(2, 6):
        for i in range(1, d + 1):
            assert np.allclose(bipartite.basis_image(i, i, d), np.eye(d) / d)
    out = bipartite.basis_image(1, 2, 3)
    assert np.allclose(out, linalg.cyclic_shift(3, 1) / 3.0)
    out = bipartite.basis_image(3, 1, 4)
    assert np.allclose(out, linalg.cyclic_shift(4, 2) / 4.0)


def test_basis_image_matches_channel_on_matrix_units():
    for d in range(2, 6):
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                unit = np.zeros((d, d), dtype=complex)
                unit[i - 1, j - 1] = 1.0
                assert np.max(np.abs(bipartite.basis_image(i, j, d) - channels.apply_uniform(unit))) < 1e-14


def test_basis_image_rejects_out_of_range():
    with pytest.raises(ValueError):
        bipartite.basis_image(0, 1, 3)
    with pytest.raises(ValueError):
        bipartite.basis_image(1, 4, 3)


def brute_local_a(x, da, db):
    # sum_k (P^k (x) I) X (P^-k (x) I) / da, straight from the Kraus form
    out = np.zeros_like(x)
    for k in range(da):
        op = np.kron(linalg.cyclic_shift(da, k), np.eye(db))
        out += op @ x @ op.conj().T
    return out / da


def test_apply_uniform_a_on_products():
    rng = np.random.default_rng(0)
    for da, db in [(2, 2), (2, 3), (3, 2), (3, 4)]:
        a = random_matrix(da, rng)
        b = random_matrix(db, rng)
        x = np.kron(a, b)
        expect = np.kron(channels.apply_uniform(a), b)
        assert np.max(np.abs(bipartite.apply_uniform_A(x, (da, db)) - expect)) < 1e-12


def test_apply_uniform_a_matches_kraus():
    rng = np.random.default_rng(1)
    for da, db in [(2, 2), (2, 3), (3, 3), (4, 2), (1, 3), (3, 1)]:
        for _ in range(10):
            x = random_matrix(da * db, rng)
            got = bipartite.apply_uniform_A(x, (da, db))
            assert np.max(np.abs(got - brute_local_a(x, da, db))) < 1e-12


def test_apply_uniform_a_output_block_structure():
    rng = np.random.default_rng(2)
    x = random_matrix(6, rng)
    out = bipartite.apply_uniform_A(x, (3, 2))
    assert bipartite.is_block_circulant(out, (3, 2))
    # blocks themselves need not be circulant
    assert not bipartite.is_block_circulant(out, (3, 2), circulant_blocks=True)


def test_apply_uniform_ab():
    rng = np.random.default_rng(3)
    for da, db in [(2, 2), (2, 3), (3, 2)]:
        a = random_matrix(da, rng)
        b = random_matrix(db, rng)
        got = bipartite.apply_uniform_AB(np.kron(a, b), (da, db))
        expect = np.kron(channels.apply_uniform(a), channels.apply_uniform(b))
        assert np.max(np.abs(got - expect)) < 1e-12
    for da, db in [(2, 3), (3, 3), (1, 3), (3, 1)]:
        x = random_matrix(da * db, rng)
        brute = np.zeros_like(x)
        for r in range(da):
            for s in range(db):
                op = np.kron(linalg.cyclic_shift(da, r), linalg.cyclic_shift(db, s))
                brute += op @ x @ op.conj().T
        brute /= da * db
        out = bipartite.apply_uniform_AB(x, (da, db))
        assert np.max(np.abs(out - brute)) < 1e-12
        assert bipartite.is_block_circulant(out, (da, db), circulant_blocks=True)


def test_apply_weighted_matches_uniform_paths():
    rng = np.random.default_rng(4)
    for da, db in [(2, 3), (3, 2), (1, 3), (3, 1)]:
        x = random_matrix(da * db, rng)
        ua = channels.uniform_weights(da)
        ub = channels.uniform_weights(db)
        both = bipartite.apply_weighted(x, (da, db), weights_a=ua, weights_b=ub)
        assert np.max(np.abs(both - bipartite.apply_uniform_AB(x, (da, db)))) < 1e-12
        left = bipartite.apply_weighted(x, (da, db), weights_a=ua)
        assert np.max(np.abs(left - bipartite.apply_uniform_A(x, (da, db)))) < 1e-12
        untouched = bipartite.apply_weighted(x, (da, db))
        assert np.array_equal(untouched, x) and untouched is not x


def test_apply_weighted_general_weights():
    rng = np.random.default_rng(5)
    for da, db in [(3, 2), (1, 4), (4, 1)]:
        lam_a = channels.as_weights(rng.dirichlet(np.ones(da)))
        lam_b = channels.as_weights(rng.dirichlet(np.ones(db)))
        x = random_matrix(da * db, rng)
        brute = np.zeros_like(x)
        for r in range(da):
            for s in range(db):
                op = np.kron(linalg.cyclic_shift(da, r), linalg.cyclic_shift(db, s))
                brute += lam_a[r] * lam_b[s] * op @ x @ op.conj().T
        got = bipartite.apply_weighted(x, (da, db), weights_a=lam_a, weights_b=lam_b)
        assert np.max(np.abs(got - brute)) < 1e-12


def test_apply_weighted_rejects_wrong_weight_count():
    x = np.eye(6, dtype=complex)
    with pytest.raises(ValueError):
        bipartite.apply_weighted(x, (2, 3), weights_a=[0.5, 0.25, 0.25])


def test_local_action_on_maximally_entangled_gives_choi():
    # acting on one half of the maximally entangled state yields the
    # trace-normalized Choi matrix of the local channel
    for d in range(2, 5):
        v = np.zeros(d * d, dtype=complex)
        for i in range(d):
            v[i * d + i] = 1.0 / np.sqrt(d)
        omega = np.outer(v, v.conj())
        raw = np.arange(1, d + 1, dtype=float)
        lam = channels.as_weights(raw / raw.sum())
        out = bipartite.apply_weighted(omega, (d, d), weights_a=lam)
        assert np.max(np.abs(out - channels.choi(lam) / d)) < 1e-12


def test_ppt_check():
    rep = bipartite.ppt_check(bell_state(), (2, 2))
    assert not rep.is_ppt
    assert abs(rep.min_eigenvalue + 0.5) < 1e-12
    assert sorted(np.round(rep.spectrum, 12)) == [-0.5, 0.5, 0.5, 0.5]
    prod = np.kron(random_state(2, 0), random_state(3, 1))
    rep = bipartite.ppt_check(prod, (2, 3))
    assert rep.is_ppt
    assert rep.min_eigenvalue > -1e-12
    rep_b = bipartite.ppt_check(bell_state(), (2, 2), subsystem=1)
    assert abs(rep_b.min_eigenvalue + 0.5) < 1e-12
    with pytest.raises(ValueError):
        bipartite.ppt_check(np.triu(np.ones((4, 4))), (2, 2))


def test_pt_invariance_for_qubit_side():
    rng = np.random.default_rng(6)
    for db in (2, 3):
        for _ in range(20):
            x = random_matrix(2 * db, rng)
            x = x + x.conj().T
            out = bipartite.apply_uniform_A(x, (2, db))
            assert bipartite.pt_invariance_check(out, (2, db))
    with pytest.raises(ValueError):
        bipartite.pt_invariance_check(np.eye(9, dtype=complex), (3, 3))


def test_uniform_local_action_erases_npt():
    # entangled inputs come out PPT after the uniform channel on one side
    for da, db, seed in [(2, 2, 0), (2, 3, 1), (3, 2, 2)]:
        rho = bipartite.random_entangled_state(da, db, seed)
        assert not bipartite.ppt_check(rho, (da, db)).is_ppt
        out = bipartite.apply_uniform_A(rho, (da, db))
        assert bipartite.ppt_check(out, (da, db), tol=1e-10).is_ppt


def test_weighted_local_action_on_bell_state():
    lam = np.array([0.75, 0.25])
    out = bipartite.apply_weighted(bell_state(), (2, 2), weights_a=lam)
    rep = bipartite.ppt_check(out, (2, 2))
    assert not rep.is_ppt
    assert abs(rep.min_eigenvalue + 0.25) < 1e-12


def test_random_entangled_state_deterministic():
    a = bipartite.random_entangled_state(2, 2, 7)
    b = bipartite.random_entangled_state(2, 2, 7)
    assert np.array_equal(a, b)
    assert abs(np.trace(a) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(a)[0] > -1e-12
    assert bipartite.ppt_check(a, (2, 2)).min_eigenvalue < -1e-10


def test_is_block_circulant_negative():
    rng = np.random.default_rng(8)
    x = random_matrix(6, rng)
    assert not bipartite.is_block_circulant(x, (3, 2))
    y = bipartite.apply_uniform_AB(x, (3, 2))
    assert bipartite.is_block_circulant(y, (3, 2))
    assert bipartite.is_block_circulant(y, (3, 2), circulant_blocks=True)
