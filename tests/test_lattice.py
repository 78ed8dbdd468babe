import dataclasses
import itertools

import numpy as np
import pytest

import latdec
from latdec.lattice import (UnimodularRecord, _exact_matmul, _int_array, construction_a,
                            lll_reduce)
from latdec.linalg import qr_decompose
from latdec.preprocess import left_preprocess, vblast_greedy_order
from reference import (SingularDiagonal, compose_left, gso, hnf_transform, int_det,
                       is_unimodular, lll_reduce_gso, sparsity_index)


# ---------------------------------------------------------------------------
# construction A


def test_construction_a_blocks():
    assert np.array_equal(construction_a([1], 2), [[1, 0], [1, 2]])
    assert np.array_equal(construction_a(np.zeros((0, 3), dtype=int), 5), np.eye(3))
    assert np.array_equal(construction_a([[1, 1]], 3),
                          [[1, 0, 0], [0, 1, 0], [1, 1, 3]])


@pytest.mark.parametrize("q,P", [(2, [[1, 0], [1, 1]]), (3, [[2, 1]])])
def test_construction_a_membership(q, P):
    # every lifted codeword plus q*Z^m lands on a lattice point
    P = np.asarray(P)
    r, k = P.shape
    m = r + k
    G = construction_a(P, q).astype(float)
    for u in itertools.product(range(q), repeat=k):
        c = np.concatenate([u, (P @ np.array(u)) % q])
        for t in itertools.product((-1, 0, 1), repeat=m):
            x = np.linalg.solve(G, c + q * np.array(t))
            assert np.allclose(x, np.round(x), atol=1e-9)


# ---------------------------------------------------------------------------
# LLL


def test_lll_identity_unchanged():
    red, rec = lll_reduce(np.eye(4))
    assert np.allclose(red, np.eye(4))
    assert np.array_equal(rec.T.astype(int), np.eye(4, dtype=int))


def test_lll_skewed_2d():
    B = np.array([[1.0, 100.0], [0.0, 1.0]])
    red, rec = lll_reduce(B)
    assert is_unimodular(rec.T) and rec.verify()
    # exhaustive shortest vector over the coefficient box |z_i| <= 200
    zs = np.array([(a, b) for a in range(-200, 201) for b in range(-200, 201)
                   if (a, b) != (0, 0)])
    pts = zs @ B.T
    shortest = np.einsum("ij,ij->i", pts, pts).min()
    col_norms = np.einsum("ij,ij->j", red, red)
    assert col_norms.min() <= shortest + 1e-9
    assert (col_norms <= (B * B).sum(axis=0).max() + 1e-9).all()
    assert np.allclose(B @ rec.T_inv.astype(float), red, atol=1e-9)


@pytest.mark.parametrize("deep", [False, True])
def test_lll_random_determinant_invariance(deep):
    rng = np.random.default_rng(7)
    done = 0
    while done < 40:
        B = rng.integers(-9, 10, size=(6, 6)).astype(float)
        if abs(np.linalg.det(B)) < 0.5:
            continue
        done += 1
        red, rec = lll_reduce(B, delta=0.99, deep=deep)
        assert rec.verify() and is_unimodular(rec.T)
        assert abs(abs(np.linalg.det(red)) - abs(np.linalg.det(B))) \
            < 1e-6 * abs(np.linalg.det(B))
        assert np.abs(B @ rec.T_inv.astype(float) - red).max() < 1e-9 * max(1, np.abs(B).max())


def test_lll_lovasz_condition():
    rng = np.random.default_rng(8)
    delta = 0.99
    for _ in range(40):
        B = rng.standard_normal((5, 5)) * rng.uniform(0.5, 20)
        red, _ = lll_reduce(B, delta=delta)
        mu, norms = gso(red)
        for k in range(1, 5):
            assert norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1] - 1e-9
            for j in range(k):
                assert abs(mu[k, j]) <= 0.5 + 1e-9


def _lll_bases(m, frames, seed):
    """Even frames: the upper-triangular basis R1 @ G of an m/2 x m/2 VBLAST
    frame at 13 dB after MMSE filtering, which lll_reduce takes as its own R.
    Odd frames: a real Gaussian basis, which lll_reduce has to factor first.

    Lattices of complex channels can carry exact size-reduction ties
    (mu = +-1/2), which each implementation breaks by its own rounding
    noise; there the two may return different reduced bases.  No MMSE
    basis at 13 dB showed one (0 of 2000 at m=8), but 7 of 2000 at 20 dB
    did, and so did 2 of 590 real channel matrices at 13 dB, which the two
    factor differently.  So this test compares the two where the reference
    is well defined.
    """
    cfg = latdec.VblastConfig(M=m // 2, N=m // 2, Q=2, rho=10.0 ** 1.3)
    rng = np.random.default_rng(seed)
    for i in range(frames):
        if i % 2:
            yield rng.standard_normal((m, m)) * rng.uniform(0.5, 20.0)
        else:
            inst = latdec.sample_vblast(cfg, latdec.frame_rng(seed, i))
            yield left_preprocess(inst.H, "mmse").R1 @ inst.code.generator


# 1002 frames in all; the reference is slow at m=32, above all with deep insertion
@pytest.mark.parametrize("m, deep, frames", [
    (8, False, 400), (8, True, 300), (16, False, 150), (16, True, 100),
    (32, False, 40), (32, True, 12)])
def test_lll_matches_gso_reference(m, deep, frames):
    for B in _lll_bases(m, frames, seed=20 + m + deep):
        red, rec = lll_reduce(B, deep=deep)
        red0, rec0 = lll_reduce_gso(B, deep=deep)
        assert rec.T.dtype == rec.T_inv.dtype == np.int64
        assert np.array_equal(rec.T, rec0.T)
        assert np.array_equal(rec.T_inv, rec0.T_inv)
        assert np.allclose(gso(red)[1], gso(red0)[1], rtol=1e-9, atol=0.0)  # |diag R|^2


def test_lll_records_exact_beyond_int64():
    # the size-reduction multiplier 10**19 does not fit in int64
    B = np.array([[1.0, 1e19], [0.0, 1.0]])
    red, rec = lll_reduce(B)
    _, rec0 = lll_reduce_gso(B)
    assert rec.T_inv.tolist() == [[1, -10**19], [0, 1]]
    assert rec.T.tolist() == [[1, 10**19], [0, 1]]
    assert np.array_equal(rec.T_inv, rec0.T_inv) and np.array_equal(rec.T, rec0.T)
    assert rec.verify()
    assert np.allclose(red, np.eye(2))
    assert rec.inverse_times([1, 1]).tolist() == [1 - 10**19, 1]


def test_record_products_exact_beyond_int64():
    # every entry fits in int64, but the fourth power's does not
    step = 3 * 10**18
    rec = UnimodularRecord(T=np.array([[1, step], [0, 1]]), T_inv=np.array([[1, -step], [0, 1]]))
    total = rec
    for _ in range(3):
        total = compose_left(total, rec)
        assert total.verify()
    assert total.T.tolist() == [[1, 4 * step], [0, 1]]
    assert total.T_inv.tolist() == [[1, -4 * step], [0, 1]]
    # -2**63 fits in int64, but its magnitude does not
    low = -2**63
    rec = UnimodularRecord(T=np.array([[1, -low], [0, 1]], dtype=object),
                           T_inv=np.array([[1, low], [0, 1]]))
    assert rec.inverse_times([0, 2]).tolist() == [2 * low, 2]


def test_record_is_read_only_and_keeps_its_own_copies():
    # the bound is decided at construction, so nothing may change the entries
    T_inv = np.array([[1, -3], [0, 1]])
    rec = UnimodularRecord(T=np.array([[1, 3], [0, 1]]), T_inv=T_inv)
    for arr in (rec.T, rec.T_inv, rec.permuted([1, 0]).T, rec.permuted([1, 0]).T_inv):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.T_inv = np.eye(2, dtype=np.int64)
    T_inv[0, 1] = -2**40  # the caller's array is not the record's
    assert rec.T_inv.tolist() == [[1, -3], [0, 1]] and rec.bound == 6.0


def _back_map_cases():
    """(record, label) pairs around the int64 decision of inverse_times."""
    a = 2**30  # n * max|T_inv| = 2**31: a label bound of 2**31 puts the product at 2**62
    rec = UnimodularRecord(T=np.array([[1, a], [0, 1]]), T_inv=np.array([[1, -a], [0, 1]]))
    for z in (2**31 - 1, 2**31, 2**31 + 1):  # just below, at and above 2**62
        yield rec, [z, 1]
        yield rec, [1, -z]
    # the product is taken in floats, as _exact_matmul takes it: 2**62 - 1
    # rounds up to 2**62, the largest float below it is 2**62 - 2**9
    for z in (2**62 - 2**9, 2**62 - 1):
        yield UnimodularRecord.identity(1), [z]
    for z in (-2**63, 2**63, 10**400):  # int64's least value, one past int64, past the floats
        yield rec, [0, z]
        yield UnimodularRecord.identity(2), [z, 1]
    obj = UnimodularRecord(T=np.array([[1, 10**19], [0, 1]], dtype=object),
                           T_inv=np.array([[1, -10**19], [0, 1]], dtype=object))
    yield obj, [1, 1]
    yield obj, [2**70, -3]
    perm = UnimodularRecord(T=np.array([[2, 1, 0], [1, 1, 0], [0, 0, 1]]),
                            T_inv=np.array([[1, -1, 0], [-1, 2, 0], [0, 0, 1]])).permuted([2, 0, 1])
    yield perm, [5, -7, 11]
    yield perm, [2**61, 0, 0]
    yield UnimodularRecord.identity(4), [3, -1, 0, 2]


def test_back_map_decides_as_the_exact_product():
    # the int64 bound decided once per record takes the decision that
    # _exact_matmul takes on every call: the same values and the same dtype
    paths = set()
    for rec, z in _back_map_cases():
        got, want = rec.inverse_times(z), _exact_matmul(rec.T_inv, _int_array(z))
        assert got.dtype == want.dtype, (rec.T_inv.tolist(), z)
        assert got.tolist() == want.tolist()
        paths.add(str(got.dtype))
    assert paths == {"int64", "object"}


def test_a_permuted_record_keeps_the_bound_of_a_fresh_one():
    for rec in (UnimodularRecord.identity(3),
                UnimodularRecord(T=np.array([[1, 5, 0], [0, 1, 0], [0, 0, 1]]),
                                 T_inv=np.array([[1, -5, 0], [0, 1, 0], [0, 0, 1]])),
                UnimodularRecord(T=np.eye(3, dtype=object), T_inv=np.eye(3, dtype=object))):
        for perm in itertools.permutations(range(3)):
            got = rec.permuted(list(perm))
            fresh = UnimodularRecord(T=rec.T[list(perm)], T_inv=rec.T_inv[:, list(perm)])
            assert got.bound == fresh.bound
            assert np.array_equal(got.T, fresh.T) and np.array_equal(got.T_inv, fresh.T_inv)
            assert got.T_inv.dtype == fresh.T_inv.dtype and got.verify()


# ---------------------------------------------------------------------------
# sparsity index


def test_sparsity_index_values():
    assert sparsity_index(np.diag([3.0, 0.5, 2.0])) == 0.0
    R = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert sparsity_index(R) == pytest.approx(4.0)
    R2 = np.array([[1.0, 3.0], [0.0, 2.0]])
    assert sparsity_index(10.0 * R2) == pytest.approx(sparsity_index(R2))
    with pytest.raises(SingularDiagonal):
        sparsity_index(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_greedy_ordering_is_exhaustive_maxmin():
    # The greedy ordering provably maximizes min r_ii^2; check against the
    # exhaustive permutation search.  (The looser claim that it never
    # increases the sparsity index fails on random inputs; see the ordering
    # tests in test_preprocess.)
    rng = np.random.default_rng(9)
    for _ in range(60):
        A = rng.standard_normal((4, 4))
        perm = vblast_greedy_order(A)
        got = np.diag(qr_decompose(A[:, perm])[1]).min() ** 2
        best = max(np.diag(qr_decompose(A[:, list(p)])[1]).min() ** 2
                   for p in itertools.permutations(range(4)))
        assert got >= best * (1 - 1e-9)


# ---------------------------------------------------------------------------
# unimodularity and HNF


def test_is_unimodular():
    assert is_unimodular(np.eye(3, dtype=int))
    assert not is_unimodular([[2, 0], [0, 1]])
    assert is_unimodular([[1, 5], [0, 1]])
    assert not is_unimodular([[1, 2, 3]])  # not square


def test_int_det_matches_numpy():
    rng = np.random.default_rng(10)
    for _ in range(50):
        A = rng.integers(-6, 7, size=(5, 5))
        assert int_det(A) == round(np.linalg.det(A.astype(float)))


def test_hnf_identity():
    R, rec = hnf_transform(np.eye(3, dtype=int))
    assert np.array_equal(np.asarray(R, dtype=int), np.eye(3, dtype=int))
    assert np.array_equal(rec.T.astype(int), np.eye(3, dtype=int))


def test_hnf_examples():
    A = np.array([[2, 1], [0, 1]])
    R, rec = hnf_transform(A)
    assert rec.verify() and is_unimodular(rec.T)
    assert np.array_equal(np.asarray(R @ rec.T, dtype=int), A)
    A2 = np.array([[4, 2], [2, 3]])
    R2, rec2 = hnf_transform(A2)
    assert abs(int_det(R2)) == 8
    assert np.array_equal(np.asarray(R2 @ rec2.T, dtype=int), A2)


def test_hnf_dominant_diagonal_random():
    rng = np.random.default_rng(11)
    done = 0
    while done < 40:
        A = rng.integers(-9, 10, size=(4, 4))
        if int_det(A) == 0:
            continue
        done += 1
        R, rec = hnf_transform(A)
        assert rec.verify()
        assert np.array_equal(np.asarray(R @ rec.T, dtype=int), A)
        for i in range(4):
            assert R[i][i] > 0
            assert all(R[i][j] == 0 for j in range(i))
            assert all(0 <= R[i][j] < R[i][i] for j in range(i + 1, 4))
        assert abs(int_det(R)) == abs(int_det(A))
