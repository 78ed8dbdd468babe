import numpy as np
import pytest

from reference import SingularDiagonal, back_substitute
from util import complex_to_real_vector

from latdec.errors import RankDeficient
from latdec.linalg import QR_TOL, complex_to_real_matrix, full_rank, qr_decompose
from latdec.preprocess import vblast_greedy_order


def test_qr_identity():
    Q, R = qr_decompose(np.eye(3))
    assert np.allclose(Q, np.eye(3))
    assert np.allclose(R, np.eye(3))


def test_qr_345_column():
    # column norm 5, so R = [[5]] and Q = A/5 under the positive-diagonal convention
    A = np.array([[3.0], [4.0]])
    Q, R = qr_decompose(A)
    assert np.allclose(Q, [[0.6], [0.8]])
    assert np.allclose(R, [[5.0]])
    assert np.allclose(Q.T @ Q, np.eye(1), atol=1e-9)
    assert np.allclose(Q @ R, A, atol=1e-9)


def test_qr_tall_reconstruction():
    A = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    Q, R = qr_decompose(A)
    assert R.shape == (2, 2)
    assert np.allclose(np.tril(R, -1), 0.0)
    assert np.abs(Q @ R - A).max() < 1e-9


def test_qr_rank_deficient():
    with pytest.raises(RankDeficient):
        qr_decompose(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
    with pytest.raises(RankDeficient):
        qr_decompose(np.ones((2, 3)))  # wide


@pytest.mark.parametrize("small, ok", [(2 * QR_TOL, True), (QR_TOL / 2, False), (0.0, False),
                                       (np.nan, False), (np.inf, False)])
def test_one_rank_rule_serves_qr_and_the_ordering(small, ok):
    # the smallest |r_ii| against QR_TOL times the largest column norm (1 here)
    A = np.diag([1.0, small, 0.5])
    assert full_rank(A, np.linalg.qr(A, mode="r")) == ok
    for fn in (qr_decompose, vblast_greedy_order):
        if ok:
            fn(A)
        else:
            with pytest.raises(RankDeficient):
                fn(A)


@pytest.mark.parametrize("s", [1e-200, 1e200, 1e-300, 1e300])
def test_rank_rule_is_free_of_the_scale(s):
    # the squares of s under- or overflow, so the rule takes A 2^-e and
    # R 2^-e, an exact scale: s I has full rank, a rank-one s A does not
    A = s * np.eye(2)
    assert full_rank(A, np.linalg.qr(A, mode="r"))
    Q, R = qr_decompose(A)
    assert np.array_equal(R, A) and np.array_equal(Q, np.eye(2))
    assert vblast_greedy_order(A) == [0, 1]
    skew = s * np.array([[1.0, 0.5], [0.0, 0.25]])
    assert vblast_greedy_order(skew) == vblast_greedy_order(np.array([[1.0, 0.5], [0.0, 0.25]]))
    flat = s * np.array([[1.0, 1.0], [1.0, 1.0]])
    assert not full_rank(flat, np.linalg.qr(flat, mode="r"))
    for fn in (qr_decompose, vblast_greedy_order):
        with pytest.raises(RankDeficient):
            fn(flat)


def test_qr_randomized_properties():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m, m + 4))
        A = rng.standard_normal((n, m))
        Q, R = qr_decompose(A)
        assert np.abs(Q.T @ Q - np.eye(m)).max() < 1e-9
        assert np.abs(Q @ R - A).max() / np.abs(A).max() < 1e-9
        assert np.diag(R).min() > 0


def test_embed_matrix_examples():
    assert np.array_equal(complex_to_real_matrix([[1j]]), [[0, -1], [1, 0]])
    assert np.array_equal(complex_to_real_matrix([[1]]), np.eye(2))
    assert np.array_equal(complex_to_real_matrix([[1 + 2j]]), [[1, -2], [2, 1]])


def test_embed_matrix_matches_the_block_form():
    rng = np.random.default_rng(11)
    for n, m in ((1, 1), (3, 2), (2, 5), (8, 8)):
        parts = rng.standard_normal((2, n, m))
        parts[rng.random((2, n, m)) < 0.3] = 0.0
        parts[rng.random((2, n, m)) < 0.3] = -0.0
        M = np.empty((n, m), dtype=complex)
        M.real, M.imag = parts
        want = np.block([[M.real, -M.imag], [M.imag, M.real]])
        got = complex_to_real_matrix(M)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signed zeros included
    assert complex_to_real_matrix([[complex(-0.0, -0.0)]]).tobytes() \
        == np.array([[-0.0, 0.0], [-0.0, -0.0]]).tobytes()


def test_embed_vector_examples():
    assert np.array_equal(complex_to_real_vector([1j]), [0, 1])
    assert np.array_equal(complex_to_real_vector([1 + 2j, 3]), [1, 3, 2, 0])
    assert complex_to_real_vector([]).size == 0


def test_embed_is_ring_homomorphism():
    rng = np.random.default_rng(1)
    for _ in range(50):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.abs(complex_to_real_matrix(A @ B)
                      - complex_to_real_matrix(A) @ complex_to_real_matrix(B)).max() < 1e-9
        assert np.abs(complex_to_real_matrix(A + B)
                      - (complex_to_real_matrix(A) + complex_to_real_matrix(B))).max() < 1e-9


def test_embed_matrix_vector_consistency():
    rng = np.random.default_rng(2)
    for _ in range(50):
        A = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = complex_to_real_matrix(A) @ complex_to_real_vector(u)
        rhs = complex_to_real_vector(A @ u)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_back_substitute():
    assert np.allclose(back_substitute(np.eye(2), [1.0, 2.0]), [1.0, 2.0])
    R = np.array([[2.0, 1.0], [0.0, 1.0]])
    x = back_substitute(R, [3.0, 1.0])
    assert np.allclose(R @ x, [3.0, 1.0], atol=1e-9)
    assert np.allclose(x, [1.0, 1.0])


def test_back_substitute_singular():
    with pytest.raises(SingularDiagonal):
        back_substitute(np.array([[1.0, 0.0], [0.0, 0.0]]), [1.0, 1.0])
