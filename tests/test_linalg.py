import numpy as np
import pytest

from reference import SingularDiagonal, back_substitute
from util import complex_to_real_vector

from latdec.errors import RankDeficient
from latdec.linalg import complex_to_real_matrix, qr_decompose


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
