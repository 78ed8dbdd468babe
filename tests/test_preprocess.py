import numpy as np
import pytest

import latdec
from latdec.errors import IncompatibleBoundary, RankDeficient
from latdec.lattice import InfoSet, LatticeCode, sparsity_index
from latdec.linalg import qr_decompose
from latdec.preprocess import (apply_back_map, form_tree, left_preprocess,
                               node_metric, right_preprocess,
                               vblast_greedy_order)


def _pam_code(m, q=2):
    from latdec.channels import _pam_code as build
    from latdec.channels import pam_scale
    return build(m, q, pam_scale(q))


# ---------------------------------------------------------------------------
# left preprocessing


def test_left_mmse_scalar_examples():
    res = left_preprocess(np.array([[0.0]]), "mmse")
    assert np.allclose(res.R1, [[1.0]])
    assert np.allclose(res.Q1, [[0.0]])
    res = left_preprocess(np.array([[3.0]]), "mmse")
    assert np.allclose(res.R1, [[np.sqrt(10.0)]])
    assert np.allclose(res.Q1, [[3.0 / np.sqrt(10.0)]])


def test_left_mmse_wide_channel():
    rng = np.random.default_rng(0)
    H = rng.standard_normal((2, 3))
    res = left_preprocess(H, "mmse")
    assert res.R1.shape == (3, 3)
    assert np.abs(res.R1.T @ res.R1 - (np.eye(3) + H.T @ H)).max() < 1e-9


def test_left_mmse_identity_random_shapes():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        H = rng.standard_normal((n, m)) * rng.uniform(0.05, 20.0)
        res = left_preprocess(H, "mmse")
        assert np.abs(res.R1.T @ res.R1 - (np.eye(m) + H.T @ H)).max() < 1e-9


def test_left_zf_requires_full_rank():
    with pytest.raises(RankDeficient):
        left_preprocess(np.ones((2, 3)), "zf")  # wide
    with pytest.raises(RankDeficient):
        left_preprocess(np.array([[1.0, 2.0], [2.0, 4.0]]), "zf")
    H = np.random.default_rng(2).standard_normal((4, 3))
    res = left_preprocess(H, "zf")
    assert np.abs(res.Q1 @ res.R1 - H).max() < 1e-9
    assert np.abs(res.Q1.T @ res.Q1 - np.eye(3)).max() < 1e-9


# ---------------------------------------------------------------------------
# right preprocessing


def test_right_none_is_plain_qr():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    Q, R, rec = right_preprocess(A, "none")
    Q0, R0 = qr_decompose(A)
    assert np.allclose(Q, Q0) and np.allclose(R, R0)
    assert np.array_equal(rec.T.astype(int), np.eye(4, dtype=int))


@pytest.mark.parametrize("mode", ["lll", "permute", "lll+permute"])
def test_right_factorization_identity(mode):
    rng = np.random.default_rng(4)
    for _ in range(25):
        A = rng.standard_normal((5, 5))
        Q, R, rec = right_preprocess(A, mode)
        assert rec.verify()
        assert np.abs(Q.T @ Q - np.eye(5)).max() < 1e-9
        assert np.diag(R).min() > 0
        assert np.abs(Q @ R @ rec.T.astype(float) - A).max() < 1e-8


def test_right_permute_maxmin_2x2():
    A = np.diag([3.0, 1.0])
    _, R, _ = right_preprocess(A, "permute")
    for order in ([0, 1], [1, 0]):
        _, R_other = qr_decompose(A[:, order])
        assert np.diag(R).min() ** 2 >= np.diag(R_other).min() ** 2 - 1e-12


def test_right_lll_reduces_sparsity_of_skewed_basis():
    A = np.array([[1.0, 100.0], [0.0, 1.0]])
    _, R_none, _ = right_preprocess(A, "none")
    _, R_lll, _ = right_preprocess(A, "lll")
    assert sparsity_index(R_lll) < sparsity_index(R_none)


def test_greedy_order_examples():
    assert vblast_greedy_order(np.eye(3)) == [0, 1, 2]
    perm = vblast_greedy_order(np.diag([1.0, 3.0]))
    _, R = qr_decompose(np.diag([1.0, 3.0])[:, perm])
    other = [1, 0] if perm == [0, 1] else [0, 1]
    _, R2 = qr_decompose(np.diag([1.0, 3.0])[:, other])
    assert np.diag(R).min() ** 2 >= np.diag(R2).min() ** 2 - 1e-12


def test_greedy_order_against_exhaustive_4x4():
    import itertools
    rng = np.random.default_rng(5)
    optimal = 0
    trials = 60
    for _ in range(trials):
        A = rng.standard_normal((4, 4))
        perm = vblast_greedy_order(A)
        got = np.diag(qr_decompose(A[:, perm])[1]).min() ** 2
        allv = [np.diag(qr_decompose(A[:, list(p)])[1]).min() ** 2
                for p in itertools.permutations(range(4))]
        beaten = sum(got >= v - 1e-12 for v in allv)
        assert beaten >= 0.9 * len(allv)
        if got >= max(allv) * (1 - 1e-9):
            optimal += 1
    assert optimal >= 0.95 * trials


# ---------------------------------------------------------------------------
# tree forming and the back map


def test_form_tree_noiseless_babai_recovery():
    rng = latdec.frame_rng(0, 0)
    cfg = latdec.VblastConfig(M=2, N=2, Q=2, rho=10.0 ** 4.0)  # 40 dB
    inst = latdec.sample_vblast(cfg, rng, noiseless=True)
    prob = form_tree(inst.received, inst.H, inst.code, "mmse", "none", "lattice")
    out = latdec.gbb_run(prob, latdec.policy_babai())
    info = apply_back_map(out.decoded_label, prob.back_map)
    assert np.array_equal(info, inst.x_true)


def test_node_metric_matches_vector_norm():
    rng = np.random.default_rng(6)
    inst = latdec.sample_vblast(latdec.VblastConfig(M=3, N=3), latdec.frame_rng(1, 0))
    prob = form_tree(inst.received, inst.H, inst.code, "mmse", "lll", "lattice")
    for _ in range(20):
        x = rng.integers(-3, 4, size=prob.m)
        total = sum(node_metric(prob, tuple(x[: k + 1])) for k in range(prob.m))
        z_phys = x[::-1].astype(float)
        assert abs(total - np.sum((prob.y - prob.R @ z_phys) ** 2)) < 1e-9


def test_zf_isometry_of_true_codeword_metric():
    # square H, G = I: the tree metric of the transmitted label equals |z|^2
    rng = np.random.default_rng(7)
    m = 4
    H = rng.standard_normal((m, m))
    code = LatticeCode(np.eye(m), np.zeros(m), InfoSet("hypercube", q=3))
    x = rng.integers(0, 3, size=m)
    z = rng.standard_normal(m)
    received = H @ x.astype(float) + z
    prob = form_tree(received, H, code, "zf", "none", "constrained")
    label = tuple(int(v) for v in x[::-1])
    total = prob.path_metric(label)
    assert abs(total - z @ z) < 1e-9


def test_back_map_identity_and_roundtrip():
    rng = np.random.default_rng(8)
    inst = latdec.sample_vblast(latdec.VblastConfig(M=3, N=3), latdec.frame_rng(2, 0))
    prob = form_tree(inst.received, inst.H, inst.code, "mmse", "none", "lattice")
    x = rng.integers(-5, 6, size=prob.m)
    label = tuple(int(v) for v in x[::-1])
    assert np.array_equal(apply_back_map(label, prob.back_map), x)  # T = I

    prob2 = form_tree(inst.received, inst.H, inst.code, "mmse", "lll+permute", "lattice")
    T = prob2.back_map.record.T
    for _ in range(1000):
        x = rng.integers(-4, 5, size=prob2.m)
        z = np.asarray(T @ x.astype(object))  # forward map into search coordinates
        label = tuple(int(v) for v in z[::-1])
        assert np.array_equal(apply_back_map(label, prob2.back_map), x)


def test_back_map_passes_out_of_set_labels():
    # lattice decoding may land outside the information set: the back map
    # returns such a vector as it is, and it can never equal the transmitted one
    inst = latdec.sample_vblast(latdec.VblastConfig(M=2, N=2, Q=2), latdec.frame_rng(3, 0))
    prob = form_tree(inst.received, inst.H, inst.code, "mmse", "none", "lattice")
    info = apply_back_map((5, 0, 0, 0), prob.back_map)
    assert list(info) == [0, 0, 0, 5]
    assert not inst.code.info_set.contains(info)
    assert not np.array_equal(info, inst.x_true)
    assert inst.code.info_set.contains(apply_back_map((1, 0, 1, 0), prob.back_map))


def test_constrained_with_lll_rejected():
    inst = latdec.sample_vblast(latdec.VblastConfig(M=2, N=2, Q=2), latdec.frame_rng(4, 0))
    with pytest.raises(IncompatibleBoundary):
        form_tree(inst.received, inst.H, inst.code, "mmse", "lll", "constrained")
    prob = form_tree(inst.received, inst.H, inst.code, "mmse", "permute", "constrained")
    assert prob.boundary_q == 2


def test_lattice_invariance_through_T():
    # {R z} and {Q2^T R1 G x} describe the same lattice via z = T x
    rng = np.random.default_rng(9)
    inst = latdec.sample_vblast(latdec.VblastConfig(M=3, N=3), latdec.frame_rng(5, 0))
    lp = left_preprocess(inst.H, "mmse")
    B = lp.R1 @ inst.code.generator
    Q2, R, rec = right_preprocess(B, "lll+permute")
    for _ in range(100):
        x = rng.integers(-5, 6, size=B.shape[1])
        z = np.asarray(rec.T @ x.astype(object), dtype=float)
        assert np.abs(Q2.T @ (B @ x.astype(float)) - R @ z).max() < 1e-7
        x_back = np.asarray(rec.T_inv @ np.asarray(rec.T @ x.astype(object)), dtype=int)
        assert np.array_equal(x_back, x)
