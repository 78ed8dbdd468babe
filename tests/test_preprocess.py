from dataclasses import replace

import numpy as np
import pytest

import latdec
from latdec.errors import IncompatibleBoundary, RankDeficient
from latdec.lattice import InfoSet, LatticeCode, lll_reduce
from latdec.linalg import complex_to_real_matrix, qr_decompose, triangular_columns
from latdec.preprocess import (apply_back_map, form_tree, left_preprocess,
                               right_preprocess, vblast_greedy_order)
from reference import greedy_order_pinv, sparsity_index
from util import contains, make_problem, node_metric, path_metric


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


@pytest.mark.parametrize("M", [2, 4, 8, 16])
def test_greedy_order_matches_pinv_reference(M):
    cfg = latdec.VblastConfig(M=M, N=M, Q=2, rho=10.0 ** 1.3)
    for i in range(40):
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(30 + M, i))
        B = left_preprocess(inst.H, "mmse").R1 @ inst.code.generator
        for A in (B, lll_reduce(B)[0], inst.H):
            assert vblast_greedy_order(A) == greedy_order_pinv(A)


def test_greedy_order_ties_are_stable():
    # The embedding gives the Re and Im columns j and j + 4 of a complex
    # 4 x 4 matrix exactly equal gains; the last tied column goes first,
    # whatever the rounding, so ulp perturbations move nothing.
    rng = np.random.default_rng(14)
    for _ in range(50):
        A = complex_to_real_matrix(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        perm = vblast_greedy_order(A)
        assert perm == greedy_order_pinv(A)
        assert perm[-1] >= 4
        for _ in range(4):
            nudged = A + rng.integers(-4, 5, size=A.shape) * np.spacing(A)
            assert vblast_greedy_order(nudged) == perm
            assert greedy_order_pinv(nudged) == perm


def test_greedy_order_rejects_rank_deficient():
    for A in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones((2, 3)), np.zeros((3, 2))):
        with pytest.raises(RankDeficient):
            vblast_greedy_order(A)


def test_greedy_order_rejects_a_basis_whose_diag_r_hides_the_rank_loss():
    # |diag R| = 1, 1, 0.1, but the downdated diagonal of P cancels to 0;
    # LLL reduces the basis first, so "lll+permute" orders it
    A = np.array([[1.0, 1e19, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.1]])
    for call in (lambda: vblast_greedy_order(A), lambda: right_preprocess(A, "permute")):
        with pytest.raises(RankDeficient):
            call()
    Q, R, rec = right_preprocess(A, "lll+permute")
    assert rec.verify()
    assert np.array_equal(np.abs(R), np.diag([0.1, 1.0, 1.0]))


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


def _elementwise_level_view(R, y):
    """The level view as TreeProblem built it one element at a time."""
    m = R.shape[0]
    lev_y = tuple(float(y[m - k]) for k in range(1, m + 1))
    lev_rows = tuple(tuple(float(R[m - k, m - j]) for j in range(1, k + 1))
                     for k in range(1, m + 1))
    return lev_rows, lev_y


def _level_view_streams():
    isi = latdec.IsiConfig(taps=(0.848, -0.424, 0.2545, -0.1696, 0.0848), frame_len=24,
                           gen_polys=(5, 7), rho=10.0 ** 0.65)
    yield "isi", lambda f: latdec.build_isi_instance(isi, latdec.frame_rng(3, 0, f))
    vb = latdec.VblastConfig(M=4, N=4, Q=2, rho=20.0)
    yield "vblast", lambda f: latdec.sample_vblast(vb, latdec.frame_rng(3, 1, f))
    ld = latdec.LdCodeConfig(generator_c=latdec.channels.random_unitary(6, 2), M=2, N=2,
                             T=3, rho=20.0)
    yield "ld", lambda f: latdec.build_ld_instance(ld, latdec.frame_rng(3, 2, f))


LEVEL_VIEW_STREAMS = list(_level_view_streams())


@pytest.mark.parametrize("name, frame", LEVEL_VIEW_STREAMS,
                         ids=[name for name, _ in LEVEL_VIEW_STREAMS])
def test_plan_level_view_equals_elementwise(name, frame):
    inst = frame(0)
    for right in ("none", "lll+permute"):
        plan = latdec.prepare_tree(inst.H, inst.code, "mmse", right)
        problems = [plan.problem_for(frame(f).received) for f in range(4)]
        for prob in problems:
            lev_rows, lev_y = _elementwise_level_view(prob.R, prob.y)
            assert prob.lev_rows == lev_rows and prob.lev_y == lev_y
            assert all(type(v) is float for row in prob.lev_rows for v in row)
            assert all(type(v) is float for v in prob.lev_y)
        assert all(p.lev_rows is problems[0].lev_rows for p in problems)
        own = latdec.TreeProblem(R=plan.R, y=problems[0].y, back_map=plan.back_map,
                                 boundary_q=None)
        assert own.lev_rows == problems[0].lev_rows and own.lev_rows is not plan.lev_rows


@pytest.mark.parametrize("diag", [-1.0, 0.0, np.nan, np.inf])
def test_tree_problem_needs_a_positive_finite_diagonal(diag):
    with pytest.raises(ValueError, match="positive, finite diagonal"):
        make_problem([[diag]], [0.4])


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
    total = path_metric(prob, label)
    assert abs(total - z @ z) < 1e-9


def test_back_map_identity_and_roundtrip():
    rng = np.random.default_rng(8)
    inst = latdec.sample_vblast(latdec.VblastConfig(M=3, N=3), latdec.frame_rng(2, 0))
    prob = form_tree(inst.received, inst.H, inst.code, "mmse", "none", "lattice")
    x = rng.integers(-5, 6, size=prob.m)
    label = tuple(int(v) for v in x[::-1])
    assert np.array_equal(apply_back_map(label, prob.back_map), x)  # T = I

    prob2 = form_tree(inst.received, inst.H, inst.code, "mmse", "lll+permute", "lattice")
    T = prob2.back_map.T
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
    assert not contains(inst.code.info_set, info)
    assert not np.array_equal(info, inst.x_true)
    assert contains(inst.code.info_set, apply_back_map((1, 0, 1, 0), prob.back_map))


def test_back_map_keeps_labels_past_int64():
    # past int64 the back map hands back the exact Python ints; within it,
    # an int64 array as before
    inst = latdec.sample_vblast(latdec.VblastConfig(M=2, N=2, Q=2), latdec.frame_rng(3, 0))
    prob = form_tree(inst.received, inst.H, inst.code, "mmse", "none", "lattice")
    big = 3 * 2**70
    info = apply_back_map((big, 0, -big, 1), prob.back_map)
    assert info.dtype == object and info.tolist() == [1, -big, 0, big]
    assert apply_back_map((5, 0, 0, 0), prob.back_map).dtype == np.int64


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


# ---------------------------------------------------------------------------
# bit identity with the earlier forms of the per-frame preprocessing


def _same_record(rec, rec0):
    for a, b in ((rec.T, rec0.T), (rec.T_inv, rec0.T_inv)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _oracle_bases():
    """About 1,000 bases of every shape the LLL loop and the ordering see,
    as (basis, delta, deep)."""
    for seed, db, frames in ((40, 13, 250), (41, 20, 250)):
        # 16-dimensional MMSE bases, upper triangular; 20 dB carries |mu| = 1/2 ties
        cfg = latdec.VblastConfig(M=8, N=8, Q=2, rho=10.0 ** (db / 10))
        for f in range(frames):
            inst = latdec.sample_vblast(cfg, latdec.frame_rng(seed, f))
            B = left_preprocess(inst.H, "mmse").R1 @ inst.code.generator
            yield B, 0.99, False
            if f % 4 == 0:
                yield B, 0.99, True
            elif f % 4 == 1:
                yield B, 0.75, False
    rng = np.random.default_rng(42)
    for _ in range(120):
        yield rng.standard_normal((8, 8)) * rng.uniform(0.5, 20.0), 0.99, False
    for _ in range(30):  # tall, so the loop starts from a QR
        yield rng.standard_normal((12, 8)), 0.99, bool(rng.integers(2))
    for n in (1, 2):
        for _ in range(40):
            yield rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3), 0.99, False
    yield np.array([[1.0, 1e19], [0.0, 1.0]]), 0.99, False  # records beyond int64
    inf = np.inf  # an infinite entry, on or off the diagonal, makes a basis rank deficient
    for B in ([[inf]], [[1.0, 0.0], [0.0, inf]], [[inf, 0.0], [0.0, 1.0]],
              [[1.0, inf], [0.0, 1.0]]):
        yield np.array(B), 0.99, False
    # at the edge of the "own R" test: upper triangular with a zero, a negative
    # or a NaN diagonal entry, or with a -0.0 (still triangular) or a subnormal
    # (no longer triangular) below the diagonal
    mmse = left_preprocess(latdec.sample_vblast(cfg, latdec.frame_rng(48, 0)).H, "mmse").R1
    for n in (1, 2, 5, 8):
        U = np.triu(rng.standard_normal((n, n))) + 3.0 * np.eye(n)
        for i in range(n):
            for v in (0.0, -U[i, i], np.nan):
                V = U.copy()
                V[i, i] = v
                yield V, 0.99, False
        for j in range(n - 1):
            for v in (-0.0, 5e-324):
                V = U.copy()
                V[n - 1, j] = v
                yield V, 0.99, False
    for v in (-0.0, 5e-324):
        V = mmse * 2.0
        V[np.tril_indices(16, -1)] = v
        yield V, 0.99, False
        yield V, 0.99, True
    # 24-dimensional ISI (5,7) MMSE bases, not triangular; a static channel,
    # so one basis per SNR
    isi = latdec.IsiConfig(taps=(0.848, -0.424, 0.2545, -0.1696, 0.0848), frame_len=24,
                           gen_polys=(5, 7))
    for db in np.arange(0.0, 13.0, 1.5):
        inst = latdec.build_isi_instance(replace(isi, rho=10.0 ** (db / 10)),
                                         latdec.frame_rng(49, 0))
        B = left_preprocess(inst.H, "mmse").R1 @ inst.code.generator
        yield B, 0.99, False
        yield B, 0.75, db > 6


def test_lll_is_free_of_an_exact_scale():
    # past SAFE_EXPONENT the loop runs on R 2^-e: B 2^k gives B's records
    # bit for bit, where the squares of B 2^k over- or underflow (2^700,
    # 2^-700) and where they do not (2^450)
    scaled = 0
    for B, delta, deep in _oracle_bases():
        with np.errstate(divide="ignore", invalid="ignore"):  # the NaN and inf bases
            want = _result_or_error(lll_reduce, B, delta, deep)
            if isinstance(want, type):
                continue
            for k in (-700, 450, 700):
                _same_record(lll_reduce(np.ldexp(B, k), delta, deep)[1], want[1])
                scaled += 1
    assert scaled > 3000


def _oracle_plan_streams():
    vb = latdec.VblastConfig(M=4, N=4, Q=2, rho=20.0)
    yield lambda f: latdec.sample_vblast(vb, latdec.frame_rng(43, f))
    ld = latdec.LdCodeConfig(generator_c=latdec.channels.random_unitary(6, 2), M=2, N=2,
                             T=3, rho=20.0)
    yield lambda f: latdec.build_ld_instance(ld, latdec.frame_rng(44, f))
    isi = latdec.IsiConfig(taps=(0.848, -0.424, 0.2545, -0.1696, 0.0848), frame_len=24,
                           gen_polys=(5, 7), rho=10.0 ** 0.65)
    yield lambda f: latdec.build_isi_instance(isi, latdec.frame_rng(45, f))


def _qr_or_none(qr, A):
    try:
        return qr(A)
    except RankDeficient:
        return None


def _result_or_error(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err)


def _same_result(got, want):
    """Equal results bit for bit (NaN equal to NaN), or the same exception type."""
    if isinstance(want, type):
        assert got is want
        return
    for a, b in zip(got, want):
        if isinstance(b, latdec.UnimodularRecord):
            _same_record(a, b)
        else:
            assert np.array_equal(a, b, equal_nan=True)


def test_preprocessing_is_bit_identical_to_its_oracles(monkeypatch):
    from latdec import preprocess
    from reference import (greedy_order_outer, lll_reduce_scan, qr_decompose_signs,
                           right_preprocess_composed)

    bases = raised = 0
    for B, delta, deep in _oracle_bases():
        with np.errstate(divide="ignore", invalid="ignore"):  # the 1e19, NaN and inf bases
            got = _result_or_error(lll_reduce, B, delta, deep)
            want = _result_or_error(lll_reduce_scan, B, delta, deep)
            _same_result(got, want)
            if not np.isfinite(B).all():  # every rank test must reject a NaN or inf basis
                for fn in (qr_decompose, lll_reduce, vblast_greedy_order, right_preprocess):
                    assert _result_or_error(fn, B) is RankDeficient
            for A in (B,) if isinstance(want, type) else (B, want[0]):
                if np.isfinite(A).all():  # the oracle fails apart on NaN gains
                    assert (_result_or_error(vblast_greedy_order, A)
                            == _result_or_error(greedy_order_outer, A))
            own_r = B.shape[0] == B.shape[1] and np.isfinite(B).all() \
                and np.all(np.diag(B) > 0) and not np.tril(B, -1).any()
            assert (triangular_columns(B) is not None) == own_r
            # the two QRs sign a NaN column apart, so a NaN basis meets only the test above
            modes = ("none", "lll+permute") if B.shape[1] <= 2 else ("none",)
            for mode in modes if np.isfinite(B).all() else ():
                # the permutation composed with Python-int records too
                _same_result(_result_or_error(right_preprocess, B, mode, delta, deep),
                             _result_or_error(right_preprocess_composed, B, mode, delta, deep))
        bases += 1
        raised += isinstance(want, type)
    assert bases > 1000 and 0 < raised < 100
    rng = np.random.default_rng(46)
    rejected = 0
    for _ in range(200):  # around the QR's rank threshold both must decide alike
        A = rng.standard_normal((8, 6))
        A[:, 5] = A[:, :5] @ rng.standard_normal(5) + 10.0 ** rng.uniform(-12, -8) * A[:, 5]
        got, want = (_qr_or_none(qr, A) for qr in (qr_decompose, qr_decompose_signs))
        assert (got is None) == (want is None)
        if got is None:
            rejected += 1
        else:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert 0 < rejected < 200
    for frame in _oracle_plan_streams():
        for f in range(30):
            inst = frame(f)
            for right in ("permute", "lll+permute"):
                plan = latdec.prepare_tree(inst.H, inst.code, "mmse", right)
                with monkeypatch.context() as patch:
                    patch.setattr(preprocess, "qr_decompose", qr_decompose_signs)
                    patch.setattr(preprocess, "right_preprocess", right_preprocess_composed)
                    plan0 = latdec.prepare_tree(inst.H, inst.code, "mmse", right)
                for name in ("R", "forward", "offset"):
                    assert np.array_equal(getattr(plan, name), getattr(plan0, name))
                _same_record(plan.back_map, plan0.back_map)
