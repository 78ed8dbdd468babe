import itertools
import json

import numpy as np
import pytest
from reference import (conv_generator_matrix_loop, gf2_row_reduce_scan, isi_toeplitz_loop,
                       poly_bits_shift)
from util import transmitted

import latdec
from latdec import channels
from latdec.errors import ConfigError, DimensionMismatch, InvalidTaps, RankDeficientCode


def test_qpsk_symbols_are_plus_minus_kappa():
    # Q=2: each real dimension is +-1 (unit variance per real dimension, so
    # the unit-energy complex constellation scaled by sqrt(2))
    cfg = latdec.VblastConfig(M=2, N=2, Q=2)
    inst = latdec.sample_vblast(cfg, latdec.frame_rng(0, 0))
    s = transmitted(inst)
    assert np.allclose(np.abs(s), 1.0)
    assert channels.pam_scale(2) == pytest.approx(1.0)


def test_noiseless_received_is_exact():
    cfg = latdec.VblastConfig(M=1, N=1, Q=4)
    inst = latdec.sample_vblast(cfg, latdec.frame_rng(1, 0), noiseless=True)
    assert np.allclose(inst.received, inst.H @ transmitted(inst))


def test_fixed_seed_replays_identically():
    cfg = latdec.VblastConfig(M=3, N=2, Q=4, rho=7.0)
    a = latdec.sample_vblast(cfg, latdec.frame_rng(42, 5))
    b = latdec.sample_vblast(cfg, latdec.frame_rng(42, 5))
    assert np.array_equal(a.H, b.H)
    assert np.array_equal(a.x_true, b.x_true)
    assert np.array_equal(a.received, b.received)
    c = latdec.sample_vblast(cfg, latdec.frame_rng(42, 6))
    assert not np.array_equal(a.received, c.received)


def test_symbol_energy_and_receive_snr():
    # empirical checks over 1e5 complex symbols: per-real-dimension symbol
    # variance 1 (unit-energy QAM times sqrt(2)) and receive SNR = rho
    cfg = latdec.VblastConfig(M=8, N=8, Q=4, rho=10.0 ** 1.2)
    energy = 0.0
    signal = 0.0
    frames = 12500
    for i in range(frames):
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(2, i), noiseless=True)
        s = transmitted(inst)
        energy += np.mean(s[: cfg.M] ** 2 + s[cfg.M:] ** 2)
        signal += np.mean(inst.received ** 2)
    energy /= frames
    signal /= frames  # noise has unit variance per real dimension
    assert abs(energy / 2.0 - 1.0) < 0.01  # = 1 in the unit-energy convention
    assert abs(signal / cfg.rho - 1.0) < 0.02


def test_embedding_consistency_with_complex_enumeration():
    # decoding the real embedding equals direct complex-distance minimization
    cfg = latdec.VblastConfig(M=2, N=2, Q=2, rho=6.0)
    for i in range(10):
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(3, i))
        ml = latdec.exhaustive_ml(inst)
        scale = np.sqrt(cfg.rho / cfg.M)
        Hc = (inst.H[: cfg.N, : cfg.M] + 1j * inst.H[cfg.N:, : cfg.M]) / scale
        rc = (inst.received[: cfg.N] + 1j * inst.received[cfg.N:])
        kappa = channels.pam_scale(cfg.Q)
        best = None
        for lab in itertools.product(range(cfg.Q), repeat=2 * cfg.M):
            lab = np.array(lab)
            sym = kappa * (2 * lab - (cfg.Q - 1))
            cc = sym[: cfg.M] + 1j * sym[cfg.M:]
            d = np.sum(np.abs(rc - scale * Hc @ cc) ** 2)
            if best is None or d < best[0]:
                best = (d, lab)
        assert np.array_equal(best[1], ml.label)


def test_ld_identity_generator_reduces_to_vblast():
    gen = np.eye(2, dtype=complex)
    cfg_ld = latdec.LdCodeConfig(generator_c=gen, M=2, N=2, T=1, Q=2, rho=5.0)
    cfg_vb = latdec.VblastConfig(M=2, N=2, Q=2, rho=5.0)
    a = latdec.build_ld_instance(cfg_ld, latdec.frame_rng(4, 0))
    b = latdec.sample_vblast(cfg_vb, latdec.frame_rng(4, 0))
    assert np.allclose(a.H, b.H)
    assert np.array_equal(a.x_true, b.x_true)
    assert np.allclose(a.received, b.received)


def test_ld_underdetermined_mmse_front_end():
    gen = channels.random_unitary(9, 1)
    cfg = latdec.LdCodeConfig(generator_c=gen, M=3, N=1, T=3, Q=2, rho=10.0)
    inst = latdec.build_ld_instance(cfg, latdec.frame_rng(5, 0))
    assert inst.H.shape == (6, 18)
    lp = latdec.left_preprocess(inst.H @ np.eye(18), "mmse")
    assert np.abs(lp.R1.T @ lp.R1 - (np.eye(18) + inst.H.T @ inst.H)).max() < 1e-9


def test_ld_noiseless_exhaustive_recovery():
    gen = channels.random_unitary(2, 2)
    cfg = latdec.LdCodeConfig(generator_c=gen, M=2, N=2, T=1, Q=2, rho=12.0)
    for i in range(20):
        inst = latdec.build_ld_instance(cfg, latdec.frame_rng(6, i), noiseless=True)
        ml = latdec.exhaustive_ml(inst)
        assert np.array_equal(ml.label, inst.x_true)
        assert ml.distance == pytest.approx(0.0, abs=1e-18)


def test_ld_generator_shape_checked():
    with pytest.raises(DimensionMismatch):
        latdec.LdCodeConfig(generator_c=np.eye(3, dtype=complex), M=2, N=1, T=1)


def test_isi_single_tap_is_identity():
    cfg = latdec.IsiConfig(taps=(1.0,), frame_len=5, rho=1.0)
    inst = latdec.build_isi_instance(cfg, latdec.frame_rng(7, 0))
    assert np.allclose(inst.H, np.eye(5))


def test_isi_five_tap_toeplitz_shape():
    taps = (0.848, -0.424, 0.2545, -0.1696, 0.0848)
    cfg = latdec.IsiConfig(taps=taps, frame_len=8, rho=1.0)
    inst = latdec.build_isi_instance(cfg, latdec.frame_rng(8, 0))
    assert inst.H.shape == (12, 8)
    assert np.allclose(inst.H[:5, 0], taps)
    assert np.allclose(inst.H[3:8, 3], taps)
    assert np.allclose(np.sum(np.asarray(taps) ** 2), 1.0, atol=1e-3)


def test_isi_instances_share_one_read_only_channel():
    taps = (0.848, -0.424, 0.2545, -0.1696, 0.0848)
    cfg = latdec.IsiConfig(taps=taps, frame_len=8, rho=4.0)
    a = latdec.build_isi_instance(cfg, latdec.frame_rng(8, 0))
    b = latdec.build_isi_instance(cfg, latdec.frame_rng(8, 1))
    assert a.H is b.H
    assert np.array_equal(a.H, 2.0 * channels.isi_toeplitz(taps, 8))
    with pytest.raises(ValueError):
        a.H[0, 0] = 1.0
    with pytest.raises(ValueError):
        a.H *= 2.0
    other = latdec.build_isi_instance(latdec.IsiConfig(taps=taps, frame_len=8, rho=9.0),
                                      latdec.frame_rng(8, 0))
    assert other.H is not a.H and np.array_equal(other.H, 3.0 * channels.isi_toeplitz(taps, 8))


def test_isi_instances_share_one_read_only_code():
    cfg = latdec.IsiConfig(taps=(0.848, -0.424, 0.2545), frame_len=12, gen_polys=(5, 7))
    a = latdec.build_isi_instance(cfg, latdec.frame_rng(8, 0))
    b = latdec.build_isi_instance(cfg, latdec.frame_rng(8, 1))
    assert a.code is b.code and a.code.info_set.kind == "explicit"
    for shared in (a.code.generator, a.code.translate, a.code.info_set.labels):
        with pytest.raises(ValueError):
            shared[0] = 1
        with pytest.raises(ValueError):
            shared *= 2


def test_vblast_instances_share_one_read_only_pam_code():
    cfg = latdec.VblastConfig(M=2, N=3, Q=4)
    a = latdec.sample_vblast(cfg, latdec.frame_rng(8, 0))
    b = latdec.sample_vblast(latdec.VblastConfig(M=2, N=1, Q=4, rho=3.0), latdec.frame_rng(8, 1))
    assert a.code is b.code and a.code.info_set.kind == "hypercube" and a.code.info_set.q == 4
    for shared in (a.code.generator, a.code.translate):
        with pytest.raises(ValueError):
            shared[0] = 1
        with pytest.raises(ValueError):
            shared *= 2
    c = latdec.sample_vblast(latdec.VblastConfig(M=2, N=3, Q=2), latdec.frame_rng(8, 0))
    assert c.code is not a.code and c.code.info_set.q == 2


def test_isi_invalid_taps():
    with pytest.raises(InvalidTaps):
        latdec.IsiConfig(taps=(), frame_len=4)
    with pytest.raises(InvalidTaps):
        latdec.IsiConfig(taps=(0.0, 0.0), frame_len=4)


def test_conv_systematic_rate1_identity():
    P, perm = channels.conv_code_systematic((1,), 4)
    assert P.shape == (0, 4)
    assert perm == [0, 1, 2, 3]


def test_conv_systematic_57_row_space():
    # the permuted systematic form spans exactly the terminated code
    k = 3
    M = channels.conv_generator_matrix((5, 7), k)
    P, perm = channels.conv_code_systematic((5, 7), k)
    m = M.shape[0]
    original = {tuple((M @ np.array(b)) % 2) for b in itertools.product((0, 1), repeat=k)}
    rebuilt = set()
    for b in itertools.product((0, 1), repeat=k):
        u = np.array(b)
        c_perm = np.concatenate([u, (P @ u) % 2])
        c = np.zeros(m, dtype=int)
        c[perm] = c_perm
        rebuilt.add(tuple(c))
    assert original == rebuilt


def test_conv_systematic_large_constraint_length():
    # 1024-state code: memory 10 after trimming the trailing zero tap
    P, _ = channels.conv_code_systematic((4672, 7542), 8)
    assert P.shape == (8 + 2 * 10, 8)  # m - k rows with m = 2*(8+10)


def test_conv_rank_deficient_rejected():
    with pytest.raises(RankDeficientCode):
        channels.conv_code_systematic((0,), 3)  # zero polynomial


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def _same_rref(M):
    (got, got_pivots), (want, want_pivots) = channels.gf2_row_reduce(M), gf2_row_reduce_scan(M)
    _same_array(got, want)
    assert got_pivots == want_pivots and all(type(c) is int for c in got_pivots)


def test_isi_construction_is_bit_identical_to_its_loop_forms():
    for v in range(0o4000):  # every octal polynomial below 4000
        p = int(oct(v)[2:])
        assert channels._poly_bits(p) == poly_bits_shift(p)
    for codes in ((1,), (0,), (2,), (5, 7), (13, 15, 17), (133, 171), (4672, 7542), (40, 7)):
        for k in range(1, 12):
            M = channels.conv_generator_matrix(codes, k)
            _same_array(M, conv_generator_matrix_loop(codes, k))
            _same_rref(M.T)
    rng = np.random.default_rng(47)
    for _ in range(2000):
        _same_rref(rng.integers(0, 2, size=rng.integers(0, 9, size=2)))
    for taps in ((1.0,), (1.0, 0.5), (0.848, -0.424, 0.2545, -0.1696, 0.0848)):
        for frame_len in range(0, 13):
            _same_array(channels.isi_toeplitz(taps, frame_len), isi_toeplitz_loop(taps, frame_len))


def test_negative_generator_polynomial_rejected():
    # a library caller skips parse_config's checks: this must raise, not hang
    with pytest.raises(ValueError, match="polynomial -5 is negative"):
        channels.conv_info_len((-5,), 12)
    cfg = latdec.IsiConfig(taps=(1.0,), frame_len=12, gen_polys=(-5,))
    with pytest.raises(ValueError, match="polynomial -5 is negative"):
        channels.build_isi_instance(cfg, latdec.frame_rng(0, 0))


def test_isi_coded_lattice_points_are_codewords():
    # all lattice labels reduce mod 2 to codewords of the terminated code
    cfg = latdec.IsiConfig(taps=(1.0,), frame_len=8, rho=1.0, gen_polys=(5, 7))
    inst = latdec.build_isi_instance(cfg, latdec.frame_rng(9, 0))
    k = inst.info_len
    assert k == 2
    Ga = inst.code.generator / (2 * channels.pam_scale(2))
    Mg = channels.conv_generator_matrix((5, 7), k)
    codewords = {tuple((Mg @ np.array(b)) % 2)
                 for b in itertools.product((0, 1), repeat=k)}
    for lab in inst.code.info_set.labels:
        pt = Ga @ lab
        assert np.allclose(pt, np.round(pt), atol=1e-9)
        assert tuple(np.round(pt).astype(int) % 2) in codewords


def test_isi_frame_incompatible_with_code():
    with pytest.raises(DimensionMismatch):
        cfg = latdec.IsiConfig(taps=(1.0,), frame_len=7, rho=1.0, gen_polys=(5, 7))
        latdec.build_isi_instance(cfg, latdec.frame_rng(10, 0))


def test_instance_json_roundtrip():
    cfg = latdec.IsiConfig(taps=(0.9, 0.1), frame_len=6, rho=2.0, gen_polys=(5, 7))
    inst = latdec.build_isi_instance(cfg, latdec.frame_rng(11, 0))
    text = inst.to_json()
    back = latdec.ChannelInstance.from_json(text)
    assert np.array_equal(back.H, inst.H)
    assert np.array_equal(back.x_true, inst.x_true)
    assert np.array_equal(back.received, inst.received)
    assert back.code.info_set.kind == inst.code.info_set.kind
    assert np.array_equal(back.code.info_set.labels, inst.code.info_set.labels)
    ml_a = latdec.exhaustive_ml(inst)
    ml_b = latdec.exhaustive_ml(back)
    assert np.array_equal(ml_a.label, ml_b.label)
    # dump files written before noise_var was dropped still load
    old = json.loads(text)
    old["noise_var"] = 1.0
    assert np.array_equal(latdec.ChannelInstance.from_json(json.dumps(old)).received,
                          inst.received)


def test_instance_json_rejects_a_missing_field_or_a_non_object():
    # the six fields are checked in a fixed order before any is read, so a
    # record without several of them names the first one missing
    rec = json.loads(latdec.sample_vblast(latdec.VblastConfig(M=2, N=2, Q=2),
                                          latdec.frame_rng(3, 0)).to_json())
    keys = ("H", "generator", "translate", "info_set", "x_true", "received")
    for i, key in enumerate(keys):
        partial = {k: v for k, v in rec.items() if k not in keys[i:]}
        with pytest.raises(ConfigError, match=f"^missing instance field {key!r}$"):
            latdec.ChannelInstance.from_json(json.dumps(partial))
    for text in ("[1, 2]", "null", '"H"'):
        with pytest.raises(ConfigError, match="^instance must be an object, got "):
            latdec.ChannelInstance.from_json(text)
