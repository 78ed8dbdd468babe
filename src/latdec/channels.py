"""Channel instance generators: flat-fading antenna arrays, linear dispersion
codes, and ISI channels with convolutional-code lattices.

All generators produce the same real-valued record: received = H (c + v) + z
with z ~ N(0, I), codeword c = G x_true, and the signal-to-noise ratio folded
into the scale of H.  Symbols map to PAM levels kappa * (2x - (Q-1)) with
kappa = sqrt(3 / (Q^2 - 1)), i.e. unit variance per real dimension, so the
decision-feedback front-end built from the augmented matrix [H; I] is matched
to the signal statistics.  (This is the unit-energy QAM model rescaled by
sqrt(2): the received-signal distribution is identical and the per-antenna
receive SNR equals cfg.rho.)

Randomness: pass a numpy Generator.  frame_rng(seed, *key) derives
independent, reproducible substreams from numpy's SeedSequence, so frame i
of a sweep is the same no matter how many workers produced it.
"""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DimensionMismatch, InvalidTaps, RankDeficientCode
from .lattice import InfoSet, LatticeCode, construction_a
from .linalg import complex_to_real_matrix


def frame_rng(seed, *key):
    """Independent substream for one frame: hash of (seed, key) via SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def pam_scale(q):
    """kappa giving unit symbol variance per real dimension."""
    return np.sqrt(3.0 / (q * q - 1.0))


@lru_cache(maxsize=16)
def _pam_code(m, q, kappa):
    """Uncoded PAM lattice code; cached like _isi_lattice, so read-only."""
    g = 2.0 * kappa * np.eye(m)
    v = -kappa * (q - 1) * np.ones(m)
    g.flags.writeable = v.flags.writeable = False
    return LatticeCode(generator=g, translate=v, info_set=InfoSet("hypercube", q=q))


@dataclass
class VblastConfig:
    M: int            # transmit antennas
    N: int            # receive antennas
    Q: int = 2        # per-real-dimension alphabet; constellation is Q^2-QAM
    rho: float = 10.0  # linear SNR per receive antenna

    def __post_init__(self):
        if self.M < 1 or self.N < 1 or self.Q < 2 or self.rho <= 0:
            raise ValueError("need M, N >= 1, Q >= 2, rho > 0")


@dataclass
class LdCodeConfig:
    generator_c: np.ndarray  # complex (M*T x M*T) dispersion map
    M: int
    N: int
    T: int
    Q: int = 2
    rho: float = 10.0

    def __post_init__(self):
        self.generator_c = np.asarray(self.generator_c, dtype=complex)
        s = self.M * self.T
        if self.generator_c.shape != (s, s):
            raise DimensionMismatch(
                f"dispersion map must be {s}x{s}, got {self.generator_c.shape}")


@dataclass
class IsiConfig:
    taps: tuple                 # impulse response (h_0 .. h_L)
    frame_len: int              # transmitted symbols per frame (m)
    rho: float = 10.0
    Q: int = 2
    gen_polys: tuple | None = None  # octal generator polynomials, e.g. (5, 7)

    def __post_init__(self):
        self.taps = tuple(float(t) for t in self.taps)
        if len(self.taps) < 1 or not any(self.taps):
            raise InvalidTaps("need at least one nonzero tap")


@dataclass
class ChannelInstance:
    """One realized frame of the linear model received = H (G x + v) + z."""

    H: np.ndarray
    code: LatticeCode
    x_true: np.ndarray
    received: np.ndarray
    info_len: int | None = None  # symbols carrying information (BER); None = all

    def to_json(self):
        rec = {
            "H": self.H.tolist(),
            "generator": self.code.generator.tolist(),
            "translate": self.code.translate.tolist(),
            "info_set": {"kind": self.code.info_set.kind, "q": self.code.info_set.q},
            "x_true": self.x_true.tolist(),
            "received": self.received.tolist(),
            "info_len": self.info_len,
        }
        if self.code.info_set.kind == "explicit":
            rec["info_set"]["labels"] = self.code.info_set.labels.tolist()
        return json.dumps(rec)

    @classmethod
    def from_json(cls, text):
        """Read a to_json record; a missing or malformed field raises
        ConfigError naming it."""
        rec = _fields("instance", json.loads(text),
                      ("H", "generator", "translate", "info_set", "x_true", "received"))
        iset = rec["info_set"]
        if not isinstance(iset, dict) or "kind" not in iset:
            raise ConfigError("instance field 'info_set' must be an object with a 'kind'")
        try:
            labels = np.asarray(iset["labels"], dtype=int) \
                if iset.get("labels") is not None and iset["kind"] == "explicit" else None
            info_set = InfoSet(iset["kind"], q=iset.get("q"), labels=labels)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"instance field 'info_set': {err}") from None
        code = LatticeCode(generator=_record_array(rec, "generator", 2),
                           translate=_record_array(rec, "translate", 1), info_set=info_set)
        H = _record_array(rec, "H", 2)
        x_true = _record_array(rec, "x_true", 1)
        received = _record_array(rec, "received", 1)
        if info_set.kind == "explicit" and info_set.labels.shape[1] != code.dim:
            raise ConfigError(f"instance field 'info_set' has labels {info_set.labels.shape[1]} "
                              f"wide, not the code dimension {code.dim}")
        if H.shape[1] != code.dim:
            raise ConfigError(f"instance field 'H' has {H.shape[1]} columns, "
                              f"not the code dimension {code.dim}")
        if len(x_true) != code.dim:
            raise ConfigError(f"instance field 'x_true' has {len(x_true)} entries, "
                              f"not the code dimension {code.dim}")
        if (x_true % 1 != 0).any():
            raise ConfigError("instance field 'x_true' must hold integers")
        if len(received) != len(H):
            raise ConfigError(f"instance field 'received' has {len(received)} entries, "
                              f"not the {len(H)} rows of H")
        return cls(H=H, code=code, x_true=x_true.astype(int), received=received,
                   info_len=rec.get("info_len"))


def _fields(section, d, keys):
    """d, once it is an object holding each of keys; else ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be an object, got {d!r}")
    for key in keys:
        if key not in d:
            raise ConfigError(f"missing {section} field {key!r}")
    return d


def _record_array(rec, key, ndim, section="instance"):
    """rec[key] as an ndim-dimensional array of finite floats; else
    ConfigError naming key."""
    try:
        arr = np.asarray(rec[key], dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != ndim:
        raise ConfigError(f"{section} field {key!r} must be a {ndim}-dimensional numeric array")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{section} field {key!r} must hold finite numbers")
    return arr


def draw_mimo_channel(cfg, rng):
    """i.i.d. CN(0,1) channel matrix for a VblastConfig or LdCodeConfig."""
    return (rng.standard_normal((cfg.N, cfg.M))
            + 1j * rng.standard_normal((cfg.N, cfg.M))) / np.sqrt(2.0)


def sample_vblast(cfg: VblastConfig, rng, noiseless=False, channel=None):
    """Draw one uncoded flat-fading frame in the real-valued model."""
    Hc = draw_mimo_channel(cfg, rng) if channel is None else channel
    H = np.sqrt(cfg.rho / cfg.M) * complex_to_real_matrix(Hc)
    m = 2 * cfg.M
    code = _pam_code(m, cfg.Q, pam_scale(cfg.Q))
    x = rng.integers(0, cfg.Q, size=m)
    z = np.zeros(2 * cfg.N) if noiseless else rng.standard_normal(2 * cfg.N)
    received = H @ (code.generator @ x + code.translate) + z
    return ChannelInstance(H=H, code=code, x_true=x, received=received)


def random_unitary(s, seed):
    """Deterministic complex unitary via QR of a seeded Gaussian matrix."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))[np.newaxis, :]


def build_ld_instance(cfg: LdCodeConfig, rng, noiseless=False, channel=None):
    """Draw one linear-dispersion coded frame.

    The channel is I_T (x) embed(H^c); the code generator is the real
    embedding of the complex dispersion map applied to the PAM lattice.
    Supports wide systems (more unknowns than observations) for which only
    the MMSE front-end applies.
    """
    Hc = draw_mimo_channel(cfg, rng) if channel is None else channel
    Hblk = np.kron(np.eye(cfg.T), complex_to_real_matrix(Hc))
    H = np.sqrt(cfg.rho / cfg.M) * Hblk
    m = 2 * cfg.M * cfg.T
    kappa = pam_scale(cfg.Q)
    D = complex_to_real_matrix(cfg.generator_c)
    G = 2.0 * kappa * D
    v = D @ (-kappa * (cfg.Q - 1) * np.ones(m))
    code = LatticeCode(generator=G, translate=v, info_set=InfoSet("hypercube", q=cfg.Q))
    x = rng.integers(0, cfg.Q, size=m)
    z = np.zeros(H.shape[0]) if noiseless else rng.standard_normal(H.shape[0])
    received = H @ (G @ x + v) + z
    return ChannelInstance(H=H, code=code, x_true=x, received=received)


def isi_toeplitz(taps, frame_len):
    """Tall banded Toeplitz convolution matrix, (frame_len + L) x frame_len."""
    taps = np.asarray(taps, dtype=float)
    H = np.zeros((frame_len + len(taps) - 1, frame_len))
    j = np.arange(frame_len)
    for d, tap in enumerate(taps):
        H[j + d, j] = tap
    return H


def _poly_bits(p):
    """Octal generator polynomial -> tap bits, lowest delay first.

    Trailing zero taps are trimmed so the memory reflects the true
    constraint length (e.g. octal 4672 has memory 10, 1024 states).
    """
    val = int(str(p), 8)
    if val < 0:
        raise ValueError(f"generator polynomial {p!r} is negative")
    return [int(b) for b in bin(val)[2:].rstrip("0") or "0"]


def conv_info_len(gen_polys, frame_len):
    """Information symbols in a frame of frame_len coded symbols of the
    zero-tail terminated rate-1/n code; DimensionMismatch when none fit."""
    mem = max(len(_poly_bits(p)) for p in gen_polys) - 1
    n_out = len(gen_polys)
    if frame_len % n_out != 0 or frame_len // n_out - mem < 1:
        raise DimensionMismatch(
            f"frame_len {frame_len} incompatible with rate-1/{n_out} code of memory {mem}")
    return frame_len // n_out - mem


def conv_generator_matrix(gen_polys, info_len):
    """Zero-tail terminated convolutional code as an (m x k) binary matrix.

    Column i is the coded response to info bit i; outputs are interleaved
    per time step.  m = n_polys * (info_len + memory).
    """
    taps = [_poly_bits(p) for p in gen_polys]
    mem = max(len(t) for t in taps) - 1
    n_out = len(gen_polys)
    M = np.zeros((n_out * (info_len + mem), info_len), dtype=int)
    i = np.arange(info_len)
    for p, tap in enumerate(taps):
        for d in np.flatnonzero(tap):  # output p at time i + d sees info bit i
            M[(i + d) * n_out + p, i] = 1
    return M


def gf2_row_reduce(M):
    """Reduced row echelon form over GF(2); returns (rref, pivot_columns)."""
    A = np.asarray(M, dtype=int) % 2
    pivots = []
    for c in range(A.shape[1]):
        r = len(pivots)
        below = np.flatnonzero(A[r:, c])  # empty once every row holds a pivot
        if not below.size:
            continue
        A[[r, r + below[0]]] = A[[r + below[0], r]]
        hit = A[:, c] == 1
        hit[r] = False
        A[hit] ^= A[r]  # clear column c outside the pivot row
        pivots.append(c)
    return A, pivots


def conv_code_systematic(gen_polys, info_len):
    """Systematic parity block P of the terminated code, plus the coordinate
    permutation that moves the pivot positions to the front.

    The row space of the k x m generator matrix is reduced over GF(2); the
    permuted code has column-form generator [I; P], ready for the integer
    lattice lift.  Raises RankDeficientCode if the code has rank < k.
    """
    M = conv_generator_matrix(gen_polys, info_len)
    m, k = M.shape
    rref, pivots = gf2_row_reduce(M.T)
    if len(pivots) < k:
        raise RankDeficientCode(f"code rank {len(pivots)} < {k}")
    nonpivots = [c for c in range(m) if c not in pivots]
    P = rref[:, nonpivots].T % 2  # (m-k) x k
    perm = list(pivots) + nonpivots
    return P, perm


def coded_labels(P, q, u):
    """Lattice label (u, t) whose image under [[I,0],[P,qI]] reduces mod q to the codeword."""
    u = np.asarray(u, dtype=int)
    t = -((P @ u) // q)  # P u + q t = (P u) mod q
    return np.concatenate([u, t])


# an ISI code with at most this many codewords lists them as an explicit info set
EXPLICIT_LABEL_LIMIT = 2**16


@lru_cache(maxsize=16)
def _isi_lattice(gen_polys, frame, q, kappa):
    """Construction-A lattice code of a terminated convolutional code; cached
    because it is identical for every frame of a sweep, so its arrays are
    read-only."""
    k = conv_info_len(gen_polys, frame)
    P, perm = conv_code_systematic(gen_polys, k)
    Ga_perm = construction_a(P, q)
    Ga = np.zeros_like(Ga_perm)
    Ga[perm, :] = Ga_perm  # undo the coordinate permutation
    G = 2.0 * kappa * Ga.astype(float)
    v = -kappa * (q - 1) * np.ones(frame)
    labels = None
    if q**k <= EXPLICIT_LABEL_LIMIT:
        us = (np.arange(q**k)[:, None] // q ** np.arange(k - 1, -1, -1)[None, :]) % q
        labels = np.hstack([us, -((us @ P.T) // q)])
    iset = InfoSet("explicit", labels=labels) if labels is not None \
        else InfoSet("unconstrained")
    code = LatticeCode(generator=G, translate=v, info_set=iset)
    for shared in (code.generator, code.translate, iset.labels, P):
        if shared is not None:
            shared.flags.writeable = False
    return code, P, k


@lru_cache(maxsize=16)
def _isi_channel(taps, frame_len, rho):
    """Scaled Toeplitz channel; cached because an ISI channel is static, so
    every frame of a sweep point shares it.  Read-only for that reason."""
    H = np.sqrt(rho) * isi_toeplitz(taps, frame_len)
    H.flags.writeable = False
    return H


def build_isi_instance(cfg: IsiConfig, rng, noiseless=False):
    """Draw one ISI frame: banded Toeplitz channel, PAM symbols, optional
    convolutional coding via the mod-Q lattice lift.  Instances with the
    same taps, frame length and SNR share one read-only H."""
    frame = cfg.frame_len
    H = _isi_channel(tuple(cfg.taps), frame, cfg.rho)
    kappa = pam_scale(cfg.Q)
    if cfg.gen_polys is None:
        code = _pam_code(frame, cfg.Q, kappa)
        x = rng.integers(0, cfg.Q, size=frame)
        info_len = frame
    else:
        code, P, k = _isi_lattice(tuple(cfg.gen_polys), frame, cfg.Q, kappa)
        u = rng.integers(0, cfg.Q, size=k)
        x = coded_labels(P, cfg.Q, u)
        info_len = k
    z = np.zeros(H.shape[0]) if noiseless else rng.standard_normal(H.shape[0])
    received = H @ (code.generator @ x + code.translate) + z
    return ChannelInstance(H=H, code=code, x_true=x, received=received, info_len=info_len)
