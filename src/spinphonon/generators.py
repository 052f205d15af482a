"""Secular Lindblad generators at second and fourth perturbative order.

Conventions used throughout:

* Everything is expressed in the spin eigenbasis. The secular frequency of
  an ordered element (d, b) is w_db = E_d - E_b in cm^-1; elements with
  equal w (within a tolerance) form one SecularBlock.
* One-phonon jump operators: for mode alpha and block w,
  L_db = V^alpha_db on the block and gamma = pref * G2(w, w_alpha), with
  G2 = delta(w - w_a) n + delta(w + w_a) (n + 1).
* Two-phonon jump operators: each channel is a pair of phonon signs
  (s_a, s_b) from bath.CHANNEL_SIGNS, +1 absorbing and -1 emitting. For
  a mode pair (alpha, beta) the amplitude is V^a W^{b,-s_b} + V^b W^{a,-s_a}
  with W^{b,±}_cb = V^b_cb / (E_c - E_b ± w_b + i eta) (the sum over the
  virtual state c runs over every state), and
  gamma = pref * delta(w - s_a w_a - s_b w_b) times n (absorbed) or n + 1
  (emitted) for each mode. absorption_emission (+1, -1) runs over ordered
  pairs and so covers both Raman directions. The double-(de)excitation
  channels have equal signs, are pair-exchange symmetric, enumerate
  unordered pairs, and are off by default.
* pref = 2 pi * CM1_TO_RAD_S converts |L|^2 (cm^-2) times a kernel density
  (per cm^-1) into s^-1, so gamma |L|^2 is an honest rate.

The generator element form is the standard completely positive one,

  R_ab,cd = sum_k gamma_k [ L_ac L*_bd - 1/2 d_bd (L+L)_ac
                                       - 1/2 d_ac (L+L)_db ],

assembled from two accumulators: the Gram matrix M1[(ac),(bd)] of
sqrt(gamma) vec(L), and K = sum gamma L+L. The order-4 build is array
code on one thread: mode pairs are processed in chunks of PAIR_CHUNK in a
fixed order and partial sums are merged in chunk order, which bounds
memory and makes the result deterministic.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .bath import BathConfig, channel_occupation, channel_signs, channel_target, delta, g2
from .constants import CM1_TO_RAD_S
from .coupling import CouplingOperator
from .spin_model import Eigensystem

RATE_PREFACTOR = 2.0 * np.pi * CM1_TO_RAD_S

DEFAULT_SECULAR_TOL_CM1 = 1e-6
DEFAULT_REGULARIZER_CM1 = 1.0
# eta = 0 stays legal until a denominator actually vanishes; this is the
# "vanished" threshold in cm^-1
SINGULARITY_TOL_CM1 = 1e-12

# mode pairs per chunk of the order-4 build; bounds the amplitude stack
PAIR_CHUNK = 512


class SingularityError(ZeroDivisionError):
    """A T-matrix denominator hit zero with no regularizer."""


class BasisMismatchError(ValueError):
    """Operators from different eigenbases were mixed."""


@dataclass(frozen=True)
class SecularBlock:
    """All ordered index pairs sharing one Bohr frequency."""

    frequency_cm1: float
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Superoperator:
    """Vectorized generator R (row-major vec, d^2 x d^2) plus metadata."""

    order: int
    matrix: NDArray[np.complex128]
    basis: str
    dim: int

    def trace_defect(self) -> float:
        """max |sum_a R_(aa),(cd)| over columns, relative to ||R||."""
        d = self.dim
        rows = self.matrix.reshape(d, d, d * d)
        col_sums = np.abs(rows[np.arange(d), np.arange(d), :].sum(axis=0))
        norm = np.linalg.norm(self.matrix)
        return float(col_sums.max() / max(norm, 1e-300))

    def population_block(self) -> NDArray[np.float64]:
        """R_(bb),(aa) as a real (d, d) rate matrix."""
        d = self.dim
        idx = np.arange(d) * d + np.arange(d)
        return np.real(self.matrix[np.ix_(idx, idx)])


@dataclass(frozen=True)
class PairRateSums:
    """Jump-level rate sums for one state pair (a, b), in s^-1.

    half_t1_rate is 1/(2 T1); dephasing_rate is 1/T2*. Both accumulate the
    modulus-squared element sums over every jump operator.
    """

    half_t1_rate: float
    dephasing_rate: float


@dataclass(frozen=True)
class GeneratorResult:
    """Fast-path build output: the generator plus per-pair rate sums."""

    superoperator: Superoperator
    pair_sums: dict[tuple[int, int], PairRateSums]
    jump_count: int


def secular_partition(
    es: Eigensystem, tol_cm1: float = DEFAULT_SECULAR_TOL_CM1
) -> list[SecularBlock]:
    """Group all ordered index pairs by Bohr frequency w_db = E_d - E_b.

    Pairs are sorted by frequency and split where consecutive gaps exceed
    tol_cm1, so every pair lands in exactly one block. Kramers partners at
    zero field share the w = 0 block with the populations.
    """
    e = es.energies_cm1
    d = e.size
    dd, bb = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    freqs = (e[:, None] - e[None, :]).ravel()
    pairs = np.column_stack([dd.ravel(), bb.ravel()])
    order = np.lexsort((pairs[:, 1], pairs[:, 0], freqs))
    freqs, pairs = freqs[order], pairs[order]

    blocks = []
    start = 0
    for i in range(1, freqs.size + 1):
        if i == freqs.size or freqs[i] - freqs[i - 1] > tol_cm1:
            members = pairs[start:i]
            key = np.lexsort((members[:, 1], members[:, 0]))
            blocks.append(
                SecularBlock(
                    frequency_cm1=float(freqs[start:i].mean()),
                    pairs=tuple((int(p), int(q)) for p, q in members[key]),
                )
            )
            start = i
    return blocks


def _aligned_couplings(
    couplings: Sequence[CouplingOperator], bath: BathConfig
) -> tuple[NDArray[np.complex128], str]:
    """Stack coupling matrices in bath-mode order; enforce one basis."""
    if not couplings:
        raise ValueError("no coupling operators supplied")
    tags = {c.basis for c in couplings}
    if len(tags) > 1:
        raise BasisMismatchError(f"couplings from different bases: {sorted(tags)}")
    by_index = {c.mode_index: c for c in couplings}
    try:
        stack = np.stack([by_index[m.index].matrix for m in bath.modes])
    except KeyError as exc:
        raise KeyError(f"no coupling operator for mode index {exc.args[0]}") from None
    return stack, tags.pop()


def _denominators(energies: NDArray[np.float64], omega, sign, eta: float) -> NDArray[np.complex128]:
    # D_cb = E_c - E_b + sign*omega + i*eta (column b is the initial state);
    # array omega and sign give one matrix per entry
    shift = np.multiply(sign, omega)[..., None, None]
    d_real = energies[:, None] - energies[None, :] + shift
    if eta == 0.0 and np.min(np.abs(d_real)) < SINGULARITY_TOL_CM1:
        raise SingularityError(
            "zero denominator in the virtual-state sum; set a nonzero regularizer"
        )
    return d_real + 1j * eta


def _mode_pairs(
    signs: tuple[int, int], n_modes: int, allow_same_mode: bool
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """(alpha, beta) index arrays of one channel, alpha-major.

    Mixed signs tell absorb-alpha/emit-beta from its mirror, so they run
    over ordered pairs; equal signs are pair-exchange symmetric and take
    alpha > beta, with the same-mode pairs (if allowed) appended.
    """
    ia, ib = np.divmod(np.arange(n_modes * n_modes), n_modes)
    if signs[0] != signs[1]:
        keep = (ia != ib) | allow_same_mode
        return ia[keep], ib[keep]
    keep = ib < ia
    ia, ib = ia[keep], ib[keep]
    if allow_same_mode:
        same = np.arange(n_modes)
        ia, ib = np.concatenate([ia, same]), np.concatenate([ib, same])
    return ia, ib


def _finalize(m1: NDArray[np.complex128], k: NDArray[np.complex128], dim: int) -> NDArray[np.complex128]:
    # R[a,b,c,d] = M1[(a,c),(b,d)] - 1/2 d_bd K[a,c] - 1/2 d_ac K[d,b]
    r4 = m1.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3).copy()
    for b in range(dim):
        r4[:, b, :, b] -= 0.5 * k
    for a in range(dim):
        r4[a, :, a, :] -= 0.5 * k.T
    return r4.reshape(dim * dim, dim * dim)


class _BlockMeta:
    """Precomputed index arrays for fast per-block accumulation."""

    def __init__(self, block: SecularBlock, dim: int, rate_pairs: Sequence[tuple[int, int]]):
        rows = np.array([p for p, _ in block.pairs])
        cols = np.array([q for _, q in block.pairs])
        self.rows = rows
        self.cols = cols
        flat = rows * dim + cols
        self.m1_index = np.ix_(flat, flat)
        self.frequency = block.frequency_cm1
        # positions sharing a row feed K_(b_i b_j) += conj(G_ij)
        self.row_groups = []
        for r in np.unique(rows):
            pos = np.nonzero(rows == r)[0]
            self.row_groups.append((np.ix_(pos, pos), np.ix_(cols[pos], cols[pos])))
        # jump-level rate sums: which G entries feed T1 / T2* of each pair
        self.t1_positions = {}
        self.deph_positions = {}
        for a, b in rate_pairs:
            t1 = np.nonzero(((cols == a) & (rows != a)) | ((cols == b) & (rows != b)))[0]
            if t1.size:
                self.t1_positions[(a, b)] = t1
            ia = np.nonzero((rows == a) & (cols == a))[0]
            ib = np.nonzero((rows == b) & (cols == b))[0]
            if ia.size and ib.size:
                self.deph_positions[(a, b)] = (int(ia[0]), int(ib[0]))


class _Accumulator:
    """Chunk-local M1/K plus jump-level pair rate sums."""

    def __init__(self, dim: int, rate_pairs: Sequence[tuple[int, int]]):
        self.m1 = np.zeros((dim * dim, dim * dim), dtype=complex)
        self.k = np.zeros((dim, dim), dtype=complex)
        self.t1 = {p: 0.0 for p in rate_pairs}
        self.deph = {p: 0.0 for p in rate_pairs}
        self.jumps = 0

    def add(
        self,
        meta: _BlockMeta,
        gammas: NDArray[np.float64],
        mats: NDArray[np.complex128],
        drop_threshold: float,
    ):
        """Accumulate the jumps gamma_p, mats_p (restricted to the block).

        A jump is kept only when its total rate gamma_p ||L_p||_F^2 on the
        block exceeds drop_threshold (>= 0), so every counted jump carries
        rate.
        """
        y = mats[:, meta.rows, meta.cols]
        keep = gammas * (y.real**2 + y.imag**2).sum(axis=1) > drop_threshold
        if not keep.all():
            y, gammas = y[keep], gammas[keep]
            if gammas.size == 0:
                return
        # G_ij = sum_p gamma_p y_pi conj(y_pj): the gamma-weighted Gram of
        # the block elements across all jumps in this batch
        g = (gammas[:, None] * y).T @ y.conj()
        self.m1[meta.m1_index] += g
        for g_index, k_index in meta.row_groups:
            self.k[k_index] += np.conj(g[g_index])
        diag = np.real(np.diag(g))
        for pair, pos in meta.t1_positions.items():
            self.t1[pair] += 0.5 * float(diag[pos].sum())
        for pair, (ia, ib) in meta.deph_positions.items():
            self.deph[pair] += 0.5 * float(diag[ia] + diag[ib] - 2.0 * np.real(g[ia, ib]))
        self.jumps += gammas.size

    def merge(self, other: "_Accumulator"):
        self.m1 += other.m1
        self.k += other.k
        for p in self.t1:
            self.t1[p] += other.t1[p]
            self.deph[p] += other.deph[p]
        self.jumps += other.jumps


def build_generator(
    order: int,
    couplings: Sequence[CouplingOperator],
    bath: BathConfig,
    es: Eigensystem,
    *,
    blocks: Sequence[SecularBlock] | None = None,
    secular_tol_cm1: float = DEFAULT_SECULAR_TOL_CM1,
    regularizer_cm1: float = DEFAULT_REGULARIZER_CM1,
    channels: tuple[str, ...] = ("absorption_emission",),
    allow_same_mode: bool = False,
    workers: int = 1,
    rate_pairs: Sequence[tuple[int, int]] = (),
    drop_threshold: float = 0.0,
) -> GeneratorResult:
    """Assemble R^(order) without materializing jump operators.

    Organized for throughput: the virtual-state factors W are built once
    per mode and sign, amplitudes by batched matrix products per chunk of
    mode pairs, kernel weights by one array delta call per (chunk, block),
    and each secular block is accumulated with one small Gram product per
    chunk; per-pair T1/T2* jump sums are read off the same Grams.
    jump_count counts the jumps whose rate gamma ||L||^2 exceeds
    drop_threshold.

    workers is accepted for compatibility and ignored: the array build on
    one thread is faster than any thread pool over it.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    vstack, tag = _aligned_couplings(couplings, bath)
    dim = vstack.shape[1]
    if blocks is None:
        blocks = secular_partition(es, secular_tol_cm1)
    # the prefilter bisects on block frequencies, so keep them sorted
    blocks = sorted(blocks, key=lambda b: b.frequency_cm1)
    rate_pairs = [tuple(p) for p in rate_pairs]
    metas = [_BlockMeta(b, dim, rate_pairs) for b in blocks]
    block_freqs = np.array([b.frequency_cm1 for b in blocks])

    w_modes = bath.frequencies_cm1
    n_bar = bath.occupations()
    pol = bath.broadening

    if order == 2:
        acc = _Accumulator(dim, rate_pairs)
        gam = RATE_PREFACTOR * g2(block_freqs, bath)
        for meta, gam_block in zip(metas, gam):
            acc.add(meta, gam_block, vstack, drop_threshold)
        return _result_from(acc, order, tag, dim, rate_pairs)

    # the kernel is exactly zero outside this window, so the prefilter
    # drops only tasks that carry no weight
    window = pol.window_cm1
    # every (channel, alpha, beta) task in a fixed order, which defines the
    # reduction order; keep those whose target hits some block window
    tasks = [np.zeros((4, 0), dtype=int)]
    for channel in channels:
        signs = channel_signs(channel)
        ia, ib = _mode_pairs(signs, len(bath.modes), allow_same_mode)
        tasks.append(np.stack([np.full(ia.size, signs[0]), np.full(ia.size, signs[1]), ia, ib]))
    s_a, s_b, ia, ib = np.concatenate(tasks, axis=1)
    target = channel_target(s_a, s_b, w_modes[ia], w_modes[ib])
    lo = np.searchsorted(block_freqs, target - window, side="left")
    hi = np.searchsorted(block_freqs, target + window, side="right")
    hit = hi > lo
    s_a, s_b, ia, ib, target, lo, hi = (x[hit] for x in (s_a, s_b, ia, ib, target, lo, hi))
    occ = channel_occupation(s_a, s_b, n_bar[ia], n_bar[ib])

    # virt[m, k] = W^{m,s} with s = +1 (k = 0) or -1 (k = 1), built only for
    # the (mode, sign) pairs in use: task amplitude V_a W_b^{-s_b} + V_b W_a^{-s_a}
    k_a, k_b = (1 + s_a) // 2, (1 + s_b) // 2
    used = np.zeros((len(bath.modes), 2), dtype=bool)
    used[ia, k_a] = used[ib, k_b] = True
    m_used, k_used = np.nonzero(used)
    virt = np.zeros((len(bath.modes), 2, dim, dim), dtype=complex)
    if m_used.size:
        virt[m_used, k_used] = vstack[m_used] / _denominators(
            es.energies_cm1, w_modes[m_used], 1 - 2 * k_used, regularizer_cm1
        )

    total = _Accumulator(dim, rate_pairs)
    for start in range(0, ia.size, PAIR_CHUNK):
        c = slice(start, start + PAIR_CHUNK)
        amps = vstack[ia[c]] @ virt[ib[c], k_b[c]] + vstack[ib[c]] @ virt[ia[c], k_a[c]]
        lo_c, hi_c, target_c, occ_c = lo[c], hi[c], target[c], occ[c]
        acc = _Accumulator(dim, rate_pairs)
        for bidx in range(lo_c.min(), hi_c.max()):
            sel = np.flatnonzero((lo_c <= bidx) & (bidx < hi_c))
            if sel.size:
                meta = metas[bidx]
                gam = RATE_PREFACTOR * delta(meta.frequency, target_c[sel], pol) * occ_c[sel]
                acc.add(meta, gam, amps[sel], drop_threshold)
        total.merge(acc)
    return _result_from(total, order, tag, dim, rate_pairs)


def _result_from(acc: _Accumulator, order, tag, dim, rate_pairs) -> GeneratorResult:
    sup = Superoperator(order=order, matrix=_finalize(acc.m1, acc.k, dim), basis=tag, dim=dim)
    defect = sup.trace_defect()
    if defect > 1e-10:
        raise RuntimeError(f"generator violates trace preservation: {defect:.3e}")
    sums = {
        p: PairRateSums(half_t1_rate=acc.t1[p], dephasing_rate=acc.deph[p]) for p in rate_pairs
    }
    return GeneratorResult(superoperator=sup, pair_sums=sums, jump_count=acc.jumps)
