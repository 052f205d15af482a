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

and the build keeps one accumulator: the Gram matrix M1[(ac),(bd)] of
sqrt(gamma) vec(L). K = sum gamma L+L, R and what the T1/T2*/T2 rates of
every state pair need are functions of M1 and are read off it in
_finalize; GeneratorResult.pair_sums turns them into the pair's rates.
The order-4 build is array code on one thread: mode pairs are processed
in chunks of PAIR_CHUNK in a fixed order and each chunk's block Grams are
added to M1 in that order, which bounds memory and makes the result
deterministic.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .bath import BathConfig, channel_occupation, channel_signs, channel_target, delta, g2
from .constants import CM1_TO_RAD_S
from .coupling import CouplingOperator
from .spin_model import Eigensystem, split_at_gaps

RATE_PREFACTOR = 2.0 * np.pi * CM1_TO_RAD_S

DEFAULT_SECULAR_TOL_CM1 = 1e-6
DEFAULT_REGULARIZER_CM1 = 1.0
# eta = 0 stays legal until a denominator actually vanishes; this is the
# "vanished" threshold in cm^-1
SINGULARITY_TOL_CM1 = 1e-12

# mode pairs per chunk of the order-4 build; bounds the amplitude stack
PAIR_CHUNK = 512

# Each jump amplitude carries round-off of about eps ||L||, so a pure
# dephasing sum below this multiple of eps^2 sum_k gamma_k ||L_k||^2 is
# not resolved and reads as 0; so does a negative round-off sum. The
# vanishing order-2 sums of four_level written in a rotated frame measure
# at most 2e-3 of eps^2 sum_k gamma_k ||L_k||^2 and the bundled decks'
# nonzero sums at least 5e21 of it, so 16 sits well clear of both.
DEPHASING_FLOOR_EPS2 = 16.0


class SingularityError(ZeroDivisionError):
    """A T-matrix denominator hit zero with no regularizer."""


class BasisMismatchError(ValueError):
    """Operators from different eigenbases were mixed."""


@dataclass(frozen=True)
class SecularBlock:
    """All ordered index pairs (d, b) sharing one Bohr frequency.

    rows and cols hold the pairs' d and b, and m1_index the block's entries
    of the Gram matrix M1; secular_partition builds them once per block.
    """

    frequency_cm1: float
    rows: NDArray[np.int64] = field(repr=False, compare=False)
    cols: NDArray[np.int64] = field(repr=False, compare=False)
    m1_index: tuple = field(repr=False, compare=False)


@dataclass(frozen=True)
class Superoperator:
    """Vectorized generator R (row-major vec, d^2 x d^2) on d states."""

    matrix: NDArray[np.complex128]
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
    """Rate sums for one state pair (a, b), in s^-1.

    half_t1_rate is 1/(2 T1) and dephasing_rate is 1/T2*, both
    modulus-squared element sums over every jump operator; coherence_rate
    is 1/T2 = -Re R_(ab),(ab). Each is linear in M1, so the order-2 and
    order-4 sums add up to the sums of R2 + R4.
    """

    half_t1_rate: float
    dephasing_rate: float
    coherence_rate: float


@dataclass(frozen=True)
class GeneratorResult:
    """Build output: the generator plus what the pair rate sums need.

    weights[r, a] = sum_k gamma_k |L_k,ra|^2 (s^-1) and diagonal_gram[a, b]
    = sum_k gamma_k L_k,aa conj(L_k,bb) are entries of the Gram matrix M1.
    pair_sums is the one place T1, T2* and T2 rates are read.
    """

    superoperator: Superoperator
    jump_count: int
    weights: NDArray[np.float64]
    diagonal_gram: NDArray[np.complex128]

    def pair_sums(self, a: int, b: int) -> PairRateSums:
        """1/(2 T1), 1/T2* and 1/T2 of the state pair (a, b).

        1/(2 T1) = 1/2 (sum_{r != a} W_ra + sum_{r != b} W_rb),
        1/T2* = 1/2 (W_aa + W_bb - 2 Re P_ab), i.e. 1/2 sum_k gamma_k
        |L_k,aa - L_k,bb|^2, and 1/T2 = -Re R_(ab),(ab), the coherence's
        diagonal generator element. A 1/T2* below the round-off floor
        (DEPHASING_FLOOR_EPS2), a negative one included, reads as 0.
        """
        w = self.weights
        half_t1 = 0.5 * (np.delete(w[:, a], a).sum() + np.delete(w[:, b], b).sum())
        dephasing = 0.5 * (w[a, a] + w[b, b] - 2.0 * np.real(self.diagonal_gram[a, b]))
        if dephasing < DEPHASING_FLOOR_EPS2 * np.finfo(float).eps ** 2 * w.sum():
            dephasing = 0.0
        sup = self.superoperator
        idx = a * sup.dim + b
        return PairRateSums(
            half_t1_rate=float(half_t1),
            dephasing_rate=float(dephasing),
            coherence_rate=-float(np.real(sup.matrix[idx, idx])),
        )


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
    for cluster in split_at_gaps(freqs, tol_cm1):
        members = pairs[cluster]
        rows, cols = members[np.lexsort((members[:, 1], members[:, 0]))].T
        flat = rows * d + cols
        blocks.append(
            SecularBlock(
                frequency_cm1=float(freqs[cluster].mean()),
                rows=rows,
                cols=cols,
                m1_index=np.ix_(flat, flat),
            )
        )
    return blocks


def _aligned_couplings(
    couplings: Sequence[CouplingOperator], bath: BathConfig
) -> NDArray[np.complex128]:
    """Stack coupling matrices in bath-mode order; enforce one basis."""
    if not couplings:
        raise ValueError("no coupling operators supplied")
    tags = {c.basis for c in couplings}
    if len(tags) > 1:
        raise BasisMismatchError(f"couplings from different bases: {sorted(tags)}")
    by_index = {c.mode_index: c for c in couplings}
    try:
        return np.stack([by_index[m.index].matrix for m in bath.modes])
    except KeyError as exc:
        raise KeyError(f"no coupling operator for mode index {exc.args[0]}") from None


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


def _finalize(m1: NDArray[np.complex128], dim: int):
    """R, W and P, all read off the Gram matrix M1 here and nowhere else.

    With m[a, c, b, d] = M1[(a,c),(b,d)] = sum_k gamma_k L_ac conj(L_bd):
    K[c, d] = sum_a conj m[a, c, a, d], R[a,b,c,d] = m[a,c,b,d]
    - 1/2 d_bd K[a,c] - 1/2 d_ac K[d,b], W[r, a] = m[r, a, r, a] and
    P[a, b] = m[a, a, b, b].
    """
    m = m1.reshape(dim, dim, dim, dim)
    diag = np.arange(dim)
    k = np.conj(m[diag, :, diag, :]).sum(axis=0, initial=0.0)
    r4 = m.transpose(0, 2, 1, 3).copy()
    r4[:, diag, :, diag] -= 0.5 * k
    r4[diag, :, diag, :] -= 0.5 * k.T
    weights = np.real(np.diagonal(m1)).reshape(dim, dim)
    pops = diag * (dim + 1)
    return r4.reshape(dim * dim, dim * dim), weights, m1[np.ix_(pops, pops)]


def _add_block(m1, block: SecularBlock, gammas, y) -> int:
    """Add the Gram of the jumps gamma_p, y_p into M1.

    y_p holds jump p's entries on the block (at block.rows, block.cols). A
    jump is kept only when its total rate gamma_p ||L_p||_F^2 on the block
    is positive, so every counted jump carries rate. Returns the number
    kept.
    """
    keep = gammas * (y.real**2 + y.imag**2).sum(axis=1) > 0.0
    y, gammas = y[keep], gammas[keep]
    # G_ij = sum_p gamma_p y_pi conj(y_pj); blocks own disjoint M1 entries
    m1[block.m1_index] += (gammas[:, None] * y).T @ y.conj()
    return gammas.size


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
) -> GeneratorResult:
    """Assemble R^(order) without materializing jump operators.

    Organized for throughput: the virtual-state factors W are built once
    per mode and sign, amplitudes by batched matrix products per chunk of
    mode pairs, kernel weights by one array delta call per chunk, and each
    secular block is accumulated with one small Gram product per
    chunk into the Gram matrix M1, which R, K and the pair T1/T2* sums
    (GeneratorResult.pair_sums) are all read off.
    jump_count counts the jumps whose rate gamma ||L||^2 is positive.

    workers is accepted for compatibility and ignored: the array build on
    one thread is faster than any thread pool over it.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    vstack = _aligned_couplings(couplings, bath)
    dim = vstack.shape[1]
    if blocks is None:
        blocks = secular_partition(es, secular_tol_cm1)
    # the prefilter bisects on block frequencies, so keep them sorted
    blocks = sorted(blocks, key=lambda b: b.frequency_cm1)
    block_freqs = np.array([b.frequency_cm1 for b in blocks])

    w_modes = bath.frequencies_cm1
    n_bar = bath.occupations()
    pol = bath.broadening

    m1 = np.zeros((dim * dim, dim * dim), dtype=complex)
    if order == 2:
        gam = RATE_PREFACTOR * g2(block_freqs, bath)
        jumps = sum(
            _add_block(m1, block, gam_block, vstack[:, block.rows, block.cols])
            for block, gam_block in zip(blocks, gam)
        )
        return _result_from(m1, jumps, dim)

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

    jumps = 0
    for start in range(0, ia.size, PAIR_CHUNK):
        c = slice(start, start + PAIR_CHUNK)
        amps = vstack[ia[c]] @ virt[ib[c], k_b[c]] + vstack[ib[c]] @ virt[ia[c], k_a[c]]
        # every (block, task) hit of the chunk, block-major with the tasks
        # in order, and the kernel weights of all of them in one delta call
        span = np.arange(lo[c].min(), hi[c].max())[:, None]
        b_hit, t_hit = np.nonzero((lo[c] <= span) & (span < hi[c]))
        b_hit += span[0, 0]
        gam = RATE_PREFACTOR * delta(block_freqs[b_hit], target[c][t_hit], pol) * occ[c][t_hit]
        runs = np.flatnonzero(np.diff(b_hit)) + 1
        for b_run, t_run, gam_run in zip(*(np.split(x, runs) for x in (b_hit, t_hit, gam))):
            block = blocks[b_run[0]]
            jumps += _add_block(m1, block, gam_run, amps[t_run[:, None], block.rows, block.cols])
    return _result_from(m1, jumps, dim)


def _result_from(m1, jumps: int, dim: int) -> GeneratorResult:
    matrix, weights, diagonal_gram = _finalize(m1, dim)
    sup = Superoperator(matrix=matrix, dim=dim)
    defect = sup.trace_defect()
    if defect > 1e-10:
        raise RuntimeError(f"generator violates trace preservation: {defect:.3e}")
    return GeneratorResult(
        superoperator=sup, jump_count=jumps, weights=weights, diagonal_gram=diagonal_gram
    )
