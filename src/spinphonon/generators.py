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

and the build keeps two accumulators: per secular block, the Gram matrix
of sqrt(gamma) vec(L) over the block's pairs (the block's part of
M1[(ac),(bd)]), off which K = sum gamma L+L, R and the 1/T1 weights are
read in _finalize, and, while the w = 0 block (where every population
sits) is added, the pure-dephasing matrix
D[a, b] = 1/2 sum_k gamma_k |L_k,aa - L_k,bb|^2. GeneratorResult.pair_sums
reads a pair's 1/(2 T1) and 1/T2* as sums of non-negative terms, and
1/T2 = 1/(2 T1) + 1/T2*.
R never couples different Bohr frequencies, so Superoperator stores it
as one s x s matrix per secular block (Sum s^2 entries, 2,368 for the
J = 15/2, B20 = -1 spectrum, not d^4 = 65,536); dense() writes the
d^2 x d^2 matrix.
The order-4 build is array code on one thread. Its (channel, alpha,
beta) tasks come in a fixed order and are processed in chunks of
PAIR_CHUNK, the build's one unit of work. In a chunk, the tasks fall
into runs that share alpha and its phonon sign, so V^alpha and
W^{alpha,-s_a} are one matrix per run: each run costs one BLAS product
per amplitude term, into two buffers allocated once per build. The
chunk's entries on the blocks it hits are gathered from the products,
per block-size class, in block-major order, so each run of one block's
jumps then costs one Gram product, added to that block's dense s x s
accumulator. Each accumulator sums its chunks' Grams in chunk order, so
PAIR_CHUNK and the task order define the order of every addition, and
with it every bit of the result.

Row windows. A task's target hits a window [lo, hi) of consecutive
blocks, and it reads term 1 of its amplitude (V_b W_a) only at those
blocks' rows and term 2 ((V_a W_b)^T) only at their cols; on the
200-mode J = 15/2 system that is 55.5 % of the rows. So a product is
computed only at those rows: per distinct window, the build lists its
rows and each of its blocks' entries as offsets into them, once
(_row_windows), and a run's product is the stack of its tasks' rows.
The buffers thus hold a chunk's rows, not its d x d matrices. This
changes no bit because of a BLAS property: a row of np.matmul(A, B)
does not depend on which other rows A holds, so the rows of a stacked
product equal those of each task's full product (the tests check the
property, and a build against one whose windows list every row). The
property fails for a product of one row: numpy sends a (1, d) @ (d, d)
product down another path (gemv), whose bits differ. So a run that
reads a single row is multiplied as two rows, the second taken from the
next run or from a spare row of the buffers (the two-row guard).
"""

import functools
import math
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

# mode pairs per chunk of the order-4 build: one Gram product per block
# run of a chunk, so this fixes the order of the additions (and the bits)
PAIR_CHUNK = 512
# modes per step of the virtual-state factors W: bounds their temporaries
VIRT_MODES = 8

# Each jump entry carries round-off of about eps times the norm of what it
# was computed from, so a pure dephasing sum (non-negative by construction)
# below a multiple of eps^2 times the rate that norm would carry is not
# resolved and reads as 0 (GeneratorResult.dephasing_floor). An order-2
# jump is one block of a coupling V_k in the eigenbasis, and the change of
# basis mixes every entry of V_k into it, so the order-2 scale is
# sum_k gamma_k(0) ||V_k||_F^2, at the w = 0 block where D is summed. The
# vanishing order-2 sums of Kramers doublets at zero field (1,500 random
# decks: J = 3/2 to 15/2, time-even Stevens couplings of rank 2 to 6, a
# third of them in a rotated frame) measure at most 53 of it, and the
# bundled decks' nonzero sums at least 2e30, so 1024 sits clear of both.
# Measured against the block norms instead, the sum of the weights, the
# same vanishing sums reach 1.6e7.
DEPHASING_FLOOR_EPS2_ORDER2 = 1024.0
# The order-4 scale is the sum of the weights, sum_p gamma_p ||L_p||^2 over
# the jumps' block entries; the bundled decks' nonzero order-4 sums measure
# at least 5e21 of eps^2 times it.
DEPHASING_FLOOR_EPS2 = 16.0


class SingularityError(ZeroDivisionError):
    """A T-matrix denominator hit zero with no regularizer."""


class BasisMismatchError(ValueError):
    """A coupling operator was made in another eigensystem than the build's."""


@dataclass(frozen=True)
class SecularBlock:
    """All ordered index pairs (d, b) sharing one Bohr frequency.

    rows and cols hold the pairs' d and b, sorted row-major; the block's
    parts of the Gram matrix and of R are s x s matrices over these pairs.
    """

    frequency_cm1: float
    rows: NDArray[np.int64] = field(repr=False, compare=False)
    cols: NDArray[np.int64] = field(repr=False, compare=False)


def whole_block(dim: int) -> SecularBlock:
    """Every ordered pair of dim states, row-major, as one block (frequency nan).

    A generator stored on it is the dense d^2 x d^2 matrix.
    """
    rows, cols = np.divmod(np.arange(dim * dim), dim)
    return SecularBlock(frequency_cm1=float("nan"), rows=rows, cols=cols)


@dataclass(frozen=True)
class Superoperator:
    """Generator R (row-major vec) on dim states, stored by secular block.

    blocks holds (block, r) pairs with r[i, j] = R_(p_i),(p_j) over the
    block's pairs p; R is zero between blocks.
    """

    blocks: tuple[tuple[SecularBlock, NDArray[np.complex128]], ...]
    dim: int

    def dense(self) -> NDArray[np.complex128]:
        """R as a d^2 x d^2 matrix, in Fortran order (as LAPACK takes it)."""
        d = self.dim
        out = np.zeros((d * d, d * d), dtype=complex, order="F")
        for block, r in self.blocks:
            flat = block.rows * d + block.cols
            out[np.ix_(flat, flat)] = r
        return out

    def __add__(self, other: "Superoperator") -> "Superoperator":
        """R + R', block by block; both must be stored on the same blocks."""
        if len(self.blocks) != len(other.blocks) or not all(
            np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
            for (a, _), (b, _) in zip(self.blocks, other.blocks)
        ):
            raise ValueError("generators stored on different blocks")
        return Superoperator(
            blocks=tuple((a, r + q) for (a, r), (_, q) in zip(self.blocks, other.blocks)),
            dim=self.dim,
        )

    def trace_defect(self) -> float:
        """max |sum_a R_(aa),(cd)| over columns, relative to ||R||."""
        col_sums = [np.abs(r[b.rows == b.cols].sum(axis=0)).max() for b, r in self.blocks]
        norm = np.sqrt(sum(np.vdot(r, r).real for _, r in self.blocks))
        return float(max(col_sums) / max(norm, 1e-300))

    def population_block(self) -> NDArray[np.float64]:
        """R_(bb),(aa) as a real (d, d) rate matrix."""
        out = np.zeros((self.dim, self.dim))
        for block, r in self.blocks:
            pop = block.rows == block.cols
            states = block.rows[pop]
            out[np.ix_(states, states)] = r[np.ix_(pop, pop)].real
        return out


@dataclass(frozen=True)
class PairRateSums:
    """Rate sums for one state pair (a, b), in s^-1.

    half_t1_rate is 1/(2 T1) and dephasing_rate is 1/T2*, both read from
    non-negative modulus-squared element sums over every jump operator,
    and 1/T2 = 1/(2 T1) + 1/T2*. Each is linear in the jumps' Grams, so
    the order-2 and order-4 sums add up to the sums of R2 + R4.
    """

    half_t1_rate: float
    dephasing_rate: float


@dataclass(frozen=True)
class GeneratorResult:
    """Build output: the generator plus what the pair rate sums need.

    weights[r, a] = sum_k gamma_k |L_k,ra|^2 (s^-1) are diagonal entries
    of the Gram matrix M1 and dephasing[a, b] = 1/2 sum_k gamma_k
    |L_k,aa - L_k,bb|^2 (s^-1), whose round-off reaches about
    dephasing_floor (s^-1). pair_sums is the one place T1 and T2* rates
    are read. prefilter_tasks counts the order-4 (channel, alpha, beta)
    tasks that passed the prefilter (0 at order 2), of which the
    jump_count jumps that carry rate are made.
    """

    superoperator: Superoperator
    jump_count: int
    weights: NDArray[np.float64]
    dephasing: NDArray[np.float64]
    dephasing_floor: float
    prefilter_tasks: int

    def pair_sums(self, a: int, b: int) -> PairRateSums:
        """1/(2 T1) and 1/T2* of the state pair (a, b).

        1/(2 T1) = 1/2 (sum_{r != a} W_ra + sum_{r != b} W_rb) and
        1/T2* = dephasing[a, b]; a 1/T2* below the round-off floor
        (dephasing_floor) reads as 0.
        """
        w = self.weights
        half_t1 = 0.5 * (np.delete(w[:, a], a).sum() + np.delete(w[:, b], b).sum())
        dephasing = self.dephasing[a, b]
        if dephasing < self.dephasing_floor:
            dephasing = 0.0
        return PairRateSums(half_t1_rate=float(half_t1), dephasing_rate=float(dephasing))


def secular_partition(
    es: Eigensystem, tol_cm1: float = DEFAULT_SECULAR_TOL_CM1
) -> "SecularPartition":
    """Group all ordered index pairs by Bohr frequency w_db = E_d - E_b.

    Pairs are sorted by frequency and split where consecutive gaps exceed
    tol_cm1, so every pair lands in exactly one block, and the blocks come
    in frequency order. Kramers partners at zero field share the w = 0
    block with the populations.
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
        frequency = float(freqs[cluster].mean())
        blocks.append(SecularBlock(frequency_cm1=frequency, rows=rows, cols=cols))
    return _partition(blocks)


def _aligned_couplings(
    couplings: Sequence[CouplingOperator], bath: BathConfig, es: Eigensystem
) -> NDArray[np.complex128]:
    """Stack coupling matrices in bath-mode order; each must be in es's basis."""
    if not couplings:
        raise ValueError("no coupling operators supplied")
    foreign = [c.mode_index for c in couplings if c.basis is not es]
    if foreign:
        raise BasisMismatchError(f"couplings of modes {foreign} are not in this eigenbasis")
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


class SecularPartition(tuple):
    """Secular blocks in frequency order, with the index maps that every
    build on them shares.

    The maps depend on the blocks alone, so each is computed once per
    partition, on first use: pops[g] holds block g's population positions
    (its pairs (a, a)), and gram_maps the gathers with which _finalize
    reads K, W and R off the Gram accumulators. PointEngine keeps one
    partition per field, so every temperature and order shares them.
    """

    @functools.cached_property
    def pops(self) -> list[NDArray[np.intp]]:
        return [np.flatnonzero(b.rows == b.cols) for b in self]

    @functools.cached_property
    def gram_maps(self) -> "_GramMaps":
        return _GramMaps(self)


def _partition(blocks: Sequence[SecularBlock]) -> SecularPartition:
    if isinstance(blocks, SecularPartition):
        return blocks
    return SecularPartition(sorted(blocks, key=lambda b: b.frequency_cm1))


class _GramMaps:
    """Where _finalize finds each entry of K, W and R in the Gram entries.

    gram, the blocks' accumulators raveled in block order, holds
    M1[(a,c),(b,d)] = sum_k gamma_k L_ac conj(L_bd), which is 0 unless
    (a, c) and (b, d) share a block. Then K[c, d] = sum_a conj
    M1[(a,c),(a,d)], R_(ab),(cd) = M1[(a,c),(b,d)] - 1/2 d_bd K[a,c]
    - 1/2 d_ac K[d,b] and W[r, a] = M1[(r,a),(r,a)]. E_a - E_b = E_c - E_d
    exactly when E_a - E_c = E_b - E_d, so R is stored on the Gram
    matrix's blocks. Should a tolerance chain Bohr frequencies so that
    some Gram entry falls outside them, R is stored as whole_block
    instead, which holds every entry.
    """

    def __init__(self, blocks: SecularPartition):
        sizes = np.array([b.rows.size for b in blocks])
        d = self.dim = math.isqrt(int(sizes.sum()))
        flats = [blk.rows * d + blk.cols for blk in blocks]
        # per flat pair: its block and its place there; per block: its start in gram
        owner, place = np.empty((2, d * d), dtype=np.intp)
        owner[np.concatenate(flats)] = np.repeat(np.arange(len(blocks)), sizes)
        place[np.concatenate(flats)] = np.concatenate([np.arange(s) for s in sizes])
        start = np.cumsum(sizes**2) - sizes**2

        def m1(x, y):
            # where M1[x, y] of flat pairs x and y is in gram, where it is on one block
            g = owner[x]
            inside = g == owner[y]
            return _small((start[g] + place[x] * sizes[g] + place[y])[inside]), inside

        x, c, e = np.indices((d, d, d))
        self.k_at, self.k_inside = m1(x * d + c, x * d + e)
        pairs = np.arange(d * d)
        self.w_at = m1(pairs, pairs)[0]
        for r_blocks in (blocks, [whole_block(d)]):
            r_flats = [blk.rows * d + blk.cols for blk in r_blocks]
            a, b = np.divmod(np.concatenate([np.repeat(f, f.size) for f in r_flats]), d)
            c, e = np.divmod(np.concatenate([np.tile(f, f.size) for f in r_flats]), d)
            self.r_at, self.r_inside = m1(a * d + c, b * d + e)
            if self.r_at.size == sizes @ sizes:
                break
        self.r_blocks = tuple(r_blocks)
        # the entries that K corrects, and the K entries (flat) they take
        same_bd, same_ac = np.flatnonzero(b == e), np.flatnonzero(a == c)
        self.same_bd, self.k_ac = _small(same_bd), _small((a * d + c)[same_bd])
        self.same_ac, self.k_db = _small(same_ac), _small((e * d + b)[same_ac])
        self.ends = np.cumsum([f.size**2 for f in r_flats])[:-1]


def _small(index: NDArray[np.intp]) -> NDArray[np.unsignedinteger]:
    # the maps live as long as their partition, so they keep the smallest
    # index type (uint16 for J = 15/2), not intp
    return index.astype(np.min_scalar_type(index.max(initial=0)))


def _finalize(blocks: SecularPartition, acc):
    """R by block and W, both read off the Gram accumulators here and nowhere else.

    acc[g] is block g's part of M1; blocks.gram_maps says which of its
    entries make each entry of K, W and R.
    """
    maps = blocks.gram_maps
    d = maps.dim
    gram = np.concatenate([g.ravel() for g in acc])
    m1 = np.zeros(maps.k_inside.shape, dtype=complex)
    m1[maps.k_inside] = gram[maps.k_at]
    k = np.conj(m1).sum(axis=0, initial=0.0).ravel()
    weights = gram[maps.w_at].real.reshape(d, d).copy()
    r = np.zeros(maps.r_inside.shape, dtype=complex)
    r[maps.r_inside] = gram[maps.r_at]
    r[maps.same_bd] -= 0.5 * k[maps.k_ac]
    r[maps.same_ac] -= 0.5 * k[maps.k_db]
    mats = (
        m.reshape(blk.rows.size, blk.rows.size)
        for m, blk in zip(np.split(r, maps.ends), maps.r_blocks)
    )
    return Superoperator(blocks=tuple(zip(maps.r_blocks, mats)), dim=d), weights


def _add_runs(acc, dephasing, pops, b, gammas, y) -> int:
    """Add the Grams of the jumps gamma_p, y_p into acc, and their D into dephasing.

    y_p holds jump p's entries on block b_p (at its rows, cols) and the
    jumps come block-major, so each run of one block costs one Gram
    product, added into that block's accumulator acc[b_p]; pops[b_p] are
    the block's population positions. A jump is kept only when its total
    rate gamma_p ||L_p||_F^2 on its block is positive, so every counted
    jump carries rate. Returns the number kept.
    """
    keep = gammas * (y.real**2 + y.imag**2).sum(axis=1) > 0.0
    if not keep.all():
        b, gammas, y = b[keep], gammas[keep], y[keep]
    if not b.size:
        return 0
    gy, yc = gammas[:, None] * y, y.conj()
    starts = [0, *(np.flatnonzero(b[1:] != b[:-1]) + 1).tolist()]
    for r0, r1 in zip(starts, [*starts[1:], b.size]):
        # G_ij = sum_p gamma_p y_pi conj(y_pj)
        acc[b[r0]] += gy[r0:r1].T @ yc[r0:r1]
        # the w = 0 block holds every population, in state order
        pop = pops[b[r0]]
        if pop.size:
            diag = y[r0:r1, pop]
            diff = diag[:, :, None] - diag[:, None, :]
            dephasing += 0.5 * np.einsum("p,pab->ab", gammas[r0:r1], diff.real**2 + diff.imag**2)
    return b.size


def _prefilter(channels, allow_same_mode: bool, w_modes, n_bar, window: float, block_freqs):
    """The order-4 tasks whose target hits some block window, in task order.

    Every (channel, alpha, beta) task comes in a fixed order, which defines
    the reduction order. The kernel is exactly zero outside window, so
    the prefilter drops only tasks that carry no weight. Each channel's
    pairs are filtered before the channels are joined. Task p's amplitude
    V_a W_b^{-s_b} + V_b W_a^{-s_a} is read from vstack[ja[p] // 2],
    virt_t[ja[p]] and the same at jb[p] (ja = 2 alpha + (1 + s_a) / 2);
    target[p] is its energy-conserving frequency, key[p] its block window
    (_row_windows) and occ[p] its thermal factor.
    """
    n = w_modes.size
    parts = []
    for channel in channels:
        s_a, s_b = channel_signs(channel)
        # the target of every ordered pair (alpha, beta), at alpha * n + beta
        target = channel_target(s_a, s_b, w_modes[:, None], w_modes[None, :]).ravel()
        lo = np.searchsorted(block_freqs, target - window, side="left")
        hi = np.searchsorted(block_freqs, target + window, side="right")
        hit = hi > lo
        if s_a != s_b:
            # mixed signs tell absorb-alpha/emit-beta from its mirror, so
            # they run over ordered pairs
            flat = np.flatnonzero(hit if allow_same_mode else hit & ~np.eye(n, dtype=bool).ravel())
        else:
            # equal signs are pair-exchange symmetric and take alpha > beta,
            # with the same-mode pairs (if allowed) appended
            flat = np.flatnonzero(hit & np.tri(n, k=-1, dtype=bool).ravel())
            if allow_same_mode:
                same = np.arange(n) * (n + 1)
                flat = np.concatenate([flat, same[hit[same]]])
        ia, ib = np.divmod(flat, n)
        parts.append((
            2 * ia + (1 + s_a) // 2, 2 * ib + (1 + s_b) // 2, target[flat],
            lo[flat] * (block_freqs.size + 1) + hi[flat],
            channel_occupation(s_a, s_b, n_bar[ia], n_bar[ib]),
        ))
    if not parts:
        none = np.zeros(0, dtype=np.intp)
        return none, none, np.zeros(0), none, np.zeros(0)
    return tuple(x[0] if len(x) == 1 else np.concatenate(x) for x in zip(*parts))


def _row_windows(blocks: SecularPartition, key, dim: int):
    """The amplitude rows each task reads, and where its block entries sit in them.

    A task whose target hits the block window [lo, hi), key lo * (number
    of blocks + 1) + hi, reads term 1's product at the rows of those
    blocks and term 2's at their cols. Tasks are keyed by window: win[p]
    is task p's window, [w_lo[w], w_hi[w]) window w's blocks. For term k
    (0: rows, 1: cols), window w's sorted rows are
    rows[k][first[k][w]:][:count[k][w]]. The pair (w, block g) has index
    wg0[w] + g - w_lo[w] in tables[s][k], which holds the block's entries
    as flat offsets into the window's compacted product (row position *
    dim + column). None of this depends on the temperature.
    """
    keys, win = np.unique(key, return_inverse=True)
    w_lo, w_hi = np.divmod(keys, len(blocks) + 1)
    wg0 = np.cumsum(w_hi - w_lo) - (w_hi - w_lo)
    tables = {
        s: np.zeros((2, int((w_hi - w_lo).sum()), s), dtype=np.intp)
        for s in sorted({b.rows.size for b in blocks})
    }
    rows = ([], [])
    for w, (l0, l1) in enumerate(zip(w_lo.tolist(), w_hi.tolist())):
        members = blocks[l0:l1]
        # sorted sets of the states the members' rows and cols name
        seen = np.zeros((2, dim), dtype=bool)
        seen[0, np.concatenate([b.rows for b in members])] = True
        seen[1, np.concatenate([b.cols for b in members])] = True
        term1, term2 = np.flatnonzero(seen[0]), np.flatnonzero(seen[1])
        rows[0].append(term1)
        rows[1].append(term2)
        for g, b in enumerate(members, start=int(wg0[w])):
            tables[b.rows.size][:, g] = (
                np.searchsorted(term1, b.rows) * dim + b.cols,
                np.searchsorted(term2, b.cols) * dim + b.rows,
            )
    count = [np.array([r.size for r in term], dtype=np.intp) for term in rows]
    first = [np.cumsum(c) - c for c in count]
    rows = [np.concatenate([np.zeros(0, dtype=np.intp), *term]) for term in rows]
    return win, w_lo, w_hi, wg0, rows, first, count, tables


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
) -> GeneratorResult:
    """Assemble R^(order) without materializing jump operators.

    Organized for throughput: the virtual-state factors W are built once
    per mode and sign, and the order-4 tasks are processed in chunks of
    PAIR_CHUNK. In a chunk, each run of tasks sharing alpha and its sign
    costs one BLAS product per amplitude term, each block-size class one
    gather per term and one keep mask, each block run one Gram product,
    and the kernel weights one array delta call; products are computed
    only at the rows a task's window reads (Row windows, above). Each
    secular block sums its Grams in a dense accumulator, off which
    _finalize reads R (by block), K and the pair 1/T1 sums; the
    pure-dephasing matrix D of the pair 1/T2* sums is added as the w = 0
    block's runs are (GeneratorResult.pair_sums). PAIR_CHUNK and the task
    order define the order of every addition into the accumulators and
    D, and with it every bit of the result.
    jump_count counts the jumps whose rate gamma ||L||^2 is positive and
    prefilter_tasks the order-4 tasks whose target hits a block window.
    blocks given as a SecularPartition (as secular_partition returns it)
    keep their index maps from build to build. Every coupling must have
    been made in es itself (its basis is es), or BasisMismatchError.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    vstack = _aligned_couplings(couplings, bath, es)
    dim = vstack.shape[1]
    # the prefilter bisects on block frequencies, so the partition keeps
    # them sorted
    blocks = _partition(secular_partition(es, secular_tol_cm1) if blocks is None else blocks)
    block_freqs = np.array([b.frequency_cm1 for b in blocks])

    w_modes = bath.frequencies_cm1
    n_bar = bath.occupations()
    pol = bath.broadening

    # blocks own disjoint M1 entries, so each block sums its Grams, in
    # chunk order, in a dense accumulator of its own
    acc = [np.zeros((b.rows.size, b.rows.size), dtype=complex) for b in blocks]
    dephasing = np.zeros((dim, dim))
    if order == 2:
        gam = RATE_PREFACTOR * g2(block_freqs, bath)
        jumps = sum(
            _add_runs(
                acc, dephasing, blocks.pops, np.full(len(bath.modes), i), gam_block,
                vstack[:, block.rows, block.cols],
            )
            for i, (block, gam_block) in enumerate(zip(blocks, gam))
        )
        w0 = next(i for i, pop in enumerate(blocks.pops) if pop.size)
        scale = gam[w0] @ (vstack.real**2 + vstack.imag**2).sum(axis=(1, 2))
        floor = DEPHASING_FLOOR_EPS2_ORDER2 * np.finfo(float).eps ** 2 * scale
        return _result_from(blocks, acc, dephasing, jumps, floor=floor)

    ja, jb, target, key, occ = _prefilter(
        channels, allow_same_mode, w_modes, n_bar, pol.window_cm1, block_freqs
    )

    # virt_t[2 m + k] = (W^{m,s})^T with s = +1 (k = 0) or -1 (k = 1), built
    # a few modes at a time and only for the (mode, sign) pairs in use
    used = np.zeros(2 * len(bath.modes), dtype=bool)
    used[ja] = used[jb] = True
    virt_t = np.zeros((2 * len(bath.modes), dim, dim), dtype=complex)
    for k in (0, 1):
        modes = np.flatnonzero(used[k::2])
        for i in range(0, modes.size, VIRT_MODES):
            m = modes[i : i + VIRT_MODES]
            virt_t[2 * m + k] = (
                vstack[m] / _denominators(es.energies_cm1, w_modes[m], 1 - 2 * k, regularizer_cm1)
            ).transpose(0, 2, 1)

    # term 1, V_b W_a, is read at its blocks' rows and term 2, (V_a W_b)^T,
    # at their cols: per window, the rows of both and the blocks' entries
    # in them (one table per block-size class s)
    win, w_lo, w_hi, wg0, rows, first, count, tables = _row_windows(blocks, key, dim)
    del key
    sizes = np.array([b.rows.size for b in blocks])
    # the operand rows come from these stacks: term 1 from V_b, term 2
    # from W_b^T (row r of matrix j is row j * dim + r)
    sources = (vstack.reshape(-1, dim), virt_t.reshape(-1, dim))

    # fresh temporaries per chunk cost page faults, so each chunk's
    # factors and products reuse two buffers, of the most rows a chunk
    # reads (top) and one spare row for the two-row products; the operand
    # gather clips because mode="raise" buffers out (the indices are in
    # range by construction).
    # A run of tasks with one ja shares alpha and its sign, so V_a and
    # W_a^{-s_a} are one matrix, and each term is one tall product: the
    # stack of W_b^T rows against V_a^T, which gives rows of (V_a W_b)^T,
    # and the stack of V_b rows against W_a. Term 2's entries are gathered
    # before term 1 reuses the buffer, then term 1's are added; the bits
    # equal those of the stacked V_a W_b + V_b W_a. A run ends where ja
    # changes and at every chunk start.
    chunks = np.arange(0, ja.size, PAIR_CHUNK)
    top = max(np.add.reduceat(cnt[win], chunks).max() for cnt in count) if ja.size else 0
    operand, product = np.zeros((2, top + 1, dim), dtype=complex)
    flat_product = product.reshape(-1)
    cut = np.arange(ja.size) % PAIR_CHUNK == 0
    cut[1:] |= ja[1:] != ja[:-1]
    run_starts = np.flatnonzero(cut)
    # each run's alpha and sign, and the right factors V_a^T and W_a
    run_ja = ja[run_starts].tolist()
    vstack_t, virt_w = vstack.transpose(0, 2, 1), virt_t.transpose(0, 2, 1)
    jumps = 0
    for start in chunks.tolist():
        c = slice(start, start + PAIR_CHUNK)
        n = ja[c].size
        # every (block, task) hit of the chunk, block-major with the tasks
        # in order, and the kernel weights of all of them in one delta call
        wc = win[c]
        lo, hi = w_lo[wc], w_hi[wc]
        span = np.arange(lo.min(), hi.max())[:, None]
        b_hit, t_hit = np.nonzero((lo <= span) & (span < hi))
        b_hit += span[0, 0]
        gam = RATE_PREFACTOR * delta(block_freqs[b_hit], target[c][t_hit], pol) * occ[c][t_hit]
        wg_hit = wg0[wc][t_hit] + b_hit - lo[t_hit]
        classes = [(np.flatnonzero(sizes[b_hit] == s), table) for s, table in tables.items()]
        i0, i1 = np.searchsorted(run_starts, (start, start + n))
        tasks = [*(run_starts[i0:i1] - start).tolist(), n]
        ys = []
        # term 2 (k = 1), (V_a W_b)^T = W_b^T V_a^T, lands in ys first;
        # then term 1 (k = 0), V_b W_a, is added
        for k, src in ((1, jb[c]), (0, jb[c] // 2)):
            # the operand's source rows for the chunk's tasks in order, and
            # where each task's rows start (edge[t])
            cnt = count[k][wc]
            edge = np.concatenate([[0], np.cumsum(cnt)])
            pos = np.repeat(first[k][wc] - edge[:-1], cnt) + np.arange(edge[-1])
            pick = np.repeat(src * dim, cnt) + rows[k][pos]
            np.take(sources[k], pick, axis=0, mode="clip", out=operand[: edge[-1]])
            e = edge.tolist()
            for t0, t1, j in zip(tasks[:-1], tasks[1:], run_ja[i0:i1]):
                # two rows at least: see the docstring
                r0 = e[t0]
                r1 = max(e[t1], r0 + 2)
                right = vstack_t[j // 2] if k else virt_w[j]
                np.matmul(operand[r0:r1], right, out=product[r0:r1])
            # each class's entries, in the chunk's block-major hit order
            for i, (cls, table) in enumerate(classes):
                y = flat_product[(edge[t_hit[cls]] * dim)[:, None] + table[k, wg_hit[cls]]]
                if k:
                    ys.append(y)
                else:
                    ys[i] += y
        for (cls, _), y in zip(classes, ys):
            jumps += _add_runs(acc, dephasing, blocks.pops, b_hit[cls], gam[cls], y)
    return _result_from(blocks, acc, dephasing, jumps, ja.size)


def _result_from(
    blocks: Sequence[SecularBlock], acc, dephasing, jumps: int, prefilter_tasks: int = 0,
    floor: float | None = None,
) -> GeneratorResult:
    """The build's GeneratorResult; floor None takes the order-4 round-off
    floor, read off the weights."""
    sup, weights = _finalize(_partition(blocks), acc)
    defect = sup.trace_defect()
    if defect > 1e-10:
        raise RuntimeError(f"generator violates trace preservation: {defect:.3e}")
    if floor is None:
        floor = DEPHASING_FLOOR_EPS2 * np.finfo(float).eps ** 2 * weights.sum()
    return GeneratorResult(
        superoperator=sup, jump_count=jumps, weights=weights, dephasing=dephasing,
        dephasing_floor=float(floor), prefilter_tasks=prefilter_tasks,
    )
