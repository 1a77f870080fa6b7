"""Bit-plane kernel backend: packed uint64 state + runtime-compiled C loops.

The paper's device kernels keep each block's solution as machine words
in the register file and update energies incrementally; this backend is
the CPU analogue of that representation.  State ``X`` is packed into
``B × ⌈n/64⌉`` little-endian uint64 *bit planes* (bit ``i`` of block
``b`` is bit ``i & 63`` of word ``i >> 6`` — the same layout the
Figure-5 exchange rings ship via ``np.packbits``), and the whole
``run_local_steps`` hot loop (Figure 2 windowed min-Δ select → Eq. 16
delta refresh → Algorithm 4 incumbent check → offset advance) runs as
one C call per batch.  As a device block keeps its bits in registers,
the dense kernels unpack each block's planes once per call into an int8
sign mask (``-1`` where ``x_j = 1``), of which a flip updates one entry;
the Eq. 16 row add reads the sign of ``1 - 2x`` from it.  That row add
is fused with the incumbent's neighbourhood min scan, so ``delta`` is
traversed once per flip, and it keeps one Δ minimum per 64 entries (per
plane word).  The first minimum, which the incumbent records, is then
found in the first word holding it, not by rescanning all n entries.
The Algorithm 5 straight walk (``run_straight``) is one C call too:
each block walks to its target, reading a second, still-differing mask
(``-1`` where ``x_j ≠ t_j``), and its row add also keeps the word
minima over the still-differing bits, through which the next flip is
found the same way.  The planes stay the state (incumbent snapshots
copy them); masks and word minima live in per-call scratch.

A call's Python side is a fixed cost paid per walk, so it is kept to
one allocation and two pointer conversions: every argument the kernel
reads or writes, from the energies, offsets and windows to the uint8
state, target and incumbent rows, the planes and the scratch, sits in
one int64 arena whose layout the kernel carves from its base address
(:meth:`BitplaneBackend._walk`).  The kernel packs the rows into planes
on entry and unpacks them on exit; no row is padded or packed in NumPy.

The C translation unit is compiled once per machine (``cc -O3 -fwrapv
-shared``) into a content-addressed cache under
``tempfile.gettempdir()`` and loaded through :mod:`ctypes` — no
third-party JIT dependency; every later process, forked workers
included, only loads it (see :func:`_load_library`).  ``-fwrapv`` pins C signed overflow to
two's-complement wraparound, so the arithmetic is bit-for-bit the
NumPy reference's int64/int32 modular arithmetic; the differential
suite (``tests/backends/``) holds this backend to exact state equality
at single-step granularity like every other backend.

Two dense weight tiers are chosen automatically by ``prepare_dense``:

- ``dense_w16_d32`` — off-diagonal weights fit int16 *and* the Δ bound
  ``max_i(|W_ii| + 2·Σ_{j≠i}|W_ij|)`` fits int32: 16-bit weight rows
  and a 32-bit delta vector quarter the memory traffic of the int64
  reference (the dominant cost at n = 1024).
- ``dense_w64`` — the general int64 fallback tier, same fused loop.

Both tiers' kernels are one C text, :data:`_C_DENSE`, instantiated per
tier with its weight and delta types; the sign masks are int8 in both
(measured faster than Δ-width masks at n = 1024).

In both dense tiers the weight rows are stored with a **zeroed
diagonal**: Eq. 16 only touches ``j ≠ k`` and the kernel pre-writes
``d[k] = -d_k``, which then survives the fused row add (it gains
``W_kk = 0``) and counts towards its word's minimum.

Sparse problems use a CSR scatter variant (``sparse_w64``) whose
delta-write count matches the reference exactly: ``degree(k) + 1`` per
flip.  Its selection and incumbent tracking do not rescan all n deltas
either: each block keeps one Δ minimum per 64-bit plane word (over the
word's bits matching the straight-search target, and over those still
differing), updated in O(1) when a write can only lower it and
rescanned (≤ 64 entries) when it may have risen.  A query scans the
``⌈n/64⌉`` word minima for the first word holding the overall minimum,
then that word for its first entry of that value, the reference's tie
rule.  A flip costs O(degree + n/64).  The minima live in a scratch
buffer allocated per call, never on the (shareable) prepared weights.

A C compiler is an *optional* dependency: when none is found (or
``REPRO_NO_CC`` is set, which the test suite uses to exercise the
fallback lane), :func:`load_bitplane_backend` returns ``None`` — even
when the compile cache holds a library — and :func:`make_bitplane_backend`
returns the NumPy reference backend tagged ``fallback_from="bitplane"``
and with the cause in ``fallback_reason``, and warns once per process.
A build that fails is not retried in the same process.  The
packed-plane helpers (:func:`pack_rows` / :func:`unpack_rows`) are
plain NumPy and always available.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import string
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.backends.base import KernelBackend, PreparedWeights
from repro.backends.numpy_backend import NumpyBackend

__all__ = [
    "BitplaneBackend",
    "BitplanePreparedWeights",
    "cc_available",
    "load_bitplane_backend",
    "make_bitplane_backend",
    "pack_rows",
    "unpack_rows",
]

_warned = False

_C_PRELUDE = r"""
#include <stdint.h>
#include <string.h>

#define RESTRICT __restrict__
#define CTZ(m) ((int64_t)__builtin_ctzll(m))

/* Unpacks n bits of planes p into the mask m: m[j] = bit j ? -1 : 0. */
static void unpack_mask(int8_t *RESTRICT m, const uint64_t *RESTRICT p, int64_t n)
{
    for (int64_t j = 0; j < n; j++)
        m[j] = -(int8_t)((p[j >> 6] >> (j & 63)) & 1);
}

/* The same for the bits set in p ^ q: the still-differing mask. */
static void unpack_diff(int8_t *RESTRICT m, const uint64_t *RESTRICT p,
                        const uint64_t *RESTRICT q, int64_t n)
{
    for (int64_t j = 0; j < n; j++)
        m[j] = -(int8_t)(((p[j >> 6] ^ q[j >> 6]) >> (j & 63)) & 1);
}

/* One plane word from lim <= 64 bytes (any nonzero byte is a 1 bit). */
static inline uint64_t pack_word(const uint8_t *RESTRICT x, int64_t lim)
{
    uint64_t w = 0;
    for (int64_t j = 0; j < lim; j++)
        w |= (uint64_t)(x[j] != 0) << j;
    return w;
}

/* Packs n bytes x into the planes p; the pad bits are zero.  Full words
 * get a constant trip count, so the loop vectorizes. */
static void pack_bits(uint64_t *RESTRICT p, const uint8_t *RESTRICT x,
                      int64_t n, int64_t nw)
{
    for (int64_t w = 0; w < nw; w++) {
        int64_t lim = n - (w << 6);
        p[w] = lim >= 64 ? pack_word(x + (w << 6), 64)
                         : pack_word(x + (w << 6), lim);
    }
}

static inline void unpack_word(uint8_t *RESTRICT x, uint64_t v, int64_t lim)
{
    for (int64_t j = 0; j < lim; j++)
        x[j] = (uint8_t)((v >> j) & 1);
}

/* Unpacks n bits of the planes p into bytes: x[j] = bit j. */
static void unpack_bits(uint8_t *RESTRICT x, const uint64_t *RESTRICT p,
                        int64_t n, int64_t nw)
{
    for (int64_t w = 0; w < nw; w++) {
        int64_t lim = n - (w << 6);
        if (lim >= 64) unpack_word(x + (w << 6), p[w], 64);
        else unpack_word(x + (w << 6), p[w], lim);
    }
}

/* One walk's arguments, carved from the one int64 arena the caller
 * fills per call: five B-entry rows (energy, best_e, bestflip, offsets,
 * windows), three B*nw plane sets (xp, bestp, tp), three B*n byte sets
 * (x, t, best_x: the caller's 0/1 rows, padded to a whole word), then
 * the kernel's scratch.  A walk ignores what it does not use (offsets
 * and windows in straight search, t and tp in local search). */
typedef struct {
    int64_t *energy, *best_e, *bestflip, *offsets, *windows;
    uint64_t *xp, *bestp, *tp;
    uint8_t *x, *t, *best_x;
    void *scratch;
} Arena;

/* A kernel declares its RESTRICT views of the arena in an inner block
 * between arena_begin and arena_end: those two reach the same memory
 * through the Arena's own pointers, which restrict forbids inside the
 * block a restricted pointer is declared in (C11 6.7.3.1).
 *
 * The arena at p, its state rows x (and, with target, t) packed into
 * planes, and every block's bestflip at -2: no new incumbent yet.
 * bestflip[b] becomes -1 for the snapshot bestp[b] itself and >= 0 for
 * the snapshot with that bit flipped. */
static Arena arena_begin(int64_t *p, int64_t n, int64_t B, int64_t nw,
                         int64_t target)
{
    Arena a;
    a.energy = p;
    a.best_e = p + B;
    a.bestflip = p + 2 * B;
    a.offsets = p + 3 * B;
    a.windows = p + 4 * B;
    a.xp = (uint64_t *)(p + 5 * B);
    a.bestp = a.xp + B * nw;
    a.tp = a.bestp + B * nw;
    a.x = (uint8_t *)(a.tp + B * nw);
    a.t = a.x + B * n;
    a.best_x = a.t + B * n;
    a.scratch = a.xp + 3 * B * nw + (3 * B * n + 7) / 8;
    for (int64_t b = 0; b < B; b++) {
        a.bestflip[b] = -2;
        pack_bits(a.xp + b * nw, a.x + b * n, n, nw);
        if (target) pack_bits(a.tp + b * nw, a.t + b * n, n, nw);
    }
    return a;
}

/* The walk's exit: the state planes back into x, and each block's new
 * incumbent expanded into its best_x row. */
static void arena_end(const Arena *a, int64_t n, int64_t B, int64_t nw)
{
    for (int64_t b = 0; b < B; b++) {
        unpack_bits(a->x + b * n, a->xp + b * nw, n, nw);
        int64_t f = a->bestflip[b];
        if (f == -2) continue;
        unpack_bits(a->best_x + b * n, a->bestp + b * nw, n, nw);
        if (f >= 0) a->best_x[b * n + f] ^= 1;
    }
}
"""

#: The dense kernels of one weight tier, written once: ``${WT}`` weight
#: rows, ``${DT}`` deltas whose maximum is ``${DMAX}``, exported symbols
#: suffixed ``_${SFX}``.  Instantiated for each of :data:`_DENSE_TIERS`.
_C_DENSE = string.Template(r"""
/* Dense tier ${SFX}: ${WT} weight rows, ${DT} deltas.
 *
 * X is packed little-endian: bit i of block b is bit (i & 63) of word
 * Xp[b*nw + (i >> 6)].  The planes stay the state (incumbent snapshots
 * copy them), but the hot loops read a block's bits from int8 masks
 * unpacked once per call into the caller's scratch: sx[j] = x_j ? -1 : 0
 * and, in straight search, sd[j] = (x_j != t_j) ? -1 : 0.  A flip of k
 * updates one entry of each.  Weight rows arrive with a ZEROED diagonal
 * so the pre-written d[k] = -d_k survives the fused Eq. 16 pass (it
 * gains W[k][k] = 0) and is seen by the running minima.  That pass
 * keeps one minimum per 64 entries (per plane word), so finding the
 * first entry of a minimum scans nw word minima and then <= 64 entries,
 * not all n.  Compile with -fwrapv: signed wraparound must match numpy
 * exactly.
 */

/* Scratch layout: wm[nw] word minima over all entries, wdm[nw] over the
 * still-differing ones, then the masks sx[64*nw] and sd[64*nw]. */
typedef struct {
    ${DT} *wm, *wdm;
    int8_t *sx, *sd;
} Scratch_${SFX};

static Scratch_${SFX} scratch_${SFX}(void *p, int64_t nw)
{
    Scratch_${SFX} s;
    s.wm = (${DT} *)p;
    s.wdm = s.wm + nw;
    s.sx = (int8_t *)(s.wdm + nw);
    s.sd = s.sx + 64 * nw;
    return s;
}

/* Eq. 16 row add for one flip, d[j] += +-2 W[k][j], over one word's lim
 * entries: the sign is sx[j] ^ fs, fs = k's old mask entry.  Returns the
 * word's minimum. */
static inline ${DT} row_add_${SFX}(${DT} *RESTRICT d, const ${WT} *RESTRICT r,
                                 const int8_t *RESTRICT sx, int8_t fs,
                                 int64_t lim)
{
    ${DT} mn = ${DMAX};
    for (int64_t j = 0; j < lim; j++) {
        ${DT} msk = (${DT})(int8_t)(sx[j] ^ fs);
        ${DT} r2 = 2 * (${DT})r[j];
        ${DT} v = d[j] + ((r2 ^ msk) - msk);
        d[j] = v;
        if (v < mn) mn = v;
    }
    return mn;
}

/* The first index of minimum v: the first word holding it, then that
 * word's first entry of value v (the reference's first-minimum rule). */
static inline int64_t first_min_${SFX}(const ${DT} *d, const ${DT} *wm, ${DT} v)
{
    int64_t c = 0;
    while (wm[c] != v) c++;
    int64_t pos = c << 6;
    while (d[pos] != v) pos++;
    return pos;
}

/* Algorithm 4 incumbent after one flip: the best neighbour (energy + mn
 * at the first minimum of d) before the position itself, as update_best
 * does; with scan == 0 the position only, as track_position does. */
static inline void incumbent_${SFX}(
    const ${DT} *d, const ${DT} *wm, const uint64_t *xp, int64_t nw,
    int64_t scan, ${DT} mn, int64_t e, int64_t *best_e, uint64_t *bestp,
    int64_t *bestflip)
{
    if (scan && e + (int64_t)mn < *best_e) {
        *best_e = e + (int64_t)mn;
        memcpy(bestp, xp, (size_t)nw * 8);
        *bestflip = first_min_${SFX}(d, wm, mn);
    }
    if (e < *best_e) {
        *best_e = e;
        memcpy(bestp, xp, (size_t)nw * 8);
        *bestflip = -1;
    }
}

/* Batched Algorithm 4: steps forced flips for every block.  Blocks are
 * independent, so each runs all its steps in turn on one set of masks. */
int64_t bp_local_steps_${SFX}(
    const ${WT} *RESTRICT W,      /* n*n off-diagonal weights, diag zeroed */
    int64_t  *arena,                /* this call's Arena (offsets advanced) */
    ${DT} *RESTRICT delta,        /* B*n */
    int64_t n, int64_t B, int64_t nw, int64_t steps)
{
    Arena a = arena_begin(arena, n, B, nw, 0);
    {   /* the restrict scope: see arena_begin */
        int64_t *RESTRICT energy = a.energy, *RESTRICT best_e = a.best_e;
        int64_t *RESTRICT bestflip = a.bestflip, *RESTRICT offsets = a.offsets;
        const int64_t *RESTRICT windows = a.windows;
        uint64_t *RESTRICT Xp = a.xp, *RESTRICT bestp = a.bestp;
        Scratch_${SFX} s = scratch_${SFX}(a.scratch, nw);
        for (int64_t b = 0; b < B; b++) {
            ${DT} *RESTRICT d = delta + b * n;
            uint64_t *RESTRICT xp = Xp + b * nw;
            unpack_mask(s.sx, xp, n);
            for (int64_t t = 0; t < steps; t++) {
                /* Figure 2 windowed min-delta select (first minimum wins). */
                int64_t off = offsets[b], l = windows[b];
                int64_t k = off;
                ${DT} wmin = d[off];
                for (int64_t j = 1; j < l; j++) {
                    int64_t idx = off + j;
                    if (idx >= n) idx -= n;
                    if (d[idx] < wmin) { wmin = d[idx]; k = idx; }
                }
                /* Eq. 16 flip, fused with the word minima. */
                ${DT} dk_old = d[k];
                int8_t fs = s.sx[k];
                s.sx[k] = ~fs;
                xp[k >> 6] ^= 1ULL << (k & 63);
                d[k] = -dk_old;
                energy[b] += (int64_t)dk_old;
                const ${WT} *RESTRICT row = W + k * n;
                ${DT} mn = ${DMAX};
                for (int64_t w = 0; w < nw; w++) {
                    /* Full words get a constant trip count: no remainder loop. */
                    int64_t base = w << 6, lim = n - base;
                    ${DT} m = lim >= 64
                        ? row_add_${SFX}(d + base, row + base, s.sx + base, fs, 64)
                        : row_add_${SFX}(d + base, row + base, s.sx + base, fs, lim);
                    s.wm[w] = m;
                    if (m < mn) mn = m;
                }
                incumbent_${SFX}(d, s.wm, xp, nw, 1, mn, energy[b], best_e + b,
                                 bestp + b * nw, bestflip + b);
                offsets[b] = (off + l) % n;
            }
        }
    }
    arena_end(&a, n, B, nw);
    return steps * B * n;
}

/* First still-differing bit whose delta equals v; -1 when none. */
static int64_t diff_find_${SFX}(const ${DT} *d, const uint64_t *xp,
                             const uint64_t *tp, int64_t nw, ${DT} v)
{
    for (int64_t w = 0; w < nw; w++)
        for (uint64_t m = xp[w] ^ tp[w]; m; m &= m - 1)
            if (d[(w << 6) + CTZ(m)] == v) return (w << 6) + CTZ(m);
    return -1;
}

/* Minimum delta over the still-differing bits; ${DMAX} when none. */
static ${DT} diff_min_${SFX}(const ${DT} *d, const uint64_t *xp,
                            const uint64_t *tp, int64_t nw)
{
    ${DT} mn = ${DMAX};
    for (int64_t w = 0; w < nw; w++)
        for (uint64_t m = xp[w] ^ tp[w]; m; m &= m - 1)
            if (d[(w << 6) + CTZ(m)] < mn) mn = d[(w << 6) + CTZ(m)];
    return mn;
}

/* One word of the straight-search pass: the Eq. 16 row add with two
 * minima, over all entries (*wdm gets the one over still-differing
 * entries).  The blend keeps the loop vectorizable. */
static inline ${DT} straight_word_${SFX}(
    ${DT} *RESTRICT d, const ${WT} *RESTRICT r, const int8_t *RESTRICT sx,
    const int8_t *RESTRICT sd, int8_t fs, int64_t lim, ${DT} *RESTRICT wdm)
{
    ${DT} mn = ${DMAX}, dmn = ${DMAX};
    for (int64_t j = 0; j < lim; j++) {
        ${DT} msk = (${DT})(int8_t)(sx[j] ^ fs);
        ${DT} r2 = 2 * (${DT})r[j];
        ${DT} v = d[j] + ((r2 ^ msk) - msk);
        d[j] = v;
        if (v < mn) mn = v;
        ${DT} dm = (${DT})sd[j];
        ${DT} dv = (v & dm) | (${DMAX} & ~dm);
        if (dv < dmn) dmn = dv;
    }
    *wdm = dmn;
    return mn;
}

/* Batched Algorithm 5.  Blocks are independent, so each walks to its
 * target row Tp in turn: flip the still-differing bit (set in xp ^ tp)
 * of minimum delta, the lowest index on ties, until xp == tp.  The
 * Eq. 16 row add keeps two minima per word: over still-differing bits
 * (the next k) and over all bits (update_best's neighbour check).
 * With scan == 0 only visited solutions are incumbent candidates
 * (track_position). */
int64_t bp_straight_${SFX}(
    const ${WT} *RESTRICT W,      /* n*n off-diagonal weights, diag zeroed */
    int64_t  *arena,                /* this call's Arena */
    ${DT} *RESTRICT delta,        /* B*n */
    int64_t n, int64_t B, int64_t nw, int64_t scan)
{
    Arena a = arena_begin(arena, n, B, nw, 1);
    int64_t flips = 0;
    {   /* the restrict scope: see arena_begin */
        int64_t *RESTRICT energy = a.energy, *RESTRICT best_e = a.best_e;
        int64_t *RESTRICT bestflip = a.bestflip;
        uint64_t *RESTRICT Xp = a.xp, *RESTRICT bestp = a.bestp;
        const uint64_t *RESTRICT Tp = a.tp;
        Scratch_${SFX} s = scratch_${SFX}(a.scratch, nw);
        for (int64_t b = 0; b < B; b++) {
            ${DT} *RESTRICT d = delta + b * n;
            uint64_t *RESTRICT xp = Xp + b * nw;
            const uint64_t *RESTRICT tp = Tp + b * nw;
            int64_t k = diff_find_${SFX}(d, xp, tp, nw, diff_min_${SFX}(d, xp, tp, nw));
            if (k < 0) continue;
            unpack_mask(s.sx, xp, n);
            unpack_diff(s.sd, xp, tp, n);
            while (k >= 0) {
                ${DT} dk_old = d[k];
                int8_t fs = s.sx[k];
                s.sx[k] = ~fs;
                s.sd[k] = 0;
                xp[k >> 6] ^= 1ULL << (k & 63);
                d[k] = -dk_old;
                energy[b] += (int64_t)dk_old;
                flips++;
                const ${WT} *RESTRICT row = W + k * n;
                ${DT} mn = ${DMAX}, dmn = ${DMAX};
                for (int64_t w = 0; w < nw; w++) {
                    int64_t base = w << 6, lim = n - base;
                    ${DT} m = lim >= 64
                        ? straight_word_${SFX}(d + base, row + base, s.sx + base,
                                                s.sd + base, fs, 64, s.wdm + w)
                        : straight_word_${SFX}(d + base, row + base, s.sx + base,
                                                s.sd + base, fs, lim, s.wdm + w);
                    s.wm[w] = m;
                    if (m < mn) mn = m;
                    if (s.wdm[w] < dmn) dmn = s.wdm[w];
                }
                incumbent_${SFX}(d, s.wm, xp, nw, scan, mn, energy[b], best_e + b,
                                 bestp + b * nw, bestflip + b);
                if (dmn == ${DMAX}) {
                    /* No differing entry below the sentinel: none is left,
                     * or one holds it exactly, which the minima cannot tell. */
                    k = diff_find_${SFX}(d, xp, tp, nw, dmn);
                } else {
                    int64_t c = 0;
                    while (s.wdm[c] != dmn) c++;
                    uint64_t m = xp[c] ^ tp[c];
                    while (d[(c << 6) + CTZ(m)] != dmn) m &= m - 1;
                    k = (c << 6) + CTZ(m);
                }
            }
        }
    }
    arena_end(&a, n, B, nw);
    return flips * n;
}
""")

#: ``(WT, DT, DMAX, SFX)`` for each dense tier :data:`_C_DENSE` is
#: instantiated for (see ``prepare_dense`` for when each applies).
_DENSE_TIERS = (
    ("int16_t", "int32_t", "INT32_MAX", "w16_d32"),
    ("int64_t", "int64_t", "INT64_MAX", "w64"),
)

_C_SPARSE = r"""
/* Sparse (CSR) kernels: one delta minimum per 64-bit plane word.
 *
 * A flip writes only degree(k) + 1 deltas, so these kernels never
 * rescan all n of them for the next minimum.  Each block keeps, in the
 * caller's per-call scratch, two minima per word c: ms[c] over its bits
 * that match the target (every bit, in local search) and md[c] over its
 * still-differing bits, INT64_MAX for an empty set.  The minimum over
 * all of word c's bits is min(ms[c], md[c]).  The two sets are
 * disjoint, so each write touches one minimum, picked by address.  A
 * write that can only lower it updates it in place; one that may raise
 * it (the old value was the minimum, the new one is larger) marks the
 * word, and so does a flipped k leaving the differing set.  Marked
 * words are rescanned (<= 64 entries) before the next query.  A query
 * scans the nw word minima for the first word holding the overall
 * minimum, then that word for its first entry of that value: the
 * reference's first-minimum tie rule.  Per flip: O(degree + n/64),
 * not O(n).
 */

#define SAME 1  /* mark bits: the word's ms / md awaits a rescan */
#define DIFF 2

typedef struct {
    int64_t *ms;        /* 2*nw word minima: ms, then md = ms + nw */
    int64_t *mark;      /* nw: pending SAME | DIFF rescans per word */
    int64_t *list;      /* the marked words */
    int64_t nmarked, nw;
} WordMins;

/* Carves the word minima out of a 4*nw scratch buffer. */
static WordMins word_mins(int64_t *scratch, int64_t nw)
{
    WordMins wm = {scratch, scratch + 2 * nw, scratch + 3 * nw, 0, nw};
    memset(wm.mark, 0, (size_t)nw * 8);
    return wm;
}

static inline void wm_mark(WordMins *wm, int64_t c, int64_t bit)
{
    if (!wm->mark[c]) wm->list[wm->nmarked++] = c;
    wm->mark[c] |= bit;
}

/* An entry of word c under minimum *m went from o to v, and v undercuts
 * *m or o held it (the caller's test: rare, so this stays out of the
 * scatter loop).  Lowers *m, or marks the word when *m may rise. */
static __attribute__((noinline, cold)) void wm_fix(
    WordMins *wm, int64_t *m, int64_t c, int64_t bit, int64_t o, int64_t v)
{
    if (v < *m) *m = v;
    else if (v > o) wm_mark(wm, c, bit);
}

/* Minimum delta over the entries of word c whose bit is set in m;
 * INT64_MAX when none.  The blend keeps the loop vectorizable. */
static inline int64_t word_min(const int64_t *d, int64_t n, int64_t c,
                               uint64_t m)
{
    int64_t base = c << 6, lim = n - base, mn = INT64_MAX;
    if (lim > 64) lim = 64;
    for (int64_t j = 0; j < lim; j++) {
        int64_t dm = -(int64_t)((m >> j) & 1);
        int64_t dv = (d[base + j] & dm) | (INT64_MAX & ~dm);
        if (dv < mn) mn = dv;
    }
    return mn;
}

static inline int64_t mins_min(const int64_t *m, int64_t len)
{
    int64_t mn = INT64_MAX;
    for (int64_t c = 0; c < len; c++)
        if (m[c] < mn) mn = m[c];
    return mn;
}

/* Recomputes word c's minima named by bits; tp == NULL: no target. */
static inline void wm_scan(WordMins *wm, const int64_t *d, const uint64_t *xp,
                           const uint64_t *tp, int64_t n, int64_t c,
                           int64_t bits)
{
    uint64_t diff = tp ? xp[c] ^ tp[c] : 0;
    if (bits & SAME) wm->ms[c] = word_min(d, n, c, ~diff);
    if (bits & DIFF) wm->ms[wm->nw + c] = diff ? word_min(d, n, c, diff) : INT64_MAX;
}

static void wm_flush(WordMins *wm, const int64_t *d, const uint64_t *xp,
                     const uint64_t *tp, int64_t n)
{
    for (int64_t i = 0; i < wm->nmarked; i++) {
        int64_t c = wm->list[i];
        wm_scan(wm, d, xp, tp, n, c, wm->mark[c]);
        wm->mark[c] = 0;
    }
    wm->nmarked = 0;
}

/* Eq. 16 scatter for flipping bit k over its CSR neighbours, keeping
 * the word minima exact or marked; with a target tp, k itself leaves
 * the differing set.  The CSR holds off-diagonal entries only, so
 * j != k always and flipping k's plane bit first is order-equivalent.
 * Returns k's old delta.  Kept out of line: the scatter loop then gets
 * the registers to itself. */
static __attribute__((noinline)) int64_t sparse_flip(
    const int64_t *RESTRICT indptr, const int64_t *RESTRICT indices,
    const int64_t *RESTRICT data, int64_t *RESTRICT d,
    uint64_t *RESTRICT xp, const uint64_t *RESTRICT tp, WordMins *wm,
    int64_t k)
{
    int64_t *RESTRICT ms = wm->ms;
    int64_t nw = wm->nw, dk_old = d[k], ck = k >> 6, end = indptr[k + 1];
    uint64_t kbit = 1ULL << (k & 63);
    int64_t sk = (xp[ck] & kbit) != 0;      /* s_k = -1 */
    xp[ck] ^= kbit;
    if (tp) wm_mark(wm, ck, DIFF);
    for (int64_t p = indptr[k]; p < end; p++) {
        int64_t j = indices[p], c = j >> 6;
        uint64_t xw = xp[c];
        int64_t w2 = data[p] + data[p];
        int64_t o = d[j], v = o + ((int64_t)((xw >> (j & 63)) & 1) == sk ? w2 : -w2);
        d[j] = v;
        int64_t in = tp ? (int64_t)((xw ^ tp[c]) >> (j & 63)) & 1 : 0;
        int64_t *m = ms + c + (nw & -in);
        if ((v < *m) | (o == *m))
            wm_fix(wm, m, c, SAME << in, o, v);
    }
    d[k] = -dk_old;
    /* k now matches its target: a write into ms (an insertion when it
     * came from md, where the rule only ever marks needlessly). */
    if ((-dk_old < ms[ck]) | (dk_old == ms[ck]))
        wm_fix(wm, ms + ck, ck, SAME, dk_old, -dk_old);
    return dk_old;
}

/* Incumbent update after one flip: the best neighbour (energy plus mn,
 * the minimum of d, at its first index) before the position itself, as
 * update_best does; with scan == 0 the position only, as
 * track_position does. */
static inline void sparse_incumbent(
    const int64_t *d, const uint64_t *xp, const WordMins *wm, int64_t scan,
    int64_t mn, int64_t e, int64_t *best_e, uint64_t *bestp,
    int64_t *bestflip)
{
    const int64_t *ms = wm->ms, *md = wm->ms + wm->nw;
    if (scan && e + mn < *best_e) {
        int64_t c = 0, pos;
        while (ms[c] != mn && md[c] != mn) c++;
        for (pos = c << 6; d[pos] != mn; pos++) ;
        *best_e = e + mn;
        memcpy(bestp, xp, (size_t)wm->nw * 8);
        *bestflip = pos;
    }
    if (e < *best_e) {
        *best_e = e;
        memcpy(bestp, xp, (size_t)wm->nw * 8);
        *bestflip = -1;
    }
}

/* The first word c with md[c] == v that still has differing bits (an
 * empty word holds INT64_MAX too).  Eight words per test, so the
 * comparisons vectorize. */
static inline int64_t first_diff_word(const int64_t *md, const uint64_t *xp,
                                      const uint64_t *tp, int64_t nw,
                                      int64_t v)
{
    int64_t c = 0;
    for (; c + 8 <= nw; c += 8) {
        int64_t hit = 0;
        for (int64_t i = 0; i < 8; i++)
            hit |= (md[c + i] == v) & ((xp[c + i] ^ tp[c + i]) != 0);
        if (hit) break;
    }
    while (md[c] != v || !(xp[c] ^ tp[c])) c++;
    return c;
}

int64_t bp_local_steps_sparse(
    const int64_t *RESTRICT indptr,  /* n+1 (off-diagonal CSR) */
    const int64_t *RESTRICT indices,
    const int64_t *RESTRICT data,
    int64_t  *arena,                 /* this call's Arena; 4*nw scratch */
    int64_t  *RESTRICT delta,
    int64_t n, int64_t B, int64_t nw, int64_t steps)
{
    Arena a = arena_begin(arena, n, B, nw, 0);
    int64_t updates = 0;
    {   /* the restrict scope: see arena_begin */
        int64_t *RESTRICT energy = a.energy, *RESTRICT best_e = a.best_e;
        int64_t *RESTRICT bestflip = a.bestflip, *RESTRICT offsets = a.offsets;
        const int64_t *RESTRICT windows = a.windows;
        uint64_t *RESTRICT Xp = a.xp, *RESTRICT bestp = a.bestp;
        WordMins wm = word_mins(a.scratch, nw);
        /* Blocks are independent, so each runs all its steps in turn and
         * one set of word minima serves every block. */
        for (int64_t b = 0; b < B; b++) {
            int64_t *RESTRICT d = delta + b * n;
            uint64_t *RESTRICT xp = Xp + b * nw;
            for (int64_t c = 0; c < nw; c++)
                wm_scan(&wm, d, xp, NULL, n, c, SAME | DIFF);
            for (int64_t t = 0; t < steps; t++) {
                int64_t off = offsets[b], l = windows[b];
                int64_t k = off;
                int64_t wmin = d[off];
                for (int64_t j = 1; j < l; j++) {
                    int64_t idx = off + j;
                    if (idx >= n) idx -= n;
                    if (d[idx] < wmin) { wmin = d[idx]; k = idx; }
                }
                energy[b] += sparse_flip(indptr, indices, data, d, xp, NULL, &wm, k);
                updates += indptr[k + 1] - indptr[k] + 1;
                wm_flush(&wm, d, xp, NULL, n);
                sparse_incumbent(d, xp, &wm, 1, mins_min(wm.ms, nw), energy[b],
                                 best_e + b, bestp + b * nw, bestflip + b);
                offsets[b] = (off + l) % n;
            }
        }
    }
    arena_end(&a, n, B, nw);
    return updates;
}

int64_t bp_straight_sparse(
    const int64_t *RESTRICT indptr,  /* n+1 (off-diagonal CSR) */
    const int64_t *RESTRICT indices,
    const int64_t *RESTRICT data,
    int64_t  *arena,                 /* this call's Arena; 4*nw scratch */
    int64_t  *RESTRICT delta,
    int64_t n, int64_t B, int64_t nw, int64_t scan)
{
    Arena a = arena_begin(arena, n, B, nw, 1);
    int64_t updates = 0;
    {   /* the restrict scope: see arena_begin */
        int64_t *RESTRICT energy = a.energy, *RESTRICT best_e = a.best_e;
        int64_t *RESTRICT bestflip = a.bestflip;
        uint64_t *RESTRICT Xp = a.xp, *RESTRICT bestp = a.bestp;
        const uint64_t *RESTRICT Tp = a.tp;
        WordMins wm = word_mins(a.scratch, nw);
        const int64_t *md = wm.ms + nw;
        for (int64_t b = 0; b < B; b++) {
            int64_t *RESTRICT d = delta + b * n;
            uint64_t *RESTRICT xp = Xp + b * nw;
            const uint64_t *RESTRICT tp = Tp + b * nw;
            int64_t left = 0;
            for (int64_t c = 0; c < nw; c++)
                left += __builtin_popcountll(xp[c] ^ tp[c]);
            if (left == 0) continue;
            for (int64_t c = 0; c < nw; c++)
                wm_scan(&wm, d, xp, tp, n, c, SAME | DIFF);
            for (int64_t flipped = 0;; flipped = 1) {
                /* One pass serves both queries: the minimum over all bits
                 * (the last flip's incumbent check) and over the
                 * still-differing bits (the next flip). */
                int64_t mn = INT64_MAX, dmn = INT64_MAX;
                for (int64_t c = 0; c < nw; c++) {
                    int64_t lo = wm.ms[c] < md[c] ? wm.ms[c] : md[c];
                    if (lo < mn) mn = lo;
                    if (md[c] < dmn) dmn = md[c];
                }
                if (flipped)
                    sparse_incumbent(d, xp, &wm, scan, mn, energy[b],
                                     best_e + b, bestp + b * nw, bestflip + b);
                if (left-- == 0) break;
                /* The first still-differing bit of minimum delta. */
                int64_t c = first_diff_word(md, xp, tp, nw, dmn);
                uint64_t m = xp[c] ^ tp[c];
                while (d[(c << 6) + CTZ(m)] != dmn) m &= m - 1;
                int64_t k = (c << 6) + CTZ(m);
                energy[b] += sparse_flip(indptr, indices, data, d, xp, tp, &wm, k);
                updates += indptr[k + 1] - indptr[k] + 1;
                wm_flush(&wm, d, xp, tp, n);
            }
        }
    }
    arena_end(&a, n, B, nw);
    return updates;
}
"""

_C_SOURCE = _C_PRELUDE + "".join(
    _C_DENSE.substitute(WT=wt, DT=dt, DMAX=dmax, SFX=sfx)
    for wt, dt, dmax, sfx in _DENSE_TIERS
) + _C_SPARSE

#: ``variant -> (run_local_steps kernel, run_straight kernel)``.
_KERNELS = {
    "dense_w16_d32": ("bp_local_steps_w16_d32", "bp_straight_w16_d32"),
    "dense_w64": ("bp_local_steps_w64", "bp_straight_w64"),
    "sparse_w64": ("bp_local_steps_sparse", "bp_straight_sparse"),
}


# --------------------------------------------------------------------------
# Packed-plane helpers (pure NumPy; the layout the exchange rings use too)
# --------------------------------------------------------------------------

def pack_rows(X: np.ndarray, nw: int | None = None) -> np.ndarray:
    """Pack 0/1 rows into little-endian uint64 bit planes.

    ``X`` has shape ``(..., n)``; the result has shape ``(..., nw)``
    with ``nw = ⌈n/64⌉`` (pad bits are zero).  Bit ``i`` lands in word
    ``i >> 6`` at position ``i & 63``.
    """
    X = np.asarray(X, dtype=np.uint8)
    n = int(X.shape[-1])
    words = (n + 63) // 64 if nw is None else int(nw)
    pad = words * 64 - n
    if pad:
        widths = [(0, 0)] * (X.ndim - 1) + [(0, pad)]
        X = np.pad(X, widths)
    packed = np.ascontiguousarray(np.packbits(X, axis=-1, bitorder="little"))
    return packed.view(np.uint64)


def unpack_rows(planes: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: uint64 planes back to uint8 bits."""
    planes = np.ascontiguousarray(planes, dtype=np.uint64)
    return np.unpackbits(
        planes.view(np.uint8), axis=-1, bitorder="little", count=n
    )


# --------------------------------------------------------------------------
# Compiler gating + runtime compilation
# --------------------------------------------------------------------------

def _find_cc() -> str | None:
    """The first usable C compiler: ``$CC``, then cc/gcc/clang."""
    for candidate in (os.environ.get("CC", ""), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def cc_available() -> bool:
    """Whether the bit-plane backend can compile on this machine.

    ``REPRO_NO_CC`` (any non-empty value) masks an installed compiler —
    the mechanism the test suite uses to cover the fallback path
    deterministically.
    """
    if os.environ.get("REPRO_NO_CC", ""):
        return False
    return _find_cc() is not None


#: Compiler flag sets, in order of preference: ``-march=native`` first,
#: the portable set when the toolchain rejects it.
_BASE_FLAGS = ("-O3", "-funroll-loops", "-fwrapv", "-shared", "-fPIC")
_FLAG_SETS = ((*_BASE_FLAGS, "-march=native"), _BASE_FLAGS)

#: ``/proc/cpuinfo`` fields naming the CPU (not its clock) for the key.
_CPU_FIELDS = frozenset({
    "vendor_id", "model name", "flags", "CPU implementer", "CPU part", "Features",
})


def _cpu_model() -> str:
    """What ``-march=native`` compiles for: the first CPU's identity."""
    try:
        with open("/proc/cpuinfo") as fh:
            text = fh.read().split("\n\n", 1)[0]
    except OSError:
        return platform.processor()
    fields = (line.partition(":") for line in text.splitlines())
    return "\n".join(
        f"{k.strip()}:{v.strip()}" for k, _, v in fields if k.strip() in _CPU_FIELDS
    )


def _cache_key(
    cc_path: str, cc_version: str, flags: tuple[str, ...], source: str = _C_SOURCE
) -> str:
    """sha256 over everything that changes the ``.so`` or where it runs."""
    h = hashlib.sha256()
    for part in (source, *flags, cc_path, cc_version, platform.machine(), _cpu_model()):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _cache_dir() -> Path:
    """``$TMPDIR/repro-bitplane-<uid>``: one kernel cache per user."""
    return Path(tempfile.gettempdir()) / f"repro-bitplane-{os.getuid()}"


def _private(path: Path, *, is_dir: bool) -> bool:
    """Whether ``path`` is ours alone: owned by this uid, no symlink,
    not writable by group or others — the precondition for dlopen."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    kind_ok = stat.S_ISDIR(st.st_mode) if is_dir else stat.S_ISREG(st.st_mode)
    return kind_ok and st.st_uid == os.getuid() and not st.st_mode & 0o022


def _bind(path: Path) -> ctypes.CDLL:
    """dlopen ``path`` and type every kernel (AttributeError if missing).

    Every kernel takes its weight arrays (dense: one; CSR: three), then
    its per-call arena and its delta vector (see
    :meth:`BitplaneBackend._walk`), then the four int64 scalars.
    """
    lib = ctypes.CDLL(str(path))
    for variant, kernels in _KERNELS.items():
        arrays = (3 if variant == "sparse_w64" else 1) + 2
        for fname in kernels:
            fn = getattr(lib, fname)
            fn.argtypes = [ctypes.c_void_p] * arrays + [ctypes.c_int64] * 4
            fn.restype = ctypes.c_int64
    return lib


_SEAL_BYTES = hashlib.sha256().digest_size


def _seal(blob: bytes) -> bytes:
    """A cache entry: the library bytes, then their sha256 as a trailer
    (the loader maps segments only, so trailing bytes are inert)."""
    return blob + hashlib.sha256(blob).digest()


def _sealed(entry: Path) -> bool:
    """Whether ``entry`` is whole.  dlopen of a truncated library can die
    of SIGBUS instead of raising, so this is checked before loading."""
    blob = entry.read_bytes()
    return len(blob) > _SEAL_BYTES and _seal(blob[:-_SEAL_BYTES]) == blob


def _load_cached(entry: Path) -> ctypes.CDLL | None:
    """The cached library at ``entry``; ``None`` (entry deleted if bad)."""
    if not _private(entry, is_dir=False):
        return None
    try:
        if _sealed(entry):
            return _bind(entry)
    except (OSError, AttributeError):
        pass
    entry.unlink(missing_ok=True)
    return None


def _compile(cc: str, workdir: Path) -> tuple[Path, tuple[str, ...]]:
    """Compile the kernels into ``workdir``: the ``.so`` and its flag set."""
    src = workdir / "bitplane_kernels.c"
    src.write_text(_C_SOURCE)
    out = workdir / "bitplane_kernels.so"
    stderr = ""
    for flags in _FLAG_SETS:
        proc = subprocess.run(
            [cc, *flags, "-o", str(out), str(src)], capture_output=True, text=True
        )
        if proc.returncode == 0:
            return out, flags
        stderr = proc.stderr.strip()
    raise RuntimeError(f"bit-plane kernel compilation failed: {stderr[:500]}")


def _load_library() -> ctypes.CDLL:
    """Load the kernels from the compile cache, compiling on a miss.

    Entries are ``<sha256 key>.so`` in :func:`_cache_dir`; a build runs
    in a scratch dir inside it and is published with ``os.replace``, so
    concurrent builders race harmlessly.  A cache dir that fails the
    :func:`_private` check is never loaded from: the build then runs in
    a private temp dir instead.  Scratch dirs are always removed.
    """
    cc = _find_cc()
    if cc is None:
        raise RuntimeError("no C compiler found (set $CC or install cc/gcc/clang)")
    cc_path = os.path.realpath(shutil.which(cc) or cc)
    version = subprocess.run([cc, "--version"], capture_output=True, text=True).stdout
    keys = {flags: _cache_key(cc_path, version, flags) for flags in _FLAG_SETS}
    cache = _cache_dir()
    try:
        cache.mkdir(mode=0o700, exist_ok=True)
    except OSError:
        pass  # judged by the check below, like any other unusable dir
    safe = _private(cache, is_dir=True)
    if safe:
        for key in keys.values():
            lib = _load_cached(cache / f"{key}.so")
            if lib is not None:
                return lib
    workdir = Path(
        tempfile.mkdtemp(prefix="build-", dir=cache)
        if safe
        else tempfile.mkdtemp(prefix="repro-bitplane-")
    )
    try:
        out, flags = _compile(cc, workdir)
        if not safe:
            return _bind(out)
        entry = cache / f"{keys[flags]}.so"
        out.write_bytes(_seal(out.read_bytes()))
        os.chmod(out, 0o755)
        os.replace(out, entry)
        return _bind(entry)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: What a failed load or build raises.
_BUILD_ERRORS = (OSError, RuntimeError, subprocess.SubprocessError)


def load_bitplane_backend() -> BitplaneBackend | None:
    """A compiled :class:`BitplaneBackend`, or ``None`` where the kernels
    neither load from the cache nor compile.  Never warns."""
    if not cc_available():
        return None
    try:
        BitplaneBackend.ensure_compiled()
    except _BUILD_ERRORS:
        return None
    return BitplaneBackend()


def _unavailable_reason() -> str:
    """Why :func:`load_bitplane_backend` gave ``None``: the compiler is
    masked, there is none, or the build failed."""
    if os.environ.get("REPRO_NO_CC", ""):
        return "REPRO_NO_CC is set"
    if _find_cc() is None:
        return "no C compiler found ($CC, cc, gcc or clang)"
    return f"the kernel build failed: {BitplaneBackend._build_error}"


def make_bitplane_backend() -> KernelBackend:
    """What the name ``bitplane`` resolves to: the compiled backend, or
    the NumPy one tagged with ``fallback_from`` and ``fallback_reason``."""
    global _warned
    backend = load_bitplane_backend()
    if backend is not None:
        return backend
    reason = _unavailable_reason()
    if not _warned:
        _warned = True
        warnings.warn(
            f"backend 'bitplane' requested but its C kernels are unavailable "
            f"({reason}); falling back to the NumPy reference backend "
            "(install cc/gcc/clang, or unset REPRO_NO_CC, to enable the "
            "compiled bit-plane kernels)",
            RuntimeWarning,
            stacklevel=3,
        )
    fallback = NumpyBackend()
    fallback.fallback_from = "bitplane"
    fallback.fallback_reason = reason
    return fallback


class _Planes:
    """Per-problem kernel artifacts derived at ``prepare_*`` time: the
    tier, its weight arrays and their addresses (stable for the life of
    the prepared weights, which hold the arrays), and its two kernels."""

    __slots__ = ("variant", "weights", "nw", "local", "straight", "addresses",
                 "scratch_words")

    def __init__(
        self, variant: str, weights: tuple[np.ndarray, ...], nw: int, lib: Any
    ) -> None:
        self.variant = variant
        self.weights = weights[0] if len(weights) == 1 else None
        self.nw = nw
        local, straight = _KERNELS[variant]
        self.local = getattr(lib, local)
        self.straight = getattr(lib, straight)
        self.addresses = tuple(w.ctypes.data for w in weights)
        # Dense: two Δ minima per plane word, then two int8 masks of 64
        # entries per word (2 + 2 * 64 / 8 words).  CSR: two minima per
        # word, then the rescan marks and their list.
        self.scratch_words = (4 if variant == "sparse_w64" else 18) * nw


@dataclass(frozen=True)
class BitplanePreparedWeights(PreparedWeights):
    """:class:`PreparedWeights` plus the compiled-kernel artifacts."""

    planes: _Planes | None = None


class BitplaneBackend(KernelBackend):
    """Packed-state backend with C-compiled ``run_local_steps`` and
    ``run_straight``.

    Both walks — the Algorithm 4 multi-step loop and the Algorithm 5
    straight walk — run on packed planes in one C call each.  Each call
    copies its arguments into one int64 arena (see :meth:`_walk`) and
    passes the kernel that arena's address, from which the kernel
    derives every other one.  The kernel packs the state on entry and
    unpacks it on exit, an O(B·n) conversion amortized over every fused
    flip of the call.  The walks take only weights from this backend's
    own ``prepare_*``.
    """

    name = "bitplane"

    _lib: Any = None
    #: Why the build failed, kept for the life of the process so a
    #: broken compiler is spawned once, not on every resolve.
    _build_error: Exception | None = None

    @classmethod
    def ensure_compiled(cls) -> Any:
        """Load the shared library once per process: from the compile
        cache, compiling it there on a miss (once per machine).  A
        failed build raises again, without a rebuild, on later calls."""
        if cls._lib is None:
            if cls._build_error is not None:
                raise cls._build_error.with_traceback(None)
            try:
                cls._lib = _load_library()
            except _BUILD_ERRORS as exc:
                cls._build_error = exc
                raise
        return cls._lib

    def prepare_dense(self, W: np.ndarray) -> PreparedWeights:
        lib = self.ensure_compiled()
        W = np.ascontiguousarray(W, dtype=np.int64)
        n = int(W.shape[0])
        nw = (n + 63) // 64
        # Eq. 16 touches j != k only and the kernel pre-writes
        # d[k] = -d_k, so the stored rows carry a zero diagonal.
        use_w16 = bool(W.min() >= -(2**15) and W.max() < 2**15)
        if not use_w16:  # only the diagonal may be out of int16 range
            off = np.where(np.eye(n, dtype=bool), 0, W)
            use_w16 = bool(off.min() >= -(2**15) and off.max() < 2**15)
        if use_w16:
            w16 = W.astype(np.int16)  # a wrapped diagonal is zeroed next
            np.fill_diagonal(w16, 0)
            off_sum = np.abs(w16, dtype=np.int32).sum(axis=1, dtype=np.int64)
            dmax = float(
                (np.abs(np.diagonal(W).astype(np.float64)) + 2.0 * off_sum).max()
            )
            use_w16 = dmax <= float(2**31 - 2)
        if use_w16:
            planes = _Planes("dense_w16_d32", (w16,), nw, lib)
        else:
            Woff = W.copy()
            np.fill_diagonal(Woff, 0)
            planes = _Planes("dense_w64", (Woff,), nw, lib)
        return BitplanePreparedWeights(n=n, dense=W, planes=planes)

    def prepare_sparse(self, sparse: Any) -> PreparedWeights:
        lib = self.ensure_compiled()
        base = super().prepare_sparse(sparse)
        csr = tuple(
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (base.indptr, base.indices, base.data)
        )
        planes = _Planes("sparse_w64", csr, (base.n + 63) // 64, lib)
        return BitplanePreparedWeights(
            n=base.n, indptr=csr[0], indices=csr[1], data=csr[2], planes=planes
        )

    @staticmethod
    def _planes(pw: PreparedWeights) -> _Planes:
        """The kernel artifacts of ``pw``; ``TypeError`` for weights that
        did not come from a bitplane ``prepare_*`` (their layout is
        unknown)."""
        planes = getattr(pw, "planes", None)
        if planes is None:
            raise TypeError(
                "the bitplane backend needs weights from its own prepare_dense"
                f"/prepare_sparse, got {type(pw).__name__} (prepared= must come "
                "from an engine over the same weights and backend)"
            )
        return planes

    @staticmethod
    def _walk(
        planes: _Planes, fn: Any, last: int, X: np.ndarray, T: np.ndarray | None,
        delta: np.ndarray, energy: np.ndarray, best_energy: np.ndarray,
        best_x: np.ndarray, offsets: np.ndarray | None, windows: np.ndarray | None,
    ) -> int:
        """One kernel call ``fn(weights..., arena, delta, n, B, nw, last)``.

        The arena is one int64 buffer laid out as the C ``Arena``: the
        rows energy, best_e, bestflip, offsets and windows (``B`` each),
        the planes xp, bestp and tp (``B·nw`` words each), the byte rows
        x, t and best_x (``B·n`` each; the kernel packs and unpacks its
        planes itself), the kernel scratch and, for the d32 tier, the
        int32 copy of ``delta``.  It lives for this call only (prepared
        weights are shared across engines), and every result is copied
        out of it, so no caller array aliases it.
        """
        B, n = X.shape
        nw = planes.nw
        head = 5 * B
        bits_at = head + 3 * B * nw
        scratch_at = bits_at + (3 * B * n + 7) // 8
        words = scratch_at + planes.scratch_words
        narrow = planes.variant == "dense_w16_d32"
        arena = np.empty(words + ((B * n + 1) // 2 if narrow else 0), dtype=np.int64)
        base = arena.ctypes.data
        rows = arena[:head].reshape(5, B)
        rows[0] = energy
        rows[1] = best_energy
        if offsets is not None:
            rows[3] = offsets
            rows[4] = windows
        x, t, bx = arena[bits_at:scratch_at].view(np.uint8)[: 3 * B * n].reshape(3, B, n)
        x[:] = X
        if T is not None:
            t[:] = T
        bx[:] = best_x
        if narrow:
            # The d32 tier is only selected when the Δ bound fits int32,
            # so this narrowing is exact for any reachable delta vector.
            d = arena[words:].view(np.int32)[: B * n].reshape(B, n)
            d[:] = delta
            dptr = base + 8 * words
        else:
            d = np.ascontiguousarray(delta, dtype=np.int64)
            dptr = d.ctypes.data
        updates = fn(*planes.addresses, base, dptr, n, B, nw, last)
        if d is not delta:
            delta[:] = d
        energy[:] = rows[0]
        best_energy[:] = rows[1]
        if offsets is not None:
            offsets[:] = rows[3]
        X[:] = x
        best_x[:] = bx
        return int(updates)

    def run_local_steps(
        self,
        pw: PreparedWeights,
        X: np.ndarray,
        delta: np.ndarray,
        energy: np.ndarray,
        best_energy: np.ndarray,
        best_x: np.ndarray,
        offsets: np.ndarray,
        windows: np.ndarray,
        steps: int,
    ) -> int:
        planes = self._planes(pw)
        if steps == 0:
            return 0
        return self._walk(
            planes, planes.local, steps, X, None, delta, energy, best_energy,
            best_x, offsets, windows,
        )

    def run_straight(
        self,
        pw: PreparedWeights,
        X: np.ndarray,
        T: np.ndarray,
        delta: np.ndarray,
        energy: np.ndarray,
        best_energy: np.ndarray,
        best_x: np.ndarray,
        scan_neighbors: bool,
    ) -> int:
        planes = self._planes(pw)
        return self._walk(
            planes, planes.straight, int(scan_neighbors), X, T, delta, energy,
            best_energy, best_x, None, None,
        )
