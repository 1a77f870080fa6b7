"""The host's solution pool (paper §2.2.1, §3.1).

The pool holds up to ``capacity`` solutions, kept **sorted by energy**
and **pairwise distinct**.  Both invariants come straight from the
paper: sortedness enables O(log m) binary-search insertion, and
distinctness staves off premature convergence when an extremely good
solution would otherwise flood the population.

With ``min_distance`` ≥ 2 the distinctness invariant strengthens into
the Diverse-ABS admission policy (arXiv:2207.03069 §III): pooled
solutions stay pairwise at least ``min_distance`` bit flips apart.  A
candidate inside an existing entry's Hamming ball ("niche") is rejected
unless it beats the best energy in that ball, in which case it replaces
every entry it is close to.  Distances are XOR/popcount over the same
``np.packbits`` keys the exchange rings ship, so the batch insert path
still serializes each candidate exactly once.

Energies of freshly seeded random solutions are ``+∞`` "in the sense
that they are not computed" (§3.1 Step 1) — the host never evaluates
the energy function; real energies only ever arrive from devices.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.utils.rng import SeedLike, as_generator, random_bits
from repro.utils.validation import check_bit_vector


def pack_key(xb: np.ndarray) -> bytes:
    """Hashable bit-packed identity of a bit vector (``⌈n/8⌉`` bytes).

    The same packed form the exchange rings ship
    (:func:`repro.abs.buffers.pack_solutions`), so batch inserts of
    ring payloads never re-serialize per row.
    """
    return np.packbits(xb).tobytes()


@dataclass(frozen=True)
class PoolEntry:
    """One pooled solution; ``energy`` is ``math.inf`` until evaluated."""

    energy: float
    x: np.ndarray

    def key(self) -> bytes:
        """Hashable identity of the bit vector."""
        return pack_key(self.x)


class SolutionPool:
    """Sorted, duplicate-free, bounded pool of solutions.

    Parameters
    ----------
    n:
        Bits per solution.
    capacity:
        Maximum number of pooled solutions (the paper's ``m``).
    min_distance:
        Diversity radius ``d_min`` of the Diverse-ABS admission policy.
        ``0``/``1`` (default) keep the paper's plain distinctness —
        bit-for-bit the pre-diversity behaviour.  With ``d_min`` ≥ 2,
        pooled entries stay pairwise ≥ ``d_min`` apart: a candidate
        within ``d_min − 1`` flips of existing entries is rejected
        (``pool.rejected_diverse``) unless its energy beats every such
        neighbour, in which case it replaces all of them.

    Notes
    -----
    Rows live in one preallocated ``(capacity, n)`` uint8 matrix; the
    sorted order is a list of slot numbers (rank → slot), so an insert
    or eviction moves list entries, never rows, and a freed slot is
    reused by the next admitted row.  Insertion uses
    :func:`bisect.bisect_left` on the energy list — the paper's
    O(log m) binary search.  A set of packed-bits keys backs an O(1)
    duplicate check; the niche check XOR/popcounts the candidate's key
    against the rank-aligned cached keys (O(m·n/8) bytes touched).
    Every row handed out (:meth:`__getitem__`, iteration,
    :meth:`as_matrix`, :meth:`rows`) is a copy or a read-only snapshot,
    so later inserts and slot reuse never change it.
    """

    def __init__(
        self,
        n: int,
        capacity: int,
        *,
        min_distance: int = 0,
    ) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if min_distance < 0:
            raise ValueError(f"min_distance must be >= 0, got {min_distance}")
        self.n = int(n)
        self.capacity = int(capacity)
        self.min_distance = int(min_distance)
        self._rows = np.zeros((self.capacity, self.n), dtype=np.uint8)
        # Rank-aligned: _energies[r], _order[r] (the slot holding the
        # row) and _entry_keys[r] (its packed bits) describe rank r.
        self._energies: list[float] = []
        self._order: list[int] = []
        self._entry_keys: list[bytes] = []
        self._free = list(range(self.capacity - 1, -1, -1))  # pop() → 0, 1, …
        self._keys: set[bytes] = set()
        #: Monotone insert outcomes (``pool.*`` in ``SolveResult.counters``).
        self.inserted = 0
        self.rejected_duplicate = 0
        self.rejected_worse = 0
        self.rejected_diverse = 0

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def seed_random(self, seed: SeedLike = None, count: int | None = None) -> int:
        """Fill with up to ``count`` random distinct solutions at E = +∞.

        Returns the number actually added (collisions are retried a
        bounded number of times, so for tiny ``n`` fewer may fit).
        """
        rng = as_generator(seed)
        want = self.capacity if count is None else count
        added = 0
        attempts = 0
        while added < want and attempts < 20 * want + 20:
            attempts += 1
            x = random_bits(rng, self.n)
            if self.insert(x, math.inf):
                added += 1
        return added

    def insert(self, x: np.ndarray, energy: float) -> bool:
        """Insert ``(x, energy)``; returns ``True`` if the pool changed.

        Rejects exact duplicates (same bits) and, when the pool is full,
        anything not better than the current worst.  When accepted into
        a full pool, the worst entry is evicted (§2.2.1).
        """
        xb = check_bit_vector(x, self.n, "x")
        slot = self._admit(pack_key(xb), float(energy))
        if slot < 0:
            return False
        self._rows[slot] = xb
        return True

    def insert_batch(self, X: np.ndarray, energies: np.ndarray) -> int:
        """Insert ``k`` solutions at once; returns the number inserted.

        Semantically identical to ``k`` sequential :meth:`insert` calls
        in row order (same eviction decisions, same counters).  The
        keys of all rows come from one ``np.packbits`` buffer sliced per
        row, the loop touches only Python scalars and bytes, and a row
        is copied into the pool matrix only once it is admitted — most
        rows of a device round are rejected as duplicates or worse.
        """
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(
                f"X must have shape (k, {self.n}), got {X.shape}"
            )
        energies = np.asarray(energies)
        if energies.shape != (X.shape[0],):
            raise ValueError(
                f"energies must have shape ({X.shape[0]},), got {energies.shape}"
            )
        if X.size and (X > 1).any():
            raise ValueError("X must contain only 0/1 values")
        width = (self.n + 7) // 8
        buf = np.packbits(X, axis=1).tobytes()
        inserted = 0
        for i, energy in enumerate(energies.tolist()):
            slot = self._admit(buf[i * width : (i + 1) * width], float(energy))
            if slot >= 0:
                self._rows[slot] = X[i]
                inserted += 1
        return inserted

    def _admit(self, key: bytes, energy: float) -> int:
        """Admission bookkeeping for one candidate.

        Updates the counters, evicts what the candidate displaces and
        ranks its key; returns the slot the caller must fill with the
        candidate's row, or ``-1`` if it was rejected.
        """
        if key in self._keys:
            self.rejected_duplicate += 1
            return -1
        if self.min_distance > 1 and self._energies:
            near = self._near_indices(key)
            if near.size:
                # The candidate sits inside one or more niches; it is
                # admitted only by beating every close entry, and then
                # replaces all of them (keeping pairwise separation).
                if energy >= min(self._energies[i] for i in near):
                    self.rejected_diverse += 1
                    return -1
                for i in sorted(map(int, near), reverse=True):
                    self._evict(i)
        if len(self._energies) >= self.capacity:
            if energy >= self._energies[-1]:
                self.rejected_worse += 1
                return -1
            self._evict(len(self._energies) - 1)
        pos = bisect.bisect_left(self._energies, energy)
        slot = self._free.pop()
        self._energies.insert(pos, energy)
        self._order.insert(pos, slot)
        self._entry_keys.insert(pos, key)
        self._keys.add(key)
        self.inserted += 1
        return slot

    def _evict(self, pos: int) -> None:
        self._free.append(self._order.pop(pos))
        self._energies.pop(pos)
        self._keys.discard(self._entry_keys.pop(pos))

    def _near_indices(self, key: bytes) -> np.ndarray:
        """Sorted ranks of entries closer than ``min_distance``.

        XOR/popcount over the pool's own ``np.packbits`` keys, joined
        into one ``(m, ⌈n/8⌉)`` view.  Exact duplicates never reach
        this check (the key set catches them).
        """
        cand = np.frombuffer(key, dtype=np.uint8)
        packed = np.frombuffer(b"".join(self._entry_keys), dtype=np.uint8)
        diff = np.bitwise_xor(packed.reshape(len(self._entry_keys), -1), cand)
        dists = np.bitwise_count(diff).sum(axis=1, dtype=np.int64)
        return np.flatnonzero(dists < self.min_distance)

    def contains(self, x: np.ndarray) -> bool:
        """Whether an identical bit vector is pooled."""
        return pack_key(check_bit_vector(x, self.n, "x")) in self._keys

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._energies)

    def __iter__(self) -> Iterator[PoolEntry]:
        mat = self.as_matrix()
        mat.setflags(write=False)
        return map(PoolEntry, list(self._energies), mat)

    def __getitem__(self, rank: int) -> PoolEntry:
        """Entry at sorted position ``rank`` (0 = best); ``x`` is a
        read-only copy."""
        x = self._rows[self._order[rank]].copy()
        x.setflags(write=False)
        return PoolEntry(self._energies[rank], x)

    def best(self) -> PoolEntry:
        """The lowest-energy entry; raises :class:`IndexError` if empty."""
        if not self._energies:
            raise IndexError("pool is empty")
        return self[0]

    def worst(self) -> PoolEntry:
        """The highest-energy entry; raises :class:`IndexError` if empty."""
        if not self._energies:
            raise IndexError("pool is empty")
        return self[len(self._energies) - 1]

    def energies(self) -> list[float]:
        """Sorted energies (copy)."""
        return list(self._energies)

    def rows(self, ranks: np.ndarray) -> np.ndarray:
        """The entries at sorted ``ranks`` as one ``(len(ranks), n)``
        uint8 matrix (a copy) — one gather out of the pool matrix, which
        is how the batched target generator picks its parents."""
        order = np.array(self._order, dtype=np.intp)
        return self._rows[order[ranks]]

    def as_matrix(self) -> np.ndarray:
        """All pooled solutions as one ``(len, n)`` uint8 matrix (copy).

        Rows are in sorted-energy order (row 0 = best).
        """
        return self._rows[np.array(self._order, dtype=np.intp)]

    def finite_energy_range(self) -> tuple[float, float] | None:
        """``(best, worst)`` over entries with real energies.

        ``None`` while the pool holds only unevaluated (``+∞``) seeds.
        The span ``worst - best`` is the *pool energy spread* — the
        diversity signal the ``host.absorb`` telemetry event reports.
        """
        finite = [e for e in self._energies if math.isfinite(e)]
        if not finite:
            return None
        return finite[0], finite[-1]

    def mean_pairwise_distance(self) -> float | None:
        """Mean Hamming distance over all pooled pairs (``None`` if < 2).

        The diversity signal of Diverse ABS: with niching on, this
        stays bounded below by ``min_distance``; with it off, it
        collapses as the fleet converges.  Bit ``b`` set in ``c_b`` of
        the ``m`` rows differs in exactly ``c_b·(m − c_b)`` pairs, so
        the pair total is one column count over the pool matrix —
        O(m·n), the same integer an all-pairs XOR would sum.
        """
        m = len(self._order)
        if m < 2:
            return None
        counts = self.as_matrix().sum(axis=0, dtype=np.int64)
        total = int((counts * (m - counts)).sum())
        return total / (m * (m - 1) // 2)

    def evaluated_fraction(self) -> float:
        """Share of entries with a real (non-∞) energy."""
        if not self._energies:
            return 0.0
        finite = sum(1 for e in self._energies if math.isfinite(e))
        return finite / len(self._energies)

    # ------------------------------------------------------------------
    # Invariants (used by property-based tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert sortedness, distinctness, capacity, slot order and key
        caching.

        With ``min_distance`` ≥ 2 the distinctness assertion tightens
        to pairwise min-Hamming separation.
        """
        m = len(self._energies)
        assert m == len(self._order) == len(self._entry_keys) == len(self._keys)
        assert m <= self.capacity
        assert sorted(self._order + self._free) == list(range(self.capacity)), (
            "slot order and free slots do not partition the pool matrix"
        )
        assert all(
            self._energies[i] <= self._energies[i + 1] for i in range(m - 1)
        ), "pool energies not sorted"
        mat = self.as_matrix()
        assert len({row.tobytes() for row in mat}) == m, (
            "pool contains duplicate solutions"
        )
        assert all(
            cached == pack_key(row) for cached, row in zip(self._entry_keys, mat)
        ), "cached entry keys out of sync with the slot order"
        assert set(self._entry_keys) == self._keys
        if self.min_distance > 1 and m > 1:
            for i in range(m - 1):
                dists = (mat[i + 1 :] != mat[i]).sum(axis=1, dtype=np.int64)
                assert int(dists.min()) >= self.min_distance, (
                    "pool entries closer than min_distance"
                )

    def __repr__(self) -> str:
        best = self._energies[0] if self._energies else None
        return (
            f"SolutionPool(n={self.n}, size={len(self)}/{self.capacity}, "
            f"best={best})"
        )
