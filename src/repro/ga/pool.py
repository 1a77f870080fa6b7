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
    Insertion uses :func:`bisect.bisect_left` on the energy array —
    the paper's O(log m) binary search — then scans the (typically
    tiny) equal-energy span for an identical bit vector.  A set of
    bit-vector digests backs an O(1) duplicate fast path; the niche
    check XOR/popcounts the candidate's packed key against the cached
    packed rows (O(m·n/8) bytes touched, m ≤ capacity).
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
        self._energies: list[float] = []
        self._solutions: list[np.ndarray] = []
        # Packed-bytes key per entry, kept position-aligned with
        # _solutions so eviction pops the cached key instead of
        # re-serializing the evicted vector.  The uint8 views in
        # _packed alias the same bytes (np.frombuffer is zero-copy), so
        # the niche distance check costs no extra serialization.
        self._entry_keys: list[bytes] = []
        self._packed: list[np.ndarray] = []
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
        return self._insert_keyed(xb, pack_key(xb), float(energy))

    def insert_batch(self, X: np.ndarray, energies: np.ndarray) -> int:
        """Insert ``k`` solutions at once; returns the number inserted.

        Semantically identical to ``k`` sequential :meth:`insert` calls
        in row order (same eviction decisions, same counters) — but the
        duplicate keys for all rows come from a single ``np.packbits``
        call over the whole matrix, which is what makes absorbing a
        device round O(1) serialization calls instead of O(B).
        """
        X = np.ascontiguousarray(X, dtype=np.uint8)
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
        packed = np.packbits(X, axis=1) if X.shape[0] else X
        inserted = 0
        for i in range(X.shape[0]):
            if self._insert_keyed(X[i], packed[i].tobytes(), float(energies[i])):
                inserted += 1
        return inserted

    def _insert_keyed(self, xb: np.ndarray, key: bytes, energy: float) -> bool:
        if key in self._keys:
            self.rejected_duplicate += 1
            return False
        if self.min_distance > 1 and self._energies:
            near = self._near_indices(key)
            if near.size:
                # The candidate sits inside one or more niches; it is
                # admitted only by beating every close entry, and then
                # replaces all of them (keeping pairwise separation).
                if energy >= min(self._energies[i] for i in near):
                    self.rejected_diverse += 1
                    return False
                for i in sorted(map(int, near), reverse=True):
                    self._evict(i)
        if len(self._energies) >= self.capacity:
            if energy >= self._energies[-1]:
                self.rejected_worse += 1
                return False
            self._evict(len(self._energies) - 1)
        pos = bisect.bisect_left(self._energies, energy)
        self._energies.insert(pos, float(energy))
        stored = xb.copy()
        stored.setflags(write=False)
        self._solutions.insert(pos, stored)
        self._entry_keys.insert(pos, key)
        self._packed.insert(pos, np.frombuffer(key, dtype=np.uint8))
        self._keys.add(key)
        self.inserted += 1
        return True

    def _evict(self, pos: int) -> None:
        self._solutions.pop(pos)
        self._energies.pop(pos)
        self._packed.pop(pos)
        self._keys.discard(self._entry_keys.pop(pos))

    def _near_indices(self, key: bytes) -> np.ndarray:
        """Sorted positions of entries closer than ``min_distance``.

        XOR/popcount over the pool's own ``np.packbits`` keys.  Exact
        duplicates never reach this check (the key set catches them).
        """
        cand = np.frombuffer(key, dtype=np.uint8)
        diff = np.bitwise_xor(np.stack(self._packed), cand)
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
        for e, x in zip(self._energies, self._solutions):
            yield PoolEntry(e, x)

    def __getitem__(self, rank: int) -> PoolEntry:
        """Entry at sorted position ``rank`` (0 = best)."""
        return PoolEntry(self._energies[rank], self._solutions[rank])

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

    def as_matrix(self) -> np.ndarray:
        """All pooled solutions as one ``(len, n)`` uint8 matrix (copy).

        Rows are in sorted-energy order (row 0 = best) — the batched
        target generator fancy-indexes parents straight out of this.
        """
        if not self._solutions:
            return np.zeros((0, self.n), dtype=np.uint8)
        return np.stack(self._solutions)

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
        collapses as the fleet converges.  Computed on the packed keys
        (XOR + popcount), so it costs O(m²·n/8) bytes — m is the pool
        capacity, not the problem size.
        """
        m = len(self._packed)
        if m < 2:
            return None
        packed = np.stack(self._packed)
        total = 0
        for i in range(m - 1):
            diff = np.bitwise_xor(packed[i + 1 :], packed[i])
            total += int(np.bitwise_count(diff).sum())
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
        """Assert sortedness, distinctness, capacity, and key caching.

        With ``min_distance`` ≥ 2 the distinctness assertion tightens
        to pairwise min-Hamming separation.
        """
        assert (
            len(self._energies)
            == len(self._solutions)
            == len(self._entry_keys)
            == len(self._packed)
            == len(self._keys)
        )
        assert len(self._energies) <= self.capacity
        assert all(
            self._energies[i] <= self._energies[i + 1]
            for i in range(len(self._energies) - 1)
        ), "pool energies not sorted"
        assert len({s.tobytes() for s in self._solutions}) == len(
            self._solutions
        ), "pool contains duplicate solutions"
        assert all(
            cached == pack_key(s)
            for cached, s in zip(self._entry_keys, self._solutions)
        ), "cached entry keys out of sync with solutions"
        assert all(
            cached == row.tobytes()
            for cached, row in zip(self._entry_keys, self._packed)
        ), "cached packed rows out of sync with entry keys"
        assert set(self._entry_keys) == self._keys
        if self.min_distance > 1 and len(self._packed) > 1:
            packed = np.stack(self._packed)
            for i in range(len(self._packed) - 1):
                diff = np.bitwise_xor(packed[i + 1 :], packed[i])
                dists = np.bitwise_count(diff).sum(axis=1, dtype=np.int64)
                assert int(dists.min()) >= self.min_distance, (
                    "pool entries closer than min_distance"
                )

    def __repr__(self) -> str:
        best = self._energies[0] if self._energies else None
        return (
            f"SolutionPool(n={self.n}, size={len(self)}/{self.capacity}, "
            f"best={best})"
        )
