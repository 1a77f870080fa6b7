"""Sparse QUBO weight matrices.

The paper's GPU implementation stores ``W`` dense (16-bit entries in
global memory), but two of its three benchmark families are *sparse*:
G-set graphs have average degree ≈ 5–50, so a dense 10 000² matrix
spends 800 MB on mostly zeros.  :class:`SparseQubo` stores the
off-diagonal weights as three plain int64 CSR arrays (``indptr``,
``indices``, ``data``) plus a dense diagonal, and provides the same
energy/delta operations with per-flip cost O(degree) instead of O(n):

- ``energy(x)``                    — O(nnz)
- ``delta_vector(x)``              — O(nnz)
- ``update_delta_after_flip``      — O(degree(k))  (vs Eq. 16's O(n))

The arrays are kept in canonical form: columns sorted within each row,
duplicate entries summed, and explicit zeros kept where a group of
duplicates sums to zero, so a problem's digest does not depend on how
it was built.  Only the interop property :attr:`SparseQubo.csr` imports
a sparse-matrix package, and only when it is read.

The bulk engine (:class:`repro.gpusim.engine.BulkSearchEngine`) accepts
a :class:`SparseQubo` directly and switches its batched flip kernel to
scatter-adds over the touched columns only.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.qubo.matrix import QuboMatrix
from repro.utils.validation import check_bit_vector, check_index


def _canonical_csr(
    n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Int64 COO triplets → canonical ``(indptr, indices, data)``.

    Sorts by (row, column) and sums duplicates; a duplicate group that
    sums to zero stays as an explicit zero.
    """
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(first)
        rows, cols = rows[starts], cols[starts]
        vals = np.add.reduceat(vals, starts)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols, vals


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry (the COO ``row`` array)."""
    n = indptr.size - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


class SparseQubo:
    """A symmetric integer QUBO in CSR form (off-diagonal) + diagonal.

    Parameters
    ----------
    offdiag:
        Square matrix of the off-diagonal weights: any sparse matrix
        or array with a ``.tocoo()`` method, or a dense 2-D array.  It
        must be symmetric with an empty diagonal.
    diag:
        Dense length-n integer vector of ``W_ii``.

    Use :meth:`from_dense`, :meth:`from_qubo`, :meth:`from_graph_terms`
    or :meth:`from_csr` rather than the raw constructor where possible.
    """

    __slots__ = ("_indptr", "_indices", "_data", "_diag", "name")

    def __init__(
        self,
        offdiag,
        diag: np.ndarray,
        *,
        name: str | None = None,
        check: bool = True,
    ) -> None:
        if hasattr(offdiag, "tocoo"):  # a sparse matrix of any format
            offdiag = offdiag.tocoo()
        else:
            offdiag = np.asarray(offdiag)
        shape = offdiag.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"offdiag must be square, got {shape}")
        if isinstance(offdiag, np.ndarray):
            rows, cols = np.nonzero(offdiag)
            vals = offdiag[rows, cols]
        else:
            rows, cols, vals = offdiag.row, offdiag.col, offdiag.data
        self._init(shape[0], rows, cols, vals, diag, name=name, check=check)

    def _init(self, n, rows, cols, vals, diag, *, name, check) -> None:
        """Canonicalize COO triplets, validate, and store."""
        diag = np.ascontiguousarray(diag, dtype=np.int64)
        if check:
            if diag.shape != (n,):
                raise ValueError(f"diag must have shape ({n},), got {diag.shape}")
            if not np.issubdtype(vals.dtype, np.integer):
                raise TypeError(f"weights must be integers, got dtype {vals.dtype}")
        indptr, indices, data = _canonical_csr(
            n,
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.int64),
        )
        self._indptr, self._indices, self._data = indptr, indices, data
        self._diag = diag
        self.name = name or f"sparse-qubo-{n}"
        if check:
            rows = _row_ids(indptr)
            if data[rows == indices].any():
                raise ValueError("offdiag must have an empty diagonal (use `diag`)")
            if not self._is_symmetric(rows):
                raise ValueError("offdiag must be symmetric")

    def _is_symmetric(self, rows: np.ndarray) -> bool:
        """``W == Wᵀ`` over the stored nonzeros (explicit zeros ignored)."""
        keep = self._data != 0
        r, c, v = rows[keep], self._indices[keep], self._data[keep]
        # Sorting the transposed entries by (column, row) lists them in
        # the same canonical order as the originals iff W is symmetric.
        t = np.lexsort((r, c))
        return (
            np.array_equal(c[t], r)
            and np.array_equal(r[t], c)
            and np.array_equal(v[t], v)
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, weights, *, name: str | None = None) -> "SparseQubo":
        """Build from a dense symmetric matrix or :class:`QuboMatrix`."""
        if isinstance(weights, QuboMatrix):
            W = weights.W
            name = name or weights.name
        else:
            W = np.asarray(weights)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"weights must be square, got shape {W.shape}")
        if not np.issubdtype(W.dtype, np.integer):
            raise TypeError(f"weights must be integers, got dtype {W.dtype}")
        if not np.array_equal(W, W.T):
            raise ValueError("weights must be symmetric")
        diag = np.diagonal(W).astype(np.int64)
        off = W.astype(np.int64)  # a copy: the diagonal is zeroed below
        np.fill_diagonal(off, 0)
        return cls(off, diag, name=name, check=False)

    # Alias kept for symmetry with QuboMatrix call sites.
    from_qubo = from_dense

    @classmethod
    def from_graph_terms(
        cls,
        n: int,
        diag: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        *,
        name: str | None = None,
    ) -> "SparseQubo":
        """Build from COO triplets of the *upper* off-diagonal weights.

        Each (row, col, val) with row < col contributes ``W_rc = W_cr =
        val``.  Duplicate pairs accumulate.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.int64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows/cols/vals must have equal shapes")
        if rows.size and ((rows < 0).any() or (cols >= n).any() or (rows >= n).any() or (cols < 0).any()):
            raise IndexError("triplet index out of range")
        if (rows == cols).any():
            raise ValueError("triplets must be strictly off-diagonal")
        sq = cls.__new__(cls)
        sq._init(
            n,
            np.concatenate([rows, cols]),
            np.concatenate([cols, rows]),
            np.concatenate([vals, vals]),
            diag,
            name=name,
            check=False,
        )
        return sq

    @classmethod
    def from_csr(
        cls,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        diag: np.ndarray,
        *,
        name: str | None = None,
    ) -> "SparseQubo":
        """Build from raw CSR arrays of the off-diagonal weights.

        The structure is checked before any entry is read: ``indptr``
        has n+1 entries, starts at 0, never decreases and ends at
        ``len(indices)``; ``indices`` and ``data`` are 1-D integer arrays
        of equal length; every column is in ``[0, n)``.  Rows need not be
        sorted and may hold duplicates.  The symmetry, diagonal and
        dtype checks of the constructor then apply.
        """
        indptr, indices, data = (np.asarray(a) for a in (indptr, indices, data))
        for label, arr in (("indptr", indptr), ("indices", indices)):
            if not np.issubdtype(arr.dtype, np.integer):
                raise TypeError(f"{label} must be integers, got dtype {arr.dtype}")
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if indptr.shape != (n + 1,):
            raise ValueError(f"indptr must have shape ({n + 1},), got {indptr.shape}")
        if indices.ndim != 1 or data.shape != indices.shape:
            raise ValueError(
                f"indices and data must be 1-D of equal length, got shapes "
                f"{indices.shape} and {data.shape}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.size or (np.diff(indptr) < 0).any():
            raise ValueError(
                f"indptr must rise from 0 to len(indices) = {indices.size} "
                "without decreasing"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError(f"column index out of range [0, {n})")
        sq = cls.__new__(cls)
        sq._init(n, _row_ids(indptr), indices, data, diag, name=name, check=True)
        return sq

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of bits."""
        return self._indptr.size - 1

    @property
    def diag(self) -> np.ndarray:
        """The dense diagonal ``W_ii`` (int64)."""
        return self._diag

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers of the off-diagonal weights (int64, n+1)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column of every stored off-diagonal entry (int64)."""
        return self._indices

    @property
    def data(self) -> np.ndarray:
        """CSR value of every stored off-diagonal entry (int64)."""
        return self._data

    @property
    def csr(self):
        """The off-diagonal weights as a ``scipy.sparse.csr_array``.

        Built on each access from the CSR arrays; needs scipy installed.
        """
        from scipy import sparse as sp

        return sp.csr_array(
            (self._data, self._indices, self._indptr), shape=(self.n, self.n)
        )

    @property
    def nnz(self) -> int:
        """Stored off-diagonal nonzeros (both triangles)."""
        return int(self._data.size)

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint in bytes."""
        return (
            self._data.nbytes
            + self._indices.nbytes
            + self._indptr.nbytes
            + self._diag.nbytes
        )

    def density(self) -> float:
        """Fraction of nonzero entries including the diagonal."""
        if self.n == 0:
            return 0.0
        nz = self.nnz + int(np.count_nonzero(self._diag))
        return nz / float(self.n * self.n)

    def weight_bits(self) -> int:
        """Smallest signed bit width holding every stored weight
        (mirrors :meth:`QuboMatrix.weight_bits`)."""
        lo = hi = 0
        if self._data.size:
            lo = int(self._data.min())
            hi = int(self._data.max())
        if self._diag.size:
            lo = min(lo, int(self._diag.min()))
            hi = max(hi, int(self._diag.max()))
        bits = 1
        while not (-(2 ** (bits - 1)) <= lo and hi <= 2 ** (bits - 1) - 1):
            bits += 1
        return bits

    def is_weight16(self) -> bool:
        """Whether all weights fit the paper's 16-bit profile."""
        return self.weight_bits() <= 16

    def to_dense(self) -> QuboMatrix:
        """Materialize as a dense :class:`QuboMatrix` (beware memory)."""
        n = self.n
        W = np.zeros((n, n), dtype=np.int64)
        W[_row_ids(self._indptr), self._indices] = self._data
        W[np.arange(n), np.arange(n)] = self._diag
        return QuboMatrix(W, copy=False, check=False, name=self.name)

    def __repr__(self) -> str:
        return (
            f"SparseQubo(name={self.name!r}, n={self.n}, nnz={self.nnz}, "
            f"density={self.density():.4f})"
        )

    # ------------------------------------------------------------------
    # Energy / delta operations
    # ------------------------------------------------------------------
    def _matvec(self, xb: np.ndarray) -> np.ndarray:
        """``Σ_{j≠k} W_kj x_j`` for every row k, exact in int64.

        ``np.add.reduceat`` sums each row's products from its start to
        the next row's start.  The trailing zero gives rows that start
        at the end a valid index, and an empty row, for which reduceat
        returns the single element at its start, is zeroed after.
        """
        prod = np.zeros(self._data.size + 1, dtype=np.int64)
        np.multiply(self._data, xb[self._indices], out=prod[:-1])
        starts = self._indptr[:-1]
        row = np.add.reduceat(prod, starts)
        row[starts == self._indptr[1:]] = 0
        return row

    def energy(self, x: np.ndarray) -> int:
        """``E(X) = XᵀWX`` in O(nnz).

        The coupling is one dot product over the stored entries: entry
        ``(k, j)`` counts when both ``x_k`` and ``x_j`` are set.  The 0/1
        products stay uint8; the dot with the int64 weights sums in int64.
        """
        xb = check_bit_vector(x, self.n, "x")
        both = np.repeat(xb, np.diff(self._indptr)) & xb[self._indices]
        return int(self._data @ both) + int(self._diag @ xb)

    def delta_vector(self, x: np.ndarray) -> np.ndarray:
        """All ``Δ_k(X)`` (Eq. 4) in O(nnz)."""
        xb = check_bit_vector(x, self.n, "x").astype(np.int64)
        inner = 2 * self._matvec(xb) + self._diag
        return (1 - 2 * xb) * inner

    def row(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(columns, values)`` of off-diagonal row ``k``."""
        check_index(k, self.n, "k")
        lo, hi = self._indptr[k], self._indptr[k + 1]
        return self._indices[lo:hi], self._data[lo:hi]

    def update_delta_after_flip(
        self, x: np.ndarray, delta: np.ndarray, k: int
    ) -> int:
        """Eq. (16) restricted to the neighbors of ``k`` — O(degree(k)).

        Same contract as :func:`repro.qubo.energy.update_delta_after_flip`:
        mutates ``x`` and ``delta`` in place, returns the applied Δ.
        """
        check_index(k, self.n, "k")
        if x.shape != (self.n,) or delta.shape != (self.n,):
            raise ValueError("x and delta must have length n")
        if delta.dtype != np.int64:
            raise TypeError(f"delta must be int64, got {delta.dtype}")
        applied = int(delta[k])
        cols, vals = self.row(k)
        sk = 1 - 2 * int(x[k])
        signs = (1 - 2 * x[cols].astype(np.int64)) * sk
        delta[cols] += 2 * vals * signs
        delta[k] = -applied
        x[k] ^= 1
        return applied


WeightsAny = Union[QuboMatrix, np.ndarray, SparseQubo]
