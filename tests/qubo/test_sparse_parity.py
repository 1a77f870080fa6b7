"""The numpy CSR arrays of :class:`SparseQubo` against scipy's.

``problem_digest`` hashes the CSR arrays byte for byte, so the service's
cache keys and every seeded answer depend on their exact layout:
columns sorted within each row, duplicates summed, explicit zeros kept
where ``coo.tocsr()`` keeps them, zeros of a dense input dropped.
scipy is the reference here only; the package itself never imports it.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.problems.maxcut import maxcut_to_sparse_qubo, random_graph
from repro.qubo.energy import delta_vector, energy
from repro.qubo.io import load_sparse_npz, problem_digest, save_sparse_npz
from repro.qubo.sparse import SparseQubo

#: problem_digest of maxcut_to_sparse_qubo(random_graph(2000, 19990, seed=1)),
#: computed when the CSR arrays were still built by scipy.
GOLDEN_MAXCUT_2000 = "d81c782b9eb3f95463c2ca26d306a9044817e87e01102d283c6289b37876eab6"


def _assert_same_csr(sq: SparseQubo, ref) -> None:
    ref = sp.csr_array(ref)
    ref.sum_duplicates()
    assert np.array_equal(sq.indptr, ref.indptr)
    assert np.array_equal(sq.indices, ref.indices)
    assert np.array_equal(sq.data, ref.data)
    assert sq.nnz == ref.nnz
    for arr in (sq.indptr, sq.indices, sq.data):
        assert arr.dtype == np.int64


def _triplets(seed: int):
    """Random upper-triangle triplets with duplicates and zeros, plus
    two entries for (0, 1) that cancel."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    r = rng.integers(0, n, 3 * n)
    c = rng.integers(0, n, 3 * n)
    keep = r != c
    rows, cols = np.minimum(r, c)[keep], np.maximum(r, c)[keep]
    vals = rng.integers(-3, 4, rows.size)
    rows = np.append(rows, [0, 0])
    cols = np.append(cols, [1, 1])
    vals = np.append(vals, [4, -4])
    return n, rows, cols, vals, rng.integers(-5, 6, n)


def _symmetric_coo(n, rows, cols, vals):
    return sp.coo_array(
        (np.concatenate([vals, vals]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    )


@pytest.mark.parametrize("seed", range(20))
def test_graph_terms_match_coo_tocsr(seed):
    n, rows, cols, vals, diag = _triplets(seed)
    sq = SparseQubo.from_graph_terms(n, diag, rows, cols, vals)
    _assert_same_csr(sq, _symmetric_coo(n, rows, cols, vals).tocsr())


def test_cancelling_duplicates_stay_explicit_zeros():
    sq = SparseQubo.from_graph_terms(
        3, np.zeros(3), np.array([0, 0, 1]), np.array([1, 1, 2]), np.array([5, -5, 2])
    )
    assert sq.nnz == 4  # (0,1) and (1,0) kept as explicit zeros
    assert list(sq.data) == [0, 0, 2, 2]
    _assert_same_csr(sq, _symmetric_coo(3, [0, 0, 1], [1, 1, 2], [5, -5, 2]).tocsr())


@pytest.mark.parametrize("seed", range(10))
def test_dense_input_drops_zeros(seed):
    n, rows, cols, vals, diag = _triplets(seed)
    W = _symmetric_coo(n, rows, cols, vals).toarray()
    W[np.arange(n), np.arange(n)] = diag
    sq = SparseQubo.from_dense(W)
    off = W.copy()
    np.fill_diagonal(off, 0)
    _assert_same_csr(sq, off)
    assert (sq.data != 0).all()


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("fmt", ["coo", "csr-unsorted-int32", "csc", "lil"])
def test_scipy_inputs(seed, fmt):
    n, rows, cols, vals, diag = _triplets(seed)
    coo = _symmetric_coo(n, rows, cols, vals)
    if fmt == "coo":
        offdiag = coo
    elif fmt == "csr-unsorted-int32":
        csr = coo.tocsr()
        indices, data = csr.indices.copy(), csr.data.copy()
        for i in range(n):  # reverse every row
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            indices[lo:hi], data[lo:hi] = indices[lo:hi][::-1], data[lo:hi][::-1]
        offdiag = sp.csr_array(
            (data, indices.astype(np.int32), csr.indptr.astype(np.int32)), shape=(n, n)
        )
    elif fmt == "csc":
        offdiag = sp.csc_array(coo)
    else:
        offdiag = sp.lil_array(coo.toarray())
    sq = SparseQubo(offdiag, diag)
    _assert_same_csr(sq, offdiag)
    assert problem_digest(sq) == problem_digest(SparseQubo(sp.csr_array(offdiag), diag))


def test_csr_property_round_trips():
    n, rows, cols, vals, diag = _triplets(3)
    sq = SparseQubo.from_graph_terms(n, diag, rows, cols, vals)
    again = SparseQubo(sq.csr, sq.diag)
    assert problem_digest(again) == problem_digest(sq)
    assert np.array_equal(sq.csr.toarray(), _symmetric_coo(n, rows, cols, vals).toarray())


@pytest.mark.parametrize("seed", range(5))
def test_npz_round_trip(seed, tmp_path):
    n, rows, cols, vals, diag = _triplets(seed)
    sq = SparseQubo.from_graph_terms(n, diag, rows, cols, vals)
    p = tmp_path / "m.npz"
    save_sparse_npz(sq, p)
    loaded = load_sparse_npz(p)
    _assert_same_csr(loaded, _symmetric_coo(n, rows, cols, vals).tocsr())
    assert problem_digest(loaded) == problem_digest(sq)


def test_maxcut_digest_pinned():
    sq = maxcut_to_sparse_qubo(random_graph(2000, 19990, seed=1))
    assert problem_digest(sq) == GOLDEN_MAXCUT_2000


def test_energy_on_pinned_maxcut_matches_dense():
    sq = maxcut_to_sparse_qubo(random_graph(2000, 19990, seed=1))
    dense = sq.to_dense()
    rng = np.random.default_rng(2000)
    for x in [np.zeros(2000, np.uint8), np.ones(2000, np.uint8)] + [
        rng.integers(0, 2, 2000, dtype=np.uint8) for _ in range(4)
    ]:
        assert sq.energy(x) == energy(dense, x)


@pytest.mark.parametrize("seed", range(10))
def test_energy_and_deltas_with_empty_rows(seed):
    """Isolated vertices give empty CSR rows, between full ones and at
    the end; the row sums behind energy and Δ must treat them as zero."""
    n, rows, cols, vals, _ = _triplets(seed)
    n = 2 * n + 3  # odd vertices and the last three have no edges
    diag = np.random.default_rng(seed).integers(-5, 6, n)
    sq = SparseQubo.from_graph_terms(n, diag, 2 * rows, 2 * cols, vals)
    dense = sq.to_dense()
    x = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
    assert sq.energy(x) == energy(dense, x)
    assert np.array_equal(sq.delta_vector(x), delta_vector(dense, x))
