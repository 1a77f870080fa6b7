"""Tests for sparse instance I/O."""

import numpy as np
import pytest

from repro.qubo import QuboMatrix, SparseQubo
from repro.qubo.io import (
    QuboFormatError,
    load_qubo,
    load_qubo_sparse,
    load_sparse_npz,
    save_qubo,
    save_sparse_npz,
)


@pytest.fixture
def sparse_instance():
    rng = np.random.default_rng(7)
    W = rng.integers(-9, 10, size=(30, 30))
    W = np.triu(W) + np.triu(W, 1).T
    mask = rng.random((30, 30)) < 0.15
    mask = np.triu(mask) | np.triu(mask).T
    np.fill_diagonal(mask, True)
    return SparseQubo.from_dense(QuboMatrix((W * mask).astype(np.int64)))


class TestCoordinateSparse:
    def test_roundtrip_through_dense_writer(self, sparse_instance, tmp_path):
        """save_qubo(dense) → load_qubo_sparse yields the same problem."""
        p = tmp_path / "m.qubo"
        save_qubo(sparse_instance.to_dense(), p)
        loaded = load_qubo_sparse(p)
        assert loaded.to_dense() == sparse_instance.to_dense()

    def test_agrees_with_dense_loader(self, sparse_instance, tmp_path):
        p = tmp_path / "m.qubo"
        save_qubo(sparse_instance.to_dense(), p)
        dense = load_qubo(p)
        sparse = load_qubo_sparse(p)
        assert sparse.to_dense() == dense

    def test_name_preserved(self, sparse_instance, tmp_path):
        p = tmp_path / "m.qubo"
        save_qubo(sparse_instance.to_dense(), p)
        assert load_qubo_sparse(p).name == sparse_instance.name

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.qubo"
        p.write_text("0 1 2\n")
        with pytest.raises(QuboFormatError, match="header"):
            load_qubo_sparse(p)

    def test_odd_coefficient_rejected(self, tmp_path):
        p = tmp_path / "bad.qubo"
        p.write_text("p qubo 0 2 0 1\n0 1 3\n")
        with pytest.raises(QuboFormatError, match="odd"):
            load_qubo_sparse(p)

    def test_out_of_range(self, tmp_path):
        p = tmp_path / "bad.qubo"
        p.write_text("p qubo 0 2 0 1\n0 9 2\n")
        with pytest.raises(QuboFormatError, match="range"):
            load_qubo_sparse(p)

    def test_diag_out_of_range(self, tmp_path):
        p = tmp_path / "bad.qubo"
        p.write_text("p qubo 0 2 1 0\n7 7 2\n")
        with pytest.raises(QuboFormatError, match="range"):
            load_qubo_sparse(p)


class TestHeaderNodeCount:
    """Both coordinate loaders reject a bad node count as a format error
    that names the file and line, before numpy sees the count."""

    @pytest.mark.parametrize("loader", [load_qubo, load_qubo_sparse])
    @pytest.mark.parametrize(
        ("header", "reason"),
        [("p qubo 0 x 0 0", "bad node count"), ("p qubo 0 -3 0 0", "negative node count")],
    )
    def test_rejected_with_file_and_line(self, tmp_path, loader, header, reason):
        p = tmp_path / "bad.qubo"
        p.write_text(f"c a comment\n{header}\n")
        with pytest.raises(QuboFormatError, match=rf"bad\.qubo:2: {reason}"):
            loader(p)

    @pytest.mark.parametrize("loader", [load_qubo, load_qubo_sparse])
    def test_zero_nodes_still_load(self, tmp_path, loader):
        p = tmp_path / "empty.qubo"
        p.write_text("p qubo 0 0 0 0\n")
        assert loader(p).n == 0


class TestNpz:
    def test_roundtrip(self, sparse_instance, tmp_path):
        p = tmp_path / "m.npz"
        save_sparse_npz(sparse_instance, p)
        loaded = load_sparse_npz(p)
        assert loaded.to_dense() == sparse_instance.to_dense()
        assert loaded.name == sparse_instance.name

    def test_wrong_archive_rejected(self, tmp_path):
        p = tmp_path / "other.npz"
        np.savez(p, whatever=np.zeros(3))
        with pytest.raises(QuboFormatError, match="repro-sparse-qubo"):
            load_sparse_npz(p)

    def test_dispatch_npz_sparse(self, sparse_instance, tmp_path):
        from repro.qubo.io import load, save

        p = tmp_path / "m.npz"
        save(sparse_instance, p)
        loaded = load(p)
        assert loaded.to_dense() == sparse_instance.to_dense()

    def test_dispatch_npz_converts_dense(self, tmp_path):
        from repro.qubo.io import load, save

        q = QuboMatrix.random(12, seed=3)
        p = tmp_path / "m.npz"
        save(q, p)
        assert load(p).to_dense() == q

    def test_dispatch_sparse_to_dense_formats(self, sparse_instance, tmp_path):
        from repro.qubo.io import load, save

        p = tmp_path / "m.qubo"
        save(sparse_instance, p)  # densified on the way out
        assert load(p) == sparse_instance.to_dense()

    def test_sparse_weight_bits(self, sparse_instance):
        dense = sparse_instance.to_dense()
        assert sparse_instance.weight_bits() == dense.weight_bits()
        assert sparse_instance.is_weight16() == dense.is_weight16()

    def test_compression_is_compact(self, tmp_path):
        """A 2000-node sparse instance stays far below dense size."""
        from repro.problems.gset import synthetic_gset
        from repro.problems.maxcut import maxcut_to_sparse_qubo

        sq = maxcut_to_sparse_qubo(synthetic_gset("G22"))
        p = tmp_path / "g22.npz"
        save_sparse_npz(sq, p)
        assert p.stat().st_size < 1_000_000  # dense int64 would be 32 MB
        assert load_sparse_npz(p).nnz == sq.nnz


def _corrupt(arrays: dict, case: str) -> None:
    """Apply one structural corruption to an archive's arrays in place."""
    if case == "column-out-of-range":
        arrays["indices"][0] = arrays["n"]
    elif case == "negative-column":
        arrays["indices"][0] = -1
    elif case == "non-monotone-indptr":
        arrays["indptr"][2], arrays["indptr"][3] = arrays["indptr"][3], arrays["indptr"][2]
    elif case == "indptr-past-end":
        arrays["indptr"][-1] += 5
    elif case == "short-indptr":
        arrays["indptr"] = arrays["indptr"][:-1]
    elif case == "wrong-diag-length":
        arrays["diag"] = arrays["diag"][:-1]
    elif case == "float-data":
        arrays["data"] = arrays["data"].astype(np.float64)


class TestMalformedNpz:
    """A structurally broken archive raises; it must never crash the
    interpreter by indexing out of bounds."""

    CASES = (
        "column-out-of-range",
        "negative-column",
        "non-monotone-indptr",
        "indptr-past-end",
        "short-indptr",
        "wrong-diag-length",
        "float-data",
    )

    @pytest.mark.parametrize("case", CASES)
    def test_rejected(self, sparse_instance, tmp_path, case):
        arrays = {
            "format": np.array("repro-sparse-qubo"),
            "n": sparse_instance.n,
            "name": np.array(sparse_instance.name),
            "data": sparse_instance.data.copy(),
            "indices": sparse_instance.indices.copy(),
            "indptr": sparse_instance.indptr.copy(),
            "diag": sparse_instance.diag.copy(),
        }
        assert arrays["indptr"][2] < arrays["indptr"][3]  # the swap breaks order
        _corrupt(arrays, case)
        p = tmp_path / f"{case}.npz"
        np.savez(p, **arrays)
        with pytest.raises(QuboFormatError, match=str(p.name)):
            load_sparse_npz(p)

    def test_unsorted_row_with_duplicates_loads_canonical(self, sparse_instance, tmp_path):
        """A row stored out of order, with one entry split in two, loads
        as the canonical arrays of the same matrix."""
        cols, vals = sparse_instance.row(0)
        assert cols.size > 0
        split = vals[0] // 2
        row_cols = np.concatenate([cols[::-1], cols[:1]])
        row_vals = np.concatenate([vals[::-1], [split]])
        row_vals[cols.size - 1] -= split  # vals[0], reversed to the row's end
        rest = slice(cols.size, None)
        indptr = sparse_instance.indptr.copy()
        indptr[1:] += 1
        p = tmp_path / "raw.npz"
        np.savez(
            p,
            format=np.array("repro-sparse-qubo"),
            n=sparse_instance.n,
            name=np.array("raw"),
            data=np.concatenate([row_vals, sparse_instance.data[rest]]),
            indices=np.concatenate([row_cols, sparse_instance.indices[rest]]),
            indptr=indptr,
            diag=sparse_instance.diag,
        )
        loaded = load_sparse_npz(p)
        assert np.array_equal(loaded.indptr, sparse_instance.indptr)
        assert np.array_equal(loaded.indices, sparse_instance.indices)
        assert np.array_equal(loaded.data, sparse_instance.data)
