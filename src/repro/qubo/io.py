"""Reading and writing QUBO instances.

Three interchange formats are supported:

- **Coordinate text** (``.qubo``) — a qbsolv-compatible sparse format:
  comment lines start with ``c``, a single header line
  ``p qubo 0 <n> <nDiagonals> <nElements>`` precedes the data, and each
  data line is ``i j value``.  Diagonal lines (``i == j``) carry
  ``W_ii``; off-diagonal lines (written once per unordered pair with
  ``i < j``) carry the *combined* coefficient ``W_ij + W_ji = 2·W_ij``,
  matching qbsolv's convention that the file stores the coefficient of
  the product ``x_i·x_j``.
- **JSON** (``.json``) — dense or sparse with metadata (name, comments).
- **NumPy** (``.npy``) — the raw dense array.
- **Sparse NumPy** (``.npz``) — CSR components + diagonal for
  :class:`~repro.qubo.sparse.SparseQubo` instances.

Coordinate files can also be loaded directly into the sparse backend
with :func:`load_qubo_sparse` — no dense materialization, so
G-set-scale instances load in O(edges) memory.

All loaders validate symmetry/integrality via the target class.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Union

import numpy as np

from repro.qubo.matrix import QuboMatrix, as_weight_matrix

PathLike = Union[str, Path]


class QuboFormatError(ValueError):
    """Raised when an instance file is malformed."""


# ---------------------------------------------------------------------------
# Canonical digests
# ---------------------------------------------------------------------------

#: Version tag mixed into every digest so the canonicalization can evolve
#: without old digests silently colliding with new ones.
_DIGEST_VERSION = b"repro-digest-v1"


def _weights_payload(weights) -> bytes:
    """The canonical byte representation of a problem's weights.

    Dense problems hash as little-endian C-order int64 bytes plus the
    shape; sparse problems hash their CSR components plus the diagonal.
    The encoding is explicit about endianness and layout so the same
    matrix digests identically on every platform.
    """
    from repro.qubo.sparse import SparseQubo

    if isinstance(weights, SparseQubo):
        return b"|".join(
            (
                b"sparse",
                str(weights.n).encode("ascii"),
                np.ascontiguousarray(weights.indptr, dtype="<i8").tobytes(),
                np.ascontiguousarray(weights.indices, dtype="<i8").tobytes(),
                np.ascontiguousarray(weights.data, dtype="<i8").tobytes(),
                np.ascontiguousarray(weights.diag, dtype="<i8").tobytes(),
            )
        )
    W = as_weight_matrix(weights)
    return b"|".join(
        (
            b"dense",
            str(W.shape[0]).encode("ascii"),
            np.ascontiguousarray(W, dtype="<i8").tobytes(),
        )
    )


def problem_digest(weights) -> str:
    """Stable SHA-256 hex digest of a QUBO problem's weights.

    Identical matrices — whether passed as :class:`QuboMatrix`, raw
    ndarray, or :class:`~repro.qubo.sparse.SparseQubo` with the same
    dense equivalent *representation* — digest identically for the same
    storage kind; names and metadata never participate.  This is the
    cache key the warm-fleet service uses for prepared-weights reuse
    (see ``docs/service.md``).
    """
    h = hashlib.sha256(_DIGEST_VERSION)
    h.update(b"|problem|")
    h.update(_weights_payload(weights))
    return h.hexdigest()


def _canonical_json(value: Any) -> str:
    """JSON with sorted keys and ndarray/tuple normalization."""

    def _default(obj: Any) -> Any:
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        return str(obj)

    return json.dumps(value, sort_keys=True, default=_default, separators=(",", ":"))


def run_digest(
    weights,
    config,
    seed: int | None = None,
    *,
    extra: dict | None = None,
    digest: str | None = None,
) -> str:
    """Stable SHA-256 hex digest of one ``(problem, config, seed)`` run.

    ``config`` is canonicalized via :func:`dataclasses.asdict` (nested
    dataclasses included) and serialized as sorted-key JSON, so two
    configs with equal field values always digest identically.  ``seed``
    defaults to ``config.seed`` and overrides it in the hashed payload
    when given explicitly.  ``extra`` folds additional run context (for
    example the solve mode) into the key.  ``digest`` is
    ``problem_digest(weights)`` when the caller already has it: the
    same bytes are hashed, and the weights are not hashed again.

    A seeded solve is a pure function of this digest — the property the
    service's result cache relies on to return cached
    :class:`~repro.abs.result.SolveResult` objects bit-for-bit.
    """
    if not dataclasses.is_dataclass(config):
        raise TypeError(
            f"config must be a dataclass (e.g. AbsConfig), got {type(config).__name__}"
        )
    cfg_dict = dataclasses.asdict(config)
    cfg_dict["seed"] = cfg_dict.get("seed") if seed is None else int(seed)
    if extra:
        cfg_dict["__extra__"] = dict(extra)
    h = hashlib.sha256(_DIGEST_VERSION)
    h.update(b"|run|")
    if digest is None:
        digest = problem_digest(weights)
    h.update(digest.encode("ascii"))
    h.update(b"|")
    h.update(_canonical_json(cfg_dict).encode("utf-8"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Coordinate (.qubo) format
# ---------------------------------------------------------------------------

def save_qubo(matrix: QuboMatrix, path: PathLike, *, comment: str | None = None) -> None:
    """Write ``matrix`` in qbsolv-style coordinate format."""
    W = matrix.W
    n = matrix.n
    diag_idx = np.flatnonzero(np.diagonal(W))
    iu, ju = np.triu_indices(n, k=1)
    mask = W[iu, ju] != 0
    iu, ju = iu[mask], ju[mask]
    lines: list[str] = []
    if comment:
        for c_line in comment.splitlines():
            lines.append(f"c {c_line}")
    lines.append(f"c name: {matrix.name}")
    lines.append(f"p qubo 0 {n} {len(diag_idx)} {len(iu)}")
    for i in diag_idx:
        lines.append(f"{i} {i} {int(W[i, i])}")
    for i, j in zip(iu, ju):
        lines.append(f"{i} {j} {2 * int(W[i, j])}")
    Path(path).write_text("\n".join(lines) + "\n")


def _header_nodes(path: Path, lineno: int, line: str) -> int:
    """The node count of a ``p qubo <topology> <nodes> ...`` line; a
    :class:`QuboFormatError` naming ``path:lineno`` if it is malformed,
    not an integer, or negative."""
    parts = line.split()
    if len(parts) < 4 or parts[1].lower() != "qubo":
        raise QuboFormatError(f"{path}:{lineno}: bad problem line {line!r}")
    try:
        n = int(parts[3])
    except ValueError as exc:
        raise QuboFormatError(f"{path}:{lineno}: bad node count in {line!r}") from exc
    if n < 0:
        raise QuboFormatError(f"{path}:{lineno}: negative node count in {line!r}")
    return n


def load_qubo(path: PathLike) -> QuboMatrix:
    """Load a coordinate-format instance written by :func:`save_qubo`
    (or by qbsolv)."""
    path = Path(path)
    n: int | None = None
    name = path.stem
    entries: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            rest = line[1:].strip()
            if rest.startswith("name:"):
                name = rest[len("name:"):].strip()
            continue
        if line.startswith("p"):
            n = _header_nodes(path, lineno, line)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise QuboFormatError(f"{path}:{lineno}: expected 'i j value', got {line!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise QuboFormatError(f"{path}:{lineno}: non-integer entry {line!r}") from exc
        entries.append((i, j, v))
    if n is None:
        raise QuboFormatError(f"{path}: missing 'p qubo' header line")
    W = np.zeros((n, n), dtype=np.int64)
    for i, j, v in entries:
        if not (0 <= i < n and 0 <= j < n):
            raise QuboFormatError(f"{path}: index ({i},{j}) out of range [0,{n})")
        if i == j:
            W[i, i] += v
        else:
            if v % 2:
                raise QuboFormatError(
                    f"{path}: off-diagonal combined coefficient {v} for ({i},{j}) "
                    "is odd; cannot split into a symmetric integer matrix"
                )
            W[i, j] += v // 2
            W[j, i] += v // 2
    return QuboMatrix(W, copy=False, check=True, name=name)


def load_qubo_sparse(path: PathLike):
    """Load a coordinate-format instance directly as a SparseQubo.

    Never materializes the dense matrix: memory is O(entries), so this
    is the loader to use for big sparse instances.
    """
    from repro.qubo.sparse import SparseQubo

    path = Path(path)
    n: int | None = None
    name = path.stem
    rows: list[int] = []
    cols: list[int] = []
    vals: list[int] = []
    diag: dict[int, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            rest = line[1:].strip()
            if rest.startswith("name:"):
                name = rest[len("name:"):].strip()
            continue
        if line.startswith("p"):
            n = _header_nodes(path, lineno, line)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise QuboFormatError(f"{path}:{lineno}: expected 'i j value', got {line!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise QuboFormatError(f"{path}:{lineno}: non-integer entry {line!r}") from exc
        if i == j:
            diag[i] = diag.get(i, 0) + v
        else:
            if v % 2:
                raise QuboFormatError(
                    f"{path}: off-diagonal combined coefficient {v} for "
                    f"({i},{j}) is odd; cannot split symmetrically"
                )
            rows.append(min(i, j))
            cols.append(max(i, j))
            vals.append(v // 2)
    if n is None:
        raise QuboFormatError(f"{path}: missing 'p qubo' header line")
    for i in diag:
        if not (0 <= i < n):
            raise QuboFormatError(f"{path}: index ({i},{i}) out of range [0,{n})")
    for i, j in zip(rows, cols):
        if not (0 <= i < n and 0 <= j < n):
            raise QuboFormatError(f"{path}: index ({i},{j}) out of range [0,{n})")
    diag_vec = np.zeros(n, dtype=np.int64)
    for i, v in diag.items():
        diag_vec[i] = v
    return SparseQubo.from_graph_terms(
        n,
        diag_vec,
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals, dtype=np.int64),
        name=name,
    )


def save_sparse_npz(sparse, path: PathLike) -> None:
    """Write a :class:`~repro.qubo.sparse.SparseQubo` as compressed .npz."""
    path = Path(path)
    np.savez_compressed(
        path,
        format=np.array("repro-sparse-qubo"),
        n=np.array(sparse.n),
        name=np.array(sparse.name),
        data=sparse.data,
        indices=sparse.indices,
        indptr=sparse.indptr,
        diag=sparse.diag,
    )


def load_sparse_npz(path: PathLike):
    """Load a :class:`~repro.qubo.sparse.SparseQubo` from .npz.

    The CSR arrays are checked for structure (row pointers, column
    range, lengths, integer dtypes) before any entry is read, so a
    malformed archive raises :class:`QuboFormatError`.
    """
    from repro.qubo.sparse import SparseQubo

    path = Path(path)
    with np.load(path, allow_pickle=False) as payload:
        if str(payload.get("format", "")) != "repro-sparse-qubo":
            raise QuboFormatError(f"{path}: not a repro-sparse-qubo archive")
        try:
            return SparseQubo.from_csr(
                int(payload["n"]),
                payload["indptr"],
                payload["indices"],
                payload["data"],
                payload["diag"],
                name=str(payload["name"]),
            )
        except (ValueError, TypeError) as exc:
            raise QuboFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------

def save_json(matrix: QuboMatrix, path: PathLike, *, metadata: dict | None = None) -> None:
    """Write ``matrix`` as JSON with optional metadata."""
    payload = {
        "format": "repro-qubo",
        "version": 1,
        "name": matrix.name,
        "n": matrix.n,
        "weights": matrix.W.tolist(),
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(payload))


def load_json(path: PathLike) -> QuboMatrix:
    """Load a JSON instance written by :func:`save_json`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise QuboFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "repro-qubo":
        raise QuboFormatError(f"{path}: not a repro-qubo JSON file")
    W = np.asarray(payload["weights"], dtype=np.int64)
    if W.shape != (payload["n"], payload["n"]):
        raise QuboFormatError(
            f"{path}: weights shape {W.shape} does not match n={payload['n']}"
        )
    return QuboMatrix(W, copy=False, check=True, name=payload.get("name"))


# ---------------------------------------------------------------------------
# NumPy format + dispatch
# ---------------------------------------------------------------------------

def save(matrix, path: PathLike) -> None:
    """Save, dispatching on extension (.qubo / .json / .npy / .npz).

    ``.npz`` stores a :class:`~repro.qubo.sparse.SparseQubo` (dense
    matrices are converted); the other formats require a dense
    :class:`QuboMatrix`.
    """
    from repro.qubo.sparse import SparseQubo

    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".npz":
        sparse = (
            matrix
            if isinstance(matrix, SparseQubo)
            else SparseQubo.from_dense(matrix)
        )
        save_sparse_npz(sparse, path)
        return
    if isinstance(matrix, SparseQubo):
        matrix = matrix.to_dense()
    if suffix == ".qubo":
        save_qubo(matrix, path)
    elif suffix == ".json":
        save_json(matrix, path)
    elif suffix == ".npy":
        np.save(path, matrix.W)
    else:
        raise QuboFormatError(
            f"unsupported extension {suffix!r} (use .qubo/.json/.npy/.npz)"
        )


def load(path: PathLike):
    """Load, dispatching on extension (.qubo / .json / .npy / .npz).

    ``.npz`` yields a :class:`~repro.qubo.sparse.SparseQubo`; the other
    formats yield a dense :class:`QuboMatrix`.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".qubo":
        return load_qubo(path)
    if suffix == ".json":
        return load_json(path)
    if suffix == ".npy":
        return QuboMatrix(np.load(path), copy=False, check=True, name=path.stem)
    if suffix == ".npz":
        return load_sparse_npz(path)
    raise QuboFormatError(
        f"unsupported extension {suffix!r} (use .qubo/.json/.npy/.npz)"
    )
