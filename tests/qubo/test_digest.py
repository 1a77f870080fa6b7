"""Golden values and invariances for the canonical run/problem digests.

The warm-fleet service caches results and prepared weights under these
digests, so their byte-level definition is a compatibility contract: a
silent change would make every persisted key stale *and* break the
"cached result is bit-for-bit the original run" guarantee across
versions.  The golden hex values below pin that contract.
"""

import dataclasses

import numpy as np
import pytest

from repro.qubo import QuboMatrix
from repro.qubo.io import problem_digest, run_digest
from repro.qubo.sparse import SparseQubo

W2 = np.array([[1, 2], [2, 3]], dtype=np.int64)

GOLDEN_DENSE = "0e1f21ef01cf0c13bc8d4a8f82381ef4c2cf07f976fafb7dd25861266e353315"
GOLDEN_SPARSE = "e35499219128c63c884043f4e7beeaee8fb63385edd6fba753904a90d51b4f86"
GOLDEN_RUN = "0df8cd859566e85537d67ccbc7b647031b61c3b0aef2a1a1f4b4fa9f36b38741"
GOLDEN_RUN_MODE = "2e9a75a1bfdea5762060873ad35fe42ac14b9cf217316e141457ce2353811499"
GOLDEN_RUN_SEED9 = "0c640403af68b0566180a0ab3e1f15bc0b51e62e32df375d928efcdd4d632d7b"


@dataclasses.dataclass
class _Cfg:
    """Frozen stand-in config so goldens survive AbsConfig growth."""

    max_rounds: int = 3
    seed: int | None = 5


class TestProblemDigest:
    def test_golden_dense(self):
        assert problem_digest(W2) == GOLDEN_DENSE

    def test_golden_sparse(self):
        assert problem_digest(SparseQubo.from_dense(W2)) == GOLDEN_SPARSE

    def test_name_and_wrapper_do_not_participate(self):
        assert problem_digest(QuboMatrix(W2, name="anything")) == GOLDEN_DENSE
        assert problem_digest(QuboMatrix(W2, name="other")) == GOLDEN_DENSE

    def test_value_sensitivity(self):
        other = W2.copy()
        other[0, 0] += 1
        assert problem_digest(other) != GOLDEN_DENSE

    def test_dtype_normalized(self):
        assert problem_digest(W2.astype(np.int32)) == GOLDEN_DENSE

    def test_storage_kind_is_part_of_the_key(self):
        # Dense and sparse builds of the same matrix prepare differently
        # (different backend paths), so they must not collide.
        assert GOLDEN_SPARSE != GOLDEN_DENSE


class TestRunDigest:
    def test_golden(self):
        assert run_digest(W2, _Cfg()) == GOLDEN_RUN

    def test_known_problem_digest_hashes_the_same_bytes(self):
        assert run_digest(W2, _Cfg(), digest=GOLDEN_DENSE) == GOLDEN_RUN
        # With the digest given, the weights are not read at all.
        assert run_digest(None, _Cfg(), seed=9, digest=GOLDEN_DENSE) == GOLDEN_RUN_SEED9

    def test_extra_changes_key(self):
        assert run_digest(W2, _Cfg(), extra={"mode": "process"}) == GOLDEN_RUN_MODE

    def test_seed_override(self):
        assert run_digest(W2, _Cfg(), seed=9) == GOLDEN_RUN_SEED9
        assert run_digest(W2, _Cfg(seed=9)) == GOLDEN_RUN_SEED9

    def test_equal_configs_digest_equal(self):
        assert run_digest(W2, _Cfg(max_rounds=3)) == run_digest(
            W2, _Cfg(max_rounds=3)
        )
        assert run_digest(W2, _Cfg(max_rounds=4)) != GOLDEN_RUN

    def test_absconfig_works(self):
        from repro.abs import AbsConfig

        a = run_digest(W2, AbsConfig(max_rounds=3, seed=5))
        b = run_digest(W2, AbsConfig(max_rounds=3, seed=5))
        c = run_digest(W2, AbsConfig(max_rounds=3, seed=6))
        assert a == b != c

    def test_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            run_digest(W2, {"max_rounds": 3})
