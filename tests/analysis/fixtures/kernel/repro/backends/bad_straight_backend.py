"""Fixture backend whose fused straight walk builds its kernel lazily.

Compiling belongs in ``prepare_*``; ``run_straight`` runs once per
search round, so process and filesystem work there is flagged.
"""

import subprocess
import tempfile

from repro.backends.base import KernelBackend


class LazyStraightBackend(KernelBackend):
    name = "lazy"

    def run_straight(self, pw, X, T, delta, energy, best_energy, best_x, scan):
        workdir = tempfile.mkdtemp()
        subprocess.run(["cc", "-shared", "-o", workdir + "/k.so", "k.c"])
        return 0
