import os
from pathlib import Path

import numpy as np
import pytest

from nbmf import ObservationMask


def full_mask(n_rows, n_cols):
    cells = frozenset((m, n) for m in range(n_rows) for n in range(n_cols))
    return ObservationMask(n_rows, n_cols, cells)


def subsample_mask(n_rows, n_cols, fraction, seed):
    rng = np.random.default_rng(seed)
    keep = rng.random((n_rows, n_cols)) < fraction
    cells = frozenset(zip(*(idx.tolist() for idx in np.nonzero(keep))))
    return ObservationMask(n_rows, n_cols, cells)


def child_pids(pid=None):
    """The pids of the children of ``pid`` (default: this process), zombies
    included; Linux only."""
    pid = os.getpid() if pid is None else pid
    found = set()
    for entry in os.listdir("/proc"):
        try:
            stat = Path("/proc", entry, "stat").read_bytes()
        except (OSError, ValueError):
            continue
        if int(stat.rsplit(b")", 1)[1].split()[1]) == pid:
            found.add(int(entry))
    return found


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
