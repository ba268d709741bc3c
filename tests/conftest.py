import os
from pathlib import Path

import numpy as np
import pytest

import nbmf._workers as workers
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


@pytest.fixture(autouse=True)
def no_scope_left_open():
    """Fail the test after which a scope of ``nbmf._workers`` is still open:
    a cap on fit processes or an OpenBLAS bound.  The state is reset first, so only that test fails."""
    yield
    left = []
    if getattr(workers._scope, "cap", None) is not None:
        left.append(f"a cap of {workers._scope.cap} fit processes")
        workers._scope.cap = None
    if workers._blas_holders != 0:
        left.append(f"{workers._blas_holders} _one_blas_thread block(s)")
        workers._blas_holders = 0
        calls = workers._openblas_thread_calls()
        if calls is not None:
            calls[1](workers._blas_before)
    if left:
        pytest.fail("left open: " + ", ".join(left))
