import os
import subprocess
import sys
from pathlib import Path

import pytest

from swerom.heap import fix_thresholds


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# Allocates a 24 MiB block after importing swerom and prints whether it came
# from the brk heap, and the heap's size with the block held and after it is
# freed.
_PROBE = """
import numpy as np
import swerom

def heap():
    for line in open("/proc/self/maps"):
        if line.rstrip().endswith("[heap]"):
            lo, hi = (int(a, 16) for a in line.split()[0].split("-"))
            return lo, hi
    return 0, 0

a = np.ones(3 * 2**20)
lo, hi = heap()
print(int(lo <= a.ctypes.data < hi), hi - lo)
del a
print(heap()[1] - heap()[0])
"""


@pytest.mark.skipif(not (_glibc() and Path("/proc/self/maps").exists()),
                    reason="needs glibc and /proc")
def test_import_keeps_freed_blocks_in_heap():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(src)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split()
    in_heap, held, freed = (int(x) for x in out)
    # the block is below the pinned mmap threshold, and freeing it leaves a
    # free top below the pinned trim threshold, which the heap keeps
    assert in_heap == 1
    assert freed == held


def test_user_allocator_settings_win(monkeypatch):
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
    assert fix_thresholds() is False
