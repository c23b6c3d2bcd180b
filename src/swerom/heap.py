"""Fixed glibc heap thresholds, so a stage's cost does not depend on history.

By default glibc raises its mmap and trim thresholds to s and 2s whenever an
mmapped block of size s is freed (up to 32 and 64 MiB), and returns the free
top of the heap to the OS past the trim threshold. A low threshold makes the
call after a large free pay for the release of every page, and the call
after it fault them in again. Allocator settings given in the environment
win.
"""

import ctypes
import os


def fix_thresholds() -> bool:
    """Pin the thresholds at the dynamic rule's caps; returns whether set."""
    if any(k.startswith("MALLOC_") for k in os.environ) or "GLIBC_TUNABLES" in os.environ:
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    # M_MMAP_THRESHOLD = -3 and M_TRIM_THRESHOLD = -1 in glibc's malloc.h
    return bool(mallopt(-3, 32 * 2**20) and mallopt(-1, 64 * 2**20))
