#!/usr/bin/env python3
"""Check that a change computes what its base commit computes, bit for bit,
except where its ``CHANGES.md`` says otherwise.

Usage (from the repository root, with the base commit checked out in
another directory, for example by ``git worktree add --detach <dir> <rev>``):

    python3 tools/digest_gate.py --base <dir>

Both sides are hashed on the three benchmark workloads by this checkout's
recorder (``tools/bench_record.py --digests-only``, one BLAS thread, this
checkout's workload configurations), the base with ``--src <dir>``, so only
the code under test differs. If this recorder cannot hash the base (it calls
what the base's swerom lacks), the base's own recorder hashes it; if that
fails too, every key of this checkout counts as differing. Each digest has
a key ``<workload>/<route>/<name>``, for example
``paper-121x89-nt12-k8-m12/library/tensorial-pod.trajectory``. The gate
prints every key whose digest differs or that only one side has.

A change that means to alter results names the keys on a line of
``CHANGES.md`` that the base's ``CHANGES.md`` does not have:

    DIGESTS CHANGED: <pattern> <pattern> ... <reason>

Each word of the line that holds a ``/`` is an ``fnmatch`` pattern over the
keys (``*/library/pod-deim.*``, say), once the backticks, quotes,
parentheses, colons, semicolons and full stops at its ends are stripped;
the other words give the reason. The gate exits 1 if a differing key
matches no pattern of such a line, or if this checkout cannot be hashed,
and 0 otherwise. Digests hold for one machine and BLAS only, so both sides
are hashed in the same run, and no committed digest is compared.
"""

from __future__ import annotations

import argparse
import fnmatch
import re
import sys
from pathlib import Path

import bench_record

MARK = "DIGESTS CHANGED:"


def flatten(block: dict) -> dict[str, str]:
    """``{workload: {route: {name: digest}}}`` as ``{"workload/route/name": digest}``."""
    return {f"{w}/{route}/{name}": value for w, routes in block.items()
            for route, names in routes.items() for name, value in names.items()}


def differing(base: dict[str, str], head: dict[str, str]) -> list[str]:
    """Keys whose digests differ, or that only one side has."""
    return sorted(key for key in base.keys() | head.keys() if base.get(key) != head.get(key))


def named_patterns(changes: str, base_changes: str) -> list[str]:
    """The key patterns on the ``DIGESTS CHANGED:`` lines that ``changes``
    adds to ``base_changes``."""
    old = set(base_changes.splitlines())
    words = [word.strip("`'\"():;.") for line in changes.splitlines()
             if line.startswith(MARK) and line not in old
             for word in re.split(r"[\s,]+", line[len(MARK):])]
    return [word for word in words if "/" in word]


def unnamed(keys, patterns) -> list[str]:
    return [key for key in keys if not any(fnmatch.fnmatchcase(key, p) for p in patterns)]


def read_text(path: Path) -> str:
    return path.read_text() if path.is_file() else ""


def hashed(what: str, *runs) -> dict[str, str] | None:
    """The flattened digests of the first of ``runs`` that succeeds, or None."""
    for run in runs:
        try:
            return flatten(run())
        except (RuntimeError, ValueError) as err:
            print(f"could not hash {what}: {err}", file=sys.stderr)
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", type=Path, required=True, help="checkout of the base commit")
    base_dir = p.parse_args(argv).base.resolve()
    names = list(bench_record.WORKLOADS)
    head = hashed("this checkout", lambda: bench_record.digests(names))
    if head is None:
        print("FAIL: this checkout's digests could not be computed", file=sys.stderr)
        return 1
    own = base_dir / "tools" / "bench_record.py"
    base = hashed("the base", lambda: bench_record.digests(names, base_dir),
                  lambda: bench_record.digests(names, recorder=own))
    if base is None:
        print("the base could not be hashed: every key counts as differing", file=sys.stderr)
        base = {}
    keys = differing(base, head)
    patterns = named_patterns(read_text(bench_record.ROOT / "CHANGES.md"),
                              read_text(base_dir / "CHANGES.md"))
    missing = unnamed(keys, patterns)
    print(f"{len(head)} digests, {len(keys)} differ from the base")
    for key in keys:
        print(f"  {'UNNAMED ' if key in missing else 'named   '}{key}")
    if missing:
        print(f"FAIL: {len(missing)} differing keys are named by no added "
              f"'{MARK}' line of CHANGES.md", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
