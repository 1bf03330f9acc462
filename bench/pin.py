"""Pin the answer digest of every query a seed can ask for.

Usage (from the repository root):

    PYTHONPATH=src python3 bench/pin.py [WORKLOAD ...]

Runs each workload's whole query universe once, requires every answer to
pass its independent check, and writes the digests to bench/pinned.json
(only the named workloads are recomputed).  Pin only from a commit whose
answers are trusted; a later commit is then checked against them.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import checks
import workloads

PINNED = Path(__file__).resolve().parent / "pinned.json"
PACKED_PREFIX = "emb:"  # keys emb:<target>:<source index> are packed per target


def pin(workload, work_dir):
    flat, packed = {}, {}
    bad = 0
    for q in workloads.universe(workload, work_dir):
        answer = q.run()
        problems = q.check(answer)
        if problems:
            bad += 1
            print(f"  {q.key}: {'; '.join(problems)}", file=sys.stderr)
        d = checks.digest(q.view(answer))
        if q.key.startswith(PACKED_PREFIX):
            group, _, index = q.key.rpartition(":")
            assert int(index) * checks.DIGEST_HEX == len(packed.get(group, ""))
            packed[group] = packed.get(group, "") + d
        else:
            flat[q.key] = d
    return flat, packed, bad


def main(argv):
    names = argv or list(workloads.WORKLOADS)
    data = json.loads(PINNED.read_text()) if PINNED.is_file() else {"digests": {}, "packed": {}}
    work_dir = PINNED.parent / "out" / "pin-work"
    failed = False
    for name in names:
        start = time.perf_counter()
        flat, packed, bad = pin(name, work_dir)
        prefixes = {k.split(":", 1)[0] + ":" for k in list(flat) + list(packed)}
        for part in ("digests", "packed"):
            data[part] = {k: v for k, v in data[part].items() if k.split(":", 1)[0] + ":" not in prefixes}
        data["digests"].update(flat)
        data["packed"].update(packed)
        print(f"{name}: {len(flat) + len(packed)} entries, {bad} failed checks, {time.perf_counter() - start:.1f} s")
        failed |= bad > 0
    shutil.rmtree(work_dir, ignore_errors=True)
    if failed:
        print("not written: some answers failed their checks", file=sys.stderr)
        return 1
    data["digests"] = dict(sorted(data["digests"].items()))
    data["packed"] = dict(sorted(data["packed"].items()))
    PINNED.write_text(json.dumps(data, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
