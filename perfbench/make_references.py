#!/usr/bin/env python3
"""Regenerate the stored census-m9 references.

For every tuple of the census pool (see ``workloads.POOL_SIZE``) this runs
the streaming increment route, ``census(game, method="increment",
use_kernel=False)``, which never calls the census kernel, and writes the
per-class equilibrium counts to ``references/census-m9.json``.  Each tuple
takes about half a minute, so this is done once, offline, with one worker
process per CPU.

Usage: python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import multiprocessing
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

M = workloads.CensusWorkload.default_m


def _entry(k: int) -> dict:
    ctuple = workloads.random_tuple(M, random.Random(workloads.POOL_SEED + k))
    return {
        "index": k,
        "key": workloads.tuple_key(ctuple),
        "equilibria_per_class": workloads.streaming_per_class(ctuple),
    }


def main() -> int:
    with multiprocessing.get_context("spawn").Pool() as pool:
        entries = pool.map(_entry, range(workloads.POOL_SIZE))
    header = {
        "m": M,
        "route": 'census(game, method="increment", use_kernel=False)',
        "pool_seed": workloads.POOL_SEED,
    }
    # one line per tuple keeps the file readable and its diffs small
    text = json.dumps(header)[:-1] + ', "tuples": [\n'
    text += ",\n".join(json.dumps(entry) for entry in entries) + "\n]}\n"
    out = workloads.REFERENCE_DIR / f"census-m{M}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(text)
    print(f"wrote {out}: {len(entries)} tuples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
