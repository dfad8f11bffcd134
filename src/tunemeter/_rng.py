"""Deterministic random substreams.

Every parallelizable unit of work derives its own generator from the run
seed plus stable labels, so results never depend on worker count or
execution order. ``_parallel_map`` runs such units on worker threads and
returns their results in input order.
"""

from __future__ import annotations

import concurrent.futures
import zlib

import numpy as np


def stable_hash(label: str) -> int:
    """Map a label to a stable 32-bit integer (crc32, platform independent)."""
    return zlib.crc32(label.encode("utf-8"))


def derive_rng(seed: int, *labels: str | int) -> np.random.Generator:
    """Create a generator from a seed and any number of context labels.

    Integer labels are used as-is; strings are hashed. The same
    (seed, labels) pair always yields the same stream.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = [int(seed)]
    for label in labels:
        entropy.append(int(label) if isinstance(label, int) else stable_hash(label))
    return np.random.default_rng(entropy)


def _parallel_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items], on up to `workers` threads, in input order."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
