"""Deterministic random streams.

All randomness flows through numpy's PCG64 bit generator, which produces the
same draws on every platform for a given seed. A root seed plus a sequence of
labels names an independent substream: the labels are hashed (SHA-256) into a
``SeedSequence`` spawn key, so adding or removing one randomized operation
never perturbs the draws seen by any other. The pipeline derives one substream
per (family, grid cell, fold) and each resampling operation derives its own
child below that.
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEP = "\x1f"


def spawn_key(*labels: object) -> tuple[int, ...]:
    """Hash labels into four uint32 words usable as a SeedSequence spawn key."""
    joined = _SEP.join(str(label) for label in labels)
    digest = hashlib.sha256(joined.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4))


def generator(seed: int, *labels: object) -> np.random.Generator:
    """Return the PCG64 generator of the substream that the label path ``labels``
    names under ``seed``; every caller names one."""
    seq = np.random.SeedSequence(seed, spawn_key=spawn_key(*labels))
    return np.random.Generator(np.random.PCG64(seq))


def child_seed(seed: int, *labels: object) -> int:
    """Derive a uint64 child seed; used where an API takes a seed, not a generator."""
    joined = _SEP.join([str(seed), *(str(label) for label in labels)])
    digest = hashlib.sha256(joined.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
