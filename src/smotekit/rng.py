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


def _label_hash(*labels: object) -> bytes:
    """The SHA-256 digest of the ``_SEP``-joined label path."""
    return hashlib.sha256(_SEP.join(map(str, labels)).encode("utf-8")).digest()


def generator(seed: int, *labels: object) -> np.random.Generator:
    """The PCG64 generator of the substream the label path ``labels`` names
    under ``seed``, keyed by the first 16 bytes of the labels' hash."""
    digest = _label_hash(*labels)
    key = tuple(int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def child_seed(seed: int, *labels: object) -> int:
    """A uint64 child seed from the hash of ``seed`` and the labels; used
    where an API takes a seed, not a generator."""
    return int.from_bytes(_label_hash(seed, *labels)[:8], "little")
