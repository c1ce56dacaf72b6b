"""A deterministic stand-in for ``numpy.random.Generator`` in synthesis tests.

Synthesis takes its draws in batches: ``permutation(T)`` for the under-100
base choice, ``integers(0, w, size=n)`` for with-replacement neighbor picks,
a 3-D ``random((bases, rounds, w))`` whose stable argsort deals the
``distinct`` rounds, and ``random((n, g))`` for the gaps. The stub answers
each shape with a fixed value.
"""

import numpy as np


class StubRng:
    """Permutations are identities, integer draws are zero, uniform draws
    return a fixed gap (so a ``distinct`` round deals the list in order)."""

    def __init__(self, gap=0.0):
        self._gap = gap

    def permutation(self, n):
        return np.arange(n)

    def integers(self, low, high, size):
        return np.zeros(size, dtype=int)

    def random(self, size):
        return np.full(size, self._gap)
