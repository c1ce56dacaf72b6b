"""Fixed work that measures how fast the host runs right now.

``run.py`` runs this script as a child once per round, next to each timed CLI
call, and rescales the run's times by how long it took (see ``run.py``). It
does the kinds of work a CLI call does: start Python, import numpy, format
and parse CSV, loop in Python, and compute blocked squared distances with a
nearest-neighbor partition. It never imports smotekit, so a change to the
program cannot change its time; only the host and the toolchain can.

Usage: ``python3 bench/calibration.py``. Prints a checksum of its work.
"""

import csv
import io

import numpy as np

rng = np.random.default_rng(0)
points = rng.normal(size=(800, 8))
labels = [f"v{c}" for c in rng.integers(0, 6, size=len(points))]
buf = io.StringIO()
csv.writer(buf).writerows(
    [f"{v:.6f}" for v in row] + [label] for row, label in zip(points, labels)
)
rows = list(csv.reader(io.StringIO(buf.getvalue())))
x = np.array([[float(v) for v in row[:-1]] for row in rows])
counts: dict = {}
for row in rows:
    counts[row[-1]] = counts.get(row[-1], 0) + 1
total = 0.0
for block in range(0, len(x), 50):
    d = ((x[block:block + 50, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argpartition(d, 6, axis=1)[:, :6]
    for i, row in enumerate(nearest):
        total += float(d[i, row].sum())
print(len(rows), len(counts), f"{total:.3f}")
