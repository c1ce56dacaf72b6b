"""Byte checks of every text writer against the row-at-a-time oracles, in
one part and split over forked children."""

import errno
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from smotekit import data as data_module
from smotekit.data import CONTINUOUS, NOMINAL, FeatureSchema, save_csv, write_lines
from smotekit.evaluate import HullVertex, RocCurve, RocPoint, write_hull_csv, write_points_csv
from smotekit.resample import Provenance, SyntheticBatch, write_provenance

# In chunks of PART_CHUNK lines: 4 chunks, the fewest a split file has, and
# line counts on and beside part and chunk edges (9 chunks: 2 or 3 parts).
PART_CHUNK = 256
ROW_COUNTS = (0, 1, 1023, 1024, 1025, 2049)
# usable CPUs: one part, and splits into 2 and 3 parts
CPUS = (1, 2, 3)
# every file name the tests here write; anything else in tmp_path is stray
WRITTEN = {"out.csv", "out.jsonl", "points.csv", "hull.csv", "big.csv"}
EDGE_FLOATS = (-0.0, 1e-05, 1e16, 5e-324, 0.30000000000000004, 1.2345678901234567)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
# the empty token, and the characters that make the csv module quote a field
TOKENS = st.text(alphabet=st.sampled_from('ab,"\r\n é'), max_size=4)
FILE_CHECK = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def use_cpus(monkeypatch, n):
    """Writes from here on see ``n`` usable CPUs and chunks of PART_CHUNK lines."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(data_module, "_CHUNK_LINES", PART_CHUNK)


def count_forks(monkeypatch):
    """The list that gets one entry per ``os.fork`` call from here on."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    return forks


@pytest.fixture(autouse=True)
def no_leftovers(tmp_path):
    """After each test no child process is left and no stray file either."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert {p.name for p in tmp_path.iterdir()} <= WRITTEN


def _spread(data, pool, n):
    """``n`` entries drawn from ``pool``, every one of them used when ``n`` allows."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    picks = np.random.default_rng(seed).integers(len(pool), size=n)
    picks[: min(n, len(pool))] = np.arange(min(n, len(pool)))
    return [pool[i] for i in picks.tolist()]


@FILE_CHECK
@given(data=st.data())
def test_save_csv_bytes_match_csv_writer(tmp_path, monkeypatch, data):
    use_cpus(monkeypatch, data.draw(st.sampled_from(CPUS)))
    kinds = data.draw(st.lists(st.sampled_from((CONTINUOUS, NOMINAL)), min_size=1, max_size=4))
    schema = FeatureSchema(tuple((f"f{i}", kind) for i, kind in enumerate(kinds)), 'class "c"')
    value = {CONTINUOUS: FLOATS, NOMINAL: TOKENS}
    pool = data.draw(st.lists(st.tuples(*(value[kind] for kind in kinds)), min_size=1, max_size=8))
    rows = _spread(data, pool, data.draw(st.sampled_from(ROW_COUNTS)))
    labels = _spread(data, [oracles.MINORITY, oracles.MAJORITY], len(rows))
    tokens = {oracles.MINORITY: data.draw(TOKENS), oracles.MAJORITY: data.draw(TOKENS)}
    ds = oracles.dataset_from_rows(
        schema, rows, labels, tokens[oracles.MINORITY], tokens[oracles.MAJORITY]
    )
    path = tmp_path / "out.csv"

    save_csv(ds, path)
    header = [*schema.names, schema.class_column]
    expected = oracles.csv_text(header, [(*row, tokens[lab]) for row, lab in zip(rows, labels)])
    assert path.read_bytes() == expected.encode()

    save_csv(ds, path, class_column=False)
    assert path.read_bytes() == oracles.csv_text(schema.names, rows).encode()


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("cpus", CPUS)
def test_parts_are_appended_in_line_order(tmp_path, monkeypatch, cpus, n):
    """Lines that all differ, so a part out of place shows."""
    use_cpus(monkeypatch, cpus)
    schema = FeatureSchema((("f0", CONTINUOUS),), "class")
    rows = [(float(i),) for i in range(n)]
    labels = [oracles.MINORITY] * n
    save_csv(oracles.dataset_from_rows(schema, rows, labels), tmp_path / "out.csv", class_column=False)
    assert (tmp_path / "out.csv").read_bytes() == oracles.csv_text(schema.names, rows).encode()
    index = np.arange(n, dtype=np.intp)
    write_provenance(tmp_path / "out.jsonl", SyntheticBatch(None, Provenance(index, index, np.empty((n, 0)))), "smote")
    expected = oracles.provenance_text(index.tolist(), index.tolist(), [()] * n, "smote")
    assert (tmp_path / "out.jsonl").read_bytes() == expected.encode()


def test_save_csv_quotes_an_empty_field_alone_on_its_line(tmp_path):
    # the csv module writes a line of one empty field as "", not as a blank line
    schema = FeatureSchema((("f0", NOMINAL),), "class")
    rows = [("",), ("a,b",), ("",)]
    labels = [oracles.MINORITY, oracles.MAJORITY, oracles.MAJORITY]
    ds = oracles.dataset_from_rows(schema, rows, labels)
    save_csv(ds, tmp_path / "out.csv", class_column=False)
    assert (tmp_path / "out.csv").read_bytes() == oracles.csv_text(schema.names, rows).encode()


@FILE_CHECK
@given(data=st.data())
def test_write_provenance_bytes_match_json_dumps(tmp_path, monkeypatch, data):
    use_cpus(monkeypatch, data.draw(st.sampled_from(CPUS)))
    width = data.draw(st.sampled_from((0, 1, 6)))
    draws = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from((-0.0, 1e-05, 5e-324, 0.1 + 0.2))
    pool = data.draw(
        st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.lists(draws, min_size=width, max_size=width)),
            min_size=1,
            max_size=8,
        )
    )
    records = _spread(data, pool, data.draw(st.sampled_from(ROW_COUNTS)))
    base, neighbor, gaps = zip(*records) if records else ((), (), ())
    prov = Provenance(
        np.array(base, dtype=np.intp),
        np.array(neighbor, dtype=np.intp),
        np.array(gaps, dtype=float).reshape(len(records), width),
    )
    variant = data.draw(st.sampled_from(("smote", "smote_nc", "smote_n", "replicate")) | TOKENS)
    path = tmp_path / "out.jsonl"
    write_provenance(path, SyntheticBatch(None, prov), variant)
    assert path.read_bytes() == oracles.provenance_text(base, neighbor, gaps, variant).encode()


@FILE_CHECK
@given(data=st.data())
def test_report_csv_bytes_match_csv_writer(tmp_path, monkeypatch, data):
    use_cpus(monkeypatch, data.draw(st.sampled_from(CPUS)))
    rates = st.floats(0.0, 100.0) | st.sampled_from((-0.0, 1e-05, 5e-324, 33.333333333333336))
    point = st.tuples(TOKENS, TOKENS, rates, rates)
    pool = data.draw(st.lists(point, min_size=1, max_size=8))
    records = _spread(data, pool, data.draw(st.sampled_from(ROW_COUNTS)))
    curves = [
        RocCurve(family, tuple(RocPoint(fp, tp, tag) for f, tag, fp, tp in records if f == family))
        for family in dict.fromkeys(r[0] for r in records)
    ]
    hull = [HullVertex(fp, tp, family, tag) for family, tag, fp, tp in records[::3]]
    on_hull = {(v.fp_rate, v.tp_rate) for v in hull}
    rows = sorted(
        ((f, tag, fp, tp, int((fp, tp) in on_hull)) for f, tag, fp, tp in records),
        key=lambda r: (r[0], r[2], r[3], r[1]),
    )

    write_points_csv(tmp_path / "points.csv", curves, hull)
    expected = oracles.csv_text(["family", "tag", "fp_rate", "tp_rate", "on_hull"], rows)
    assert (tmp_path / "points.csv").read_bytes() == expected.encode()

    write_hull_csv(tmp_path / "hull.csv", hull)
    expected = oracles.csv_text(
        ["family", "tag", "fp_rate", "tp_rate"], [(v.family, v.tag, v.fp_rate, v.tp_rate) for v in hull]
    )
    assert (tmp_path / "hull.csv").read_bytes() == expected.encode()


def test_save_csv_memory_is_bounded(tmp_path):
    n = 50_000
    rng = np.random.default_rng(36)
    schema = FeatureSchema(
        tuple((f"c{i}", CONTINUOUS) for i in range(6)) + (("n0", NOMINAL),), "class"
    )
    rows = [(*values, f"v{i % 7}") for i, values in enumerate(rng.normal(size=(n, 6)).tolist())]
    labels = [oracles.MINORITY if i % 3 else oracles.MAJORITY for i in range(n)]
    ds = oracles.dataset_from_rows(schema, rows, labels)
    del rows
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        save_csv(ds, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 5_000_000
    assert peak < size / 4  # a quarter of the whole file as text


def numbered_lines(part):
    return "".join(f"{i}\r\n" for i in range(part.start, part.stop))


class NoTextAtLine(Exception):
    """An exception whose ``__init__`` formats its message from its argument."""

    def __init__(self, line):
        super().__init__(f"no text at line {line}")


def unpicklable_error():
    class Local(Exception):
        """A class pickle cannot find by name."""

    return Local("no text for this slice")


@pytest.mark.parametrize("cpus", (2, 3))
@pytest.mark.parametrize("from_line", (768, 1536), ids=("part-1-on", "last-part"))
@pytest.mark.parametrize(
    "make_error",
    (
        lambda: ValueError("no text for this slice"),
        lambda: OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
        lambda: NoTextAtLine(64),
        unpicklable_error,
    ),
    ids=("ValueError", "OSError", "formatted-message", "unpicklable"),
)
def test_a_failed_later_part_raises_what_one_part_raises(tmp_path, monkeypatch, cpus, from_line, make_error):
    """A chunk_text that fails only for slices in a later part raises the
    type and message the one-part writer raises: the failed child's part is
    formatted again in this process, which raises the exception itself."""
    error = make_error()

    def chunk_text(part):
        if part.start >= from_line:
            raise error
        return numbered_lines(part)

    raised = []
    forks = count_forks(monkeypatch)
    for n in (1, cpus):
        use_cpus(monkeypatch, n)
        with pytest.raises(type(error)) as caught:
            write_lines(tmp_path / "out.csv", None, 2049, chunk_text)
        raised.append(caught.value)
    assert len(forks) == cpus - 1
    assert [type(e) for e in raised] == [type(error)] * 2
    assert str(raised[1]) == str(raised[0]) == str(error)
    assert getattr(raised[1], "errno", None) == getattr(error, "errno", None)
    assert raised[1] is error


def test_a_killed_child_is_formatted_here(tmp_path, monkeypatch):
    """A child killed from outside (as by the OOM killer) costs its part a
    second formatting in this process, not the write."""
    parent = os.getpid()

    def chunk_text(part):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return numbered_lines(part)

    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    write_lines(tmp_path / "out.csv", None, 2049, chunk_text)
    assert (tmp_path / "out.csv").read_bytes() == numbered_lines(slice(0, 2049)).encode()
    assert len(forks) == 2


def test_a_failed_first_part_kills_and_reaps_the_children(tmp_path, monkeypatch):
    """The children of a write whose own part fails are killed, not waited for."""

    def chunk_text(part):
        if part.start == 0:
            raise ValueError("the first part fails")
        time.sleep(60)
        return numbered_lines(part)

    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(ValueError, match="the first part fails"):
        write_lines(tmp_path / "out.csv", None, 2049, chunk_text)
    assert time.monotonic() - start < 20
    assert len(forks) == 2


def test_a_write_that_cannot_fork_is_one_part(tmp_path, monkeypatch):
    """When the second child cannot be made, the first child's part is used
    and this process formats the part the second would have; a missing
    directory fails as in one part."""
    use_cpus(monkeypatch, 3)
    forks, fork = [], os.fork

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    write_lines(tmp_path / "out.csv", None, 2049, numbered_lines)
    assert (tmp_path / "out.csv").read_bytes() == numbered_lines(slice(0, 2049)).encode()
    assert len(forks) == 2
    missing = tmp_path / "missing" / "out.csv"
    with pytest.raises(FileNotFoundError) as caught:
        write_lines(missing, None, 2049, numbered_lines)
    assert caught.value.filename == str(missing)


def test_children_leave_buffered_stdout_alone(tmp_path):
    """Text a process has buffered for stdout before a split write shows
    once: its children end without flushing it."""
    script = (
        "import os, sys\n"
        "from smotekit import data\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        f"data._CHUNK_LINES = {PART_CHUNK}\n"
        "print('before the write')\n"
        "lines = lambda part: ''.join(f'{i}\\r\\n' for i in range(part.start, part.stop))\n"
        "data.write_lines(sys.argv[1], None, 2049, lines)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(data_module.__file__))}
    env.pop("PYTHONUNBUFFERED", None)  # stdout into a pipe is block-buffered
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out.csv")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before the write\n"
    assert (tmp_path / "out.csv").read_bytes() == numbered_lines(slice(0, 2049)).encode()


def test_a_process_running_threads_writes_in_one_part(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        write_lines(tmp_path / "out.csv", None, 2049, numbered_lines)
    finally:
        stop.set()
        thread.join()
    assert (tmp_path / "out.csv").read_bytes() == numbered_lines(slice(0, 2049)).encode()
    assert forks == []
