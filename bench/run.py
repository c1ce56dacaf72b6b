"""smotekit benchmark: time the ``python -m smotekit.cli`` command on seeded
synthetic workloads and check every output.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload cont_smote --seed 1 --seconds 30 --trace 0

The program is a black box: ``run.py`` generates the workload's CSV and
schema from ``--seed`` (in a child process), makes one untimed warm-up call,
then runs the CLI one call at a time in a closed loop, a single client,
starting the next call only when the previous one has exited. Each round
runs the calibration child (``calibration.py``), one set-up probe and one
call. It keeps calling for ``--seconds``. No more than one child runs at
once, so the box never runs more processes than ``nproc``, and each child's
BLAS runs on one thread.

With ``--trace 0`` it reports, per workload, the end-to-end metrics:

* ``run_s``: median wall time of one timed call, from spawn to exit;
* ``cpu_s``: median user+sys CPU of one timed call (``os.wait4`` rusage);
* ``peak_rss_mb``: median ``ru_maxrss`` of one call, in MiB;
* ``setup_s``: median wall time of a set-up probe, a child that imports
  ``smotekit.cli`` and runs ``load_csv`` on the workload's files.

``run_s``, ``cpu_s`` and ``setup_s`` are host-calibrated: each call's and
each probe's time is multiplied by ``CALIBRATION_S`` over the wall time of
the calibration child of its round, before the median is taken, so it reads
as on a host where that fixed work takes ``CALIBRATION_S``. On a shared host
other tenants slow every process by up to 60 % for minutes at a time, in
wall and CPU time alike. Across ten runs of one workload, the raw mean call
time and the mean calibration time correlate at 0.8 or more, and
calibrating cut the quartile spread of ``run_s`` from 0.08-0.23 of the
median to 0.03-0.08 (two-core Xeon VM, 30 s runs). The calibration never imports smotekit, so a change to
the program moves these metrics as much as it moves the raw times. The raw
medians and every sample are in the detail line.

The failed ratio is ``failed / attempted`` in the result line; it is printed
with the metrics but is not one of them, because it is 0 when the program is
correct. A call fails on a nonzero exit, a failed output check (see
``checks.py``) or output bytes that differ from the run's first call.

With ``--trace 1`` it alternates plain calls with calls run under
``tracing.py``, which wraps each layer's public functions from outside and
records spans, and reports the per-layer metrics (medians over the traced
calls) plus ``trace.overhead_ratio``, the median traced wall time over the
median plain wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
object with the machine, versions, commit, every wall and CPU sample in call
order, the raw medians and the sha256 of each output file. Work files go to ``.bench_work/`` and are removed at exit.

Self-tests: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import MINORITY, WORKLOADS

CALL_TIMEOUT_S = 150

# Wall time of calibration.py on a two-core Xeon VM when no other tenant
# slows it (Python 3.11, numpy 2.4); calibrated metrics read as on that host.
CALIBRATION_S = 0.2

# numpy's OpenBLAS starts one spinning thread per core; on a shared two-core
# box that measures the scheduler, so every child runs BLAS on one thread.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_PROBE = (
    "import sys, numpy\n"
    "from smotekit.cli import FeatureSchema, load_csv\n"
    "ds = load_csv(sys.argv[1], FeatureSchema.from_json(sys.argv[2]), sys.argv[3])\n"
    "print(numpy.__version__, len(ds))\n"
)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def spawn(argv: list, env: dict, stdout: Path) -> dict:
    """Run one child to completion; wall time, CPU, peak RSS and exit code."""
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
        signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model}


def git_commit(root: Path) -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


class Run:
    """One benchmark run of one workload: its files, calls and failures."""

    def __init__(self, root: Path, name: str, seed: int, work: Path):
        self.spec = WORKLOADS[name]
        self.work = work
        self.data_dir = work / "data"
        self.out = work / "out"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **SINGLE_THREAD)
        self.reference = None
        self.numpy_version = "unknown"
        self.attempted = 0
        self.problems: list = []
        self.cli_argv = self.spec["argv"] + [
            "--data", str(self.data_dir / "data.csv"),
            "--schema", str(self.data_dir / "schema.json"),
            "--minority", MINORITY,
            "--out", str(self.out),
        ]
        gen = spawn(
            [sys.executable, str(Path(__file__).with_name("workloads.py")),
             "--workload", name, "--seed", str(seed), "--out", str(self.data_dir)],
            self.env, work / "gen.log",
        )
        if gen["code"] != 0:
            raise RuntimeError(f"data generation failed: {(work / 'gen.log').read_text()}")

    @property
    def failed(self) -> int:
        return len(self.problems)

    def fail(self, reason: str) -> None:
        self.problems.append(reason)
        print(f"FAIL: {reason}", file=sys.stderr)

    def calibrate(self) -> float:
        """Wall time of one calibration child, which never runs the program."""
        log = self.work / "calibration.log"
        result = spawn([sys.executable, str(Path(__file__).with_name("calibration.py"))],
                       self.env, log)
        if result["code"] != 0:
            raise RuntimeError(f"calibration failed: {log.read_text()}")
        return result["wall"]

    def probe(self) -> float:
        """Wall time of one set-up probe child; records numpy's version."""
        log = self.work / "setup.log"
        result = spawn(
            [sys.executable, "-c", SETUP_PROBE, str(self.data_dir / "data.csv"),
             str(self.data_dir / "schema.json"), MINORITY],
            self.env, log,
        )
        self.attempted += 1
        words = log.read_text().split()
        expected = self.spec["n_minority"] + self.spec["n_majority"]
        if result["code"] != 0 or words[-1:] != [str(expected)]:
            self.fail(f"setup probe: exit {result['code']}, output {words[-2:]}")
        else:
            self.numpy_version = words[0]
        return result["wall"]

    def call(self, traced: bool) -> dict:
        """One CLI call, its outputs checked; spans attached when traced."""
        shutil.rmtree(self.out, ignore_errors=True)
        spans = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(Path(tracing.__file__)), str(spans)]
        else:
            argv = [sys.executable, "-m", "smotekit.cli"]
        result = spawn(argv + self.cli_argv, self.env, self.work / "call.log")
        self.attempted += 1
        if result["code"] != 0:
            log = (self.work / "call.log").read_text()[-2000:]
            self.fail(f"exit {result['code']}: {log}")
            return result
        spec = self.spec
        if spec["argv"][0] == "experiment":
            files, problems = checks.experiment_report(self.out, self.data_dir)
        else:
            overs = [int(v) for v in spec["argv"][spec["argv"].index("--over") + 1].split(",")]
            files, problems = checks.augmented_outputs(
                self.out, self.data_dir, spec["argv"][0].replace("-", "_"), overs,
                spec["n_minority"], spec["n_majority"],
            )
        if self.reference is None:
            self.reference = files
        problems += checks.compare(files, self.reference)
        if traced:
            with open(spans, encoding="utf-8") as fh:
                trace = json.load(fh)
            problems += tracing.trace_problems(trace, result["wall"])
            result["layers"] = tracing.layer_metrics(trace)
        if problems:
            self.fail("; ".join(problems))
        return result


def measure(run: Run, seconds: float, trace: bool) -> tuple[list, list, list, list]:
    """One checked warm-up call, then a closed loop for ``seconds``: a
    calibration child, a set-up probe and a plain call, and a traced call when
    ``trace``. A round starts only if the last one would still fit. Returns
    calibration and probe walls, and the calls."""
    run.call(traced=False)
    calibrations, probes, plain, traced = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        calibrations.append(run.calibrate())
        probes.append(run.probe())
        plain.append(run.call(traced=False))
        if trace:
            traced.append(run.call(traced=True))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return calibrations, probes, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="smotekit CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "smotekit" / "cli.py").is_file():
        print(f"error: {root} holds no src/smotekit; run from a source checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(root, args.workload, args.seed, work)
        calibrations, probes, plain, traced = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass

    walls = [c["wall"] for c in plain]
    cpus = [c["cpu"] for c in plain]
    factors = [CALIBRATION_S / c for c in calibrations]

    def calibrated(values: list) -> float:
        return median([v * f for v, f in zip(values, factors)])

    if args.trace:
        layers = [c["layers"] for c in traced if "layers" in c]
        metrics = {name: {"value": median([m[name] for m in layers]),
                          "unit": unit_of(name)}
                   for name in tracing.metric_names()}
        metrics["trace.overhead_ratio"] = {
            "value": median([c["wall"] for c in traced]) / median(walls), "unit": "1"}
    else:
        metrics = {
            "run_s": {"value": calibrated(walls), "unit": "s"},
            "cpu_s": {"value": calibrated(cpus), "unit": "s"},
            "peak_rss_mb": {"value": median([c["rss_mb"] for c in plain]), "unit": "MiB"},
            "setup_s": {"value": calibrated(probes), "unit": "s"},
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "why": WORKLOADS[args.workload]["why"],
        "machine": machine(),
        "python": platform.python_version(),
        "numpy": run.numpy_version,
        "commit": git_commit(root),
        "calibration_s": {"median": median(calibrations), "samples": calibrations},
        "wall_s": {"median": median(walls), "n": len(walls), "samples": walls},
        "cpu_s": {"median": median(cpus), "samples": cpus},
        "setup_s": {"median": median(probes), "n": len(probes), "samples": probes},
        "traced_calls": len(traced),
        "failed_ratio": run.failed / run.attempted,
        "sha256": run.reference,
        "bench_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} raw medians: call {median(walls):.6g} s over {len(walls)} calls, "
          f"probe {median(probes):.6g} s, calibration {median(calibrations):.6g} s")
    print(f"{args.workload} failed_ratio = {detail['failed_ratio']:.6g} "
          f"({run.failed} of {run.attempted} calls)")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
