"""Shared pieces of the benchmark: timing statistics, the host
fingerprint, the calibration kernel and the host's speed, set-up timing,
CPU pinning, the span tracer and the per-run report.

Nothing here imports ``repro``: the instrument stays the same whatever
the program under test does.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"


def median(values) -> float:
    """Median of ``values``; NaN when every sample of it failed."""
    return float(statistics.median(values)) if len(values) else math.nan


def mean(values) -> float:
    """The run's figure for a batch operation; NaN when every sample of
    it failed.

    The host's speed switches between two levels every few seconds.
    A workload spreads each operation's samples over its run, so their
    mean follows the share of time spent at each level, where a median
    jumps from one level to the other.  Request latencies stay medians.
    """
    return statistics.fmean(values) if len(values) else math.nan


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent, reproducible generator per (seed, stream)."""
    return random.Random(f"{seed}:{stream}")


def child_env() -> dict:
    """Environment for every process the benchmark starts: the program
    from this checkout's ``src`` (``run.py`` has already pointed
    ``TMPDIR`` inside the checkout)."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


# -- CPU placement ------------------------------------------------------------

def cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def pin(cpu: int, pid: int = 0) -> None:
    """Pin ``pid`` (0 = this process; threads started later inherit it).

    The event engine runs one rank at a time but parks every rank on its
    own OS thread; left free, each hand-off may wake a thread on the
    other CPU, which on a 2-vCPU guest doubles wall time and its spread.
    """
    os.sched_setaffinity(pid, {cpu})


# -- host fingerprint and calibration -----------------------------------------

def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": cpus(),
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
    }


def kernel_ms() -> float:
    """Wall milliseconds of one run of a fixed kernel: an interpreted
    loop plus a small dense matrix product."""
    import numpy as np

    a = np.arange(160 * 160, dtype=float).reshape(160, 160) / 1e4
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    b = a
    for _ in range(8):
        b = (b @ a) / 160.0
    elapsed = (time.perf_counter() - start) * 1e3
    if acc < 0 or not np.isfinite(b).all():
        raise RuntimeError("calibration kernel misbehaved")
    return elapsed


def calibration_ms() -> float:
    """Median of five runs of the kernel.  Divide a wall metric by it to
    compare hosts."""
    return median([kernel_ms() for _ in range(5)])


#: The kernel's time on the reference host, in ms.  Gated times read as
#: they would on a host that runs the kernel in this time.
REFERENCE_KERNEL_MS = 20.0


class HostSpeed:
    """The host's speed over one run, from the kernel timed between the
    workload's operations, on the CPU that does the work.

    Each vCPU of the 2-vCPU host switches between two speeds about 1.6x
    apart every few seconds, independently of the other, and the share
    of time at each drifts over minutes.  So a run's absolute times move
    by a fifth from one run to the next, and longer runs barely help.
    An operation and the kernel slow down together: scaling the mean
    p=512 and p=2048 launch times of 30-second windows by
    ``REFERENCE_KERNEL_MS`` over the window's mean kernel time about
    halved their spread.  The kernel imports nothing from the
    program, so the program's own cost does not reach it.
    """

    def __init__(self, cpu: int | None = None) -> None:
        self.cpu = cpu
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> None:
        """Time the kernel ``n`` times on ``cpu`` (default: where this
        thread runs), then return the thread to its CPUs."""
        home = os.sched_getaffinity(0)
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        try:
            self.samples.extend(kernel_ms() for _ in range(n))
        finally:
            os.sched_setaffinity(0, home)

    def mean_ms(self) -> float:
        return mean(self.samples)

    def adjust(self, seconds: float) -> float:
        """``seconds`` as they would read on the reference host."""
        return seconds * REFERENCE_KERNEL_MS / self.mean_ms()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another live process (VmHWM)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- set-up timing ------------------------------------------------------------

def time_setup_subprocess(workload: str, seed: int) -> float:
    """Wall seconds for a fresh interpreter to import the workload's
    modules and build its inputs (``run.py --setup-only``)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up of {workload} failed: {proc.stderr.decode()[-2000:]}")
    return elapsed


# -- the closed loop ----------------------------------------------------------

#: Full rounds a rotation always runs, so that every op has samples from
#: more than one moment of the run, however long its ops take.
MIN_ROUNDS = 2


def run_rotation(seconds: float, ops, outcome: Outcome,
                 speed: HostSpeed) -> int:
    """Call the ``ops`` in turn, round after round, for about ``seconds``,
    sampling ``speed`` after each.

    After ``MIN_ROUNDS`` full rounds, the next op runs only if its last
    duration still fits in the budget; the first op that does not fit
    ends the loop.  An op that raises counts as one failed operation of
    ``outcome``, and the rotation goes on.  Returns the number of ops run.
    """
    start = time.perf_counter()
    last: dict[int, float] = {}
    done = 0
    speed.sample()
    while True:
        k = done % len(ops)
        elapsed = time.perf_counter() - start
        if (done >= MIN_ROUNDS * len(ops)
                and elapsed + last.get(k, 0.0) > seconds):
            return done
        t0 = time.perf_counter()
        try:
            ops[k]()
        except Exception as exc:
            outcome.check(False, f"op {k} of the round raised {exc!r}")
        last[k] = time.perf_counter() - t0
        speed.sample()
        done += 1


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record ``what`` if it was incorrect."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


# -- tracing ------------------------------------------------------------------

class SpanTracer:
    """Spans (name, layer, start, end, parent) kept in memory.

    Only the benchmark's own code opens spans, one at a time; inside a
    simulated SPMD run only rank 0 does, and the event engine runs one
    rank at a time, so a single stack nests them correctly.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; returns (result, seconds)."""
        with self.span(name, layer) as record:
            result = fn(*args, **kwargs)
        return result, record["end"] - record["start"]

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time not covered by the span's children."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time[s["id"]]
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out

    def span_cost_us(self) -> float:
        """Cost of opening and closing one span, measured on a scratch
        tracer so the real record stays clean."""
        n = 20_000
        scratch = SpanTracer()
        start = time.perf_counter()
        for _ in range(n):
            with scratch.span("x", "trace"):
                pass
        return (time.perf_counter() - start) / n * 1e6

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# -- the report ---------------------------------------------------------------

def metric_block(values: dict, kind: str) -> dict:
    """Order and unit-tag ``values`` by BENCHMARK.json's ``kind`` list;
    a listed metric that was not measured is an error."""
    specs = json.loads(SPEC.read_text())[kind]
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise RuntimeError(f"unmeasured {kind} metrics: {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in specs}


def write_details(name: str, doc: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True, default=str))


def check_counts(workload: str, counts: dict) -> list[str]:
    """Compare the run's deterministic counts with the committed ones.

    A difference is a behaviour change of the program, not noise; it is
    reported, and the run stays valid.
    """
    expected_path = ROOT / "perfbench" / "expected_counts.json"
    expected = json.loads(expected_path.read_text()).get(workload, {})
    changed = []
    for key, value in counts.items():
        if key in expected and expected[key] != value:
            changed.append(f"{key}: expected {expected[key]!r}, got {value!r}")
    return changed
