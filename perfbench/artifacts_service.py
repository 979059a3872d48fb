"""Workload ``artifacts_service``: the broker service over loopback HTTP.

``python -m repro serve --port 0`` runs in its own process, pinned to
its own CPU; this process generates the load with ``ServiceClient``.
The run is four slices of equal length, each on a fresh server:

1. Boot the server (set-up: until its first answer) and send one cold
   ``all`` request (the ten artifacts, fresh ``cache_dir``), which is
   ``repro run --all`` cold.
2. Until the slice ends, 2 closed-loop clients each alternate a
   distinct-seed ``fig4`` request (a cache miss: real perfmodel and
   selector work) with the identical request resubmitted under a
   second tenant, which must coalesce onto the finished job.

The host's speed shifts every few seconds, so the slices spread each
metric's samples over the whole run.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import statistics
import subprocess
import sys
import threading
import time

from benchlib import (OUT, ROOT, HostSpeed, Outcome, child_env, mean,
                      median, pin, proc_peak_rss_mb, rng_for)

SLICES = 4
#: Least closed-loop load per slice, if a slow cold request ate its time.
MIN_LOAD_S = 2.0
CLIENTS = 2
BOOT_TIMEOUT_S = 60.0
#: Distinct jobs a run needs, so that at least 10 lie beyond their p90.
MIN_MISSES = 100
#: Kernel runs timed on the server's CPU each time the server idles.
PROBES = 3


class Server:
    """One ``repro serve`` process: boot, answer, stop."""

    def __init__(self, cpu: int | None, log_path):
        from repro.service.client import ServiceClient

        start = time.perf_counter()
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=self._log, text=True)
        if cpu is not None:
            # The child is still starting its interpreter: no threads yet,
            # and every thread it starts later inherits this placement.
            pin(cpu, self.proc.pid)
        watchdog = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.client = ServiceClient(line.split()[-1],
                                        request_timeout_s=120.0)
            self.client.stats()
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.boot_s = time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def render_digests(results: dict) -> dict[str, str]:
    """sha256 of each assembled artifact's rendered text, by name."""
    from repro.broker.registry import get_artifact

    return {name: hashlib.sha256(
        get_artifact(name).render(value).encode()).hexdigest()
        for name, value in results.items()}


def setup(seed: int) -> dict:
    """Import the client side and derive every job seed and tenant name."""
    from repro.broker.api import RunRequest  # noqa: F401
    from repro.harness.config import RunConfig  # noqa: F401
    from repro.service.client import ServiceClient  # noqa: F401

    rng = rng_for(seed, "artifacts_service")
    tag = f"{rng.getrandbits(32):08x}"
    return {
        "all_seed": rng.randrange(1, 1 << 30),
        "job_seed_base": rng.randrange(1 << 30, 1 << 31),
        "tenants": [(f"t{tag}-c{c}-a", f"t{tag}-c{c}-b")
                    for c in range(CLIENTS)],
    }


def all_request(inputs: dict, cache_dir):
    from repro.broker.api import RunRequest
    from repro.harness.config import RunConfig

    return RunRequest(artifacts=("all",), config=RunConfig(
        seed=inputs["all_seed"], cache_dir=str(cache_dir)))


def fig4_request(seed: int, cache_dir):
    from repro.broker.api import RunRequest
    from repro.harness.config import RunConfig

    return RunRequest(artifacts=("fig4",),
                      config=RunConfig(seed=seed, cache_dir=str(cache_dir)))


def job_pair(client, request, tenants):
    """A fresh request, then the identical one under the second tenant.

    Returns (miss rtt, coalesced rtt, correct)."""
    start = time.perf_counter()
    first = client.submit(request, tenant=tenants[0])
    result = client.result(first.job_id)
    mid = time.perf_counter()
    again = client.submit(request, tenant=tenants[1])
    resubmitted = client.result(again.job_id)
    end = time.perf_counter()
    ok = (not first.coalesced and again.coalesced
          and again.job_id == first.job_id
          and pickle.dumps(result.report.results)
          == pickle.dumps(resubmitted.report.results))
    return mid - start, end - mid, ok


def run(seed: int, seconds: float, outcome: Outcome, scratch,
        cpus: list[int]) -> dict:
    inputs = setup(seed)
    began = time.perf_counter()
    server_cpu = cpus[-1] if len(cpus) > 1 else None
    boots, colds, digests, rss = [], [], [], []
    misses: list[float] = []
    coalesced: list[float] = []
    next_job = [0] * CLIENTS  # per client, across slices: distinct seeds
    lock = threading.Lock()
    phase_s = 0.0
    totals = {"coalesced": 0, "computations": 0}
    # The server does the work, so the host's speed is sampled on its
    # CPU whenever the server idles: before each boot, after the cold
    # request and after the load.
    speed = HostSpeed(server_cpu)

    def failed(what: str, exc: Exception) -> None:
        """A request the service failed or refused: a failed operation."""
        with lock:
            outcome.check(False, f"{what} raised {exc!r}")

    def client_loop(server, c: int, deadline: float) -> None:
        while time.perf_counter() < deadline:
            request = fig4_request(
                inputs["job_seed_base"] + CLIENTS * next_job[c] + c,
                scratch / "jobs")
            next_job[c] += 1
            try:
                miss, again, ok = job_pair(server.client, request,
                                           inputs["tenants"][c])
            except Exception as exc:
                # This client stops; the run reports what it measured.
                failed("fig4 pair", exc)
                return
            with lock:
                misses.append(miss)
                coalesced.append(again)
                outcome.check(ok, "fig4 pair: not coalesced or results "
                                  "differ between tenants")

    for i in range(SLICES):
        speed.sample(PROBES)
        server = Server(server_cpu, OUT / f"serve-{os.getpid()}-{i}.log")
        try:
            boots.append(server.boot_s)
            start = time.perf_counter()
            try:
                result = server.client.run(
                    all_request(inputs, scratch / f"cold{i}"))
            except Exception as exc:
                failed("cold all", exc)
            else:
                colds.append(time.perf_counter() - start)
                digests.append(render_digests(result.report.results))
                outcome.check(
                    len(result.names()) == 10 and digests[-1] == digests[0],
                    "cold all: missing artifacts or renders differ across "
                    "servers")
            speed.sample(PROBES)

            deadline = max(began + seconds * (i + 1) / SLICES,
                           time.perf_counter() + MIN_LOAD_S)
            pairs_before = len(misses)
            phase_start = time.perf_counter()
            threads = [threading.Thread(
                target=client_loop, args=(server, c, deadline))
                for c in range(CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            phase_s += time.perf_counter() - phase_start
            speed.sample(PROBES)

            try:
                stats = server.client.stats()
            except Exception as exc:
                failed("stats", exc)
            else:
                outcome.check(
                    stats["denied"] == 0 and stats["failed"] == 0
                    and stats["coalesced"] == len(misses) - pairs_before,
                    f"service accounting off: {stats}")
                totals["coalesced"] += stats["coalesced"]
                totals["computations"] += stats["computations"]
            rss.append(server.peak_rss_mb())
        finally:
            server.stop()

    jobs_per_s = (len(misses) + len(coalesced)) / phase_s
    outcome.check(len(misses) >= MIN_MISSES,
                  f"only {len(misses)} distinct jobs, too few for a p90")
    p90 = (statistics.quantiles(misses, n=10, method="inclusive")[8]
           if len(misses) > 1 else math.nan)
    return {
        "e2e": {
            "heavy_s": mean(colds),
            "light_s": median(misses),
            "variant_s": p90,
        },
        "named": {
            "artifacts_cold_s": (mean(colds), "s"),
            "job_rtt_p50_ms": (median(misses) * 1e3, "ms"),
            "job_rtt_p90_ms": (p90 * 1e3, "ms"),
            "job_rtt_samples": (len(misses), "count"),
            "coalesced_rtt_p50_ms": (median(coalesced) * 1e3, "ms"),
            "jobs_per_s": (jobs_per_s, "1/s"),
        },
        "samples": {"boot": boots, "cold_all": colds, "miss": misses,
                    "coalesced": coalesced},
        "setup_samples": boots,
        "speed": speed,
        "peak_rss_mb": max(rss),
        "counts": {"cold_all.digests": digests[0] if digests else None,
                   "fig4.pairs": len(misses), **totals},
    }
