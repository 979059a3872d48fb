"""Workload ``spmd_scale``: small collectives at scale on the event engine.

Each cycle launches the 3-round ``allreduce(float)`` + ``barrier``
program (the skeleton of ``obs.benchmarks._sweep_step_program``) on
32-core 1 GbE nodes: plain at p=512 and p=2048, then once more at p=512
observed the way ``repro trace --causal`` observes a run (trace on, a
``CausalTracker(events_limit=8)``, ``run_health``, ``tracker.check()``).
Once per cycle a fresh interpreter sets the workload up (``setup_s``).
"""

from __future__ import annotations

import time

from benchlib import (HostSpeed, Outcome, mean, rng_for, run_rotation,
                      time_setup_subprocess)

STEPS = 3
CORES_PER_NODE = 32
SIZES = (512, 2048)
OBSERVED = 512


def noop(comm):
    return None


def step_program(comm, steps, base):
    """``steps`` rounds of allreduce + barrier; returns the running sum."""
    total = 0.0
    for k in range(steps):
        total += comm.allreduce(float(comm.rank + k + base))
        comm.barrier()
    return total


def expected_total(p: int, steps: int, base: int) -> float:
    """What every rank's ``step_program`` must return (exact in floats)."""
    return float(sum(p * (p - 1) // 2 + p * (k + base) for k in range(steps)))


def topology(p: int):
    from repro.network.model import GIGABIT_ETHERNET, NetworkModel
    from repro.network.topology import ClusterTopology

    return ClusterTopology(-(-p // CORES_PER_NODE), CORES_PER_NODE,
                           NetworkModel(GIGABIT_ETHERNET))


def setup(seed: int) -> dict:
    """Import the layers the workload drives and build its inputs."""
    from repro.obs.causal import CausalTracker  # noqa: F401
    from repro.obs.health import run_health  # noqa: F401
    from repro.simmpi.launcher import run_spmd  # noqa: F401

    return {
        "base": rng_for(seed, "spmd_scale").randrange(1, 1 << 20),
        "topologies": {p: topology(p) for p in SIZES},
    }


def launch(inputs: dict, p: int, **kwargs):
    from repro.simmpi.launcher import run_spmd

    return run_spmd(step_program, p, topology=inputs["topologies"][p],
                    kwargs={"steps": STEPS, "base": inputs["base"]},
                    real_timeout=600.0, **kwargs)


def observed_run(inputs: dict, p: int):
    """The observed run: returns (result, health report, causal report)."""
    from repro.obs.causal import CausalTracker
    from repro.obs.health import run_health

    tracker = CausalTracker(p, events_limit=8)
    result = launch(inputs, p, trace=True, causal=tracker)
    health = run_health(result.tracer, p)
    return result, health, tracker.check()


def run(seed: int, seconds: float, outcome: Outcome) -> dict:
    from repro.simmpi.launcher import run_spmd

    inputs = setup(seed)
    base = inputs["base"]
    # Warm-up, untimed: first-call imports, and the engine's pool of
    # parked rank threads grown to p=2048 so every timed launch finds it
    # in the same state.
    run_spmd(noop, max(SIZES), topology=inputs["topologies"][max(SIZES)])
    walls: dict[str, list[float]] = {"p512": [], "p2048": [], "observed": []}
    speed = HostSpeed()
    setups: list[float] = []
    reference: dict[str, tuple] = {}

    def set_up() -> None:
        setups.append(time_setup_subprocess("spmd_scale", seed))

    def plain(p: int) -> None:
        start = time.perf_counter()
        result = launch(inputs, p)
        walls[f"p{p}"].append(time.perf_counter() - start)
        want = expected_total(p, STEPS, base)
        fingerprint = (tuple(result.clocks), result.max_time,
                       sum(result.messages_sent), result.total_bytes)
        first = reference.setdefault(f"p{p}", fingerprint)
        outcome.check(all(r == want for r in result.returns)
                      and fingerprint == first,
                      f"p={p}: wrong sums or clocks differ across repeats")

    def observed() -> None:
        start = time.perf_counter()
        result, health, causal = observed_run(inputs, OBSERVED)
        walls["observed"].append(time.perf_counter() - start)
        outcome.check(
            tuple(result.clocks) == reference[f"p{OBSERVED}"][0] and causal.ok
            and health is not None,
            "observed p=512: clocks differ from the plain run or "
            "causal check failed")

    # The cheap p=512 launch twice per round: more samples, spread over
    # the run, give a steadier figure.  One set-up per round leaves time
    # for a third p=2048 launch in most runs.
    ops = run_rotation(seconds, [lambda: plain(2048), set_up,
                                 lambda: plain(512), observed,
                                 lambda: plain(512)], outcome, speed)
    counts = {
        f"{key}.{field}": value
        for key, (_, _, msgs, nbytes) in reference.items()
        for field, value in (("messages", msgs), ("bytes", nbytes))
    }
    return {
        "e2e": {
            "heavy_s": mean(walls["p2048"]),
            "light_s": mean(walls["p512"]),
            "variant_s": mean(walls["observed"]),
        },
        "named": {
            "spmd_wall_s.p512": (mean(walls["p512"]), "s"),
            "spmd_wall_s.p2048": (mean(walls["p2048"]), "s"),
            "spmd_observed_wall_s.p512": (mean(walls["observed"]), "s"),
        },
        "samples": walls,
        "setup_samples": setups,
        "speed": speed,
        "ops": ops,
        "counts": counts,
    }
