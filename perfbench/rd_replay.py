"""Workload ``rd_replay``: the paper's RD application, captured and replayed.

Each cycle runs ``run_rd_distributed`` at p=8 on mesh (6,6,12) (4225 Q2
DOFs) with block-Jacobi, 6 BDF2 steps and modeled compute, recording
its schedule; solves the same problem with the sequential ``RDSolver``;
replays the capture on its own topology at rate 1 (which must reproduce
the capture's clocks bit for bit) and on puma, ellipse, lagrange and
ec2.  Once per cycle a fresh interpreter sets the workload up
(``setup_s``).
"""

from __future__ import annotations

import time

from benchlib import (HostSpeed, Outcome, mean, rng_for, run_rotation,
                      time_setup_subprocess)

NUM_RANKS = 8
MESH = (6, 6, 12)
STEPS = 6
TOL = 1e-10
MAX_NODAL_ERROR = 1e-6
PLATFORMS = ("puma", "ellipse", "lagrange", "ec2")


def rank_main(comm, problem, charger):
    from repro.apps.reaction_diffusion import run_rd_distributed

    _, _, nodal_error = run_rd_distributed(
        comm, problem, preconditioner="block-jacobi", tol=TOL, discard=0,
        compute_charger=charger)
    return nodal_error


def setup(seed: int) -> dict:
    """Import the layers the workload drives and build its inputs.

    The seed orders the replay platforms; the RD problem itself is the
    fixed paper workload, so its counts repeat exactly across seeds.
    """
    from repro.apps.reaction_diffusion import RDProblem, RDSolver  # noqa: F401
    from repro.perfmodel.compute import rd_modeled_compute
    from repro.platforms.catalog import platform_by_name
    from repro.simmpi.launcher import default_topology
    from repro.simmpi.replay import replay_schedule  # noqa: F401

    problem = RDProblem(mesh_shape=MESH, num_steps=STEPS)
    order = list(PLATFORMS)
    rng_for(seed, "rd_replay").shuffle(order)
    targets = []
    for name in order:
        spec = platform_by_name(name)
        topo = (spec.topology(num_nodes=spec.nodes_for_ranks(NUM_RANKS))
                if spec.on_demand else spec.topology())
        targets.append((name, topo, spec.core_flops()))
    return {
        "problem": problem,
        "charger": rd_modeled_compute(problem, NUM_RANKS, rate=1.0),
        "capture_topology": default_topology(NUM_RANKS),
        "targets": targets,
    }


def capture(inputs: dict):
    from repro.simmpi.launcher import run_spmd

    return run_spmd(rank_main, NUM_RANKS, topology=inputs["capture_topology"],
                    args=(inputs["problem"], inputs["charger"]),
                    record_schedule=True, real_timeout=600.0)


def sequential(inputs: dict):
    from repro.apps.reaction_diffusion import RDSolver

    solver = RDSolver(inputs["problem"], preconditioner="jacobi", tol=TOL)
    solver.run()
    return solver


def run(seed: int, seconds: float, outcome: Outcome) -> dict:
    from repro.simmpi.replay import replay_schedule

    inputs = setup(seed)
    walls: dict[str, list[float]] = {"capture": [], "sequential": [],
                                     "replay": []}
    setups: list[float] = []
    reference: dict[str, object] = {}
    speed = HostSpeed()

    def set_up() -> None:
        setups.append(time_setup_subprocess("rd_replay", seed))

    def same_as_first(key: str, value) -> bool:
        return reference.setdefault(key, value) == value

    captured: list = []

    def do_capture() -> None:
        start = time.perf_counter()
        result = capture(inputs)
        walls["capture"].append(time.perf_counter() - start)
        recording = result.recording
        # Both references are taken before the checks, so the counts are
        # reported whatever the outcome.
        same_clocks = same_as_first("capture.clocks", tuple(result.clocks))
        same_ops = same_as_first(
            "recording.ops",
            None if recording is None else recording.op_counts())
        outcome.check(
            recording is not None and max(result.returns) <= MAX_NODAL_ERROR
            and same_clocks and same_ops,
            "capture: unrecorded, inaccurate, or not repeatable")
        if recording is not None:
            captured[:] = [result]

    def do_sequential() -> None:
        start = time.perf_counter()
        solver = sequential(inputs)
        walls["sequential"].append(time.perf_counter() - start)
        same_iterations = same_as_first("sequential.iterations",
                                        tuple(solver.solve_iterations))
        outcome.check(
            solver.nodal_error() <= MAX_NODAL_ERROR and same_iterations,
            "sequential solve: inaccurate or not repeatable")

    def do_replays() -> None:
        if not captured:
            outcome.check(False, "replay: no recorded capture to replay")
            return
        result = captured[0]
        recording = result.recording
        own = replay_schedule(recording, topology=inputs["capture_topology"],
                              compute_rate=1.0, real_timeout=600.0)
        outcome.check(own.clocks == result.clocks,
                      "self-replay does not reproduce the capture's clocks")

        for name, topo, rate in inputs["targets"]:
            start = time.perf_counter()
            ok, _reason = recording.compatible_with(topo)
            replayed = replay_schedule(recording, topology=topo,
                                       compute_rate=rate, real_timeout=600.0,
                                       check_compatibility=False)
            walls["replay"].append(time.perf_counter() - start)
            same = same_as_first(f"replay.{name}", tuple(replayed.clocks))
            outcome.check(ok and same,
                          f"replay on {name}: incompatible or not repeatable")

    # The host's speed shifts every few seconds, so each metric's samples
    # should come from many moments of the run.  A capture takes most of
    # a round, and a short round fits three of them into 30 seconds.
    ops = run_rotation(seconds, [do_capture, set_up, do_replays,
                                 do_sequential, do_replays], outcome, speed)
    counts = {
        "recording.ops": reference.get("recording.ops"),
        "sequential.iterations": list(
            reference.get("sequential.iterations", ())),
    }
    return {
        "e2e": {
            "heavy_s": mean(walls["capture"]),
            "light_s": mean(walls["sequential"]),
            "variant_s": mean(walls["replay"]),
        },
        "named": {
            "rd_solve_s": (mean(walls["capture"]), "s"),
            "rd_seq_solve_s": (mean(walls["sequential"]), "s"),
            "replay_platform_s": (mean(walls["replay"]), "s"),
        },
        "samples": walls,
        "setup_samples": setups,
        "speed": speed,
        "ops": ops,
        "counts": counts,
    }
