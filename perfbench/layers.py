"""The traced run: one timed call, or a short series, into each layer's
public functions, each inside a span opened by this file.

Every ``--trace 1`` run executes the whole suite, whatever the
workload, because every run reports every per-layer metric.  ``MOVES``
records which end-to-end metric (by its name in the workload's summary
line) each per-layer metric should move.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

import artifacts_service
import rd_replay
import spmd_scale
from benchlib import OUT, ROOT, SpanTracer, child_env, median, rng_for

ARTIFACTS = ("table1", "porting", "fig4", "fig5", "table2", "fig6", "fig7",
             "resilience", "elasticity", "simsweep")

MOVES = {
    "simmpi.launch_us_per_rank.p2048": "spmd_wall_s.p2048 on spmd_scale",
    "simmpi.first_step_s.p2048": "spmd_wall_s.p2048 on spmd_scale",
    "simmpi.step_s.p512": "spmd_wall_s.p512 on spmd_scale",
    "simmpi.step_s.p2048": "spmd_wall_s.p2048 on spmd_scale",
    "simmpi.us_per_msg.p2048": "spmd_wall_s.* on spmd_scale; "
                               "rd_solve_s on rd_replay",
    "simmpi.scaling_exponent": "spmd_wall_s.p2048 on spmd_scale",
    "simmpi.pingpong_us": "rd_solve_s on rd_replay; "
                          "spmd_wall_s.* on spmd_scale",
    "simmpi.unpinned_step_s.p512": "spmd_wall_s.p512 as users run it, "
                                   "unpinned (the gated runs are pinned)",
    "simmpi.msgs_per_step.p2048": "count: spmd_wall_s.* on spmd_scale",
    "simmpi.bytes_per_step.p2048": "count: spmd_wall_s.* on spmd_scale",
    "obs.trace_us_per_msg": "spmd_observed_wall_s.p512 on spmd_scale",
    "obs.causal_us_per_msg": "spmd_observed_wall_s.p512 on spmd_scale",
    "obs.health_s": "spmd_observed_wall_s.p512 on spmd_scale",
    "obs.causal_check_s": "spmd_observed_wall_s.p512 on spmd_scale",
    "fem.assembly_us_per_dof": "rd_solve_s, rd_seq_solve_s on rd_replay",
    "fem.step_assembly_us_per_dof": "rd_seq_solve_s on rd_replay",
    "la.dist_matrix_setup_s": "rd_solve_s on rd_replay",
    "la.precond_setup_us_per_dof": "rd_solve_s on rd_replay",
    "la.precond_update_us_per_dof": "rd_solve_s on rd_replay",
    "la.solve_us_per_dof_iter": "rd_solve_s on rd_replay",
    "la.cg_iterations": "count: rd_solve_s on rd_replay",
    "la.allreduce_rounds": "count: rd_solve_s on rd_replay",
    "simmpi.replay_us_per_op": "replay_platform_s on rd_replay",
    "simmpi.replay_compat_ms": "replay_platform_s on rd_replay",
    "simmpi.recording_ops": "count: replay_platform_s on rd_replay",
    "simmpi.recording_encode_ms": "artifacts_cold_s on artifacts_service",
    "simmpi.recording_decode_ms": "artifacts_cold_s on artifacts_service",
    "perfmodel.predict_us": "job_rtt_p50_ms, artifacts_cold_s "
                            "on artifacts_service",
    "simmpi.selector_allreduce_us": "job_rtt_p50_ms, artifacts_cold_s "
                                    "on artifacts_service",
    **{f"broker.artifact_s.{a}": "artifacts_cold_s on artifacts_service"
       for a in ARTIFACTS},
    "broker.cache_put_ms": "jobs_per_s, coalesced_rtt_p50_ms "
                           "on artifacts_service",
    "broker.cache_get_ms": "jobs_per_s, coalesced_rtt_p50_ms "
                           "on artifacts_service",
    "broker.cache_hit_rate": "artifacts_cold_s (warm rerun) "
                             "on artifacts_service",
    "broker.cache_hits": "count: artifacts_cold_s, jobs_per_s "
                          "on artifacts_service",
    "broker.cache_misses": "count: artifacts_cold_s, jobs_per_s "
                           "on artifacts_service",
    "io.checkpoint_save_ms": "artifacts_cold_s on artifacts_service",
    "io.checkpoint_load_ms": "artifacts_cold_s on artifacts_service",
    "resilience.restarts": "count: artifacts_cold_s on artifacts_service",
    "service.submit_ms": "job_rtt_*, coalesced_rtt_p50_ms "
                         "on artifacts_service",
    "service.result_ms": "coalesced_rtt_p50_ms on artifacts_service",
    "service.queue_wait_ms": "job_rtt_p90_ms on artifacts_service",
    "service.coalesced_frac": "jobs_per_s on artifacts_service; "
                              "must be 1.0",
    "service.denied": "error rate on artifacts_service; must be 0",
}
SELF_LAYERS = ("simmpi", "obs", "fem", "la", "apps", "perfmodel", "broker",
               "io", "service")

PROBE_STEPS = 5
SCALING_SIZES = (512, 1024, 2048)
UNPINNED_RANKS = 512
UNPINNED_LAUNCHES = 2
OBS_REPEATS = 3
PINGPONG_ROUNDS = 2000
SERVICE_JOBS = 20


# -- simmpi: launch, steps, messages ------------------------------------------

def stamped_program(comm, steps, stamps):
    """The spmd_scale step; rank 0 stamps entry and every barrier exit."""
    if comm.rank == 0:
        stamps.append(time.perf_counter())
    for k in range(steps):
        comm.allreduce(float(comm.rank + k))
        comm.barrier()
        if comm.rank == 0:
            stamps.append(time.perf_counter())


def stamped_launch(p: int):
    """Launch the stamped program at ``p`` ranks: (result, step gaps)."""
    from repro.simmpi.launcher import run_spmd

    stamps: list[float] = []
    result = run_spmd(stamped_program, p, topology=spmd_scale.topology(p),
                      kwargs={"steps": PROBE_STEPS, "stamps": stamps},
                      real_timeout=600.0)
    return result, np.diff(stamps)


def unpinned_steps() -> None:
    """Print the steady steps of ``UNPINNED_LAUNCHES`` launches at
    ``UNPINNED_RANKS``, after one untimed launch that grows the engine's
    thread pool.  Runs in the unpinned interpreter of ``probe_unpinned``.
    """
    stamped_launch(UNPINNED_RANKS)
    for _ in range(UNPINNED_LAUNCHES):
        for gap in stamped_launch(UNPINNED_RANKS)[1][1:]:
            print(gap)


def probe_unpinned(cpus) -> float:
    """Median steady step at p=512 in a fresh interpreter free to use
    every CPU in ``cpus``.

    The benchmark process is pinned to one CPU for steady figures.  That
    hides what the event engine's cross-CPU thread hand-offs cost a user
    who runs the program unpinned; this probe keeps the cost measured.
    The child widens its placement before numpy starts any thread.
    """
    code = (f"import os, sys; os.sched_setaffinity(0, {set(cpus)!r}); "
            f"sys.path.insert(0, {str(ROOT / 'perfbench')!r}); "
            f"import layers; layers.unpinned_steps()")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"unpinned probe failed: {proc.stderr[-2000:]}")
    return median([float(line) for line in proc.stdout.split()])


def pingpong(comm, rounds):
    for i in range(rounds):
        if comm.rank == 0:
            comm.send(i, 1)
            comm.recv(1)
        else:
            comm.send(comm.recv(0), 0)


def probe_simmpi(tr: SpanTracer, m: dict, counts: dict, cpus) -> None:
    from repro.simmpi.launcher import run_spmd

    topo = spmd_scale.topology(2048)
    _, wall = tr.timed("run_spmd noop p=2048", "simmpi", run_spmd,
                       spmd_scale.noop, 2048, topology=topo,
                       real_timeout=600.0)
    m["simmpi.launch_us_per_rank.p2048"] = wall / 2048 * 1e6

    steps = {}
    for p in SCALING_SIZES:
        (result, gaps), _ = tr.timed(f"run_spmd step p={p}", "simmpi",
                                     stamped_launch, p)
        steps[p] = median(gaps[1:])
        if p != 1024:
            m[f"simmpi.step_s.p{p}"] = steps[p]
        if p == 2048:
            m["simmpi.first_step_s.p2048"] = float(gaps[0])
            msgs = sum(result.messages_sent) / PROBE_STEPS
            m["simmpi.msgs_per_step.p2048"] = msgs
            m["simmpi.bytes_per_step.p2048"] = result.total_bytes / PROBE_STEPS
            m["simmpi.us_per_msg.p2048"] = steps[p] / msgs * 1e6
            counts["simmpi.msgs_per_step.p2048"] = msgs
            counts["simmpi.bytes_per_step.p2048"] = (
                result.total_bytes / PROBE_STEPS)
            counts["simmpi.algorithms.p2048"] = dict(result.algorithm_counts)
    logs = [(math.log(p), math.log(steps[p])) for p in SCALING_SIZES]
    m["simmpi.scaling_exponent"] = statistics.linear_regression(
        [x for x, _ in logs], [y for _, y in logs]).slope

    _, wall = tr.timed("run_spmd pingpong", "simmpi", run_spmd, pingpong, 2,
                       kwargs={"rounds": PINGPONG_ROUNDS})
    m["simmpi.pingpong_us"] = wall / (2 * PINGPONG_ROUNDS) * 1e6
    m["simmpi.unpinned_step_s.p512"] = probe_unpinned(cpus)


# -- obs: marginal probe costs ------------------------------------------------

def probe_obs(tr: SpanTracer, m: dict, outcome) -> None:
    from repro.obs.causal import CausalTracker
    from repro.obs.health import run_health

    inputs = spmd_scale.setup(0)
    p = spmd_scale.OBSERVED
    walls = {"plain": [], "traced": [], "causal": []}
    health, check = [], []
    msgs = 0
    for _ in range(OBS_REPEATS):
        result, wall = tr.timed("run_spmd p=512", "simmpi",
                                spmd_scale.launch, inputs, p)
        walls["plain"].append(wall)
        msgs = sum(result.messages_sent)
        _, wall = tr.timed("run_spmd p=512 trace", "obs",
                           spmd_scale.launch, inputs, p, trace=True)
        walls["traced"].append(wall)
        tracker = CausalTracker(p, events_limit=8)
        result, wall = tr.timed("run_spmd p=512 causal", "obs",
                                spmd_scale.launch, inputs, p, trace=True,
                                causal=tracker)
        walls["causal"].append(wall)
        health.append(tr.timed("run_health", "obs", run_health,
                               result.tracer, p)[1])
        report, wall = tr.timed("CausalTracker.check", "obs", tracker.check)
        check.append(wall)
        outcome.check(report.ok, "traced run: causal check failed")
    plain, traced, causal = (median(walls[k]) for k in walls)
    m["obs.trace_us_per_msg"] = (traced - plain) / msgs * 1e6
    m["obs.causal_us_per_msg"] = (causal - traced) / msgs * 1e6
    m["obs.health_s"] = median(health)
    m["obs.causal_check_s"] = median(check)


# -- fem, la, io --------------------------------------------------------------

def la_program(comm, matrices, rhs, x_ref, ownership, tr, out):
    """Time the distributed LA calls of one RD step on rank 0's view."""
    from repro.la.distributed import (DistBlockJacobiPreconditioner,
                                      DistMatrix, dist_cg_fused)

    # Rank 0's spans go into the run's record; the other ranks time the
    # same calls into a tracer that is thrown away.
    tracer = tr if comm.rank == 0 else SpanTracer()
    dist, t_setup = tracer.timed("DistMatrix.from_global", "la",
                                 DistMatrix.from_global, comm, matrices[0],
                                 ownership=ownership)
    precond, t_pc = tracer.timed("DistBlockJacobiPreconditioner", "la",
                                 DistBlockJacobiPreconditioner, dist)
    dist.update_values(matrices[1])
    _, t_update = tracer.timed("DistBlockJacobiPreconditioner.update", "la",
                               precond.update, dist)
    before = comm.collective_counts.get("allreduce", 0)
    result, t_solve = tracer.timed("dist_cg_fused", "la", dist_cg_fused,
                                   dist, dist.vector_from_global(rhs),
                                   preconditioner=precond, tol=rd_replay.TOL,
                                   maxiter=5000)
    rounds = comm.collective_counts.get("allreduce", 0) - before
    out[comm.rank] = {"setup": t_setup, "precond": t_pc, "update": t_update,
                      "solve": t_solve, "iterations": result.iterations,
                      "rounds": rounds, "error": float(np.max(np.abs(
                          result.x - x_ref[ownership[comm.rank]])))}


def probe_fem_la_io(tr: SpanTracer, m: dict, counts: dict, scratch,
                    outcome) -> None:
    from repro.apps.exact import RDManufacturedSolution
    from repro.apps.reaction_diffusion import RDSolver, slab_ownership
    from repro.fem.assembly import assemble_mass, assemble_stiffness
    from repro.fem.dofmap import DofMap
    from repro.io.checkpoint import load_rd_state, save_rd_state
    from repro.simmpi.launcher import default_topology, run_spmd

    inputs = rd_replay.setup(0)
    problem = inputs["problem"]
    dofmap = DofMap(problem.mesh(), problem.order)
    ndofs = dofmap.num_dofs
    walls = []
    for _ in range(3):
        with tr.span("assemble_mass+assemble_stiffness", "fem") as s:
            mass = assemble_mass(dofmap)
            stiffness = assemble_stiffness(dofmap)
        walls.append(s["end"] - s["start"])
    m["fem.assembly_us_per_dof"] = median(walls) / ndofs * 1e6

    solver = RDSolver(problem, preconditioner="jacobi", tol=rd_replay.TOL,
                      discard=1)
    tr.timed("RDSolver.run", "fem", solver.run)
    m["fem.step_assembly_us_per_dof"] = (
        solver.log.averages().assembly / ndofs * 1e6)

    path = scratch / "rd.ckpt"
    saves, loads = [], []
    for _ in range(5):
        saves.append(tr.timed("save_rd_state", "io", save_rd_state,
                              path, solver)[1])
        loads.append(tr.timed("load_rd_state", "io", load_rd_state,
                              path, solver)[1])
    m["io.checkpoint_save_ms"] = median(saves) * 1e3
    m["io.checkpoint_load_ms"] = median(loads) * 1e3

    # One RD step's operator at two consecutive times (same pattern),
    # with a right-hand side whose solution is the exact field.
    exact = RDManufacturedSolution()
    t = problem.t0 + problem.dt
    matrices = [((1.5 / problem.dt - 2.0 / tt) * mass
                 + (1.0 / tt**2) * stiffness).tocsr()
                for tt in (t, t + problem.dt)]
    x_ref = exact(dofmap.dof_coords, t + problem.dt)
    rhs = matrices[1] @ x_ref
    out: dict = {}
    tr.timed("run_spmd la p=8", "simmpi", run_spmd, la_program,
             rd_replay.NUM_RANKS, topology=default_topology(rd_replay.NUM_RANKS),
             args=(matrices, rhs, x_ref,
                   slab_ownership(dofmap, rd_replay.NUM_RANKS), tr, out),
             real_timeout=600.0)
    ranks = [out[r] for r in sorted(out)]
    outcome.check(max(r["error"] for r in ranks) <= rd_replay.MAX_NODAL_ERROR,
                  "dist_cg_fused: solution off the exact field")
    head = ranks[0]
    m["la.dist_matrix_setup_s"] = head["setup"]
    m["la.precond_setup_us_per_dof"] = (
        sum(r["precond"] for r in ranks) / ndofs * 1e6)
    m["la.precond_update_us_per_dof"] = (
        sum(r["update"] for r in ranks) / ndofs * 1e6)
    m["la.solve_us_per_dof_iter"] = (
        head["solve"] / (ndofs * head["iterations"]) * 1e6)
    m["la.cg_iterations"] = head["iterations"]
    m["la.allreduce_rounds"] = head["rounds"]
    counts["la.cg_iterations"] = head["iterations"]
    counts["la.allreduce_rounds"] = head["rounds"]


# -- replay -------------------------------------------------------------------

def probe_replay(tr: SpanTracer, m: dict, counts: dict, outcome) -> None:
    from repro.simmpi.recording import ScheduleRecording
    from repro.simmpi.replay import replay_schedule

    inputs = rd_replay.setup(0)
    result, _ = tr.timed("run_rd_distributed capture", "apps",
                         rd_replay.capture, inputs)
    recording = result.recording
    ops = sum(recording.op_counts().values())
    per_op, compat = [], []
    for name, topo, rate in inputs["targets"]:
        (ok, _), wall = tr.timed(f"compatible_with {name}", "simmpi",
                                 recording.compatible_with, topo)
        compat.append(wall)
        _, wall = tr.timed(f"replay_schedule {name}", "simmpi",
                           replay_schedule, recording, topology=topo,
                           compute_rate=rate, check_compatibility=False,
                           real_timeout=600.0)
        per_op.append(wall / ops)
        outcome.check(ok, f"capture does not replay on {name}")
    encode, decode = [], []
    for _ in range(5):
        blob, wall = tr.timed("ScheduleRecording.to_bytes", "simmpi",
                              recording.to_bytes)
        encode.append(wall)
        decode.append(tr.timed("ScheduleRecording.from_bytes", "simmpi",
                               ScheduleRecording.from_bytes, blob)[1])
    m["simmpi.replay_us_per_op"] = median(per_op) * 1e6
    m["simmpi.replay_compat_ms"] = median(compat) * 1e3
    m["simmpi.recording_ops"] = ops
    m["simmpi.recording_encode_ms"] = median(encode) * 1e3
    m["simmpi.recording_decode_ms"] = median(decode) * 1e3
    counts["recording.ops"] = recording.op_counts()


# -- perfmodel, selector, broker ----------------------------------------------

def probe_models(tr: SpanTracer, m: dict, counts: dict) -> None:
    from repro.apps.workload import RD_WORKLOAD, paper_rank_series
    from repro.perfmodel.phases import PhaseModel
    from repro.platforms.catalog import puma
    from repro.simmpi.selector import CollectiveSelector

    series = paper_rank_series(1000)
    model = PhaseModel(RD_WORKLOAD, puma)
    walls = []
    for _ in range(20):
        walls.append(tr.timed("PhaseModel.predict series", "perfmodel",
                              model.predict_series, series)[1] / len(series))
    m["perfmodel.predict_us"] = median(walls) * 1e6

    topo = spmd_scale.topology(2048)
    sizes = [8 << k for k in range(10)]
    walls, choices = [], {}
    for _ in range(20):
        selector = CollectiveSelector(topo, 2048)
        with tr.span("CollectiveSelector.select_allreduce", "simmpi") as s:
            for nbytes in sizes:
                choices[nbytes] = selector.select_allreduce(nbytes).algorithm
        walls.append((s["end"] - s["start"]) / len(sizes))
    m["simmpi.selector_allreduce_us"] = median(walls) * 1e6
    counts["selector.allreduce.p2048"] = {str(k): v for k, v in choices.items()}


def probe_broker(tr: SpanTracer, m: dict, counts: dict, scratch,
                 seed: int) -> dict:
    """Cold per-artifact sweeps, a warm rerun, and the sweep cache.
    Returns each artifact's render digest for the service comparison."""
    from repro.broker.cache import SweepCache
    from repro.broker.engine import run_sweep
    from repro.harness.config import RunConfig

    config = RunConfig(seed=artifacts_service.setup(seed)["all_seed"],
                       cache_dir=str(scratch / "sweep-cache"))
    renders, hits, misses = {}, 0, 0
    resilience = None
    for name in ARTIFACTS:
        report, wall = tr.timed(f"run_sweep {name}", "broker", run_sweep,
                                [name], config=config)
        m[f"broker.artifact_s.{name}"] = wall
        renders.update(artifacts_service.render_digests(report.results))
        hits += report.stats.hits
        misses += report.stats.misses
        if name == "resilience":
            resilience = report.results[name]
    warm, _ = tr.timed("run_sweep all (warm)", "broker", run_sweep, ["all"],
                       config=config)
    m["broker.cache_hit_rate"] = warm.stats.hit_rate
    m["broker.cache_hits"] = hits + warm.stats.hits
    m["broker.cache_misses"] = misses + warm.stats.misses
    m["resilience.restarts"] = resilience.restarts
    counts.update({"broker.cache_hits": m["broker.cache_hits"],
                   "broker.cache_misses": m["broker.cache_misses"],
                   "resilience.restarts": resilience.restarts})

    cache = SweepCache(scratch / "probe-cache")
    value = warm.results["fig4"]
    rng = rng_for(seed, "cache-keys")
    keys = [f"{rng.getrandbits(128):032x}" for _ in range(30)]
    puts = [tr.timed("SweepCache.put", "broker", cache.put, k, value)[1]
            for k in keys]
    gets = [tr.timed("SweepCache.get", "broker", cache.get, k)[1]
            for k in keys]
    m["broker.cache_put_ms"] = median(puts) * 1e3
    m["broker.cache_get_ms"] = median(gets) * 1e3
    return renders


# -- service ------------------------------------------------------------------

def probe_service(tr: SpanTracer, m: dict, counts: dict, scratch, seed: int,
                  cpus, renders: dict, outcome) -> None:
    inputs = artifacts_service.setup(seed)
    server = artifacts_service.Server(cpus[-1] if len(cpus) > 1 else None,
                                      OUT / "serve-trace.log")
    try:
        client = server.client
        result, _ = tr.timed("ServiceClient.run all", "service", client.run,
                             artifacts_service.all_request(
                                 inputs, scratch / "service-cold"))
        outcome.check(
            artifacts_service.render_digests(result.report.results) == renders,
            "artifacts rendered over HTTP differ from the in-process run")
        submits, results, waits, coalesced = [], [], [], 0
        tenants = inputs["tenants"][0]
        for i in range(SERVICE_JOBS):
            request = artifacts_service.fig4_request(
                inputs["job_seed_base"] + i, scratch / "service-jobs")
            receipt, wall = tr.timed("ServiceClient.submit", "service",
                                     client.submit, request,
                                     tenant=tenants[0])
            submits.append(wall)
            client.result(receipt.job_id)
            results.append(tr.timed("ServiceClient.result", "service",
                                    client.result, receipt.job_id)[1])
            stamps = dict(client.status(receipt.job_id).transitions)
            waits.append(stamps["running"] - stamps["admitted"])
            again = client.submit(request, tenant=tenants[1])
            coalesced += int(again.coalesced)
        stats = client.stats()
    finally:
        server.stop()
    m["service.submit_ms"] = median(submits) * 1e3
    m["service.result_ms"] = median(results) * 1e3
    m["service.queue_wait_ms"] = median(waits) * 1e3
    m["service.coalesced_frac"] = coalesced / SERVICE_JOBS
    m["service.denied"] = stats["denied"]
    counts["service.coalesced"] = coalesced
    outcome.check(coalesced == SERVICE_JOBS and stats["denied"] == 0,
                  "service: a resubmission did not coalesce or was denied")


def run(seed: int, scratch, cpus, outcome) -> dict:
    tr = SpanTracer()
    m: dict = {}
    counts: dict = {}
    probe_simmpi(tr, m, counts, cpus)
    probe_obs(tr, m, outcome)
    probe_fem_la_io(tr, m, counts, scratch, outcome)
    probe_replay(tr, m, counts, outcome)
    probe_models(tr, m, counts)
    renders = probe_broker(tr, m, counts, scratch, seed)
    probe_service(tr, m, counts, scratch, seed, cpus, renders, outcome)

    own = tr.self_seconds()
    for layer in SELF_LAYERS:
        m[f"self_s.{layer}"] = own.get(layer, 0.0)
    cost = tr.span_cost_us()
    m["trace.spans"] = len(tr.spans)
    m["trace.overhead_ms"] = len(tr.spans) * cost / 1e3
    return {"per_layer": m, "counts": counts, "tracer": tr,
            "span_cost_us": cost}
