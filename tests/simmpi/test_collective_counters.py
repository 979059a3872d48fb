"""Tests for per-communicator collective counters and traced collectives."""

import numpy as np

from repro.simmpi import SUM, run_spmd


def run(fn, n, **kw):
    kw.setdefault("real_timeout", 25.0)
    return run_spmd(fn, n, **kw)


class TestCollectiveCounts:
    def test_counts_by_kind(self):
        def main(comm):
            comm.allreduce(1.0, op=SUM)
            comm.allreduce(np.ones(3), op=SUM)
            comm.bcast(42 if comm.rank == 0 else None, root=0)
            comm.barrier()
            return dict(comm.collective_counts)

        for counts in run(main, 3).returns:
            assert counts["allreduce"] == 2
            assert counts["bcast"] == 1
            assert counts["barrier"] == 1
            assert "reduce" not in counts

    def test_point_to_point_not_counted(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(4), dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)
            return dict(comm.collective_counts)

        for counts in run(main, 2).returns:
            assert counts == {}


class TestTracerCollectives:
    def test_collective_records_and_counts(self):
        def main(comm):
            comm.allreduce(comm.rank, op=SUM)
            comm.allreduce(comm.rank * 2.0, op=SUM)
            comm.bcast("x" if comm.rank == 0 else None, root=0)

        result = run(main, 4, trace=True)
        tracer = result.tracer
        assert tracer.collective_count("allreduce", rank=0) == 2
        assert tracer.collective_count("bcast", rank=0) == 1
        # Every rank participates in every collective.
        assert tracer.collective_count("allreduce") == 2 * 4
        by_label = tracer.collective_counts_by_label(rank=1)
        assert by_label == {"allreduce": 2, "bcast": 1}

    def test_collective_records_have_duration(self):
        def main(comm):
            comm.compute(0.5)
            comm.allreduce(np.ones(8), op=SUM)

        result = run(main, 2, trace=True)
        records = [r for r in result.tracer.records if r.kind == "collective"]
        assert records
        for record in records:
            assert record.label == "allreduce"
            assert record.t_end >= record.t_start >= 0.0


class TestDistributedRDCollectives:
    def test_rd_run_collective_budget(self):
        """A distributed RD run (6^3 mesh, p = 2, 8 BDF2 steps,
        block-Jacobi) under full observability makes exactly this many
        collectives per rank, of no other kind: an extra collective in
        the time loop changes the count.  Its nodal error stays within
        10x of the committed 5.92e-11."""
        from repro.apps.reaction_diffusion import RDProblem, run_rd_distributed
        from repro.obs import Observability, ObsConfig

        obs = Observability(ObsConfig(discard=5))
        problem = RDProblem(mesh_shape=(6, 6, 6), num_steps=8)

        def main(comm):
            return run_rd_distributed(
                comm, problem, preconditioner="block-jacobi", discard=5,
                obs=obs,
            )

        result = run(main, 2, observability=obs, real_timeout=120.0)
        obs.check_balanced()
        counts = obs.tracer.collective_counts_by_label(rank=0)
        assert counts == {"alltoall": 1, "allreduce": 159, "gather": 8,
                          "bcast": 8}
        nodal_error = result.returns[0][2]
        assert nodal_error <= 10 * 5.916978018660757e-11
