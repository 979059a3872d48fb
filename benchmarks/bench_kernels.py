"""Microbenchmarks of the computational kernels behind the phases.

Not a paper artifact, but the measurements that anchor the calibration
constants: assembly throughput (elements/s), Krylov solve rates,
preconditioner setup, partitioner speed, and simmpi collective latency.
Run with pytest-benchmark (``pytest benchmarks/bench_kernels.py``); the
repository benchmark with gated metrics is ``perfbench/``.
"""

import numpy as np
import pytest

from repro.apps.reaction_diffusion import RDProblem, RDSolver
from repro.apps.navier_stokes import NSProblem, NSSolver
from repro.fem.assembly import assemble_mass, assemble_stiffness
from repro.fem.boundary import apply_dirichlet
from repro.fem.dofmap import DofMap
from repro.fem.mesh import StructuredBoxMesh
from repro.la.krylov import cg
from repro.la.preconditioners import ILU0Preconditioner
from repro.partition import partition_block, partition_graph, partition_rcb
from repro.simmpi import SUM, run_spmd


@pytest.fixture(scope="module")
def dm_q2():
    return DofMap(StructuredBoxMesh((8, 8, 8)), 2)


@pytest.fixture(scope="module")
def poisson_system():
    dm = DofMap(StructuredBoxMesh((10, 10, 10)), 1)
    k = assemble_stiffness(dm)
    f = np.ones(dm.num_dofs)
    return apply_dirichlet(k.tocsr(), f, dm.boundary_dofs, 0.0)


class TestAssemblyKernels:
    def test_q2_stiffness_assembly(self, benchmark, dm_q2):
        matrix = benchmark(assemble_stiffness, dm_q2)
        assert matrix.shape == (dm_q2.num_dofs, dm_q2.num_dofs)

    def test_q2_mass_assembly(self, benchmark, dm_q2):
        matrix = benchmark(assemble_mass, dm_q2)
        assert abs(np.ones(dm_q2.num_dofs) @ (matrix @ np.ones(dm_q2.num_dofs)) - 1.0) < 1e-10

    def test_q2_variable_coefficient_assembly(self, benchmark, dm_q2):
        matrix = benchmark(
            assemble_stiffness, dm_q2, lambda p: 1.0 + p[:, 0]
        )
        assert matrix.nnz > 0


class TestSolverKernels:
    def test_cg_poisson(self, benchmark, poisson_system):
        a, b = poisson_system
        result = benchmark(cg, a, b, None, None, 1e-10, 2000)
        assert result.converged

    def test_ilu0_setup(self, benchmark, poisson_system):
        a, _ = poisson_system
        pre = benchmark(ILU0Preconditioner, a)
        assert pre.setup_flops > 0

    def test_rd_time_step(self, benchmark):
        solver = RDSolver(
            RDProblem(mesh_shape=(6, 6, 6), num_steps=10**6),
            assembly_mode="full",
        )
        benchmark(solver.step)
        # The exact solution grows like t^2 as rounds accumulate, so
        # exactness is asserted relative to the solution magnitude.
        assert solver.nodal_error() < 1e-8 * max(solver.t**2, 1.0)

    def test_ns_time_step(self, benchmark):
        solver = NSSolver(NSProblem(mesh_shape=(6, 6, 6), dt=0.002, num_steps=1000))
        benchmark(solver.step)


class TestPartitionerKernels:
    MESH = StructuredBoxMesh((20, 20, 20))

    def test_block_partitioner(self, benchmark):
        assignment = benchmark(partition_block, self.MESH, 8)
        assert assignment.max() == 7

    def test_rcb_partitioner(self, benchmark):
        assignment = benchmark(partition_rcb, self.MESH, 8)
        assert assignment.max() == 7

    def test_graph_partitioner(self, benchmark):
        small = StructuredBoxMesh((8, 8, 8))
        assignment = benchmark(partition_graph, small, 8)
        assert assignment.max() == 7


class TestSimMPIKernels:
    def test_allreduce_8_ranks(self, benchmark):
        def run():
            return run_spmd(
                lambda comm: comm.allreduce(np.ones(1000), op=SUM), 8,
                real_timeout=30.0,
            )

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert np.allclose(result.returns[0], 8.0)

    def test_halo_exchange_round(self, benchmark):
        def main(comm):
            peer = comm.size - 1 - comm.rank
            for _ in range(10):
                comm.send(np.zeros(3528), dest=peer)  # one 21^2-dof face x 8B
                comm.recv(source=peer)
            return comm.time

        def run():
            return run_spmd(main, 4, real_timeout=30.0)

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert max(result.returns) > 0
