"""p = 1000 weak-scaling smoke: the paper's top rank count, in seconds.

The event engine's reason to exist is the Fig. 4-7 axis: p = 1, 8, 27,
... 1000 executed, not modeled.  This smoke test runs a tiny per-rank
workload (the communication skeleton of one sweep step) at the full
p = 1000 on one scheduler and asserts a wall-clock budget, so the fast
CI tier catches any regression that would push the big sweeps back into
impractical territory.  A p = 512 collective micro-run checks that the
1 GbE model saturates well above InfiniBand.
"""

import time

import numpy as np

from repro.network.model import GIGABIT_ETHERNET, INFINIBAND_4X_DDR, NetworkModel
from repro.network.topology import ClusterTopology
from repro.simmpi import run_spmd

#: Generous even for a loaded single-core CI runner; a healthy run is
#: well under a tenth of this.
WALL_BUDGET_SECONDS = 60.0


def test_p1000_sweep_step_within_budget():
    p = 1000
    topology = ClusterTopology(32, 32, NetworkModel(GIGABIT_ETHERNET))

    def main(comm):
        comm.compute(1e-6, label="tiny-mesh-step")
        total = comm.allreduce(1)
        comm.barrier()
        return total

    start = time.perf_counter()
    result = run_spmd(
        main, p, topology=topology, engine="events", real_timeout=300.0
    )
    wall = time.perf_counter() - start

    assert result.returns == [p] * p
    assert result.num_ranks == p
    assert max(result.clocks) > 0.0
    assert wall < WALL_BUDGET_SECONDS, (
        f"p={p} sweep step took {wall:.1f}s (budget {WALL_BUDGET_SECONDS}s)"
    )


def test_1gbe_saturates_well_above_infiniband_at_p512():
    """A 128 KiB allreduce + barrier at p = 512 on 32-core nodes: the
    1 GbE model's virtual makespan is at least 2x InfiniBand 4X DDR's.
    The algorithm is pinned, so the contrast is the interconnect model
    alone."""
    p, doubles = 512, 16384

    def main(comm):
        comm.allreduce(np.full(doubles, float(comm.rank + 1)),
                       algorithm="recursive_doubling")
        comm.barrier()

    def makespan(link):
        topology = ClusterTopology(p // 32, 32, NetworkModel(link))
        return run_spmd(
            main, p, topology=topology, engine="events", real_timeout=300.0
        ).max_time

    assert makespan(GIGABIT_ETHERNET) >= 2.0 * makespan(INFINIBAND_4X_DDR)
