"""Property tests for the adaptive collective layer.

Every allreduce/bcast variant must deliver correct, cross-rank
bit-identical results on arbitrary communicator sizes — including
single-rank and non-power-of-two — and the hierarchical variants must
equal the flat ones bit-for-bit.  Payloads are small integers, so every
reduction order produces the exact same floats and "equal to the exact
expected sum" *is* the bit-for-bit statement.

The executed-traffic tests tie the simulator to the analytic layer:
per-rank messages and bytes of a run must equal what
:func:`repro.simmpi.collectives.allreduce_shape` predicts, which is the
contract :mod:`repro.perfmodel.phases` relies on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.model import GIGABIT_ETHERNET, NetworkModel
from repro.network.topology import ClusterTopology
from repro.platforms import platform_by_name
from repro.simmpi import MAX, SUM, CollectiveSelector, run_spmd
from repro.simmpi import collectives as coll

ALLREDUCE_ALGORITHMS = coll.ALLREDUCE_ALGORITHMS + ("auto",)
BCAST_ALGORITHMS = coll.BCAST_ALGORITHMS + ("auto",)

sizes = st.integers(min_value=1, max_value=9)
bases = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=24)

spmd_settings = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(fn, n, **kw):
    kw.setdefault("real_timeout", 25.0)
    return run_spmd(fn, n, **kw)


def one_rank_per_node(n):
    return ClusterTopology(n, 1, NetworkModel(GIGABIT_ETHERNET))


class TestAllreduceVariants:
    @pytest.mark.parametrize("algorithm", ALLREDUCE_ALGORITHMS)
    @given(size=sizes, base=bases)
    @spmd_settings
    def test_exact_sum_on_any_size(self, algorithm, size, base):
        """Correct and bit-identical to the exact sum on every size —
        non-power-of-two and single-rank included — for flat and
        hierarchical variants alike."""
        base_arr = np.asarray(base, dtype=float)

        def main(comm):
            return comm.allreduce(base_arr * (comm.rank + 1), op=SUM,
                                  algorithm=algorithm)

        expected = base_arr * (size * (size + 1) / 2.0)
        for result in run(main, size).returns:
            assert np.array_equal(result, expected)

    @pytest.mark.parametrize("algorithm", ALLREDUCE_ALGORITHMS)
    @given(size=sizes, base=bases)
    @spmd_settings
    def test_exact_max(self, algorithm, size, base):
        base_arr = np.asarray(base, dtype=float)

        def main(comm):
            return comm.allreduce(base_arr + comm.rank, op=MAX,
                                  algorithm=algorithm)

        expected = base_arr + (size - 1)
        for result in run(main, size).returns:
            assert np.array_equal(result, expected)

    @given(size=sizes)
    @spmd_settings
    def test_scalar_auto_matches_recursive_doubling(self, size):
        """Scalar payloads are not segmentable: on thin nodes (no
        hierarchy to exploit) auto must degrade to recursive doubling
        and still be exact."""

        def main(comm):
            value = comm.allreduce(float(comm.rank + 1), op=SUM)
            return value, dict(comm.algorithm_counts)

        result = run(main, size, topology=one_rank_per_node(size))
        for value, counts in result.returns:
            assert value == size * (size + 1) / 2.0
            assert counts == {"allreduce.recursive_doubling": 1}

    def test_shape_and_dtype_preserved(self):
        def main(comm):
            return comm.allreduce(
                np.ones((3, 4), dtype=np.float32), op=SUM, algorithm="ring"
            )

        for result in run(main, 6).returns:
            assert result.shape == (3, 4)
            assert result.dtype == np.float32
            assert np.all(result == 6.0)


class TestBcastVariants:
    @pytest.mark.parametrize("algorithm", BCAST_ALGORITHMS)
    @given(size=sizes, base=bases, root_seed=st.integers(min_value=0, max_value=63))
    @spmd_settings
    def test_exact_delivery_from_any_root(self, algorithm, size, base, root_seed):
        root = root_seed % size
        payload = np.asarray(base, dtype=float)

        def main(comm):
            mine = payload.copy() if comm.rank == root else None
            return comm.bcast(mine, root=root, algorithm=algorithm,
                              nbytes=payload.nbytes)

        for result in run(main, size).returns:
            assert np.array_equal(result, payload)

    def test_scatter_allgather_preserves_shape_and_dtype(self):
        payload = np.arange(30, dtype=np.float32).reshape(5, 6)

        def main(comm):
            mine = payload if comm.rank == 2 else None
            return comm.bcast(mine, root=2, algorithm="scatter_allgather")

        for result in run(main, 7).returns:
            assert result.shape == (5, 6)
            assert result.dtype == np.float32
            assert np.array_equal(result, payload)

    def test_auto_without_size_hint_is_binomial(self):
        def main(comm):
            comm.bcast({"cfg": 1}, algorithm="auto")
            return dict(comm.algorithm_counts)

        for counts in run(main, 5).returns:
            assert counts == {"bcast.binomial": 1}


class TestExecutionMatchesShapes:
    """Executed per-rank messages and bytes equal the analytic
    ScheduleShape — the contract the performance model builds on."""

    @pytest.mark.parametrize("algorithm", coll.FLAT_ALLREDUCE_ALGORITHMS)
    @given(size=st.sampled_from([2, 4, 8]), blocks=st.integers(1, 6))
    @spmd_settings
    def test_flat_allreduce_traffic(self, algorithm, size, blocks):
        n_doubles = size * blocks  # divisible => equal segment splits
        shape = coll.allreduce_shape(
            algorithm, size, n_doubles * 8, ranks_per_node=1
        )

        def main(comm):
            m0, b0, o0 = comm.messages_sent, comm.bytes_sent, comm.offnode_bytes_sent
            comm.allreduce(np.ones(n_doubles), op=SUM, algorithm=algorithm)
            return (
                comm.messages_sent - m0,
                comm.bytes_sent - b0,
                comm.offnode_bytes_sent - o0,
            )

        result = run(main, size, topology=one_rank_per_node(size))
        for messages, nbytes, offnode in result.returns:
            assert messages == shape.round_count
            assert nbytes == int(shape.bytes_per_rank)
            assert offnode == int(shape.internode_bytes)

    @given(blocks=st.integers(1, 6))
    @spmd_settings
    def test_hierarchical_leader_offnode_traffic(self, blocks):
        """On fat nodes only the leaders touch the NIC, moving exactly
        the inter-node bytes of the hierarchical schedule."""
        nodes, cores = 2, 4
        size = nodes * cores
        n_doubles = size * blocks
        shape = coll.allreduce_shape(
            "hier_rabenseifner", size, n_doubles * 8, ranks_per_node=cores
        )
        inter_bytes = int(shape.internode_bytes)

        def main(comm):
            o0 = comm.offnode_bytes_sent
            comm.allreduce(
                np.ones(n_doubles), op=SUM, algorithm="hier_rabenseifner"
            )
            return comm.offnode_bytes_sent - o0

        topology = ClusterTopology(nodes, cores, NetworkModel(GIGABIT_ETHERNET))
        offnode = run(main, size, topology=topology).returns
        leaders = {0, cores}
        for rank, nbytes in enumerate(offnode):
            assert nbytes == (inter_bytes if rank in leaders else 0)


class TestSelectorDecisions:
    """The acceptance table: on modeled 1 GbE the selector runs the
    latency-optimal tree for small messages and a segmented
    (reduce-scatter based) schedule for large ones."""

    def test_small_messages_use_recursive_doubling(self):
        selector = CollectiveSelector(one_rank_per_node(16), 16)
        for nbytes in (8, 24, 1024):
            assert selector.select_allreduce(nbytes).algorithm == "recursive_doubling"

    def test_large_messages_use_segmented_schedules(self):
        pof2 = CollectiveSelector(one_rank_per_node(16), 16)
        assert pof2.select_allreduce(1 << 20).algorithm in ("ring", "rabenseifner")
        non_pof2 = CollectiveSelector(one_rank_per_node(12), 12)
        assert non_pof2.select_allreduce(1 << 20).algorithm == "ring"

    def test_large_bcast_leaves_the_binomial_tree(self):
        selector = CollectiveSelector(one_rank_per_node(16), 16)
        assert selector.select_bcast(64).algorithm == "binomial"
        assert selector.select_bcast(1 << 20).algorithm != "binomial"

    @given(size=st.integers(2, 32), nbytes=st.integers(1, 1 << 21))
    @settings(max_examples=60, deadline=None)
    def test_selection_is_deterministic(self, size, nbytes):
        """Two independent selectors (as two SPMD ranks would build)
        agree — the property that lets ranks pick without communicating."""
        a = CollectiveSelector(one_rank_per_node(size), size)
        b = CollectiveSelector(one_rank_per_node(size), size)
        assert a.select_allreduce(nbytes) == b.select_allreduce(nbytes)
        assert a.select_bcast(nbytes) == b.select_bcast(nbytes)

    @given(size=st.integers(1, 32), nbytes=st.integers(1, 1 << 21))
    @settings(max_examples=60, deadline=None)
    def test_predicted_cost_is_positive_and_rounds_consistent(self, size, nbytes):
        selector = CollectiveSelector(one_rank_per_node(size), size)
        chosen = selector.select_allreduce(nbytes)
        assert chosen.predicted_seconds >= 0.0
        assert chosen.internode_rounds <= chosen.rounds
        if size == 1:
            assert chosen.rounds == 0


class TestAdaptiveVersusFixedOn1GbE:
    """Adaptive against pinned recursive doubling on a 4x4-core 1 GbE
    cluster, three allreduces per case: the selector keeps small
    messages on the latency-optimal tree and moves large ones to the
    hierarchical reduce-scatter schedule, which cuts NIC bytes without
    costing virtual time.  All figures are exact simulator counts."""

    NODES, CORES, REPS = 4, 4, 3

    def _case(self, n_doubles, algorithm):
        size = self.NODES * self.CORES
        reps = self.REPS

        def main(comm):
            payload = np.full(n_doubles, float(comm.rank + 1))
            t0, o0 = comm.time, comm.offnode_bytes_sent
            for _ in range(reps):
                result = comm.allreduce(payload, op=SUM, algorithm=algorithm)
            assert np.all(result == size * (size + 1) / 2.0)
            return comm.time - t0, comm.offnode_bytes_sent - o0, dict(
                comm.algorithm_counts
            )

        topology = ClusterTopology(
            self.NODES, self.CORES, NetworkModel(GIGABIT_ETHERNET)
        )
        per_rank = run(main, size, topology=topology).returns
        chosen = {
            key.split(".", 1)[1]
            for _, _, counts in per_rank
            for key in counts
            if key.startswith("allreduce.")
        }
        seconds = max(s for s, _, _ in per_rank) / reps
        offnode = sum(o for _, o, _ in per_rank) / reps
        return chosen, seconds, offnode

    def test_small_allreduce_stays_on_recursive_doubling(self):
        chosen, _, _ = self._case(3, "auto")
        assert chosen == {"recursive_doubling"}

    def test_large_allreduce_goes_hierarchical(self):
        fixed_chosen, fixed_seconds, fixed_offnode = self._case(
            65536, "recursive_doubling"
        )
        chosen, seconds, offnode = self._case(65536, "auto")
        assert fixed_chosen == {"recursive_doubling"}
        assert chosen == {"hier_rabenseifner"}
        assert (fixed_offnode, offnode) == (16_777_216, 3_145_728)
        assert fixed_offnode / offnode >= 1.5
        assert seconds <= fixed_seconds


class TestPaperPlatformTables:
    """The selection tables documented in docs/collectives.md."""

    TABLES = {
        ("puma", 64): [
            ("recursive_doubling", "binomial"),
            ("hier_recursive_doubling", "binomial"),
            ("hier_rabenseifner", "binomial"),
            ("hier_rabenseifner", "scatter_allgather"),
        ],
        ("lagrange", 64): [
            ("recursive_doubling", "binomial"),
            ("hier_recursive_doubling", "binomial"),
            ("hier_ring", "binomial"),
            ("ring", "scatter_allgather"),
        ],
        ("ec2", 16): [
            ("recursive_doubling", "binomial"),
            ("recursive_doubling", "binomial"),
            ("rabenseifner", "scatter_allgather"),
            ("rabenseifner", "scatter_allgather"),
        ],
    }

    @pytest.mark.parametrize("platform,ranks", list(TABLES))
    def test_documented_table(self, platform, ranks):
        spec = platform_by_name(platform)
        topology = (
            spec.topology(num_nodes=spec.nodes_for_ranks(ranks))
            if spec.on_demand else spec.topology()
        )
        rows = CollectiveSelector(topology, ranks).selection_table()
        assert [r["nbytes"] for r in rows] == [8, 1024, 65536, 1 << 20]
        assert [(r["allreduce"], r["bcast"]) for r in rows] == (
            self.TABLES[platform, ranks]
        )
