"""Pin the observable comm streams: trace, recording and causal events.

The tracer, the schedule recorder and the causal tracker all observe
the same communicator sites.  This test digests what each of them
saw for one program that mixes user point-to-point traffic, every
collective (hierarchical algorithms included: 9 ranks on 3-core
nodes), ``compute`` and ``phase``, so any refactor of how the
communicator feeds its observers must leave all three streams
bit-identical on both engines.

``Request.test`` and ``split`` are deliberately absent: receives
completed by ``test()`` and sub-communicator traffic are covered by
their own regression tests.
"""

import hashlib

import numpy as np
import pytest

from repro.network.model import GIGABIT_ETHERNET, NetworkModel
from repro.network.topology import ClusterTopology
from repro.simmpi import run_spmd
from repro.simmpi import tracing

ENGINES = ("events", "threads")
P = 9
CORES = 3

#: SHA-256 of the three streams of :func:`_program`, fixed once.
STREAM_DIGEST = "58004acad9058544ff7841aac7aa65e08929af9f57b09af6932d88eb0557a240"


def _program(comm):
    rank, size = comm.rank, comm.size
    right, left = (rank + 1) % size, (rank - 1) % size
    with comm.phase("setup"):
        comm.compute(1e-6 * (rank + 1), label="assembly")
    comm.send(np.arange(6.0) + rank, dest=right, tag=3)
    comm.recv(source=left, tag=3)
    comm.sendrecv(rank, dest=left, source=right, sendtag=4, recvtag=4)
    req = comm.irecv(source=right, tag=5)
    comm.isend(float(rank), dest=left, tag=5)
    req.wait()
    comm.barrier()
    big = np.arange(64.0) * (rank + 1)
    for algorithm in ("binomial", "linear", "scatter_allgather", "hierarchical"):
        comm.bcast(big if rank == 2 else None, root=2, algorithm=algorithm)
    comm.bcast(big if rank == 0 else None, algorithm="auto", nbytes=big.nbytes)
    for algorithm in ("binomial", "linear"):
        comm.reduce(big, root=1, algorithm=algorithm)
    for algorithm in ("recursive_doubling", "ring", "rabenseifner",
                      "hier_recursive_doubling", "hier_ring",
                      "hier_rabenseifner", "auto"):
        comm.allreduce(big, algorithm=algorithm)
    comm.allreduce(float(rank), site="scalar")
    comm.gather(rank, root=4)
    comm.allgather(rank * 10)
    comm.scatter(list(range(size)) if rank == 3 else None, root=3)
    comm.alltoall([rank * size + d for d in range(size)])
    comm.scan(float(rank + 1))
    comm.exscan(float(rank + 1))
    comm.reduce_scatter_block([np.ones(2) * rank for _ in range(size)])
    with comm.phase("solve"):
        comm.compute(2e-6, label="solve")
        comm.allreduce(np.ones(3) * rank)


def _topology() -> ClusterTopology:
    return ClusterTopology(P // CORES, CORES, NetworkModel(GIGABIT_ETHERNET))


def _streams_digest(engine: str) -> str:
    res = run_spmd(_program, P, topology=_topology(), trace=True, causal=True,
                   record_schedule=True, engine=engine)
    assert res.recording is not None
    algorithms = {name.split(".")[1] for name in res.algorithm_counts}
    assert {"hierarchical", "hier_ring"} <= algorithms
    causal = tuple(
        (ev.rank, ev.kind, ev.peer, ev.tag, ev.lamport,
         tuple(int(v) for v in ev.vector))
        for ev in res.causal.all_events()
    )
    digest = hashlib.sha256()
    for stream in (res.tracer.snapshot(), res.recording.ops,
                   res.recording.algorithms, causal):
        digest.update(repr(stream).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("engine", ENGINES)
def test_observer_streams_are_pinned(engine):
    assert _streams_digest(engine) == STREAM_DIGEST


def test_unobserved_run_builds_no_trace_records(monkeypatch):
    """Without trace, causal or recording, no observer work happens:
    not a single :class:`TraceRecord` is constructed."""
    built = []
    original = tracing.TraceRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(tracing.TraceRecord, "__init__", counting_init)
    res = run_spmd(_program, P, topology=_topology())
    assert res.recording is None and res.causal is None
    assert built == []
