"""Topology- and size-adaptive collective algorithm selection.

MPI implementations switch collective algorithms by communicator size
and message size (MPICH's ``MPIR_CVAR_ALLREDUCE_*`` thresholds, Open
MPI's ``coll/tuned`` decision tables).  simmpi does the same, but
*derives* the decision instead of hard-coding thresholds: every
candidate :class:`~repro.simmpi.collectives.ScheduleShape` is priced
against the platform's alpha-beta links (:mod:`repro.network.model`)
with NIC-contention flow counts from :mod:`repro.network.contention`,
and the cheapest schedule wins.

The selection is a pure function of ``(collective, communicator size,
message bytes, topology)`` — every rank computes the same answer with
no extra communication, which is what keeps SPMD ranks in lockstep and
the serial-vs-parallel bit-identity guarantee intact.  The resulting
per-interconnect decision tables are documented in
``docs/collectives.md``; the choices on the benchmark's p = 2048 run are
pinned in ``perfbench/expected_counts.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.contention import nic_sharing_factor
from repro.network.topology import ClusterTopology
from repro.simmpi import collectives as coll

#: Per-round CPU cost mirrored from the executed model: the sender's
#: SEND_OVERHEAD plus the receiver's RECV_OVERHEAD
#: (:mod:`repro.simmpi.comm` charges the same constants per message).
PER_ROUND_OVERHEAD = 1.0e-6

#: Relative margin a challenger must win by before it displaces an
#: earlier candidate — keeps the choice stable under float noise and
#: prefers the simplest algorithm on ties.
_TIE_MARGIN = 1e-9


@dataclass(frozen=True)
class Selection:
    """One costed candidate: the algorithm plus its modeled schedule."""

    collective: str
    algorithm: str
    nbytes: int
    predicted_seconds: float
    rounds: int
    internode_rounds: int
    bytes_per_rank: float

    def as_dict(self) -> dict:
        """JSON-friendly view (used by the bench ``collectives`` section)."""
        return {
            "collective": self.collective,
            "algorithm": self.algorithm,
            "nbytes": self.nbytes,
            "predicted_seconds": self.predicted_seconds,
            "rounds": self.rounds,
            "internode_rounds": self.internode_rounds,
            "bytes_per_rank": self.bytes_per_rank,
        }


class CollectiveSelector:
    """Costs candidate schedules for one communicator on one topology.

    Parameters
    ----------
    topology:
        The platform the ranks are placed on.
    size:
        Communicator size (number of participating ranks).
    ranks_per_node:
        Override for the node occupancy (sub-communicators may occupy
        nodes more sparsely than block placement of ``size`` ranks
        suggests).  Defaults to the block-placement value via
        :func:`~repro.network.contention.nic_sharing_factor` with every
        flow off-node — a full pairwise exchange round keeps all of a
        node's ranks on the NIC at once.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        size: int,
        ranks_per_node: int | None = None,
    ):
        self.topology = topology
        self.size = int(size)
        if ranks_per_node is None:
            ranks_per_node = int(round(nic_sharing_factor(
                topology, self.size, offnode_fraction=1.0
            )))
        self.ranks_per_node = coll.effective_ranks_per_node(self.size, ranks_per_node)
        self._cache: dict[tuple, Selection] = {}

    # -- costing ------------------------------------------------------------

    def cost(self, shape: coll.ScheduleShape) -> float:
        """Modeled seconds for one schedule: per-round alpha + flows*n/beta."""
        network = self.topology.network
        total = 0.0
        for r in shape.rounds:
            link = network.internode if r.internode else network.intranode
            flows = r.flows if r.internode else 1.0
            total += PER_ROUND_OVERHEAD + link.latency + r.nbytes * flows / link.bandwidth
        return total

    def _costed(self, collective: str, algorithm: str, nbytes: int) -> Selection:
        if collective == "allreduce":
            shape = coll.allreduce_shape(
                algorithm, self.size, nbytes, self.ranks_per_node
            )
        else:
            shape = coll.bcast_shape(algorithm, self.size, nbytes, self.ranks_per_node)
        return Selection(
            collective=collective,
            algorithm=algorithm,
            nbytes=int(nbytes),
            predicted_seconds=self.cost(shape),
            rounds=shape.round_count,
            internode_rounds=shape.internode_round_count,
            bytes_per_rank=shape.bytes_per_rank,
        )

    def _pick(self, candidates: list[Selection]) -> Selection:
        best = candidates[0]
        for challenger in candidates[1:]:
            if challenger.predicted_seconds < best.predicted_seconds * (1.0 - _TIE_MARGIN):
                best = challenger
        return best

    def _multinode(self) -> bool:
        return self.size > self.ranks_per_node

    # -- selection ----------------------------------------------------------

    def allreduce_candidates(
        self, nbytes: int, segmentable: bool = True
    ) -> list[Selection]:
        """All eligible costed allreduce candidates, stable order."""
        algorithms = ["recursive_doubling"]
        if segmentable and self.size > 1:
            algorithms += ["ring", "rabenseifner"]
        if self._multinode() and self.ranks_per_node > 1:
            algorithms.append("hier_recursive_doubling")
            if segmentable:
                algorithms += ["hier_ring", "hier_rabenseifner"]
        return [self._costed("allreduce", a, nbytes) for a in algorithms]

    def select_allreduce(self, nbytes: int, segmentable: bool = True) -> Selection:
        """Cheapest allreduce schedule for a message of ``nbytes``.

        ``segmentable`` gates the reduce-scatter family (ring,
        Rabenseifner): those need an ndarray payload they can split
        into blocks; scalars and opaque objects only qualify for the
        whole-message algorithms.
        """
        key = ("allreduce", int(nbytes), bool(segmentable))
        hit = self._cache.get(key)
        if hit is None:
            hit = self._pick(self.allreduce_candidates(int(nbytes), segmentable))
            self._cache[key] = hit
        return hit

    def bcast_candidates(self, nbytes: int) -> list[Selection]:
        """All eligible costed broadcast candidates, stable order."""
        algorithms = ["binomial"]
        if self.size > 1:
            algorithms.append("scatter_allgather")
        if self._multinode() and self.ranks_per_node > 1:
            algorithms.append("hierarchical")
        return [self._costed("bcast", a, nbytes) for a in algorithms]

    def select_bcast(self, nbytes: int) -> Selection:
        """Cheapest broadcast schedule for an ndarray of ``nbytes``.

        Callers must pass a size hint every rank knows (non-roots do not
        hold the payload); ``Communicator.bcast`` falls back to the
        binomial tree when no hint is given.
        """
        key = ("bcast", int(nbytes))
        hit = self._cache.get(key)
        if hit is None:
            hit = self._pick(self.bcast_candidates(int(nbytes)))
            self._cache[key] = hit
        return hit

    def selection_table(
        self, sizes: tuple[int, ...] = (8, 1024, 65536, 1 << 20)
    ) -> list[dict]:
        """Chosen algorithm per message size — the docs/bench decision table."""
        rows = []
        for nbytes in sizes:
            chosen = self.select_allreduce(nbytes)
            rows.append(
                {
                    "nbytes": int(nbytes),
                    "allreduce": chosen.algorithm,
                    "bcast": self.select_bcast(nbytes).algorithm,
                    "predicted_seconds": chosen.predicted_seconds,
                }
            )
        return rows
