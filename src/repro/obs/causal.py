"""Causal tracing: Lamport + vector clocks piggybacked on simmpi messages.

The simulator's virtual clocks order events in *time*; they cannot prove
the event stream is consistent with the *happens-before* partial order
(Lamport 1978).  This module adds that proof obligation:

* a :class:`CausalTracker` maintains, per world rank, a Lamport clock
  and a dense vector clock (the dynamic-vector-clock construction of
  Mattern/Fidge).  It is a comm probe (:mod:`repro.simmpi.probes`), so
  every communicator calls it on every send, every completed receive,
  and every collective round — under both the ``events`` and
  ``threads`` engines, and on the replay path too, since replay reuses
  the same send/receive primitives.
* every in-flight :class:`~repro.simmpi.datatypes.Message` carries a
  :class:`CausalStamp` in its out-of-band ``causal`` field.  The stamp
  never touches ``payload_nbytes``, so enabling causal tracing cannot
  perturb virtual time, byte accounting, or schedule recordings (the
  bit-identity tests pin this).
* :meth:`CausalTracker.check` validates the recorded event stream:
  per-rank clock monotonicity, sender-dominance of every received
  stamp, the synchronization property of fully-synchronizing
  collectives, and — when given the run's tracer — a cross-check of
  :func:`repro.obs.analysis._match_events`'s FIFO send/recv matching
  against the exact origin each message carried.
* :func:`validate_order` checks an explicit *global* event order (e.g.
  a serialized trace) for happens-before consistency; an artificially
  reordered stream is flagged with (rank, op, clock) context.

Concurrency discipline mirrors :class:`~repro.simmpi.tracing.Tracer`:
all per-rank state is preallocated and each rank mutates only its own
slot, so the tracker is lock-free under the thread-per-rank engine and
trivially safe under the cooperative event engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.simmpi.comm import _COLL_TAG_BASE
from repro.simmpi.probes import CommProbe

#: Collectives after which *every* participant causally depends on
#: *every* participant's entry (all-to-all information flow).  ``scan``,
#: ``bcast``, ``reduce``, ``gather`` and ``scatter`` are deliberately
#: absent: their information flow is one-directional, so exit clocks
#: need not dominate all entries.
SYNCHRONIZING_COLLECTIVES = frozenset(
    {"barrier", "allreduce", "allgather", "alltoall", "reduce_scatter_block"}
)


@dataclass(frozen=True, eq=False)
class CausalStamp:
    """The causal metadata one message carries: who sent it, and when.

    ``seq`` is the sender's per-rank send sequence number — together
    with ``rank`` it names the message uniquely, which is what lets the
    checker compare the tracer's FIFO matching against ground truth.
    ``vector`` is a frozen (non-writable) numpy snapshot of the
    sender's vector clock at send time.
    """

    rank: int
    seq: int
    lamport: int
    vector: np.ndarray


@dataclass(frozen=True, eq=False)
class CausalEvent:
    """One causally-stamped event on one rank.

    ``kind`` is ``"send"`` / ``"recv"`` / ``"coll_enter"`` /
    ``"coll_exit"``.  For sends ``seq`` is the message's sequence
    number; for recvs ``origin`` is the ``(sender_rank, seq)`` pair the
    absorbed stamp carried (None when the message was unstamped).
    ``peer`` is a world rank (or -1), ``vector`` a frozen snapshot.
    """

    rank: int
    kind: str
    peer: int
    tag: int
    label: str
    seq: int
    origin: tuple[int, int] | None
    lamport: int
    vector: np.ndarray

    @property
    def clock(self) -> tuple[int, tuple[int, ...]]:
        """The (lamport, vector) pair — the violation-context format."""
        return (self.lamport, tuple(int(v) for v in self.vector))


@dataclass(frozen=True)
class CausalViolation:
    """One happens-before inconsistency, with (rank, op, clock) context."""

    rank: int
    op: str
    clock: tuple[int, tuple[int, ...]]
    detail: str

    def format(self) -> str:
        """One human-readable line."""
        return (f"rank {self.rank} {self.op} at clock "
                f"L={self.clock[0]} V={list(self.clock[1])}: {self.detail}")


@dataclass(frozen=True)
class CausalReport:
    """What a causal check covered and every violation it found."""

    violations: tuple[CausalViolation, ...]
    events_checked: int = 0
    messages_checked: int = 0
    rounds_checked: int = 0
    matches_checked: int = 0
    dropped_events: int = 0

    @property
    def ok(self) -> bool:
        """True when the checked stream is happens-before consistent."""
        return not self.violations

    def format(self) -> str:
        """Human-readable summary plus one line per violation."""
        head = (f"causal check: {'OK' if self.ok else 'VIOLATIONS'} "
                f"({self.events_checked} events, "
                f"{self.messages_checked} messages, "
                f"{self.rounds_checked} sync rounds, "
                f"{self.matches_checked} matches cross-checked"
                + (f", {self.dropped_events} events dropped"
                   if self.dropped_events else "") + ")")
        return "\n".join([head] + [v.format() for v in self.violations])


def _frozen(vec: np.ndarray) -> np.ndarray:
    snap = vec.copy()
    snap.setflags(write=False)
    return snap


class CausalTracker(CommProbe):
    """Per-world-rank Lamport + vector clocks for one SPMD run.

    ``events_limit`` bounds per-rank event retention (a ring buffer):
    the clocks themselves always stay exact, but checks that need the
    full stream degrade gracefully (dropped sends make the matching
    checks skip, never misfire).  ``None`` keeps everything — the right
    setting for the p <= 16 runs the checker targets; large-p overhead
    benchmarks pass a bound.
    """

    def __init__(self, num_ranks: int, events_limit: int | None = None):
        if num_ranks < 1:
            raise ValueError(f"CausalTracker needs >= 1 rank, got {num_ranks}")
        self.num_ranks = num_ranks
        self.events_limit = events_limit
        self._lamport = [0] * num_ranks
        self._vectors = [np.zeros(num_ranks, dtype=np.int64)
                         for _ in range(num_ranks)]
        self._send_seq = [0] * num_ranks
        self._events: list[list[CausalEvent]] = [[] for _ in range(num_ranks)]
        self._dropped = [0] * num_ranks

    # -- probe hooks (called by Communicator) -------------------------------

    def _append(self, rank: int, event: CausalEvent) -> None:
        events = self._events[rank]
        limit = self.events_limit
        if limit is not None and len(events) >= limit:
            del events[0: len(events) - limit + 1]
            self._dropped[rank] += 1
        events.append(event)

    def on_send(self, rank, peer, tag, nbytes, t_start, t_end) -> CausalStamp:
        """Tick the sender's clocks; returns the stamp to piggyback."""
        vec = self._vectors[rank]
        vec[rank] += 1
        self._lamport[rank] += 1
        self._send_seq[rank] += 1
        snap = _frozen(vec)
        stamp = CausalStamp(rank, self._send_seq[rank], self._lamport[rank], snap)
        self._append(rank, CausalEvent(
            rank=rank, kind="send", peer=peer, tag=tag, label="",
            seq=stamp.seq, origin=None, lamport=stamp.lamport, vector=snap,
        ))
        return stamp

    def on_recv(self, rank, msg, t_start, t_end, user) -> None:
        """Merge a received message's stamp into the receiver's clocks."""
        stamp = msg.causal
        vec = self._vectors[rank]
        if stamp is not None:
            np.maximum(vec, stamp.vector, out=vec)
            self._lamport[rank] = max(self._lamport[rank], stamp.lamport)
        vec[rank] += 1
        self._lamport[rank] += 1
        self._append(rank, CausalEvent(
            rank=rank, kind="recv", peer=msg.source, tag=msg.tag, label="", seq=-1,
            origin=None if stamp is None else (stamp.rank, stamp.seq),
            lamport=self._lamport[rank], vector=_frozen(vec),
        ))

    def _on_collective(self, rank: int, label: str, kind: str) -> None:
        vec = self._vectors[rank]
        vec[rank] += 1
        self._lamport[rank] += 1
        self._append(rank, CausalEvent(
            rank=rank, kind=kind, peer=-1, tag=-1, label=label, seq=-1,
            origin=None, lamport=self._lamport[rank], vector=_frozen(vec),
        ))

    def on_collective_enter(self, rank, name) -> None:
        """Mark a rank entering a collective round."""
        self._on_collective(rank, name, "coll_enter")

    def on_collective_exit(self, rank, name, t_start, t_end) -> None:
        """Mark a rank leaving a collective round."""
        self._on_collective(rank, name, "coll_exit")

    # -- introspection ------------------------------------------------------

    def clock_state(self, rank: int) -> tuple[int, np.ndarray]:
        """(lamport, vector-copy) of one rank's current clocks."""
        return self._lamport[rank], self._vectors[rank].copy()

    def events_for(self, rank: int) -> list[CausalEvent]:
        """One rank's retained events, in program order."""
        return list(self._events[rank])

    def all_events(self) -> list[CausalEvent]:
        """Every retained event, rank-major (rank order, program order)."""
        out: list[CausalEvent] = []
        for events in self._events:
            out.extend(events)
        return out

    @property
    def dropped_events(self) -> int:
        """Events evicted by the ring buffer across all ranks."""
        return sum(self._dropped)

    # -- checking -----------------------------------------------------------

    def check(self, tracer=None) -> CausalReport:
        """Validate happens-before consistency of the recorded stream.

        Four passes: (1) per-rank Lamport and vector-clock monotonicity;
        (2) every received stamp must be dominated by the receiving
        event's clocks; (3) for fully-synchronizing collectives, every
        rank's round-exit vector must dominate every rank's round-entry
        vector; (4) with ``tracer`` (a :class:`~repro.simmpi.tracing.Tracer`
        or an object exposing one via ``.tracer``), the FIFO send/recv
        matching of :func:`repro.obs.analysis._match_events` — the
        matching :func:`~repro.obs.analysis.critical_path` walks — is
        cross-checked against the exact ``(sender, seq)`` origin each
        message carried.  Trace records and causal events both name
        world ranks, so sub-communicator traffic is cross-checked too.
        """
        violations: list[CausalViolation] = []
        events_checked = 0

        # Pass 1: per-rank monotonicity.
        for rank in range(self.num_ranks):
            prev: CausalEvent | None = None
            for ev in self._events[rank]:
                events_checked += 1
                if prev is not None:
                    if ev.lamport <= prev.lamport:
                        violations.append(CausalViolation(
                            rank, ev.kind, ev.clock,
                            f"lamport clock not increasing "
                            f"({prev.lamport} -> {ev.lamport})"))
                    if not np.all(ev.vector >= prev.vector):
                        violations.append(CausalViolation(
                            rank, ev.kind, ev.clock,
                            "vector clock regressed between events"))
                    if ev.vector[rank] <= prev.vector[rank]:
                        violations.append(CausalViolation(
                            rank, ev.kind, ev.clock,
                            "own vector component did not advance"))
                prev = ev

        # Pass 2: sender dominance of every received stamp.
        sends = {(ev.rank, ev.seq): ev
                 for evs in self._events for ev in evs if ev.kind == "send"}
        messages_checked = 0
        dropped = self.dropped_events
        for rank in range(self.num_ranks):
            for ev in self._events[rank]:
                if ev.kind != "recv" or ev.origin is None:
                    continue
                send = sends.get(ev.origin)
                if send is None:
                    if not dropped:
                        violations.append(CausalViolation(
                            rank, "recv", ev.clock,
                            f"absorbed message from unknown send {ev.origin}"))
                    continue
                messages_checked += 1
                if ev.lamport <= send.lamport:
                    violations.append(CausalViolation(
                        rank, "recv", ev.clock,
                        f"lamport {ev.lamport} does not exceed sender's "
                        f"{send.lamport} (origin {ev.origin})"))
                if not np.all(ev.vector >= send.vector):
                    violations.append(CausalViolation(
                        rank, "recv", ev.clock,
                        f"vector clock does not dominate sender's "
                        f"(origin {ev.origin})"))

        # Pass 3: synchronizing collectives: every exit dominates every
        # entry of the same round.
        rounds_checked = 0
        if not dropped:
            rounds_checked = self._check_sync_rounds(violations)

        # Pass 4: cross-check the analysis layer's event matching.
        matches_checked = 0
        if tracer is not None and not dropped:
            matches_checked = self._cross_check_matching(tracer, violations)

        return CausalReport(
            violations=tuple(violations),
            events_checked=events_checked,
            messages_checked=messages_checked,
            rounds_checked=rounds_checked,
            matches_checked=matches_checked,
            dropped_events=dropped,
        )

    def _check_sync_rounds(self, violations: list[CausalViolation]) -> int:
        """Entry/exit vector dominance for synchronizing collectives."""
        enters: dict[str, list[list[CausalEvent]]] = {}
        exits: dict[str, list[list[CausalEvent]]] = {}
        for rank in range(self.num_ranks):
            for ev in self._events[rank]:
                if ev.kind == "coll_enter" and ev.label in SYNCHRONIZING_COLLECTIVES:
                    enters.setdefault(ev.label, [[] for _ in range(self.num_ranks)]
                                      )[rank].append(ev)
                elif ev.kind == "coll_exit" and ev.label in SYNCHRONIZING_COLLECTIVES:
                    exits.setdefault(ev.label, [[] for _ in range(self.num_ranks)]
                                     )[rank].append(ev)
        rounds = 0
        for label, per_rank_enters in enters.items():
            per_rank_exits = exits.get(label, [])
            participating = [r for r in range(self.num_ranks)
                             if per_rank_enters[r]]
            if len(participating) < 2:
                continue
            n_rounds = min(len(per_rank_enters[r]) for r in participating)
            if any(len(per_rank_exits[r]) < n_rounds for r in participating):
                continue
            for k in range(n_rounds):
                rounds += 1
                entry_max = np.maximum.reduce(
                    [per_rank_enters[r][k].vector for r in participating])
                exit_min = np.minimum.reduce(
                    [per_rank_exits[r][k].vector for r in participating])
                if not np.all(exit_min >= entry_max):
                    worst = min(participating,
                                key=lambda r: int(per_rank_exits[r][k].vector.sum()))
                    ev = per_rank_exits[worst][k]
                    violations.append(CausalViolation(
                        worst, f"coll_exit:{label}", ev.clock,
                        f"round {k} exit does not dominate all entries "
                        f"(not synchronizing)"))
        return rounds

    def _cross_check_matching(self, tracer,
                              violations: list[CausalViolation]) -> int:
        """Compare ``_match_events`` FIFO matching with stamped origins."""
        from collections import defaultdict

        from repro.obs.analysis import _match_events

        tracer = getattr(tracer, "tracer", tracer)
        by_rank: dict[int, list] = defaultdict(list)
        for r in tracer.snapshot():
            if r.kind != "phase":
                by_rank[r.rank].append(r)
        for records in by_rank.values():
            records.sort(key=lambda r: (r.t_start, r.t_end))
        recv_to_send, _ = _match_events(by_rank)

        # Per rank, the k-th traced send corresponds to the k-th causal
        # send event, and the k-th traced recv (user recvs only: traced
        # recv records exist only for user-level receives) to the k-th
        # causal recv event below the reserved collective tag space.
        send_ordinals: dict[tuple[int, int], int] = {}
        recv_ordinals: dict[tuple[int, int], int] = {}
        for rank, records in by_rank.items():
            s = r_ = 0
            for i, rec in enumerate(records):
                if rec.kind == "send":
                    send_ordinals[(rank, i)] = s
                    s += 1
                elif rec.kind == "recv":
                    recv_ordinals[(rank, i)] = r_
                    r_ += 1
        causal_sends = {r: [ev for ev in self._events[r] if ev.kind == "send"]
                        for r in range(self.num_ranks)}
        causal_user_recvs = {
            r: [ev for ev in self._events[r]
                if ev.kind == "recv" and 0 <= ev.tag < _COLL_TAG_BASE]
            for r in range(self.num_ranks)
        }

        checked = 0
        for recv_handle, send_handle in recv_to_send.items():
            rrank, ri = recv_handle
            srank, si = send_handle
            if rrank >= self.num_ranks or srank >= self.num_ranks:
                continue
            try:
                recv_ev = causal_user_recvs[rrank][recv_ordinals[recv_handle]]
                send_ev = causal_sends[srank][send_ordinals[send_handle]]
            except (KeyError, IndexError):
                continue  # run used absorb paths the tracer cannot see
            checked += 1
            if recv_ev.origin != (send_ev.rank, send_ev.seq):
                violations.append(CausalViolation(
                    rrank, "recv-match", recv_ev.clock,
                    f"analysis matched traced recv {recv_handle} to send "
                    f"{send_handle} (message {(send_ev.rank, send_ev.seq)}), "
                    f"but the stamp says origin {recv_ev.origin}"))
        return checked


def validate_order(events: Iterable[CausalEvent] | Sequence[CausalEvent]) -> CausalReport:
    """Check an explicit *global* event order for causal consistency.

    The sequence claims "this is an order consistent with happens-
    before".  Three obligations: per-rank subsequences keep strictly
    increasing Lamport clocks and monotone vectors, and every recv
    appears *after* the send it absorbed.  A shuffled or artificially
    reordered trace fails with (rank, op, clock) context — this is the
    detector the reordering regression tests drive.
    """
    violations: list[CausalViolation] = []
    last_by_rank: dict[int, CausalEvent] = {}
    seen_sends: set[tuple[int, int]] = set()
    all_sends: set[tuple[int, int]] = set()
    events = list(events)
    for ev in events:
        if ev.kind == "send":
            all_sends.add((ev.rank, ev.seq))
    messages = 0
    for ev in events:
        prev = last_by_rank.get(ev.rank)
        if prev is not None:
            if ev.lamport <= prev.lamport:
                violations.append(CausalViolation(
                    ev.rank, ev.kind, ev.clock,
                    f"rank order broken: lamport {prev.lamport} -> {ev.lamport}"))
            if not np.all(ev.vector >= prev.vector):
                violations.append(CausalViolation(
                    ev.rank, ev.kind, ev.clock,
                    "rank order broken: vector clock regressed"))
        last_by_rank[ev.rank] = ev
        if ev.kind == "send":
            seen_sends.add((ev.rank, ev.seq))
        elif ev.kind == "recv" and ev.origin is not None:
            if ev.origin in all_sends:
                messages += 1
                if ev.origin not in seen_sends:
                    violations.append(CausalViolation(
                        ev.rank, "recv", ev.clock,
                        f"recv ordered before its send {ev.origin}"))
    return CausalReport(
        violations=tuple(violations),
        events_checked=len(events),
        messages_checked=messages,
    )


__all__ = [
    "SYNCHRONIZING_COLLECTIVES",
    "CausalStamp",
    "CausalEvent",
    "CausalViolation",
    "CausalReport",
    "CausalTracker",
    "validate_order",
]
