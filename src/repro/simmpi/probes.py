"""Comm probes: the one channel through which a communicator is observed.

A :class:`~repro.simmpi.comm.Communicator` makes exactly one probe call
at each observable site -- a send, a receive completion, a compute
charge, a phase, a collective's entry and exit, an algorithm choice,
and the untimed features that make a schedule unrecordable.  Observers
(:class:`~repro.simmpi.tracing.Tracer`,
:class:`~repro.simmpi.recording.ScheduleRecorder`,
:class:`~repro.obs.causal.CausalTracker`) subclass :class:`CommProbe`
and override the hooks they care about; :func:`combine` turns a launch's
observers into the single probe its communicators hold.

Every hook names ranks in the *world* numbering, whatever communicator
the event happened on, and runs in the calling rank's own execution
context, so per-rank observer state needs no locking.  Fault injection
is not a probe: it acts on delivery and on the blocking boundary, both
inside the engine.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.simmpi.datatypes import Message

class CommProbe:
    """Observer of one launch's communicators; every hook is a no-op."""

    __slots__ = ()

    def on_send(self, rank: int, peer: int, tag: int, nbytes: int,
                t_start: float, t_end: float) -> Any:
        """An eager send, user-level or collective-internal.

        Called before the message is posted; a non-None return value
        rides along as the message's out-of-band ``causal`` stamp.
        """
        return None

    def on_recv(self, rank: int, msg: Message, t_start: float, t_end: float,
                user: bool) -> None:
        """A receive completed (``msg.source`` is the matched world rank).

        ``user`` is False for receives inside collective schedules and
        replayed schedules.
        """

    def on_compute(self, rank: int, seconds: float, label: str,
                   t_start: float, t_end: float) -> None:
        """A modeled compute charge of exactly ``seconds``."""

    def on_phase(self, rank: int, label: str, t_start: float,
                 t_end: float) -> None:
        """A ``comm.phase(label)`` block closed."""

    def on_collective_enter(self, rank: int, name: str) -> None:
        """A collective call started on this rank."""

    def on_collective_exit(self, rank: int, name: str, t_start: float,
                           t_end: float) -> None:
        """A collective call completed on this rank."""

    def on_algorithm(self, rank: int, collective: str, algorithm: str,
                     nbytes: int, auto: bool, segmentable: bool) -> None:
        """The algorithm one collective call resolved to."""

    def mark_unsupported(self, reason: str) -> None:
        """The program used a feature a recorded schedule cannot represent."""


#: Every public method of :class:`CommProbe` is a hook.
_HOOKS = tuple(name for name in vars(CommProbe) if not name.startswith("_"))


class ProbeFanout(CommProbe):
    """Forwards every hook to several probes, in order.

    Each hook reaches only the probes that override it, and a hook with
    a single such probe is that probe's bound method, so a tracer plus a
    causal tracker costs two calls per send and one per phase.  A send's
    stamp is the last non-None value a probe returned.
    """

    def __init__(self, probes: Sequence[CommProbe]):
        for hook in _HOOKS:
            default = getattr(CommProbe, hook)
            calls = [getattr(p, hook) for p in probes
                     if getattr(type(p), hook) is not default]
            if len(calls) == 1:
                setattr(self, hook, calls[0])
            elif calls:
                setattr(self, hook, _fan(tuple(calls)))


def _fan(calls):
    def fan(*args):
        out = None
        for call in calls:
            result = call(*args)
            if result is not None:
                out = result
        return out

    return fan


def combine(probes: Sequence[CommProbe]) -> CommProbe | None:
    """The probe a communicator holds: None, the only one, or a fan-out."""
    if not probes:
        return None
    if len(probes) == 1:
        return probes[0]
    return ProbeFanout(probes)


__all__ = ["CommProbe", "ProbeFanout", "combine"]
