"""SM high availability: replicated hot-standby failover with fencing.

The :class:`HighAvailabilityManager` runs the HA protocol — SMInfo state
machine and lease-based liveness (:mod:`repro.sm.ha.sminfo`),
sequence-numbered hot-standby replication
(:mod:`repro.sm.ha.journal`), split-brain fencing via the monotonic SM
generation checked in the transport, and light-vs-heavy failover sweeps
whose SMP cost the :class:`~repro.sm.subnet_manager.ConfigureReport`
surfaces. See ``docs/HIGH_AVAILABILITY.md``.
"""

from repro.sm.ha.journal import (
    JournalEntry,
    ReplicationJournal,
    StandbyReplica,
)
from repro.sm.ha.manager import HighAvailabilityManager
from repro.sm.ha.sminfo import SmHaState, SmParticipant

__all__ = [
    "HighAvailabilityManager",
    "JournalEntry",
    "ReplicationJournal",
    "SmHaState",
    "SmParticipant",
    "StandbyReplica",
]
