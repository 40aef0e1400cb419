"""Alert state: instances, state names, and the deterministic journal.

The alerting layer's observable history is a single append-only journal
of canonically formatted lines — state-machine transitions and
notification outcomes interleaved in virtual-time order.  Like the fault
plan's journal it is the byte-comparable determinism witness: two
same-seed runs must produce byte-identical journal text, and the chaos
suite asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.pmag.model import Labels

#: The pending->firing state machine's states.  An alert whose expression
#: first returns a series enters ``pending``; after the rule's ``for_``
#: duration of continuous activity it transitions to ``firing``; when the
#: expression stops returning the series it leaves the active set
#: (``resolved`` if it had fired, silently expired otherwise).
STATE_PENDING = "pending"
STATE_FIRING = "firing"

#: Event kinds yielded by
#: :meth:`~repro.pmag.alerting.rules.AlertingRule.evaluate`.
EVENT_PENDING = "pending"
EVENT_FIRING = "firing"
EVENT_RESOLVED = "resolved"
EVENT_EXPIRED = "expired"


def canonical_labels(labels: Labels) -> str:
    """Sorted ``k=v`` rendering — the journal's label wire format."""
    return ",".join(f"{key}={value}" for key, value in labels.items())


@dataclass
class AlertInstance:
    """One active alert: a rule crossed with one output label set."""

    labels: Labels
    active_since_ns: int
    state: str = STATE_PENDING
    value: float = 0.0
    fired_at_ns: Optional[int] = None
    #: True when this instance was rebuilt from recovered state series
    #: after a crash rather than observed live (see
    #: :meth:`~repro.pmag.alerting.rules.AlertingRule.restore`).
    restored: bool = False

    def name(self) -> str:
        """The owning rule's alert name."""
        return self.labels.get("alertname", "")

    def identity(self) -> tuple:
        """Hashable identity: the sorted label items."""
        return self.labels.items()


class AlertJournal:
    """Append-only canonical journal of alerting events.

    Lines are ``"{time_ns} {kind} {subject} {detail}"``; kinds are
    ``alert-*`` for state-machine transitions and ``notify-*`` for
    notification-router outcomes.  The journal object belongs to the
    *deployment*, not the monitor process, so it survives kill/resurrect
    — which is what lets the chaos suite assert "no alert double-fires"
    over the whole run including the crash.
    """

    def __init__(self) -> None:
        self.entries: List[str] = []

    def record(self, time_ns: int, kind: str, subject: str,
               detail: str = "") -> None:
        """Append one canonical line."""
        line = f"{time_ns} {kind} {subject}"
        if detail:
            line = f"{line} {detail}"
        self.entries.append(line)

    def record_event(self, time_ns: int, kind: str,
                     instance: AlertInstance) -> None:
        """The ``alert-{kind}`` line of one rule state-machine event;
        pending and firing lines carry the instance's value."""
        detail = ""
        if kind in (EVENT_PENDING, EVENT_FIRING):
            detail = f"value={instance.value:g}"
        self.record(time_ns, f"alert-{kind}",
                    canonical_labels(instance.labels), detail)

    def journal_text(self) -> str:
        """The whole journal as one byte-comparable string."""
        return "\n".join(self.entries)

    def lines(self, kind: Optional[str] = None) -> List[str]:
        """All lines, or only those of one kind."""
        if kind is None:
            return list(self.entries)
        return [
            line for line in self.entries
            if line.split(" ", 2)[1] == kind
        ]

    def counts(self) -> Dict[str, int]:
        """Events per kind."""
        result: Dict[str, int] = {}
        for line in self.entries:
            kind = line.split(" ", 2)[1]
            result[kind] = result.get(kind, 0) + 1
        return result

    def __len__(self) -> int:
        return len(self.entries)
