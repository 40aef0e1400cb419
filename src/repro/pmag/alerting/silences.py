"""Silences and inhibition: muting without losing state.

Both mechanisms act at *notification* time only — the state machine
keeps evaluating and the journal keeps recording transitions, so a
silence expiring mid-incident immediately surfaces the still-firing
alert without replaying its history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TsdbError
from repro.pmag.model import Labels


@dataclass(frozen=True)
class Silence:
    """Mute notifications for alerts matching ``match`` in a window.

    ``match`` is exact label equality (every listed label must match);
    the window is inclusive of ``start_ns`` and exclusive of ``end_ns``.
    """

    match: Dict[str, str] = field(default_factory=dict)
    start_ns: int = 0
    end_ns: int = 0
    comment: str = ""

    def __post_init__(self) -> None:
        if self.end_ns <= self.start_ns:
            raise TsdbError(
                f"silence window is empty: [{self.start_ns}, {self.end_ns})"
            )
        if not self.match:
            raise TsdbError("silence needs at least one label matcher")

    def covers(self, labels: Labels, now_ns: int) -> bool:
        """Whether this silence mutes the given alert labels at ``now_ns``."""
        if not self.start_ns <= now_ns < self.end_ns:
            return False
        return all(
            labels.get(key) == value for key, value in self.match.items()
        )


class SilenceStore:
    """The deployment's silences.  Survives monitor kill/resurrect.

    Silences are operator configuration, not monitor state — a crash of
    the monitor process must not un-mute a noisy alert — so the store
    lives on the deployment substrate alongside the alert journal.
    """

    def __init__(self, silences: Iterable[Silence] = ()) -> None:
        self._silences: List[Silence] = list(silences)

    def covering(self, labels: Labels, now_ns: int) -> Optional[Silence]:
        """The first silence muting these labels now, if any."""
        for silence in self._silences:
            if silence.covers(labels, now_ns):
                return silence
        return None


@dataclass(frozen=True)
class InhibitRule:
    """Mute target alerts while a matching source alert is firing.

    ``source`` and ``target`` are exact-equality label filters; when a
    firing alert matches ``source``, any alert matching ``target`` that
    agrees with it on every label in ``equal`` is inhibited.  The classic
    use: a node-down page inhibits every per-service alert on that host.
    """

    source: Dict[str, str] = field(default_factory=dict)
    target: Dict[str, str] = field(default_factory=dict)
    equal: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise TsdbError("inhibit rule needs source and target matchers")


class Inhibitor:
    """Evaluates inhibition rules against the currently firing set."""

    def __init__(self, rules: Sequence[InhibitRule] = ()) -> None:
        self._rules = list(rules)

    @staticmethod
    def _matches(labels: Labels, match: Dict[str, str]) -> bool:
        return all(labels.get(k) == v for k, v in match.items())

    def is_inhibited(
        self, labels: Labels, firing: Sequence[Labels]
    ) -> bool:
        """Whether an alert with these labels is muted by a firing source.

        An alert never inhibits itself: a source whose label set is
        identical to the candidate's is skipped, so a rule whose source
        and target filters overlap cannot silence the very alert that
        triggered it.
        """
        for rule in self._rules:
            if not self._matches(labels, rule.target):
                continue
            for source_labels in firing:
                if source_labels.items() == labels.items():
                    continue
                if not self._matches(source_labels, rule.source):
                    continue
                if all(
                    source_labels.get(key) == labels.get(key)
                    for key in rule.equal
                ):
                    return True
        return False
