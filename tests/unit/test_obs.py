"""Unit tests for repro.obs: the runtime event log."""

from repro.obs import ActivationEvent, EventLog, MigrationEvent
from repro.obs import events as event_log


def test_event_log_collects_and_filters_by_kind():
    log = EventLog()
    log.emit(ActivationEvent(1.0, server=0, actor="a/1"))
    log.emit(MigrationEvent(2.0, actor="a/1", source=0, destination=3))
    assert len(log) == 2
    assert [type(e).KIND for e in log] == ["activation", "migration"]
    (migration,) = log.of_kind(MigrationEvent)
    assert (migration.time, migration.source, migration.destination) \
        == (2.0, 0, 3)


def test_event_log_cap(monkeypatch):
    monkeypatch.setattr(event_log, "MAX_EVENTS", 1)
    log = EventLog()
    log.emit(ActivationEvent(1.0, server=0, actor="a"))
    log.emit(ActivationEvent(2.0, server=0, actor="b"))
    assert len(log) == 1       # buffer honors the cap
    assert log.dropped == 1
