"""Fixtures shared by the test modules."""

import pytest

from fdsched import scheduling


@pytest.fixture
def search_rows(monkeypatch):
    """Rows of every pair search the kernel runs in the test, in order: the
    whole batch's (ES-FD's) or ES-FDHD's search of its live pairs."""
    rows = []
    users = scheduling._Batch.users

    def spy(batch, rule):
        if rule in (scheduling.Scheduler.ES_FD, scheduling.Scheduler.ES_FDHD):
            rows.append(len(batch.g_ul))
        return users(batch, rule)

    monkeypatch.setattr(scheduling._Batch, "users", spy)
    return rows
