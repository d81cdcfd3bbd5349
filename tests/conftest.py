"""Fixtures shared by the test modules."""

import pytest

from fdsched import scheduling


@pytest.fixture
def search_rows(monkeypatch):
    """Rows of every exhaustive pair search the kernel runs in the test, in order."""
    rows = []
    users = scheduling._Batch.users

    def spy(batch, rule):
        if rule is scheduling.Scheduler.ES_FD:
            rows.append(len(batch.g_ul))
        return users(batch, rule)

    monkeypatch.setattr(scheduling._Batch, "users", spy)
    return rows
