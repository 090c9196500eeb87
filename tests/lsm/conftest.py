"""Fixtures shared by the engine tests."""

import pytest

from repro.lsm.sstable import SSTableBuilder


@pytest.fixture
def adoptions(monkeypatch):
    """Whether each ``SSTableBuilder.adopt`` call adopted, in call order.

    A compaction job asks the builder to adopt its input only when it
    has one input and every record sinks; an empty list means no job
    got that far.
    """
    adopt = SSTableBuilder.adopt
    outcomes = []

    def spy(self, *args, **kwargs):
        result = adopt(self, *args, **kwargs)
        outcomes.append(result is not None)
        return result

    monkeypatch.setattr(SSTableBuilder, "adopt", spy)
    return outcomes
