import numpy as np
import pytest

from rareflow import mc


@pytest.fixture
def draws_at_bound(monkeypatch):
    """Spy on ``mc.check_bound``: per call, whether a hit's log-weight equals its log-bound."""
    at_bound = []
    check = mc.check_bound

    def spy(log_weight, log_bound, hit):
        at_bound.append(bool(np.any(hit & (log_weight == log_bound))))
        check(log_weight, log_bound, hit)

    monkeypatch.setattr(mc, "check_bound", spy)
    return at_bound
