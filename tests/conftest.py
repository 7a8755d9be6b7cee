"""Shared fixtures: a deterministic clock and key factory per test."""

import pytest

from repro.crypto import KeyFactory
from repro.simtime import Clock


@pytest.fixture
def clock():
    """A simulated clock starting at t=0."""
    return Clock()


@pytest.fixture
def key_factory():
    """A reproducible key factory; keys are pooled process-wide, so tests
    sharing this seed are fast after the first run."""
    return KeyFactory(seed=1000)
