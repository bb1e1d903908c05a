"""Isolation for the runtime tests: counters and spans start empty and
disabled, and the flight-recorder ring is scrubbed, exactly as in
tests/obs, tests/wcoj and tests/yannakakis (the process-wide registry
keeps series across tests otherwise, and a full 512-entry ring would
leave a slice of ``recorder.events()`` taken after a test's start
empty)."""

import pytest

import repro.obs as obs
from repro.obs.recorder import get_recorder


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable()
    obs.reset()
    get_recorder().reset()
    yield
    obs.disable()
    obs.reset()
    get_recorder().reset()
