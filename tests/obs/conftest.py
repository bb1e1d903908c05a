"""Isolation for observability tests: every test starts with the
process-wide tracer and registry disabled and empty, the flight
recorder's ring and auto-dump budget cleared (and no bundle directory
set), and leaves them that way -- the zero-by-default contract the rest
of the suite relies on."""

import pytest

import repro.obs as obs
from repro.obs.recorder import get_recorder


def _scrub_recorder():
    recorder = get_recorder()
    recorder.reset()
    recorder.set_bundle_dir(None)
    recorder.enabled = True


@pytest.fixture(autouse=True)
def clean_obs_state(monkeypatch):
    monkeypatch.delenv("REPRO_OBS_BUNDLE_DIR", raising=False)
    obs.disable()
    obs.reset()
    _scrub_recorder()
    yield
    obs.disable()
    obs.reset()
    _scrub_recorder()
