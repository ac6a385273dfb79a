"""Shared fixtures."""

import pytest

from enclavesim import sim


class _FlippedPenglai(sim.PenglaiModel):
    """A deliberately wrong model: its final memory differs by one byte."""

    def final_state(self, eid):
        state = super().final_state(eid)
        page = bytearray(state[0])
        page[0] ^= 1
        state[0] = bytes(page)
        return state


@pytest.fixture
def broken_penglai(monkeypatch):
    """Run the `penglai` model name on a model that corrupts final memory."""
    monkeypatch.setitem(sim.MODEL_CLASSES, "penglai", _FlippedPenglai)
