"""Shared fixtures."""

from collections import Counter

import pytest

from enclavesim import sim
from enclavesim.layout import BLOCK_SIZE


class _FlippedPenglai(sim.PenglaiModel):
    """A deliberately wrong model: its final memory differs by one byte.

    The flip is in `final_pages`, the stream `sim.run` digests, so
    `final_state` shows it too.
    """

    def final_pages(self, eid):
        for vpage, page in super().final_pages(eid):
            if vpage == 0:
                page = bytes([page[0] ^ 1]) + page[1:]
            yield vpage, page


@pytest.fixture
def broken_penglai(monkeypatch):
    """Run the `penglai` model name on a model that corrupts final memory."""
    monkeypatch.setitem(sim.MODEL_CLASSES, "penglai", _FlippedPenglai)


@pytest.fixture
def region_ledger():
    """Count one DRAM's metered traffic by the region each address falls in.

    The returned function wraps the instance's four metered methods and
    gives back (reads, writes) Counters keyed by `layout.classify(addr)`;
    a span counts one access per 64-byte block, as the DRAM does.  It is an
    oracle for the DRAM's own by-cause counters.
    """

    def wrap(dram):
        reads, writes = Counter(), Counter()
        for name, ledger, blocks in (
            ("read", reads, lambda length: 1),
            ("write", writes, lambda data: 1),
            ("read_span", reads, lambda length: -(-length // BLOCK_SIZE)),
            ("write_span", writes, lambda data: -(-len(data) // BLOCK_SIZE)),
        ):
            def counted(addr, arg, cause, method=getattr(dram, name),
                        ledger=ledger, blocks=blocks):
                ledger[dram.layout.classify(addr)] += blocks(arg)
                return method(addr, arg, cause)

            setattr(dram, name, counted)
        return reads, writes

    return wrap
