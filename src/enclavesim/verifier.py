"""Deferred MAC verification: jobs, failure semantics, rate math.

Page loads restart execution after two critical reads; the integrity check
of the loaded page becomes a verification job consumed by a background MAC
verification engine.  The engine hashes at a configured byte rate (default
one byte per cycle, the rounding of a 40 Gbps SHA-2 unit measured at a
5.15 GHz crypto clock), so one 4 KiB page costs 4096 cycles of lane time.

Jobs come in two kinds.  A "verify" job snapshots a freshly loaded page (its
key and plaintext as decrypted) and, when it retires, recomputes the page
MAC and walks the MAC forest comparing every level.  An "update" job carries
one or two evicted pages whose new MACs must be installed; two same-region
evictions ride in one clubbed job so the shared mid and top work happens
once.  Retirement order is strictly FIFO, which is what makes the deferred
byte-effects on forest storage agree with a serialized execution.  The
engine (epc.py) keeps the pending jobs in a plain deque and counts
submissions and the deepest queue as run events.

Any mismatch raises CatastrophicFailure: the simulated machine halts,
records which page was implicated and how many instructions executed
speculatively past the unverified read, and refuses further operations.
"""

from __future__ import annotations

from dataclasses import dataclass

JOB_KINDS = ("verify", "update")


class CatastrophicFailure(Exception):
    """Integrity violation: terminal for the run that raised it."""

    def __init__(self, detail: str, page: int | None = None,
                 speculative_instructions: int | None = None):
        super().__init__(detail)
        self.detail = detail
        self.page = page
        self.speculative_instructions = speculative_instructions


@dataclass
class VerificationJob:
    """One deferred forest operation over page snapshots.

    Snapshots matter: the MAC engine hashes the bytes as they crossed the
    boundary, not whatever the page holds by the time the job retires.
    """

    kind: str  # "verify" (page load) or "update" (eviction)
    items: tuple[tuple[int, bytes, bytes], ...]  # (physical page, key, plaintext)
    enqueue_instructions: int
    enqueue_cycles: int

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValueError(f"kind must be one of {JOB_KINDS}, got {self.kind!r}")
