"""Deferred MAC verification: job queue, failure semantics, rate math.

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
byte-effects on forest storage agree with a serialized execution.

Any mismatch raises CatastrophicFailure: the simulated machine halts,
records which page was implicated and how many instructions executed
speculatively past the unverified read, and refuses further operations.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

logger = logging.getLogger(__name__)

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
    pages: tuple[int, ...]  # physical page ids
    page_keys: tuple[bytes, ...]
    plaintexts: tuple[bytes, ...]
    enqueue_icount: int
    enqueue_instructions: int
    enqueue_cycles: int
    region: int
    grouped: bool = False  # update clubbed across two evictions

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValueError(f"kind must be one of {JOB_KINDS}, got {self.kind!r}")
        if not self.pages or not (
            len(self.pages) == len(self.page_keys) == len(self.plaintexts)
        ):
            raise ValueError("pages, page_keys and plaintexts must align")


class VerifierQueue:
    """Strict FIFO of pending jobs with depth/retirement accounting."""

    def __init__(self):
        self.pending: deque[VerificationJob] = deque()
        self.jobs_submitted = 0
        self.jobs_retired = 0
        self.grouped_pairs = 0
        self.max_depth = 0

    def submit(self, job: VerificationJob) -> int:
        self.pending.append(job)
        self.jobs_submitted += 1
        if job.grouped:
            self.grouped_pairs += 1
        self.max_depth = max(self.max_depth, len(self.pending))
        return len(self.pending)

    def pop(self) -> VerificationJob | None:
        if not self.pending:
            return None
        self.jobs_retired += 1
        return self.pending.popleft()

    def __len__(self) -> int:
        return len(self.pending)

    def __bool__(self) -> bool:
        return bool(self.pending)
