"""Trace ingestion and synthetic access patterns.

Protection models consume a stream of memory accesses, each taken to miss
the last-level cache: a text trace format (`R|W <hex vaddr> <enclave id>
<icount>`) and deterministic synthetic generators for the usual suspects
(sequential, uniform-random, zipf, strided, pointer-chase).

A `Trace` holds its accesses as four columns, about 21 bytes per access,
and each enclave's footprint; `TraceRecord` is one row of it, as a trace
file's line parses and formats.
"""

from __future__ import annotations

import bisect
import gzip
import math
import random
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from functools import partial
from itertools import islice, repeat, starmap
from operator import gt, mul
from typing import IO

from .layout import BLOCK_SIZE, PAGE_SIZE, SCRATCH_VBASE

PATTERNS = ("sequential", "uniform", "zipf", "strided", "pointer-chase")

# what a Trace's columns hold: vaddrs and icounts in 64 bits, ids in 32
ADDR_LIMIT = 1 << 64
ENCLAVE_ID_LIMIT = 1 << 32


@dataclass(frozen=True)
class TraceRecord:
    op: str  # "R" or "W"
    vaddr: int
    enclave_id: int
    icount: int  # cumulative instruction count at this access

    def __post_init__(self):
        if self.op not in ("R", "W"):
            raise ValueError(f"op must be R or W, got {self.op!r}")
        if self.vaddr < 0 or self.enclave_id < 0 or self.icount < 0:
            raise ValueError("vaddr, enclave_id and icount must be non-negative")
        if self.vaddr >= ADDR_LIMIT or self.icount >= ADDR_LIMIT:
            raise ValueError("vaddr and icount must fit in 64 bits")
        if self.enclave_id >= ENCLAVE_ID_LIMIT:
            raise ValueError(f"enclave id {self.enclave_id} does not fit in 32 bits")


def _footprints(enclave_ids: Sequence[int], vaddrs: Sequence[int]) -> dict[int, int]:
    """Pages each enclave needs: one past its highest non-scratch page."""
    limit = SCRATCH_VBASE * PAGE_SIZE
    needs = dict.fromkeys(enclave_ids, 0)
    if len(needs) == 1:
        [eid] = needs
        top = max(vaddrs)
        if top >= limit:
            top = max(filter(partial(gt, limit), vaddrs), default=-PAGE_SIZE)
        needs[eid] = top // PAGE_SIZE + 1
        return needs
    for eid, vaddr in zip(enclave_ids, vaddrs):
        if vaddr < limit and vaddr // PAGE_SIZE >= needs[eid]:
            needs[eid] = vaddr // PAGE_SIZE + 1
    return needs


class Trace(Sequence):
    """A trace as columns, with no Python object per access.

    ``ops`` is a str of ``R``/``W``; ``vaddrs`` and ``icounts`` are
    ``array('Q')`` and ``enclave_ids`` is ``array('I')``, one entry per
    access in trace order.  ``footprints`` maps each enclave to the pages
    it needs, worked out once here.  The columns are not to be changed
    afterwards.  As a sequence a Trace is its rows: indexing and iteration
    build a `TraceRecord` each.
    """

    __slots__ = ("ops", "vaddrs", "enclave_ids", "icounts", "footprints")

    def __init__(self, ops: str, vaddrs: array, enclave_ids: array, icounts: array):
        if not len(ops) == len(vaddrs) == len(enclave_ids) == len(icounts):
            raise ValueError("trace columns differ in length")
        if ops.strip("RW"):
            raise ValueError("ops must be R or W")
        self.ops = ops
        self.vaddrs = vaddrs
        self.enclave_ids = enclave_ids
        self.icounts = icounts
        self.footprints = _footprints(enclave_ids, vaddrs)

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "Trace":
        """The trace of rows in order; they are consumed as they come."""
        ops, vaddrs, enclave_ids, icounts = [], array("Q"), array("I"), array("Q")
        for r in records:
            ops.append(r.op)
            vaddrs.append(r.vaddr)
            enclave_ids.append(r.enclave_id)
            icounts.append(r.icount)
        return cls("".join(ops), vaddrs, enclave_ids, icounts)

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, i: int) -> TraceRecord:
        return TraceRecord(self.ops[i], self.vaddrs[i], self.enclave_ids[i], self.icounts[i])

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(TraceRecord, self.ops, self.vaddrs, self.enclave_ids, self.icounts)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.ops == other.ops
            and self.vaddrs == other.vaddrs
            and self.enclave_ids == other.enclave_ids
            and self.icounts == other.icounts
        )

    __hash__ = None


class TraceParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_trace(lines: Iterable[str]) -> Iterator[TraceRecord]:
    """Parse the text trace format, preserving order; # starts a comment."""
    last_icount = 0
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 4:
            raise TraceParseError(lineno, f"expected 4 fields, got {len(parts)}")
        op, vaddr_s, eid_s, icount_s = parts
        if op not in ("R", "W"):
            raise TraceParseError(lineno, f"op must be R or W, got {op!r}")
        try:
            vaddr = int(vaddr_s, 16)
            eid = int(eid_s)
            icount = int(icount_s)
        except ValueError as e:
            raise TraceParseError(lineno, str(e)) from None
        if icount < last_icount:
            raise TraceParseError(
                lineno, f"icount {icount} decreases (previous {last_icount})"
            )
        last_icount = icount
        try:
            yield TraceRecord(op, vaddr, eid, icount)
        except ValueError as e:
            raise TraceParseError(lineno, str(e)) from None


def open_trace(path: str) -> IO[str]:
    """Open a trace file; .gz paths are transparently decompressed."""
    if path.endswith(".gz"):
        return gzip.open(path, "rt")
    return open(path, "r")


def format_record(rec: TraceRecord) -> str:
    return f"{rec.op} {rec.vaddr:#x} {rec.enclave_id} {rec.icount}"


@dataclass(frozen=True)
class SyntheticSpec:
    pattern: str = "uniform"
    footprint_bytes: int = 16 << 20
    n_accesses: int = 10000
    read_frac: float = 0.7
    accesses_per_instruction: float = 0.01  # icount gap = 1/ratio
    zipf_s: float = 1.0
    stride_bytes: int = PAGE_SIZE + BLOCK_SIZE  # page-crossing default
    enclave_id: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        if self.footprint_bytes < PAGE_SIZE:
            raise ValueError("footprint must be at least one page")
        if self.n_accesses <= 0:
            raise ValueError("n_accesses must be positive")
        if not 0.0 <= self.read_frac <= 1.0:
            raise ValueError("read_frac must be in [0, 1]")
        if not 0 < self.accesses_per_instruction < math.inf:  # NaN fails it too
            raise ValueError(
                "accesses_per_instruction must be positive and finite, "
                f"got {self.accesses_per_instruction}"
            )
        if (
            not 1.0 / self.accesses_per_instruction < ADDR_LIMIT
            or self.icount_gap * self.n_accesses >= ADDR_LIMIT
        ):
            raise ValueError(
                f"{self.n_accesses} accesses at accesses_per_instruction "
                f"{self.accesses_per_instruction} run icounts past 64 bits"
            )
        if self.footprint_bytes > ADDR_LIMIT:
            raise ValueError("footprint must fit in 64 bits of address")
        if not 0 <= self.enclave_id < ENCLAVE_ID_LIMIT:
            raise ValueError(
                f"enclave_id must be within [0, 2**32), got {self.enclave_id}"
            )
        if not math.isfinite(self.zipf_s):
            raise ValueError(f"zipf_s must be finite, got {self.zipf_s}")
        if self.stride_bytes <= 0 or self.stride_bytes % BLOCK_SIZE:
            raise ValueError("stride must be a positive multiple of 64")
        if not 0 <= self.seed < 1 << 64:  # Random(-5) would replay seed 5
            raise ValueError(f"seed must be within [0, 2**64), got {self.seed}")

    @property
    def icount_gap(self) -> int:
        return max(1, round(1.0 / self.accesses_per_instruction))

    @property
    def footprint_pages(self) -> int:
        return self.footprint_bytes // PAGE_SIZE


# Config keys and gen-trace flags name each field without its "_bytes"
# suffix; those fields take byte sizes.
SPEC_KEYS = {f.name.removesuffix("_bytes"): f.name for f in fields(SyntheticSpec)}


def _zipf_cdf(n: int, s: float) -> list[float]:
    total = 0.0
    cdf = []
    for r in range(1, n + 1):
        total += 1.0 / (r**s)
        cdf.append(total)
    return [c / total for c in cdf]


def _below(rng: random.Random, n: int, count: int) -> Iterator[int]:
    """``count`` values of ``rng.randrange(n)``, drawing exactly as it does.

    randrange(n) draws ``n.bit_length()`` random bits until they fall below
    n, so its values are the draws that pass that filter, in order; islice
    stops pulling at the last one.
    """
    draws = map(rng.getrandbits, repeat(n.bit_length()))
    return islice(filter(partial(gt, n), draws), count)


def _zipf_addrs(rng: random.Random, pages: int, s: float, n: int) -> Iterator[int]:
    cdf = _zipf_cdf(pages, s)
    page_order = list(range(pages))
    rng.shuffle(page_order)  # decouple popularity rank from locality
    for _ in range(n):
        rank = bisect.bisect_left(cdf, rng.random())
        page = page_order[min(rank, pages - 1)]
        yield page * PAGE_SIZE + rng.randrange(PAGE_SIZE // BLOCK_SIZE) * BLOCK_SIZE


def _chase_addrs(rng: random.Random, pages: int, n: int) -> Iterator[int]:
    order = list(range(pages))
    rng.shuffle(order)
    succ = {order[i]: order[(i + 1) % pages] for i in range(pages)}
    page = order[0]
    for _ in range(n):
        yield page * PAGE_SIZE + rng.randrange(64) * BLOCK_SIZE
        page = succ[page]


_OP_CHARS = bytes.maketrans(b"\x00\x01", b"WR")  # a read draw is True


def generate(spec: SyntheticSpec) -> Trace:
    """Deterministic synthetic trace for the given spec.

    The generator draws every address first, then one ``random()`` per
    access for its op, and builds each column without a Python object per
    access.
    """
    rng = random.Random(spec.seed)
    n = spec.n_accesses
    size = spec.footprint_bytes
    if spec.pattern == "sequential":
        addrs = map(size.__rmod__, range(0, n * BLOCK_SIZE, BLOCK_SIZE))
    elif spec.pattern == "uniform":
        addrs = map(mul, repeat(BLOCK_SIZE), _below(rng, size // BLOCK_SIZE, n))
    elif spec.pattern == "strided":
        addrs = map(size.__rmod__, range(0, n * spec.stride_bytes, spec.stride_bytes))
    elif spec.pattern == "zipf":
        addrs = _zipf_addrs(rng, spec.footprint_pages, spec.zipf_s, n)
    else:
        addrs = _chase_addrs(rng, spec.footprint_pages, n)
    vaddrs = array("Q", addrs)
    reads = map(gt, repeat(float(spec.read_frac)), starmap(rng.random, repeat((), n)))
    ops = bytes(reads).translate(_OP_CHARS).decode()
    gap = spec.icount_gap
    icounts = array("Q", range(gap, gap * n + 1, gap))
    return Trace(ops, vaddrs, array("I", repeat(spec.enclave_id, n)), icounts)
