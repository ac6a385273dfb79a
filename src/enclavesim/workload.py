"""Trace ingestion and synthetic access patterns.

Protection models consume a stream of memory accesses, each taken to miss
the last-level cache: a text trace format (`R|W <hex vaddr> <enclave id>
<icount>`) and deterministic synthetic generators for the usual suspects
(sequential, uniform-random, zipf, strided, pointer-chase).
"""

from __future__ import annotations

import bisect
import gzip
import random
from dataclasses import dataclass, fields
from typing import IO, Iterable, Iterator

from .layout import BLOCK_SIZE, PAGE_SIZE

PATTERNS = ("sequential", "uniform", "zipf", "strided", "pointer-chase")


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
        if self.accesses_per_instruction <= 0:
            raise ValueError("accesses_per_instruction must be positive")
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


def generate(spec: SyntheticSpec) -> list[TraceRecord]:
    """Deterministic synthetic trace for the given spec."""
    rng = random.Random(spec.seed)
    pages = spec.footprint_pages
    gap = spec.icount_gap
    addrs: list[int] = []

    if spec.pattern == "sequential":
        for i in range(spec.n_accesses):
            addrs.append((i * BLOCK_SIZE) % spec.footprint_bytes)
    elif spec.pattern == "uniform":
        blocks = spec.footprint_bytes // BLOCK_SIZE
        for _ in range(spec.n_accesses):
            addrs.append(rng.randrange(blocks) * BLOCK_SIZE)
    elif spec.pattern == "strided":
        addr = 0
        for _ in range(spec.n_accesses):
            addrs.append(addr)
            addr = (addr + spec.stride_bytes) % spec.footprint_bytes
    elif spec.pattern == "zipf":
        cdf = _zipf_cdf(pages, spec.zipf_s)
        page_order = list(range(pages))
        rng.shuffle(page_order)  # decouple popularity rank from locality
        for _ in range(spec.n_accesses):
            rank = bisect.bisect_left(cdf, rng.random())
            page = page_order[min(rank, pages - 1)]
            block = rng.randrange(PAGE_SIZE // BLOCK_SIZE)
            addrs.append(page * PAGE_SIZE + block * BLOCK_SIZE)
    elif spec.pattern == "pointer-chase":
        order = list(range(pages))
        rng.shuffle(order)
        succ = {order[i]: order[(i + 1) % pages] for i in range(pages)}
        page = order[0]
        for _ in range(spec.n_accesses):
            addrs.append(page * PAGE_SIZE + rng.randrange(64) * BLOCK_SIZE)
            page = succ[page]

    out = []
    icount = 0
    for addr in addrs:
        icount += gap
        op = "R" if rng.random() < spec.read_frac else "W"
        out.append(TraceRecord(op, addr, spec.enclave_id, icount))
    return out
