"""Physical-adversary harness: inject, keep running, demand detection.

The adversary owns everything outside the hardware boundary: it can read
and rewrite any DRAM byte between accesses (through the unmetered peek and
poke side doors), and it controls the OS-owned page tables (the engine's
mapping_overrides).  It cannot touch anything on-chip: root counters, the
top-digest cache, the counter-node cache, registers.

Each attack kind stages a benign warmup that leaves real ciphertext, key
slots and MAC state behind, injects one corruption, then keeps the victim
running: the victim touches the attacked state and finally issues a
syscall barrier.  Detection means a catastrophic failure fires before that
barrier completes -- i.e. before anything the attack influenced could
leave the enclave.

Two deliberate modeling notes:

  * replay-epc-counter runs with the counter-node cache disabled.  A node
    replay is only meaningful when the node must be re-fetched from DRAM;
    while it sits in the on-chip cache there is nothing to attack.
  * cross-enclave attacks pick a non-resident target page, so detection
    flows through key recomposition and MAC verification rather than the
    inverted-table collision check (which the engine tests cover).

Every attack also records which layer caught it; the layers are part of
the design's argument and are asserted by the tests.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from .epc import SCRATCH_VBASE, EngineConfig, SecScaleEngine, write_value
from .layout import KEY_SLOT_BYTES, PAGE_SIZE, MemoryLayout
from .merkle import MerkleTreeConfig
from .sim import make_layout
from .verifier import CatastrophicFailure
from .workload import SyntheticSpec, generate

logger = logging.getLogger(__name__)

ATTACK_KINDS = (
    "tamper-data",
    "tamper-leaf-mac",
    "tamper-forest-node",
    "tamper-key-slot",
    "replay-data-mac-pair",
    "replay-key-mac-pair",
    "splice-relocate",
    "cross-enclave-read",
    "cross-enclave-write",
    "replay-epc-counter",
)

# the checks allowed to trip, per kind.  Corruption living in forest
# storage can be caught either by the victim's own verification or by the
# stale-state authentication of whichever eviction update reads past it
# first, so some kinds legitimately detect at two layers.
EXPECTED_LAYERS = {
    "tamper-data": ("page MAC mismatch at leaf level",),
    "tamper-leaf-mac": (
        "page MAC mismatch at leaf level",
        "MAC group digest mismatch",
    ),
    "tamper-forest-node": (
        "MAC group digest mismatch",
        "region digest mismatch",
    ),
    "tamper-key-slot": ("page MAC mismatch at leaf level",),
    "replay-data-mac-pair": ("region digest mismatch",),
    "replay-key-mac-pair": ("page MAC mismatch at leaf level",),
    "splice-relocate": (
        "page MAC mismatch at leaf level",
        "MAC group digest mismatch",
    ),
    "cross-enclave-read": ("page MAC mismatch at leaf level",),
    "cross-enclave-write": ("page MAC mismatch at leaf level",),
    "replay-epc-counter": ("counter-tree node MAC mismatch",),
}

EID_A = 1
EID_B = 2


@dataclass(frozen=True)
class AttackConfig:
    total_size: int = 16 << 20
    epc_size: int = 16 * PAGE_SIZE  # ~14 data slots: constant eviction
    n_pages: int = 40
    icount_gap: int = 3000


@dataclass
class AttackResult:
    kind: str
    seed: int
    detected: bool
    detail: str
    layer_matched: bool
    speculative_instructions: int | None
    accesses_after_injection: int


class _Victim:
    """A driven enclave workload with injection hooks between accesses."""

    def __init__(self, kind: str, seed: int, cfg: AttackConfig):
        self.kind = kind
        self.rng = random.Random(ATTACK_KINDS.index(kind) * 1_000_003 + seed)
        self.cfg = cfg
        merkle_cfg = MerkleTreeConfig(
            cache_enabled=kind != "replay-epc-counter"
        )
        self.eng = SecScaleEngine(
            make_layout(cfg.total_size, cfg.epc_size),
            merkle_config=merkle_cfg,
            config=EngineConfig(),
            seed=seed,
        )
        self.eng.register_enclave(EID_A, cfg.n_pages)
        self.eng.register_enclave(EID_B, 8)
        self.ic = 0
        self.avoid: int | None = None  # A-page the post-attack reads must skip

    # ------------------------------------------------------------ driving
    def step(self, eid: int, vpage: int, op: str, offset: int = 0):
        self.ic += self.cfg.icount_gap
        return self.eng.access(eid, vpage * PAGE_SIZE + offset, op, self.ic)

    def flood(self, first: int, count: int):
        for v in range(first, first + count):
            self.step(EID_A, v, "W")

    def evicted_pages(self) -> list[int]:
        eng = self.eng
        base = eng.enclaves[EID_A].base_page
        return sorted(
            p - base
            for p in eng.eepc_initialized
            if (EID_A, p - base) not in eng.resident and p - base < self.cfg.n_pages
        )

    # ------------------------------------------------------------ staging
    def warmup(self):
        """Touch more pages than the EPC holds; settle all verification."""
        self.flood(0, self.cfg.n_pages)
        self.eng.syscall_barrier()

    def _part_addrs(self, vpage: int) -> dict[str, tuple[int, int]]:
        """(address, length) of every attackable artifact of one page."""
        eng = self.eng
        phys = eng.enclaves[EID_A].base_page + vpage
        group = eng.forest.group_of(phys)
        ga = eng.forest.config.group_arity
        return {
            "ct": (phys * PAGE_SIZE, PAGE_SIZE),
            "kt": (eng.layout.key_table_slot(phys), KEY_SLOT_BYTES),
            "leaf": (eng.forest.leaf_addr(phys), 8),
            "leafgroup": (eng.forest.leaf_addr(group * ga), ga * 8),
            "mid": (eng.forest.mid_addr(group), 8),
        }

    def snapshot(self, vpage: int) -> dict[str, bytes]:
        return {
            part: self.eng.dram.peek(addr, length)
            for part, (addr, length) in self._part_addrs(vpage).items()
        }

    def restore(self, vpage: int, snap: dict[str, bytes], parts: tuple[str, ...]):
        addrs = self._part_addrs(vpage)
        for part in parts:
            self.eng.dram.poke(addrs[part][0], snap[part])

    def regenerate(self, vpage: int):
        """Rewrite a page and force it back out: a second on-disk version."""
        self.step(EID_A, vpage, "W", offset=16)
        self.flood(0, self.cfg.n_pages)  # sweep it out again
        self.eng.syscall_barrier()

    def flip_byte(self, addr: int, length: int = 1):
        data = bytearray(self.eng.dram.peek(addr, length))
        data[self.rng.randrange(length)] ^= 1 << self.rng.randrange(8)
        self.eng.dram.poke(addr, bytes(data))

    # ----------------------------------------------------------- injection
    def inject(self) -> tuple[int, int, str]:
        """Corrupt state; return (victim eid, victim vpage, read or write)."""
        eng = self.eng
        kind = self.kind
        base = eng.enclaves[EID_A].base_page
        victim = self.rng.choice(self.evicted_pages())
        phys = base + victim

        if kind == "tamper-data":
            self.flip_byte(phys * PAGE_SIZE, PAGE_SIZE)
        elif kind == "tamper-leaf-mac":
            self.flip_byte(eng.forest.leaf_addr(phys), 8)
        elif kind == "tamper-forest-node":
            self.flip_byte(eng.forest.mid_addr(eng.forest.group_of(phys)), 8)
        elif kind == "tamper-key-slot":
            self.flip_byte(eng.layout.key_table_slot(phys), KEY_SLOT_BYTES)
        elif kind == "replay-data-mac-pair":
            snap = self.snapshot(victim)
            self.regenerate(victim)
            # the deepest consistent replay: data, key, the whole sibling
            # leaf group and its group digest all roll back together, so
            # only the hardware-rooted region digest can disagree
            self.restore(victim, snap, ("ct", "kt", "leafgroup", "mid"))
        elif kind == "replay-key-mac-pair":
            snap = self.snapshot(victim)
            self.regenerate(victim)
            self.restore(victim, snap, ("ct", "kt"))
        elif kind == "splice-relocate":
            donor = self.rng.choice([p for p in self.evicted_pages() if p != victim])
            snap = self.snapshot(donor)
            self.restore(victim, snap, ("ct", "kt", "leaf"))
        elif kind in ("cross-enclave-read", "cross-enclave-write"):
            # the OS points enclave B's page 0 at A's encrypted page; A must
            # not refault it meanwhile or the inverted table trips first
            eng.mapping_overrides[(EID_B, 0)] = phys
            self.avoid = victim
            op = "R" if kind == "cross-enclave-read" else "W"
            return EID_B, 0, op
        elif kind == "replay-epc-counter":
            # resident page: bind two versions, then roll the tree node back
            target = next(
                v for (e, v), _ in sorted(eng.resident.items()) if e == EID_A
            )
            slot = eng.resident[(EID_A, target)]
            self.step(EID_A, target, "W", offset=24)
            node = eng.merkle.node_addr(0, slot)
            stale = eng.dram.peek(node, 64)
            self.step(EID_A, target, "W", offset=32)
            eng.dram.poke(node, stale)
            return EID_A, target, "R"
        else:
            raise ValueError(f"unknown attack kind {kind!r}")
        return EID_A, victim, "R"


def run_attack(kind: str, seed: int = 0, cfg: AttackConfig = AttackConfig()) -> AttackResult:
    """Stage one attack; report whether and where it was caught."""
    if kind not in ATTACK_KINDS:
        raise ValueError(f"kind must be one of {ATTACK_KINDS}, got {kind!r}")
    v = _Victim(kind, seed, cfg)
    v.warmup()
    eid, vpage, op = v.inject()

    detected = False
    detail = ""
    spec_instr = None
    accesses = 0
    try:
        v.step(eid, vpage, op)
        accesses += 1
        for _ in range(4):  # the victim gets to run on unverified data
            page = v.rng.randrange(cfg.n_pages)
            if page == v.avoid:
                page = (page + 1) % cfg.n_pages
            v.step(EID_A, page, "R")
            accesses += 1
        v.eng.syscall_barrier()
    except CatastrophicFailure as cf:
        detected = True
        detail = cf.detail
        spec_instr = cf.speculative_instructions
    return AttackResult(
        kind=kind,
        seed=seed,
        detected=detected,
        detail=detail,
        layer_matched=any(s in detail for s in EXPECTED_LAYERS[kind]),
        speculative_instructions=spec_instr,
        accesses_after_injection=accesses,
    )


def run_suite(
    kinds: tuple[str, ...] = ATTACK_KINDS,
    seeds: range = range(100),
    cfg: AttackConfig = AttackConfig(),
) -> list[AttackResult]:
    results = []
    for kind in kinds:
        for seed in seeds:
            results.append(run_attack(kind, seed, cfg))
    return results


def run_benign(n_ops: int = 100_000, seed: int = 0) -> dict:
    """False-positive control: a long mixed benign run must never trip.

    Covers page churn, rereads of evicted pages, scratch traffic and
    explicit barriers across two enclaves.
    """
    eng = SecScaleEngine(
        make_layout(64 << 20, 1 << 20), config=EngineConfig(), seed=seed
    )
    footprint = 2 << 20
    eng.register_enclave(EID_A, footprint // PAGE_SIZE)
    eng.register_enclave(EID_B, 64)
    records = generate(
        SyntheticSpec(
            pattern="zipf",
            footprint_bytes=footprint,
            n_accesses=n_ops,
            accesses_per_instruction=1 / 500,
            zipf_s=0.9,
            enclave_id=EID_A,
            seed=seed,
        )
    )
    rng = random.Random(seed)
    ic = 0
    for i, rec in enumerate(records):
        ic = rec.icount
        eng.access(EID_A, rec.vaddr, rec.op, ic)
        if i % 1024 == 1023:
            # interleave a second enclave, scratch traffic and a barrier
            eng.access(EID_B, rng.randrange(64) * PAGE_SIZE, "W", ic)
            eng.access(EID_A, (SCRATCH_VBASE + rng.randrange(4)) * PAGE_SIZE, "R", ic)
            if i % 8192 == 8191:
                eng.syscall_barrier()
    eng.finalize()
    assert eng.failure is None
    return {
        "ops": len(records),
        "faults": eng.stats.events["read_faults"] + eng.stats.events["write_faults"],
        "evictions": eng.stats.events["evictions"],
        "failures": eng.stats.events["catastrophic_failures"],
    }
