"""Trace parsing, synthetic generation and the columnar Trace."""

import bisect
import gzip
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim.cli import main
from enclavesim.layout import BLOCK_SIZE, PAGE_SIZE, SCRATCH_VBASE
from enclavesim.workload import (
    PATTERNS,
    SyntheticSpec,
    Trace,
    TraceParseError,
    TraceRecord,
    _zipf_cdf,
    format_record,
    generate,
    open_trace,
    parse_trace,
)

KIB = 1 << 10
MIB = 1 << 20


# ------------------------------------------------------------------ parsing
def test_parse_documented_example():
    recs = list(parse_trace(["R 0x1000 1 100"]))
    assert recs == [TraceRecord("R", 0x1000, 1, 100)]


def test_parse_skips_comments_and_blanks():
    text = ["# header", "", "R 0x40 2 5  # inline", "W 0x80 2 9"]
    recs = list(parse_trace(text))
    assert [r.op for r in recs] == ["R", "W"]
    assert recs[1].vaddr == 0x80 and recs[1].icount == 9


def test_parse_decreasing_icount_rejected():
    with pytest.raises(TraceParseError) as e:
        list(parse_trace(["R 0x0 1 10", "R 0x0 1 9"]))
    assert e.value.lineno == 2 and "decreases" in str(e.value)


def test_parse_empty_file():
    assert list(parse_trace([])) == []


@pytest.mark.parametrize(
    "line", ["R 0x0 1", "X 0x0 1 1", "R zz 1 1", "R 0x0 one 1", "R 0x0 1 1 extra"]
)
def test_parse_malformed_lines(line):
    with pytest.raises(TraceParseError) as e:
        list(parse_trace([line]))
    assert e.value.lineno == 1


def test_format_parse_roundtrip():
    recs = [TraceRecord("W", 0xABC0, 3, 77), TraceRecord("R", 0x1000, 1, 90)]
    again = list(parse_trace(format_record(r) for r in recs))
    assert again == recs


def test_open_trace_gzip(tmp_path):
    p = tmp_path / "t.trace.gz"
    with gzip.open(p, "wt") as fh:
        fh.write("R 0x1000 1 100\n")
    with open_trace(str(p)) as fh:
        assert list(parse_trace(fh)) == [TraceRecord("R", 0x1000, 1, 100)]


# --------------------------------------------------------------- generators
def test_sequential_documented_example():
    spec = SyntheticSpec(pattern="sequential", footprint_bytes=8 * KIB, n_accesses=128)
    addrs = [r.vaddr for r in generate(spec)]
    assert addrs == list(range(0, 8192, 64))
    assert addrs[-1] == 8128


def test_same_seed_identical():
    spec = SyntheticSpec(pattern="uniform", seed=7, n_accesses=500)
    assert generate(spec) == generate(spec)


def test_different_seed_differs():
    a = generate(SyntheticSpec(pattern="uniform", seed=1, n_accesses=500))
    b = generate(SyntheticSpec(pattern="uniform", seed=2, n_accesses=500))
    assert a != b


@settings(max_examples=20, deadline=None)
@given(
    pattern=st.sampled_from(["sequential", "uniform", "zipf", "strided", "pointer-chase"]),
    seed=st.integers(0, 2**16),
)
def test_footprint_respected_and_icount_monotone(pattern, seed):
    spec = SyntheticSpec(
        pattern=pattern, footprint_bytes=1 * MIB, n_accesses=300, seed=seed
    )
    recs = generate(spec)
    assert len(recs) == 300
    last = 0
    for r in recs:
        assert 0 <= r.vaddr < spec.footprint_bytes
        assert r.vaddr % 64 == 0
        assert r.icount >= last
        last = r.icount


def test_icount_gap_follows_ratio():
    spec = SyntheticSpec(accesses_per_instruction=1 / 250, n_accesses=10)
    recs = generate(spec)
    assert recs[0].icount == 250 and recs[9].icount == 2500


def test_zipf_skews_toward_hot_pages():
    spec = SyntheticSpec(
        pattern="zipf", zipf_s=1.2, footprint_bytes=4 * MIB, n_accesses=20000, seed=3
    )
    counts = {}
    for r in generate(spec):
        counts[r.vaddr // 4096] = counts.get(r.vaddr // 4096, 0) + 1
    hottest = max(counts.values())
    assert hottest > 5 * (20000 / spec.footprint_pages)  # way above uniform share


def test_pointer_chase_is_single_cycle():
    spec = SyntheticSpec(
        pattern="pointer-chase", footprint_bytes=64 * 4096, n_accesses=128, seed=5
    )
    pages = [r.vaddr // 4096 for r in generate(spec)]
    assert sorted(pages[:64]) == list(range(64))  # visits every page once
    assert pages[:64] == pages[64:128]  # then repeats the same cycle


def test_spec_validation():
    for bad in (
        dict(pattern="nope"),
        dict(footprint_bytes=100),
        dict(n_accesses=0),
        dict(read_frac=1.5),
        dict(accesses_per_instruction=0),
        dict(accesses_per_instruction=float("nan")),
        dict(accesses_per_instruction=float("inf")),
        dict(zipf_s=float("nan")),
        dict(zipf_s=float("-inf")),
        dict(stride_bytes=65),
    ):
        with pytest.raises(ValueError):
            SyntheticSpec(**bad)


def test_read_frac_extremes():
    allr = generate(SyntheticSpec(read_frac=1.0, n_accesses=200))
    allw = generate(SyntheticSpec(read_frac=0.0, n_accesses=200))
    assert all(r.op == "R" for r in allr)
    assert all(r.op == "W" for r in allw)


def test_spec_rejects_values_a_trace_column_cannot_hold():
    for bad in (
        dict(enclave_id=-1),
        dict(enclave_id=1 << 32),
        dict(footprint_bytes=(1 << 64) + PAGE_SIZE),
        dict(accesses_per_instruction=1e-30),  # icounts past 64 bits
        dict(accesses_per_instruction=5e-324),  # 1 / it is inf
    ):
        with pytest.raises(ValueError):
            SyntheticSpec(**bad)
    SyntheticSpec(enclave_id=(1 << 32) - 1)


# ------------------------------------------------------- pinned generation
# sha256 of `gen-trace` output, captured before the generator built columns
GEN_TRACE_SHA256 = {
    ("sequential", "small"): "1b4a196dcfac0aa5e629e72b1a4d4a7e1a8a5e6534971b9cbe0cea94e5e33ec4",
    ("sequential", "large"): "929829ef03d98948fed638df1aa891063ed81d6b78ae14d85cbc1ce498135def",
    ("uniform", "small"): "1940571828f84c8e1109a651dd4c5f78ef6e61e726688867e6d264f84881b47c",
    ("uniform", "large"): "d575e54974049fb31e938c897685fb75ba0d341b7bc71622457a56423e0639ab",
    ("zipf", "small"): "6fcf40751bee5db3730e15facfbcf4099ac1fecd938324dcb198079ee59b25f1",
    ("zipf", "large"): "634a5bed9caf65a7ce87afc20b87ab531507e6b8b70a97bdc3f4eac32177f3da",
    ("strided", "small"): "7f5bc5289a525ff1aff3e64c1d5e3f5f920c498f966d2559c217114eb5f091b3",
    ("strided", "large"): "436c8d8558efd2187ff7ab2f210498dd80c697dfae3091fdff0d652e785edac3",
    ("pointer-chase", "small"): "e6da50fd5c8279e0a88023ddfc75badfae87c0180103d031c201e2c028fc3b39",
    ("pointer-chase", "large"): "214689ffba54f1863901f746a6212d4292c27fb68f3b69d37bd5dd19a0957f2c",
}
GEN_TRACE_SIZES = {
    "small": ["--footprint", "64K", "--n-accesses", "300", "--seed", "3"],
    "large": ["--footprint", "4M", "--n-accesses", "5000", "--seed", "11",
              "--read-frac", "0.4"],
}


@pytest.mark.parametrize("pattern, size", sorted(GEN_TRACE_SHA256))
def test_gen_trace_output_is_pinned(tmp_path, capsys, pattern, size):
    out = tmp_path / "t.trace"
    argv = ["gen-trace", "--pattern", pattern, *GEN_TRACE_SIZES[size], "--out", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GEN_TRACE_SHA256[pattern, size]


def _generate_rows(spec: SyntheticSpec) -> list[TraceRecord]:
    """The generator as one record per access: every address first, then
    one random() per access for its op.  The oracle for `generate`."""
    rng = random.Random(spec.seed)
    pages = spec.footprint_pages
    addrs = []
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
        rng.shuffle(page_order)
        for _ in range(spec.n_accesses):
            rank = bisect.bisect_left(cdf, rng.random())
            page = page_order[min(rank, pages - 1)]
            block = rng.randrange(PAGE_SIZE // BLOCK_SIZE)
            addrs.append(page * PAGE_SIZE + block * BLOCK_SIZE)
    else:
        order = list(range(pages))
        rng.shuffle(order)
        succ = {order[i]: order[(i + 1) % pages] for i in range(pages)}
        page = order[0]
        for _ in range(spec.n_accesses):
            addrs.append(page * PAGE_SIZE + rng.randrange(64) * BLOCK_SIZE)
            page = succ[page]
    out, icount = [], 0
    for addr in addrs:
        icount += spec.icount_gap
        op = "R" if rng.random() < spec.read_frac else "W"
        out.append(TraceRecord(op, addr, spec.enclave_id, icount))
    return out


def _footprints(records) -> dict[int, int]:
    """Pages each enclave needs, one record at a time: the oracle for
    `Trace.footprints`."""
    needs = {}
    for r in records:
        vpage = r.vaddr // PAGE_SIZE
        if vpage >= SCRATCH_VBASE:
            needs.setdefault(r.enclave_id, 0)
            continue
        needs[r.enclave_id] = max(needs.get(r.enclave_id, 0), vpage + 1)
    return needs


specs = st.builds(
    SyntheticSpec,
    pattern=st.sampled_from(PATTERNS),
    # odd sizes too: a uniform draw below a non-power-of-two rejects more
    footprint_bytes=st.integers(1, 300).map(lambda pages: pages * PAGE_SIZE)
    | st.integers(PAGE_SIZE, 1 << 22),
    n_accesses=st.integers(1, 400),
    read_frac=st.sampled_from([0.0, 0.3, 0.7, 1.0]) | st.floats(0, 1),
    accesses_per_instruction=st.sampled_from([1.0, 0.01, 1 / 8000, 3.0]),
    zipf_s=st.floats(0, 2),
    stride_bytes=st.integers(1, 200).map(lambda n: n * BLOCK_SIZE),
    enclave_id=st.integers(0, (1 << 32) - 1),
    seed=st.integers(0, (1 << 64) - 1),
)


@settings(max_examples=60, deadline=None)
@given(spec=specs)
def test_generate_matches_the_per_record_generator(spec):
    trace = generate(spec)
    rows = _generate_rows(spec)
    assert list(trace) == rows
    assert trace == Trace.from_records(rows)
    assert trace.footprints == _footprints(rows)


def _mixed_rows(seed: int, n: int = 400) -> list[TraceRecord]:
    """Three enclaves, some reaching scratch pages, in one interleaved trace."""
    rng = random.Random(seed)
    rows, ic = [], 0
    for _ in range(n):
        ic += rng.randrange(50)
        eid = rng.choice((1, 2, 7))
        if rng.random() < 0.1:
            vpage = SCRATCH_VBASE + rng.randrange(8)
        else:
            vpage = rng.randrange({1: 40, 2: 5, 7: 300}[eid])
        rows.append(TraceRecord("RW"[rng.random() < 0.5], vpage * PAGE_SIZE + 8, eid, ic))
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_footprints_of_multi_enclave_and_scratch_traces(seed):
    rows = _mixed_rows(seed)
    trace = Trace.from_records(rows)
    assert trace.footprints == _footprints(rows)
    # an enclave seen only at scratch pages needs none of its own
    only_scratch = [TraceRecord("R", SCRATCH_VBASE * PAGE_SIZE, 4, 1), *rows]
    assert Trace.from_records(only_scratch).footprints == _footprints(only_scratch)
    assert Trace.from_records(only_scratch).footprints[4] == 0
    alone = [TraceRecord("W", (SCRATCH_VBASE + 3) * PAGE_SIZE, 9, 1)]
    assert Trace.from_records(alone).footprints == {9: 0}


def test_footprints_of_a_parsed_trace():
    rows = _mixed_rows(11)
    parsed = Trace.from_records(parse_trace(format_record(r) for r in rows))
    assert parsed == Trace.from_records(rows)
    assert parsed.footprints == _footprints(rows)


def test_a_16_gib_trace_stays_below_the_scratch_window():
    trace = generate(SyntheticSpec(footprint_bytes=16 << 30, n_accesses=2000, seed=1))
    vpages = [v // PAGE_SIZE for v in trace.vaddrs]
    assert max(vpages) < SCRATCH_VBASE
    assert trace.footprints == {1: max(vpages) + 1}


def test_trace_is_a_sequence_of_rows():
    rows = _mixed_rows(3, n=20)
    trace = Trace.from_records(rows)
    assert len(trace) == 20
    assert trace[0] == rows[0] and trace[-1] == rows[-1]
    assert list(trace) == rows
    assert trace == Trace.from_records(iter(rows))
    assert trace != Trace.from_records(rows[:-1])
    assert Trace.from_records([]).footprints == {}
    with pytest.raises(IndexError):
        trace[20]


def test_trace_columns_are_checked():
    trace = Trace.from_records(_mixed_rows(1, n=4))
    with pytest.raises(ValueError):
        Trace("RWX" + trace.ops[3:], trace.vaddrs, trace.enclave_ids, trace.icounts)
    with pytest.raises(ValueError):
        Trace(trace.ops[1:], trace.vaddrs, trace.enclave_ids, trace.icounts)


@pytest.mark.parametrize(
    "line, problem",
    [
        (f"R {1 << 64:#x} 1 1", "vaddr"),
        (f"R 0x0 1 {1 << 64}", "icount"),
        (f"R 0x0 {1 << 32} 1", "enclave id"),
    ],
)
def test_parse_rejects_values_a_column_cannot_hold(line, problem):
    with pytest.raises(TraceParseError) as e:
        list(parse_trace(["R 0x0 1 0", line]))
    assert e.value.lineno == 2 and problem in str(e.value)
    top = f"R {(1 << 64) - 1:#x} {(1 << 32) - 1} {(1 << 64) - 1}"
    assert Trace.from_records(parse_trace([top]))[0].icount == (1 << 64) - 1


def test_a_trace_keeps_about_21_bytes_per_access():
    n = 100_000
    tracemalloc.start()
    try:
        trace = generate(SyntheticSpec(footprint_bytes=1 << 30, n_accesses=n))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == n
    assert held < 22 * n, f"{held / n:.1f} bytes per access held"
    assert peak < 40 * n, f"{peak / n:.1f} bytes per access at peak"
