"""Trace parsing and synthetic generation."""

import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim.workload import (
    SyntheticSpec,
    TraceParseError,
    TraceRecord,
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
