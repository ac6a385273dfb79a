"""Command-line contract tests.

The exit-code contract (0 benign, 2 security event, 1 usage/config error,
3 models disagreeing on final memory) and byte-for-byte reproducibility of
written reports are stable interfaces; these tests drive `main` in process
with real files in a temp directory.
"""

import csv
import json
import re

import pytest

from enclavesim.cli import EXIT_MISMATCH, EXIT_OK, EXIT_SECURITY, EXIT_USAGE, main
from enclavesim.config import parse_size
from enclavesim.merkle import merkle_storage_bytes
from enclavesim.sim import MODELS, REPORT_COLUMNS

MIB = 1 << 20


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(workdir, name="run.json", **overrides):
    cfg = {
        "model": "secscale",
        "total_size": "16M",
        "epc_size": "256K",
        "workload": {"footprint": "512K", "n_accesses": 300},
    }
    cfg.update(overrides)
    path = workdir / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------- exit codes
def test_benign_run_exits_zero_and_writes_reports(workdir):
    rc = main(["run", write_config(workdir), "--out", "rep"])
    assert rc == EXIT_OK
    report = json.loads((workdir / "rep.json").read_text())
    assert report["model"] == "secscale"
    assert report["security_failure"] is None
    with open(workdir / "rep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(REPORT_COLUMNS)
    assert len(rows) == 2


def test_usage_errors_exit_one(workdir, capsys):
    assert main(["run", "--model", "warp-drive"]) == EXIT_USAGE
    assert main(["definitely-not-a-command"]) == EXIT_USAGE
    assert main(["run", str(workdir / "missing.json")]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_one_with_path(workdir, capsys):
    path = workdir / "bad.json"
    path.write_text(json.dumps({"workload": {"patern": "zipf"}}))
    assert main(["run", str(path)]) == EXIT_USAGE
    assert "workload.patern" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, path",
    [
        ({"freshness_mode": "bogus"}, "freshness_mode"),
        ({"workload": {"n_accesses": "100"}}, "workload.n_accesses"),
        ({"latency": {"dram_access_cycles": "100"}}, "latency.dram_access_cycles"),
        ({"eshr_entries": "4"}, "eshr_entries"),
        ({"seed": "3"}, "seed"),
        ({"eshr_entries": 0}, "eshr_entries"),
        # Random(-5) seeds as Random(5): the generator seed must be in range
        ({"workload": {"seed": -5}}, "workload: seed"),
        # JSON's NaN and Infinity parse to floats the spec must refuse
        ({"workload": {"accesses_per_instruction": float("nan")}}, "accesses_per_instruction"),
        ({"workload": {"accesses_per_instruction": float("inf")}}, "accesses_per_instruction"),
        ({"workload": {"zipf_s": float("nan")}}, "zipf_s"),
        ({"workload": {"zipf_s": float("inf")}}, "zipf_s"),
    ],
)
def test_bad_config_value_exits_one_with_path(workdir, capsys, config, path):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["run", str(bad)]) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and path in line


@pytest.mark.parametrize(
    "config, path",
    [
        ({"total_size": "1T"}, "total_size"),  # beyond the 39-bit space
        ({"total_size": "48M"}, "total_size"),  # not a power of two
        ({"epc_size": "3M"}, "epc_size"),
    ],
)
def test_size_the_layout_rejects_exits_one_with_path(workdir, capsys, config, path):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["run", str(bad)]) == EXIT_USAGE
    assert path in capsys.readouterr().err


# configurations that only fail once a model is built: the sizes leave no
# room for the metadata, or the trace's enclave does not fit; config -> what
# the error line must name
BUILD_ERRORS = {
    "footprint-over-forest": (
        {"total_size": "16M", "epc_size": "1M",
         "workload": {"footprint": "15M", "n_accesses": 2000}},
        "eEPC exhausted",
    ),
    "enclave-id-zero": (
        {"workload": {"footprint": "64K", "n_accesses": 50, "enclave_id": 0}},
        "enclave id 0",
    ),
    "total-16K": ({"total_size": "16K", "epc_size": "4K"}, "no eEPC space"),
    "total-32K": ({"total_size": "32K", "epc_size": "4K"}, "no eEPC space"),
    "secscale-epc-8K": ({"total_size": "1M", "epc_size": "8K"}, "two data slots"),
}


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("name", sorted(BUILD_ERRORS))
def test_build_errors_exit_one_with_one_error_line(workdir, capsys, command, name):
    config, problem = BUILD_ERRORS[name]
    cfg = write_config(workdir, models=["baseline", "secscale"], **config)
    assert main([command, cfg, "--out", "out"]) == EXIT_USAGE
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and problem in line
    assert not (workdir / "out.json").exists()


# every model hashes the seed's 8 bytes, so a seed outside them is a config
# error, whichever model or command would have met it first; the generator
# would take -5 for 5
@pytest.mark.parametrize(
    "argv",
    [["run", "--preset", "merkle-only", "--model", m, "--seed", "-1"] for m in MODELS]
    + [["compare", "--preset", "trend", "--seed", "-1"], ["gen-trace", "--seed", "-5"]],
    ids=[f"run-{m}" for m in MODELS] + ["compare-trend", "gen-trace"],
)
def test_negative_seed_exits_one_with_one_error_line(workdir, capsys, argv):
    assert main(argv + ["--out", "neg"]) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "seed" in line
    assert not (workdir / "neg.json").exists() and not (workdir / "neg").exists()


def test_seed_beyond_64_bits_exits_one_with_one_error_line(workdir, capsys):
    cfg = write_config(workdir, seed=1 << 64)
    assert main(["run", cfg, "--out", "big"]) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "seed" in line
    assert not (workdir / "big.json").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("name", ["paper.json", "paper.csv"])
def test_out_onto_the_config_exits_one_and_writes_nothing(workdir, capsys, command, name):
    # the config's path is absolute and --out is relative: both name one file
    cfg = write_config(workdir, name=name, models=["baseline", "secscale"])
    before = (workdir / name).read_bytes()
    assert main([command, cfg, "--out", "paper"]) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and name in line
    assert (workdir / name).read_bytes() == before
    assert [p.name for p in workdir.iterdir()] == [name]


# ------------------------------------------------------------ reproducibility
def test_same_config_twice_is_byte_identical(workdir):
    cfg = write_config(workdir)
    assert main(["run", cfg, "--out", "a"]) == EXIT_OK
    assert main(["run", cfg, "--out", "b"]) == EXIT_OK
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


def test_seed_flag_overrides_file(workdir):
    cfg = write_config(workdir, seed=1)
    assert main(["run", cfg, "--seed", "2", "--out", "s"]) == EXIT_OK
    assert json.loads((workdir / "s.json").read_text())["seed"] == 2


# -------------------------------------------------------------------- storage
def test_storage_table_at_512_gib(capsys):
    assert main(["storage"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "MAC forest            1096.00 MB" in out
    assert "EPC counter tree      2.06 MB over 128 MiB" in out
    assert "combined metadata     1098.06 MB" in out
    assert "key table             2.00 GiB" in out
    assert "1048576 entries, 8.00 MB in EPC" in out


def _exact(capsys, *argv):
    assert main(["storage", *argv]) == EXIT_OK
    out = capsys.readouterr().out
    return {
        k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", out.splitlines()[-1])
    }


def test_client_counter_storage_grows_linearly(capsys):
    sizes = ["64G", "128G", "256G", "512G"]
    curve = [_exact(capsys, "--total-size", s)["client_tree"] for s in sizes]
    for smaller, larger in zip(curve, curve[1:]):
        assert 1.99 < larger / smaller < 2.01


@pytest.mark.parametrize("size", ["64G", "128G", "256G", "512G"])
def test_full_memory_counters_line_is_the_client_tree(capsys, size):
    total = parse_size(size)
    assert main(["storage", "--total-size", size]) == EXIT_OK
    out = capsys.readouterr().out
    tree = merkle_storage_bytes(total)
    assert f"full-memory counters  {tree / MIB:.2f} MB" in out
    assert f"client_tree={tree} " in out
    # the counter tree doubles with the memory it covers
    assert 1.99 < tree / merkle_storage_bytes(total // 2) < 2.01


@pytest.mark.parametrize(
    "flag,size",
    [("--total-size", "0"), ("--total-size", "1K"), ("--total-size", "5000"),
     ("--epc-size", "5000")],
)
def test_storage_rejects_sizes_that_are_not_whole_pages(capsys, flag, size):
    assert main(["storage", flag, size]) == EXIT_USAGE
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,size",
    [("--total-size", "2T"), ("--total-size", "48M"), ("--epc-size", "3M")],
)
def test_storage_rejects_sizes_the_layout_cannot_build(capsys, flag, size):
    # 2T needs a 29-bit page index; the key format has 27 bits
    assert main(["storage", flag, size]) == EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_storage_rejects_an_epc_larger_than_memory(capsys):
    assert main(["storage", "--total-size", "1M", "--epc-size", "128M"]) == EXIT_USAGE
    assert "--epc-size" in capsys.readouterr().err


def test_single_region_forest_is_one_subtree(capsys):
    got = _exact(capsys, "--total-size", "512K", "--epc-size", "512K")
    # 128 leaves + 8 group digests + 1 region digest, 8 bytes each
    assert got["forest"] == (128 + 8 + 1) * 8


# -------------------------------------------------------------------- compare
def test_compare_needs_two_models(workdir, capsys):
    cfg = write_config(workdir, models=["secscale"])
    assert main(["compare", cfg]) == EXIT_USAGE
    assert "at least two models" in capsys.readouterr().err


def test_compare_duplicate_models_yield_identical_rows(workdir):
    cfg = write_config(workdir, models=["baseline", "secscale", "baseline"])
    assert main(["compare", cfg, "--out", "dup"]) == EXIT_OK
    with open(workdir / "dup.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert rows[1] == rows[3]  # same model, same row, twice
    assert rows[1] != rows[2]


def test_compare_reports_slowdown_vs_baseline(workdir):
    cfg = write_config(workdir, models=["baseline", "secscale"])
    assert main(["compare", cfg, "--out", "cmp"]) == EXIT_OK
    rows = json.loads((workdir / "cmp.json").read_text())
    by_model = {r["model"]: r for r in rows}
    assert by_model["baseline"]["slowdown"] == 1.0
    assert by_model["secscale"]["slowdown"] > 1.0
    assert by_model["secscale"]["dram_forest"] > 0


def test_compare_exits_three_when_models_disagree(workdir, capsys, broken_penglai):
    cfg = write_config(workdir, models=["secscale", "penglai"])
    assert main(["compare", cfg, "--out", "cmp"]) == EXIT_MISMATCH
    assert "disagree" in capsys.readouterr().err
    assert not (workdir / "cmp.json").exists()


def test_compare_sweep_rows_normalize_to_first(workdir):
    cfg = write_config(
        workdir,
        model="sgx-client",
        sweep=[
            {"latency": {"sgx_fault_penalty": p}} for p in (5000, 20000, 40000)
        ],
    )
    assert main(["compare", cfg, "--out", "sw"]) == EXIT_OK
    rows = json.loads((workdir / "sw.json").read_text())
    slows = [r["slowdown"] for r in rows]
    assert slows[0] == 1.0
    assert slows == sorted(slows)  # harsher penalty never helps


# ------------------------------------------------------------------ gen-trace
def test_gen_trace_run_round_trip(workdir):
    rc = main(
        ["gen-trace", "--pattern", "zipf", "--footprint", "256K",
         "--n-accesses", "120", "--seed", "4", "--out", "t.trace"]
    )
    assert rc == EXIT_OK
    cfg = write_config(workdir, workload={"trace": "t.trace"})
    assert main(["run", cfg, "--out", "replay"]) == EXIT_OK
    assert json.loads((workdir / "replay.json").read_text())["accesses"] == 120


def test_gen_trace_writes_gzip(workdir):
    import gzip

    assert main(["gen-trace", "--n-accesses", "10", "--out", "t.gz"]) == EXIT_OK
    with gzip.open(workdir / "t.gz", "rt") as fh:
        assert len(fh.readlines()) == 10


def test_gen_trace_rejects_bad_spec(workdir, capsys):
    rc = main(["gen-trace", "--read-frac", "1.5", "--out", "t.trace"])
    assert rc == EXIT_USAGE
    assert "read_frac" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--accesses-per-instruction", "nan", "accesses_per_instruction"),
        ("--accesses-per-instruction", "inf", "accesses_per_instruction"),
        ("--zipf-s", "nan", "zipf_s"),
        ("--zipf-s", "inf", "zipf_s"),
        ("--zipf-s", "-inf", "zipf_s"),
    ],
)
def test_gen_trace_rejects_non_finite_values(workdir, capsys, flag, value, key):
    # "--flag=value": argparse would read a bare "-inf" as an option
    assert main(["gen-trace", f"{flag}={value}", "--out", "t.trace"]) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and key in line
    assert not (workdir / "t.trace").exists()


# --------------------------------------------------------------------- attack
def test_attack_subcommand_summarizes_and_exits_two(workdir, capsys):
    rc = main(["attack", "--kinds", "tamper-data,tamper-key-slot", "--seeds", "2"])
    assert rc == EXIT_SECURITY
    out = capsys.readouterr().out
    assert "tamper-data" in out and "detected 2/2" in out
    rows = json.loads((workdir / "attacks.json").read_text())
    assert {r["kind"] for r in rows} == {"tamper-data", "tamper-key-slot"}


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_attack_rejects_non_positive_seeds(workdir, capsys, seeds):
    assert main(["attack", "--kinds", "tamper-data", "--seeds", seeds]) == EXIT_USAGE
    assert "--seeds" in capsys.readouterr().err
    assert not (workdir / "attacks.json").exists()


def test_attack_rejects_unknown_kind(capsys):
    assert main(["attack", "--kinds", "tamper-nothing"]) == EXIT_USAGE
    assert "tamper-nothing" in capsys.readouterr().err


# ----------------------------------------------------------- bad trace files
def _gz(data: bytes) -> bytes:
    import gzip

    return gzip.compress(data)


# trace files a run cannot read: (file name, its bytes or None for no file,
# command, what the one error line must say after "error: <file name>: ")
BAD_TRACES = {
    "missing-run": ("t.trace", None, "run", "No such file"),
    "missing-compare": ("t.trace", None, "compare", "No such file"),
    "corrupt-gz": ("t.gz", b"not gzip at all\n", "run", "Not a gzipped file"),
    "truncated-gz": ("t.gz", _gz(b"R 0x0 1 1\n" * 50)[:-12], "run", "ended"),
    "malformed-line": ("t.trace", b"R 0x0 1 1\nR 0x40 1\n", "run", "line 2: expected 4"),
    "icount-decreases": ("t.trace", b"R 0x0 1 10\nW 0x40 1 5\n", "run", "line 2: icount"),
    "vaddr-past-64-bits": (
        "t.trace", b"R 0x10000000000000000 1 1\n", "run", "line 1: vaddr",
    ),
    "icount-past-64-bits": (
        "t.trace", b"R 0x0 1 %d\n" % (1 << 64), "compare", "line 1: vaddr and icount",
    ),
    "enclave-id-past-32-bits": (
        "t.trace", b"R 0x0 1 1\nR 0x0 %d 2\n" % (1 << 32), "run", "line 2: enclave id",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_TRACES))
def test_bad_trace_file_exits_one_with_one_error_line(workdir, capsys, case):
    name, data, command, problem = BAD_TRACES[case]
    if data is not None:
        (workdir / name).write_bytes(data)
    cfg = write_config(workdir, models=["baseline", "secscale"], workload={"trace": name})
    assert main([command, cfg, "--out", "out"]) == EXIT_USAGE
    err = capsys.readouterr().err
    [line] = err.splitlines()
    assert line.startswith(f"error: {name}: ") and problem in line, line
    assert "Traceback" not in err
    assert not (workdir / "out.json").exists()


def test_gen_trace_into_a_missing_directory_exits_one(workdir, capsys):
    assert main(["gen-trace", "--n-accesses", "10", "--out", "no/t.trace"]) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: no/t.trace: No such file or directory"


def test_gzip_trace_replays_as_its_synthetic_run(workdir):
    spec = {"pattern": "strided", "footprint": "256K", "n_accesses": 200, "seed": 0}
    argv = ["gen-trace", "--out", "t.gz"]
    for key, value in spec.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert main(argv) == EXIT_OK
    for name, workload in (("synthetic", spec), ("replay", {"trace": "t.gz"})):
        cfg = write_config(workdir, name=f"{name}-cfg.json", workload=workload)
        assert main(["run", cfg, "--out", name]) == EXIT_OK
    assert (workdir / "replay.json").read_bytes() == (workdir / "synthetic.json").read_bytes()
