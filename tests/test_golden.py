"""Golden outputs: the CLI's files and stdout, pinned by sha256.

Every preset runs through the CLI on a capped config (short workloads, two
attack seeds), and the digests of its `.json`, `.csv` and stdout are compared
with values recorded from an earlier version of the code.  `storage` at its
defaults, two `gen-trace` files and three secscale `run`s that reach paths no
preset does are pinned the same way.  A refactor that claims to keep outputs
byte-identical must leave the recorded digests untouched; a change that means
to move a number updates the digest it moves and says why.
"""

import hashlib
import json

import pytest

from enclavesim.cli import main

CAPPED_ACCESSES = 1500
CAPPED_SEEDS = 2

# preset -> (subcommand, config file capping its workload or attack suite)
PRESET_RUNS = {
    "trend": ("compare", {"workload": {"n_accesses": CAPPED_ACCESSES}}),
    "ablation": ("compare", {"workload": {"n_accesses": CAPPED_ACCESSES}}),
    "fault-sweep": ("compare", {"workload": {"n_accesses": CAPPED_ACCESSES}}),
    "merkle-only": ("run", {"workload": {"n_accesses": CAPPED_ACCESSES}}),
    "fault-only": ("run", {"workload": {"n_accesses": CAPPED_ACCESSES}}),
    "attack-suite": ("run", {"attack": {"seeds": CAPPED_SEEDS}}),
}

# secscale paths no preset reaches: `run` on the capped trend config with one
# override each (ESHR stalls and refaults, the blocking drain, counter keys)
SECSCALE_RUNS = {
    "eshr-2": {
        "eshr_entries": 2,
        "workload": {"n_accesses": CAPPED_ACCESSES, "accesses_per_instruction": 0.01},
    },
    "blocking": {"deferred": False, "workload": {"n_accesses": CAPPED_ACCESSES}},
    "counter-freshness": {
        "freshness_mode": "counter",
        "workload": {"n_accesses": CAPPED_ACCESSES},
    },
}

GEN_TRACE_ARGS = {
    "defaults": [],
    "every-flag": [
        "--pattern", "strided", "--footprint", "3M", "--n-accesses", "700",
        "--read-frac", "0.4", "--accesses-per-instruction", "0.002",
        "--zipf-s", "0.8", "--stride", "8K", "--enclave-id", "3", "--seed", "11",
    ],
}

GOLDEN = {
    "preset:ablation": {
        "exit": 0,
        "stdout": "bee42f4ec8f04cedad601bce3a416489a15c8a975ef9e4824a9fddac06ebb6b5",
        "json": "b53f9ea0d09931f4d8839844e63a2334876089c59a86790898817b8196b442f6",
        "csv": "679b98a3febf202cfd908702ec33808a381844a5144c65ed0884e275072ab16f",
    },
    "preset:attack-suite": {
        "exit": 2,
        "stdout": "03865394475dbf9221968b34a7cb1ef39e60bf7f1977b3f61f028aacc2f2ff30",
        "json": "2ccae94097642a2cf04e70cd242faa7883b648c1e99c1ac78cbc27e5904cfab0",
        "csv": "7cab8d809d423de686c50eac64447e2a0dea2b2406d70473f1082dceadae0f71",
    },
    "preset:fault-only": {
        "exit": 0,
        "stdout": "1841142526fda37345de71bd3077fd82a90907f96a420e4861c0b92a56e4412a",
        "json": "704f2933098c0eacec480891431b2ffb111ffbb765326cea53b5cfefdf24ff28",
        "csv": "6d39e6a528c1a4936a079d115c82f589f5b55ce1e2a99474b4ff1d86dd77e5bc",
    },
    "preset:fault-sweep": {
        "exit": 0,
        "stdout": "9cd2670975d78ee417a782a134e5dac7e6411eae54e6023954d3de90c541d76d",
        "json": "88c60b1886b6bb1a500ebb45df62393f97b3d057e6d8840b0505680e080d7e2a",
        "csv": "71328b209222af17d13a00feab6cf8e28be7b3b3d561a3d568d457eea5960f2f",
    },
    "preset:merkle-only": {
        "exit": 0,
        "stdout": "73956543d0a7c30f541daa361e086a7cee28d4df713c76cedd41f977265c5f16",
        "json": "a336cdf6658fcaa52cd4039d39f230ae55369e3a820db62184d26aaa6e6345bf",
        "csv": "063fe7bfc386058dcea911a7294c51819d9506e74a52573f3da20a9092c0d159",
    },
    "preset:trend": {
        "exit": 0,
        "stdout": "b05b8db5145f39b0c072172c647e476f9aea26c6b543e932903089336a1c1248",
        "json": "c8a0e44c9dac6f94e39298f4c333878b4de86d133471ac159fdc4d694e45ea3b",
        "csv": "eb96290e5b51c76cfc83ed47eb24684965fa3d550c01e7cc493b11c51d9abcc4",
    },
    "secscale:blocking": {
        "exit": 0,
        "stdout": "130fef9cedd89a2f9ed7b8c949a2535ed4f898f56f9b1a44da987feb74d1d226",
        "json": "cc6d39649f76b39fce460820b0722403528fe59b43b43b0230250a8f44f634fa",
        "csv": "e3022efdba885519ccb4c556368f4d68bed8175064f7ec399de9a31fc6891bb6",
    },
    "secscale:counter-freshness": {
        "exit": 0,
        "stdout": "3b79f77ab6934883b2d49a34a98a61ae08cdeda1319560d5b95523de0a300e9c",
        "json": "3226b66e78e5877fb6f6e50467871c326a946a69667cf519179cf0a8dfa41032",
        "csv": "c23aa103a72d9ce7b96d9f63d13bd8d58b0a46f9ce1afdc138715c030adbcf33",
    },
    "secscale:eshr-2": {
        "exit": 0,
        "stdout": "1f0255b7d86989c8695c11c10ea2a8520b5a79b805d4842f17d5b4a4bcaade78",
        "json": "fb8c3def04e2c103d7b1719574e7bcb20ea4d57d42616114d15da67a73f5f2e5",
        "csv": "8fc8c6f7f175818793c421d64f1e6751cccbeae7b3c46943f5e5000073f28bb5",
    },
    "storage": {
        "exit": 0,
        "stdout": "4753a4daa0c618bf1dcbd396b66d9b5d8c197f0efeda42e4d71d6f44af8e1222",
    },
    "gen-trace:defaults": {
        "exit": 0,
        "stdout": "00e51f6e1bbae420ed5d29b02cf07ec8132cf0f4167e1c8ddfb977ab87d8f9dc",
        "trace": "1dfd92ec283c7ea89fab34297013f93d8c080b1418c4c9b5816db35cf74fbfff",
    },
    "gen-trace:every-flag": {
        "exit": 0,
        "stdout": "4f81615868bcbd39ef2ec0d2dfa981629d78c4580cc9fa88a8f03f6abbc936f9",
        "trace": "b2f7f740310eef6bee40506c0d9872944276e89f30f83ce81e7a5b6610bc9c18",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _preset_outputs(workdir, capsys, preset, command, capped):
    cfg = workdir / "capped.json"
    cfg.write_text(json.dumps(capped))
    rc = main([command, str(cfg), "--preset", preset, "--out", "out"])
    return {
        "exit": rc,
        "stdout": _sha(capsys.readouterr().out.encode()),
        "json": _sha((workdir / "out.json").read_bytes()),
        "csv": _sha((workdir / "out.csv").read_bytes()),
    }


def _storage_outputs(workdir, capsys):
    rc = main(["storage"])
    return {"exit": rc, "stdout": _sha(capsys.readouterr().out.encode())}


def _gen_trace_outputs(workdir, capsys, name):
    rc = main(["gen-trace", *GEN_TRACE_ARGS[name], "--out", "t.trace"])
    return {
        "exit": rc,
        "stdout": _sha(capsys.readouterr().out.encode()),
        "trace": _sha((workdir / "t.trace").read_bytes()),
    }


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("preset", sorted(PRESET_RUNS))
def test_preset_outputs_match_golden(workdir, capsys, preset):
    outputs = _preset_outputs(workdir, capsys, preset, *PRESET_RUNS[preset])
    assert outputs == GOLDEN[f"preset:{preset}"]


@pytest.mark.parametrize("name", sorted(SECSCALE_RUNS))
def test_secscale_run_outputs_match_golden(workdir, capsys, name):
    outputs = _preset_outputs(workdir, capsys, "trend", "run", SECSCALE_RUNS[name])
    assert outputs == GOLDEN[f"secscale:{name}"]


def test_storage_output_matches_golden(workdir, capsys):
    assert _storage_outputs(workdir, capsys) == GOLDEN["storage"]


@pytest.mark.parametrize("name", sorted(GEN_TRACE_ARGS))
def test_gen_trace_output_matches_golden(workdir, capsys, name):
    assert _gen_trace_outputs(workdir, capsys, name) == GOLDEN[f"gen-trace:{name}"]
