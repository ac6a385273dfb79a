"""Benchmark workloads, end-to-end hooks, correctness checks and metrics.

A workload is a sequence of units.  A unit is one fixed piece of work made
from a seed: one trace through ``sim.compare`` over a set of models, or --
for ``attack`` -- all ten attack kinds through ``adversary.run_attack``,
after a benign control comparison in the first ``MIN_UNITS`` units.  The seed of unit ``u`` is
``seed * 10_000 + u``, so a run's inputs depend on ``--seed`` alone.
Every unit starts with the program's functools caches emptied (the crypto
module keeps AES contexts and CTR keystreams in them), so a unit costs the
same whether it runs first, later, or in a replay of an earlier pass.

An operation is one model run or one staged attack.  Simulated statistics
start from an empty EPC and cold caches in every operation.  Simulated
figures (cycles, slowdown, traffic) are summed over the first
``MIN_UNITS`` units only, so they are exact functions of the seed; host
times cover every unit the run had time for.

The parameters below are the benchmark's own: config.PRESETS is not read,
so editing a preset cannot change what is measured.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import statistics
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from enclavesim import adversary, epc, sim, workload
from enclavesim.adversary import AttackConfig
from enclavesim.layout import PAGE_SIZE
from enclavesim.sim import SimConfig
from enclavesim.workload import SyntheticSpec

from tracing import ROOT, PatchSet, perf_ns

MAX_VERIFY_FOREST_ACCESSES = 4  # the paper's bound per verification
P99_MIN_BEYOND = 10  # samples that must lie beyond the reported p99
MIN_SAMPLES = 100 * P99_MIN_BEYOND
MIN_UNITS = 3  # simulated figures come from exactly these units

MIB = 1 << 20
ACCESS_GAP = 8000  # instructions per access, the paper's operating point


@dataclass(frozen=True)
class CompareSpec:
    spec: SyntheticSpec
    cfg: SimConfig
    models: tuple[str, ...]


THRASH = CompareSpec(
    SyntheticSpec(
        pattern="uniform", footprint_bytes=2 * MIB, n_accesses=2000,
        read_frac=0.7, accesses_per_instruction=1 / ACCESS_GAP,
    ),
    SimConfig(total_size=64 * MIB, epc_size=1 * MIB),
    ("secscale", "sgx-client", "dfp", "penglai", "baseline"),
)
# 70% writes, not 50%: read hits and write hits (which walk the counter tree
# and MAC the whole page) form two modes about 2.4x apart, and at an even
# mix the median falls between them and jumps from one to the other with
# the seed.  Here reads are ~29% of secscale calls and write hits ~68%, and
# 83% of write hits lie in one 50-60 us band (Xeon VM, Python 3), so the
# median falls at the write hits' 27th percentile, inside that band
RESIDENT = CompareSpec(
    SyntheticSpec(
        pattern="uniform", footprint_bytes=MIB // 2, n_accesses=4000,
        read_frac=0.3, accesses_per_instruction=1 / ACCESS_GAP,
    ),
    SimConfig(total_size=64 * MIB, epc_size=1 * MIB),
    ("secscale", "sgx-client", "baseline"),
)
ATTACK_CFG = AttackConfig(
    total_size=16 * MIB, epc_size=16 * PAGE_SIZE, n_pages=40, icount_gap=3000
)
# benign control on the attack configuration: no false positives, and the
# slowdown of the tiny, constantly evicting EPC the attacks run on.  Only
# the first MIN_UNITS units run it, as only their simulated figures count;
# 1,000 accesses a unit hold the slowdown's spread over seeds 100-109 to
# 0.008 of its median (300 gave 0.047)
ATTACK_CONTROL = CompareSpec(
    SyntheticSpec(
        pattern="uniform", footprint_bytes=ATTACK_CFG.n_pages * PAGE_SIZE,
        n_accesses=1000, read_frac=0.5,
        accesses_per_instruction=1 / ATTACK_CFG.icount_gap,
    ),
    SimConfig(total_size=ATTACK_CFG.total_size, epc_size=ATTACK_CFG.epc_size),
    ("secscale", "baseline"),
)


def unit_seed(seed: int, unit: int) -> int:
    return seed * 10_000 + unit


# ------------------------------------------------------------------ hooks
@dataclass
class ModelRun:
    op: int
    model: str
    run_ns: int
    build_ns: int
    report: sim.Report


class Recorder:
    """End-to-end hooks, on in every pass.

    Each costs a clock read or two per call: one timer around every
    ``sim.run`` (and the operation id), one around model and engine
    construction, and one around ``SecScaleEngine.access`` -- the per-call
    latency as its callers (the secscale model, the attack victim) see it.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latency = array("q")
        self.sampling = False
        self.model_runs: list[ModelRun] = []
        self.build_ns = 0  # construction time since the last reset
        self._building = 0
        self.next_op = 0

    def install(self, patches: PatchSet):
        # without these two the end-to-end metrics cannot be taken at all
        if not (patches.replace(sim, "run", self._hook_run)
                and patches.replace(epc.SecScaleEngine, "access", self._hook_access)):
            raise RuntimeError("sim.run or SecScaleEngine.access is gone")
        for cls in (*sim.MODEL_CLASSES.values(), epc.SecScaleEngine):
            patches.replace(cls, "__init__", self._hook_build)

    def begin_op(self) -> int:
        op = self.next_op
        self.next_op += 1
        if self.tracer is not None:
            self.tracer.current_op = op
        return op

    def end_op(self):
        if self.tracer is not None:
            self.tracer.current_op = -1

    def _hook_run(self, run):
        def timed_run(cfg, records, *args, **kwargs):
            op = self.begin_op()
            self.build_ns = 0
            t0 = perf_ns()
            try:
                report = run(cfg, records, *args, **kwargs)
            finally:
                self.end_op()
            self.model_runs.append(
                ModelRun(op, cfg.model, perf_ns() - t0, self.build_ns, report)
            )
            return report
        return timed_run

    def _hook_build(self, init):
        def timed_init(obj, *args, **kwargs):
            # nested constructors (a subclass calling its base, the secscale
            # model building its engine) count once, at the outermost level
            self._building += 1
            t0 = perf_ns()
            try:
                init(obj, *args, **kwargs)
            finally:
                self._building -= 1
                if not self._building:
                    self.build_ns += perf_ns() - t0
        return timed_init

    def _hook_access(self, access):
        lat = self.latency

        def timed_access(*args, **kwargs):
            if not self.sampling:
                return access(*args, **kwargs)
            t0 = perf_ns()
            try:
                return access(*args, **kwargs)
            finally:
                lat.append(perf_ns() - t0)
        return timed_access


# ----------------------------------------------------------------- checks
def row_digest(row: dict) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


def check_compare(reports: dict[str, sim.Report], trace_len: int) -> dict[str, list[str]]:
    """Failure reasons per model of one comparison; empty lists pass."""
    out = {m: [] for m in reports}
    for m, r in reports.items():
        if r.security_failure is not None:
            out[m].append(f"security failure on a benign trace: {r.security_failure}")
        if r.accesses != trace_len:
            out[m].append(f"completed {r.accesses} of {trace_len} accesses")
        if r.max_verify_forest_accesses > MAX_VERIFY_FOREST_ACCESSES:
            out[m].append(
                f"{r.max_verify_forest_accesses} forest accesses in one "
                f"verification (bound {MAX_VERIFY_FOREST_ACCESSES})"
            )
    # every model must end in the same memory state; the majority digest is
    # the reference, and with no majority every model fails
    digests = [r.final_state_digest for r in reports.values()]
    if len(set(digests)) > 1:
        ref, votes = Counter(digests).most_common(1)[0]
        if 2 * votes <= len(digests):
            ref = None
        for m, r in reports.items():
            if r.final_state_digest != ref:
                out[m].append("final memory state disagrees with the other models")
    return out


def check_attack(res: adversary.AttackResult) -> list[str]:
    if not res.detected:
        return [f"{res.kind} went undetected"]
    if not res.layer_matched:
        return [f"{res.kind} caught at an unexpected layer: {res.detail}"]
    return []


# ------------------------------------------------------------------ units
@dataclass
class UnitResult:
    unit: int
    seed: int
    setup_ns: int = 0
    timed_ns: int = 0
    accesses: int = 0
    latency: range = range(0)  # this unit's entries in Recorder.latency
    runs: list[ModelRun] = field(default_factory=list)
    attacks: list[adversary.AttackResult] = field(default_factory=list)
    attack_ns: list[int] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)  # {op, what, digest}
    failures: list[dict] = field(default_factory=list)  # {op, what, reason}

    @property
    def operations(self) -> int:
        return len(self.runs) + len(self.attacks)


def _compare(rec: Recorder, cs: CompareSpec, seed: int, out: UnitResult, *, sample: bool):
    t0 = perf_ns()
    records = workload.generate(dataclasses.replace(cs.spec, seed=seed))
    out.setup_ns += perf_ns() - t0
    first = len(rec.model_runs)
    rec.sampling = sample
    try:
        reports = sim.compare(dataclasses.replace(cs.cfg, seed=seed), records, cs.models)
    finally:
        rec.sampling = False
    runs = rec.model_runs[first:]
    problems = check_compare(reports, len(records))
    for r in runs:
        out.runs.append(r)
        out.setup_ns += r.build_ns
        out.rows.append({"op": r.op, "what": r.model,
                         "digest": row_digest(r.report.to_dict())})
        for reason in problems[r.model]:
            out.failures.append({"op": r.op, "what": r.model, "reason": reason})
    return runs


def compare_unit(cs: CompareSpec) -> Callable[[Recorder, int, int], UnitResult]:
    def run_unit(rec: Recorder, unit: int, seed: int) -> UnitResult:
        out = UnitResult(unit, seed)
        for r in _compare(rec, cs, seed, out, sample=True):
            out.timed_ns += r.run_ns - r.build_ns
            out.accesses += r.report.accesses
        return out
    return run_unit


def attack_unit(rec: Recorder, unit: int, seed: int) -> UnitResult:
    out = UnitResult(unit, seed)
    if unit < MIN_UNITS:
        _compare(rec, ATTACK_CONTROL, seed, out, sample=False)
    for kind in adversary.ATTACK_KINDS:
        op = rec.begin_op()
        rec.build_ns = 0
        calls = len(rec.latency)
        rec.sampling = True
        t0 = perf_ns()
        try:
            res = adversary.run_attack(kind, seed, ATTACK_CFG)
        finally:
            t1 = perf_ns()
            rec.sampling = False
            rec.end_op()
        out.attacks.append(res)
        out.attack_ns.append(t1 - t0)
        out.setup_ns += rec.build_ns
        out.timed_ns += t1 - t0 - rec.build_ns
        out.accesses += len(rec.latency) - calls
        out.rows.append({"op": op, "what": kind,
                         "digest": row_digest(dataclasses.asdict(res))})
        for reason in check_attack(res):
            out.failures.append({"op": op, "what": kind, "reason": reason})
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    run_unit: Callable[[Recorder, int, int], UnitResult]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("thrash", compare_unit(THRASH)),
        Workload("resident", compare_unit(RESIDENT)),
        Workload("attack", attack_unit),
    )
}


def clear_program_caches():
    """Empty every functools cache that an enclavesim module holds."""
    for name, module in list(sys.modules.items()):
        if name == "enclavesim" or name.startswith("enclavesim."):
            for obj in vars(module).values():
                if not isinstance(obj, type) and callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_pass(wl: Workload, rec: Recorder, seed: int, seconds: float,
             units: int | None = None) -> tuple[list[UnitResult], int]:
    """Run units for about ``seconds``; return the results and wall ns.

    Once ``MIN_UNITS`` units and ``MIN_SAMPLES`` access timings are in, the
    pass stops at the unit boundary nearest the deadline.  With ``units``
    given, it runs exactly that many (a replay of an earlier pass).
    """
    out: list[UnitResult] = []
    t0 = perf_ns()
    deadline = t0 + int(seconds * 1e9)
    while True:
        now = perf_ns()
        if units is not None:
            if len(out) == units:
                break
        elif (len(out) >= MIN_UNITS and len(rec.latency) >= MIN_SAMPLES
              and now + (now - t0) / len(out) / 2 >= deadline):
            break
        # every unit starts cold, in the untraced pass and in a replay
        clear_program_caches()
        # models hold reference cycles (the forest calls back into its
        # engine), so free the last unit's models now: otherwise the
        # collector frees them at a time that varies, inside a later unit's
        # timed phase, and peak memory depends on when it ran
        gc.collect()
        u = len(out)
        first = len(rec.latency)
        out.append(wl.run_unit(rec, u, unit_seed(seed, u)))
        out[-1].latency = range(first, len(rec.latency))
    return out, perf_ns() - t0


# ---------------------------------------------------------------- metrics
def percentile(sorted_vals, pct: int):
    """Nearest-rank percentile (pct of 100) of an ascending sequence."""
    return sorted_vals[max(0, -(-pct * len(sorted_vals) // 100) - 1)]


def end_to_end(units: list[UnitResult], rec: Recorder,
               peak_rss_mib: float) -> tuple[dict, dict]:
    """End-to-end metric values, and the sample counts behind them.

    A shared 2-core Xeon VM was seen to run the same code at two speeds, up
    to ~1.6x apart, each for seconds to minutes.  A statistic that
    picks one value from a narrow mode -- the median over all of a run's
    calls, or over its units -- then jumps between the two speeds with
    whichever held the larger share of the run.  So rates and the median
    latency are means over units, which move smoothly with that share:
    accesses over timed seconds, and the mean of each unit's median.  p99
    pools every call, for the samples it needs beyond it.
    """
    lat = sorted(rec.latency)
    unit_p50 = [
        percentile(sorted(rec.latency[u.latency.start:u.latency.stop]), 50)
        for u in units
    ]
    fixed = [r.report for u in units[:MIN_UNITS] for r in u.runs]
    sec = sum(r.total_cycles for r in fixed if r.model == "secscale")
    base = sum(r.total_cycles for r in fixed if r.model == "baseline")
    values = {
        "accesses_per_s": sum(u.accesses for u in units) / sum(u.timed_ns for u in units) * 1e9,
        "access_us_p50": statistics.fmean(unit_p50) / 1e3,
        "access_us_p99": percentile(lat, 99) / 1e3,
        "setup_s": statistics.median(u.setup_ns for u in units) / 1e9,
        "peak_rss_mib": peak_rss_mib,
        "secscale_slowdown": sec / base,
    }
    samples = {
        "access_samples": len(lat),
        "access_samples_beyond_p99": sum(1 for v in lat if v > percentile(lat, 99)),
        "setup_samples": len(units),
        "units": len(units),
        "timed_s": sum(u.timed_ns for u in units) / 1e9,
    }
    return values, samples


def simulated(units: list[UnitResult]) -> dict:
    """Per-layer simulated counts from the fixed units' secscale reports."""
    runs = [r for u in units[:MIN_UNITS] for r in u.runs]
    sec = [r.report for r in runs if r.model == "secscale"]
    out = {}
    for model in sim.MODELS:
        out[f"timing.{model}.total_cycles"] = sum(
            r.report.total_cycles for r in runs if r.model == model
        )
    total = sum(r.total_cycles for r in sec)
    accesses = sum(r.accesses for r in sec)
    evictions = sum(r.evictions for r in sec)
    rates = [r.top_cache_hit_rate for r in sec if r.top_cache_hit_rate is not None]
    out.update({
        "timing.secscale.critical_cycles": sum(r.critical_cycles for r in sec),
        "timing.secscale.stall_cycles": sum(r.stall_cycles for r in sec),
        "timing.secscale.lane_util": (
            sum(r.lane_busy_cycles for r in sec) / total if total else 0.0
        ),
        "forest.top_cache_hit_rate": statistics.fmean(rates) if rates else 0.0,
        "forest.dram_accesses": sum(r.dram.get("forest", 0) for r in sec),
        "forest.max_verify_accesses": max(
            (r.max_verify_forest_accesses for r in sec), default=0
        ),
        "merkle.dram_accesses": sum(r.dram.get("merkle", 0) for r in sec),
        "verifier.jobs": sum(r.verifier_jobs for r in sec),
        "verifier.max_depth": max((r.verifier_max_depth for r in sec), default=0),
        "epc.miss_frac": (
            sum(r.read_faults + r.write_faults for r in sec) / accesses
            if accesses else 0.0
        ),
        "epc.evictions": evictions,
        "epc.eshr_stalls": sum(r.eshr_stalls for r in sec),
        "epc.club_frac": (
            2 * sum(r.clubbed_pairs for r in sec) / evictions if evictions else 0.0
        ),
        "layout.dram_total": sum(r.dram_total for r in sec),
    })
    return out


def per_model_host(units: list[UnitResult]) -> dict:
    """sim.<model>.run_s and accesses_per_s over an untraced pass."""
    out = {}
    for model in sim.MODELS:
        runs = [r for u in units for r in u.runs if r.model == model]
        run_ns = sum(r.run_ns - r.build_ns for r in runs)
        out[f"sim.{model}.run_s"] = run_ns / 1e9
        out[f"sim.{model}.accesses_per_s"] = (
            sum(r.report.accesses for r in runs) / (run_ns / 1e9) if run_ns else 0.0
        )
    return out


def adversary_metrics(units: list[UnitResult]) -> dict:
    attacks = [a for u in units for a in u.attacks]
    times = [t for u in units for t in u.attack_ns]
    n = len(attacks)
    return {
        "adversary.attacks": n,
        "adversary.detected_frac": sum(a.detected for a in attacks) / n if n else 0.0,
        "adversary.layer_matched_frac": (
            sum(a.layer_matched for a in attacks) / n if n else 0.0
        ),
        "adversary.attack_s_p50": statistics.median(times) / 1e9 if times else 0.0,
    }


# span name -> (calls metric, self-time metric); None where not reported
SPAN_METRICS = {
    "crypto.page_cipher": ("crypto.page_cipher_calls", "crypto.page_cipher_s"),
    "crypto.mac": ("crypto.mac_calls", "crypto.mac_s"),
    "crypto.key_wrap": ("crypto.key_wrap_calls", "crypto.key_wrap_s"),
    "forest.verify": ("forest.verify_calls", "forest.verify_s"),
    "forest.update": ("forest.update_calls", "forest.update_s"),
    "forest.boot": (None, "forest.boot_s"),
    "merkle.read_verify": ("merkle.read_verify_calls", "merkle.read_verify_s"),
    "merkle.write_update": ("merkle.write_update_calls", "merkle.write_update_s"),
    "merkle.check_data": (None, "merkle.check_data_s"),
    "merkle.boot": (None, "merkle.boot_s"),
    "verifier.drain": (None, "verifier.drain_s"),
    "epc.access": ("epc.access_calls", "epc.self_s"),
    "epc.fault_step": ("epc.fault_step_calls", "epc.fault_step_s"),
    "epc.boot": (None, "epc.boot_s"),
    "layout.dram": ("layout.dram_calls", "layout.dram_s"),
    "workload.generate": (None, "workload.generate_s"),
    "sim.run": (None, None),
    "adversary.attack": (None, None),
}


def traced_metrics(tracer, untraced_wall_ns: int) -> dict:
    """Per-span calls and self times, the layer partition and the overhead.

    A span whose every target is gone from the program is left out, so its
    metrics read as absent rather than as zero.
    """
    out = {}
    spans = tracer.by_name()
    for name, (calls_key, self_key) in SPAN_METRICS.items():
        if name not in tracer.installed:
            continue
        calls, ns = spans[name]
        if calls_key:
            out[calls_key] = calls
        if self_key:
            out[self_key] = ns / 1e9
    for layer, ns in tracer.layer_self_ns().items():
        out[f"trace.{layer}_s" if layer == ROOT else f"trace.{layer}_self_s"] = ns / 1e9
    out["trace.wall_s"] = tracer.wall_ns / 1e9
    out["trace.overhead_frac"] = tracer.wall_ns / untraced_wall_ns - 1
    return out


def per_layer(units: list[UnitResult], tracer, untraced_wall_ns: int) -> dict:
    """Every per-layer metric: simulated counts and untraced host figures
    from the untraced pass, span figures from the traced replay."""
    return {
        **simulated(units),
        **per_model_host(units),
        **adversary_metrics(units),
        **traced_metrics(tracer, untraced_wall_ns),
    }
