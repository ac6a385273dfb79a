"""Run one benchmark workload against the enclavesim sources in this checkout.

    python3 perfbench/run.py --workload thrash --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer wrappers.
``--trace 1`` makes an untraced pass for half the time, replays the same
units with every layer wrapped, and reports the per-layer metrics, the
tracing overhead, and whether both passes produced identical reports.
Metric names and units come from BENCHMARK.json at the checkout root.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results -- environment,
per-unit figures, report digests, failures -- go to
``perfbench/out/<workload>-seed<seed>-trace<k>.json``; the spans of a
traced pass to ``perfbench/out/<workload>-spans.csv.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("thrash", "resident", "attack")

NOTES = (
    "Host figures are time on the machine described under environment; "
    "simulated figures are cycles of the modelled hardware.",
    "Simulated statistics start with an empty EPC and cold caches in every "
    "model run and attack.",
    "The model is unvalidated against hardware: the repository holds no "
    "reference results, so no error figure is given.",
)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def environment() -> dict:
    try:
        crypto_version = metadata.version("cryptography")
    except metadata.PackageNotFoundError:
        crypto_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "enclavesim" / "__init__.py").is_file():
        return fail(f"no enclavesim sources under {SRC}")
    bench_json = ROOT / "BENCHMARK.json"
    if not bench_json.is_file():
        return fail(f"{bench_json} is missing")
    declared = json.loads(bench_json.read_text())
    sys.path.insert(0, str(SRC))
    import enclavesim
    if Path(enclavesim.__file__).resolve().parent != (SRC / "enclavesim").resolve():
        return fail(f"imported enclavesim from {enclavesim.__file__}, not {SRC}")

    import suite
    from tracing import PatchSet, Tracer

    wl = suite.WORKLOADS[args.workload]
    rec = suite.Recorder()
    with PatchSet() as patches:
        rec.install(patches)
        seconds = args.seconds / 2 if args.trace else args.seconds
        units, wall_ns = suite.run_pass(wl, rec, args.seed, seconds)

    failures = [dict(f, unit=u.unit) for u in units for f in u.failures]
    attempted = sum(u.operations for u in units)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "notes": NOTES,
        "units": [
            {"unit": u.unit, "seed": u.seed, "setup_s": u.setup_ns / 1e9,
             "timed_s": u.timed_ns / 1e9, "accesses": u.accesses,
             "operations": u.operations}
            for u in units
        ],
        # one digest per Report.to_dict() row (attack rows: AttackResult);
        # the fixed units' digest is an exact function of the seed
        "rows": [dict(r, unit=u.unit) for u in units for r in u.rows],
        "reports_digest": hashlib.sha256(
            "".join(r["digest"] for u in units[: suite.MIN_UNITS] for r in u.rows).encode()
        ).hexdigest(),
    }

    if not args.trace:
        values, samples = suite.end_to_end(units, rec, peak_rss_mib())
        result["samples"] = samples
        kind = "end_to_end"
    else:
        tracer = Tracer()
        traced_rec = suite.Recorder(tracer)
        with PatchSet() as patches:
            tracer.install(patches)
            traced_rec.install(patches)
            traced, _ = tracer.run(
                suite.run_pass, wl, traced_rec, args.seed, 0, units=len(units)
            )
        attempted += sum(u.operations for u in traced)
        failures += [dict(f, unit=u.unit, traced=True) for u in traced for f in u.failures]
        # the replay must reproduce every report of the untraced pass
        untraced_rows = [r for u in units for r in u.rows]
        traced_rows = [dict(r, unit=u.unit) for u in traced for r in u.rows]
        mismatched = [
            t for a, t in zip(untraced_rows, traced_rows)
            if (a["what"], a["digest"]) != (t["what"], t["digest"])
        ]
        result["traced_rows_match"] = not mismatched
        for t in mismatched:
            failures.append({"op": t["op"], "what": t["what"], "unit": t["unit"],
                             "traced": True,
                             "reason": "traced report differs from the untraced one"})
        result["missing_targets"] = tracer.missing
        values = suite.per_layer(units, tracer, wall_ns)
        result["spans"] = len(tracer.start)
        kind = "per_layer"

    metrics = {}
    for m in declared[kind]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            print(f"perfbench: metric {m['name']} is absent", file=sys.stderr)
    failed_ops = {(f.get("traced", False), f["unit"], f["op"]) for f in failures}
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": metrics,
    }
    result.update(failures=failures, metrics=values, summary=summary)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        tracer.write(out_dir / f"{args.workload}-spans.csv.gz")
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    for f in failures:
        print(f"FAILED unit {f['unit']} op {f['op']} {f['what']}: {f['reason']}")
    for name, v in metrics.items():
        print(f"{name:36s} {v['value']:.6g} {v['unit']}")
    if not args.trace:
        print("samples: " + ", ".join(f"{k}={v}" for k, v in result["samples"].items()))
    print(f"reports_digest {result['reports_digest']}  results {out_file.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
