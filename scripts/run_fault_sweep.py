#!/usr/bin/env python3
"""Page-fault penalty sensitivity of the synchronous-fault design.

Sweeps the fault handling penalty over {5k, 10k, 20k, 30k, 40k} cycles on
the thrashing trace; total cycles must grow monotonically with the penalty.
"""

import argparse
import csv
import sys

from enclavesim.config import expand_sweep, merge_layers
from enclavesim.sim import REPORT_COLUMNS, run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="fault_sweep.csv")
    args = ap.parse_args(argv)

    rows = expand_sweep(merge_layers(preset="fault-sweep", overrides={"seed": args.seed}))
    totals = []
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("fault_penalty",) + REPORT_COLUMNS)
        for rc in rows:
            rep = run(rc, rc.records())
            writer.writerow([rc.latency.sgx_fault_penalty] + rep.csv_row())
            totals.append((rc.latency.sgx_fault_penalty, rep.total_cycles))
            print(f"penalty {rc.latency.sgx_fault_penalty:>6}: {rep.total_cycles} cycles")

    monotone = all(a[1] <= b[1] for a, b in zip(totals, totals[1:]))
    print(f"monotone: {monotone} -> {args.out}")
    return 0 if monotone else 1


if __name__ == "__main__":
    sys.exit(main())
