"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload counterfactual-212 --seed 1 \\
        --seconds 15 --trace 0

Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``).  The full
record of the run (set-up breakdown, workload properties, checks, run
metadata) and, for traced runs, the spans are written under
``.perfbench_out/``.  Exits non-zero without a result when the program's
sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    record = harness.run(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT, args.out
    )
    values = dict(record["end_to_end"])
    values.update(record["workload_end_to_end"])
    if args.trace:
        values.update(record["per_layer"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        value = value["value"] if isinstance(value, dict) else value
        if not math.isfinite(value):
            print(f"metric {metric['name']} is not a finite number: {value}", file=sys.stderr)
            return 3
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}

    out = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} record={out}")
    for key in ("setup", "properties", "digest", "latency_tail", "checks", "meta"):
        print(f"# {key}: {json.dumps(record[key], default=str)}")
    shown = dict(metrics)
    for name, value in record["workload_end_to_end"].items():
        shown.setdefault(name, value)
    for name, value in shown.items():
        print(f"{name:>34} {value['value']:.6g} {value['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(record["correct"]),
                "attempted": int(record["attempted"]),
                "failed": int(record["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
