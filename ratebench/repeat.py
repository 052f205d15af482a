"""Repeat the benchmark over seeds and summarize the spread of each metric.

    python3 ratebench/repeat.py --seeds 1-10 --seconds 56 --out results.json
    python3 ratebench/repeat.py --workloads order4_200mode --seeds 1-5 --trace 1

For every workload and metric it records the per-seed values, their
median and their spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median. Use it for before/after comparisons on one machine.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

import run

HERE = pathlib.Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=56)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args()

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            run_s = time.monotonic() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report = json.loads((HERE / "_work" / workload / "results.json").read_text())
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "timed_samples": len(report["samples"]), "run_s": run_s})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            metrics[name] = {"median": med, "spread": spread, "values": vals}
            print(f"  {name:<30} median {med:.6g}  spread {spread:.4f}")
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}
        summary.setdefault("provenance", report["provenance"])
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
