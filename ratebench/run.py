"""Rate-pipeline benchmark: deck -> load_config -> run_sweep, one process per sample.

    python3 ratebench/run.py --workload j15_2_sweep --seed 1 --seconds 56 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. Each sample is a fresh interpreter (``child.py``)
making the calls ``spinphonon run`` makes, so import and deck parsing
count. Samples run one after another while the next one should end
nearer to ``--seconds`` than stopping now would. BLAS is pinned to one
thread and the sweep runs with workers=1, so the benchmark never asks for
more threads than the two cores of the machine it was tuned on.

``--trace 0`` reports the end-to-end metrics (medians over the samples).
``--trace 1`` traces the second sample (see ``tracing.py``) and reports
the per-layer metrics; the untraced samples of the same run give the
tracing overhead. Every sample's CSV is checked, and one untimed oracle
spot-check runs per invocation. The last line of standard output is the
JSON result; a fuller record goes to ``ratebench/_work/<workload>/``.
"""

import argparse
import csv
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import decks
import tracing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
REQUIRED = (SRC / "spinphonon" / "cli.py", TESTS / "oracles.py", ROOT / "decks" / "j15_2_toy.yaml")

# points = fields x temperatures; rows = points x orders. j15_2 is the
# bundled deck, so --seed does not change it. The random couplings of the
# 200-mode system leave its tau assignment marginal (overlap 0.507 at seed
# 2024; seed 3 is refused with 0.345 < 0.5), so that workload keeps the
# acceptance-suite system whatever --seed says (deck_seed). A reference
# is the CSV the program wrote at the seed baseline.
WORKLOADS = {
    "j15_2_sweep": dict(
        points=10, orders=2, deck_seed=None, oracle={"temperature_k": 20.0, "orders": [2, 4]},
        reference=HERE / "j15_2_reference.csv",
    ),
    # the order-4 oracle of 200 modes takes minutes; the order-2 block is checked
    "order4_200mode": dict(
        points=1, orders=1, deck_seed=decks.DEFAULT_SEED,
        oracle={"temperature_k": 10.0, "orders": [2]}, reference=None,
    ),
}

IDENTITY_RTOL = 1e-9  # 1/T2 = 1/(2 T1) + 1/T2*, as in the acceptance suite
OVERLAP_MIN = 0.5
# bitwise equal at the seed baseline; tau is 1/(the smallest nonzero eigenvalue)
# of a matrix whose rates span eight decades, so another eig may move it ~1e-8
REFERENCE_RTOL = 1e-6
ORACLE_RTOL = 1e-10  # as in the acceptance suite
CHILD_TIMEOUT_S = 150.0
EXIT_MARGIN_S = 0.3  # interpreter teardown after run_sweep returns, for planning only

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(job: dict, work: pathlib.Path, tag: str, deadline: float) -> dict:
    """Spawn one child, wait for it, return its record plus t_spawn and exit code."""
    job_path = work / f"job_{tag}.json"
    job = dict(job, result=str(work / f"result_{tag}.json"))
    job_path.write_text(json.dumps(job))
    result_path = pathlib.Path(job["result"])
    result_path.unlink(missing_ok=True)
    with open(work / f"log_{tag}.txt", "w") as log:
        t_spawn = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            env=child_env(), cwd=str(work), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=max(1.0, min(CHILD_TIMEOUT_S, deadline - clock())))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    rec = json.loads(result_path.read_text()) if code == 0 and result_path.exists() else {}
    rec.update(t_spawn=t_spawn, exit_code=code)
    return rec


def _inv(x: float) -> float:
    return 0.0 if math.isinf(x) else (math.inf if x == 0.0 else 1.0 / x)


def read_rows(path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def row_problems(row: dict) -> list[str]:
    t1, t2, t2s = float(row["t1_s"]), float(row["t2_s"]), float(row["t2star_s"])
    out = []
    if not (t1 > 0.0 and t2 > 0.0):
        out.append("T1 or T2 not positive")
    lhs, rhs = _inv(t2), _inv(2.0 * t1) + _inv(t2s)
    if abs(lhs - rhs) > IDENTITY_RTOL * max(abs(lhs), abs(rhs), 1e-300):
        out.append("1/T2 != 1/(2 T1) + 1/T2*")
    if not float(row["overlap_score"]) >= OVERLAP_MIN:
        out.append("overlap_score < 0.5")
    return out


def reference_problems(row: dict, ref: dict) -> list[str]:
    out = []
    for col, want in ref.items():
        w, g = float(want), float(row[col])
        # a blocked (inf) reference value may later be resolved: accept any value
        if not math.isinf(w) and not abs(g - w) <= REFERENCE_RTOL * abs(w):
            out.append(f"{col} {g!r} != reference {w!r}")
    return out


def check_sample(rec: dict, workload: str) -> tuple[set[int], list[str]]:
    """Indices of failed points and the problems found in one sample's CSV."""
    spec = WORKLOADS[workload]
    n_points, n_orders = spec["points"], spec["orders"]
    every = set(range(n_points))
    if rec["exit_code"] != 0 or "rates_csv" not in rec:
        return every, [f"child exit code {rec['exit_code']}"]
    rows = read_rows(rec["rates_csv"])
    if len(rows) != n_points * n_orders:
        return every, [f"{len(rows)} rows, expected {n_points * n_orders}"]
    reference = read_rows(spec["reference"]) if spec["reference"] else []
    failed, problems = set(), []
    for i, row in enumerate(rows):
        found = row_problems(row)
        if reference:
            found += reference_problems(row, reference[i])
        if found:
            failed.add(i // n_orders)
            problems.append(f"row {i}: " + "; ".join(found))
    return failed, problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def sample_metrics(rec: dict, workload: str) -> dict:
    sweep = rec["t_swept"] - rec["t_loaded"]
    return {
        "wall_s": rec["t_swept"] - rec["t_spawn"],
        "setup_s": rec["t_loaded"] - rec["t_spawn"],
        "points_per_s": WORKLOADS[workload]["points"] / sweep,
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def layer_metrics(spans_path: pathlib.Path, traced: dict, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced sample, and the self-time table behind them."""
    data = json.loads(spans_path.read_text())
    spans, counters = data["spans"], data["counters"]
    agg = tracing.summarize(spans)

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    delta_calls, delta_s = tracing.under(spans, "generators.build4", "bath.delta")
    sweep = [s for s in spans if s[0] == "runner.run_sweep"]
    last_point = max((s[2] for s in spans if s[0] == "runner.rates"), default=None)
    after_loop = sweep[0][2] - last_point if sweep and last_point is not None else 0.0
    speedup = traced.get("speedup", {}).get("speedup", 0.0)
    m = {
        "cli.import_s": (total("cli.import"), "s"),
        "config.load_s": (total("config.load"), "s"),
        "config.resolve_s": (total("config.resolve"), "s"),
        "config.parse_s": (total("config.load") - total("config.resolve"), "s"),
        "runner.prepare_s": (total("runner.prepare"), "s"),
        "runner.prepare_calls": (calls("runner.prepare"), "count"),
        "spin_model.eigensystem_s": (total("spin_model.eigensystem"), "s"),
        "spin_model.eigensystem_calls": (calls("spin_model.eigensystem"), "count"),
        "spin_model.easy_axis_s": (total("spin_model.easy_axis"), "s"),
        "coupling.build_s": (total("coupling.build"), "s"),
        "coupling.operators_built": (calls("coupling.build"), "count"),
        "generators.build2_s": (total("generators.build2"), "s"),
        "generators.build2_calls": (calls("generators.build2"), "count"),
        "generators.build4_s": (total("generators.build4"), "s"),
        "generators.build4_calls": (calls("generators.build4"), "count"),
        "generators.jumps": (int(counters.get("generators.jumps4", 0)), "count"),
        "generators.tmatrix_products": (calls("generators.tmatrix"), "count"),
        "generators.blockmeta_s": (total("generators.blockmeta"), "s"),
        "generators.blockmeta_builds": (calls("generators.blockmeta"), "count"),
        "bath.delta_calls": (delta_calls, "count"),
        "bath.delta_s": (delta_s, "s"),
        "generators.build4_speedup_w2": (speedup, "x"),
        "dynamics.extract_tau_s": (total("dynamics.extract_tau"), "s"),
        "dynamics.extract_tau_calls": (calls("dynamics.extract_tau"), "count"),
        "dynamics.eig_s": (total("dynamics.eig"), "s"),
        "dynamics.eig_calls": (calls("dynamics.eig"), "count"),
        "dynamics.eig_dim_max": (int(counters.get("dynamics.eig_dim_max", 0)), "count"),
        "dynamics.eig_flops_computed": (counters.get("dynamics.eig_flops_computed", 0), "n3"),
        "dynamics.pair_t2_s": (total("dynamics.pair_t2"), "s"),
        "runner.write_s": (after_loop - total("dynamics.fit"), "s"),
        "dynamics.fit_s": (total("dynamics.fit"), "s"),
        "trace.overhead_s": (traced["t_swept"] - traced["t_spawn"] - untraced_wall, "s"),
    }
    return m, {"self_times": agg, "missing": data["missing"], "speedup": traced.get("speedup")}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=decks.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=56.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = clock() + 170.0  # every run must end within 180 s

    absent = [str(f.relative_to(ROOT)) for f in REQUIRED if not f.is_file()]
    if absent:
        print(f"not a spinphonon source checkout; missing: {', '.join(absent)}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deck = work / "deck.yaml"
    deck_seed = args.seed if spec["deck_seed"] is None else spec["deck_seed"]
    decks.write_deck(args.workload, deck_seed, deck)

    probe = run_child({"probe": True, "trace": False}, work, "probe", deadline)
    prov = probe.get("provenance")
    if prov is None:
        print(f"the program does not import; see {work / 'log_probe.txt'}", file=sys.stderr)
        return 1
    if not pathlib.Path(prov["spinphonon_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"imported {prov['spinphonon_file']}, not the checkout's src/", file=sys.stderr)
        return 1

    base = {"deck": str(deck), "out_dir": str(work / "out"), "tests_dir": str(TESTS)}
    samples: list[dict] = []
    # a traced run traces its second sample, between untraced ones, so the
    # untraced median it is compared with brackets it in time
    need = 3 if args.trace else 1
    t0 = clock()
    while True:
        traced = bool(args.trace) and len(samples) == 1
        job = dict(base, trace=traced, spans=str(work / "spans.json"))
        if not samples:
            job["oracle"] = spec["oracle"]
        rec = run_child(job, work, str(len(samples)), deadline)
        rec["trace_sample"] = traced
        rec["failed_points"], rec["problems"] = check_sample(rec, args.workload)
        samples.append(rec)
        timed = [s for s in samples if "t_swept" in s and not s["trace_sample"]]
        if not timed:
            if len(samples) >= need:
                break
            continue
        # start another sample if it should end nearer to --seconds than stopping
        # now: a run measures about --seconds even when samples are long
        est = statistics.median(s["t_swept"] - s["t_spawn"] for s in timed) + EXIT_MARGIN_S
        if len(samples) >= need and clock() - t0 + est / 2 > args.seconds:
            break
        if clock() + est > deadline - 5.0:
            break

    attempted = spec["points"] * len(samples)
    failed = sum(len(s["failed_points"]) for s in samples)
    oracle = samples[0].get("oracle")
    oracle_ok = spec["oracle"] is None or (
        oracle is not None and all(e <= ORACLE_RTOL for e in oracle.values())
    )
    timed = [s for s in samples if "t_swept" in s and not s["trace_sample"]]
    if not timed:
        print(f"no sample completed; see the logs in {work}", file=sys.stderr)
        return 1

    per_sample = [sample_metrics(s, args.workload) for s in timed]
    summary = {}
    for name, unit in END_TO_END.items():
        q1, med, q3 = quartiles([m[name] for m in per_sample])
        summary[name] = {"value": med, "q1": q1, "q3": q3, "n": len(per_sample), "unit": unit}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "deck_seed": deck_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "attempted_points": attempted,
        "failed_points": failed,
        "failed_frac": failed / attempted,
        "oracle_rel_err": oracle,
        "problems": [p for s in samples for p in s["problems"]][:50],
        "end_to_end": summary,
        "samples": per_sample,
    }
    traced_rec = next((s for s in samples if s["trace_sample"]), {})
    if args.trace and "t_swept" not in traced_rec:
        print(f"the traced sample did not complete; see {work / 'log_1.txt'}", file=sys.stderr)
        return 1
    if args.trace:
        layers, detail = layer_metrics(work / "spans.json", traced_rec, summary["wall_s"]["value"])
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["trace"] = detail
        metrics = report["per_layer"]
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in summary.items()}
    (work / "results.json").write_text(json.dumps(report, indent=1))

    blas = ", ".join(f"{b['library']}: {b.get('threads')} thread(s)" for b in prov["openblas"])
    print(f"# {args.workload} seed={args.seed} trace={args.trace} samples={len(samples)} "
          f"nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']} "
          f"scipy={prov['scipy']} openblas=[{blas}]")
    for name, s in summary.items():
        print(f"  {name:<14} median {s['value']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n={s['n']}")
    print(f"  failed_frac    {failed}/{attempted} = {failed / attempted:.6g}  "
          f"oracle {oracle}")
    if args.trace:
        for name, m in report["per_layer"].items():
            print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
        if report["trace"]["missing"]:
            print(f"  not traced (gone from the program): {report['trace']['missing']}")
    for problem in report["problems"][:5]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": failed == 0 and oracle_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
