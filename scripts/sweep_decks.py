"""Sweep every bundled deck and print a compact rate table.

Convenience driver for eyeballing the bundled models: runs each deck
end to end (CSV + fit report land next to each other in --out) and
prints tau, T1, T2 and T2* per temperature and order, then any
activation fits the deck requested.

Run from anywhere:  python scripts/sweep_decks.py [--out DIR] [--decks NAME ...]
"""

from __future__ import annotations

import argparse
import pathlib
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

from spinphonon.config import load_config
from spinphonon.runner import run_sweep

DECKS = sorted((ROOT / "decks").glob("*.yaml"))


def fmt(seconds: float) -> str:
    if seconds != seconds or seconds == float("inf"):
        return "blocked"
    return f"{seconds:.3e}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="sweep_out", help="output directory")
    ap.add_argument(
        "--decks", nargs="*", default=None,
        help="deck file names to run (default: all bundled)",
    )
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    decks = DECKS
    if args.decks:
        decks = [ROOT / "decks" / name for name in args.decks]

    for deck in decks:
        cfg = load_config(deck)
        t0 = time.perf_counter()
        result = run_sweep(cfg, output_dir=str(out))
        elapsed = time.perf_counter() - t0
        print(f"\n== {deck.name}  ({len(result.rows)} rows, {elapsed:.1f} s)")
        print(f"   {'T/K':>6} {'order':>5} {'tau/s':>11} {'T1/s':>11} "
              f"{'T2/s':>11} {'T2*/s':>11}")
        for row in result.rows:
            rep = row.report
            print(f"   {rep.temperature_k:>6g} {rep.order:>5d} "
                  f"{fmt(rep.tau_s):>11} {fmt(rep.t1_s):>11} "
                  f"{fmt(rep.t2_s):>11} {fmt(rep.t2star_s):>11}")
        for request, fit in result.fit_results:
            print(f"   fit {request.quantity} [{request.fit_model}] "
                  f"window {fit.window_k[0]:g}..{fit.window_k[1]:g} K: "
                  f"U = {fit.u_cm1:.2f} cm^-1, "
                  f"prefactor = {fit.prefactor_per_s:.3e} 1/s, "
                  f"residual = {fit.residual:.2e}")
        print(f"   wrote {result.rates_csv_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
