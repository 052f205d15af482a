"""Regenerate the golden reference outputs bundled with the test suite.

The four-level deck is swept end to end and, at every temperature, the
full order-2 and order-4 generators (coherences included) and the
fundamental pair's 1/(2 T1) and 1/T2* sums are cross-checked against the
brute-force oracle's jump operators before anything is written: a golden
file only freezes numbers the slow reference path reproduces to 1e-10.
Outputs land in tests/golden/; the largest relative shift of each column
(and of the dominance factors) against the file being overwritten is
printed, for the change log.

Run from anywhere:  python scripts/make_golden.py
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import sys
import tempfile

import numpy as np

# the import order moves no bit: the tau solve pins its own one BLAS thread,
# and the scipy that oracles loads brings an OpenBLAS the package never calls
from spinphonon.bath import BathConfig
from spinphonon.config import load_config
from spinphonon.runner import PointEngine, run_sweep

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import oracles

DECK = ROOT / "decks" / "four_level.yaml"
GOLDEN = ROOT / "tests" / "golden"
ORACLE_TOL = 1e-10
DOMINANCE_TEMPS = (1.0, 1.41)


def verify_against_oracle(cfg) -> None:
    """Compare every generator element and the pair sums with the oracle.

    tau_s in the golden CSV is read off the generator, coherences included;
    t1_s, t2_s and t2star_s come from the fundamental pair's 1/(2 T1) and
    1/T2* sums (1/T2 = 1/(2 T1) + 1/T2*), which are checked against the
    oracle's jump-level sums. Orders 2 and 4 are checked separately (the
    CSV's order-4 rows are their sum).
    """
    eng = PointEngine(cfg)
    energies = eng.es.energies_cm1
    tol = cfg.secular_tol_cm1
    for t in cfg.temperatures_k:
        bath = BathConfig(modes=cfg.modes, temperature_k=t, broadening=cfg.broadening)
        vmats = oracles.coupling_matrices(eng.couplings, bath)
        jumps = {
            2: oracles.jumps_2(vmats, energies, bath, tol),
            4: oracles.jumps_4(
                vmats,
                energies,
                bath,
                tol,
                channels=cfg.channels,
                allow_same_mode=cfg.allow_same_mode,
                eta_cm1=cfg.regularizer_cm1,
            ),
        }
        for order, order_jumps in jumps.items():
            res = eng.build(order, t)
            ref = oracles.lindblad_from_jumps(order_jumps, eng.es.dim)
            err = np.abs(res.superoperator.dense() - ref).max() / np.abs(ref).max()
            sums = res.pair_sums(*eng.pair.indices)
            ref_sums = oracles.pair_rate_sums(order_jumps, *eng.pair.indices)
            got_sums = (sums.half_t1_rate, sums.dephasing_rate)
            sums_err = max(abs(x - y) for x, y in zip(got_sums, ref_sums)) / sum(ref_sums)
            if max(err, sums_err) > ORACLE_TOL:
                raise SystemExit(
                    f"oracle mismatch at T={t} K (order {order}): generator rel err"
                    f" {err:.3e}, pair sums rel err {sums_err:.3e}"
                )
            print(
                f"  T={t:>5} K order {order}: oracle rel err {err:.3e},"
                f" pair sums {sums_err:.3e}"
            )


def dominance_factors(cfg) -> dict:
    """Cumulative fourth-order (1/T2*) / (1/(2 T1)) at the coldest points."""
    eng = PointEngine(cfg)
    out = {"deck": DECK.name, "temperatures_K": [], "dephasing_over_t1": []}
    for t in DOMINANCE_TEMPS:
        reports = eng.rates(t, orders=(2, 4))
        rep = reports[4]
        factor = (2.0 * rep.t1_s) / rep.t2star_s
        out["temperatures_K"].append(t)
        out["dephasing_over_t1"].append(factor)
        print(f"  T={t} K: (1/T2*) / (1/(2 T1)) = {factor:.6f}")
    return out


def _csv_columns(text: str) -> dict[str, list[float]]:
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    return {name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(rows[0])}


def _largest_shift(old: list[float], new: list[float]) -> float:
    """max |new - old| / max(|old|, |new|); equal values (inf included) shift 0."""
    if len(old) != len(new):
        return math.inf
    worst = 0.0
    for x, y in zip(old, new):
        if x != y:
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(y - x) / scale if math.isfinite(scale) else math.inf)
    return worst


def report_shifts(path: pathlib.Path, new: dict[str, list[float]], old_of) -> None:
    """Print each column's largest relative shift against the file at path."""
    if not path.exists():
        print(f"  {path.name}: no previous file")
        return
    old = old_of(path.read_text())
    for name, values in new.items():
        shift = _largest_shift(old.get(name, []), values)
        print(f"  {path.name} {name}: largest relative shift {shift:.3e}")


def main() -> None:
    cfg = load_config(DECK)
    GOLDEN.mkdir(parents=True, exist_ok=True)

    print("verifying sweep against the brute-force oracle")
    verify_against_oracle(cfg)

    print("sweeping deck")
    with tempfile.TemporaryDirectory() as tmp:
        result = run_sweep(cfg, output_dir=tmp)
        fresh = pathlib.Path(result.rates_csv_path).read_text()
        report_shifts(GOLDEN / "four_level_rates.csv", _csv_columns(fresh), _csv_columns)
        shutil.copy(result.rates_csv_path, GOLDEN / "four_level_rates.csv")
    print(f"wrote {GOLDEN / 'four_level_rates.csv'}")

    print("recording low-temperature dephasing dominance")
    data = dominance_factors(cfg)
    path = GOLDEN / "dominance.json"
    key = "dephasing_over_t1"
    report_shifts(path, {key: data[key]}, lambda text: {key: json.loads(text)[key]})
    path.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
