"""Seeded deck generators for the rate-pipeline benchmark.

Each generator writes one YAML deck that the program reads as it would a
user's deck; the program never sees the seed. The same seed gives the
same bytes.

    python3 ratebench/decks.py order4_200mode --seed 2024 --out deck.yaml
"""

import argparse
import pathlib
import shutil

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
DECKS = ROOT / "decks"

DEFAULT_SEED = 2024
N_MODES = 200


def _num(x: float) -> str:
    # YAML 1.1 (PyYAML) reads "1e-05" as a string: the mantissa needs a dot
    s = repr(float(x))
    if "e" in s and "." not in s:
        s = s.replace("e", ".0e")
    return s


def _row(values) -> str:
    return "[" + ", ".join(_num(v) for v in values) + "]"


def order4_200mode(seed: int) -> str:
    """The 200-mode J = 15/2 order-4 system of the acceptance suite, as a deck.

    Same draws in the same order as
    test_fourth_order_build_is_fast_and_worker_independent: sorted uniform
    mode frequencies, then one random Hermitian complex M_J-basis matrix
    per mode.
    """
    rng = np.random.default_rng(seed)
    two_j = 15
    d = two_j + 1
    modes = np.sort(rng.uniform(1.0, 300.0, size=N_MODES))
    lines = [
        f"# order4_200mode, seed {seed}: J = 15/2, B20 = -1, {N_MODES} random modes",
        "model:",
        f"  two_j: {two_j}",
        "  stevens_terms_cm1:",
        "    - [2, 0, -1.0]",
        "bath:",
        "  modes_cm1: " + _row(modes),
        "coupling:",
        "  operators:",
    ]
    for _ in range(N_MODES):
        m = rng.normal(scale=0.3, size=(d, d)) + 1j * rng.normal(scale=0.3, size=(d, d))
        h = (m + m.conj().T) / 2.0
        lines.append("    - matrix_cm1:")
        lines.append("        basis: mj")
        for part, values in (("real", h.real), ("imag", h.imag)):
            lines.append(f"        {part}:")
            lines.extend("          - " + _row(r) for r in values)
    lines += [
        "sweep:",
        "  temperatures_k: [10.0]",
        "  orders: 4",
        "numeric:",
        "  regularizer_cm1: 1.0",
        "  workers: 1",
        "  broadening:",
        "    kind: gaussian",
        "    width_cm1: 3.0",
        "    cutoff_sigmas: 5.0",
        "outputs:",
        "  rates_csv: order4_200mode_rates.csv",
        "  fit_report: order4_200mode_fits.txt",
    ]
    return "\n".join(lines) + "\n"


def write_deck(workload: str, seed: int, out: pathlib.Path) -> None:
    """Write the deck of one workload; j15_2_sweep copies the bundled deck."""
    out.parent.mkdir(parents=True, exist_ok=True)
    if workload == "j15_2_sweep":
        shutil.copyfile(DECKS / "j15_2_toy.yaml", out)
    elif workload == "order4_200mode":
        out.write_text(order4_200mode(seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=("j15_2_sweep", "order4_200mode"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    write_deck(args.workload, args.seed, pathlib.Path(args.out))


if __name__ == "__main__":
    main()
