"""Print one sha256 per generator build, so two checkouts' bits can be diffed.

Each line names a deck, field, temperature, order and channel set, and
hashes what PointEngine.build returns there: dense(), weights, dephasing,
jump_count and prefilter_tasks. Order 2 is built once per point; order 4
with the deck's channels, with every channel, and with every channel
and same-mode pairs. "The bits did not change" is then an empty diff:

  PYTHONPATH=<old>/src python scripts/generator_digest.py > old.txt
  PYTHONPATH=<new>/src python scripts/generator_digest.py > new.txt
  diff old.txt new.txt

It covers the bundled decks (decks/*.yaml) and the deck paths given as
arguments. --chunk sets generators.PAIR_CHUNK; --temperatures, --field-t
and --width-cm1 replace every deck's temperatures, fields and kernel
width, for example

  python scripts/generator_digest.py big.yaml --temperatures 5 10 20
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
from dataclasses import replace

import numpy as np

from spinphonon import generators
from spinphonon.config import load_config
from spinphonon.runner import PointEngine

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALL_CHANNELS = ("absorption_emission", "double_absorption", "double_emission")


def digest(res) -> str:
    h = hashlib.sha256()
    for arr in (res.superoperator.dense(), res.weights, res.dephasing):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(f"{res.jump_count} {res.prefilter_tasks}".encode())
    return h.hexdigest()


def deck_lines(path: pathlib.Path, args):
    cfg = load_config(path)
    if args.width_cm1 is not None:
        cfg = replace(cfg, broadening=replace(cfg.broadening, width_cm1=args.width_cm1))
    fields = [tuple(args.field_t)] if args.field_t else cfg.fields_t
    temperatures = args.temperatures or cfg.temperatures_k
    channel_sets = {
        "deck": cfg,
        "all": replace(cfg, channels=ALL_CHANNELS, allow_same_mode=False),
        "all+same": replace(cfg, channels=ALL_CHANNELS, allow_same_mode=True),
    }
    for field in fields:
        eng = PointEngine(cfg, field)
        for t_k in temperatures:
            point = f"{path.name} field={list(field)} T={t_k}"
            yield f"{point} order=2 {digest(eng.build(2, t_k))}"
            for name, channel_cfg in channel_sets.items():
                yield f"{point} order=4 channels={name} {digest(eng.build(4, t_k, channel_cfg))}"


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("decks", nargs="*", type=pathlib.Path, help="extra deck files")
    ap.add_argument("--chunk", type=int, help="generators.PAIR_CHUNK")
    ap.add_argument("--temperatures", type=float, nargs="+", help="K, for every deck")
    ap.add_argument("--field-t", type=float, nargs=3, help="one field (T), for every deck")
    ap.add_argument("--width-cm1", type=float, help="kernel width, for every deck")
    args = ap.parse_args(argv)
    if args.chunk is not None:
        generators.PAIR_CHUNK = args.chunk
    for path in [*sorted((ROOT / "decks").glob("*.yaml")), *args.decks]:
        for line in deck_lines(path, args):
            print(line, flush=True)


if __name__ == "__main__":
    main()
