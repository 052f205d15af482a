"""Command line frontend: validate decks, run sweeps, convergence scans.

Exit codes: 0 success, 2 configuration problem (every diagnostic is
printed, not just the first), 3 numeric failure (the offending
temperature/field point is named in the message).
"""

import argparse
import logging
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np
import yaml

from . import __version__
from .bath import DEFAULT_CUTOFF_SIGMAS, BroadeningPolicy
from .config import DeckValidationError, load_config, load_echo
from .dynamics import AmbiguousEigenvectorError
from .generators import BasisMismatchError, SingularityError
from .runner import (
    Point,
    PointEngine,
    SweepPointError,
    _fmt,
    _provenance,
    compute_points,
    log_stage_times,
    run_sweep,
)
from .spin_model import DiagonalizationError, InternalConsistencyError

log = logging.getLogger(__name__)

NUMERIC_ERRORS = (
    SweepPointError,
    SingularityError,
    BasisMismatchError,
    AmbiguousEigenvectorError,
    DiagonalizationError,
    InternalConsistencyError,
    np.linalg.LinAlgError,
)

SCAN_COLUMNS = ("tau_s", "t1_s", "t2_s", "t2star_s", "overlap_score")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spinphonon",
        description="second/fourth order spin-phonon relaxation generators",
    )
    p.add_argument("--version", action="version", version=f"spinphonon {__version__}")
    p.add_argument("-v", "--verbose", action="store_true", help="log stage timings")
    sub = p.add_subparsers(dest="command", required=True)

    val = sub.add_parser("validate", help="check a deck and echo the resolved config")
    val.add_argument("deck")

    run = sub.add_parser("run", help="run the deck's sweep, write CSV and fit report")
    run.add_argument("deck")
    run.add_argument("--output-dir", default=".", help="directory for output files")

    scan_r = sub.add_parser(
        "scan-regularizer", help="rates at one temperature across regularizer values"
    )
    scan_r.add_argument("deck")
    scan_r.add_argument(
        "--values", required=True, help="comma separated regularizer values (cm^-1)"
    )
    scan_r.add_argument("--temperature-k", type=float, default=None)
    scan_r.add_argument("--order", type=int, choices=(2, 4), default=None)
    scan_r.add_argument("--output-dir", default=".")

    scan_b = sub.add_parser(
        "scan-broadening", help="rates at one temperature across kernel widths"
    )
    scan_b.add_argument("deck")
    scan_b.add_argument("--widths", required=True, help="comma separated widths (cm^-1)")
    scan_b.add_argument("--kind", choices=("gaussian", "lorentzian"), default=None)
    scan_b.add_argument("--temperature-k", type=float, default=None)
    scan_b.add_argument("--order", type=int, choices=(2, 4), default=None)
    scan_b.add_argument("--output-dir", default=".")
    return p


def _load(path: str, load=load_config):
    if not os.path.exists(path):
        print(f"deck not found: {path}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return load(path)
    except DeckValidationError as exc:
        for d in exc.diagnostics:
            print(d, file=sys.stderr)
        raise SystemExit(2)
    except yaml.YAMLError as exc:
        print(f"deck is not parseable YAML: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_validate(args) -> int:
    echo = _load(args.deck, load_echo)
    print(yaml.safe_dump(echo, sort_keys=False, default_flow_style=None), end="")
    return 0


def _cmd_run(args) -> int:
    config = _load(args.deck)
    result = run_sweep(config, output_dir=args.output_dir)
    print(f"wrote {result.rates_csv_path}")
    print(f"wrote {result.fit_report_path}")
    return 0


def _scan(config, values, label, out_name, args) -> int:
    """Shared scan: one point per knob value, on one prepared engine.

    The knobs (regularizer, kernel width) change no eigensystem, coupling
    or secular block, so the engine is prepared once for the whole scan,
    and runner.compute_points computes its points as it does a sweep's.
    """
    order = args.order if args.order is not None else max(config.orders)
    temperature = (
        args.temperature_k if args.temperature_k is not None else config.temperatures_k[0]
    )
    if not (math.isfinite(temperature) and temperature > 0):
        print(f"--temperature-k must be finite and positive, got {temperature!r}", file=sys.stderr)
        return 2
    lines = [f"# scan at temperature_K={temperature!r}, order={order}"]
    lines.append(",".join((label,) + SCAN_COLUMNS))
    try:
        engine = PointEngine(config)
    except Exception as exc:
        raise SweepPointError(f"preparing the scan: {exc}") from exc
    points = [
        Point(temperature, (order,), f"{label}={value!r}, temperature_K={temperature!r}", cfg)
        for value, cfg in values
    ]
    for (value, _), reports in zip(values, compute_points(engine, points)):
        rep = reports[order]
        lines.append(",".join([_fmt(value)] + [_fmt(getattr(rep, f)) for f in SCAN_COLUMNS]))
    # the provenance lines (config_hash) are part of the timed write
    t0 = time.perf_counter()
    os.makedirs(args.output_dir, exist_ok=True)
    path = os.path.join(args.output_dir, out_name)
    with open(path, "w") as fh:
        fh.write("\n".join(_provenance(config) + lines) + "\n")
    timers = {**engine.timers, "write_s": time.perf_counter() - t0}
    log_stage_times("scan", len(values), timers, engine.counts)
    print(f"wrote {path}")
    return 0


def _cmd_scan_regularizer(args) -> int:
    config = _load(args.deck)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print(f"--values must be comma separated numbers, got {args.values!r}", file=sys.stderr)
        return 2
    if not values or not all(math.isfinite(v) and v >= 0 for v in values):
        print("--values needs finite numbers >= 0", file=sys.stderr)
        return 2
    cases = [(v, replace(config, regularizer_cm1=v)) for v in values]
    return _scan(config, cases, "regularizer_cm1", "scan_regularizer.csv", args)


def _cmd_scan_broadening(args) -> int:
    config = _load(args.deck)
    try:
        widths = [float(v) for v in args.widths.split(",") if v.strip()]
    except ValueError:
        print(f"--widths must be comma separated numbers, got {args.widths!r}", file=sys.stderr)
        return 2
    if not widths or not all(math.isfinite(w) and w > 0 for w in widths):
        print("--widths needs finite positive numbers", file=sys.stderr)
        return 2
    kind, cutoff = config.broadening.kind, config.broadening.cutoff_sigmas
    if kind == "exact":
        # the exact selector's cutoff (1) is no kernel truncation to carry over
        kind, cutoff = "gaussian", DEFAULT_CUTOFF_SIGMAS
    kind = args.kind or kind
    policies = [BroadeningPolicy(kind=kind, width_cm1=w, cutoff_sigmas=cutoff) for w in widths]
    cases = [(p.width_cm1, replace(config, broadening=p)) for p in policies]
    return _scan(config, cases, "width_cm1", "scan_broadening.csv", args)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handler = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "scan-regularizer": _cmd_scan_regularizer,
        "scan-broadening": _cmd_scan_broadening,
    }[args.command]
    try:
        return handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
