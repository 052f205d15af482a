"""Temperature/field sweeps over a resolved deck: rates CSV and fit report.

The sweep walks fields (outer), temperatures, then orders, so a 10
temperature deck with orders=both yields 20 CSV rows. The order-4 row is
cumulative: R = R2 + R4, and the T1/T2*/T2 rate sums are added the same
way before inversion.

The points of one field (its temperatures, or a scan's knob values) are
independent, and compute_points is the one loop over them. It computes
the first point itself; when the rest would take at least POOL_MIN_WORK_S
at that pace and the process may use two or more CPUs, it forks up to one
worker per CPU (never more than the points left), which inherit the
prepared PointEngine and compute the remaining points by index. Each point
is the same one-BLAS-thread computation on the same inputs in whichever
process runs it, so the results, returned in point order, are bitwise the
same whether or not a pool ran; stage times are summed over processes.
"""

import logging
import math
import os
import pickle
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._version import __version__ as _pkg_version
from .bath import BathConfig
from .config import FitRequest, RunConfig
from .constants import C_CM_S, KB_CM1_PER_K, MU_B_CM1_PER_T
from .coupling import CouplingOperator, from_raw_matrices
from .dynamics import FitResult, RateReport, extract_tau, fit_regimes, pair_sums_to_times
from .generators import PairRateSums, build_generator, secular_partition
from .spin_model import (
    easy_axis_of,
    eigensystem_for,
    frame_rotation,
    fundamental_pair,
    stevens_sum,
)

log = logging.getLogger(__name__)

# The points after a field's first go to a pool only when, at the first
# point's pace, they would take at least this long: about five times what
# starting the pool costs, so decks whose whole sweep is cheaper stay serial.
POOL_MIN_WORK_S = 0.25

CSV_COLUMNS = ("temperature_K", "order", "tau_s", "t1_s", "t2_s", "t2star_s", "overlap_score")
FIELD_COLUMNS = ("field_T_x", "field_T_y", "field_T_z")

_RATE_OF = {
    "tau_rate": lambda rep: 1.0 / rep.tau_s,
    "t1_rate": lambda rep: 1.0 / rep.t1_s,
    "t2_rate": lambda rep: 1.0 / rep.t2_s,
    "t2star_rate": lambda rep: 1.0 / rep.t2star_s,
}


class SweepPointError(RuntimeError):
    """A sweep point or fit failed; the message names the point or fits[i]."""


class WorkerError(RuntimeError):
    """Stands in for a worker's exception that does not survive pickling.

    str() is the original exception's message, so the SweepPointError that
    names the point reads as it would have in the parent; type_name keeps
    its class.
    """

    def __init__(self, type_name: str, message: str):
        super().__init__(type_name, message)
        self.type_name = type_name
        self.message = message

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class SweepRow:
    field_t: tuple[float, float, float]
    report: RateReport


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    fit_results: tuple[tuple[FitRequest, FitResult], ...]
    rates_csv_path: str
    fit_report_path: str


class PointEngine:
    """Eigensystem, couplings and secular blocks prepared for one field.

    The easy axis is turned onto z before any rates are computed, so tau,
    T1 and T2* do not depend on the frame the deck was written in: frame
    is the unitary D of spin_model.frame_rotation (None when the axis is
    already z), the eigensystem is that of D H D^dagger, and every M_J
    coupling, a Stevens derivative set summed to its M_J matrix included,
    is conjugated by the same D. Eigenbasis couplings ride along with the
    basis itself.
    """

    def __init__(self, config: RunConfig, field_t=None):
        t0 = time.perf_counter()
        model = config.model
        if field_t is not None:
            model = replace(model, field_t=tuple(float(x) for x in field_t))
        j = model.angular_momentum
        if j.two_j % 2 == 0:
            raise SweepPointError(
                "rate sweeps need a Kramers system (half-integer J); "
                f"got two_j = {j.two_j}"
            )
        es = eigensystem_for(model)
        axis, quality = easy_axis_of(es, model)
        frame = frame_rotation(axis, j)
        if frame is not None:
            es = eigensystem_for(model, frame)
            log.info("aligned easy axis %s onto z (%s quality)", axis, quality)
        self.config = config
        self.model = model
        self.frame = frame
        self.es = es
        self.pair = fundamental_pair(self.es.kramers_pairs)
        if self.pair.ambiguous:
            raise SweepPointError(
                f"fundamental doublet {self.pair.indices} at field_T={list(model.field_t)} is "
                f"ambiguous: its members' <Jz> = {self.pair.jz_a:.6g}, {self.pair.jz_b:.6g} "
                "are too small or do not oppose"
            )
        self.blocks = secular_partition(self.es, config.secular_tol_cm1)
        self.couplings = self._coupling()
        self.timers = {
            "prepare_s": time.perf_counter() - t0, "generate_s": 0.0, "extract_s": 0.0
        }
        # summed over the order-4 builds: the tasks that passed the
        # prefilter, and the jumps among them that carry rate
        self.counts = Counter()

    def _coupling(self) -> tuple[CouplingOperator, ...]:
        """Every coupling operator in the eigenbasis, in one stacked pass per basis."""
        specs = self.config.coupling_specs
        matrices, by_basis = [], {}
        for i, spec in enumerate(specs):
            if spec.terms is not None:
                matrix, basis = stevens_sum(spec.terms, self.model.angular_momentum), "mj"
            else:
                matrix, basis = spec.matrix, spec.matrix_basis
            matrices.append(matrix)
            by_basis.setdefault(basis, []).append(i)
        out = [None] * len(specs)
        for basis, picked in by_basis.items():
            stack = np.stack([matrices[i] for i in picked])
            if basis == "mj" and self.frame is not None:
                stack = self.frame @ stack @ self.frame.conj().T
            ops = from_raw_matrices(
                stack, basis, self.es, mode_indices=[specs[i].mode_index for i in picked]
            )
            for i, op in zip(picked, ops):
                out[i] = op
        return tuple(out)

    def rates(
        self, temperature_k: float, orders, config: RunConfig | None = None
    ) -> dict[int, RateReport]:
        """Rate reports per order at one temperature.

        config, if given, supplies the bath and numeric settings in place of
        the prepared deck's; it must share that deck's model, couplings and
        secular tolerance, which the engine was prepared with.
        """
        cfg = config if config is not None else self.config
        bath = BathConfig(
            modes=cfg.modes, temperature_k=temperature_k, broadening=cfg.broadening
        )
        common = dict(
            blocks=self.blocks,
            secular_tol_cm1=cfg.secular_tol_cm1,
            regularizer_cm1=cfg.regularizer_cm1,
            channels=cfg.channels,
            allow_same_mode=cfg.allow_same_mode,
        )
        t0 = time.perf_counter()
        res2 = build_generator(2, self.couplings, bath, self.es, **common)
        res4 = build_generator(4, self.couplings, bath, self.es, **common) if 4 in orders else None
        t1 = time.perf_counter()
        self.timers["generate_s"] += t1 - t0
        if res4 is not None:
            self.counts.update(order4_tasks=res4.prefilter_tasks, order4_jumps=res4.jump_count)

        out: dict[int, RateReport] = {}
        key = self.pair.indices
        if 2 in orders:
            out[2] = self._report(res2.superoperator, res2.pair_sums(*key), temperature_k, 2)
        if 4 in orders:
            cumulative = res2.superoperator + res4.superoperator
            s2, s4 = res2.pair_sums(*key), res4.pair_sums(*key)
            sums = PairRateSums(
                half_t1_rate=s2.half_t1_rate + s4.half_t1_rate,
                dephasing_rate=s2.dephasing_rate + s4.dephasing_rate,
            )
            out[4] = self._report(cumulative, sums, temperature_k, 4)
        self.timers["extract_s"] += time.perf_counter() - t1
        return out

    def _report(self, sup, sums, temperature_k: float, order: int) -> RateReport:
        tau = extract_tau(sup, self.pair)
        t1_s, t2_s, t2star_s = pair_sums_to_times(sums)
        return RateReport(
            temperature_k=temperature_k,
            order=order,
            tau_s=tau.tau_s,
            t1_s=t1_s,
            t2_s=t2_s,
            t2star_s=t2star_s,
            overlap_score=tau.overlap_score,
        )


@dataclass(frozen=True)
class Point:
    """One point of a sweep or scan on a prepared engine.

    where names the point in a SweepPointError ("at {where}: ..."); config,
    if given, is passed on to PointEngine.rates.
    """

    temperature_k: float
    orders: tuple[int, ...]
    where: str
    config: RunConfig | None = None


def compute_points(engine: PointEngine, points: Sequence[Point]) -> list[dict[int, RateReport]]:
    """Each point's rate reports, in point order.

    The first point runs here. The rest run in forked workers when
    _pool_workers says they are worth it, else here too; either way the
    first failure in point order is raised as a SweepPointError naming its
    point, and no worker outlives the call. Worker time and counts are
    added to engine.timers and engine.counts, and counts["workers"] counts
    the workers started.
    """
    busy = engine.timers["generate_s"] + engine.timers["extract_s"]
    out = [_compute(engine, points[0])]
    first_s = engine.timers["generate_s"] + engine.timers["extract_s"] - busy
    workers = _pool_workers(len(points) - 1, first_s)
    if workers:
        return out + _in_workers(engine, points, workers)
    return out + [_compute(engine, p) for p in points[1:]]


def _compute(engine: PointEngine, point: Point) -> dict[int, RateReport]:
    try:
        return engine.rates(point.temperature_k, point.orders, point.config)
    except Exception as exc:
        raise _point_error(point, exc) from exc


def _point_error(point: Point, exc: Exception) -> SweepPointError:
    return SweepPointError(f"at {point.where}: {exc}")


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def _pool_workers(remaining: int, first_s: float) -> int:
    """Workers for the points after the first: min(CPUs, remaining), or 0
    (serial) unless at least two remain, two CPUs are usable, fork exists
    and the remaining work, at the first point's pace, is POOL_MIN_WORK_S
    or more."""
    if remaining < 2 or first_s * remaining < POOL_MIN_WORK_S:
        return 0
    cpus = usable_cpus()
    if cpus < 2:
        return 0
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 0
    return min(cpus, remaining)


def _in_workers(
    engine: PointEngine, points: Sequence[Point], workers: int
) -> list[dict[int, RateReport]]:
    """Points 1.. of points from a pool of forked workers, in point order.

    Workers inherit engine and points when they fork and are sent only
    indices. "fork" is asked for by name: spawn would pickle the engine
    into each worker, and the default start method is not fork everywhere.
    With fork the executor starts every worker before its own thread, so
    no fork happens while a thread of it runs.
    """
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt,
        initargs=(engine, points),
    )
    try:
        futures = [pool.submit(_worker_point, i) for i in range(1, len(points))]
        out = []
        for point, future in zip(points[1:], futures):
            try:
                reports, error, timers, counts = future.result()
            except BrokenProcessPool as exc:
                # a worker died (killed by the OOM killer, say) and every
                # point not yet done is lost; which point it ran is unknown
                message = f"a worker process died; results from {point.where} on were lost"
                raise SweepPointError(f"{message}: {exc}") from exc
            if error is not None:
                raise _point_error(point, error) from error
            for key, seconds in timers.items():
                engine.timers[key] += seconds
            engine.counts.update(counts)
            out.append(reports)
        return out
    finally:
        # the points not yet started are dropped, and every worker is joined
        pool.shutdown(wait=True, cancel_futures=True)
        engine.counts["workers"] += workers


# (engine, points) inside a forked worker, set once by _adopt; the parent
# never sets it
_adopted: tuple[PointEngine, Sequence[Point]] | None = None


def _adopt(engine: PointEngine, points: Sequence[Point]) -> None:
    global _adopted
    _adopted = engine, points


def _worker_point(index: int):
    """Run points[index] in a worker: its reports or its error (one the
    parent can unpickle), and what it added to the engine's timers and
    counts."""
    engine, points = _adopted
    point = points[index]
    timers, counts = dict(engine.timers), Counter(engine.counts)
    reports = error = None
    try:
        reports = engine.rates(point.temperature_k, point.orders, point.config)
    except Exception as exc:
        error = _portable(exc)
    spent = {key: engine.timers[key] - timers[key] for key in timers}
    return reports, error, spent, engine.counts - counts


def _portable(exc: Exception) -> Exception:
    """exc if it comes back from pickling, else a WorkerError with its type
    name and message: the result reader of a pool cannot survive an
    exception it fails to unpickle."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return WorkerError(type(exc).__name__, str(exc))
    return exc


def log_stage_times(what: str, n_rows: int, timers: dict[str, float], counts: Counter):
    """Log where the time went, summed over the engines, their workers and
    the output writing (so it can exceed the wall time), the processes
    used, the summed order-4 task and jump counts, and the peak resident
    set so far of this process and of its largest finished child, as one
    INFO line."""
    processes = 1 + counts["workers"]
    log.info(
        "%s finished: %d rows; prepare %.3f s, generate %.3f s, extract %.3f s, "
        "write %.3f s, summed over %d process%s; order-4 prefilter tasks %d, jumps %d; "
        "peak RSS %.1f MB, children %.1f MB",
        what,
        n_rows,
        timers["prepare_s"],
        timers["generate_s"],
        timers["extract_s"],
        timers["write_s"],
        processes,
        "es" if processes > 1 else "",
        counts["order4_tasks"],
        counts["order4_jumps"],
        peak_rss_mb(),
        peak_rss_mb(resource.RUSAGE_CHILDREN),
    )


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set in MB of this process, or with RUSAGE_CHILDREN of
    its largest finished child (ru_maxrss: KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(who).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return repr(float(x))


def _provenance(config: RunConfig) -> list[str]:
    return [
        f"# spinphonon {_pkg_version}",
        f"# config_hash: {config.config_hash}",
        (
            f"# constants: mu_B_cm1_per_T={MU_B_CM1_PER_T!r}"
            f" k_B_cm1_per_K={KB_CM1_PER_K!r} c_cm_s={C_CM_S!r}"
        ),
        f"# orders: {','.join(str(o) for o in config.orders)} (4 = cumulative 2+4)",
    ]


def _write_rates_csv(path: str, rows, config: RunConfig, with_fields: bool):
    cols = CSV_COLUMNS + (FIELD_COLUMNS if with_fields else ())
    lines = _provenance(config)
    lines.append(",".join(cols))
    for row in rows:
        rep = row.report
        vals = [
            _fmt(rep.temperature_k),
            str(rep.order),
            _fmt(rep.tau_s),
            _fmt(rep.t1_s),
            _fmt(rep.t2_s),
            _fmt(rep.t2star_s),
            _fmt(rep.overlap_score),
        ]
        if with_fields:
            vals.extend(_fmt(x) for x in row.field_t)
        lines.append(",".join(vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_fits(config: RunConfig, rows) -> list[tuple[FitRequest, FitResult]]:
    if not config.fits:
        return []
    base_field = rows[0].field_t if rows else None
    out = []
    for i, req in enumerate(config.fits):
        pts = [
            (r.report.temperature_k, _RATE_OF[req.quantity](r.report))
            for r in rows
            if r.report.order == req.order and r.field_t == base_field
        ]
        if req.window_k is not None:
            lo, hi = req.window_k
            pts = [(t, v) for t, v in pts if lo <= t <= hi]
        try:
            out.append((req, fit_regimes(pts, req.fit_model)))
        except ValueError as exc:
            raise SweepPointError(
                f"fits[{i}] ({req.quantity}, {req.fit_model}, order {req.order}): {exc}"
            ) from exc
    return out


def _write_fit_report(path: str, fits, config: RunConfig, field_note: str):
    lines = _provenance(config)
    if field_note:
        lines.append(f"# {field_note}")
    if not fits:
        lines.append("no fits requested")
    for i, (req, res) in enumerate(fits, start=1):
        lines.append(f"[fit {i}] quantity={req.quantity} model={req.fit_model} order={req.order}")
        lines.append(f"  window_K = {_fmt(res.window_k[0])} .. {_fmt(res.window_k[1])}")
        if res.model == "arrhenius":
            lines.append(f"  U_cm1 = {_fmt(res.u_cm1)}")
            lines.append(f"  prefactor_per_s = {_fmt(res.prefactor_per_s)}")
        else:
            lines.append(f"  exponent = {_fmt(res.exponent)}")
            lines.append(f"  scale = {_fmt(res.scale)}")
        lines.append(f"  rms_log_residual = {_fmt(res.residual)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_sweep(config: RunConfig, *, output_dir: str = ".", workers: int | None = None) -> SweepResult:
    """Execute the deck's sweep and write the rates CSV and fit report.

    workers is accepted and ignored, like the deck's numeric.workers: how
    many processes compute a field's points is compute_points' choice.
    """
    fields = config.fields_t if config.fields_t is not None else (config.model.field_t,)
    sweeping_fields = config.fields_t is not None

    rows: list[SweepRow] = []
    timers, counts = Counter(), Counter()
    for field in fields:
        try:
            engine = PointEngine(config, field)
        except SweepPointError:
            raise
        except Exception as exc:
            raise SweepPointError(f"preparing field_T={list(field)}: {exc}") from exc
        points = [
            Point(t, config.orders, f"temperature_K={t}, field_T={list(field)}")
            for t in config.temperatures_k
        ]
        for reports in compute_points(engine, points):
            rows.extend(SweepRow(field, reports[o]) for o in config.orders)
        timers.update(engine.timers)
        counts.update(engine.counts)

    t0 = time.perf_counter()
    os.makedirs(output_dir, exist_ok=True)
    csv_path = os.path.join(output_dir, config.rates_csv)
    report_path = os.path.join(output_dir, config.fit_report)
    # the rows are all valid here, so they reach disk even if a fit fails
    _write_rates_csv(csv_path, rows, config, sweeping_fields)
    fits = _run_fits(config, rows)
    field_note = (
        f"fits use the first swept field value only: field_T={list(fields[0])}"
        if sweeping_fields and config.fits
        else ""
    )
    _write_fit_report(report_path, fits, config, field_note)
    timers["write_s"] = time.perf_counter() - t0

    log_stage_times("sweep", len(rows), timers, counts)
    return SweepResult(
        rows=tuple(rows),
        fit_results=tuple(fits),
        rates_csv_path=csv_path,
        fit_report_path=report_path,
    )
