"""Temperature/field sweeps over a resolved deck: rates CSV and fit report.

The sweep walks fields (outer), temperatures, then orders, so a 10
temperature deck with orders=both yields 20 CSV rows. The order-4 row is
cumulative: R = R2 + R4, and the T1/T2*/T2 rate sums are added the same
way before inversion.

The sweep and the CLI's scans take one path from a field to a file:
prepare_field, then compute_points, the one place a field's independent
points (temperatures, or a scan's knob values) are computed, in this
process or in workers forked with os.fork that send each point's result
down a pipe, then write_output. Each point is the same one-BLAS-thread
computation on the same inputs in whichever process runs it, so the
results are bitwise the same whether or not workers ran; every
generator is built by PointEngine.build.

A numeric failure leaves this module as a SweepPointError, the one
exception the CLI turns into exit 3. Its message names where the sweep
failed: a point (in this process or a worker, which sends its message
back), a field that could not be prepared, a worker that died, or a fit.
"""

import errno
import io
import logging
import math
import os
import pickle
import resource
import select
import signal
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
from .generators import GeneratorResult, PairRateSums, build_generator, secular_partition
from .spin_model import easy_axis_of, eigensystem_for, frame_rotation, fundamental_pair

log = logging.getLogger(__name__)

CSV_COLUMNS = ("temperature_K", "order", "tau_s", "t1_s", "t2_s", "t2star_s", "overlap_score")
FIELD_COLUMNS = ("field_T_x", "field_T_y", "field_T_z")

_RATE_OF = {
    "tau_rate": lambda rep: 1.0 / rep.tau_s,
    "t1_rate": lambda rep: 1.0 / rep.t1_s,
    "t2_rate": lambda rep: 1.0 / rep.t2_s,
    "t2star_rate": lambda rep: 1.0 / rep.t2star_s,
}


class SweepPointError(RuntimeError):
    """A point, a field's preparation, a worker or a fit failed; the
    message names the point, the field or fits[i]."""


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

    field_t defaults to the deck's first field, config.fields_t[0]. The
    easy axis is turned onto z before any rates are computed, so tau, T1
    and T2* do not depend on the frame the deck was written in: frame is
    the unitary D of spin_model.frame_rotation (None when the axis is
    already z), the eigensystem is that of D H D^dagger, and every M_J
    coupling in config.couplings_cm1 (where resolve summed each Stevens
    derivative set) is conjugated by the same D. Eigenbasis couplings ride
    along with the basis itself.
    """

    def __init__(self, config: RunConfig, field_t=None):
        t0 = time.perf_counter()
        model = replace(config.model, field_t=config.fields_t[0] if field_t is None else field_t)
        es = eigensystem_for(model)
        axis, quality = easy_axis_of(es, model)
        frame = frame_rotation(axis, model.angular_momentum)
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
        """Every coupling operator in the eigenbasis, in one stacked pass per basis.

        A deck of one basis passes couplings_cm1 itself, not a copy.
        """
        matrices, bases = self.config.couplings_cm1, self.config.coupling_bases
        out = [None] * len(bases)
        for basis in dict.fromkeys(bases):
            picked = [i for i, b in enumerate(bases) if b == basis]
            stack = matrices if len(picked) == len(bases) else matrices[picked]
            if basis == "mj" and self.frame is not None:
                stack = self.frame @ stack @ self.frame.conj().T
            for i, op in zip(picked, from_raw_matrices(stack, basis, self.es, mode_indices=picked)):
                out[i] = op
        return tuple(out)

    def build(
        self, order: int, temperature_k: float, config: RunConfig | None = None
    ) -> GeneratorResult:
        """The order-2 or order-4 generator at one temperature, built from the
        settings of config (the engine's deck if None): its kernel,
        regularizer and channels. The engine was prepared with the deck's
        model, modes, couplings_cm1 and coupling_bases, which config must
        share as objects (dataclasses.replace keeps them), and with its
        secular_tol_cm1; a ValueError names the first field that differs.
        """
        cfg = self.config if config is None else config
        shared = ("model", "modes", "couplings_cm1", "coupling_bases")
        differ = [n for n in shared if getattr(cfg, n) is not getattr(self.config, n)]
        if cfg.secular_tol_cm1 != self.config.secular_tol_cm1:
            differ.append("secular_tol_cm1")
        if differ:
            raise ValueError(f"config.{differ[0]} is not the one the engine was prepared with")
        bath = BathConfig(modes=cfg.modes, temperature_k=temperature_k, broadening=cfg.broadening)
        t0 = time.perf_counter()
        res = build_generator(
            order, self.couplings, bath, self.es, blocks=self.blocks,
            regularizer_cm1=cfg.regularizer_cm1, channels=cfg.channels,
            allow_same_mode=cfg.allow_same_mode,
        )
        self.timers["generate_s"] += time.perf_counter() - t0
        if order == 4:
            self.counts.update(order4_tasks=res.prefilter_tasks, order4_jumps=res.jump_count)
        return res

    def rates(
        self, temperature_k: float, orders, config: RunConfig | None = None
    ) -> dict[int, RateReport]:
        """Rate reports per order at one temperature, from self.build."""
        res2 = self.build(2, temperature_k, config)
        res4 = self.build(4, temperature_k, config) if 4 in orders else None
        t1 = time.perf_counter()
        out: dict[int, RateReport] = {}
        s2 = res2.pair_sums(*self.pair.indices)
        if 2 in orders:
            out[2] = self._report(res2.superoperator, s2, temperature_k, 2)
        if 4 in orders:
            s4 = res4.pair_sums(*self.pair.indices)
            sums = PairRateSums(
                half_t1_rate=s2.half_t1_rate + s4.half_t1_rate,
                dephasing_rate=s2.dephasing_rate + s4.dephasing_rate,
            )
            out[4] = self._report(res2.superoperator + res4.superoperator, sums, temperature_k, 4)
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


def prepare_field(config: RunConfig, field_t) -> PointEngine:
    """PointEngine(config, field_t); a failure is raised as a SweepPointError
    naming the field."""
    try:
        return PointEngine(config, field_t)
    except SweepPointError:
        raise
    except Exception as exc:
        raise SweepPointError(f"preparing field_T={list(field_t)}: {exc}") from exc


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

    With two or more points and two or more usable CPUs, min(CPUs, points)
    forked workers compute every point (_in_workers); otherwise this
    process computes them all. Either way the first failure in point order
    is raised as a SweepPointError naming its point, and no worker
    outlives the call. Worker time and counts are added to engine.timers
    and engine.counts, and counts["workers"] counts the workers started.
    Every platform that reports usable CPUs (sched_getaffinity) has
    os.fork.
    """
    workers = min(usable_cpus(), len(points))
    if workers >= 2:
        return _in_workers(engine, points, workers)
    return [_compute(engine, p) for p in points]


def _compute(engine: PointEngine, point: Point) -> dict[int, RateReport]:
    try:
        return engine.rates(point.temperature_k, point.orders, point.config)
    except Exception as exc:
        raise SweepPointError(f"at {point.where}: {exc}") from exc


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def _in_workers(
    engine: PointEngine, points: Sequence[Point], workers: int
) -> list[dict[int, RateReport]]:
    """Every point of points from workers forked workers, in point order.

    The workers inherit engine and points through fork and take the
    points one at a time, in point order, as each finishes its last
    (_work), so a worker held up by a costly point or a busy CPU takes
    fewer; the parent computes none of them. It reads every worker's
    pipe to EOF, reaps every worker, and then returns the reports in
    point order or raises the first failure in point order. A point that
    fails, or a worker that dies, stops every worker from taking another
    point. A worker that ends before it has sent its record whole (killed
    by the OOM killer, say) loses the point it was computing, and the
    error names that point and how each dead worker ended. On any early
    exit, an interrupt say, the workers still running are killed, so no
    worker outlives the call.
    """
    pids, fds, statuses = [], [], []
    # the points' indices, which the workers take by reading them through
    # one shared file offset (on Linux a read moves a shared offset
    # atomically, so each index is read once)
    with open(os.memfd_create("points"), "w+b") as todo:
        todo.write(np.arange(len(points), dtype="<u4").tobytes())
        todo.seek(0)
        try:
            for k in range(workers):
                r, w = os.pipe()
                fds.append(r)
                try:
                    pid = os.fork()
                    if pid == 0:
                        # the worker leaves only through os._exit, so none of
                        # the parent's exit handlers or buffered output run twice
                        status = 1
                        try:
                            _work(engine, points, todo.fileno(), w)
                            status = 0
                        finally:
                            os._exit(status)
                    pids.append(pid)
                finally:
                    os.close(w)
            sent = _read_to_eof(fds, todo.fileno())
            for pid in pids:
                statuses.append(os.waitpid(pid, 0)[1])
        finally:
            for fd in fds:
                os.close(fd)
            left = pids[len(statuses):]
            for pid in left:
                os.kill(pid, signal.SIGKILL)
            for pid in left:
                os.waitpid(pid, 0)
            engine.counts["workers"] += len(pids)

    records = [None] * len(points)
    for data in sent:
        stream = io.BytesIO(data)
        try:
            while stream.tell() < len(data):
                i, record = pickle.load(stream)
                records[i] = record
        except (EOFError, pickle.UnpicklingError):
            pass  # the worker died while it sent its last record
    # the points are taken in order and a failure stops the taking, so a
    # point taken by no worker comes after every failure and every point
    # a dead worker lost
    out = []
    for point, record in zip(points, records):
        if record is None:
            died = "; ".join(
                f"worker {k + 1} of {workers} terminated abruptly {_ended(status)}"
                for k, status in enumerate(statuses) if status
            )
            raise SweepPointError(
                f"a worker process died; results from {point.where} on were lost: {died}"
            )
        if isinstance(record, str):
            raise SweepPointError(record)
        reports, timers, counts = record
        for key, seconds in timers.items():
            engine.timers[key] += seconds
        engine.counts.update(counts)
        out.append(reports)
    return out


def _ended(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"by signal {-code}" if code < 0 else f"with exit status {code}"


def _work(engine: PointEngine, points: Sequence[Point], todo: int, fd: int):
    """Compute points in a forked worker, taking the index of each next
    point from the file todo, and send one pickled record (index, result) a
    point down the pipe fd as soon as it is done: the result is the point's
    reports with what it added to engine.timers and engine.counts, or, for
    a point that fails, _compute's message, after which the worker stops
    (and, as it closes fd, the parent stops the others)."""
    with open(fd, "wb") as out:
        while index := os.read(todo, 4):
            i = int.from_bytes(index, "little")
            timers, counts = dict(engine.timers), Counter(engine.counts)
            try:
                reports = _compute(engine, points[i])
            except SweepPointError as exc:
                pickle.dump((i, str(exc)), out)
                return
            spent = {key: engine.timers[key] - timers[key] for key in timers}
            pickle.dump((i, (reports, spent, engine.counts - counts)), out)
            out.flush()


def _read_to_eof(fds: Sequence[int], todo: int) -> list[bytes]:
    """Everything sent down each pipe of fds, read as it comes until every
    writer has closed its end, so that no worker waits on a full pipe.
    A worker closes its pipe when no point is left, after a point failed,
    or when it dies, so at each close the points left in the file todo
    are dropped: a failure or a dead worker stops the others from taking
    another point."""
    chunks = {fd: [] for fd in fds}
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    open_fds = len(fds)
    while open_fds:
        for fd, _ in poller.poll():
            data = os.read(fd, 1 << 16)
            if data:
                chunks[fd].append(data)
            else:
                os.lseek(todo, 0, os.SEEK_END)
                poller.unregister(fd)
                open_fds -= 1
    return [b"".join(chunks[fd]) for fd in fds]


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


def _rates_lines(rows, with_fields: bool) -> list[str]:
    cols = CSV_COLUMNS + (FIELD_COLUMNS if with_fields else ())
    lines = [",".join(cols)]
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
    return lines


def write_output(path: str, config: RunConfig, lines: list[str]) -> None:
    """Write the deck's provenance lines, then lines, to path: every output
    file (rates CSV, fit report, scan CSV) is written here."""
    with open(path, "w") as fh:
        fh.write("\n".join(_provenance(config) + lines) + "\n")


def _run_fits(config: RunConfig, rows) -> list[tuple[FitRequest, FitResult]]:
    if not config.fits:
        return []
    out = []
    for i, req in enumerate(config.fits):
        pts = [
            (r.report.temperature_k, _RATE_OF[req.quantity](r.report))
            for r in rows
            if r.report.order == req.order and r.field_t == config.fields_t[0]
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


def _fit_lines(fits, field_note: str) -> list[str]:
    lines = [f"# {field_note}"] if field_note else []
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
    return lines


def output_paths(output_dir: str, names) -> list[str]:
    """The paths of the files names under output_dir, each file's directory
    made. Raises OSError naming a path that cannot be made or that names a
    directory."""
    paths = [os.path.join(output_dir, name) for name in names]
    for path in paths:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return paths


def run_sweep(config: RunConfig, *, output_dir: str = ".", workers: int | None = None) -> SweepResult:
    """Execute the deck's sweep and write the rates CSV and fit report.

    workers is accepted and ignored, like the deck's numeric.workers: how
    many processes compute a field's points is compute_points' choice.
    """
    sweeping_fields = "fields_t" in config.resolved["sweep"]
    # an unusable output path fails before any point is computed
    csv_path, report_path = output_paths(output_dir, (config.rates_csv, config.fit_report))

    rows: list[SweepRow] = []
    timers, counts = Counter(), Counter()
    for field in config.fields_t:
        engine = prepare_field(config, field)
        points = [
            Point(t, config.orders, f"temperature_K={t}, field_T={list(field)}")
            for t in config.temperatures_k
        ]
        for reports in compute_points(engine, points):
            rows.extend(SweepRow(field, reports[o]) for o in config.orders)
        timers.update(engine.timers)
        counts.update(engine.counts)

    t0 = time.perf_counter()
    # the rows are all valid here, so they reach disk even if a fit fails
    write_output(csv_path, config, _rates_lines(rows, sweeping_fields))
    fits = _run_fits(config, rows)
    field_note = (
        f"fits use the first swept field value only: field_T={list(config.fields_t[0])}"
        if sweeping_fields and config.fits
        else ""
    )
    write_output(report_path, config, _fit_lines(fits, field_note))
    timers["write_s"] = time.perf_counter() - t0

    log_stage_times("sweep", len(rows), timers, counts)
    return SweepResult(
        rows=tuple(rows),
        fit_results=tuple(fits),
        rates_csv_path=csv_path,
        fit_report_path=report_path,
    )
