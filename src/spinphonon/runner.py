"""Temperature/field sweeps over a resolved deck: rates CSV and fit report.

The sweep walks fields (outer), temperatures, then orders, so a 10
temperature deck with orders=both yields 20 CSV rows. The order-4 row is
cumulative: R = R2 + R4, and the T1/T2*/T2 rate sums are added the same
way before inversion.
"""

import logging
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, replace

from ._version import __version__ as _pkg_version
from .bath import BathConfig
from .config import FitRequest, RunConfig
from .constants import C_CM_S, KB_CM1_PER_K, MU_B_CM1_PER_T
from .coupling import CouplingOperator, from_raw_matrix
from .dynamics import FitResult, RateReport, extract_tau, fit_regimes, pair_sums_to_times
from .generators import PairRateSums, Superoperator, build_generator, secular_partition
from .spin_model import (
    easy_axis_of,
    eigensystem_for,
    frame_rotation,
    fundamental_pair,
    stevens_sum,
)

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
    """A sweep point or fit failed; the message names the point or fits[i]."""


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
        self.couplings = tuple(self._coupling(spec) for spec in config.coupling_specs)
        self.timers = {
            "prepare_s": time.perf_counter() - t0, "generate_s": 0.0, "extract_s": 0.0
        }

    def _coupling(self, spec) -> CouplingOperator:
        if spec.terms is not None:
            matrix, basis = stevens_sum(spec.terms, self.model.angular_momentum), "mj"
        else:
            matrix, basis = spec.matrix, spec.matrix_basis
        if basis == "mj" and self.frame is not None:
            matrix = self.frame @ matrix @ self.frame.conj().T
        return from_raw_matrix(matrix, basis, self.es, mode_index=spec.mode_index)

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

        out: dict[int, RateReport] = {}
        key = self.pair.indices
        if 2 in orders:
            out[2] = self._report(res2.superoperator, res2.pair_sums(*key), temperature_k, 2)
        if 4 in orders:
            sup2, sup4 = res2.superoperator, res4.superoperator
            cumulative = Superoperator(matrix=sup2.matrix + sup4.matrix, dim=sup4.dim)
            s2, s4 = res2.pair_sums(*key), res4.pair_sums(*key)
            sums = PairRateSums(
                half_t1_rate=s2.half_t1_rate + s4.half_t1_rate,
                dephasing_rate=s2.dephasing_rate + s4.dephasing_rate,
                coherence_rate=s2.coherence_rate + s4.coherence_rate,
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


def log_stage_times(what: str, n_rows: int, timers: dict[str, float]):
    """Log where the engines' summed time went, as one INFO line."""
    log.info(
        "%s finished: %d rows; prepare %.3f s, generate %.3f s, extract %.3f s",
        what, n_rows, timers["prepare_s"], timers["generate_s"], timers["extract_s"],
    )


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

    workers is accepted and ignored, like the deck's numeric.workers.
    """
    fields = config.fields_t if config.fields_t is not None else (config.model.field_t,)
    sweeping_fields = config.fields_t is not None

    rows: list[SweepRow] = []
    timers = Counter()
    for field in fields:
        try:
            engine = PointEngine(config, field)
        except SweepPointError:
            raise
        except Exception as exc:
            raise SweepPointError(f"preparing field_T={list(field)}: {exc}") from exc
        for temperature in config.temperatures_k:
            try:
                reports = engine.rates(temperature, config.orders)
            except Exception as exc:
                raise SweepPointError(
                    f"at temperature_K={temperature}, field_T={list(field)}: {exc}"
                ) from exc
            rows.extend(SweepRow(field, reports[o]) for o in config.orders)
        timers.update(engine.timers)

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

    log_stage_times("sweep", len(rows), timers)
    return SweepResult(
        rows=tuple(rows),
        fit_results=tuple(fits),
        rates_csv_path=csv_path,
        fit_report_path=report_path,
    )
