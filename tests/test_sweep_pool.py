"""A field's points computed in forked workers match the serial sweep bit for bit.

Each test forces the path it checks through runner.usable_cpus alone (two
CPUs give a pool, one keeps the points serial) and runs under a deadline,
so a pool that hangs fails the test instead of the suite.
"""

import contextlib
import logging
import multiprocessing
import os
import pathlib
import re
import signal
import time
from types import SimpleNamespace

import pytest
import yaml

from conftest import DECK_PATHS

from spinphonon import dynamics, runner
from spinphonon.cli import main
from spinphonon.config import load_config, resolve
from spinphonon.runner import SweepPointError, run_sweep

DEADLINE_S = 60


@contextlib.contextmanager
def deadline(seconds=DEADLINE_S):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


@pytest.fixture
def paths(monkeypatch):
    """paths.pool(True) reports two usable CPUs, so a field's points go to a
    pool of two workers; paths.pool(False) reports one, so they stay serial;
    paths.started lists the worker count of each pool started."""
    started = []
    in_workers = runner._in_workers

    def spy(engine, points, workers):
        started.append(workers)
        return in_workers(engine, points, workers)

    def pool(on: bool):
        monkeypatch.setattr(runner, "usable_cpus", lambda: 2 if on else 1)

    monkeypatch.setattr(runner, "_in_workers", spy)
    pool(False)
    return SimpleNamespace(pool=pool, started=started)


def _outputs(result):
    return [pathlib.Path(p).read_bytes() for p in (result.rates_csv_path, result.fit_report_path)]


@pytest.mark.parametrize("name", ["j15_2", "four_level"])
def test_pool_and_serial_sweeps_write_the_same_bytes(tmp_path, monkeypatch, paths, name):
    config = load_config(DECK_PATHS[name])
    # the first point finishes last, so rows kept in completion order would
    # come out permuted
    slow = config.temperatures_k[0]
    parent = os.getpid()
    in_parent = []
    rates = runner.PointEngine.rates

    def first_point_late(self, temperature_k, *args):
        if os.getpid() == parent:
            in_parent.append(temperature_k)
        if temperature_k == slow:
            time.sleep(0.2)
        return rates(self, temperature_k, *args)

    monkeypatch.setattr(runner.PointEngine, "rates", first_point_late)
    with deadline():
        paths.pool(False)
        serial = _outputs(run_sweep(config, output_dir=tmp_path / "serial"))
        assert paths.started == []
        assert in_parent == list(config.temperatures_k)
        paths.pool(True)
        pooled = _outputs(run_sweep(config, output_dir=tmp_path / "pool"))
    assert paths.started == [2]
    # with a pool, the workers compute every point and the parent none
    assert in_parent == list(config.temperatures_k)
    assert pooled == serial


def test_pool_and_serial_broadening_scans_write_the_same_bytes(tmp_path, caplog, paths):
    caplog.set_level(logging.INFO)
    args = ["-v", "scan-broadening", str(DECK_PATHS["j15_2"]), "--widths", "0.5,1.0,2.0"]
    out = {}
    with deadline():
        for pool in (False, True):
            paths.pool(pool)
            assert main(args + ["--output-dir", str(tmp_path / str(pool))]) == 0
            out[pool] = (tmp_path / str(pool) / "scan_broadening.csv").read_bytes()
    assert paths.started == [2]
    assert out[True] == out[False]
    summed = re.findall(r"scan finished: .*, summed over (\d+) process(?:es)?;", caplog.text)
    assert summed == ["1", "3"]


def test_a_refusal_at_a_later_point_reads_the_same_from_the_pool(
    tmp_path, monkeypatch, capsys, paths
):
    # at threshold 0.75 every j15_2 temperature passes except 40 K, the last
    monkeypatch.setattr(dynamics, "OVERLAP_THRESHOLD", 0.75)
    errs = {}
    with deadline():
        for pool in (False, True):
            paths.pool(pool)
            assert main(["run", str(DECK_PATHS["j15_2"]), "--output-dir", str(tmp_path)]) == 3
            errs[pool] = capsys.readouterr().err
    assert paths.started == [2]
    assert errs[True] == errs[False]
    assert "at temperature_K=40.0, field_T=[0.0, 0.0, 0.0]: best magnetization-mode" in errs[True]


def test_a_scan_failure_at_a_later_point_reads_the_same_from_the_pool(
    tmp_path, capsys, paths
):
    # eta = 0 leaves a vanishing order-4 denominator, so the last value fails
    args = ["scan-regularizer", str(DECK_PATHS["spin_half"]), "--values", "1.0,0.5,0"]
    errs = {}
    with deadline():
        for pool in (False, True):
            paths.pool(pool)
            assert main(args + ["--order", "4", "--output-dir", str(tmp_path)]) == 3
            errs[pool] = capsys.readouterr().err
    assert paths.started == [2]
    assert errs[True] == errs[False]
    assert errs[True].startswith("numeric failure: at regularizer_cm1=0.0, temperature_K=")


class TwoArgumentError(RuntimeError):
    """Pickles, but cannot be unpickled: args holds only the message."""

    def __init__(self, message, extra):
        super().__init__(message)
        self.extra = extra


def test_an_error_the_parent_cannot_unpickle_still_names_its_point(
    tmp_path, monkeypatch, paths
):
    config = load_config(DECK_PATHS["four_level"])
    bad = config.temperatures_k[3]
    rates = runner.PointEngine.rates

    def failing(self, temperature_k, *args):
        if temperature_k == bad:
            raise TwoArgumentError("no rates here", extra=1)
        return rates(self, temperature_k, *args)

    monkeypatch.setattr(runner.PointEngine, "rates", failing)
    caught = {}
    with deadline():
        for pool in (False, True):
            paths.pool(pool)
            with pytest.raises(SweepPointError) as info:
                run_sweep(config, output_dir=tmp_path)
            caught[pool] = info.value
    assert paths.started == [2]
    assert str(caught[True]) == str(caught[False]) == (
        f"at temperature_K={bad}, field_T={list(config.model.field_t)}: no rates here"
    )


def _run_with_a_dying_worker(tmp_path, monkeypatch, capsys, paths, index):
    """Exit code and stderr of `run` on four_level when the worker that
    computes temperature index ends without a result, as from a worker the
    OOM killer ends."""
    deck = DECK_PATHS["four_level"]
    doomed = load_config(deck).temperatures_k[index]
    parent = os.getpid()
    rates = runner.PointEngine.rates

    def dying(self, temperature_k, *args):
        if temperature_k == doomed and os.getpid() != parent:
            os._exit(1)
        return rates(self, temperature_k, *args)

    monkeypatch.setattr(runner.PointEngine, "rates", dying)
    paths.pool(True)
    with deadline():
        code = main(["run", str(deck), "--output-dir", str(tmp_path)])
    assert multiprocessing.active_children() == []
    assert paths.started == [2]
    return code, capsys.readouterr().err


LOST = r"numeric failure: a worker process died; results from temperature_K=(\S+), field_T="


def test_a_worker_that_dies_exits_3_naming_its_point(tmp_path, monkeypatch, capsys, paths):
    # the first pooled point: its result is the first the parent reads
    code, err = _run_with_a_dying_worker(tmp_path, monkeypatch, capsys, paths, 0)
    assert code == 3
    assert re.search(LOST, err)[1] == "1.0"
    assert "terminated abruptly" in err


def test_a_later_worker_death_is_not_blamed_on_the_first_unread_point(
    tmp_path, monkeypatch, capsys, paths
):
    # the worker of the fifth pooled point dies; the parent may be reading
    # any point up to it, and names that one only as the first result lost
    code, err = _run_with_a_dying_worker(tmp_path, monkeypatch, capsys, paths, 4)
    assert code == 3
    assert re.search(LOST, err)[1] in ("1.0", "1.41", "2.0", "2.83", "4.0")


def test_a_first_point_failure_reads_the_same_from_the_pool(tmp_path, paths):
    deck = yaml.safe_load(DECK_PATHS["spin_half"].read_text())
    # eta = 0 leaves a vanishing order-4 denominator at every temperature
    deck["numeric"]["regularizer_cm1"] = 0.0
    deck["sweep"]["orders"] = 4
    caught = {}
    with deadline():
        for pool in (False, True):
            paths.pool(pool)
            with pytest.raises(SweepPointError) as info:
                run_sweep(resolve(deck), output_dir=tmp_path)
            caught[pool] = str(info.value)
    assert paths.started == [2]
    assert caught[True] == caught[False]
    assert caught[True].startswith("at temperature_K=0.5, field_T=")


def test_a_one_point_deck_starts_no_pool(tmp_path, paths):
    paths.pool(True)
    deck = yaml.safe_load(DECK_PATHS["spin_half"].read_text())
    deck["sweep"]["temperatures_k"] = [2.0]
    with deadline():
        run_sweep(resolve(deck), output_dir=tmp_path)
    assert paths.started == []


def test_every_point_goes_to_the_pool_or_none_does(monkeypatch):
    pools, here = [], []

    def in_workers(engine, points, workers):
        pools.append(workers)
        return ["pool"] * len(points)

    def compute(engine, point):
        here.append(point)
        return "here"

    monkeypatch.setattr(runner, "_in_workers", in_workers)
    monkeypatch.setattr(runner, "_compute", compute)

    def chosen(cpus, n_points):
        """The worker counts of the pools started, and the points the
        parent computed, for n_points points on cpus CPUs."""
        pools.clear()
        here.clear()
        monkeypatch.setattr(runner, "usable_cpus", lambda: cpus)
        assert len(runner.compute_points(None, list(range(n_points)))) == n_points
        return pools[:], len(here)

    assert chosen(4, 9) == ([4], 0)
    assert chosen(4, 3) == ([3], 0)
    assert chosen(2, 2) == ([2], 0)
    assert chosen(4, 1) == ([], 1)
    assert chosen(1, 9) == ([], 9)
