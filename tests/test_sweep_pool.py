"""A field's points computed in forked workers match the serial sweep bit for bit.

Each test forces the path it checks by setting runner.POOL_MIN_WORK_S and
runner.usable_cpus, never by timing, and runs under a deadline, so a pool
that hangs fails the test instead of the suite.
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
    """paths.pool(True) sends the points after the first to a pool of two
    workers, paths.pool(False) keeps them serial; paths.started lists the
    worker count of each pool started."""
    started = []
    in_workers = runner._in_workers

    def spy(engine, points, workers):
        started.append(workers)
        return in_workers(engine, points, workers)

    def pool(on: bool):
        monkeypatch.setattr(runner, "POOL_MIN_WORK_S", 0.0 if on else float("inf"))

    monkeypatch.setattr(runner, "_in_workers", spy)
    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
    return SimpleNamespace(pool=pool, started=started)


def _outputs(result):
    return [pathlib.Path(p).read_bytes() for p in (result.rates_csv_path, result.fit_report_path)]


@pytest.mark.parametrize("name", ["j15_2", "four_level"])
def test_pool_and_serial_sweeps_write_the_same_bytes(tmp_path, monkeypatch, paths, name):
    config = load_config(DECK_PATHS[name])
    # the first pooled point finishes last, so rows kept in completion
    # order would come out permuted
    slow = config.temperatures_k[1]
    rates = runner.PointEngine.rates

    def second_point_late(self, temperature_k, *args):
        if temperature_k == slow:
            time.sleep(0.2)
        return rates(self, temperature_k, *args)

    monkeypatch.setattr(runner.PointEngine, "rates", second_point_late)
    with deadline():
        paths.pool(False)
        serial = _outputs(run_sweep(config, output_dir=tmp_path / "serial"))
        assert paths.started == []
        paths.pool(True)
        pooled = _outputs(run_sweep(config, output_dir=tmp_path / "pool"))
    assert paths.started == [2]
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
    assert isinstance(caught[True].__cause__, runner.WorkerError)
    assert caught[True].__cause__.type_name == "TwoArgumentError"


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
    code, err = _run_with_a_dying_worker(tmp_path, monkeypatch, capsys, paths, 1)
    assert code == 3
    assert re.search(LOST, err)[1] == "1.41"
    assert "terminated abruptly" in err


def test_a_later_worker_death_is_not_blamed_on_the_first_unread_point(
    tmp_path, monkeypatch, capsys, paths
):
    # the worker of the fifth pooled point dies; the parent may be reading
    # any point up to it, and names that one only as the first result lost
    code, err = _run_with_a_dying_worker(tmp_path, monkeypatch, capsys, paths, 5)
    assert code == 3
    assert re.search(LOST, err)[1] in ("1.41", "2.0", "2.83", "4.0", "5.66")


def test_a_first_point_failure_or_a_one_point_deck_starts_no_pool(tmp_path, paths):
    paths.pool(True)
    deck = yaml.safe_load(DECK_PATHS["spin_half"].read_text())
    # eta = 0 leaves a vanishing order-4 denominator at every temperature
    deck["numeric"]["regularizer_cm1"] = 0.0
    deck["sweep"]["orders"] = 4
    with deadline():
        with pytest.raises(SweepPointError, match="temperature_K=0.5"):
            run_sweep(resolve(deck), output_dir=tmp_path)
        deck = yaml.safe_load(DECK_PATHS["spin_half"].read_text())
        deck["sweep"]["temperatures_k"] = [2.0]
        run_sweep(resolve(deck), output_dir=tmp_path)
    assert paths.started == []


def test_the_pool_waits_for_enough_work_and_two_cpus(monkeypatch):
    monkeypatch.setattr(runner, "POOL_MIN_WORK_S", 1.0)
    monkeypatch.setattr(runner, "usable_cpus", lambda: 4)
    assert runner._pool_workers(9, 0.5) == 4
    assert runner._pool_workers(3, 0.5) == 3
    assert runner._pool_workers(9, 0.1) == 0
    assert runner._pool_workers(1, 10.0) == 0
    monkeypatch.setattr(runner, "usable_cpus", lambda: 1)
    assert runner._pool_workers(9, 10.0) == 0
