"""A field's points computed in forked workers match the serial sweep bit for bit.

Each test forces the path it checks through runner.usable_cpus alone (two
CPUs give a pool, one keeps the points serial) and runs under a deadline,
so a pool that hangs fails the test instead of the suite, and that no
worker process or pipe outlives the call.
"""

import contextlib
import logging
import os
import pathlib
import re
import signal
import time
from collections import Counter
from types import SimpleNamespace

import pytest
import yaml

from conftest import DECK_PATHS

from spinphonon import dynamics, runner
from spinphonon.cli import main
from spinphonon.config import load_config, resolve
from spinphonon.runner import SweepPointError, run_sweep

DEADLINE_S = 60


def assert_no_child_left():
    # waitpid raises ChildProcessError only when this process has no child,
    # running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds=DEADLINE_S):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    open_fds = len(os.listdir("/proc/self/fd"))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == open_fds


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


def _exit_1(engine, temperature_k):
    os._exit(1)


def _run_with_a_dying_worker(tmp_path, monkeypatch, capsys, paths, index, die=_exit_1):
    """Exit code and stderr of `run` on four_level when the worker that
    computes temperature index ends without a result through
    die(engine, temperature_k), by default an exit with status 1, as from
    a worker the OOM killer ends."""
    deck = DECK_PATHS["four_level"]
    doomed = load_config(deck).temperatures_k[index]
    parent = os.getpid()
    rates = runner.PointEngine.rates

    def dying(self, temperature_k, *args):
        if temperature_k == doomed and os.getpid() != parent:
            die(self, temperature_k)
        return rates(self, temperature_k, *args)

    monkeypatch.setattr(runner.PointEngine, "rates", dying)
    paths.pool(True)
    with deadline():
        code = main(["run", str(deck), "--output-dir", str(tmp_path)])
    assert_no_child_left()
    assert paths.started == [2]
    return code, capsys.readouterr().err


LOST = r"numeric failure: a worker process died; results from temperature_K=(\S+), field_T="


def test_a_worker_that_dies_exits_3_naming_its_point(tmp_path, monkeypatch, capsys, paths):
    # the first pooled point: its result is the first the parent reads
    code, err = _run_with_a_dying_worker(tmp_path, monkeypatch, capsys, paths, 0)
    assert code == 3
    assert re.search(LOST, err)[1] == "1.0"
    assert "terminated abruptly" in err


def test_a_worker_killed_in_the_middle_of_a_point_exits_3_naming_its_point(
    tmp_path, monkeypatch, capsys, paths
):
    # the OOM killer's signal, after the point's first build
    def killed_in_the_middle(engine, temperature_k):
        engine.build(2, temperature_k)
        os.kill(os.getpid(), signal.SIGKILL)

    code, err = _run_with_a_dying_worker(
        tmp_path, monkeypatch, capsys, paths, 3, die=killed_in_the_middle
    )
    assert code == 3
    # the worker sent index 1 and died at index 3, its second point
    assert re.search(LOST, err)[1] == "2.83"
    assert "terminated abruptly by signal 9" in err


def test_a_later_worker_death_is_not_blamed_on_the_first_unread_point(
    tmp_path, monkeypatch, capsys, paths
):
    # the worker of the fifth pooled point dies; the first result lost is
    # that point's, or, were the points shared out otherwise, an earlier one
    code, err = _run_with_a_dying_worker(tmp_path, monkeypatch, capsys, paths, 4)
    assert code == 3
    assert re.search(LOST, err)[1] in ("1.0", "1.41", "2.0", "2.83", "4.0")


def test_an_interrupted_pool_kills_its_workers(tmp_path, monkeypatch, paths):
    # the parent is interrupted while its workers are still busy: the
    # workers are killed and reaped at once, not waited for
    parent = os.getpid()
    rates = runner.PointEngine.rates

    def stuck(self, *args):
        if os.getpid() != parent:
            time.sleep(30)
        return rates(self, *args)

    monkeypatch.setattr(runner.PointEngine, "rates", stuck)
    paths.pool(True)
    open_fds = len(os.listdir("/proc/self/fd"))
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        with deadline(1):
            run_sweep(load_config(DECK_PATHS["four_level"]), output_dir=tmp_path)
    assert time.monotonic() - start < 10
    assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert paths.started == [2]


class StubEngine:
    """Stands in for a PointEngine: a point's report is its temperature and
    the process that computed it, each point takes delay_s, the point at
    temperature fail_at raises, the worker that computes the point at
    exit_at exits with status 1, and log, if given, gets a line a point."""

    def __init__(self, delay_s=0.001, fail_at=None, exit_at=None, log=None):
        self.timers = {"extract_s": 0.0}
        self.counts = Counter()
        self.delay_s, self.fail_at, self.exit_at, self.log = delay_s, fail_at, exit_at, log

    def rates(self, temperature_k, orders, config):
        if self.log:
            with open(self.log, "a") as fh:
                fh.write(f"{temperature_k}\n")
        time.sleep(self.delay_s)
        if temperature_k == self.fail_at:
            raise RuntimeError("no rates here")
        if temperature_k == self.exit_at:
            os._exit(1)
        self.counts["points"] += 1
        return {orders[0]: (temperature_k, os.getpid())}


def _stub_points(n):
    return [runner.Point(float(i), (2,), f"point {i}") for i in range(n)]


def test_more_workers_than_cpus_take_every_point_once():
    # eight workers take 400 points from one shared offset, on however
    # many CPUs: a point taken twice or by no worker leaves a slot empty
    engine = StubEngine()
    with deadline():
        out = runner._in_workers(engine, _stub_points(400), 8)
    assert [r[2][0] for r in out] == [float(i) for i in range(400)]
    assert engine.counts["points"] == 400
    assert engine.counts["workers"] == 8
    assert len({r[2][1] for r in out}) > 1


@pytest.mark.parametrize(
    "how, error",
    [
        ("fail_at", "^at point 5: no rates here$"),
        (
            "exit_at",
            "^a worker process died; results from point 5 on were lost: "
            "worker [12] of 2 terminated abruptly with exit status 1$",
        ),
    ],
)
def test_a_failed_point_or_a_dead_worker_stops_every_worker(tmp_path, how, error):
    log = tmp_path / "taken.txt"
    engine = StubEngine(delay_s=0.01, log=log, **{how: 5.0})
    with deadline():
        with pytest.raises(SweepPointError, match=error):
            runner._in_workers(engine, _stub_points(200), 2)
    # points 0-5 and the few the other worker took while point 5 ended,
    # not all 200
    assert len(log.read_text().split()) < 40


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
