"""Spans around the calls into each layer, recorded from outside the program.

The tracer replaces module attributes that the program's callers look up
at call time (``spinphonon.runner.build_generator``,
``spinphonon.generators.delta``, ...) with wrappers that record a span:
name, start, end and parent id. Spans stay in memory and are written out
once, when the sample ends. No file under ``src/`` changes.

An attribute that a later version of the program no longer has is
listed in ``missing`` and its metrics read zero; the tracer never fails
because the code it wraps moved.
"""

import json
import time

now = time.perf_counter


class Tracer:
    """Span recorder for one process; not thread-safe (trace with workers=1)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent id or -1]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> list:
        rec = [name, now(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = now()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0, *, op=None) -> None:
        old = self.counters.get(key, 0.0)
        self.counters[key] = op(old, value) if op else old + value

    def wrap(self, owner, attr: str, name, note=None) -> None:
        """Record a span around every call of ``owner.attr``.

        name is a span name or a function of the call's arguments giving
        one; note(args, kwargs, result) may update counters.
        """
        label = getattr(owner, "__name__", type(owner).__name__)
        orig = getattr(owner, attr, None)
        if not callable(orig):
            self.missing.append(f"{label}.{attr}")
            return

        def traced(*args, **kwargs):
            rec = self.begin(name(args, kwargs) if callable(name) else name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.end(rec)
            if note is not None:
                try:
                    note(args, kwargs, out)
                except Exception as exc:  # a changed signature must not stop the sample
                    self.missing.append(f"{label}.{attr} note: {exc!r}")
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "counters": self.counters, "missing": self.missing}, fh
            )


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the rate pipeline."""
    from spinphonon import config, dynamics, generators, runner

    def build_name(args, kwargs):
        order = args[0] if args else kwargs.get("order")
        return f"generators.build{order}"

    def build_note(args, kwargs, result):
        order = args[0] if args else kwargs.get("order")
        tracer.count(f"generators.jumps{order}", getattr(result, "jump_count", 0))

    def eig_note(args, kwargs, result):
        n = args[0].shape[0] if args else kwargs["a"].shape[0]
        tracer.count("dynamics.eig_dim_max", n, op=max)
        tracer.count("dynamics.eig_flops_computed", float(n) ** 3)

    engine = getattr(runner, "PointEngine", None)
    if engine is not None:
        tracer.wrap(engine, "_coupling", "coupling.build")
        tracer.wrap(engine, "rates", "runner.rates")
    tracer.wrap(runner, "PointEngine", "runner.prepare")
    tracer.wrap(runner, "eigensystem_for", "spin_model.eigensystem")
    tracer.wrap(runner, "easy_axis_of", "spin_model.easy_axis")
    tracer.wrap(runner, "rotate_model", "spin_model.easy_axis")
    tracer.wrap(runner, "build_generator", build_name, build_note)
    tracer.wrap(runner, "extract_tau", "dynamics.extract_tau")
    tracer.wrap(runner, "pair_t2", "dynamics.pair_t2")
    tracer.wrap(runner, "fit_regimes", "dynamics.fit")
    tracer.wrap(generators, "_BlockMeta", "generators.blockmeta")
    tracer.wrap(generators, "delta", "bath.delta")
    tracer.wrap(generators, "t_matrix_full", "generators.tmatrix")
    tracer.wrap(dynamics, "eig", "dynamics.eig", eig_note)
    tracer.wrap(config, "resolve", "config.resolve")


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans of one name nested in each other (none today) would
    count twice in the inclusive total.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child_time[i]
    return out


def under(spans: list[list], ancestor: str, name: str) -> tuple[int, float]:
    """(calls, seconds) of spans called name that run inside an ancestor span."""
    calls, secs = 0, 0.0
    for rec in spans:
        if rec[0] != name:
            continue
        parent = rec[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            calls += 1
            secs += rec[2] - rec[1]
    return calls, secs
