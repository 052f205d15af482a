"""One benchmark sample: a fresh interpreter runs the rate pipeline once.

    python3 ratebench/child.py JOB.json

It makes the calls ``spinphonon run`` makes (``import spinphonon.cli``,
``cli.load_config``, ``cli.run_sweep``), so import and deck parsing count,
and writes a JSON record to the job's ``result`` path. Times are
CLOCK_MONOTONIC readings, which the parent compares with the moment it
spawned this process. Everything after ``run_sweep`` returns (the build
speed-up, the oracle spot-check, the provenance probe) is untimed.
"""

import json
import os
import resource
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _first_field(config):
    return config.fields_t[0] if config.fields_t else config.model.field_t


def _build_args(config, temperature_k):
    from spinphonon import runner
    from spinphonon.bath import BathConfig

    engine = runner.PointEngine(config, _first_field(config))
    bath = BathConfig(
        modes=config.modes, temperature_k=temperature_k, broadening=config.broadening
    )
    kwargs = dict(
        blocks=engine.blocks,
        secular_tol_cm1=config.secular_tol_cm1,
        regularizer_cm1=config.regularizer_cm1,
        channels=config.channels,
        allow_same_mode=config.allow_same_mode,
    )
    return engine, bath, kwargs


def build4_speedup(config) -> dict:
    """One order-4 build at workers=1 over the same build at workers=2.

    Small builds are repeated until each side takes about half a second.
    """
    from spinphonon import runner

    engine, bath, kwargs = _build_args(config, config.temperatures_k[0])

    def seconds(workers: int, reps: int) -> float:
        t0 = clock()
        for _ in range(reps):
            runner.build_generator(4, engine.couplings, bath, engine.es, workers=workers, **kwargs)
        return (clock() - t0) / reps

    first = seconds(1, 1)
    reps = max(1, min(50, int(0.5 / max(first, 1e-6))))
    one = first if reps == 1 else seconds(1, reps)
    two = seconds(2, reps)
    return {"workers1_s": one, "workers2_s": two, "reps": reps, "speedup": one / two}


def oracle_errors(config, spec: dict, tests_dir: str) -> dict:
    """Largest relative error of each order's population block against tests/oracles.py."""
    import numpy as np
    from spinphonon.generators import build_generator

    sys.path.insert(0, tests_dir)
    import oracles

    engine, bath, kwargs = _build_args(config, spec["temperature_k"])
    # BathConfig sorts modes by frequency; the oracle zips matrices with
    # bath.modes, so order the matrices the same way, not in deck order
    by_index = {c.mode_index: c.matrix for c in engine.couplings}
    vmats = [by_index[m.index] for m in bath.modes]
    energies = engine.es.energies_cm1
    errors = {}
    for order in spec["orders"]:
        res = build_generator(order, engine.couplings, bath, engine.es, **kwargs)
        if order == 2:
            w = oracles.population_rates_2(vmats, energies, bath)
        else:
            w = oracles.population_rates_4(
                vmats,
                energies,
                bath,
                channels=config.channels,
                allow_same_mode=config.allow_same_mode,
                eta_cm1=config.regularizer_cm1,
            )
        ref = oracles.rates_to_population_block(w)
        got = res.superoperator.population_block()
        errors[str(order)] = float(np.abs(got - ref).max() / np.abs(ref).max())
    return errors


def _openblas() -> list[dict]:
    """Each OpenBLAS loaded in this process: file, build config and thread count."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for key, name, restype in (
            ("threads", "get_num_threads", ctypes.c_int),
            ("config", "get_config", ctypes.c_char_p),
        ):
            for prefix in ("scipy_openblas_", "openblas_"):
                fn = getattr(lib, f"{prefix}{name}64_", None) or getattr(lib, prefix + name, None)
                if fn is not None:
                    fn.restype = restype
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) else value
                    break
        out.append(info)
    return out


def provenance() -> dict:
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)
    import spinphonon

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "spinphonon": spinphonon.__version__,
        "spinphonon_file": spinphonon.__file__,
        "openblas": _openblas(),
        "thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(job_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        span = tracer.begin("cli.import")
    t_start = clock()
    import spinphonon.cli as cli

    t_import = clock()
    out = {"t_start": t_start, "t_import": t_import}
    if job.get("probe"):
        out["provenance"] = provenance()
    else:
        if tracer:
            tracer.end(span)
            tracing.install(tracer)
            span = tracer.begin("config.load")
        config = cli.load_config(job["deck"])
        t_loaded = clock()
        if tracer:
            tracer.end(span)
            span = tracer.begin("runner.run_sweep")
        result = cli.run_sweep(config, output_dir=job["out_dir"], workers=1)
        t_swept = clock()
        if tracer:
            tracer.end(span)
            tracer.uninstall()
        out.update(
            t_loaded=t_loaded,
            t_swept=t_swept,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            rates_csv=result.rates_csv_path,
        )
        if tracer:
            try:
                out["speedup"] = build4_speedup(config)
            except (TypeError, AttributeError) as exc:
                tracer.missing.append(f"build4 speed-up: {exc!r}")
            tracer.dump(job["spans"])
        if job.get("oracle"):
            out["oracle"] = oracle_errors(config, job["oracle"], job["tests_dir"])
    with open(job["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
