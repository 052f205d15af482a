import ast
import os
import pathlib
import re
import subprocess
import sys

from conftest import DECK_PATHS

import spinphonon


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted fails here
    missing = [name for name in spinphonon.__all__ if not hasattr(spinphonon, name)]
    assert not missing


def _reaches_scipy(node) -> bool:
    """An import statement of scipy, or a string naming scipy or one of its modules."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [node.module]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        # importlib takes module names as strings
        names = [node.value] if re.fullmatch(r"[\w.]+", node.value) else []
    else:
        return False
    return any(name.split(".")[0] == "scipy" for name in names)


def test_only_dynamics_reaches_scipy():
    # the one scipy call left in the package is extract_tau's zgeev
    reaching = [
        path.name
        for path in sorted(pathlib.Path(spinphonon.__file__).parent.glob("*.py"))
        if any(_reaches_scipy(node) for node in ast.walk(ast.parse(path.read_text())))
    ]
    assert reaching == ["dynamics.py"]


def test_cli_runs_without_jsonschema_or_scipy_special(tmp_path):
    # a fresh interpreter, because this test process imports jsonschema itself
    code = (
        "import os, sys\n"
        "import spinphonon.cli\n"
        "from spinphonon.config import load_config\n"
        "from spinphonon.runner import run_sweep\n"
        "run_sweep(load_config(sys.argv[1]), output_dir=sys.argv[2])\n"
        "print(sorted(m for m in sys.modules if m.startswith(('jsonschema', 'scipy.special'))))\n"
        # the scipy packages, what scipy.linalg's array-API layer loads, and
        # hashlib, which maps OpenSSL's libcrypto
        "absent = {'scipy', 'scipy.linalg', 'numpy.f2py', 'numpy.testing', 'numpy.ma',\n"
        "          'hashlib', '_hashlib'}\n"
        "print(sorted(absent & set(sys.modules)))\n"
        "maps = '/proc/self/maps'\n"
        "print(os.path.exists(maps) and 'libcrypto' in open(maps).read())\n"
    )
    src = pathlib.Path(spinphonon.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", code, str(DECK_PATHS["j15_2"]), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "[]", "False"]
    assert (tmp_path / "j15_2_rates.csv").exists()


def test_run_writes_the_same_bytes_whether_or_not_the_blas_threads_are_set(tmp_path):
    # BLAS reads its thread count at load, so each run is a fresh interpreter;
    # the package sets one thread where the caller set none
    code = "import sys\nfrom spinphonon.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    src = pathlib.Path(spinphonon.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in blas}
    outputs = []
    for name, env in (("unset", unset), ("one", dict(unset, **dict.fromkeys(blas, "1")))):
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, "-c", code, "run", str(DECK_PATHS["j15_2"]), "--output-dir", str(out)],
            env=dict(env, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append([(out / f).read_bytes() for f in ("j15_2_rates.csv", "j15_2_fits.txt")])
    assert outputs[0] == outputs[1]


def test_run_writes_the_same_bytes_whether_or_not_scipy_linalg_came_first(tmp_path):
    # eig loads scipy's LAPACK extension itself; a caller that imported the
    # scipy.linalg package first must get the same solve. The BLAS threads
    # are set here, as scipy.linalg loads its BLAS before the package could
    main = "from spinphonon.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    src = pathlib.Path(spinphonon.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = dict(os.environ, PYTHONPATH=path, **dict.fromkeys(blas, "1"))
    outputs = []
    for name, first in (("alone", "import sys\n"), ("after", "import scipy.linalg, sys\n")):
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, "-c", first + main, "run", str(DECK_PATHS["j15_2"]), "--output-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append([(out / f).read_bytes() for f in ("j15_2_rates.csv", "j15_2_fits.txt")])
    assert outputs[0] == outputs[1]


def test_a_caller_that_loaded_scipy_linalg_first_with_no_thread_count_is_warned():
    # OpenBLAS reads its thread count when scipy.linalg loads it, before the
    # package could set one; only the caller's own setting pins the tau solve
    src = pathlib.Path(spinphonon.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    threads = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in threads}
    cases = [
        ("import scipy.linalg\n", unset, 1),
        ("import scipy.linalg\n", dict(unset, OPENBLAS_NUM_THREADS="1"), 0),
        ("", unset, 0),
    ]
    for first, env, warnings in cases:
        done = subprocess.run(
            [sys.executable, "-c", first + "import spinphonon\n"],
            env=dict(env, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.count("OPENBLAS_NUM_THREADS unset") == warnings, (first, done.stderr)
        if warnings:
            assert "tau_s and overlap_score may differ" in done.stderr
