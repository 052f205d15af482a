import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest
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


def test_no_module_reaches_scipy():
    # the tau solve calls the zgeev of numpy's own OpenBLAS
    src = pathlib.Path(spinphonon.__file__).resolve().parents[1]
    reaching = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if any(_reaches_scipy(node) for node in ast.walk(ast.parse(path.read_text())))
    ]
    assert reaching == []


def _env(**changes) -> dict:
    """This environment with the package's source first on the path and
    each change applied; a change to None unsets the variable."""
    src = pathlib.Path(spinphonon.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, **changes)
    return {k: v for k, v in env.items() if v is not None}


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_j15_2(out, first: str = "", **env) -> list[bytes]:
    """The bytes `spinphonon run` writes for j15_2_toy in a fresh interpreter
    that runs first before it imports the package."""
    code = first + "\nimport sys\nfrom spinphonon.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    done = subprocess.run(
        [sys.executable, "-c", code, "run", str(DECK_PATHS["j15_2"]), "--output-dir", str(out)],
        env=_env(**env), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [(out / f).read_bytes() for f in ("j15_2_rates.csv", "j15_2_fits.txt")]


@pytest.fixture(scope="module")
def pinned_j15_2(tmp_path_factory):
    """j15_2_toy's bytes at one BLAS thread, chosen by the caller."""
    return _run_j15_2(tmp_path_factory.mktemp("pinned"), **dict.fromkeys(BLAS_THREADS, "1"))


def test_cli_runs_without_jsonschema_or_scipy_special(tmp_path):
    # a fresh interpreter, because this test process imports jsonschema and scipy
    code = (
        "import os, sys\n"
        "import spinphonon.cli\n"
        "from spinphonon.config import load_config\n"
        "from spinphonon.runner import run_sweep\n"
        "run_sweep(load_config(sys.argv[1]), output_dir=sys.argv[2])\n"
        "print(sorted(m for m in sys.modules if m.startswith(('jsonschema', 'scipy'))))\n"
        # what scipy.linalg's array-API layer would load, and hashlib, which
        # maps OpenSSL's libcrypto
        "absent = {'numpy.f2py', 'numpy.testing', 'numpy.ma', 'hashlib', '_hashlib'}\n"
        "print(sorted(absent & set(sys.modules)))\n"
        "maps = open('/proc/self/maps').read().splitlines()\n"
        "print('libcrypto' in '\\n'.join(maps))\n"
        "print(len({line.split()[-1] for line in maps if 'openblas' in line}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(DECK_PATHS["j15_2"]), str(tmp_path)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # one OpenBLAS: numpy's, which runs the tau solve as well
    assert done.stdout.split() == ["[]", "[]", "False", "1"]
    assert (tmp_path / "j15_2_rates.csv").exists()


def test_a_pooled_run_loads_neither_multiprocessing_nor_concurrent_futures(tmp_path):
    # a fresh interpreter, because pytest imports both; two usable CPUs send
    # the points to forked workers, which -v counts
    code = (
        "import sys\n"
        "from spinphonon import runner\n"
        "from spinphonon.cli import main\n"
        "runner.usable_cpus = lambda: 2\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))\n"
    )
    args = ["-v", "run", str(DECK_PATHS["j15_2"]), "--output-dir", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "summed over 3 processes" in done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_run_writes_the_same_bytes_whether_or_not_the_blas_threads_are_set(tmp_path, pinned_j15_2):
    # BLAS reads its thread count at load, so each run is a fresh interpreter;
    # the package sets one thread where the caller set none
    assert _run_j15_2(tmp_path, **dict.fromkeys(BLAS_THREADS)) == pinned_j15_2


def test_run_writes_the_same_bytes_whether_or_not_scipy_linalg_came_first(tmp_path, pinned_j15_2):
    # scipy.linalg loads scipy's own OpenBLAS, which the package never calls
    first = "import scipy.linalg"
    assert _run_j15_2(tmp_path, first, **dict.fromkeys(BLAS_THREADS, "1")) == pinned_j15_2


def test_run_writes_the_same_bytes_when_scipy_cannot_be_imported(tmp_path, pinned_j15_2):
    first = "import sys\nsys.modules['scipy'] = None"
    assert _run_j15_2(tmp_path, first) == pinned_j15_2


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="on one usable CPU OpenBLAS's default thread count is the pinned one",
)
@pytest.mark.parametrize("first", ["import numpy", "import scipy.linalg"], ids=["numpy", "scipy"])
def test_a_caller_that_loaded_numpy_first_with_no_thread_count_gets_the_pinned_bytes(
    tmp_path, pinned_j15_2, first
):
    # numpy loads its OpenBLAS, on OpenBLAS's default thread count, before the
    # package could set one: the tau solve pins its own one thread
    assert _run_j15_2(tmp_path, first, **dict.fromkeys(BLAS_THREADS)) == pinned_j15_2
