"""Contracts that only a new interpreter can show: evosynth started as a process.

Rerun identity across interpreter starts, the BLAS kernel chosen at process
start, the exit code of a write to a closed pipe, and the README's library
example. Every child starts through `_start`, in `tmp_path`, with a fixed
environment.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import evosynth
from evosynth.cli import run
from test_cli import (
    ACCEPTANCE_CONFIG,
    ACCEPTANCE_SEED_1_DIGEST,
    DATASET_SOURCE,
    _config_doc,
    _dir_digest,
    _write_json,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _start(cwd, args, **env):
    """Start `python args` in `cwd`, importing the evosynth under test.

    Inherited OPENBLAS_* settings, PYTHONHASHSEED and PYTHONUNBUFFERED are
    dropped, so a child's kernel, hash seed and stdout buffering are only
    those that `env` sets.
    """
    child_env = {key: value for key, value in os.environ.items()
                 if not key.startswith("OPENBLAS_")
                 and key not in ("PYTHONHASHSEED", "PYTHONUNBUFFERED")}
    child_env["PYTHONPATH"] = str(Path(evosynth.__file__).resolve().parents[1])
    child_env.update(env)
    return subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc):
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def _evosynth(cwd, *argv, **env):
    return _finish(_start(cwd, ["-m", "evosynth.cli", *argv], **env))


# rerun identity and kernel independence: the pinned bytes come out of a new
# interpreter under two forced OpenBLAS kernels and two hash seeds


@pytest.mark.parametrize("env", [
    {"OPENBLAS_CORETYPE": "Haswell", "PYTHONHASHSEED": "0"},
    {"OPENBLAS_CORETYPE": "Prescott", "PYTHONHASHSEED": "12345", "OPENBLAS_NUM_THREADS": "1"},
], ids=["haswell", "prescott-one-thread"])
def test_evolve_bytes_are_pinned_in_a_new_process(tmp_path, env):
    _write_json(tmp_path / "run.json", ACCEPTANCE_CONFIG)
    code, out, err = _evosynth(tmp_path, "evolve", "--config", "run.json",
                               "--seed", "1", "--out", "out", **env)
    # filterwarnings = error does not reach a child: a numpy warning shows here
    assert (code, err) == (0, "")
    assert out == "13 generation(s) written to out (completed)\n"
    assert _dir_digest(tmp_path / "out") == ACCEPTANCE_SEED_1_DIGEST


# help and usage errors from a new interpreter, which exits with run's code


def test_help_exits_0(tmp_path):
    code, out, err = _evosynth(tmp_path, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: evosynth")


def test_usage_error_exits_1_with_one_error_line(tmp_path):
    code, out, err = _evosynth(tmp_path, "inspect")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


# a reader that has gone before the child writes: the write fails, which is
# exit 2 with one error line, not a traceback or an "Exception ignored" line


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    cfg = _write_json(root / "run.json", _config_doc(generations=2))
    _write_json(root / "source.json", DATASET_SOURCE)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["evolve", "--config", cfg, "--out", str(root / "out")]) == 0
    return root


@pytest.mark.parametrize("argv, buffered", [
    # unbuffered, the command's own print fails
    (["inspect", "--model", "{run}/out/gen_2.json"], False),
    (["metrics", "--model", "{run}/out/gen_2.json", "--data", "{run}/source.json"], False),
    (["report", "--lineage", "{run}/out/lineage.csv", "--svg-out", "charts"], False),
    (["evolve", "--config", "{run}/run.json", "--out", "out"], False),
    # block-buffered, as on a pipe by default, run's flush fails
    (["inspect", "--model", "{run}/out/gen_2.json"], True),
], ids=["inspect", "metrics", "report", "evolve", "inspect-buffered"])
def test_closed_stdout_is_one_error_line(small_run, tmp_path, argv, buffered):
    env = {} if buffered else {"PYTHONUNBUFFERED": "1"}
    proc = _start(tmp_path, ["-m", "evosynth.cli", *(a.format(run=small_run) for a in argv)], **env)
    proc.stdout.close()
    code, _, err = _finish(proc)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot write standard output: ")


# the README's `## Library` example, run as written, so a public-API
# rename that the README misses fails here


def test_readme_library_example_runs(tmp_path):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    (tmp_path / "example.py").write_text(example, encoding="utf-8")
    code, out, err = _finish(_start(tmp_path, ["example.py"]))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 13
