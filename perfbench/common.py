"""Paths, child-process plumbing and metric helpers shared by workloads."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
#: Scratch space for one run, inside the checkout (ignored by git).
WORK_NAME = ".perfbench_work"


class CheckoutError(RuntimeError):
    """The benchmark is not running from a checkout holding ``src/repro``."""


def checkout_root() -> Path:
    """The checkout the benchmark runs from (the current directory)."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"{root} holds no src/repro package; run from the repository "
            "root")
    return root


def child_env(root: Path) -> Dict[str, str]:
    """Environment for child processes: the program's sources and the
    benchmark's modules on the path."""
    env = dict(os.environ)
    paths = [str(root / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path) -> int:
    total = 0
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def python_child(script: str, args: List[str], root: Path,
                 stdout=subprocess.PIPE,
                 stderr: Optional[Any] = None) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        cwd=str(root), env=child_env(root), stdout=stdout, stderr=stderr,
        text=True,
    )


def stop_child(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM, wait, and SIGKILL if it will not go."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}
