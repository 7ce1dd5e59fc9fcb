"""Running CLI invocations: the child environment, one timed invocation, and
checking a batch of results in order."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CheckError, check
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Result:
    op: Op
    exit: int
    wall_s: float
    out: str | Path           # the text, or the file holding it
    err: str | Path
    maxrss_kb: int = 0

    def texts(self) -> tuple[str, str]:
        return tuple(x.read_text() if isinstance(x, Path) else x for x in (self.out, self.err))


def child_env() -> dict[str, str]:
    """The caller's environment with src/ first on PYTHONPATH and no cache override."""
    env = dict(os.environ)
    env.pop("CMQSEARCH_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe(env: dict[str, str], run_dir: Path) -> dict:
    """What the children import, and the settings that change its speed."""
    code = ("import json, sys, numpy, cmqsearch; print(json.dumps({'file': cmqsearch.__file__, "
            "'backend': cmqsearch.BACKEND, 'python': sys.version.split()[0], "
            "'numpy': numpy.__version__}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=run_dir,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"cannot import cmqsearch from {SRC}: {proc.stderr.strip()}")
    info = json.loads(proc.stdout)
    if not Path(info["file"]).resolve().is_relative_to(ROOT):
        raise SystemExit(f"cmqsearch resolves to {info['file']}, outside {ROOT}")
    info.update({name: os.environ.get(name) for name in (
        "CMQSEARCH_PURE", "PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    info["nproc"] = len(os.sched_getaffinity(0))
    return info


def invoke(op: Op, run_dir: Path, env: dict[str, str]) -> Result:
    """Run one CLI invocation to completion; wall time covers spawn to reap.

    Output goes to files, not into this process: on Linux a child's max-RSS
    is at least the peak RSS of the process that spawned it, so the parent
    must stay small while children run.
    """
    argv = [sys.executable, "-m", "cmqsearch.cli", *op.argv(str(run_dir))]
    out_fd, out_path = tempfile.mkstemp(dir=run_dir, suffix=".out")
    err_fd, err_path = tempfile.mkstemp(dir=run_dir, suffix=".err")
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out_fd, stderr=err_fd, env=env, cwd=run_dir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    finally:
        os.close(out_fd)
        os.close(err_fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(op, proc.returncode, wall, Path(out_path), Path(err_path), usage.ru_maxrss)


def validate(results: list[Result], ctx: dict) -> list[str]:
    """Check results in order; return one message per failed invocation."""
    failures = []
    for r in results:
        try:
            check(r.op, r.exit, *r.texts(), ctx)
        except CheckError as exc:
            failures.append(f"{' '.join(r.op.argv('.'))}: {exc}")
    return failures
