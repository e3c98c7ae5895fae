"""Starts the benchmark's timed child processes from a small process of its own.

On Linux a child's max RSS, as os.wait4 reports it, includes the high-water
mark of the process that forked it, because exec carries it over. The runner
holds scenes of hundreds of MB, so it does not fork the timed children
itself: a Launcher, started while the benchmark is still small, forks them
and reports for each its exit code, wall time, user+sys time and max RSS.

Run as a script, this file is that process: it reads one JSON request per
line on stdin and answers with one JSON line on stdout; it exits at EOF.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path


def child_env(src: Path) -> dict:
    """Environment for the children: the toolkit from `src`, no thread override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("NODEMETRY_THREADS", None)
    return env


class Launcher:
    """Client side: one launcher process for the life of the object."""

    def __init__(self, src: Path):
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                      env=child_env(src),
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)

    def run(self, cmd: list[str], cwd: Path, log: Path | None = None):
        """(exit code, wall s, user+sys s, max RSS MB, output) of one child."""
        request = {"cmd": cmd, "cwd": str(cwd), "log": str(log) if log else None}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        text = Path(log).read_text(errors="replace") if log else ""
        return reply["rc"], reply["wall"], reply["cpu"], reply["rss_mb"], text

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        log = request["log"]
        out = open(log, "wb") if log else subprocess.DEVNULL
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], cwd=request["cwd"],
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if log:
                out.close()
        print(json.dumps({"rc": proc.returncode, "wall": wall,
                          "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss / 1024.0}), flush=True)


if __name__ == "__main__":
    _serve()
