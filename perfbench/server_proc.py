"""The shipped ``python -m repro serve`` as a child process.

The serving workloads measure the admission service from outside: the
server runs in its own process, exactly as a user starts it, and this
module owns that process's whole life.

* The server binds port 0 (``--port 0``), so the kernel hands it a free
  port atomically; the port is read back from its ``serving on
  host:port`` line.
* ``--duration`` is passed as a hard cap, so the server exits by itself
  even if this process dies without cleaning up.
* :meth:`ServerProcess.stop` asks for a clean shutdown, then terminates
  and finally kills; it always waits for the process to end.
  :func:`live_children` lets the caller check that nothing outlived the
  run.
* CPU time and peak RSS are read from ``/proc/<pid>``.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

__all__ = [
    "ServerError",
    "ServerProcess",
    "live_children",
    "pid_alive",
    "steal_seconds",
]

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server did not start, answer or stop as required."""


class ServerProcess:
    """One ``repro serve`` child bound to a kernel-chosen port."""

    def __init__(
        self,
        root: Path,
        duration_cap: float,
        log_path: Path,
    ) -> None:
        self.root = root
        self.duration_cap = duration_cap
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.launched_at = 0.0
        #: the host's steal time (:func:`steal_seconds`) at launch
        self.launched_steal = 0.0

    # ------------------------------------------------------------------
    def start(self, ready_timeout: float = 60.0) -> "ServerProcess":
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1",
            "--port", "0",
            # solves stay in the server process: with the generator,
            # that is one process per core on a two-core machine
            "--workers", "1",
            "--duration", f"{self.duration_cap:.0f}",
        ]
        with open(self.log_path, "ab") as log:
            self.launched_steal = steal_seconds()
            self.launched_at = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        self.port = self._read_port(ready_timeout)
        return self

    def _read_port(self, timeout: float) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        buffer = b""
        deadline = time.monotonic() + timeout
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerError(
                    f"server gave no ready line within {timeout:.0f}s"
                )
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ServerError(
                    "server exited before announcing its port "
                    f"(exit code {self.proc.wait(timeout=5)}; "
                    f"see {self.log_path})"
                )
            buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode("utf-8", "replace")
        if not line.startswith("serving on "):
            raise ServerError(f"unexpected server banner {line!r}")
        return int(line.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    # ------------------------------------------------------------------
    def cpu_seconds(self) -> float:
        """User + system CPU of the server so far (``/proc/<pid>/stat``)."""
        with open(f"/proc/{self.pid}/stat") as handle:
            raw = handle.read()
        # the command name may hold spaces; fields resume after ')'
        fields = raw[raw.rindex(")") + 2:].split()
        utime, stime = int(fields[11]), int(fields[12])
        return (utime + stime) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    # ------------------------------------------------------------------
    def stop(self, grace: float = 5.0) -> None:
        """End the server and wait for it: SIGTERM, then SIGKILL."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=grace)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=grace)
        finally:
            if proc.stdout is not None:
                proc.stdout.close()
        self.proc = None

    def wait_exit(self, timeout: float) -> bool:
        """Wait for a requested shutdown; True when the process ended."""
        if self.proc is None:
            return True
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
        return True


def live_children(pid: Optional[int] = None) -> List[int]:
    """Pids of the live (non-zombie) children of ``pid`` (default: us)."""
    parent = os.getpid() if pid is None else pid
    found: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                raw = handle.read()
        except OSError:
            continue  # exited while we looked
        fields = raw[raw.rindex(")") + 2:].split()
        if int(fields[1]) == parent and fields[0] != "Z":
            found.append(int(entry))
    return found


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            raw = handle.read()
    except OSError:
        return False
    return raw[raw.rindex(")") + 2:].split()[0] != "Z"


def steal_seconds() -> float:
    """CPU time the hypervisor gave to others so far (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / CLOCK_TICKS
