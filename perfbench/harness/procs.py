"""Child-process bookkeeping: every child the harness starts is registered
and reaped on every exit path. Commands run to completion go through
perfbench_launch, which reports their own wall time and peak RSS."""

import contextlib
import os
import select
import signal
import subprocess


class Children:
    """Registry of live children; stop_all() reaps whatever is left."""

    def __init__(self, launcher):
        self._live = {}
        self._launcher = launcher

    def spawn(self, argv, **kwargs):
        proc = subprocess.Popen(argv, **kwargs)
        self._live[proc.pid] = proc
        return proc

    def wait(self, proc, timeout):
        """Waits for `proc` (killing it after `timeout` seconds) and returns
        its exit code."""
        # A pidfd becomes readable the moment the child exits, so the wall
        # time a caller measures around this carries no polling delay.
        try:
            pidfd = os.pidfd_open(proc.pid)
        except ProcessLookupError:  # already reaped
            self._live.pop(proc.pid, None)
            return proc.returncode
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(proc.pid, signal.SIGKILL)
        _, status = os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._live.pop(proc.pid, None)
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        return proc.returncode

    def stop(self, proc, grace=5.0):
        """SIGTERM, then SIGKILL after `grace` seconds."""
        if proc.returncode is not None:
            return
        # os.kill, not Popen.send_signal: the latter polls, and a poll that
        # reaps the child would race the wait4 below.
        try:
            os.kill(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        self.wait(proc, grace)

    def stop_all(self):
        for proc in list(self._live.values()):
            self.stop(proc, grace=2.0)

    def run(self, argv, cwd, log_path, timeout=300.0):
        """Runs `argv` to completion with stdout+stderr in `log_path`.
        Returns {"code", "wall_s", "rss_mb", "output"}; wall_s and rss_mb
        are None when the launcher wrote no report."""
        report_path = log_path + ".rusage"
        with open(log_path, "wb") as log:
            proc = self.spawn([self._launcher, report_path] + argv, cwd=cwd, stdout=log,
                              stderr=subprocess.STDOUT)
            code = self.wait(proc, timeout)
        with open(log_path, encoding="utf-8", errors="replace") as log:
            output = log.read()
        try:
            with open(report_path) as report:
                wall, rss_kib = report.read().split()
        except (OSError, ValueError):
            return {"code": code, "wall_s": None, "rss_mb": None, "output": output}
        return {"code": code, "wall_s": float(wall), "rss_mb": int(rss_kib) / 1024.0,
                "output": output}


def read_line(stream, timeout):
    """One line from a pipe within `timeout` seconds, or None."""
    ready, _, _ = select.select([stream], [], [], timeout)
    if not ready:
        return None
    line = stream.readline()
    return line.decode(errors="replace") if line else None


def processes_running(exe_path):
    """PIDs of live processes whose executable is `exe_path`."""
    target = os.path.realpath(exe_path)
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            exe = os.readlink("/proc/%s/exe" % entry)
        except OSError:
            continue
        if exe.removesuffix(" (deleted)") == target:
            pids.append(int(entry))
    return pids


def read_steal_ticks():
    """Host CPU steal ticks summed over all CPUs (/proc/stat)."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


@contextlib.contextmanager
def pinned(cpus):
    """Runs the block, and every process started in it, on `cpus` only."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)
