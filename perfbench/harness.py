"""Shared plumbing: the Ray session, /proc accounting, timeouts, statistics."""

from __future__ import annotations

import os
import signal
import statistics
import sys
import threading
import time

NUM_CPUS = 2  # one logical CPU count for every workload (see README.md)
OBJECT_STORE_BYTES = 512 << 20
_CLK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")
# AF_UNIX socket paths are capped at 107 bytes; Ray appends ~66 characters
# (session dir + socket name) to its temp dir.
_MAX_RAY_TMP = 40
_PR_SET_CHILD_SUBREAPER = 36


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- /proc


def _proc_table() -> dict[int, tuple[int, int, int]]:
    """pid -> (ppid, cpu ticks incl. reaped children, rss pages) of every
    live (not zombie) process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                raw = f.read().decode()
        except OSError:
            continue
        rest = raw[raw.rfind(")") + 2:].split()
        if rest[0] == "Z":
            continue
        # rest[0]=state, rest[1]=ppid, [11..14]=utime stime cutime cstime, [21]=rss
        ticks = int(rest[11]) + int(rest[12]) + int(rest[13]) + int(rest[14])
        out[int(name)] = (int(rest[1]), ticks, int(rest[21]))
    return out


def _tree(table: dict, root: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    todo, seen = [root], []
    while todo:
        pid = todo.pop()
        if pid in table:
            seen.append(pid)
            todo.extend(kids.get(pid, ()))
    return seen


def tree_pids() -> list[int]:
    """This process and every process it started (Ray's GCS, raylet, workers)."""
    return _tree(_proc_table(), os.getpid())


class ProcMeter:
    """CPU seconds and peak resident memory of this process tree over an
    interval. RSS is summed per process, so pages shared between processes
    (the plasma store mapping) count once per process that maps them."""

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = None
        self._cpu0 = 0

    def _sample(self) -> tuple[int, int]:
        table = _proc_table()
        pids = _tree(table, os.getpid())
        return (sum(table[p][1] for p in pids), sum(table[p][2] for p in pids) * _PAGE)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.peak_bytes = max(self.peak_bytes, self._sample()[1])

    def __enter__(self):
        self._cpu0, rss = self._sample()
        self.peak_bytes = rss
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        ticks, rss = self._sample()
        self.peak_bytes = max(self.peak_bytes, rss)
        self.cpu_s = (ticks - self._cpu0) / _CLK
        return False


def cpu_ticks() -> float:
    """CPU seconds used so far by this process tree."""
    table = _proc_table()
    return sum(table[p][1] for p in _tree(table, os.getpid())) / _CLK


# ---------------------------------------------------------------- timeouts


class Outcome:
    def __init__(self):
        self.value = None
        self.error: str | None = None
        self.timed_out = False
        self.seconds = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out


def call_with_timeout(fn, timeout_s: float) -> Outcome:
    """Run ``fn()`` in a daemon thread; give up after ``timeout_s``. The
    caller must tear the Ray session down after a timeout, which ends the
    abandoned work."""
    out = Outcome()

    def target():
        t0 = time.perf_counter()
        try:
            out.value = fn()
        except Exception as e:  # noqa: BLE001 - every failure is counted
            out.error = f"{type(e).__name__}: {e}"[:300]
        out.seconds = time.perf_counter() - t0

    th = threading.Thread(target=target, daemon=True)
    t0 = time.perf_counter()
    th.start()
    th.join(timeout_s)
    if th.is_alive():
        out.timed_out = True
        out.seconds = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------- Ray


def adopt_orphans() -> None:
    """Orphans of a killed or crashed child process re-parent to this one,
    so reap_children still finds (and ends) them."""
    import ctypes

    ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1)


def configure_env(root: str, work: str) -> None:
    """Environment inherited by child processes and Ray workers: the
    checkout on PYTHONPATH and every temp file inside the checkout."""
    os.makedirs(work, exist_ok=True)
    adopt_orphans()
    os.environ["PYTHONPATH"] = root + os.pathsep + os.environ.get("PYTHONPATH", "")
    os.environ["TMPDIR"] = work
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ.setdefault("RAY_DEDUP_LOGS", "0")


class RaySession:
    def __init__(self, work: str):
        tmp = os.path.join(work, "rt")
        self.temp_dir = tmp if len(tmp) <= _MAX_RAY_TMP else None
        if self.temp_dir is None:
            log("checkout path too long for Ray's socket paths; Ray uses /tmp/ray")
            os.environ["RAY_TMPDIR"] = "/tmp"  # Ray would otherwise follow TMPDIR

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=self.temp_dir,
        )
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self) -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()
        reap_children()


def reap_children(grace_s: float = 15.0) -> None:
    """Wait until every process this one started has exited; kill stragglers."""
    me = os.getpid()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass  # reap exited children
        except ChildProcessError:
            pass
        kids = [p for p in tree_pids() if p != me]
        if not kids:
            return
        if time.monotonic() > deadline:
            for p in kids:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.monotonic() + grace_s
        time.sleep(0.1)


def host_speed_s() -> float:
    """Seconds one core takes for a fixed pure-Python loop. The machines this
    runs on share cores with other tenants; this records how fast the host
    was when the run ended, so runs can be compared against host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i
    return time.perf_counter() - t0


def host_context() -> dict:
    import subprocess
    from importlib.metadata import version

    nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": nproc,  # honours OMP_NUM_THREADS
        "cpus_in_affinity_mask": len(os.sched_getaffinity(0)),
        "host_speed_s": host_speed_s(),
        "loadavg": os.getloadavg(),
        "ray": version("ray"),
        "ray_num_cpus": NUM_CPUS,
    }


# ---------------------------------------------------------------- stats


def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, q: int) -> float:
    """q-th percentile (1..99), linear interpolation between samples."""
    xs = list(xs)
    if len(xs) == 1:
        return float(xs[0])
    return float(statistics.quantiles(xs, n=100, method="inclusive")[q - 1])
