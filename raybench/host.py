"""Host side of the benchmark: the Ray session, memory sampling, host probes.

Nothing here touches the program under test beyond starting Ray.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

# AF_UNIX socket paths are capped at 107 bytes; Ray's longest one is
# <temp_dir>/session_<YYYY-mm-dd_HH-MM-SS_ffffff>_<pid>/sockets/plasma_store,
# i.e. len(temp_dir) + 64 for a 7-digit pid.
_MAX_TEMP_DIR = 107 - 64
_PAGE = os.sysconf("SC_PAGE_SIZE")
_OBJECT_STORE_BYTES = 768 * 1024 * 1024


@contextmanager
def ray_session(work_dir: str, num_cpus: int):
    """One local Ray session for the whole process, shut down on exit.

    An inherited ``RAY_ADDRESS`` is dropped so the run never attaches to a
    cluster that happens to be running. The session's files go to a
    directory of this process under ``work_dir``, removed after shutdown.
    When that path is too long for Ray's socket paths, Ray gets a short
    symlink under /tmp that points at it.
    """
    os.environ.pop("RAY_ADDRESS", None)
    temp_dir = os.path.join(work_dir, str(os.getpid()))
    os.makedirs(temp_dir, exist_ok=True)
    link = None
    ray_dir = temp_dir
    if len(temp_dir) > _MAX_TEMP_DIR:
        link = f"/tmp/rb-{os.getpid()}"
        if os.path.islink(link):
            os.unlink(link)
        os.symlink(temp_dir, link)
        ray_dir = link
    import ray

    try:
        ray.init(
            address="local", num_cpus=num_cpus, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False, _temp_dir=ray_dir,
            object_store_memory=_OBJECT_STORE_BYTES,
        )
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        yield
    finally:
        ray.shutdown()
        if link is not None:
            os.unlink(link)
        shutil.rmtree(temp_dir, ignore_errors=True)


def _children_map() -> dict:
    kids: dict = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _descendants() -> list:
    kids = _children_map()
    out, stack = [], list(kids.get(os.getpid(), []))
    while stack:
        pid = stack.pop()
        out.append(pid)
        stack.extend(kids.get(pid, []))
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as f:
            return int(f.read().split()[1]) * _PAGE
    except OSError:
        return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    # Ray renames worker processes to "ray::<task>" once they start
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def session_rss_bytes() -> int:
    """Summed RSS of this driver and every Ray worker descended from it."""
    return _rss_bytes(os.getpid()) + sum(
        _rss_bytes(p) for p in _descendants() if _is_ray_worker(p))


class PeakRss:
    """Samples session_rss_bytes() on a thread while the block runs."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.peak = max(self.peak, session_rss_bytes())
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.peak = max(self.peak, session_rss_bytes())


_ALLOC_PROBE = (
    "import time, numpy as np\n"
    "t0 = time.perf_counter()\n"
    "b = np.empty(32 * 1024 * 1024 // 8, dtype=np.int64)\n"
    "b.fill(1)\n"
    "print((time.perf_counter() - t0) * 1000)\n"
)


def host_probes(alloc_samples: int = 3) -> dict:
    """Reported beside every result, never gated.

    - ``calib_mloops_s``: a fixed pure-Python loop, in million loops/s;
      CPU contention shows as a drop.
    - ``alloc_ms``: allocate and first-touch 32 MB in a fresh interpreter;
      hypervisor memory stalls show here and not in the CPU loop. The max
      of a few samples is the signal.
    - ``loadavg``: 1, 5 and 15 minute load averages.
    """
    n = 2_000_000
    t0 = time.perf_counter()
    x = 0
    for _ in range(n):
        x += 1
    calib = n / (time.perf_counter() - t0) / 1e6
    alloc = []
    for _ in range(alloc_samples):
        out = subprocess.run([sys.executable, "-c", _ALLOC_PROBE],
                             capture_output=True, text=True, timeout=60)
        alloc.append(float(out.stdout.strip()) if out.returncode == 0 else None)
    done = [a for a in alloc if a is not None]
    return {
        "calib_mloops_s": calib,
        "alloc_ms_median": sorted(done)[len(done) // 2] if done else None,
        "alloc_ms_max": max(done) if done else None,
        "alloc_failures": len(alloc) - len(done),
        "loadavg": list(os.getloadavg()),
    }


def dir_bytes(path: str, since_ns: int = 0) -> tuple:
    """(bytes, files) of regular files under ``path`` modified at or after
    ``since_ns`` — what a step wrote, since the program writes whole files."""
    total = files = 0
    for root, _dirs, names in os.walk(path):
        for name in names:
            st = os.stat(os.path.join(root, name))
            if st.st_mtime_ns >= since_ns:
                total += st.st_size
                files += 1
    return total, files


def fresh_dir(path: str) -> str:
    """Remove ``path``, which the next step writes anew, and make sure its
    parent exists."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path
