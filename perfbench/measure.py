"""Measurement helpers for the repository benchmark (``perfbench/run.py``).

Nothing here imports the router package: percentiles, failure
accounting, in-memory spans with self-time, and host/memory facts.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it (so ``p99`` needs at least 1000 samples).
MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Nearest-rank ``q`` quantile of ``samples`` (``0 < q < 1``), or
    ``None`` when fewer than ``min_beyond`` samples lie above its rank."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    n = len(samples)
    if n == 0:
        return None
    rank = min(n, max(1, math.ceil(q * n)))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def min_samples_for(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which :func:`tail_percentile` reports."""
    n = 1
    while n - min(n, max(1, math.ceil(q * n))) < min_beyond:
        n += 1
    return n


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


class Tally:
    """Failure accounting behind ``fail_ratio``.

    ``fail_ratio = (packets whose disposition differs from the expected
    one + control verbs that raised + counter reconciliations that did
    not balance) / (packets + verbs + reconciliations attempted)``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def packets(self, got: Sequence[str], expected: Sequence[str],
                where: str = "") -> int:
        """Count one burst; returns its mismatches."""
        self.attempted += len(expected)
        bad = len(expected) - len(got)
        bad += sum(1 for g, e in zip(got, expected) if g != e)
        if bad:
            self.failed += bad
            self._note(f"{where}: {bad} of {len(expected)} dispositions differ")
        return bad

    def verb(self, name: str, call, *args, **kwargs) -> bool:
        """Run one control verb; a verb that raises counts as failed."""
        self.attempted += 1
        try:
            call(*args, **kwargs)
        except Exception as exc:  # counted, reported, and the run goes on
            self.failed += 1
            self._note(f"verb {name} raised {type(exc).__name__}: {exc}")
            return False
        return True

    def check(self, ok: bool, what: str) -> bool:
        """One reconciliation or equality check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(f"check failed: {what}")
        return ok

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)


class Spans:
    """In-memory span recorder: ``(name, start_ns, end_ns, parent, burst)``.

    Spans nest through an explicit stack, so a span opened while another
    is open becomes its child.  Rows are plain lists; nothing is written
    until :meth:`to_dict` is called at the end of the run.
    """

    def __init__(self) -> None:
        self.rows: List[list] = []
        self._stack: List[int] = []
        self.burst = -1

    def open(self, name: str) -> int:
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, time.perf_counter_ns(), 0, parent, self.burst])
        self._stack.append(index)
        return index

    def close(self, index: int) -> int:
        """Close the innermost span (which must be ``index``); returns
        its duration in ns."""
        end = time.perf_counter_ns()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("spans must close innermost first")
        self._stack.pop()
        row = self.rows[index]
        row[2] = end
        return end - row[1]

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span; returns
        ``(result, duration_ns)``."""
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self.close(index)
        return result, duration

    def durations(self, name: str) -> List[int]:
        return [r[2] - r[1] for r in self.rows if r[0] == name]

    def to_dict(self) -> dict:
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "burst"],
            "spans": self.rows,
            "self_time_ns": self_times(self.rows),
        }


def covered(interval: Sequence[int], children: Iterable[Sequence[int]]) -> int:
    """Length of ``interval`` covered by the union of ``children``
    (each a ``(start, end)`` pair, clipped to the interval)."""
    lo, hi = interval
    pieces = sorted(
        (max(lo, s), min(hi, e)) for s, e in children if min(hi, e) > max(lo, s)
    )
    total = 0
    cur_s = cur_e = None
    for s, e in pieces:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(rows: Sequence[Sequence]) -> Dict[str, int]:
    """Total self time per span name: each span's duration minus the part
    of its interval that its direct children cover."""
    children: Dict[int, List[tuple]] = {}
    for row in rows:
        if row[3] >= 0:
            children.setdefault(row[3], []).append((row[1], row[2]))
    totals: Dict[str, int] = {}
    for index, row in enumerate(rows):
        own = (row[2] - row[1]) - covered((row[1], row[2]), children.get(index, ()))
        totals[row[0]] = totals.get(row[0], 0) + own
    return totals


def timer_overhead_ns(samples: int = 2001) -> float:
    """Median cost of one back-to-back ``perf_counter_ns`` pair."""
    clock = time.perf_counter_ns
    deltas = []
    for _ in range(samples):
        t0 = clock()
        deltas.append(clock() - t0)
    return statistics.median(deltas)


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 0x5BD1E995
        self.b = 7

    def step(self, x: int) -> int:
        return ((x ^ self.a) + self.b) & 0xFFFFFFFF


_PROBE = _Probe()
_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(1024)}

#: Kernel time that defines reference host speed (a typical
#: :func:`host_kernel_ns` time on the 2-core reference host).
REF_KERNEL_NS = 200_000


def host_kernel_ns(rounds: int = 600) -> int:
    """Time one run of a fixed pure-Python kernel (dict probes, slot
    loads, method calls).  It allocates nothing the collector tracks and
    touches no object of the program under test, so only the host's
    speed moves its time."""
    step, table = _PROBE.step, _TABLE
    acc = 0
    t0 = time.perf_counter_ns()
    for i in range(rounds):
        acc = step(acc + table[(acc ^ i) & 1023])
    return time.perf_counter_ns() - t0


class HostSpeed:
    """Host-speed reference interleaved with the workload.

    On a shared host the CPU time a process gets per second of wall time
    drifts by tens of percent over tens of seconds, and every timing of
    a run moves with it.  The benchmark times :func:`host_kernel_ns`
    after every burst and around every set-up; :meth:`factor` scales a
    raw timing taken next to sample ``at`` to reference host speed using
    the median of the neighbouring samples.
    """

    def __init__(self, half_window: int = 4) -> None:
        self.samples: List[int] = []
        self.half = half_window

    def sample(self) -> int:
        """Take one sample; returns its index."""
        self.samples.append(host_kernel_ns())
        return len(self.samples) - 1

    def factor(self, at: int) -> float:
        lo = max(0, min(at, len(self.samples) - 1) - self.half)
        return REF_KERNEL_NS / statistics.median(
            self.samples[lo:at + self.half + 1])


def _vm_hwm_kib(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def live_children() -> set:
    """PIDs of the live multiprocessing children."""
    return {child.pid for child in multiprocessing.active_children()}


def children_peak_kib(exclude: Iterable[int] = ()) -> int:
    """Summed peak RSS of the live multiprocessing children (forked
    shard workers) other than ``exclude``; call before they stop."""
    skip = set(exclude)
    return sum(_vm_hwm_kib(pid) or 0 for pid in live_children() - skip)


def self_peak_kib() -> int:
    """Peak RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def git_commit(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(root: str, seed: int, usable_cpus: int, mp_ok: bool) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "mp_available": mp_ok,
        "python": platform.python_version(),
        "git_commit": git_commit(root),
    }
