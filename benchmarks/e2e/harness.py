"""Measurement plumbing: clocks, sample series, failures, reference speed.

Nothing here knows about RPKI.  Two decisions matter.

The time basis: every timing is taken on *two* clocks, wall
(``time.perf_counter``) and process CPU (``time.process_time``), and the
reported statistics use the CPU clock.  The benchmark is one process,
one thread, no I/O and no sleeping, so on an unshared core the two
clocks agree; on the shared 2-core sandbox this was written on, the
hypervisor steals 10-70 % of the core in multi-second bursts and
wall-clock medians of identical runs differ by up to 2x.  Wall time is
kept beside every sample, ``preempted_samples`` counts the samples whose
wall/cpu ratio exceeds 1.2, and ``wall_cpu_ratio`` would expose a later
change that moves work to another process or starts waiting on
something.

The speed basis: CPU seconds of the same code also move with the
machine, by 10-20 % within an hour and 1.3-2.6x for minutes at a time
(a neighbour on the host; memory- and allocation-heavy code slows most).
So a fixed kernel that is none of the program's (``reference``) is timed
all through a pass, before a sample whenever the last timing is older
than ``REF_EVERY_S``, and every sample is divided by how much slower
than ``REF_NOMINAL_S`` the kernel ran just before and just after it
(``Series.paced``).  Medians and tails are taken over those: a slow
machine cancels, a slower program does not.  The stage table and the
per-layer span totals of a traced pass stay CPU seconds as measured.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import struct
import sys
import time
from contextlib import contextmanager
from pathlib import Path

PREEMPTED_RATIO = 1.2
# Process-CPU seconds of one reference() call on the quiet sandbox this
# was written on: the machine speed every reported timing is stated at.
REF_NOMINAL_S = 0.0125
# Wall seconds after which the last reference timing is too old to
# stand for the machine's speed during the next sample.
REF_EVERY_S = 0.2


def clocks() -> tuple[float, float]:
    """(wall, cpu) right now."""
    return time.perf_counter(), time.process_time()


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Series:
    """The raw samples of one timed operation, on both clocks.

    ``group[i]`` is the index of the recorder's last reference timing
    before sample *i*; the next one follows it.  Every statistic is
    taken over ``paced()``, the samples at the nominal machine speed;
    ``to_json`` keeps them as measured.
    """

    def __init__(self, name: str, refs: list[float]):
        self.name = name
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.group: list[int] = []
        self._refs = refs

    def add(self, start: tuple[float, float], end: tuple[float, float]) -> None:
        self.add_value(end[0] - start[0], end[1] - start[1])

    def add_value(self, wall: float, cpu: float) -> None:
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.group.append(len(self._refs) - 1)

    def extend_cpu(self, cpu: list[float]) -> None:
        """Samples timed on the CPU clock alone, all since the last pace()."""
        self.cpu.extend(cpu)
        self.group.extend([len(self._refs) - 1] * len(cpu))

    def __len__(self) -> int:
        return len(self.cpu)

    def paced(self) -> list[float]:
        """Each sample's CPU seconds at the nominal machine speed.

        A sample is divided by how much slower than ``REF_NOMINAL_S``
        the reference kernel ran just before and just after it.  Valid
        once the reference timing that follows the last sample is taken.
        """
        refs = self._refs
        return [cpu * 2 * REF_NOMINAL_S / (refs[g] + refs[g + 1])
                for cpu, g in zip(self.cpu, self.group)]

    def median(self) -> float:
        """The steady estimate of the operation's cost.

        Over 15 runs per workload in a noisy hour (reference timings
        1.0-1.5x nominal) the quartiles of the plain median lay 22-42 %
        of their median apart, those of the plain lower decile 16-29 %,
        those of this 2-5 %.
        """
        return statistics.median(self.paced())

    def percentile(self, q: float) -> float:
        return percentile(self.paced(), q)

    def preempted(self) -> int:
        return sum(
            1 for wall, cpu in zip(self.wall, self.cpu)
            if cpu > 0 and wall / cpu > PREEMPTED_RATIO
        )

    def to_json(self) -> dict:
        return {"n": len(self), "cpu_s": self.cpu, "wall_s": self.wall,
                "ref_group": self.group}


class Recorder:
    """All sample series of one workload pass, plus its failure ledger.

    A correctness miss never raises: it is counted against the number
    of operations attempted, so one bad cycle shows up as a non-zero
    ``failed_ops_ratio`` (and a non-zero exit) instead of a traceback
    that hides every other number.
    """

    def __init__(self) -> None:
        self.series: dict[str, Series] = {}
        self.counts: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # CPU seconds of every reference() call, in order.  One more is
        # taken after the last sample, so every sample lies between two.
        self.refs: list[float] = []
        self.take_reference()

    def __getitem__(self, name: str) -> Series:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = Series(name, self.refs)
        return series

    def take_reference(self) -> None:
        self.refs.append(reference())
        self._ref_at = time.perf_counter()

    def pace(self) -> None:
        """Before a sample: time the reference kernel again if the last
        timing is older than ``REF_EVERY_S``."""
        if time.perf_counter() - self._ref_at >= REF_EVERY_S:
            self.take_reference()

    def forget_samples(self) -> None:
        """Drop the samples and counts so far (the warm-up's); the ledger
        of checks and the reference timings stay."""
        self.series.clear()
        self.counts.clear()

    @contextmanager
    def sample(self, name: str):
        """Time one sample of *name*; collect garbage first, not during."""
        gc.collect()
        self.pace()
        start = clocks()
        yield
        self[name].add(start, clocks())

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def check(self, ok: bool, what: str) -> bool:
        """Record one attempted operation and whether it came out right."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def preempted(self) -> int:
        return sum(series.preempted() for series in self.series.values())

    def wall_cpu_ratio(self) -> float:
        both = [s for s in self.series.values() if s.wall]
        wall = sum(sum(s.wall) for s in both)
        cpu = sum(sum(s.cpu) for s in both)
        return wall / cpu if cpu else 0.0


class Phase:
    """Run samples until *seconds* of wall clock are used up.

    At least *min_samples* are always taken so a slow or preempted run
    still yields a median; the overshoot is bounded by those samples.
    """

    def __init__(self, seconds: float, min_samples: int = 3):
        self._end = time.perf_counter() + seconds
        self._min = min_samples
        self.taken = 0

    def more(self) -> bool:
        if self.taken >= self._min and time.perf_counter() >= self._end:
            return False
        self.taken += 1
        return True


_REF_MODULUS = (1 << 2048) - 1557
_REF_RECORDS = bytes(range(256)) * 256          # 64 KiB
_REF_HEADER = struct.Struct(">IH")
_REF_HEAP = bytes(range(256)) * 65536           # 16 MiB
_REF_HEAP_MASK = len(_REF_HEAP) - 1


class _RefNode:
    __slots__ = ("tag", "text", "kids")

    def __init__(self, tag: int, text: str):
        self.tag = tag
        self.text = text
        self.kids: list = []

    def total(self) -> int:
        return self.tag + sum(kid.total() for kid in self.kids)


def reference() -> float:
    """CPU seconds of a fixed piece of work: how fast is this box now?

    The same work every time and none of it the program's, so its
    duration moves only with the machine.  A busy host slows each kind
    of work by another factor (in one hour here: ``pow`` 3 %, the decode
    loop 5 %, scattered loads 8 %, allocation 15 %, the workloads
    10-16 %; in another all alike), so the mix is the program's: a
    little big-integer ``pow`` and SHA-256 (an RSA verify and a digest),
    an interpreter-bound decode loop (struct reads, slices, tuple keys,
    a dict, a sort), dependent loads scattered over 16 MiB, and a tree
    of small objects built and walked by method calls.  Of the weights
    tried on 177 recorded runs with each part timed apart, these left
    the least spread in the scaled workload timings.
    """
    collecting = gc.isenabled()
    gc.disable()        # a collection is the heap's cost, not the machine's
    try:
        start = time.process_time()
        acc = 3
        digest = b"reference"
        for i in range(8):
            acc = pow(acc + i, 65537, _REF_MODULUS)
            digest = hashlib.sha256(digest + _REF_RECORDS[:4096]).digest()
        table: dict = {}
        unpack, records = _REF_HEADER.unpack_from, _REF_RECORDS
        for offset in range(0, len(records) - 8, 8):
            tag, length = unpack(records, offset)
            key = (tag & 0xFFFF, records[offset:offset + 3])
            table[key] = table.get(key, 0) + length
        sorted(table.items())
        index, heap, mask = acc & _REF_HEAP_MASK, _REF_HEAP, _REF_HEAP_MASK
        for _ in range(20000):
            index = (index * 1103515245 + 12345 + heap[index]) & mask
        root = _RefNode(1, "root")
        open_nodes = [root]
        for i in range(4000):
            node = _RefNode(i, str(i))
            open_nodes[i % len(open_nodes)].kids.append(node)
            if i % 7 == 0:
                open_nodes.append(node)
        root.total()
        return time.process_time() - start
    finally:
        if collecting:
            gc.enable()


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(repo_root: Path) -> str:
    """HEAD's commit id read from the files (no subprocess), or 'unknown'.

    The driver's checkout is not a git repository; by-hand runs are.
    """
    try:
        head = (repo_root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = repo_root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (repo_root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(repo_root: Path) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(repo_root),
        "time_basis": "process CPU seconds at the nominal reference speed "
                      "(samples and wall time kept as measured)",
    }
