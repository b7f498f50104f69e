"""Concurrency control mirroring §4.3's rules.

- Concurrent reads of the same file: no locking.
- Concurrent writes: allowed when byte ranges do not conflict.
- Metadata updates: a per-inode mutex.

In the simulator, FS calls execute instantaneously inside a server
worker's service window; the lock table is what decides whether two
*in-flight* requests may be serviced concurrently by different workers.
:class:`RangeLockTable` implements writer-vs-writer range conflicts
(readers never block), :class:`MetadataLockTable` per-key mutexes.
Both are non-blocking try-lock interfaces.

Waiting is **event-driven**: a caller whose ``try_lock`` fails registers
a waiter with :meth:`~RangeLockTable.wait` and parks on it. Waiter
entries are keyed by *owner* and keep their FIFO position across retry
failures: a woken loser that re-registers re-arms its existing entry in
place instead of moving to the back of the queue, so contention
resolution order is deterministic and independent of how many no-op
wakeups happen in between.

Release-time wakeups are **range-indexed**: a write-lock release wakes
only the waiters whose byte ranges overlap a released range, in FIFO
order; a metadata-mutex release wakes only the head waiter. A release's
wakeup cost scales with the *conflicting* waiters, not the inode's
total fan-out, and a waiter retries at the event position of the
release that actually freed its range. Waking a non-overlapping waiter
as well is **not** a no-op: when the lock it does conflict with is
released later in the same instant, its retry — queued by the first
release — finds the range free and acquires at the wrong place in the
instant's event order (131 of 436 such wake-ups on the ledger's
``job_churn``; EXPERIMENTS.md, *Decision records*, PR 17). The tables stay
simulation-agnostic — a waiter is anything with a ``succeed()`` method,
which :class:`repro.sim.process.Event` provides.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import FSError

__all__ = ["RangeLockTable", "MetadataLockTable"]


class _WaitEntry:
    """One parked waiter: its conflict range and one-shot wake event."""

    __slots__ = ("offset", "end", "event", "woken")

    def __init__(self, offset: Optional[int], end: Optional[int],
                 event: object):
        self.offset = offset   # None = conflicts with any release
        self.end = end
        self.event = event
        self.woken = False


class _WaiterMixin:
    """FIFO waiter queues keyed by inode number, entries keyed by owner.

    Entries are one-shot (a woken waiter is skipped by later wakes) but
    *positional*: re-registering under the same owner re-arms the entry
    where it already sits. An entry leaves the queue when its owner
    acquires the lock (``try_lock*`` success) or on the crash reset.
    """

    __slots__ = ("_waiters",)

    def __init__(self):
        # ino -> {owner key -> entry}; dicts preserve insertion order.
        self._waiters: Dict[int, Dict[object, _WaitEntry]] = {}

    def wait(self, ino: int, waiter: object, offset: Optional[int] = None,
             length: Optional[int] = None, owner: object = None) -> None:
        """Register *waiter* to be woken at the next conflicting release
        on *ino*.

        *waiter* needs a ``succeed()`` method (e.g. a sim ``Event``).
        *offset*/*length* scope the wakeup to releases overlapping that
        byte range (``None`` = woken by any release). *owner* keys the
        entry so a retry loser re-arms in place; it defaults to the
        waiter object itself (every call then appends a fresh entry).
        """
        key = waiter if owner is None else owner
        queue = self._waiters.get(ino)
        if queue is None:
            queue = self._waiters[ino] = {}
        end = None if offset is None or length is None else offset + length
        entry = queue.get(key)
        if entry is not None:
            # Re-arm in place: the loser keeps its FIFO position.
            entry.offset = offset
            entry.end = end
            entry.event = waiter
            entry.woken = False
        else:
            queue[key] = _WaitEntry(offset, end, waiter)

    def waiters(self, ino: int) -> int:
        """Number of waiters currently parked (armed) on *ino*."""
        queue = self._waiters.get(ino)
        if not queue:
            return 0
        return sum(1 for entry in queue.values() if not entry.woken)

    def _discard_waiter(self, ino: int, owner: object) -> None:
        """Drop *owner*'s entry on *ino* (called on lock acquisition)."""
        queue = self._waiters.get(ino)
        if queue and queue.pop(owner, None) is not None and not queue:
            del self._waiters[ino]

    def _wake(self, ino: int, ranges: List[Tuple[int, int]]) -> int:
        """Wake, in FIFO order, the armed waiters on *ino* whose range
        overlaps a released range (unranged waiters conflict with any
        release); returns the count. Entries stay queued (one-shot,
        positional) — the owner either acquires (entry discarded) or
        re-arms."""
        queue = self._waiters.get(ino)
        if not queue:
            return 0
        woken = 0
        for entry in list(queue.values()):
            if entry.woken:
                continue
            if getattr(entry.event, "cancelled", False):
                # The waiter abandoned the wait (timer-style cancel);
                # succeed() on it would raise. Retire the entry instead.
                entry.woken = True
                continue
            if entry.offset is not None:
                for lo, hi in ranges:
                    if entry.offset < hi and lo < entry.end:
                        break
                else:
                    continue
            entry.woken = True
            woken += 1
            entry.event.succeed()
        return woken

    def _wake_head(self, ino: int) -> int:
        """Wake only the first armed waiter (mutex release)."""
        queue = self._waiters.get(ino)
        if not queue:
            return 0
        for entry in queue.values():
            if entry.woken:
                continue
            if getattr(entry.event, "cancelled", False):
                entry.woken = True  # abandoned wait: retire, try the next
                continue
            entry.woken = True
            entry.event.succeed()
            return 1
        return 0

    def _wake_all(self) -> None:
        """Wake every parked waiter on every inode (crash reset path)."""
        waiters, self._waiters = self._waiters, {}
        for queue in waiters.values():
            for entry in queue.values():
                if entry.woken or getattr(entry.event, "cancelled", False):
                    continue
                entry.event.succeed()


class RangeLockTable(_WaiterMixin):
    """Byte-range write locks per file (inode number)."""

    __slots__ = ("_writes",)

    def __init__(self):
        super().__init__()
        self._writes: Dict[int, List[Tuple[int, int, object]]] = {}

    def try_lock_write(self, ino: int, offset: int, length: int,
                       owner: object) -> bool:
        """Acquire a write lock on ``[offset, offset+length)``; False on conflict.

        Per §4.3, concurrent writes proceed "without any limitation if the
        byte ranges do not conflict".
        """
        if offset < 0 or length < 0:
            raise FSError(f"invalid lock range: {offset}+{length}")
        end = offset + length
        held = self._writes.get(ino, [])
        for o, e, _owner in held:
            if offset < e and o < end:
                return False
        self._writes.setdefault(ino, []).append((offset, end, owner))
        if self._waiters:
            self._discard_waiter(ino, owner)
        return True

    def unlock_write(self, ino: int, owner: object) -> int:
        """Release all write locks held by *owner* on *ino*; returns count.

        Releasing wakes the waiters parked on *ino* whose ranges overlap
        a released range.
        """
        held = self._writes.get(ino)
        if not held:
            return 0
        if not self._waiters.get(ino):
            # Nobody parked on this inode: drop the owner's locks without
            # collecting the freed ranges.
            kept = [t for t in held if t[2] is not owner]
            if kept:
                self._writes[ino] = kept
            else:
                self._writes.pop(ino, None)
            return len(held) - len(kept)
        kept = []
        freed: List[Tuple[int, int]] = []
        for o, e, w in held:
            if w is owner:
                freed.append((o, e))
            else:
                kept.append((o, e, w))
        if kept:
            self._writes[ino] = kept
        else:
            self._writes.pop(ino, None)
        if freed:
            self._wake(ino, freed)
        return len(freed)

    def write_locks_held(self, ino: int) -> int:
        """Number of write locks currently held on *ino*."""
        return len(self._writes.get(ino, []))

    def reset(self) -> None:
        """Drop every lock and wake every waiter (server crash path).

        Woken waiters retry their acquisition; workers on a crashed
        server observe the crash epoch and abandon the request instead,
        so nobody is left parked forever on a lock that will never be
        released.
        """
        self._writes.clear()
        self._wake_all()


class MetadataLockTable(_WaiterMixin):
    """Per-inode mutex for metadata updates (§4.3)."""

    __slots__ = ("_held",)

    def __init__(self):
        super().__init__()
        self._held: Dict[int, object] = {}

    def try_lock(self, ino: int, owner: object) -> bool:
        """Acquire the inode's metadata mutex; False if another owner holds it."""
        current = self._held.get(ino)
        if current is None:
            self._held[ino] = owner
            if self._waiters:
                self._discard_waiter(ino, owner)
            return True
        return current is owner  # re-entrant for the same owner

    def unlock_if_held(self, ino: int, owner: object) -> bool:
        """Release the mutex only if *owner* holds it, and wake the head
        waiter (a mutex has exactly one next holder); True if released.

        After a server crash wipes the table, the releasing worker may
        no longer be the recorded owner: that is not an error.
        """
        if self._held.get(ino) is not owner:
            return False
        del self._held[ino]
        self._wake_head(ino)
        return True

    def reset(self) -> None:
        """Drop every mutex and wake every waiter (server crash path)."""
        self._held.clear()
        self._wake_all()

    def locked(self, ino: int) -> bool:
        """True if *ino*'s metadata mutex is held."""
        return ino in self._held

    def holders(self) -> Set[int]:
        """The inode numbers currently locked."""
        return set(self._held)
