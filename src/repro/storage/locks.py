"""Advisory cross-process file locks for the shared stores.

N concurrent ``tune`` processes share one ``results/cache/`` (and, in
the tuning-as-a-service future, one corpus directory).
Atomic renames alone make concurrent *writers of different files* safe,
but read-modify-write cycles on a shared file (the corpus index) and
same-key races (two processes computing and persisting the same cache
entry) need mutual exclusion.

:class:`FileLock` wraps ``fcntl.flock`` on a dedicated lockfile: the OS
releases a flock automatically when the holding process dies, so a
SIGKILLed tune never wedges the store — the lockfile left behind is
*stale* (acquirable), never *held*.  The pid of the current holder is
written into the lockfile purely for diagnostics (``repro doctor``
reports stale locks; ``--repair`` removes them).

An orderly release unlinks the lockfile, so only a crashed holder
leaves one behind.  Unlinking a flock'd file is racy in general (a
waiter can end up locking an unlinked inode while a newcomer locks a
fresh file at the same path), so acquisition re-checks after the flock
succeeds that its fd still names the file at ``path`` — a lock on a
ghost inode is dropped and retried.

On platforms without ``fcntl`` we fall back to ``O_EXCL`` creation with
dead-pid stale detection — weaker (a pid can be recycled) but the repo's
primary targets are POSIX.
"""

from __future__ import annotations

import errno
import os
import time
from pathlib import Path
from typing import Optional

from .records import StorageError

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

__all__ = ["FileLock", "LockTimeout", "lock_is_stale", "remove_stale_lock"]


class LockTimeout(StorageError):
    """The lock could not be acquired within the timeout."""


class FileLock:
    """Advisory exclusive lock on ``path``, usable as a context manager.

    >>> with FileLock(root / ".lock"):
    ...     mutate_shared_state()

    Acquisition polls ``flock(LOCK_EX | LOCK_NB)`` until it succeeds or
    ``timeout`` seconds elapse (then :class:`LockTimeout`).  Non-blocking
    polling rather than a blocking flock keeps the timeout honest and
    the loop interruptible.
    """

    def __init__(self, path, timeout: float = 10.0, poll: float = 0.01) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.poll = poll
        self._fd: Optional[int] = None
        self._exclusive_created = False  # O_EXCL fallback only

    # -- acquisition -------------------------------------------------

    def acquire(self) -> None:
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path} already held by this object")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout
        while True:
            if self._try_acquire():
                return
            if time.monotonic() >= deadline:
                holder = self._holder_pid()
                detail = f" (held by pid {holder})" if holder else ""
                raise LockTimeout(
                    f"could not lock {self.path} within {self.timeout:g}s{detail}"
                )
            time.sleep(self.poll)

    def _try_acquire(self) -> bool:
        if fcntl is not None:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                return False
            # The previous holder may have unlinked the file between our
            # open and our flock: we now hold a lock on a ghost inode
            # while the real lockfile (if any) lives elsewhere.  Retry.
            try:
                current = os.stat(self.path)
                mine = os.fstat(fd)
                if (current.st_ino, current.st_dev) != (mine.st_ino, mine.st_dev):
                    raise FileNotFoundError
            except OSError:
                os.close(fd)
                return False
            # record the holder for diagnostics only; the flock is the lock
            os.ftruncate(fd, 0)
            os.write(fd, str(os.getpid()).encode())
            self._fd = fd
            return True
        return self._try_acquire_exclusive()

    def _try_acquire_exclusive(self) -> bool:
        # O_EXCL fallback: creation is the lock.  A lockfile whose pid is
        # dead is stale and may be broken.
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            if self._pid_is_dead(self._holder_pid()):
                try:
                    self.path.unlink()
                except OSError:
                    pass
            return False
        os.write(fd, str(os.getpid()).encode())
        self._fd = fd
        self._exclusive_created = True
        return True

    # -- release -----------------------------------------------------

    def release(self) -> None:
        fd, self._fd = self._fd, None
        if fd is None:
            return
        self._exclusive_created = False
        # Unlink while still holding the flock (acquirers tolerate the
        # ghost-inode window — see _try_acquire), so an orderly exit
        # leaves no lockfile behind.
        try:
            self.path.unlink()
        except OSError:
            pass
        os.close(fd)  # closing drops the flock

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # -- diagnostics -------------------------------------------------

    def _holder_pid(self) -> Optional[int]:
        try:
            text = self.path.read_text().strip()
            return int(text) if text else None
        except (OSError, ValueError):
            return None

    @staticmethod
    def _pid_is_dead(pid: Optional[int]) -> bool:
        if pid is None:
            return False
        try:
            os.kill(pid, 0)
        except OSError as error:
            return error.errno == errno.ESRCH
        return False


def lock_is_stale(path) -> bool:
    """Whether ``path`` is a leftover lockfile nobody holds.

    With flock semantics a lockfile is stale iff the lock is currently
    acquirable — the OS dropped the flock when its holder died.  Used by
    ``repro doctor`` to report (and with ``--repair``, remove) leftovers.
    """
    path = Path(path)
    if not path.exists():
        return False
    if fcntl is not None:
        try:
            fd = os.open(path, os.O_RDWR)
        except OSError:
            # The holder may release (which unlinks) between the exists()
            # check and here: nobody holds it, nothing to clean up.
            return False
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return False
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
        return True
    try:
        pid = int(path.read_text().strip())
    except (OSError, ValueError):
        return True
    return FileLock._pid_is_dead(pid)


def remove_stale_lock(path) -> bool:
    """Remove ``path`` iff it is a stale lockfile, without ever racing a
    live holder.  Returns whether the file was removed.

    ``lock_is_stale`` followed by ``unlink`` is a TOCTOU: in the gap
    between dropping the probe flock and unlinking, a live process can
    acquire the lockfile; unlinking it then lets a newcomer create a
    fresh file at the same path and two processes "hold" the lock at
    once.  Here the unlink happens *while the flock is held* (mirroring
    :meth:`FileLock.release`), after re-checking that our fd still names
    the file at ``path`` — so we only ever remove an inode we exclusively
    hold.
    """
    path = Path(path)
    if fcntl is not None:
        try:
            fd = os.open(path, os.O_RDWR)
        except OSError:
            return False  # already gone (or unreadable): nothing we can remove
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return False  # held: not stale
        try:
            current = os.stat(path)
            mine = os.fstat(fd)
            if (current.st_ino, current.st_dev) != (mine.st_ino, mine.st_dev):
                raise FileNotFoundError  # fresh file appeared at path; not ours
            os.unlink(path)
        except OSError:
            os.close(fd)
            return False
        os.close(fd)  # closing drops the flock on the (now unlinked) inode
        return True
    # O_EXCL fallback: no flock to hold, dead-pid detection is the best
    # staleness signal available.
    if not lock_is_stale(path):
        return False
    try:
        path.unlink()
    except OSError:
        return False
    return True
