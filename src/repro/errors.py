"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation kernel."""


class StopSimulation(Exception):
    """Internal control-flow signal that stops :meth:`Engine.run`.

    Deliberately *not* a :class:`ReproError`: it must never be swallowed by
    user code catching the package error base class.
    """


class InterruptError(ReproError):
    """Raised inside a process when another process interrupts it."""

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


class NetworkError(ReproError):
    """Raised for fabric misconfiguration or unreachable nodes."""


class UCXError(ReproError):
    """Raised by the UCX-like communication layer."""


class RpcTimeout(UCXError):
    """An RPC call received no response within its timeout window.

    Raised into the caller when a request's timeout expires (server
    crashed, link partitioned, or message dropped); the fault-tolerant
    client retries on it with exponential backoff.
    """


class FSError(ReproError):
    """Base class for file-system errors (carries an errno-like code)."""

    errno_name = "EIO"


class FileNotFound(FSError):
    """ENOENT: the path does not exist."""

    errno_name = "ENOENT"


class FileExists(FSError):
    """EEXIST: the path already exists."""

    errno_name = "EEXIST"


class NotADirectory(FSError):
    """ENOTDIR: a path component is not a directory."""

    errno_name = "ENOTDIR"


class IsADirectory(FSError):
    """EISDIR: data I/O attempted on a directory."""

    errno_name = "EISDIR"


class DirectoryNotEmpty(FSError):
    """ENOTEMPTY: rmdir on a non-empty directory."""

    errno_name = "ENOTEMPTY"


class NoSpace(FSError):
    """ENOSPC: the device cannot satisfy the allocation."""

    errno_name = "ENOSPC"


class InvalidArgument(FSError):
    """EINVAL: malformed offset, size, path, or flag."""

    errno_name = "EINVAL"


class PolicyError(ReproError):
    """Raised for malformed sharing-policy specifications."""


class SchedulerError(ReproError):
    """Raised for scheduler misuse (e.g. dequeue from an unknown job)."""


class ConfigError(ReproError):
    """Raised for invalid experiment/harness configuration."""
