"""Inodes, directory entries, and stat results.

§4.3: "both directories and files are stored as files"; directory content
is the entry table of its children, and creating a file/directory updates
the parent's content. Striping information is a record in file metadata.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from ..errors import FSError
from .striping import StripeSpec

__all__ = ["FileType", "Inode", "Stat", "alloc_ino"]

_ino_counter = itertools.count(2)  # 1 is reserved for each FS root


def alloc_ino() -> int:
    """Allocate a fresh inode number (global across the simulation)."""
    return next(_ino_counter)


class FileType(Enum):
    """Inode kinds: regular file or directory."""
    FILE = "file"
    DIRECTORY = "directory"


@dataclass
class Inode:
    """File or directory metadata.

    For directories, ``entries`` maps child name to child inode number —
    the directory's "file content". For regular files, ``stripe`` records
    the layout and ``size`` the logical length.
    """

    ino: int
    ftype: FileType
    path: str
    size: int = 0
    ctime: float = 0.0
    mtime: float = 0.0
    nlink: int = 1
    uid: int = 0
    stripe: Optional[StripeSpec] = None
    entries: Optional[Dict[str, int]] = None

    def __post_init__(self):
        if self.ftype is FileType.DIRECTORY and self.entries is None:
            self.entries = {}
        if self.ftype is FileType.FILE and self.stripe is None:
            raise FSError(f"file inode {self.path!r} needs a stripe spec")
        # A directory's stat size: its entry table's on-device bytes (the
        # name plus a fixed record per entry, like a compact dirent), kept
        # by link_child/unlink_child so stat() stays O(1) on big ones.
        self._dir_bytes = sum(len(name) + 16 for name in (self.entries or {}))

    @property
    def is_dir(self) -> bool:
        return self.ftype is FileType.DIRECTORY

    # ---------------------------------------------------- directory mutation
    def link_child(self, name: str, ino: int) -> None:
        """Add (or re-point) directory entry *name* -> *ino*."""
        if name not in self.entries:
            self._dir_bytes += len(name) + 16
        self.entries[name] = ino

    def unlink_child(self, name: str) -> None:
        """Drop directory entry *name* if present."""
        if self.entries.pop(name, None) is not None:
            self._dir_bytes -= len(name) + 16

    def stat(self) -> "Stat":
        """An immutable stat snapshot of this inode."""
        return Stat(
            ino=self.ino,
            ftype=self.ftype,
            size=self._dir_bytes if self.is_dir else self.size,
            ctime=self.ctime,
            mtime=self.mtime,
            nlink=self.nlink,
            uid=self.uid,
            stripe_count=self.stripe.stripe_count if self.stripe else 0,
        )


@dataclass(frozen=True)
class Stat:
    """Immutable snapshot returned by ``stat()``."""

    ino: int
    ftype: FileType
    size: int
    ctime: float
    mtime: float
    nlink: int
    uid: int
    stripe_count: int

    @property
    def is_dir(self) -> bool:
        return self.ftype is FileType.DIRECTORY
