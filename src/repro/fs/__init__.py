"""Userspace distributed file system substrate (§4.3 of the paper)."""

from .backends import ChunkBackend, ExtentBackend, LogBackend, make_backend
from .filesystem import StorageNode, ThemisFS
from .hashing import ConsistentHashRing
from .journal import JournaledFS, JournalRecord, NamespaceJournal
from .logstore import LogRecord, LogStructuredStore, RecoveryReport, Segment
from .locking import MetadataLockTable, RangeLockTable
from .metadata import FileType, Inode, Stat
from .path import DEFAULT_NAMESPACE, components, in_namespace, join, normalize, split
from .striping import ChunkSlice, StripeSpec, map_range

__all__ = [
    "ThemisFS",
    "StorageNode",
    "ChunkBackend",
    "ExtentBackend",
    "LogBackend",
    "make_backend",
    "LogStructuredStore",
    "LogRecord",
    "Segment",
    "RecoveryReport",
    "JournaledFS",
    "NamespaceJournal",
    "JournalRecord",
    "ConsistentHashRing",
    "StripeSpec",
    "ChunkSlice",
    "map_range",
    "Inode",
    "Stat",
    "FileType",
    "RangeLockTable",
    "MetadataLockTable",
    "normalize",
    "split",
    "join",
    "components",
    "in_namespace",
    "DEFAULT_NAMESPACE",
]
