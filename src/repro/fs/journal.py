"""Namespace journaling and crash recovery (§7 future work, metadata half).

The log-structured backend (:mod:`repro.fs.logstore`) makes chunk *data*
recoverable; this module makes the *namespace* recoverable. A
:class:`NamespaceJournal` records every namespace mutation (mkdir,
create, unlink, rmdir, size extension) as a durable,
replayable record, with optional checkpoints that compact the record
stream. :class:`JournaledFS` is a drop-in :class:`~repro.fs.ThemisFS`
that writes the journal as it mutates, and can :meth:`crash` (losing
every volatile table) and :meth:`recover` (checkpoint + replay, then a
segment scan of each log-backed store).

Inode numbers are recorded and restored, so recovered metadata lines up
with the data records keyed ``(ino, chunk)`` in the log store.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import FSError
from . import path as pathmod
from .filesystem import ThemisFS
from .metadata import FileType, Inode
from .striping import StripeSpec

__all__ = ["NamespaceJournal", "JournalRecord", "JournaledFS"]


@dataclass(frozen=True)
class JournalRecord:
    """One durable namespace mutation."""

    seq: int
    op: str
    args: Dict[str, Any]


@dataclass
class NamespaceJournal:
    """Append-only mutation log with checkpoint compaction."""

    records: List[JournalRecord] = field(default_factory=list)
    checkpoint: Optional[List[Dict[str, Any]]] = None
    _seq: itertools.count = field(default_factory=lambda: itertools.count(1))
    checkpoints_taken: int = 0

    def log(self, op: str, **args: Any) -> JournalRecord:
        """Append one mutation record and return it."""
        record = JournalRecord(seq=next(self._seq), op=op, args=args)
        self.records.append(record)
        return record

    def __len__(self) -> int:
        return len(self.records)

    def take_checkpoint(self, fs: ThemisFS) -> None:
        """Snapshot the namespace and truncate the record stream."""
        snapshot: List[Dict[str, Any]] = []
        for node in fs.nodes.values():
            for inode in node.inodes.values():
                entry = {
                    "path": inode.path,
                    "ino": inode.ino,
                    "ftype": inode.ftype.value,
                    "size": inode.size,
                    "uid": inode.uid,
                }
                if inode.stripe is not None:
                    entry["stripe_servers"] = list(inode.stripe.servers)
                snapshot.append(entry)
        snapshot.sort(key=lambda e: (len(pathmod.components(e["path"])),
                                     e["path"]))
        self.checkpoint = snapshot
        self.records = []
        self.checkpoints_taken += 1


class JournaledFS(ThemisFS):
    """A ThemisFS whose namespace mutations are journaled.

    Combine with ``storage_backend="log"`` for full crash recovery of
    both metadata and data.
    """

    def __init__(self, *args, journal: Optional[NamespaceJournal] = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.journal = journal if journal is not None else NamespaceJournal()
        self._replaying = False

    # ------------------------------------------------------- logged mutators
    def mkdir(self, path: str, ino: Optional[int] = None) -> Inode:
        inode = self._mkdir_raw(path, ino)
        if not self._replaying:
            self.journal.log("mkdir", path=inode.path, ino=inode.ino)
        return inode

    def create(self, path: str, stripe_count: Optional[int] = None,
               uid: int = 0, ino: Optional[int] = None) -> Inode:
        inode = self._create_raw(path, stripe_count, uid, ino)
        if not self._replaying:
            self.journal.log("create", path=inode.path, ino=inode.ino,
                             uid=uid,
                             stripe_servers=list(inode.stripe.servers))
        return inode

    def unlink(self, path: str) -> None:
        norm = pathmod.normalize(path)
        ino = self._ino(norm)
        super().unlink(norm)
        if not self._replaying:
            self.journal.log("unlink", path=norm, ino=ino)

    def rmdir(self, path: str) -> None:
        norm = pathmod.normalize(path)
        ino = self._ino(norm)
        super().rmdir(norm)
        if not self._replaying:
            self.journal.log("rmdir", path=norm, ino=ino)

    def write(self, path: str, offset: int, data: bytes) -> int:
        return self._logged_extend(path, super().write(path, offset, data),
                                   offset, len(data))

    def write_accounting(self, path: str, offset: int, length: int) -> int:
        return self._logged_extend(
            path, super().write_accounting(path, offset, length),
            offset, length)

    def _logged_extend(self, path: str, result: int, offset: int,
                       length: int) -> int:
        if not self._replaying:
            inode = self.lookup(path)
            if inode is not None and inode.size == offset + length:
                # The write extended the file: record the new size.
                self.journal.log("extend", path=inode.path, ino=inode.ino,
                                 size=inode.size)
        return result

    def _ino(self, path: str) -> Optional[int]:
        """The inode number *path* names right now (None if absent).

        Every path-addressed record carries it, because a path can be
        removed and made again: replay must be able to tell the inode a
        record acted on from a later one under the same name.
        """
        inode = self.lookup(path)
        return None if inode is None else inode.ino

    # ------------------------------------------------------ raw (unlogged)
    def _mkdir_raw(self, path: str, ino: Optional[int]) -> Inode:
        inode = super().mkdir(path)
        if ino is not None:
            self._renumber(inode, ino)
        return inode

    def _create_raw(self, path: str, stripe_count, uid,
                    ino: Optional[int]) -> Inode:
        inode = super().create(path, stripe_count=stripe_count, uid=uid)
        if ino is not None:
            self._renumber(inode, ino)
        return inode

    def _renumber(self, inode: Inode, ino: int) -> None:
        """Restore a recorded inode number during replay."""
        node = self.nodes[self.metadata_server(inode.path)]
        node.inodes.pop(inode.ino, None)
        parent_path, name = pathmod.split(inode.path)
        inode.ino = ino
        node.inodes[ino] = inode
        node.paths[inode.path] = ino
        parent = self.lookup(parent_path)
        if parent is not None:
            parent.link_child(name, ino)

    # ----------------------------------------------------------- fault model
    def crash(self) -> None:
        """Crash every server (:meth:`crash_node`): namespace tables,
        locks and (for log backends) the chunk indexes are lost. The
        journal and log segments are the durable state that survives."""
        for name in self.nodes:
            self.crash_node(name)

    def recover(self) -> Dict[str, Any]:
        """Rebuild every server from the journal (checkpoint + replay)
        and rescan log-backed stores. Returns recovery statistics."""
        return self._recover(list(self.nodes))

    def crash_node(self, name: str) -> None:
        """Crash one server: its namespace tables, locks, and (for log
        backends) chunk index all vanish. Other servers are untouched;
        the shared journal and the node's log segments survive."""
        node = self.nodes[name]
        node.inodes.clear()
        node.paths.clear()
        super().crash_node(name)  # also clears the path cache

    def recover_node(self, name: str) -> Dict[str, Any]:
        """Rebuild one server from the journal, then rescan its store.
        Returns recovery statistics."""
        return self._recover([name])

    def _recover(self, names: List[str]) -> Dict[str, Any]:
        """Re-make the inodes whose metadata the servers *names* own.

        The journal is namespace-wide, but only what those servers'
        tables held is replayed, and as metadata only: entries owned by
        a survivor are live, and chunk data is the stores' own durable
        state (a log store's tombstones already record every drop), so
        a replayed ``unlink`` must not free anything.
        Inodes a later record removed are skipped outright: the rest
        are alive at the end, hence so are all their parents. Re-made
        inodes keep their original numbers (lining up with the log
        store's ``(ino, chunk)`` keys), and a re-made directory is
        linked again to the children that survived on other servers.
        """
        owned = set(names)
        removed = {r.args["ino"] for r in self.journal.records
                   if r.op in ("unlink", "rmdir")}

        def mine(args: Dict[str, Any]) -> bool:
            return (args["ino"] not in removed
                    and self.metadata_server(args["path"]) in owned)

        if self.lookup("/") is None and self.metadata_server("/") in owned:
            now = self.clock()
            self._meta_node("/").add_inode(Inode(
                ino=1, ftype=FileType.DIRECTORY, path="/",
                ctime=now, mtime=now))
        applied = 0
        self._replaying = True
        try:
            for entry in self.journal.checkpoint or ():
                if entry["path"] != "/" and mine(entry):
                    self._remake(entry, entry["ftype"])
                    applied += 1
            for record in self.journal.records:
                if mine(record.args):
                    self._apply(record)
                    applied += 1
        finally:
            self._replaying = False
        for node in self.nodes.values():
            for inode in node.inodes.values():
                if inode.path == "/":
                    continue
                parent_path, child = pathmod.split(inode.path)
                if self.metadata_server(parent_path) in owned:
                    self._require_dir(parent_path).link_child(child,
                                                              inode.ino)
        scans = {name: self.nodes[name].backend.recover() for name in names}
        return {"applied": applied, "scans": scans}

    def _remake(self, args: Dict[str, Any], ftype: str) -> None:
        """Re-create the inode a checkpoint entry or a ``mkdir`` /
        ``create`` record describes, unless its path is live."""
        if self.exists(args["path"]):
            return
        if ftype == FileType.DIRECTORY.value:
            self.mkdir(args["path"], ino=args["ino"])
            return
        inode = self.create(args["path"], uid=args["uid"], ino=args["ino"])
        inode.stripe = StripeSpec(self.stripe_size,
                                  tuple(args["stripe_servers"]))
        inode.size = args.get("size", 0)

    def _apply(self, record: JournalRecord) -> None:
        op, args = record.op, record.args
        if op == "mkdir":
            return self._remake(args, FileType.DIRECTORY.value)
        if op == "create":
            return self._remake(args, FileType.FILE.value)
        if op != "extend":
            raise FSError(f"unknown journal record {op!r}")
        # A path can be removed and made again: a record is stale if
        # its path now names another inode than the one it acted on.
        inode = self.lookup(args["path"])
        if inode is None or inode.ino != args["ino"]:
            return
        inode.size = max(inode.size, args["size"])
