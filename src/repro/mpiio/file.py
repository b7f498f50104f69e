"""Collective MPI-IO-style file access with two-phase aggregation.

ROMIO's collective buffering in miniature (§2.1 cites Thakur et al.'s
MPI-IO work as the library layer above systems like ThemisIO): when
every rank of a communicator enters ``write_at_all``/``read_at_all``,
the collective

1. gathers all ranks' (offset, size) pieces,
2. coalesces them into maximal contiguous runs,
3. partitions the covered byte range into per-aggregator *file domains*
   (``cb_nodes`` aggregator ranks),
4. shuffles each rank's data to/from the owning aggregator over the
   fabric (real messages, so the exchange costs wire time), and
5. has each aggregator issue few large contiguous burst-buffer requests
   instead of many small strided ones.

Independent ``write_at``/``read_at`` bypass all of that — which is
exactly the comparison the collective-I/O example/benchmark makes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..bb.client import Client
from ..errors import ConfigError
from ..net.message import Message
from ..sim.process import Event
from .datatype import Piece, coalesce, total_bytes

__all__ = ["Communicator", "MPIFile"]


class Communicator:
    """A fixed group of ranks, each backed by one burst-buffer client."""

    def __init__(self, clients: Sequence[Client]):
        if not clients:
            raise ConfigError("communicator needs at least one rank")
        self.clients = list(clients)
        self.engine = self.clients[0].engine

    @property
    def size(self) -> int:
        return len(self.clients)

    def client(self, rank: int) -> Client:
        """The burst-buffer client backing *rank*."""
        if not 0 <= rank < self.size:
            raise ConfigError(f"rank {rank} outside [0, {self.size})")
        return self.clients[rank]


class _Collective:
    """One in-flight collective operation's rendezvous state."""

    def __init__(self, size: int):
        self.pieces: Dict[int, List[Piece]] = {}
        self.events: Dict[int, Event] = {}
        self.arrived = 0
        self.size = size

    def complete(self) -> bool:
        return self.arrived == self.size


class MPIFile:
    """A shared file opened collectively by a communicator."""

    def __init__(self, comm: Communicator, path: str,
                 cb_nodes: Optional[int] = None):
        self.comm = comm
        self.path = path
        self.cb_nodes = min(cb_nodes or max(1, comm.size // 4), comm.size)
        self._opened = False
        self._write_seq = 0
        self._read_seq = 0
        self._collectives: Dict[Tuple[str, int], _Collective] = {}
        self.collective_rounds = 0
        self.shuffled_bytes = 0

    # -------------------------------------------------------------- lifecycle
    def open(self):
        """Generator: collective open (rank 0 creates the file)."""
        if not self._opened:
            yield from self.comm.client(0).create(self.path)
            self._opened = True

    # ------------------------------------------------------------ independent
    def write_at(self, rank: int, pieces: Sequence[Piece]) -> int:
        """Generator: independent (non-collective) writes of *pieces*."""
        client = self.comm.client(rank)
        written = 0
        for offset, size in pieces:
            written += yield from client.write(self.path, offset, size)
        return written

    # ------------------------------------------------------------- collective
    def write_at_all(self, rank: int, pieces: Sequence[Piece]) -> int:
        """Generator: collective write; every rank must call it once per
        round. Returns this rank's bytes once the whole collective ends."""
        return (yield from self._collective("write", rank, pieces))

    def read_at_all(self, rank: int, pieces: Sequence[Piece]) -> int:
        """Generator: collective read (two-phase: aggregators read large
        runs, then scatter pieces back over the fabric)."""
        return (yield from self._collective("read", rank, pieces))

    def _collective(self, kind: str, rank: int, pieces: Sequence[Piece]):
        if not 0 <= rank < self.comm.size:
            raise ConfigError(f"rank {rank} outside the communicator")
        seq = self._write_seq if kind == "write" else self._read_seq
        key = (kind, seq)
        coll = self._collectives.get(key)
        if coll is None:
            coll = self._collectives[key] = _Collective(self.comm.size)
        if rank in coll.pieces:
            raise ConfigError(
                f"rank {rank} entered {kind}_at_all twice in one round")
        coll.pieces[rank] = list(pieces)
        done = Event(self.comm.engine)
        coll.events[rank] = done
        coll.arrived += 1
        if coll.complete():
            if kind == "write":
                self._write_seq += 1
            else:
                self._read_seq += 1
            del self._collectives[key]
            self.comm.engine.process(self._run_two_phase(kind, coll))
        result = yield done
        return result

    # --------------------------------------------------------------- 2-phase
    def _domains(self, runs: List[Piece]) -> List[Tuple[int, Piece]]:
        """Split contiguous runs into (aggregator rank, run) file domains."""
        covered = total_bytes(runs)
        if covered == 0:
            return []
        per_agg = -(-covered // self.cb_nodes)  # ceil
        out: List[Tuple[int, Piece]] = []
        agg, budget = 0, per_agg
        for offset, length in runs:
            pos = offset
            remaining = length
            while remaining > 0:
                take = min(remaining, budget)
                out.append((agg, (pos, take)))
                pos += take
                remaining -= take
                budget -= take
                if budget == 0 and agg < self.cb_nodes - 1:
                    agg += 1
                    budget = per_agg
        return out

    def _run_two_phase(self, kind: str, coll: _Collective):
        engine = self.comm.engine
        self.collective_rounds += 1
        runs = coalesce(
            piece for plist in coll.pieces.values() for piece in plist)
        domains = self._domains(runs)

        # Exchange phase: every byte a rank owns inside another rank's
        # file domain crosses the fabric once (both directions cost the
        # same; model the shuffle before writes and after reads).
        def shuffle():
            sends = []
            for agg, (d_off, d_len) in domains:
                d_end = d_off + d_len
                agg_node = self.comm.client(agg).ctx.node_name
                fabric = self.comm.client(agg).ctx.fabric
                for rank, plist in coll.pieces.items():
                    if rank == agg:
                        continue
                    src_node = self.comm.client(rank).ctx.node_name
                    overlap = sum(
                        max(0, min(p_off + p_len, d_end) - max(p_off, d_off))
                        for p_off, p_len in plist)
                    if overlap > 0:
                        self.shuffled_bytes += overlap
                        src, dst = ((src_node, agg_node) if kind == "write"
                                    else (agg_node, src_node))
                        sends.append(fabric.send(Message(
                            src=src, dst=dst, size=overlap)))
            if sends:
                yield engine.all_of(sends)

        def io_phase():
            calls = []
            for agg, (d_off, d_len) in domains:
                client = self.comm.client(agg)
                if kind == "write":
                    calls.append(engine.process(
                        client.write(self.path, d_off, d_len)))
                else:
                    calls.append(engine.process(
                        client.read(self.path, d_off, d_len)))
            if calls:
                yield engine.all_of(calls)

        if kind == "write":
            yield from shuffle()
            yield from io_phase()
        else:
            yield from io_phase()
            yield from shuffle()

        for rank, done in coll.events.items():
            done.succeed(total_bytes(coll.pieces[rank]))
