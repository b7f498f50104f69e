"""The server controller (§4.1, §3.1).

"The controller synchronizes with other servers to get the global status
of active jobs, and allocates a number of tokens according to the fair
sharing policy."

Token allocation: whenever the job table's active set or the placement
map changes (new job, expiry, merge), the controller captures the
derivation's inputs and hands the scheduler a pending derivation; the
statistical token scheduler runs it at the first draw that reads it, so
changes no worker draws between cost nothing. With a single server — or
before any peer information has arrived — shares come straight from the
policy over the local table.
Once λ-sync has exchanged tables *and placement* (which jobs each server
hosts), every server solves the same placement-constrained assignment
(:func:`repro.core.fairness.placement_shares`, the Fig. 5 adjustment)
and installs its own row, so the cluster-wide split matches the global
policy even when files live on disjoint servers.

λ-delayed fairness: every ``sync_interval`` seconds the servers
synchronise over the server↔server UCP workers (the all-gather of
§3.1). One protocol implements it, in three parts (DESIGN.md §13):

- **shape** — :func:`tree_order`, :func:`tree_children`,
  :func:`subtree_height`: each epoch's members form a deterministic
  k-ary tree under a root that rotates by epoch index, so no server is
  a single point of coordination. ``ServerConfig.sync_tree_fanout``
  is k; its default 0 means ``max(2, N−1)``, the height-1 tree whose
  root pulls every peer directly (the flat round).
- **gather** (kind ``"pull"``) — a node probed by its parent first
  probes its own children, merges their replies, and answers with its
  full table plus the placement of *its subtree only*. Per-node fan-in
  is k and the root's inbound bytes stop scaling with N.
- **scatter** (kind ``"push"``) — the root's merged table and placement
  map travel back down exactly the edges that answered the gather; a
  node acks its parent once its own children have acked. A receiver
  that last applied a push with the same content hash skips the merge
  and token refresh (trace-neutral: same wire traffic, same simulated
  timing, only redundant host work elided).

Every message carries the whole table and is charged for it; the merge
takes only strictly newer heartbeats, so re-sending what a peer already
holds is a no-op there, and a restarted node is healed by the next push
that reaches it.
"""

from __future__ import annotations

from collections import deque
from hashlib import blake2b
from typing import (TYPE_CHECKING, Collection, Deque, Dict, FrozenSet, List,
                    Optional, Tuple)

from ..core.fairness import placement_shares
from ..core.jobinfo import JobInfo, JobRecord
from ..errors import RpcTimeout, UCXError
from ..ucx import Address, RpcClient

if TYPE_CHECKING:  # pragma: no cover
    from ..core.scheduler import Scheduler
    from .server import Server

__all__ = ["Controller", "tree_order", "tree_children", "subtree_height"]

#: Estimated wire bytes per job-status-table entry (id, uid, gid, size,
#: priority, status, heartbeat stamp).
_ENTRY_WIRE_BYTES = 64

#: Wire bytes of a pull probe / push acknowledgement (headers only).
_PROBE_WIRE_BYTES = 16

#: ``(child name, rpc timeout)`` of one tree edge.
_Edge = Tuple[str, Optional[float]]
#: A node's edges in one epoch's tree and the names of the children
#: that answered its gather.
_Gathered = Tuple[List[_Edge], Collection[str]]


def _table_bytes(entries: List[JobRecord]) -> int:
    """Wire bytes of a reply or push carrying *entries* (one entry's
    worth at least: an empty table still has its headers)."""
    return _ENTRY_WIRE_BYTES * max(1, len(entries))


def _content_hash(entries: List[JobRecord],
                  presence: Dict[str, FrozenSet[int]]) -> str:
    """Deterministic digest of a merged table + placement map.

    Canonical order (entries by job id, hosts sorted) and exact float
    ``repr`` make the digest a function of content only — two pushes
    hash equal iff applying them is the same no-op.
    """
    h = blake2b(digest_size=16)
    for info, stamp, active in sorted(entries, key=lambda r: r.info.job_id):
        h.update(repr((info.job_id, info.user, info.group, info.size,
                       info.priority, stamp, active)).encode())
    for host in sorted(presence):
        h.update(repr((host, sorted(presence[host]))).encode())
    return h.hexdigest()


# ------------------------------------------------------------- tree shape
def tree_order(members: List[str], epoch: int) -> List[str]:
    """The epoch's member order: root first, rotated by epoch index.

    Rotation (rather than re-sorting under a different key) keeps the
    root schedule identical to the flat round's coordinator schedule:
    ``tree_order(members, e)[0] == members[e % N]``.
    """
    root = epoch % len(members)
    return members[root:] + members[:root]


def tree_children(order_len: int, fanout: int, pos: int) -> List[int]:
    """Positions of *pos*'s children in a complete k-ary tree laid out
    breadth-first over ``order_len`` members."""
    lo = fanout * pos + 1
    return list(range(lo, min(lo + fanout, order_len)))


def subtree_height(order_len: int, fanout: int, pos: int) -> int:
    """Edge-height of the subtree rooted at *pos* (0 for a leaf).

    Used to scale per-edge RPC timeouts: a pull to a child cannot
    complete before the child's whole subtree has answered, so the
    budget grows linearly with the subtree's depth.
    """
    height = 0
    lo = hi = pos
    while True:
        lo = fanout * lo + 1
        if lo >= order_len:
            return height
        hi = min(fanout * hi + fanout, order_len - 1)
        height += 1


class Controller:
    """Token allocation plus λ-delayed table synchronisation."""

    def __init__(self, server: "Server", sync_interval: float):
        self.server = server
        self.sync_interval = float(sync_interval)
        # Peer wiring is lazy: addresses arrive via connect_peers, RPC
        # clients (and their UCP workers) materialise on first use. At
        # N=1024 eager wiring would mint ~N² workers cluster-wide; a
        # fanout-k tree only ever touches O(k) edges per node per epoch.
        # Worker creation has no simulation side effects, so laziness
        # is trace-neutral.
        self._peer_addrs: Dict[str, Address] = {}
        #: this server and its peers, sorted: every epoch's tree order.
        self._members: List[str] = [server.name]
        self._peers: Dict[str, RpcClient] = {}
        #: which jobs each server hosts, learned via sync (self included);
        #: written only through :meth:`_set_presence`.
        self.presence: Dict[str, FrozenSet[int]] = {}
        self._presence_dirty = False
        self._table_version_seen = -1
        self._presence_seen: Dict[str, FrozenSet[int]] = {}
        self.sync_rounds = 0
        #: rounds completed on a partial table (some peer timed out).
        self.degraded_rounds = 0
        #: epochs this controller drove as the rotating root.
        self.coordinated_rounds = 0
        #: pushes applied as a no-op via the content-hash short circuit.
        self.push_hash_skips = 0
        self._last_push_hash: Optional[str] = None
        #: scatter pushes sent (each one the full merged table).
        self.full_pushes = 0
        #: gather bytes this node absorbed as the epoch's root (the
        #: hotspot metric) vs. as an interior relay.
        self.coord_gather_payload_bytes = 0
        self.relay_gather_payload_bytes = 0
        #: peak number of gather replies awaited at once (flat: N−1;
        #: tree: bounded by the branching factor).
        self.max_gather_fanin = 0
        #: (epoch, merged-table digest) per round driven from here.
        self.digest_log: Deque[Tuple[int, str]] = deque(maxlen=4096)
        # Per-epoch gather bookkeeping of an interior node: its children
        # in the epoch's tree and those that answered, consumed when the
        # matching push arrives.
        self._tree_gather: Dict[int, _Gathered] = {}
        self._sync_process = None

    def reset(self) -> None:
        """Forget peer-derived state (server crash): presence knowledge,
        the refresh memo, the push-hash memo and the per-epoch edge
        lists restart cold, so the next push that reaches us is merged
        in full. Peer RPC clients stay wired — a peer is an address,
        not a connection, and the λ loop resumes using them after
        restart."""
        self.presence.clear()
        self._table_version_seen = -1
        self._presence_seen = {}
        self._last_push_hash = None
        self._tree_gather.clear()

    # ---------------------------------------------------------------- tokens
    def _set_presence(self, host: str, jobs) -> None:
        """The one writer of :attr:`presence`: stores an immutable copy
        and notes whether *host*'s content changed, so that
        :meth:`refresh_tokens` finds "nothing changed" from a flag
        instead of re-freezing every server's set."""
        jobs = frozenset(jobs)
        if self.presence.get(host) != jobs:
            self.presence[host] = jobs
            self._presence_dirty = True

    def _learn_presence(self, rows: Dict[str, FrozenSet[int]]) -> None:
        """Take the peers' rows of a sync message. Rows travel as the
        frozensets the sender's map holds, so a row that has not
        changed since we last took it is the object we hold already.
        When every row equals the one we hold (the common case), one
        containment test says so: an equal row is a no-op for
        :meth:`_set_presence` anyway."""
        presence = self.presence
        if rows.items() <= presence.items():
            return
        own = self.server.name
        for host, jobs in rows.items():
            if presence.get(host) is not jobs and host != own:
                self._set_presence(host, jobs)

    def refresh_tokens(self, force: bool = False) -> bool:
        """Hand the scheduler a token derivation if anything relevant
        changed. The derivation's inputs are captured here, at the
        change; when it runs is the scheduler's choice
        (:meth:`Scheduler.defer_tokens`)."""
        server = self.server
        table = server.monitor.table
        self._set_presence(server.name, server.monitor.active_local_jobs())
        # Dirty alone is not a change: A -> B -> A between two refreshes
        # must stay the no-op it always was.
        if (not force and table.version == self._table_version_seen
                and (not self._presence_dirty
                     or self.presence == self._presence_seen)):
            return False
        self._table_version_seen = table.version
        self._presence_dirty = False
        self._presence_seen = presence = dict(self.presence)
        active = table.active_jobs()
        scheduler = server.scheduler
        scheduler.defer_tokens(
            lambda: self._derive_tokens(scheduler, active, presence))
        return True

    def _derive_tokens(self, scheduler: "Scheduler", active: List[JobInfo],
                       presence: Dict[str, FrozenSet[int]]) -> None:
        """Eq. 1, then the Fig. 5 projection, over a change's captured
        inputs (the active jobs and the ``_presence_seen`` snapshot),
        installed into *scheduler*. Pure: it reads no live table, draws
        no random number and the memo is keyed by content, so it installs
        the same bits whenever it runs."""
        server = self.server
        informative_peers = [name for name, jobs in presence.items()
                             if name != server.name and jobs]
        if not informative_peers:
            scheduler.on_jobs_changed(active)
            return
        # Placement-aware assignment (Fig. 5): global policy shares,
        # projected onto each server's hosted-job set.
        global_shares = scheduler.policy_shares(active)
        if not global_shares:
            scheduler.on_jobs_changed(active)
            return
        rows = placement_shares(
            {name: jobs for name, jobs in presence.items() if jobs},
            global_shares, memo=server.placement_memo)
        row = rows.get(server.name)
        if row:
            scheduler.set_assignment(row)
        else:
            scheduler.on_jobs_changed(active)

    # ----------------------------------------------------------------- peers
    def connect_peers(self, peers: Dict[str, Address]) -> None:
        """Record the peer sync addresses and start the λ loop. RPC
        clients are created lazily, on the first edge that uses them."""
        engine = self.server.engine
        for name, address in peers.items():
            if name == self.server.name:
                continue
            self._peer_addrs[name] = address
        self._members = sorted([self.server.name, *self._peer_addrs])
        if self._peer_addrs and self.sync_interval > 0 \
                and self._sync_process is None:
            self._sync_process = engine.process(self._sync_loop())

    def _peer(self, name: str) -> RpcClient:
        client = self._peers.get(name)
        if client is None:
            worker = self.server.ctx.create_worker(f"ss-to-{name}")
            client = RpcClient(worker, self._peer_addrs[name])
            self._peers[name] = client
        return client

    # ------------------------------------------------------------------ sync
    def _sync_loop(self):
        engine = self.server.engine
        epoch = 1
        while True:
            # Epoch-aligned cadence: every server wakes at the same
            # absolute times k·λ, so the epoch index — and with it the
            # rotating root — agrees cluster-wide even when individual
            # rounds overrun.
            target = epoch * self.sync_interval
            if target > engine.now:
                yield engine.timeout(target - engine.now)
            # A crashed server drives nothing; the loop idles until
            # restart and then resumes the λ cadence.
            if not self.server.crashed:
                yield from self._round(epoch)
            # Skip past any epochs the round overran (strictly
            # increasing, so the loop can never spin in place).
            epoch = max(epoch + 1,
                        int(engine.now / self.sync_interval) + 1)

    def _children(self, epoch: int) -> List[_Edge]:
        """``(name, rpc_timeout)`` of our children in *epoch*'s tree.

        ``sync_tree_fanout=0`` (flat) is the height-1 tree: every peer
        a child of the root. The per-edge budget scales with the
        child's subtree depth — its answer transitively awaits its
        whole subtree.
        """
        order = tree_order(self._members, epoch)
        n = len(order)
        fanout = self.server.config.sync_tree_fanout or max(2, n - 1)
        budget = self.server.config.sync_timeout
        return [(order[pos],
                 budget * (1.0 + subtree_height(n, fanout, pos))
                 if budget > 0 else None)
                for pos in tree_children(n, fanout,
                                         order.index(self.server.name))]

    def _view(self):
        """Our table snapshot and placement map (own row refreshed)."""
        self._set_presence(self.server.name,
                           self.server.monitor.active_local_jobs())
        return self.server.monitor.table.snapshot(), dict(self.presence)

    def _note_degraded(self) -> None:
        self.degraded_rounds += 1
        self.server.fault_stats.degraded_sync_rounds += 1

    # ---------------------------------------------------------- round driver
    def _round(self, epoch: int):
        """One gather→merge→scatter epoch, if we are its rotating root.

        Interior nodes take part through :meth:`_answer_pull` (gather
        their own subtree before replying) and :meth:`_apply_push`
        (forward the scatter down the same edges). Merged content per
        epoch does not depend on the fanout: the merge is
        order-independent and the member set is the same.
        """
        if tree_order(self._members, epoch)[0] != self.server.name:
            return
        self.coordinated_rounds += 1
        children = self._children(epoch)
        answered, _, degraded = yield from self._gather(epoch, children,
                                                        root=True)
        digest = _content_hash(*self._view())
        self.digest_log.append((epoch, digest))
        degraded |= yield from self._forward_tree_push(
            epoch, digest, (children, answered))
        if degraded:
            self._note_degraded()
        self._last_push_hash = digest
        self.sync_rounds += 1
        self.refresh_tokens()

    def _gather(self, epoch: int, children: List[_Edge], root: bool = False):
        """Probe our *children* in *epoch*'s tree and merge their replies.

        Returns ``(answered, subtree, degraded)``: the children that
        replied (the edges the scatter goes back down); the placement
        rows of the hosts behind them; and whether a child stayed
        silent (it costs at most its edge timeout and the round
        proceeds on the partial table).
        """
        probe = {"kind": "pull", "epoch": epoch}
        pulls = [(name, self._peer(name).call(
                     "sync", probe, size=_PROBE_WIRE_BYTES, timeout=timeout))
                 for name, timeout in children]
        self.max_gather_fanin = max(self.max_gather_fanin, len(pulls))
        answered = []
        subtree: Dict[str, FrozenSet[int]] = {}
        degraded = False
        for name, call in pulls:
            try:
                resp = yield call
            except RpcTimeout:
                degraded = True
                continue
            self.server.monitor.table.merge(resp["entries"])
            # The reply speaks for the responder's subtree only: a
            # host's row reaches us through the one chain of edges it
            # answered on, never through a sibling's older copy.
            self._learn_presence(resp["presence"])
            subtree.update(resp["presence"])
            answered.append(name)
            wire = _table_bytes(resp["entries"])
            if root:
                self.coord_gather_payload_bytes += wire
            else:
                self.relay_gather_payload_bytes += wire
        return frozenset(answered), subtree, degraded

    def _forward_tree_push(self, epoch: int, digest: str,
                           gathered: Optional[_Gathered]):
        """Scatter our merged view down the *epoch* edges that answered
        the gather — *gathered* is our children in the epoch's tree and
        the names of those that answered — to every shape-child when
        that record is gone (``None``: we restarted between gather and
        push), and return whether a child failed to ack in time.

        A child that never answered this epoch's gather (crash or
        partition on the edge) is skipped: a push would race its
        recovery, and a later epoch's reshaped tree reaches it.
        """
        children, answered = gathered or (self._children(epoch), None)
        if not children:
            return False
        entries, presence = self._view()
        push = {"kind": "push", "epoch": epoch, "entries": entries,
                "presence": presence, "hash": digest}
        size = _table_bytes(entries)
        acks = [self._peer(name).call("sync", push, size=size,
                                      timeout=timeout)
                for name, timeout in children
                if answered is None or name in answered]
        self.full_pushes += len(acks)
        degraded = False
        for call in acks:
            try:
                yield call
            except RpcTimeout:
                degraded = True
        return degraded

    # -------------------------------------------------------------- handlers
    def _answer_pull(self, rpc):
        """Our parent probed us: gather our subtree (leaves have none),
        merge it, and reply our table after the controller's processing
        time (serialisation cost, §5.6)."""
        processing = self.server.config.sync_processing_time
        if processing > 0:
            yield self.server.engine.timeout(processing)
        if self.server.crashed:
            return  # crashed mid-processing: the reply is lost
        epoch = rpc.body["epoch"]
        children = self._children(epoch)
        answered, subtree, degraded = yield from self._gather(epoch, children)
        if self.server.crashed:
            return
        # Remember our children and which of them answered, so the
        # matching push goes back down the same edges without working
        # out the tree shape again.
        self._tree_gather[epoch] = children, answered
        for old in [e for e in self._tree_gather if e < epoch - 1]:
            del self._tree_gather[old]
        if degraded:
            self._note_degraded()
        entries, presence = self._view()
        subtree[self.server.name] = presence[self.server.name]
        rpc.reply({"entries": entries, "presence": subtree},
                  size=_table_bytes(entries))

    def _apply_push(self, rpc):
        """Our parent scattered the merged state: apply it, forward it
        down our gather edges, then ack (the ack therefore covers the
        whole subtree — the root's round ends when every reachable
        descendant holds the merged table).

        When the push's content hash matches the last one we applied,
        the merge would be a byte-for-byte no-op (entries merge by
        strictly-newer heartbeat, so replaying an applied snapshot
        changes nothing) and the token refresh would hit its memo — both
        are skipped. The ack and its timing are identical either way, so
        the skip never perturbs the simulated trace.
        """
        processing = self.server.config.sync_processing_time
        if processing > 0:
            yield self.server.engine.timeout(processing)
        if self.server.crashed:
            return  # crashed mid-processing: stale merge + ack lost
        body = rpc.body
        self.sync_rounds += 1
        digest = body["hash"]
        if digest == self._last_push_hash:
            self.push_hash_skips += 1
        else:
            self.server.monitor.table.merge(body["entries"])
            self._learn_presence(body["presence"])
            self._last_push_hash = digest
            self.refresh_tokens()
        epoch = body["epoch"]
        if (yield from self._forward_tree_push(
                epoch, digest, self._tree_gather.pop(epoch, None))):
            self._note_degraded()
        if self.server.crashed:
            return
        rpc.reply({"ok": True}, size=_PROBE_WIRE_BYTES)

    def handle_sync(self, rpc) -> None:
        """Dispatch an inbound sync message by protocol role."""
        if self.server.crashed:
            return  # a dead server neither merges nor answers
        kind = rpc.body.get("kind")
        if kind == "pull":
            self.server.engine.process(self._answer_pull(rpc))
        elif kind == "push":
            self.server.engine.process(self._apply_push(rpc))
        else:
            raise UCXError(f"unknown λ-sync message kind {kind!r}")
