"""The server controller (§4.1, §3.1).

"The controller synchronizes with other servers to get the global status
of active jobs, and allocates a number of tokens according to the fair
sharing policy."

Token allocation: whenever the job table's active set changes (new job,
expiry, merge), the controller recomputes the statistical token
assignment. With a single server — or before any peer information has
arrived — shares come straight from the policy over the local table.
Once λ-sync has exchanged tables *and placement* (which jobs each server
hosts), every server solves the same placement-constrained assignment
(:func:`repro.core.fairness.placement_shares`, the Fig. 5 adjustment)
and installs its own row, so the cluster-wide split matches the global
policy even when files live on disjoint servers.

λ-delayed fairness: every ``sync_interval`` seconds the servers
synchronise over the server↔server UCP workers (the all-gather of
§3.1). One protocol implements it, in four parts (DESIGN.md §13):

- **shape** — :func:`tree_order`, :func:`tree_children`,
  :func:`subtree_height`: each epoch's members form a deterministic
  k-ary tree under a root that rotates by epoch index, so no server is
  a single point of coordination. ``ServerConfig.sync_tree_fanout``
  is k; its default 0 means ``max(2, N−1)``, the height-1 tree whose
  root pulls every peer directly (the flat round).
- **gather** (kind ``"pull"``) — a node probed by its parent first
  probes its own children, merges their replies, and answers with its
  table plus the placement of *its subtree only*. Per-node fan-in is k
  and the root's inbound bytes stop scaling with N.
- **scatter** (kind ``"push"``) — the root's merged table and placement
  map travel back down exactly the edges that answered the gather; a
  node acks its parent once its own children have acked. A receiver
  that last applied a push with the same content hash skips the merge
  and token refresh (trace-neutral: same wire traffic, same simulated
  timing, only redundant host work elided).
- **per-edge delta/basis handshake** — both directions omit what the
  other end provably holds: pushes drop entries the child reported with
  an equal-or-newer heartbeat, replies drop entries the parent has
  confirmed applying from this child (an opaque token minted per reply
  and echoed in the next probe). Every token embeds the minting side's
  ``_sync_basis``, which :meth:`Controller.reset` bumps, so a crash or
  lost message on an edge has one recovery path: the basis no longer
  matches, the delta is dropped, and the next exchange on that edge is
  a full table — only the subtree behind the edge degrades.
"""

from __future__ import annotations

from collections import deque
from hashlib import blake2b
from typing import (TYPE_CHECKING, Deque, Dict, FrozenSet, List, Optional,
                    Tuple)

from ..core.fairness import placement_shares
from ..core.jobinfo import JobRecord
from ..errors import RpcTimeout, UCXError
from ..ucx import Address, RpcClient

if TYPE_CHECKING:  # pragma: no cover
    from .server import Server

__all__ = ["Controller", "tree_order", "tree_children", "subtree_height"]

#: Estimated wire bytes per job-status-table entry (id, uid, gid, size,
#: priority, status, heartbeat stamp).
_ENTRY_WIRE_BYTES = 64

#: Wire bytes of a pull probe / push acknowledgement (headers only).
_PROBE_WIRE_BYTES = 16

#: Wire bytes of one omitted-entry summary in a delta-encoded gather
#: reply: the job id plus its heartbeat stamp, no status fields.
_SUMMARY_WIRE_BYTES = 12


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
        # Delta-encoding state. The basis token identifies one
        # uninterrupted lifetime of this controller's sync state: it is
        # echoed through pull replies into the matching push, and a
        # mismatch at apply time proves the state the delta was computed
        # against is gone (crash/restart in between) — the push is then
        # discarded and a full-table resync requested instead.
        self._sync_basis = 0
        self._needs_full_sync = False
        #: scatter pushes sent delta-encoded vs. as the full table.
        self.delta_pushes = 0
        self.full_pushes = 0
        #: delta pushes discarded because the receiver restarted between
        #: its pull reply and the push's arrival.
        self.basis_mismatches = 0
        #: full-table pushes applied while a resync was pending.
        self.full_resyncs = 0
        # Gather-direction delta state: per requester, the token and
        # content map of the last reply we sent it; per responder, the
        # token of the last reply we applied from it. Tokens carry the
        # minting side's _sync_basis so a crash on either end can never
        # alias a stale confirmation.
        self._gather_sent: Dict[str, Tuple[Tuple[int, int],
                                           Dict[int, float]]] = {}
        self._have_basis: Dict[str, Tuple[int, int]] = {}
        self._gather_seq = 0
        #: gather replies sent delta-encoded vs. as the full snapshot.
        self.gather_delta_replies = 0
        self.gather_full_replies = 0
        #: pushes forwarded as full tables because the same-epoch
        #: gather basis for that child was lost (subtree resync).
        self.subtree_full_pushes = 0
        #: gather bytes this node absorbed as the epoch's root (the
        #: hotspot metric) vs. as an interior relay.
        self.coord_gather_payload_bytes = 0
        self.relay_gather_payload_bytes = 0
        #: peak number of gather replies awaited at once (flat: N−1;
        #: tree: bounded by the branching factor).
        self.max_gather_fanin = 0
        #: (epoch, merged-table digest) per round driven from here.
        self.digest_log: Deque[Tuple[int, str]] = deque(maxlen=4096)
        # Per-epoch gather bookkeeping: child name -> (seen map, child
        # basis, child wants full), consumed when the matching push
        # arrives (at the root: once merged) to scatter down.
        self._tree_gather: Dict[int, dict] = {}
        self._sync_process = None

    def reset(self) -> None:
        """Forget peer-derived state (server crash): presence knowledge,
        the refresh memo, and the push-hash memo restart cold. Peer RPC
        clients stay wired — the endpoints are addresses, not
        connections, and the λ loop resumes using them after restart."""
        self.presence.clear()
        self._table_version_seen = -1
        self._presence_seen = {}
        self._last_push_hash = None
        # Invalidate any in-flight delta computed against the old state
        # and ask the next coordinator for the full table.
        self._sync_basis += 1
        self._needs_full_sync = True
        # Both gather-delta ledgers die with the state they describe:
        # replies we sent (peers may still echo their tokens — the
        # basis component no longer matches) and confirmations we hold.
        self._gather_sent.clear()
        self._have_basis.clear()
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
        changed since we last took it is the object we hold already."""
        presence = self.presence
        own = self.server.name
        for host, jobs in rows.items():
            if presence.get(host) is not jobs and host != own:
                self._set_presence(host, jobs)

    def refresh_tokens(self, force: bool = False) -> bool:
        """Recompute the scheduler's tokens if anything relevant changed."""
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
        self._presence_seen = dict(self.presence)

        active = table.active_jobs()
        now = server.engine.now
        informative_peers = [name for name, jobs in self.presence.items()
                             if name != server.name and jobs]
        if not informative_peers:
            server.scheduler.on_jobs_changed(active, now)
            return True
        # Placement-aware assignment (Fig. 5): global policy shares,
        # projected onto each server's hosted-job set.
        global_shares = server.policy_shares(active)
        if not global_shares:
            server.scheduler.on_jobs_changed(active, now)
            return True
        rows = placement_shares(
            {name: jobs for name, jobs in self.presence.items() if jobs},
            global_shares, memo=server.placement_memo)
        row = rows.get(server.name)
        if row:
            server.scheduler.set_assignment(row, now)
        else:
            server.scheduler.on_jobs_changed(active, now)
        return True

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

    def _children(self, epoch: int) -> List[Tuple[str, Optional[float]]]:
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
        edges, _, degraded = yield from self._gather(epoch, root=True)
        digest = _content_hash(*self._view())
        self.digest_log.append((epoch, digest))
        self._tree_gather[epoch] = edges
        degraded |= yield from self._forward_tree_push(epoch, digest)
        if degraded:
            self._note_degraded()
        self._last_push_hash = digest
        self.sync_rounds += 1
        self.refresh_tokens()

    def _gather(self, epoch: int, root: bool = False):
        """Probe our children in *epoch*'s tree and merge their replies.

        Returns ``(edges, subtree, degraded)``: per answering child the
        ``(seen, basis, wants_full)`` its scatter push is encoded
        against; the placement rows of the hosts behind those children;
        and whether a child stayed silent (it costs at most its edge
        timeout and the round proceeds on the partial table).
        """
        pulls = []
        for name, timeout in self._children(epoch):
            probe = {"kind": "pull", "epoch": epoch,
                     "host": self.server.name,
                     "have": self._have_basis.get(name)}
            pulls.append((name, self._peer(name).call(
                "sync", probe, size=_PROBE_WIRE_BYTES, timeout=timeout)))
        self.max_gather_fanin = max(self.max_gather_fanin, len(pulls))
        edges: Dict[str, tuple] = {}
        subtree: Dict[str, FrozenSet[int]] = {}
        degraded = False
        for name, call in pulls:
            try:
                resp = yield call
            except RpcTimeout:
                degraded = True
                continue
            seen, wire = self._harvest_reply(name, resp)
            subtree.update(resp["presence"])
            edges[name] = (seen, resp["basis"], resp["full"])
            if root:
                self.coord_gather_payload_bytes += wire
            else:
                self.relay_gather_payload_bytes += wire
        return edges, subtree, degraded

    def _forward_tree_push(self, epoch: int, digest: str):
        """Scatter our merged view down *epoch*'s gather edges, each
        push encoded against what that child reported; returns whether
        a child failed to ack in time."""
        edges = self._tree_gather.pop(epoch, None)
        children = self._children(epoch)
        if not children:
            return False
        entries, presence = self._view()
        size = _ENTRY_WIRE_BYTES * max(1, len(entries))
        acks = []
        for name, timeout in children:
            if edges is None:
                # Our gather bookkeeping for this epoch is gone (we
                # restarted in between and the parent pushed full):
                # resync the whole subtree with full tables.
                self.subtree_full_pushes += 1
                edge = (None, None, True)
            elif name in edges:
                edge = edges[name]
            else:
                # The child never answered this epoch's gather
                # (crash/partition on the edge): it holds no basis for
                # a push, and a full push would race its recovery —
                # skip it; a later epoch's reshaped tree resyncs it.
                continue
            push, wire = self._encode_push(entries, presence, digest,
                                           epoch, *edge)
            acks.append(self._peer(name).call(
                "sync", push, size=size, timeout=timeout,
                payload_bytes=wire))
        degraded = False
        for call in acks:
            try:
                yield call
            except RpcTimeout:
                degraded = True
        return degraded

    # ----------------------------------------------------------------- codec
    def _harvest_reply(self, name: str, resp: dict):
        """Merge one gather reply into our table and presence map.

        Returns ``(seen, wire)``: the exact content map the responder
        holds — delta entries plus the omitted-entry summaries, the
        basis for this responder's scatter delta — and the reply's
        effective wire bytes for the fan-in accounting.
        """
        self.server.monitor.table.merge(resp["entries"])
        # The reply speaks for the responder's subtree only: a host's
        # row reaches us through the one chain of edges it answered on,
        # never through a sibling's older copy.
        self._learn_presence(resp["presence"])
        seen = _heartbeats(resp["entries"])
        seen.update(resp.get("omitted", ()))
        self._have_basis[name] = resp["gather_basis"]
        return seen, _reply_wire(resp)

    def _encode_gather_reply(self, requester: str, have, entries):
        """Build the entry part of a pull reply for *requester*.

        Returns ``(reply_fields, nominal_size, payload_bytes)``. The
        nominal size always covers the full snapshot (timing-neutral);
        when the requester echoes the token of the last reply it
        applied from us, entries it provably holds (heartbeats only
        move forward and live tables never remove entries, so they
        merge as no-ops there forever after) are demoted to
        ``(job_id, heartbeat)`` summary pairs in ``omitted``.
        """
        full_map = _heartbeats(entries)
        size = _ENTRY_WIRE_BYTES * max(1, len(entries))
        self._gather_seq += 1
        token = (self._sync_basis, self._gather_seq)
        stored = self._gather_sent.get(requester)
        self._gather_sent[requester] = (token, full_map)
        if have is not None and stored is not None and stored[0] == have:
            delta = _newer_than(stored[1], entries)
            # Only take the delta form when it actually omits
            # something: a delta that re-ships every entry (all
            # heartbeats moved) costs the summary bookkeeping for
            # zero wire savings.
            if len(delta) < len(entries):
                omitted = dict(full_map)
                for record in delta:
                    del omitted[record.info.job_id]
                self.gather_delta_replies += 1
                return ({"entries": delta, "omitted": omitted,
                         "gather_delta": True, "gather_basis": token}, size,
                        max(_PROBE_WIRE_BYTES,
                            _ENTRY_WIRE_BYTES * len(delta)
                            + _SUMMARY_WIRE_BYTES * len(omitted)))
        self.gather_full_replies += 1
        return {"entries": entries, "gather_basis": token}, size, None

    def _encode_push(self, entries, presence, digest, epoch: int,
                     seen, basis, wants_full):
        """The push body for one child, plus its effective wire bytes
        (``None`` = nominal).

        Delta-encodable unless the child requested a full resync; the
        push's nominal ``size`` (and hence all simulated timing) still
        covers the full table. The delta keeps exactly the entries
        whose merge at the child would do something: the merge updates
        on strictly-newer heartbeats, so an entry the child reported
        with an equal-or-newer heartbeat is provably a no-op there
        (local heartbeats only move forward, so the proof survives the
        reply→push latency) and is omitted.
        """
        push = {"kind": "push", "host": self.server.name, "epoch": epoch,
                "entries": entries, "presence": presence, "hash": digest}
        if wants_full:
            self.full_pushes += 1
            return push, None
        delta = _newer_than(seen, entries)
        push = dict(push, entries=delta, delta=True, basis=basis)
        self.delta_pushes += 1
        return push, _ENTRY_WIRE_BYTES * max(1, len(delta))

    # -------------------------------------------------------------- handlers
    def _answer_pull(self, rpc):
        """Our parent probed us: gather our subtree (leaves have none),
        merge it, and reply the aggregate after the controller's
        processing time (serialisation cost, §5.6), delta-encoded
        against what the parent has confirmed from us."""
        processing = self.server.config.sync_processing_time
        if processing > 0:
            yield self.server.engine.timeout(processing)
        if self.server.crashed:
            return  # crashed mid-processing: the reply is lost
        body = rpc.body
        epoch = body["epoch"]
        edges, subtree, degraded = yield from self._gather(epoch)
        if self.server.crashed:
            return
        # Remember this epoch's gather so the matching push can reuse
        # the same edges with exact per-child deltas.
        self._tree_gather[epoch] = edges
        for old in [e for e in self._tree_gather if e < epoch - 1]:
            del self._tree_gather[old]
        if degraded:
            self._note_degraded()
        entries, presence = self._view()
        subtree[self.server.name] = presence[self.server.name]
        reply, size, wire = self._encode_gather_reply(
            body["host"], body["have"], entries)
        reply.update(host=self.server.name, presence=subtree,
                     basis=self._sync_basis, full=self._needs_full_sync)
        rpc.reply(reply, size=size, payload_bytes=wire)

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
        if body.get("delta") and body["basis"] != self._sync_basis:
            # We restarted between our gather reply and this push: the
            # delta was computed against state we no longer hold, so
            # applying it could leave silently-omitted entries missing
            # forever. Drop it, forward nothing — our children heal on
            # a later epoch's edges (the tree reshapes every epoch) —
            # and pull the full table next round (our next reply
            # advertises ``full``). This is the protocol's designed
            # degraded window: until that resync lands we run on the
            # post-restart local view, exactly as a crash already
            # implies.
            self.basis_mismatches += 1
            rpc.reply({"ok": True}, size=_PROBE_WIRE_BYTES)
            self._needs_full_sync = True
            return
        if not body.get("delta") and self._needs_full_sync:
            self._needs_full_sync = False
            self.full_resyncs += 1
        digest = body["hash"]
        if digest == self._last_push_hash:
            self.push_hash_skips += 1
        else:
            self.server.monitor.table.merge(body["entries"])
            self._learn_presence(body["presence"])
            self._last_push_hash = digest
            self.refresh_tokens()
        if (yield from self._forward_tree_push(body["epoch"], digest)):
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


def _heartbeats(entries: List[JobRecord]) -> Dict[int, float]:
    """The content map of a snapshot: job id -> heartbeat stamp."""
    return {info.job_id: stamp for info, stamp, _ in entries}


def _newer_than(held: Dict[int, float],
                entries: List[JobRecord]) -> List[JobRecord]:
    """The records whose merge at a peer holding the content map *held*
    would do something: a job it lacks, or a strictly newer stamp."""
    absent = float("-inf")
    return [record for record in entries
            if held.get(record.info.job_id, absent) < record.last_heartbeat]


def _reply_wire(resp: dict) -> int:
    """Effective wire bytes of one gather reply (for the fan-in
    accounting; mirrors the payload_bytes the responder attached)."""
    if resp.get("gather_delta"):
        return max(_PROBE_WIRE_BYTES,
                   _ENTRY_WIRE_BYTES * len(resp["entries"])
                   + _SUMMARY_WIRE_BYTES * len(resp.get("omitted") or ()))
    return _ENTRY_WIRE_BYTES * max(1, len(resp["entries"]))
