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
§3.1). Three wire protocols implement it:

- **batched** (the default, ``ServerConfig.batched_sync``): each sync
  epoch one *coordinator* — rotating by epoch index over the sorted
  member names, so no server is a single point of coordination — pulls
  every peer's snapshot, merges them, and scatters the merged table
  plus the placement map back out: one gather→merge→scatter round per
  epoch, ``2·(N-1)`` request/response pairs cluster-wide instead of the
  pairwise exchange's ``N·(N-1)``. The push carries a content hash of
  the merged state; a peer whose previous push had the same hash skips
  the merge and token refresh entirely (the skip is trace-neutral: the
  wire traffic and simulated timing are identical, only the redundant
  host-side work is elided).
- **tree** (``ServerConfig.sync_tree_fanout >= 2``): the batched round
  restructured as a deterministic k-ary aggregation tree over the same
  rotated member order. The epoch's root pulls only its k children;
  each interior node recursively pulls *its* children, merges the
  subtree's tables, and replies the aggregate, so per-node peak fan-in
  drops from N−1 to k and the root's inbound bytes stop scaling with
  N. The scatter reuses the same edges top-down: each node forwards
  the merged global table to exactly the children that answered its
  gather, delta-encoded per edge against what that child provably
  holds. A crash, restart, or partition on one edge degrades (and
  later full-table-resyncs) only the subtree hanging off that edge.
- **pairwise** (``batched_sync=False``, the original protocol): every
  server exchanges snapshots with every peer each round; each exchange
  is a request/response pair where the peer merges our snapshot and
  replies with its own.

Delta encoding runs in *both* directions of the batched/tree rounds:
scatter pushes omit entries the receiver echoed with an equal-or-newer
heartbeat (PR 5), and gather replies omit entries the requester has
confirmed applying from this responder before — the per-peer basis is
an opaque token minted with each reply and echoed back in the next
probe, so a lost reply or a crash on either side falls back to a full
snapshot (see DESIGN.md §13). Omitted gather entries still ship a
compact ``(job_id, heartbeat)`` summary so the requester's scatter
deltas keep an exact picture of what the responder holds.
"""

from __future__ import annotations

from collections import deque
from hashlib import blake2b
from typing import (TYPE_CHECKING, Deque, Dict, FrozenSet, List, Optional,
                    Tuple)

from ..core.fairness import placement_shares
from ..errors import RpcTimeout
from ..ucx import Address, RpcClient

if TYPE_CHECKING:  # pragma: no cover
    from .server import Server

__all__ = ["Controller", "set_sync_hash_skip_enabled",
           "sync_hash_skip_enabled", "set_sync_delta_enabled",
           "sync_delta_enabled", "set_sync_gather_delta_enabled",
           "sync_gather_delta_enabled", "tree_order", "tree_children",
           "subtree_height"]

#: Estimated wire bytes per job-status-table entry (id, uid, gid, size,
#: priority, status, heartbeat stamp).
_ENTRY_WIRE_BYTES = 64

#: Wire bytes of a pull probe / push acknowledgement (headers only).
_PROBE_WIRE_BYTES = 16

#: Wire bytes of one omitted-entry summary in a delta-encoded gather
#: reply: the job id plus its heartbeat stamp, no status fields.
_SUMMARY_WIRE_BYTES = 12

#: Process-wide switch for the push content-hash skip. Skipped and
#: unskipped application are trace-identical (the skip only elides a
#: no-op merge and a memoised token refresh); the toggle exists for the
#: seed-equivalence suite and for measuring the skip's effect.
_HASH_SKIP_ENABLED = True


def set_sync_hash_skip_enabled(enabled: bool) -> None:
    """Enable/disable the λ-sync push content-hash skip."""
    global _HASH_SKIP_ENABLED
    _HASH_SKIP_ENABLED = bool(enabled)


def sync_hash_skip_enabled() -> bool:
    """Whether push application skips on an unchanged content hash."""
    return _HASH_SKIP_ENABLED


#: Process-wide switch for delta-encoded scatter pushes (batched/tree
#: protocols only). The coordinator already holds every responder's
#: full snapshot from the gather phase, so it can omit the entries a
#: responder provably already has (equal-or-newer heartbeat — the
#: merge's update condition) from that responder's push. Omitted
#: entries would merge as byte-for-byte no-ops, so delta and full
#: pushes leave the receiver in the identical state; the push's
#: nominal ``size`` (and hence all simulated timing) still reflects
#: the full table, and the saving is reported separately through
#: :attr:`~repro.net.message.Message.payload_bytes`.
_DELTA_SYNC_ENABLED = True


def set_sync_delta_enabled(enabled: bool) -> None:
    """Enable/disable λ-sync delta encoding (both directions)."""
    global _DELTA_SYNC_ENABLED
    _DELTA_SYNC_ENABLED = bool(enabled)


def sync_delta_enabled() -> bool:
    """Whether scatter pushes carry only entries the receiver lacks."""
    return _DELTA_SYNC_ENABLED


#: Process-wide switch for the gather-direction per-peer-basis deltas
#: (subordinate to the master delta toggle above: gather deltas run iff
#: both are on). A responder's pull reply omits the entries whose
#: heartbeat is not newer than what the requester *confirmed applying*
#: from this responder — confirmation being the basis token of the last
#: reply, echoed back in the requester's next probe. Heartbeats only
#: move forward and live tables never remove entries, so a confirmed
#: entry merges as a no-op at the requester forever after; omitted
#: entries still ship a ``(job_id, heartbeat)`` summary so the
#: requester's scatter ``seen`` map stays exact. Timing-neutral the
#: same way as scatter deltas: nominal size covers the full snapshot.
_GATHER_DELTA_ENABLED = True


def set_sync_gather_delta_enabled(enabled: bool) -> None:
    """Enable/disable gather-direction per-peer-basis delta replies."""
    global _GATHER_DELTA_ENABLED
    _GATHER_DELTA_ENABLED = bool(enabled)


def sync_gather_delta_enabled() -> bool:
    """Whether pull replies delta-encode against a confirmed basis."""
    return _GATHER_DELTA_ENABLED


def _content_hash(entries: List[dict], presence: Dict[str, List[int]]) -> str:
    """Deterministic digest of a merged table + placement map.

    Canonical order (entries by job id, hosts sorted) and exact float
    ``repr`` make the digest a function of content only — two pushes
    hash equal iff applying them is the same no-op.
    """
    h = blake2b(digest_size=16)
    for entry in sorted(entries, key=lambda e: e["info"].job_id):
        info = entry["info"]
        h.update(repr((info.job_id, info.user, info.group, info.size,
                       info.priority, entry["last_heartbeat"],
                       entry["active"])).encode())
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
        # N=1024 the flat wiring would mint ~N² workers cluster-wide;
        # the tree only ever touches O(k) edges per node per epoch.
        # Worker creation has no simulation side effects, so laziness
        # is trace-neutral.
        self._peer_addrs: Dict[str, Address] = {}
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
        #: epochs this controller drove as the rotating coordinator/root.
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
        #: whole merge rounds skipped because every responder proved
        #: (by content hash) it already holds the merged state.
        self.quiescent_skips = 0
        #: probe-sized "same" replies sent instead of a snapshot.
        self.quiescent_replies = 0
        #: epochs driven as the root of the aggregation tree.
        self.tree_rounds = 0
        #: tree pushes forwarded as full tables because the same-epoch
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
        # Per-epoch gather bookkeeping of an interior tree node:
        # child name -> (seen map, child basis, child wants full),
        # consumed when the matching push arrives to forward down.
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

    def _members(self) -> List[str]:
        return sorted([self.server.name, *self._peer_addrs])

    @property
    def peer_names(self) -> List[str]:
        return sorted(self._peer_addrs)

    # ------------------------------------------------------------------ sync
    def _payload(self) -> dict:
        monitor = self.server.monitor
        return {
            "entries": monitor.table.snapshot(),
            "host": self.server.name,
            "host_jobs": sorted(monitor.active_local_jobs()),
            # Delta-encoding handshake (consumed by the batched
            # coordinator; ignored by the pairwise protocol).
            "basis": self._sync_basis,
            "full": self._needs_full_sync,
        }

    def _sync_loop(self):
        engine = self.server.engine
        epoch = 1
        while True:
            if self.server.config.batched_sync:
                # Epoch-aligned cadence: every server wakes at the same
                # absolute times k·λ, so the epoch index — and with it
                # the rotating coordinator — agrees cluster-wide even
                # when individual rounds overrun.
                target = epoch * self.sync_interval
                if target > engine.now:
                    yield engine.timeout(target - engine.now)
                if not self.server.crashed:
                    if self.server.config.sync_tree_fanout >= 2:
                        yield from self._tree_round(epoch)
                    else:
                        yield from self._batched_round(epoch)
                # Skip past any epochs the round overran (strictly
                # increasing, so the loop can never spin in place).
                epoch = max(epoch + 1,
                            int(engine.now / self.sync_interval) + 1)
            else:
                yield engine.timeout(self.sync_interval)
                if self.server.crashed:
                    # A crashed server exchanges nothing; the loop idles
                    # until restart and then resumes the λ cadence.
                    continue
                yield from self._pairwise_round()

    # ------------------------------------------------------- batched protocol
    def _batched_round(self, epoch: int):
        """One gather→merge→scatter epoch, if we are its coordinator."""
        members = self._members()
        if members[epoch % len(members)] != self.server.name:
            return
        self.coordinated_rounds += 1
        timeout = self.server.config.sync_timeout
        timeout = timeout if timeout > 0 else None

        # Gather: probe every peer for its snapshot, harvest in name
        # order; a silent peer costs at most `timeout` and the round
        # proceeds on the partial table (degraded mode).
        qhash, pre_map = self._quiescence_state()
        pulls = []
        for name in sorted(self._peer_addrs):
            probe = {"kind": "pull", "host": self.server.name,
                     "have": self._have_basis.get(name), "qhash": qhash}
            pulls.append((name, self._peer(name).call(
                "sync", probe, size=_PROBE_WIRE_BYTES, timeout=timeout)))
        self.max_gather_fanin = max(self.max_gather_fanin, len(pulls))
        degraded = False
        all_same = True
        responders: List[tuple] = []
        for name, call in pulls:
            try:
                resp = yield call
            except RpcTimeout:
                degraded = True
                continue
            if resp.get("same"):
                self.coord_gather_payload_bytes += _PROBE_WIRE_BYTES
                responders.append((name, resp, pre_map))
                continue
            all_same = False
            seen, wire = self._harvest_reply(name, resp)
            self.coord_gather_payload_bytes += wire
            responders.append((name, resp, seen))

        if qhash is not None and all_same:
            # Every responder proved (by content hash) it already holds
            # exactly the state a merge+scatter would reproduce: skip
            # the whole round. Merged content is by definition qhash.
            self._quiescent_finish(epoch, qhash, degraded)
            return

        # Scatter: the merged table + placement map, stamped with a
        # content hash so unchanged state costs the peers nothing. With
        # delta encoding on, each responder's push body carries only the
        # entries that responder lacks (judged against the snapshot —
        # or omitted-entry summary — it just replied with); the nominal
        # wire size — and therefore all simulated timing — still covers
        # the full table, so the two encodings are trace-identical and
        # the saving shows up only in the fabric's payload_bytes_sent
        # accounting.
        self._set_presence(self.server.name,
                           self.server.monitor.active_local_jobs())
        entries = self.server.monitor.table.snapshot()
        presence = {host: sorted(jobs)
                    for host, jobs in self.presence.items()}
        digest = _content_hash(entries, presence)
        self.digest_log.append((epoch, digest))
        size = _ENTRY_WIRE_BYTES * max(1, len(entries))
        acks = []
        for name, resp, seen in responders:
            push, wire = self._encode_push(entries, presence, digest,
                                           resp, seen)
            acks.append((name, self._peer(name).call(
                "sync", push, size=size, timeout=timeout,
                payload_bytes=wire)))
        for name, call in acks:
            try:
                yield call
            except RpcTimeout:
                degraded = True

        if degraded:
            self.degraded_rounds += 1
            if self.server.fault_stats is not None:
                self.server.fault_stats.degraded_sync_rounds += 1
        self._last_push_hash = digest
        self.sync_rounds += 1
        self.refresh_tokens()

    def _quiescence_state(self):
        """``(qhash, pre_map)`` when this round is allowed to quiesce.

        A round may quiesce only if our own current content still
        hashes to the last merged digest we scattered/applied — any
        local traffic since then voids the guard and the round runs in
        full. ``pre_map`` doubles as the exact ``seen`` map for scatter
        deltas to peers that answer "same".
        """
        if not self.server.config.sync_quiescence_skip:
            return None, None
        if self._last_push_hash is None or self._needs_full_sync:
            return None, None
        entries = self.server.monitor.table.snapshot()
        view = {h: sorted(j) for h, j in self.presence.items()}
        view[self.server.name] = sorted(
            self.server.monitor.active_local_jobs())
        if _content_hash(entries, view) != self._last_push_hash:
            return None, None
        pre_map = {e["info"].job_id: e["last_heartbeat"] for e in entries}
        return self._last_push_hash, pre_map

    def _quiescent_match(self, qhash) -> bool:
        """Responder side of the quiescence guard: may we answer a
        probe carrying *qhash* with a probe-sized "same" instead of a
        snapshot? Only if our own content provably hashes to it."""
        if qhash is None or self._needs_full_sync:
            return False
        if self._last_push_hash != qhash:
            return False
        entries = self.server.monitor.table.snapshot()
        view = {h: sorted(j) for h, j in self.presence.items()}
        view[self.server.name] = sorted(
            self.server.monitor.active_local_jobs())
        return _content_hash(entries, view) == qhash

    def _quiescent_finish(self, epoch: int, qhash: str,
                          degraded: bool) -> None:
        """Close out a round whose merge+scatter was skipped."""
        self.quiescent_skips += 1
        self.digest_log.append((epoch, qhash))
        if degraded:
            self.degraded_rounds += 1
            if self.server.fault_stats is not None:
                self.server.fault_stats.degraded_sync_rounds += 1
        self._last_push_hash = qhash
        self.sync_rounds += 1
        self.refresh_tokens()

    def _harvest_reply(self, name: str, resp: dict):
        """Merge one gather reply into our table and presence map.

        Returns ``(seen, wire)``: the exact content map the responder
        holds — delta entries plus the omitted-entry summaries, the
        basis for this responder's scatter delta — and the reply's
        effective wire bytes for the fan-in accounting.
        """
        self.server.monitor.table.merge(resp["entries"])
        pres = resp.get("presence")
        if pres is not None:
            # Tree replies aggregate a whole subtree's placement.
            for host, jobs in pres.items():
                if host != self.server.name:
                    self._set_presence(host, jobs)
        else:
            self._set_presence(resp["host"], resp["host_jobs"])
        seen = {e["info"].job_id: e["last_heartbeat"]
                for e in resp["entries"]}
        omitted = resp.get("omitted")
        if omitted:
            seen.update(omitted)
        token = resp.get("gather_basis")
        if token is not None:
            self._have_basis[name] = token
        return seen, _reply_wire(resp)

    def _encode_gather_reply(self, requester, have, entries):
        """Build the entry part of a pull reply for *requester*.

        Returns ``(reply_fields, nominal_size, payload_bytes)``. The
        nominal size always covers the full snapshot (timing-neutral);
        with the gather-delta toggles on and the requester echoing the
        token of the last reply it applied from us, entries it
        provably holds are demoted to ``(job_id, heartbeat)`` summary
        pairs in ``omitted``.
        """
        full_map = {e["info"].job_id: e["last_heartbeat"] for e in entries}
        size = _ENTRY_WIRE_BYTES * max(1, len(entries))
        self._gather_seq += 1
        token = (self._sync_basis, self._gather_seq)
        stored = self._gather_sent.get(requester) \
            if requester is not None else None
        wire = None
        if (_DELTA_SYNC_ENABLED and _GATHER_DELTA_ENABLED
                and have is not None and stored is not None
                and stored[0] == have
                and any(stored[1].get(e["info"].job_id, -1.0)
                        >= e["last_heartbeat"] for e in entries)):
            # Only take the delta form when it actually omits
            # something: a delta that re-ships every entry (all
            # heartbeats moved) costs the summary bookkeeping for
            # zero wire savings.
            base = stored[1]
            absent = float("-inf")
            delta = [e for e in entries
                     if base.get(e["info"].job_id,
                                 absent) < e["last_heartbeat"]]
            delta_ids = {e["info"].job_id for e in delta}
            omitted = {jid: hb for jid, hb in full_map.items()
                       if jid not in delta_ids}
            reply = {"entries": delta, "omitted": omitted,
                     "gather_delta": True, "gather_basis": token}
            wire = max(_PROBE_WIRE_BYTES,
                       _ENTRY_WIRE_BYTES * len(delta)
                       + _SUMMARY_WIRE_BYTES * len(omitted))
            self.gather_delta_replies += 1
        else:
            reply = {"entries": entries, "gather_basis": token}
            self.gather_full_replies += 1
        if requester is not None:
            self._gather_sent[requester] = (token, full_map)
        return reply, size, wire

    def _encode_push(self, entries, presence, digest, resp, seen,
                     kind: str = "push", epoch: Optional[int] = None):
        """The push body for one responder, plus its effective wire
        bytes (``None`` = nominal).

        Delta-encodable iff the toggle is on and the responder neither
        requested a full resync nor predates the handshake. The delta
        keeps exactly the entries whose merge at the responder would do
        something: the merge updates on strictly-newer heartbeats, so an
        entry the responder reported with an equal-or-newer heartbeat is
        provably a no-op there (local heartbeats only move forward, so
        the proof survives the reply→push latency) and is omitted.
        """
        push = {"kind": kind, "host": self.server.name,
                "entries": entries, "presence": presence, "hash": digest}
        if epoch is not None:
            push["epoch"] = epoch
        if not _DELTA_SYNC_ENABLED or resp.get("basis") is None \
                or resp.get("full") or seen is None:
            self.full_pushes += 1
            return push, None
        absent = float("-inf")
        delta = [e for e in entries
                 if seen.get(e["info"].job_id, absent) < e["last_heartbeat"]]
        push = dict(push, entries=delta, delta=True, basis=resp["basis"])
        self.delta_pushes += 1
        return push, _ENTRY_WIRE_BYTES * max(1, len(delta))

    def _answer_pull(self, rpc):
        """A coordinator probed us: reply our snapshot after the
        controller's processing time (serialisation cost, §5.6)."""
        processing = self.server.config.sync_processing_time
        if processing > 0:
            yield self.server.engine.timeout(processing)
        if self.server.crashed:
            return  # crashed mid-processing: the reply is lost
        body = rpc.body
        if self._quiescent_match(body.get("qhash")):
            self.quiescent_replies += 1
            rpc.reply({"same": True, "host": self.server.name,
                       "basis": self._sync_basis, "full": False},
                      size=_PROBE_WIRE_BYTES)
            return
        monitor = self.server.monitor
        entries = monitor.table.snapshot()
        reply, size, wire = self._encode_gather_reply(
            body.get("host"), body.get("have"), entries)
        reply.update(host=self.server.name,
                     host_jobs=sorted(monitor.active_local_jobs()),
                     basis=self._sync_basis,
                     full=self._needs_full_sync)
        rpc.reply(reply, size=size, payload_bytes=wire)

    def _apply_push(self, rpc):
        """A coordinator scattered the merged state: apply and ack.

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
        rpc.reply({"ok": True}, size=_PROBE_WIRE_BYTES)
        self.sync_rounds += 1
        if body.get("delta"):
            if body["basis"] != self._sync_basis:
                # We restarted between our pull reply and this push: the
                # delta was computed against state we no longer hold, so
                # applying it could leave silently-omitted entries
                # missing forever. Drop it and pull the full table next
                # round (our next reply advertises ``full``). This is
                # the protocol's designed degraded window: until that
                # resync lands we run on the post-restart local view,
                # exactly as a crash already implies.
                self.basis_mismatches += 1
                self._needs_full_sync = True
                return
        elif self._needs_full_sync:
            self._needs_full_sync = False
            self.full_resyncs += 1
        digest = body["hash"]
        if _HASH_SKIP_ENABLED and digest == self._last_push_hash:
            self.push_hash_skips += 1
            return
        self.server.monitor.table.merge(body["entries"])
        for host, jobs in body["presence"].items():
            if host != self.server.name:
                self._set_presence(host, jobs)
        self._last_push_hash = digest
        self.refresh_tokens()

    # ---------------------------------------------------------- tree protocol
    def _edge_timeout(self, order_len: int, fanout: int,
                      child_pos: int) -> Optional[float]:
        """Per-edge RPC budget, scaled by the child's subtree depth
        (its answer transitively awaits its whole subtree)."""
        t = self.server.config.sync_timeout
        if t <= 0:
            return None
        return t * (1.0 + subtree_height(order_len, fanout, child_pos))

    def _tree_round(self, epoch: int):
        """One aggregation-tree epoch, if we are its rotating root.

        The root's round mirrors the flat one but only touches its k
        children; interior nodes answer :meth:`_answer_tree_pull` by
        recursively gathering their own subtree first, and
        :meth:`_apply_tree_push` forwards the scatter down the same
        edges. Merged content per epoch is identical to the flat round
        (merge is order-independent and the member set is the same).
        """
        members = self._members()
        order = tree_order(members, epoch)
        if order[0] != self.server.name:
            return
        self.coordinated_rounds += 1
        self.tree_rounds += 1
        fanout = self.server.config.sync_tree_fanout
        n = len(order)

        qhash, pre_map = self._quiescence_state()
        pulls = []
        for pos in tree_children(n, fanout, 0):
            name = order[pos]
            probe = {"kind": "tpull", "epoch": epoch,
                     "host": self.server.name,
                     "have": self._have_basis.get(name), "qhash": qhash}
            pulls.append((name, pos, self._peer(name).call(
                "sync", probe, size=_PROBE_WIRE_BYTES,
                timeout=self._edge_timeout(n, fanout, pos))))
        self.max_gather_fanin = max(self.max_gather_fanin, len(pulls))
        degraded = False
        all_same = True
        responders: List[tuple] = []
        for name, pos, call in pulls:
            try:
                resp = yield call
            except RpcTimeout:
                degraded = True
                continue
            if resp.get("same"):
                self.coord_gather_payload_bytes += _PROBE_WIRE_BYTES
                responders.append((name, pos, resp, pre_map))
                continue
            all_same = False
            seen, wire = self._harvest_reply(name, resp)
            self.coord_gather_payload_bytes += wire
            responders.append((name, pos, resp, seen))

        if qhash is not None and all_same:
            # Every subtree hashed identical to the last merged state:
            # nothing to merge, nothing to scatter, cluster-wide.
            self._quiescent_finish(epoch, qhash, degraded)
            return

        self._set_presence(self.server.name,
                           self.server.monitor.active_local_jobs())
        entries = self.server.monitor.table.snapshot()
        presence = {host: sorted(jobs)
                    for host, jobs in self.presence.items()}
        digest = _content_hash(entries, presence)
        self.digest_log.append((epoch, digest))
        size = _ENTRY_WIRE_BYTES * max(1, len(entries))
        acks = []
        for name, pos, resp, seen in responders:
            push, wire = self._encode_push(entries, presence, digest,
                                           resp, seen, kind="tpush",
                                           epoch=epoch)
            acks.append((name, self._peer(name).call(
                "sync", push, size=size,
                timeout=self._edge_timeout(n, fanout, pos),
                payload_bytes=wire)))
        for name, call in acks:
            try:
                yield call
            except RpcTimeout:
                degraded = True

        if degraded:
            self.degraded_rounds += 1
            if self.server.fault_stats is not None:
                self.server.fault_stats.degraded_sync_rounds += 1
        self._last_push_hash = digest
        self.sync_rounds += 1
        self.refresh_tokens()

    def _answer_tree_pull(self, rpc):
        """A tree parent probed us: gather our subtree, merge it, and
        reply the aggregate (delta-encoded against what the parent has
        confirmed from us). Leaves skip straight to the reply."""
        processing = self.server.config.sync_processing_time
        if processing > 0:
            yield self.server.engine.timeout(processing)
        if self.server.crashed:
            return  # crashed mid-processing: the reply is lost
        body = rpc.body
        epoch = body["epoch"]
        fanout = self.server.config.sync_tree_fanout
        members = self._members()
        order = tree_order(members, epoch)
        n = len(order)
        try:
            pos = order.index(self.server.name)
        except ValueError:  # pragma: no cover - membership drift
            pos = 0
        child_pos = tree_children(n, fanout, pos)

        qhash = body.get("qhash")
        quiet = self._quiescent_match(qhash)
        pre_map = None
        if quiet:
            pre_map = {e["info"].job_id: e["last_heartbeat"]
                       for e in self.server.monitor.table.snapshot()}

        gather: dict = {}
        degraded = False
        all_same = True
        if child_pos:
            self.max_gather_fanin = max(self.max_gather_fanin,
                                        len(child_pos))
            pulls = []
            for cp in child_pos:
                name = order[cp]
                probe = {"kind": "tpull", "epoch": epoch,
                         "host": self.server.name,
                         "have": self._have_basis.get(name),
                         "qhash": qhash if quiet else None}
                pulls.append((name, cp, self._peer(name).call(
                    "sync", probe, size=_PROBE_WIRE_BYTES,
                    timeout=self._edge_timeout(n, fanout, cp))))
            for name, cp, call in pulls:
                try:
                    resp = yield call
                except RpcTimeout:
                    degraded = True
                    continue
                if resp.get("same"):
                    self.relay_gather_payload_bytes += _PROBE_WIRE_BYTES
                    gather[name] = (pre_map, resp["basis"],
                                    resp.get("full", False))
                    continue
                all_same = False
                seen, wire = self._harvest_reply(name, resp)
                self.relay_gather_payload_bytes += wire
                gather[name] = (seen, resp.get("basis"),
                                resp.get("full", False))
        if self.server.crashed:
            return
        # Remember this epoch's gather so the matching push can reuse
        # the same edges with exact per-child deltas.
        self._tree_gather[epoch] = gather
        for old in [e for e in self._tree_gather if e < epoch - 1]:
            del self._tree_gather[old]
        if degraded:
            self.degraded_rounds += 1
            if self.server.fault_stats is not None:
                self.server.fault_stats.degraded_sync_rounds += 1

        if quiet and all_same:
            # Our content and every responding child's subtree hash to
            # the probe's digest: the aggregate is provably "no news".
            self.quiescent_replies += 1
            rpc.reply({"same": True, "host": self.server.name,
                       "basis": self._sync_basis, "full": False},
                      size=_PROBE_WIRE_BYTES)
            return

        self._set_presence(self.server.name,
                           self.server.monitor.active_local_jobs())
        entries = self.server.monitor.table.snapshot()
        presence = {host: sorted(jobs)
                    for host, jobs in self.presence.items()}
        reply, size, wire = self._encode_gather_reply(
            body.get("host"), body.get("have"), entries)
        reply.update(host=self.server.name,
                     host_jobs=sorted(presence.get(self.server.name, [])),
                     presence=presence,
                     basis=self._sync_basis,
                     full=self._needs_full_sync)
        rpc.reply(reply, size=size, payload_bytes=wire)

    def _apply_tree_push(self, rpc):
        """A tree parent scattered the merged state: apply it, forward
        it down our gather edges, then ack (the ack therefore covers
        the whole subtree — the root's round ends when every reachable
        descendant holds the merged table)."""
        processing = self.server.config.sync_processing_time
        if processing > 0:
            yield self.server.engine.timeout(processing)
        if self.server.crashed:
            return  # crashed mid-processing: stale merge + ack lost
        body = rpc.body
        epoch = body["epoch"]
        self.sync_rounds += 1
        if body.get("delta") and body["basis"] != self._sync_basis:
            # Restarted between our subtree reply and this push: the
            # delta's basis is gone. Drop it, request a full resync,
            # and forward nothing — our children heal on a later
            # epoch's edges (the tree reshapes every epoch).
            self.basis_mismatches += 1
            rpc.reply({"ok": True}, size=_PROBE_WIRE_BYTES)
            self._needs_full_sync = True
            return
        if not body.get("delta") and self._needs_full_sync:
            self._needs_full_sync = False
            self.full_resyncs += 1
        digest = body["hash"]
        if _HASH_SKIP_ENABLED and digest == self._last_push_hash:
            self.push_hash_skips += 1
        else:
            self.server.monitor.table.merge(body["entries"])
            for host, jobs in body["presence"].items():
                if host != self.server.name:
                    self._set_presence(host, jobs)
            self._last_push_hash = digest
            self.refresh_tokens()
        yield from self._forward_tree_push(epoch, digest)
        if self.server.crashed:
            return
        rpc.reply({"ok": True}, size=_PROBE_WIRE_BYTES)

    def _forward_tree_push(self, epoch: int, digest: str):
        """Scatter the merged state down this epoch's gather edges."""
        gather = self._tree_gather.pop(epoch, None)
        fanout = self.server.config.sync_tree_fanout
        members = self._members()
        order = tree_order(members, epoch)
        n = len(order)
        try:
            pos = order.index(self.server.name)
        except ValueError:  # pragma: no cover - membership drift
            return
        child_pos = tree_children(n, fanout, pos)
        if not child_pos:
            return
        self._set_presence(self.server.name,
                           self.server.monitor.active_local_jobs())
        entries = self.server.monitor.table.snapshot()
        presence = {host: sorted(jobs)
                    for host, jobs in self.presence.items()}
        size = _ENTRY_WIRE_BYTES * max(1, len(entries))
        acks = []
        for cp in child_pos:
            name = order[cp]
            if gather is None:
                # Our gather bookkeeping for this epoch is gone (we
                # restarted in between and the parent pushed full):
                # resync the whole subtree with full tables.
                self.subtree_full_pushes += 1
                self.full_pushes += 1
                push = {"kind": "tpush", "host": self.server.name,
                        "entries": entries, "presence": presence,
                        "hash": digest, "epoch": epoch}
                wire = None
            elif name in gather:
                seen, basis, wants_full = gather[name]
                push, wire = self._encode_push(
                    entries, presence, digest,
                    {"basis": basis, "full": wants_full}, seen,
                    kind="tpush", epoch=epoch)
            else:
                # The child never answered this epoch's gather
                # (crash/partition on the edge): it holds no basis for
                # a push, and a full push would race its recovery —
                # skip it; a later epoch's reshaped tree resyncs it.
                continue
            acks.append((name, self._peer(name).call(
                "sync", push, size=size,
                timeout=self._edge_timeout(n, fanout, cp),
                payload_bytes=wire)))
        degraded = False
        for name, call in acks:
            try:
                yield call
            except RpcTimeout:
                degraded = True
        if degraded:
            self.degraded_rounds += 1
            if self.server.fault_stats is not None:
                self.server.fault_stats.degraded_sync_rounds += 1

    # ------------------------------------------------------ pairwise protocol
    def _pairwise_round(self):
        """One round of the original per-pair exchange protocol."""
        engine = self.server.engine
        table = self.server.monitor.table
        payload = self._payload()
        size = _ENTRY_WIRE_BYTES * max(1, len(payload["entries"]))
        timeout = self.server.config.sync_timeout
        if timeout <= 0:
            # Lock-step all-gather (original behaviour, byte-
            # identical traces when timeouts are disabled).
            calls = [self._peer(name).call("sync", payload, size=size)
                     for name in sorted(self._peer_addrs)]
            responses = yield engine.all_of(calls)
            for resp in responses:
                table.merge(resp["entries"])
                self._set_presence(resp["host"], resp["host_jobs"])
        else:
            # Per-peer timeout: issue every exchange up front, then
            # harvest; a silent peer costs at most `timeout` and the
            # round proceeds on the partial table (degraded mode).
            calls = [(name, self._peer(name).call(
                        "sync", payload, size=size, timeout=timeout))
                     for name in sorted(self._peer_addrs)]
            degraded = False
            for name, call in calls:
                try:
                    resp = yield call
                except RpcTimeout:
                    degraded = True
                    continue
                table.merge(resp["entries"])
                self._set_presence(resp["host"], resp["host_jobs"])
            if degraded:
                self.degraded_rounds += 1
                if self.server.fault_stats is not None:
                    self.server.fault_stats.degraded_sync_rounds += 1
        self.sync_rounds += 1
        self.refresh_tokens()

    def _answer_pairwise(self, rpc):
        """Peer pushed its snapshot (pairwise protocol): merge and reply
        after the controller's processing time (§5.6)."""
        processing = self.server.config.sync_processing_time
        if processing > 0:
            yield self.server.engine.timeout(processing)
        if self.server.crashed:
            return  # crashed mid-processing: stale merge + reply lost
        table = self.server.monitor.table
        table.merge(rpc.body["entries"])
        self._set_presence(rpc.body["host"], rpc.body["host_jobs"])
        payload = self._payload()
        rpc.reply(payload,
                  size=_ENTRY_WIRE_BYTES * max(1, len(payload["entries"])))
        self.refresh_tokens()

    def handle_sync(self, rpc) -> None:
        """Dispatch an inbound sync message by protocol role."""
        if self.server.crashed:
            return  # a dead server neither merges nor answers
        kind = rpc.body.get("kind")
        if kind == "pull":
            self.server.engine.process(self._answer_pull(rpc))
        elif kind == "push":
            self.server.engine.process(self._apply_push(rpc))
        elif kind == "tpull":
            self.server.engine.process(self._answer_tree_pull(rpc))
        elif kind == "tpush":
            self.server.engine.process(self._apply_tree_push(rpc))
        else:
            self.server.engine.process(self._answer_pairwise(rpc))


def _reply_wire(resp: dict) -> int:
    """Effective wire bytes of one gather reply (for the fan-in
    accounting; mirrors the payload_bytes the responder attached)."""
    if resp.get("same"):
        return _PROBE_WIRE_BYTES
    if resp.get("gather_delta"):
        return max(_PROBE_WIRE_BYTES,
                   _ENTRY_WIRE_BYTES * len(resp["entries"])
                   + _SUMMARY_WIRE_BYTES * len(resp.get("omitted") or ()))
    return _ENTRY_WIRE_BYTES * max(1, len(resp["entries"]))
