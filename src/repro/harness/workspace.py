"""Content-addressed experiment workspace (the figure points' store).

A *workspace* is an on-disk store of experiment point results keyed by
a canonical content hash of the cell, the fully-resolved point
configuration and the code revision that produced it (the signac
project/statepoint idea reduced to what figures need). Re-running a
figure only pays for points whose config or code changed; everything
else is a cache hit read back from disk — and because every stored
result is a canonical-JSON document, a replay is byte-identical to the
run that populated the store (see
:func:`repro.harness.experiments.run_points` for the runner and the
serial == parallel == replay contract).

Layout under the workspace root (default ``.workspace/``)::

    .workspace/
      points/<key>.json     # one atomically-written blob per point

Durability rules:

- **Atomic writes.** Every blob is written to a temp file in the same
  directory and ``os.replace``\\ d into place, so a crashed run never
  leaves a half-written blob behind.
- **Corruption is a cache miss.** A blob that fails to parse, fails its
  embedded-key check, or lacks the required fields is deleted on read
  and reported as missing; the runner simply recomputes that point.

Keys never include host metadata (timestamps, hostnames): the same
config at the same code revision hashes to the same key on any machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import tempfile
from typing import Any, Dict, Optional

__all__ = ["canonical_json", "content_digest", "point_key", "code_rev",
           "Workspace"]

#: Bump when the blob schema changes incompatibly; part of every key so
#: old-schema blobs age out as misses instead of being misread.
SCHEMA_VERSION = 2

#: Environment override for the code revision (tests pin it; containers
#: without git metadata can set it to a build id).
REV_ENV_VAR = "REPRO_CODE_REV"


def canonical_json(doc: Any) -> str:
    """Serialise *doc* to canonical JSON: sorted keys, minimal
    separators, NaN/Infinity rejected.

    Two structurally equal documents — regardless of dict insertion
    order — produce the same byte string, so hashes and byte-equality
    comparisons over canonical JSON are content comparisons. Floats use
    Python's shortest-roundtrip ``repr``, which is exact and stable
    across platforms for IEEE-754 doubles.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def content_digest(doc: Any) -> str:
    """Stable hex digest of *doc*'s canonical JSON form."""
    payload = canonical_json(doc).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def point_key(cell: str, config: Dict[str, Any], rev: str) -> str:
    """The content-addressed store key of one experiment point.

    *cell* is the ``__name__`` of the function computing the point (a
    cell of :data:`repro.harness.experiments.FIGURES`), *config* the
    fully resolved parameter dict, *rev* the code revision. Any change
    to any of the three produces a different key, which is exactly the
    invalidation rule: unchanged points are free, changed points rerun.
    """
    return content_digest({"cell": cell, "config": config, "rev": rev,
                           "schema": SCHEMA_VERSION})


def code_rev() -> str:
    """The code revision used in store keys.

    The :data:`REV_ENV_VAR` environment variable wins when set (tests
    pin revisions with it); otherwise the short git revision of this
    checkout, suffixed ``-dirty-<digest>`` when the checkout has
    uncommitted changes: the digest covers ``git diff --binary HEAD`` and
    the names and bytes of the untracked, not ignored files under the
    ``repro`` package, so that two different edits of one revision never
    share a key; ``"unknown"`` outside a git checkout.
    """
    pinned = os.environ.get(REV_ENV_VAR)
    if pinned:
        return pinned
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=here,
            capture_output=True, text=True, check=True).stdout.strip()
    except Exception:
        return "unknown"
    diff = subprocess.run(["git", "diff", "--no-ext-diff", "--binary", "HEAD"],
                          cwd=here, capture_output=True).stdout
    package = os.path.dirname(here)
    untracked = subprocess.run(
        ["git", "ls-files", "-z", "--others", "--exclude-standard"],
        cwd=package, capture_output=True).stdout.split(b"\0")[:-1]
    if not diff and not untracked:
        return rev
    digest = hashlib.blake2b(diff, digest_size=6)
    for name in untracked:
        with open(os.path.join(package, os.fsdecode(name)), "rb") as fh:
            digest.update(b"\0" + name + b"\0" + fh.read())
    return f"{rev}-dirty-{digest.hexdigest()}"


def _atomic_write_json(path: str, doc: Any) -> None:
    """Write *doc* as JSON to *path* via a same-directory temp file and
    ``os.replace`` (atomic on POSIX)."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", suffix=".json",
                               dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Workspace:
    """A content-addressed store of experiment point results on disk.

    Blobs are complete, self-describing documents (they embed their own
    key, cell, config, result, and metadata), so the store can always
    be audited or rebuilt from the blob directory alone.
    """

    _REQUIRED_FIELDS = ("key", "cell", "config", "result", "meta")

    def __init__(self, root: str = ".workspace"):
        self.root = root
        self.points_dir = os.path.join(root, "points")

    # ------------------------------------------------------------- paths
    def _blob_path(self, key: str) -> str:
        return os.path.join(self.points_dir, f"{key}.json")

    def _ensure_dirs(self) -> None:
        os.makedirs(self.points_dir, exist_ok=True)

    # ------------------------------------------------------------- blobs
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored blob for *key*, or ``None`` on a miss.

        A corrupted blob (unparseable, missing fields, or whose embedded
        key disagrees with its filename) is deleted and reported as a
        miss — the runner recomputes the point and the store heals.
        """
        path = self._blob_path(key)
        try:
            with open(path) as fh:
                blob = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError, ValueError):
            self.discard(key)
            return None
        if (not isinstance(blob, dict)
                or any(f not in blob for f in self._REQUIRED_FIELDS)
                or blob["key"] != key):
            self.discard(key)
            return None
        return blob

    def put(self, key: str, cell: str, config: Dict[str, Any],
            result: Any, rev: str) -> None:
        """Store *result* for the point (*cell*, *config*, *rev*) under
        *key*, atomically."""
        self._ensure_dirs()
        blob = {
            "key": key,
            "cell": cell,
            "config": config,
            "result": result,
            "meta": {"rev": rev, "schema": SCHEMA_VERSION},
        }
        _atomic_write_json(self._blob_path(key), blob)

    def discard(self, key: str) -> bool:
        """Drop *key*'s blob (a corrupt read); True if one existed."""
        try:
            os.unlink(self._blob_path(key))
            return True
        except OSError:
            return False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Workspace root={self.root!r}>"
