"""Path handling for the ThemisIO namespace.

Paths are absolute, ``/``-separated, and normalised (no ``.``/``..``
components, no duplicate slashes). Workloads name their files under
``/fs``, as in the paper's example ``/fs/input/path``, but no component
treats that prefix specially: every path a client passes is the burst
buffer's.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import InvalidArgument

__all__ = ["normalize", "split", "join", "components"]


def normalize(path: str) -> str:
    """Return the canonical absolute form of *path*.

    Raises :class:`InvalidArgument` for relative paths, empty paths, or
    paths escaping the root via ``..``.
    """
    if not isinstance(path, str) or not path:
        raise InvalidArgument(f"empty or non-string path: {path!r}")
    if not path.startswith("/"):
        raise InvalidArgument(f"path must be absolute: {path!r}")
    parts: List[str] = []
    for comp in path.split("/"):
        if comp in ("", "."):
            continue
        if comp == "..":
            if not parts:
                raise InvalidArgument(f"path escapes root: {path!r}")
            parts.pop()
        else:
            parts.append(comp)
    return "/" + "/".join(parts)


def components(path: str) -> List[str]:
    """The normalised path's components (``[]`` for the root)."""
    norm = normalize(path)
    return [] if norm == "/" else norm[1:].split("/")


def split(path: str) -> Tuple[str, str]:
    """``(parent, name)`` of the normalised path; root has no parent."""
    norm = normalize(path)
    if norm == "/":
        raise InvalidArgument("root has no parent")
    parent, _, name = norm.rpartition("/")
    return (parent or "/", name)


def join(base: str, *names: str) -> str:
    """Join *names* onto *base* and normalise."""
    out = normalize(base)
    for name in names:
        if "/" in name:
            raise InvalidArgument(f"component contains '/': {name!r}")
        out = out.rstrip("/") + "/" + name
    return normalize(out)
