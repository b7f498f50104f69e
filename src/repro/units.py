"""Size and time unit constants plus a bandwidth formatter.

The simulator's base units are **bytes** and **seconds** (floats). All
bandwidths are bytes/second. These constants keep magnitudes readable at
call sites (``4 * MiB`` rather than ``4194304``).
"""

from __future__ import annotations

# Binary sizes
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

# Decimal sizes (storage vendors / the paper's GB/s figures)
KB = 1000
MB = 1000 * KB
GB = 1000 * MB
TB = 1000 * GB

# Time (seconds)
USEC = 1e-6
MSEC = 1e-3
SEC = 1.0
MINUTE = 60.0
HOUR = 3600.0


def fmt_bw(bytes_per_sec: float) -> str:
    """Format a bandwidth in decimal GB/s or MB/s like the paper reports."""
    v = float(bytes_per_sec)
    if abs(v) >= GB:
        return f"{v / GB:.2f} GB/s"
    if abs(v) >= MB:
        return f"{v / MB:.1f} MB/s"
    return f"{v / KB:.1f} KB/s"
