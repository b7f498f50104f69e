"""Interconnect substrate: fabric and message types."""

from .fabric import Fabric
from .message import Message

__all__ = ["Fabric", "Message"]
