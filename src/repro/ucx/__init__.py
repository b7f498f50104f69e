"""UCX-like communication substrate: UCP contexts/workers + RPC."""

from .rpc import RpcClient, RpcRequest, RpcServer
from .ucp import Address, UCPContext, UCPWorker, WorkerPool

__all__ = [
    "UCPContext",
    "UCPWorker",
    "WorkerPool",
    "Address",
    "RpcClient",
    "RpcServer",
    "RpcRequest",
]
