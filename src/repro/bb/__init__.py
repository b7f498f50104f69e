"""The ThemisIO burst-buffer system: servers, clients, cluster assembly."""

from .client import Client, ClientConfig
from .cluster import Cluster, ClusterConfig, make_scheduler
from .controller import Controller
from .monitor import JobMonitor
from .request import IORequest, META_COST_BYTES, OpType
from .server import Server, ServerConfig
from .stats import ServerStats, server_stats
from .worker import IOWorker

__all__ = [
    "Cluster",
    "ClusterConfig",
    "make_scheduler",
    "Server",
    "ServerConfig",
    "Client",
    "ClientConfig",
    "Controller",
    "JobMonitor",
    "IOWorker",
    "IORequest",
    "OpType",
    "META_COST_BYTES",
    "ServerStats",
    "server_stats",
]
