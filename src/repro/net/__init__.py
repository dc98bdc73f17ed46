"""Simulated network substrate: nodes, lossy links, unreliable transport."""

from repro.net.fabric import LinkSpec, NetworkFabric
from repro.net.message import Envelope, Group, ProcessId, wire_size
from repro.net.node import Node
from repro.net.trace import NetTrace
from repro.net.transport import UnreliableTransport
from repro.net.wire import WireBatch, WireConfig, WirePipeline

__all__ = [
    "LinkSpec",
    "NetworkFabric",
    "Envelope",
    "Group",
    "ProcessId",
    "Node",
    "NetTrace",
    "UnreliableTransport",
    "WireBatch",
    "WireConfig",
    "WirePipeline",
    "wire_size",
]
