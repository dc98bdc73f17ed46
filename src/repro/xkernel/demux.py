"""Payload demultiplexing above the transport.

The x-kernel demultiplexes arriving messages to the right upper protocol;
here a node does it in one lookup.  Its :class:`DispatchTable` (owned by
the node's transport, filled at deploy time) maps ``(payload class,
service)`` to the consumer: a gRPC :class:`~repro.core.messages.NetMsg`
goes to the composite of the service stamped into it on transmission (the
x-kernel's "relative protocol id" reduced to a service name), a
``Heartbeat`` to the node's detector.  :class:`TypeDemux` is the
UPI-shaped alternative for hand-built stacks, placed above a transport
whose table is empty.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Type

from repro.errors import ReproError
from repro.xkernel.upi import Protocol

__all__ = ["DispatchTable", "TypeDemux"]


class DispatchTable:
    """One node's arrival routes: ``(payload class, service)`` -> upper.

    Payloads without a ``service`` attribute route under ``""``.  An
    unknown service key falls back to the first upper attached for the
    class; a subclass routes like its attached base class.
    """

    __slots__ = ("_routes", "_first")

    def __init__(self) -> None:
        self._routes: Dict[Tuple[Type, str], Protocol] = {}
        #: payload class -> first upper attached for it (the fallback).
        self._first: Dict[Type, Protocol] = {}

    def attach(self, payload_type: Type, upper: Protocol,
               service: str = "") -> None:
        """Deliver payloads of ``payload_type`` stamped with ``service``
        to ``upper``."""
        key = (payload_type, service)
        if key in self._routes:
            raise ReproError(
                f"{payload_type.__name__} route for service {service!r} "
                f"is already attached")
        self._routes[key] = upper
        self._first.setdefault(payload_type, upper)

    def route(self, payload_type: Type,
              service: str = "") -> Optional[Protocol]:
        """The upper attached under exactly this key, or None."""
        return self._routes.get((payload_type, service))

    def services(self, payload_type: Type) -> List[str]:
        """The service keys attached for ``payload_type``, sorted."""
        return sorted(service for cls, service in self._routes
                      if cls is payload_type)

    def lookup(self, payload: Any) -> Optional[Protocol]:
        """The upper an arrived ``payload`` goes to, or None (dropped,
        like a port with no listener)."""
        cls = payload.__class__
        service = getattr(payload, "service", "")
        upper = self._routes.get((cls, service))
        if upper is not None:
            return upper
        upper = self._first.get(cls)
        if upper is not None:
            return upper
        for payload_type, first in self._first.items():
            if isinstance(payload, payload_type):
                return self._routes.get((payload_type, service), first)
        return None


class TypeDemux(Protocol):
    """Routes popped payloads by their Python type (hand-built stacks)."""

    def __init__(self, name: str = "demux"):
        super().__init__(name)
        self._routes: Dict[Type, Protocol] = {}

    def attach(self, payload_type: Type, upper: Protocol) -> None:
        """Deliver payloads of ``payload_type`` (or subclasses) to
        ``upper``; also wires ``upper.lower`` to this demux for pushes."""
        self._routes[payload_type] = upper
        upper.lower = self

    async def pop(self, payload: Any, **kwargs: Any) -> Any:
        for payload_type, upper in self._routes.items():
            if isinstance(payload, payload_type):
                return await upper.pop(payload, **kwargs)
        # Unclaimed payload types are dropped silently, like a port with
        # no listener.
        return None
