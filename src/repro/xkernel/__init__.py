"""x-kernel Uniform Protocol Interface shell for composite protocols."""

from repro.xkernel.demux import DispatchTable, TypeDemux
from repro.xkernel.upi import Protocol, compose_stack

__all__ = ["Protocol", "DispatchTable", "TypeDemux", "compose_stack"]
