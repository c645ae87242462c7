"""Synchronous bufferless (hot-potato) simulation engine."""

from .packet import Packet, PacketStatus
from .events import EventKind, TraceEvent, TraceRecorder
from .router import DesiredMove, Router
from .metrics import RunResult
from .engine import Engine, Slot
from .soa import FrontierArrays, GeometryArrays, PacketArrays
from .engine_vec import VecEngine

__all__ = [
    "Packet",
    "PacketStatus",
    "EventKind",
    "TraceEvent",
    "TraceRecorder",
    "DesiredMove",
    "Router",
    "RunResult",
    "Engine",
    "Slot",
    "GeometryArrays",
    "PacketArrays",
    "FrontierArrays",
    "VecEngine",
]
