"""Instruction traces: the interface between workloads and simulators.

A trace is a sequence of :class:`TraceEvent` records.  Memoizable events
carry operand and result values (what Shade extracted from registers);
memory events carry an address (for the cache hierarchy of section 3.3);
everything else is just an opcode for the frequency breakdown.

Traces can be held in memory (:class:`Trace`), streamed event by event,
or round-tripped through a simple line-oriented text format so recorded
workloads can be archived and replayed.
"""

from __future__ import annotations

import io
from collections import Counter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, TextIO, Union

from ..arch.ieee754 import bits_to_float64, float64_to_bits
from ..errors import TraceFormatError
from .opcodes import Opcode

__all__ = ["TraceEvent", "Trace", "write_trace", "read_trace", "frequency_breakdown"]


class TraceEvent(NamedTuple):
    """One dynamic instruction.

    ``a``/``b``/``result`` are meaningful for memoizable opcodes (for
    integer multiply they hold exact integers); ``address`` for loads and
    stores.  Plain instructions carry neither.

    ``dst``/``srcs`` are optional dataflow edges (virtual value ids
    assigned by the recorder): ``dst`` names the value this instruction
    produces, ``srcs`` the values it consumes.  The hazard-aware pipeline
    model uses them to charge RAW stalls; the text serialization drops
    them (archived traces are value streams only).

    A NamedTuple rather than a dataclass: traces run to millions of
    events and construction cost dominates recording.
    """

    opcode: Opcode
    a: Union[int, float] = 0.0
    b: Union[int, float] = 0.0
    result: Union[int, float] = 0.0
    address: Optional[int] = None
    dst: Optional[int] = None
    srcs: tuple = ()
    #: Static instruction identity (synthetic PC), recorded when the
    #: recorder's ``record_sites`` is on.  Used by the Reuse Buffer
    #: comparison (Sodani & Sohi index by instruction address).
    pc: Optional[int] = None


class Trace:
    """An in-memory instruction trace.

    Events are held either as a list of :class:`TraceEvent` records, as
    a columnar :class:`~repro.isa.columns.ColumnBatch`, or both: a trace
    loaded from the v3 binary format (or recorded by a workload or the
    assembler machine) starts column-backed and only materializes event
    objects when :attr:`events` is first read, while
    a trace built by appending events converts lazily (and caches the
    result) when :meth:`columns` is first called.  Either view describes
    the identical event sequence.
    """

    def __init__(
        self,
        events: Optional[Iterable[TraceEvent]] = None,
        columns: Optional["object"] = None,
    ) -> None:
        if columns is not None and events is not None:
            raise ValueError("pass either events or columns, not both")
        self._events: Optional[List[TraceEvent]] = (
            None if columns is not None else list(events or [])
        )
        self._columns = columns

    @property
    def events(self) -> List[TraceEvent]:
        """The event list (materialized from columns on first access)."""
        if self._events is None:
            self._events = self._columns.to_events()
        return self._events

    def columns(self):
        """The columnar view (built from the event list on first call)."""
        if self._columns is not None and (
            self._events is None or len(self._events) == len(self._columns)
        ):
            return self._columns
        from .columns import ColumnBatch  # deferred: columns imports us

        self._columns = ColumnBatch.from_events(self._events)
        return self._columns

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)
        self._columns = None

    def extend(self, events: Iterable[TraceEvent]) -> None:
        self.events.extend(events)
        self._columns = None

    def __len__(self) -> int:
        if self._events is None:
            return len(self._columns)
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __getitem__(self, index: int) -> TraceEvent:
        return self.events[index]

    def filter(self, *opcodes: Opcode) -> "Trace":
        """Sub-trace containing only the given opcodes."""
        wanted = frozenset(opcodes)
        return Trace(e for e in self.events if e.opcode in wanted)

    def count(self, opcode: Opcode) -> int:
        return sum(1 for e in self.events if e.opcode is opcode)

    def breakdown(self) -> Dict[Opcode, int]:
        """Instruction frequency breakdown (per section 3 of the paper)."""
        if self._events is None:
            return self._columns.breakdown()  # no need to materialize
        return frequency_breakdown(self.events)


def frequency_breakdown(events: Iterable[TraceEvent]) -> Dict[Opcode, int]:
    """Count dynamic instructions by opcode class."""
    counts: Counter = Counter(e.opcode for e in events)
    return dict(counts)


# -- text serialization ----------------------------------------------------
#
# Format: one event per line, space separated:
#   <opcode> [a_bits b_bits result_bits | addr]
# Float operands are stored as hex bit patterns so round-trips are exact;
# integer multiply operands are stored as decimal integers prefixed "i".


def _encode_operand(value: Union[int, float]) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        return f"i{value:d}"
    return f"{float64_to_bits(float(value)):016x}"


def _decode_operand(token: str) -> Union[int, float]:
    if token.startswith("i"):
        return int(token[1:])
    return bits_to_float64(int(token, 16))


def write_trace(events: Iterable[TraceEvent], stream: TextIO) -> int:
    """Serialize events to ``stream``; returns the number written."""
    count = 0
    for event in events:
        if event.opcode.is_memoizable:
            stream.write(
                f"{event.opcode.value} {_encode_operand(event.a)} "
                f"{_encode_operand(event.b)} {_encode_operand(event.result)}\n"
            )
        elif event.opcode.is_memory:
            address = event.address if event.address is not None else 0
            stream.write(f"{event.opcode.value} @{address:x}\n")
        else:
            stream.write(f"{event.opcode.value}\n")
        count += 1
    return count


def read_trace(stream: TextIO) -> Iterator[TraceEvent]:
    """Parse events from ``stream`` (inverse of :func:`write_trace`)."""
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            opcode = Opcode(parts[0])
        except ValueError as exc:
            raise TraceFormatError(
                f"line {line_number}: unknown opcode {parts[0]!r}"
            ) from exc
        if opcode.is_memoizable:
            if len(parts) != 4:
                raise TraceFormatError(
                    f"line {line_number}: {opcode.value} needs 3 operand fields"
                )
            try:
                a, b, result = (_decode_operand(p) for p in parts[1:4])
            except ValueError as exc:
                raise TraceFormatError(
                    f"line {line_number}: bad operand encoding"
                ) from exc
            yield TraceEvent(opcode, a, b, result)
        elif opcode.is_memory:
            if len(parts) != 2 or not parts[1].startswith("@"):
                raise TraceFormatError(
                    f"line {line_number}: {opcode.value} needs one @address field"
                )
            try:
                address = int(parts[1][1:], 16)
            except ValueError as exc:
                raise TraceFormatError(
                    f"line {line_number}: bad address {parts[1]!r}"
                ) from exc
            yield TraceEvent(opcode, address=address)
        else:
            if len(parts) != 1:
                raise TraceFormatError(
                    f"line {line_number}: {opcode.value} takes no operands"
                )
            yield TraceEvent(opcode)


def dumps(events: Iterable[TraceEvent]) -> str:
    """Serialize a trace to a string."""
    buffer = io.StringIO()
    write_trace(events, buffer)
    return buffer.getvalue()


def loads(text: str) -> Trace:
    """Parse a trace from a string."""
    return Trace(read_trace(io.StringIO(text)))
