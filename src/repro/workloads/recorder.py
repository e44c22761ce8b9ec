"""Instrumented execution: turning Python kernels into instruction traces.

The paper instruments real binaries with Shade; here, workload kernels
are ordinary Python functions written against an
:class:`OperationRecorder`, which

* performs each arithmetic operation (so the kernel really computes its
  output) while appending the matching event's fields straight into
  trace columns (a :class:`~repro.isa.columns.ColumnAppender`);
* tracks array accesses through :class:`TrackedArray` so loads/stores
  carry realistic addresses for the cache hierarchy;
* counts loop overhead (branch + index arithmetic) via :meth:`loop`.

The recorded stream is exactly what the simulators consume, so the
operand values reaching the MEMO-TABLES are the values the computation
actually produced -- value locality is emergent, not synthesized.
:class:`TraceEvent` objects are only built for streaming consumers, or
when someone reads the trace's ``events``.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.operations import ieee_div, ieee_log, ieee_sqrt, int_div
from ..errors import WorkloadError
from ..isa.columns import ColumnAppender
from ..isa.opcodes import OPCODE_INDEX, OPCODE_LIST, Opcode
from ..isa.trace import Trace, TraceEvent

__all__ = ["OperationRecorder", "TrackedArray", "TracedValue", "TracedInt", "vid_of"]

Consumer = Callable[[TraceEvent], None]


class TracedValue(float):
    """A float carrying the virtual value-id of the event that made it.

    Kernels handle these as ordinary floats (any further plain-Python
    arithmetic returns a bare float, dropping the id -- which is correct:
    untraced operations are not pipeline producers).  The recorder reads
    the id back to attach dataflow edges to subsequent events.
    """

    __slots__ = ("vid",)  # one is made per traced float: no __dict__

    def __new__(cls, value: float, vid: int):
        self = float.__new__(cls, value)
        self.vid = vid
        return self


class TracedInt(int):
    """Integer twin of :class:`TracedValue` (for imul results)."""

    def __new__(cls, value: int, vid: int):
        self = int.__new__(cls, value)
        self.vid = vid
        return self


def vid_of(value) -> Optional[int]:
    """Virtual value-id of ``value``, or None for untracked constants."""
    return getattr(value, "vid", None)


def _srcs(*operands) -> tuple:
    """Dataflow edges: the ids of traced operands (constants drop out)."""
    return tuple([v.vid for v in operands if hasattr(v, "vid")])

#: Tracked arrays are laid out in a flat synthetic address space,
#: page-aligned so distinct arrays never share cache lines.
_ARRAY_ALIGNMENT = 4096

# Opcode indices: the recorder appends these, not Opcode members (an
# enum member's hash runs in Python).
_LOAD = OPCODE_INDEX[Opcode.LOAD]
_STORE = OPCODE_INDEX[Opcode.STORE]
_IMUL = OPCODE_INDEX[Opcode.IMUL]
_IDIV = OPCODE_INDEX[Opcode.IDIV]
_FMUL = OPCODE_INDEX[Opcode.FMUL]
_FDIV = OPCODE_INDEX[Opcode.FDIV]
_FADD = OPCODE_INDEX[Opcode.FADD]
_FSQRT = OPCODE_INDEX[Opcode.FSQRT]
_FRECIP = OPCODE_INDEX[Opcode.FRECIP]
_FLOG = OPCODE_INDEX[Opcode.FLOG]
_FSIN = OPCODE_INDEX[Opcode.FSIN]
_FCOS = OPCODE_INDEX[Opcode.FCOS]
_IALU = array("H", [OPCODE_INDEX[Opcode.IALU]])
_BRANCH = array("H", [OPCODE_INDEX[Opcode.BRANCH]])
#: One loop iteration's overhead: two IALU then one BRANCH.
_LOOP_OVERHEAD = _IALU * 2 + _BRANCH


class TrackedArray:
    """A numpy array whose element accesses are recorded as loads/stores.

    Only scalar (integer-tuple) indexing is supported -- kernels are
    written as explicit per-pixel loops, which is what a compiled
    scalar binary would execute.
    """

    def __init__(
        self, recorder: "OperationRecorder", array: np.ndarray, base: int
    ) -> None:
        self._recorder = recorder
        self.array = array
        self.base = base
        self.itemsize = array.itemsize
        # Element strides, precomputed: address math runs per access.
        self._strides = tuple(s // array.itemsize for s in array.strides)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.array.shape

    def _address(self, index) -> int:
        if isinstance(index, tuple):
            flat = 0
            for i, stride in zip(index, self._strides):
                flat += i * stride
        else:
            flat = index * self._strides[0]
        return self.base + flat * self.itemsize

    def __getitem__(self, index):
        recorder = self._recorder
        vid = recorder._new_vid()
        address = self._address(index)
        if recorder._columns is not None:
            recorder._columns.memory(_LOAD, address, vid, ())
        if recorder._streaming:
            recorder._stream(TraceEvent(Opcode.LOAD, address=address, dst=vid))
        value = self.array[index]
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, float):
            return TracedValue(value, vid)
        if isinstance(value, int):
            return TracedInt(value, vid)
        return value

    def __setitem__(self, index, value) -> None:
        recorder = self._recorder
        address = self._address(index)
        srcs = _srcs(value)
        if recorder._columns is not None:
            recorder._columns.memory(_STORE, address, None, srcs)
        if recorder._streaming:
            recorder._stream(TraceEvent(Opcode.STORE, address=address, srcs=srcs))
        self.array[index] = value

    def peek(self, index):
        """Read without recording (for assertions and debugging)."""
        value = self.array[index]
        return value.item() if isinstance(value, np.generic) else value


class OperationRecorder:
    """Collects the dynamic instruction stream of an instrumented kernel."""

    def __init__(
        self,
        keep_trace: bool = True,
        consumers: Sequence[Consumer] = (),
        record_sites: bool = False,
    ) -> None:
        """``keep_trace`` keeps the recording for :attr:`trace`;
        ``consumers`` receive every event as it happens (streaming mode,
        for runs too large to hold in memory); ``record_sites`` stamps
        each arithmetic event with a synthetic PC identifying its static
        call site (needed by PC-indexed schemes like the Reuse Buffer)."""
        self._columns: Optional[ColumnAppender] = (
            ColumnAppender() if keep_trace else None
        )
        self._consumers: List[Consumer] = list(consumers)
        # Events are built one by one only for consumers, or to count
        # them when there is no trace to count.
        self._streaming = bool(self._consumers) or not keep_trace
        self._streamed = 0
        self._next_base = _ARRAY_ALIGNMENT
        self._next_vid = 0
        self.record_sites = record_sites
        self._sites: Dict[tuple, int] = {}

    @property
    def trace(self) -> Optional[Trace]:
        """Everything recorded so far, column-backed (None without
        ``keep_trace``).  Reading it again after more recording returns
        a new trace; one read with nothing recorded in between returns
        the same object."""
        return self._columns.trace() if self._columns is not None else None

    @property
    def events_recorded(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return self._streamed

    def _new_vid(self) -> int:
        """Allocate a fresh virtual value id (dataflow node)."""
        self._next_vid += 1
        return self._next_vid

    def _site_pc(self) -> Optional[int]:
        """Synthetic PC of the kernel statement that called the recorder.

        Derived from the caller's code object and bytecode offset, two
        frames up (kernel -> public method -> helper), so one source
        statement is one static instruction -- unrolled source therefore
        occupies multiple PCs, exactly the distinction the paper draws
        against the Reuse Buffer.  Callers check ``record_sites`` first.
        """
        frame = sys._getframe(3)
        key = (id(frame.f_code), frame.f_lasti)
        pc = self._sites.get(key)
        if pc is None:
            # 4-byte "instructions", like a RISC text segment.
            pc = 0x10000 + 4 * len(self._sites)
            self._sites[key] = pc
        return pc

    # -- plumbing ---------------------------------------------------------

    def add_consumer(self, consumer: Consumer) -> None:
        self._consumers.append(consumer)
        self._streaming = True

    def emit(self, event: TraceEvent) -> None:
        """Record one prebuilt event (the arithmetic methods and tracked
        arrays record their events without building one)."""
        if self._columns is not None:
            self._columns.record(*event)
        if self._streaming:
            self._stream(event)

    def _stream(self, event: TraceEvent) -> None:
        self._streamed += 1
        for consumer in self._consumers:
            consumer(event)

    # -- memory -----------------------------------------------------------

    def track(self, array: np.ndarray) -> TrackedArray:
        """Place ``array`` in the synthetic address space and wrap it."""
        arr = np.asarray(array)
        base = self._next_base
        span = arr.size * arr.itemsize
        self._next_base = (
            (base + span + _ARRAY_ALIGNMENT - 1) // _ARRAY_ALIGNMENT
        ) * _ARRAY_ALIGNMENT
        return TrackedArray(self, arr, base)

    def new_array(self, shape, dtype=np.float64, fill=0.0) -> TrackedArray:
        """Allocate and track a fresh output array."""
        return self.track(np.full(shape, fill, dtype=dtype))

    # -- arithmetic (records and computes) ----------------------------------
    #
    # Every method computes the true result, records an event carrying
    # the plain operand values plus dataflow edges, and returns the result
    # wrapped with its value id so later events can name it as a source.

    def _binary(self, code: int, raw_a, raw_b, value_a, value_b, result,
                integer: bool = False):
        """Record a two-operand event (``code`` is an opcode index);
        ``raw_*`` keep the dataflow ids.  ``integer`` marks IMUL/IDIV,
        whose values are all plain ints."""
        vid = self._next_vid = self._next_vid + 1
        srcs = _srcs(raw_a, raw_b)
        pc = self._site_pc() if self.record_sites else None
        if self._columns is not None:
            append = self._columns.ints if integer else self._columns.floats
            append(code, value_a, value_b, result, vid, srcs, pc)
        if self._streaming:
            self._stream(TraceEvent(
                OPCODE_LIST[code], value_a, value_b, result,
                dst=vid, srcs=srcs, pc=pc,
            ))
        return vid

    def _unary(self, code: int, raw_a, value_a, result):
        vid = self._next_vid = self._next_vid + 1
        srcs = _srcs(raw_a)
        pc = self._site_pc() if self.record_sites else None
        if self._columns is not None:
            self._columns.floats(code, value_a, 0.0, result, vid, srcs, pc)
        if self._streaming:
            self._stream(TraceEvent(
                OPCODE_LIST[code], value_a, 0.0, result,
                dst=vid, srcs=srcs, pc=pc,
            ))
        return vid

    def imul(self, a: int, b: int) -> int:
        result = int(a) * int(b)
        vid = self._binary(_IMUL, a, b, int(a), int(b), result, True)
        return TracedInt(result, vid)

    def idiv(self, a: int, b: int) -> int:
        result = int_div(int(a), int(b))
        vid = self._binary(_IDIV, a, b, int(a), int(b), result, True)
        return TracedInt(result, vid)

    def fmul(self, a: float, b: float) -> float:
        result = float(a) * float(b)
        vid = self._binary(_FMUL, a, b, float(a), float(b), result)
        return TracedValue(result, vid)

    def fdiv(self, a: float, b: float) -> float:
        result = ieee_div(float(a), float(b))
        vid = self._binary(_FDIV, a, b, float(a), float(b), result)
        return TracedValue(result, vid)

    def fsqrt(self, a: float) -> float:
        result = ieee_sqrt(float(a))
        vid = self._unary(_FSQRT, a, float(a), result)
        return TracedValue(result, vid)

    def frecip(self, a: float) -> float:
        result = ieee_div(1.0, float(a))
        vid = self._unary(_FRECIP, a, float(a), result)
        return TracedValue(result, vid)

    def flog(self, a: float) -> float:
        result = ieee_log(float(a))
        vid = self._unary(_FLOG, a, float(a), result)
        return TracedValue(result, vid)

    def fsin(self, a: float) -> float:
        result = math.sin(float(a))
        vid = self._unary(_FSIN, a, float(a), result)
        return TracedValue(result, vid)

    def fcos(self, a: float) -> float:
        result = math.cos(float(a))
        vid = self._unary(_FCOS, a, float(a), result)
        return TracedValue(result, vid)

    def fadd(self, a: float, b: float) -> float:
        result = float(a) + float(b)
        vid = self._binary(_FADD, a, b, float(a), float(b), result)
        return TracedValue(result, vid)

    def fsub(self, a: float, b: float) -> float:
        result = float(a) - float(b)
        vid = self._binary(_FADD, a, b, float(a), float(b), result)
        return TracedValue(result, vid)

    # -- overhead instructions ----------------------------------------------

    def _plain(self, codes: array, event: TraceEvent) -> None:
        """Record ``len(codes)`` copies of the operand-less ``event``
        (``codes`` repeats its opcode index)."""
        if self._columns is not None:
            self._columns.plain(codes)
        if self._streaming:
            for _ in codes:
                self._stream(event)

    def ialu(self, count: int = 1) -> None:
        """Record integer ALU work (address arithmetic, comparisons...)."""
        self._plain(_IALU * count, TraceEvent(Opcode.IALU))

    def branch(self, count: int = 1) -> None:
        self._plain(_BRANCH * count, TraceEvent(Opcode.BRANCH))

    def loop(self, iterable: Iterable) -> Iterator:
        """Iterate while charging per-iteration loop overhead.

        Each iteration of a compiled scalar loop costs index increments,
        a bounds compare and a conditional branch; ``loop`` records that
        mix (two IALU + one BRANCH), so traces carry a realistic
        instruction breakdown even though the kernel bodies are Python.
        """
        ialu = TraceEvent(Opcode.IALU)
        branch = TraceEvent(Opcode.BRANCH)
        columns = self._columns
        for item in iterable:
            if columns is not None:
                columns.plain(_LOOP_OVERHEAD)
            if self._streaming:
                self._stream(ialu)
                self._stream(ialu)
                self._stream(branch)
            yield item

    # -- summary ------------------------------------------------------------

    def breakdown(self) -> dict:
        """Opcode frequency breakdown (requires keep_trace=True)."""
        if self.trace is None:
            raise WorkloadError("breakdown requires keep_trace=True")
        return self.trace.breakdown()
