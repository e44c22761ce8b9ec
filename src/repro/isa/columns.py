"""Columnar (struct-of-arrays) trace batches.

The record-at-a-time :class:`~repro.isa.trace.TraceEvent` stream is the
interface workloads speak, but replaying millions of NamedTuples through
a Python loop is where simulation time goes.  A :class:`ColumnBatch`
holds the same events as parallel fixed-width columns -- one
``array('B')`` of opcode indices, one of per-event flags, int64 columns
for operands/result/address/pc/dst and a flattened srcs column -- so the
simulator kernel (:mod:`repro.core.kernel`) can partition a whole batch
by opcode, extract index/tag columns and trivial-operand masks with
numpy, and probe the MEMO-TABLES without touching an event object.

Encoding rules match the v2 binary format (:mod:`repro.isa.binfmt`):

* operands are stored as int64 values when ``a``/``b``/``result`` are
  all non-bool ints (``_F_INT``), otherwise as the raw IEEE-754 bit
  patterns of their float64 coercion -- exactly the distinction the v2
  writer draws, so a batch serializes to v3 blocks verbatim;
* optional fields (``address``/``pc``/``dst``) store 0 with their flag
  bit clear when absent, so ``None`` round-trips;
* the rare event a fixed column cannot hold (an out-of-int64 integer
  operand, or a mixed int/float triple whose float coercion overflows)
  is marked ``_F_WIDE`` and kept verbatim in a side table; such events
  reconstruct exactly but cannot be serialized (the v2 writer rejects
  them too).

Batches reconstruct their events bit-exactly: NaN payloads, ``-0.0``
and int64 corner values all survive the round trip.

A :class:`ColumnAppender` is the one way events become columns.  It
takes primitive fields (the recorder and the assembler machine call it
directly, without building a :class:`TraceEvent`), keeps float operands
as doubles and reinterprets each double column into its int64 bit
column in one bulk copy when the batch is finished.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, cast

from ..arch.ieee754 import bits_to_float64
from .opcodes import OPCODE_INDEX, OPCODE_LIST, Opcode
from .trace import Trace, TraceEvent

__all__ = ["ColumnAppender", "ColumnBatch", "DEFAULT_BATCH_EVENTS"]

#: Events per block in streaming/serialized form: large enough that the
#: per-batch numpy fixed costs amortize, small enough to keep resident.
DEFAULT_BATCH_EVENTS = 65536

# Per-event flag bits (shared with the v3 on-disk block format, where
# _F_WIDE never appears -- wide events are re-encoded or rejected).
_F_INT = 1
_F_ADDRESS = 2
_F_PC = 4
_F_DST = 8
_F_WIDE = 16

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_U64_MASK = 0xFFFFFFFFFFFFFFFF


class _Views:
    """Cached numpy views over a batch's columns (zero-copy)."""

    __slots__ = (
        "length", "opcode", "flags", "a_i", "b_i", "r_i",
        "a_f", "b_f", "r_f", "address", "pc", "dst",
    )

    def __init__(self, batch: "ColumnBatch") -> None:
        import numpy as np

        self.length = len(batch)
        self.opcode = np.frombuffer(batch.opcode_col, dtype=np.uint8)
        self.flags = np.frombuffer(batch.flags_col, dtype=np.uint8)
        self.a_i = np.frombuffer(batch.a_col, dtype=np.int64)
        self.b_i = np.frombuffer(batch.b_col, dtype=np.int64)
        self.r_i = np.frombuffer(batch.result_col, dtype=np.int64)
        self.a_f = self.a_i.view(np.float64)
        self.b_f = self.b_i.view(np.float64)
        self.r_f = self.r_i.view(np.float64)
        self.address = np.frombuffer(batch.address_col, dtype=np.int64)
        self.pc = np.frombuffer(batch.pc_col, dtype=np.int64)
        self.dst = np.frombuffer(batch.dst_col, dtype=np.int64)


class ColumnBatch:
    """A trace slice as parallel columns (see module docstring)."""

    __slots__ = (
        "opcode_col", "flags_col", "a_col", "b_col", "result_col",
        "address_col", "pc_col", "dst_col", "src_offsets", "srcs_col",
        "wide", "_views",
    )

    def __init__(self) -> None:
        self.opcode_col = array("B")
        self.flags_col = array("B")
        self.a_col = array("q")
        self.b_col = array("q")
        self.result_col = array("q")
        self.address_col = array("q")
        self.pc_col = array("q")
        self.dst_col = array("q")
        #: Prefix-sum boundaries into :attr:`srcs_col`; length ``n + 1``.
        self.src_offsets = array("Q", [0])
        self.srcs_col = array("q")
        #: index -> (a, b, result) for events the fixed columns cannot hold.
        self.wide: Dict[int, Tuple] = {}
        self._views: Optional[_Views] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "ColumnBatch":
        appender = ColumnAppender()
        record = appender.record
        for event in events:
            record(*event)
        return appender.finish()

    def extend_batch(self, other: "ColumnBatch") -> None:
        """Append every event of ``other`` (column-level concatenation)."""
        offset = len(self.opcode_col)
        src_base = len(self.srcs_col)
        self.opcode_col.extend(other.opcode_col)
        self.flags_col.extend(other.flags_col)
        self.a_col.extend(other.a_col)
        self.b_col.extend(other.b_col)
        self.result_col.extend(other.result_col)
        self.address_col.extend(other.address_col)
        self.pc_col.extend(other.pc_col)
        self.dst_col.extend(other.dst_col)
        self.srcs_col.extend(other.srcs_col)
        self.src_offsets.extend(
            src_base + bound for bound in other.src_offsets[1:]
        )
        for index, triple in other.wide.items():
            self.wide[offset + index] = triple

    # -- numpy views -------------------------------------------------------

    def views(self) -> _Views:
        """Zero-copy numpy views; rebuilt whenever the batch has grown
        (``array`` reallocation invalidates older buffers)."""
        if self._views is None or self._views.length != len(self):
            self._views = _Views(self)
        return self._views

    # -- reconstruction ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.opcode_col)

    def operand_triple(self, index: int) -> Tuple:
        """Raw ``(a, b, result)`` of one event, wide-aware."""
        flags = self.flags_col[index]
        if flags & _F_WIDE:
            return self.wide[index]
        if flags & _F_INT:
            return (
                self.a_col[index], self.b_col[index], self.result_col[index]
            )
        return (
            bits_to_float64(self.a_col[index] & _U64_MASK),
            bits_to_float64(self.b_col[index] & _U64_MASK),
            bits_to_float64(self.result_col[index] & _U64_MASK),
        )

    def srcs_for(self, index: int) -> tuple:
        lo, hi = self.src_offsets[index], self.src_offsets[index + 1]
        return tuple(self.srcs_col[lo:hi])

    def __getitem__(self, index: int) -> TraceEvent:
        # Indexing parity with list-backed traces: the scalar backend's
        # sliced dispatch (and anything else that windows a trace by
        # position) does events[i], which used to TypeError on a
        # ColumnBatch even though event(i) existed.
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("ColumnBatch index out of range")
        return self.event(index)

    def event(self, index: int) -> TraceEvent:
        flags = self.flags_col[index]
        a, b, result = self.operand_triple(index)
        return TraceEvent(
            OPCODE_LIST[self.opcode_col[index]],
            a,
            b,
            result,
            address=self.address_col[index] if flags & _F_ADDRESS else None,
            dst=self.dst_col[index] if flags & _F_DST else None,
            srcs=self.srcs_for(index),
            pc=self.pc_col[index] if flags & _F_PC else None,
        )

    def to_events(self) -> List[TraceEvent]:
        """Materialize the whole batch (the bulk inverse of the appender).

        Every column is decoded at once from its numpy view; the only
        per-event Python work left is patching int and wide rows and
        slicing the srcs lists.
        """
        import numpy as np

        if not len(self):
            return []
        views = self.views()
        flags = views.flags
        a = views.a_f.tolist()
        b = views.b_f.tolist()
        result = views.r_f.tolist()
        int_rows = np.flatnonzero(flags & _F_INT)
        for i, x, y, z in zip(
            int_rows.tolist(),
            views.a_i[int_rows].tolist(),
            views.b_i[int_rows].tolist(),
            views.r_i[int_rows].tolist(),
        ):
            a[i] = x
            b[i] = y
            result[i] = z
        for i, (x, y, z) in self.wide.items():
            a[i] = x
            b[i] = y
            result[i] = z
        srcs: Iterable[tuple]
        if len(self.srcs_col):
            ids = self.srcs_col.tolist()
            bounds = self.src_offsets.tolist()
            srcs = [
                tuple(ids[lo:hi]) if hi > lo else ()
                for lo, hi in zip(bounds, bounds[1:])
            ]
        else:
            srcs = repeat(())
        # tuple.__new__ builds each TraceEvent without a Python-level
        # constructor call per event.
        return cast(List[TraceEvent], list(map(
            tuple.__new__,
            repeat(TraceEvent),
            zip(
                map(OPCODE_LIST.__getitem__, self.opcode_col),
                a,
                b,
                result,
                _optional(views.address, flags & _F_ADDRESS),
                _optional(views.dst, flags & _F_DST),
                srcs,
                _optional(views.pc, flags & _F_PC),
            ),
        )))

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.to_events())

    def breakdown(self) -> Dict[Opcode, int]:
        """Instruction frequency breakdown without materializing events."""
        import numpy as np

        counts = np.bincount(
            self.views().opcode, minlength=len(OPCODE_LIST)
        ).tolist()
        return {
            OPCODE_LIST[i]: count for i, count in enumerate(counts) if count
        }


def _optional(values, present) -> list:
    """``values`` as a list of ints, ``None`` where ``present`` is 0."""
    import numpy as np

    mask = present != 0
    if mask.all():
        return values.tolist()
    column = np.empty(len(values), dtype=object)  # filled with None
    if mask.any():
        column[mask] = values[mask]
    return column.tolist()


def _int64_column(present, values: array) -> array:
    """An int64 column holding ``values`` (8-byte items, one per set
    entry of the boolean mask ``present``, in order) and 0 elsewhere.
    A double column is reinterpreted as its IEEE-754 bit patterns."""
    import numpy as np

    column = np.zeros(len(present), dtype=np.int64)
    if len(values):
        column[present] = np.frombuffer(values, dtype=np.int64)
    return _as_array("q", column)


def _as_array(typecode: str, values) -> array:
    """Copy a contiguous numpy array into an ``array`` of ``typecode``."""
    out = array(typecode)
    out.frombytes(memoryview(values).cast("B"))
    return out


# Appender-only flag bits (finish() strips them): the event's float
# operands, or its source ids, were appended to the sparse columns.
_A_FLOATS = 32
_A_SRCS = 64
_PUBLIC_FLAGS = _F_INT | _F_ADDRESS | _F_PC | _F_DST | _F_WIDE


class ColumnAppender:
    """Builds a :class:`ColumnBatch` one event at a time from primitives.

    Each event appends one word (opcode index | flag bits << 8) and then
    only the fields it has: float operands go into ``array('d')``
    columns as they are, address/pc/dst/srcs into their own columns,
    and events whose operands are all ints (IMUL/IDIV) keep them in a
    side list.  :meth:`finish` reinterprets each double column as int64
    bits in one bulk copy, scatters every column to its events with
    numpy and patches the int rows in, so no operand is ever bit-cast
    on its own and an operand-less event costs one word.

    :meth:`record` is the general encoder (any operand types, exactly
    the :class:`ColumnBatch` encoding rules); :meth:`floats`,
    :meth:`ints`, :meth:`memory` and :meth:`plain` are shortcuts for
    callers that already know their operand types.

    :meth:`finish` may be called again after more events were appended:
    it then returns a new batch holding everything so far, and leaves
    batches it returned earlier untouched.
    """

    __slots__ = (
        "_words", "_a", "_b", "_result", "_address", "_pc", "_dst",
        "_nsrcs", "_srcs", "_ints", "_wide", "_batch", "_trace",
    )

    def __init__(self) -> None:
        self._batch: Optional[ColumnBatch] = None
        self._trace: Optional[Trace] = None
        self._reset()

    def _reset(self) -> None:
        self._words = array("H")
        self._a = array("d")
        self._b = array("d")
        self._result = array("d")
        self._address = array("q")
        self._pc = array("q")
        self._dst = array("q")
        self._nsrcs = array("I")
        self._srcs = array("q")
        #: (index, a, b, result) of the _F_INT events.
        self._ints: List[Tuple[int, int, int, int]] = []
        self._wide: Dict[int, Tuple] = {}

    def __len__(self) -> int:
        finished = len(self._batch) if self._batch is not None else 0
        return finished + len(self._words)

    # -- appending ---------------------------------------------------------

    def record(
        self,
        opcode: Opcode,
        a=0.0,
        b=0.0,
        result=0.0,
        address: Optional[int] = None,
        dst: Optional[int] = None,
        srcs: tuple = (),
        pc: Optional[int] = None,
    ) -> None:
        """Append one event given as :class:`TraceEvent` fields."""
        index = len(self._words)
        if (
            isinstance(a, int) and isinstance(b, int)
            and isinstance(result, int)
            and not (
                isinstance(a, bool) or isinstance(b, bool)
                or isinstance(result, bool)
            )
        ):
            if (
                _INT64_MIN <= a <= _INT64_MAX
                and _INT64_MIN <= b <= _INT64_MAX
                and _INT64_MIN <= result <= _INT64_MAX
            ):
                flags = _F_INT
                self._ints.append((index, a, b, result))
            else:
                flags = _F_WIDE
                self._wide[index] = (a, b, result)
        else:
            try:
                fa, fb, fr = float(a), float(b), float(result)
            except OverflowError:
                flags = _F_WIDE
                self._wide[index] = (a, b, result)
            else:
                flags = _A_FLOATS
                self._a.append(fa)
                self._b.append(fb)
                self._result.append(fr)
        if address is not None:
            flags |= _F_ADDRESS
            self._address.append(address)
        if pc is not None:
            flags |= _F_PC
            self._pc.append(pc)
        if dst is not None:
            flags |= _F_DST
            self._dst.append(dst)
        if srcs:
            flags |= _A_SRCS
            self._nsrcs.append(len(srcs))
            self._srcs.extend(srcs)
        self._words.append(OPCODE_INDEX[opcode] | flags << 8)

    def floats(self, code: int, a: float, b: float, result: float,
               dst: int, srcs: tuple, pc: Optional[int]) -> None:
        """An arithmetic event with float operands (``code`` is an
        opcode index)."""
        self._a.append(a)
        self._b.append(b)
        self._result.append(result)
        self._dst.append(dst)
        flags = _A_FLOATS | _F_DST
        if pc is not None:
            flags |= _F_PC
            self._pc.append(pc)
        if srcs:
            flags |= _A_SRCS
            self._nsrcs.append(len(srcs))
            self._srcs.extend(srcs)
        self._words.append(code | flags << 8)

    def ints(self, code: int, a: int, b: int, result: int,
             dst: int, srcs: tuple, pc: Optional[int]) -> None:
        """An arithmetic event with plain (non-bool) int operands."""
        index = len(self._words)
        if (
            _INT64_MIN <= a <= _INT64_MAX
            and _INT64_MIN <= b <= _INT64_MAX
            and _INT64_MIN <= result <= _INT64_MAX
        ):
            flags = _F_INT | _F_DST
            self._ints.append((index, a, b, result))
        else:
            flags = _F_WIDE | _F_DST
            self._wide[index] = (a, b, result)
        self._dst.append(dst)
        if pc is not None:
            flags |= _F_PC
            self._pc.append(pc)
        if srcs:
            flags |= _A_SRCS
            self._nsrcs.append(len(srcs))
            self._srcs.extend(srcs)
        self._words.append(code | flags << 8)

    def memory(self, code: int, address: int,
               dst: Optional[int], srcs: tuple) -> None:
        """A load or store without operands or PC."""
        self._address.append(address)
        flags = _F_ADDRESS
        if dst is not None:
            flags |= _F_DST
            self._dst.append(dst)
        if srcs:
            flags |= _A_SRCS
            self._nsrcs.append(len(srcs))
            self._srcs.extend(srcs)
        self._words.append(code | flags << 8)

    def plain(self, codes: array) -> None:
        """Operand-less events: ``codes`` is an ``array('H')`` of their
        opcode indices."""
        self._words.extend(codes)

    # -- finishing ---------------------------------------------------------

    def finish(self) -> ColumnBatch:
        """Every event appended so far, as a batch (see class docstring)."""
        if self._batch is not None and not self._words:
            return self._batch
        pending = self._drain()
        if self._batch is None:
            self._batch = pending
        else:
            merged = ColumnBatch()
            merged.extend_batch(self._batch)
            merged.extend_batch(pending)
            self._batch = merged
        self._trace = None
        return self._batch

    def trace(self) -> Trace:
        """:meth:`finish` as a column-backed :class:`Trace`: the same
        object until more events are appended."""
        batch = self.finish()
        if self._trace is None:
            self._trace = Trace(columns=batch)
        return self._trace

    def _drain(self) -> ColumnBatch:
        """The pending events as a batch; the appender starts empty."""
        import numpy as np

        words = np.frombuffer(self._words, dtype=np.ushort)
        flags = (words >> 8).astype(np.uint8)
        floats = (flags & _A_FLOATS) != 0
        batch = ColumnBatch()
        batch.opcode_col = _as_array("B", words.astype(np.uint8))
        batch.flags_col = _as_array("B", flags & _PUBLIC_FLAGS)
        a_col = batch.a_col = _int64_column(floats, self._a)
        b_col = batch.b_col = _int64_column(floats, self._b)
        r_col = batch.result_col = _int64_column(floats, self._result)
        for index, a, b, result in self._ints:
            a_col[index] = a
            b_col[index] = b
            r_col[index] = result
        batch.address_col = _int64_column(
            (flags & _F_ADDRESS) != 0, self._address
        )
        batch.pc_col = _int64_column((flags & _F_PC) != 0, self._pc)
        batch.dst_col = _int64_column((flags & _F_DST) != 0, self._dst)
        bounds = np.zeros(len(words) + 1, dtype=np.uint64)
        if len(self._nsrcs):
            bounds[1:][(flags & _A_SRCS) != 0] = np.frombuffer(
                self._nsrcs, dtype=np.uintc
            )
            np.cumsum(bounds, out=bounds)
        batch.src_offsets = _as_array("Q", bounds)
        batch.srcs_col = self._srcs
        batch.wide = self._wide
        self._reset()
        return batch
