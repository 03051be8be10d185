"""Column-packed traces: full-scale runs without per-record objects.

A full-length paper trace is ~3.2M references; as Python objects that is
hundreds of megabytes and a lot of allocator churn.  :class:`PackedTrace`
stores the same information as five NumPy columns (~45 MB at full scale),
iterates back into :class:`~repro.trace.record.TraceRecord` objects on
demand, and round-trips through a compressed ``.npz`` file — convenient for
generating a full-scale trace once and replaying it across many protocol
runs.

NumPy is an optional dependency of the library: importing this module
without it raises a clear error, and nothing else in the package depends
on it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Union

try:
    import numpy as _np
except ImportError as exc:  # pragma: no cover - environment without numpy
    raise ImportError(
        "repro.trace.packed requires numpy; install it or use the plain "
        "record iterators"
    ) from exc

from .record import FLAG_OS, FLAG_SPIN, AccessType, TraceRecord

__all__ = ["COLUMN_DTYPES", "PackedTrace"]

PathLike = Union[str, Path]

#: The packed dtype of each column, in constructor order
#: (cpu, pid, access, address, flags).
COLUMN_DTYPES = (_np.uint16, _np.uint32, _np.uint8, _np.uint64, _np.uint8)


def _as_column(name: str, values, dtype) -> "_np.ndarray":
    """Convert one column to its packed dtype, rejecting lossy narrowing.

    ``np.asarray(values, dtype=...)`` would silently wrap out-of-range
    values on some NumPy versions (a ``cpu`` of 65536 becoming 0) and raise
    an opaque ``OverflowError`` on others, and dtype *inference* on a plain
    list silently promotes mixed-magnitude integers to ``float64``
    (``[0, 2**63]`` loses low bits).  Validating here turns all of those
    into one clear ``ValueError`` at construction time and keeps every
    in-range integer exact.
    """
    info = _np.iinfo(dtype)

    def _out_of_range(lo, hi):
        return ValueError(
            f"{name} column value out of range for {_np.dtype(dtype).name}: "
            f"saw [{lo}, {hi}], representable [0, {int(info.max)}]"
        )

    if isinstance(values, _np.ndarray):
        if values.dtype == dtype:
            return values
        if values.size:
            if not _np.issubdtype(values.dtype, _np.integer):
                raise ValueError(
                    f"{name} column must hold integers, got dtype {values.dtype}"
                )
            lo, hi = int(values.min()), int(values.max())
            if lo < 0 or hi > int(info.max):
                raise _out_of_range(lo, hi)
        return values.astype(dtype)

    # Plain sequence: validate in Python so numpy's inference never sees it.
    checked = []
    for value in values:
        if not isinstance(value, (int, _np.integer)):
            raise ValueError(
                f"{name} column must hold integers, got {type(value).__name__}"
            )
        checked.append(int(value))
    if checked:
        lo, hi = min(checked), max(checked)
        if lo < 0 or hi > int(info.max):
            raise _out_of_range(lo, hi)
    return _np.asarray(checked, dtype=dtype)


class PackedTrace:
    """An immutable, column-oriented container of trace records."""

    __slots__ = ("cpu", "pid", "access", "address", "flags")

    def __init__(self, cpu, pid, access, address, flags) -> None:
        lengths = {len(cpu), len(pid), len(access), len(address), len(flags)}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        columns = (cpu, pid, access, address, flags)
        for name, values, dtype in zip(self.__slots__, columns, COLUMN_DTYPES):
            setattr(self, name, _as_column(name, values, dtype))

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "PackedTrace":
        cpu, pid, access, address, flags = [], [], [], [], []
        for record in records:
            cpu.append(record.cpu)
            pid.append(record.pid)
            access.append(int(record.access))
            address.append(record.address)
            flags.append(
                (FLAG_SPIN if record.is_lock_spin else 0)
                | (FLAG_OS if record.is_os else 0)
            )
        return cls(cpu, pid, access, address, flags)

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.cpu)

    def __iter__(self) -> Iterator[TraceRecord]:
        cpu, pid = self.cpu, self.pid
        access, address, flags = self.access, self.address, self.flags
        for index in range(len(cpu)):
            flag = int(flags[index])
            yield TraceRecord(
                cpu=int(cpu[index]),
                pid=int(pid[index]),
                access=AccessType(int(access[index])),
                address=int(address[index]),
                is_lock_spin=bool(flag & FLAG_SPIN),
                is_os=bool(flag & FLAG_OS),
            )

    def __getitem__(self, index) -> Union[TraceRecord, "PackedTrace"]:
        if isinstance(index, slice):
            return PackedTrace(
                self.cpu[index],
                self.pid[index],
                self.access[index],
                self.address[index],
                self.flags[index],
            )
        flag = int(self.flags[index])
        return TraceRecord(
            cpu=int(self.cpu[index]),
            pid=int(self.pid[index]),
            access=AccessType(int(self.access[index])),
            address=int(self.address[index]),
            is_lock_spin=bool(flag & FLAG_SPIN),
            is_os=bool(flag & FLAG_OS),
        )

    # -- vectorised statistics -------------------------------------------------

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the columns."""
        return sum(
            column.nbytes
            for column in (self.cpu, self.pid, self.access, self.address, self.flags)
        )

    def instruction_count(self) -> int:
        return int((self.access == int(AccessType.INSTR)).sum())

    def read_count(self) -> int:
        return int((self.access == int(AccessType.READ)).sum())

    def write_count(self) -> int:
        return int((self.access == int(AccessType.WRITE)).sum())

    def spin_count(self) -> int:
        return int((self.flags & FLAG_SPIN).astype(bool).sum())

    def os_count(self) -> int:
        return int((self.flags & FLAG_OS).astype(bool).sum())

    def distinct_data_blocks(self, block_size: int = 16) -> int:
        data = self.access != int(AccessType.INSTR)
        return len(_np.unique(self.address[data] // block_size))

    # -- persistence ------------------------------------------------------------

    def save(self, path: PathLike) -> None:
        """Write the columns to a compressed ``.npz`` file."""
        _np.savez_compressed(
            path,
            cpu=self.cpu,
            pid=self.pid,
            access=self.access,
            address=self.address,
            flags=self.flags,
        )

    @classmethod
    def load(cls, path: PathLike) -> "PackedTrace":
        with _np.load(path) as data:
            return cls(
                data["cpu"],
                data["pid"],
                data["access"],
                data["address"],
                data["flags"],
            )
