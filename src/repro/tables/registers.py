"""Stateful registers: data that survives across packets.

"Limited amounts of data lifted from prior-forwarded packets could be kept
on the switch ... known as stateful processing" (paper, section 1).  A
:class:`RegisterArray` is an indexed array of fixed-width cells supporting
the read-modify-write operations hardware register ALUs provide (add, min,
max, overwrite).  Values wrap at the cell width, as silicon does.
"""

from __future__ import annotations

from operator import index as _as_int

import numpy as np

from ..errors import ConfigError, TableError


class RegisterArray:
    """A fixed-size array of fixed-width stateful cells.

    Cells are plain Python ints masked to ``width_bits``: the data plane
    touches a handful of cells per packet, where boxing numpy scalars
    costs more than the arithmetic.  numpy appears only at the
    control-plane edge (:meth:`snapshot`, :meth:`load`).  All mutators
    return the post-operation value as an ``int``, matching the "read the
    new value into the PHV" semantics of register ALUs.
    """

    def __init__(self, name: str, size: int, width_bits: int = 32) -> None:
        if size <= 0:
            raise ConfigError(f"register {name!r} size must be positive, got {size}")
        if not 1 <= width_bits <= 64:
            raise ConfigError(
                f"register {name!r} width must be in [1, 64], got {width_bits}"
            )
        self.name = name
        self.size = size
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        self._cells = [0] * size
        self.reads = 0
        self.writes = 0

    @property
    def access_count(self) -> int:
        """Total state accesses (reads plus writes) since construction.

        The resource monitor samples this per pipeline to expose how
        central-bank / register pressure evolves over a run.
        """
        return self.reads + self.writes

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise TableError(
                f"register {self.name!r} index {index} out of range "
                f"[0, {self.size})"
            )

    def _check_indices(self, indices: list[int]) -> None:
        size = self.size
        for index in indices:
            if not 0 <= index < size:
                self._check_index(index)

    def read(self, index: int) -> int:
        self._check_index(index)
        self.reads += 1
        return self._cells[index]

    def write(self, index: int, value: int) -> int:
        self._check_index(index)
        self.writes += 1
        new = _as_int(value) & self._mask
        self._cells[index] = new
        return new

    def add(self, index: int, value: int) -> int:
        """Wrapping add; returns the new value."""
        self._check_index(index)
        self.reads += 1
        self.writes += 1
        new = (self._cells[index] + _as_int(value)) & self._mask
        self._cells[index] = new
        return new

    def merge_min(self, index: int, value: int) -> int:
        self._check_index(index)
        self.reads += 1
        self.writes += 1
        new = min(self._cells[index], _as_int(value) & self._mask)
        self._cells[index] = new
        return new

    def merge_max(self, index: int, value: int) -> int:
        self._check_index(index)
        self.reads += 1
        self.writes += 1
        new = max(self._cells[index], _as_int(value) & self._mask)
        self._cells[index] = new
        return new

    # --- bulk operations (array MAU path) ------------------------------------

    def read_many(self, indices: list[int]) -> list[int]:
        self._check_indices(indices)
        cells = self._cells
        out = [cells[i] for i in indices]
        self.reads += len(out)
        return out

    def add_many(self, indices: list[int], values: list[int]) -> list[int]:
        """Element-wise wrapping adds; duplicate indices accumulate in order.

        Equal to one :meth:`add` per element, except that the length match
        and every index are checked before any cell changes: a bad index
        leaves the array untouched.
        """
        if len(indices) != len(values):
            raise TableError(
                f"register {self.name!r}: {len(indices)} indices vs "
                f"{len(values)} values"
            )
        self._check_indices(indices)
        cells = self._cells
        mask = self._mask
        out = []
        for i, value in zip(indices, values):
            cells[i] = new = (cells[i] + _as_int(value)) & mask
            out.append(new)
        self.reads += len(out)
        self.writes += len(out)
        return out

    def snapshot(self) -> np.ndarray:
        """Copy of the raw cell contents."""
        return np.array(self._cells, dtype=np.uint64)

    def load(self, values: np.ndarray | list[int]) -> None:
        """Bulk-initialize cells (control-plane download).

        Every value must be an integer in ``[0, 2**64)``; it is then
        masked to the cell width.
        """
        array = np.asarray(values, dtype=object)
        if array.shape != (self.size,):
            raise ConfigError(
                f"register {self.name!r} expects {self.size} values, "
                f"got shape {array.shape}"
            )
        cells = []
        for raw in array.tolist():
            try:
                value = _as_int(raw)
            except TypeError:
                value = -1
            if not 0 <= value < 1 << 64:
                raise ConfigError(
                    f"register {self.name!r}: load value {raw!r} is not "
                    f"an integer in [0, 2**64)"
                )
            cells.append(value & self._mask)
        self._cells = cells

    def reset(self) -> None:
        self._cells = [0] * self.size

    @property
    def bits(self) -> int:
        """Total storage the array occupies."""
        return self.size * self.width_bits

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RegisterArray {self.name} {self.size}x{self.width_bits}b>"
