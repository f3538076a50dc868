"""Tests for stateful registers (repro.tables.registers)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError, TableError
from repro.tables.registers import RegisterArray


class TestBasics:
    def test_initially_zero(self):
        reg = RegisterArray("r", 8)
        assert reg.read(0) == 0
        assert len(reg) == 8

    def test_write_read(self):
        reg = RegisterArray("r", 8)
        reg.write(3, 42)
        assert reg.read(3) == 42

    def test_out_of_range_index(self):
        reg = RegisterArray("r", 4)
        with pytest.raises(TableError):
            reg.read(4)
        with pytest.raises(TableError):
            reg.write(-1, 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RegisterArray("r", 0)
        with pytest.raises(ConfigError):
            RegisterArray("r", 4, width_bits=65)

    def test_bits_accounting(self):
        assert RegisterArray("r", 1024, 32).bits == 32768


class TestWrapping:
    def test_width_mask_on_write(self):
        reg = RegisterArray("r", 2, width_bits=8)
        reg.write(0, 0x1FF)
        assert reg.read(0) == 0xFF

    def test_add_wraps_at_width(self):
        reg = RegisterArray("r", 2, width_bits=8)
        reg.write(0, 250)
        assert reg.add(0, 10) == 4  # (250 + 10) mod 256

    def test_one_bit_register_behaves_as_flag(self):
        reg = RegisterArray("r", 4, width_bits=1)
        reg.write(2, 1)
        assert reg.read(2) == 1
        reg.write(2, 2)  # masked
        assert reg.read(2) == 0


class TestRmwOps:
    def test_add_returns_new_value(self):
        reg = RegisterArray("r", 2)
        assert reg.add(0, 5) == 5
        assert reg.add(0, 7) == 12

    def test_merge_min_max(self):
        reg = RegisterArray("r", 1)
        reg.write(0, 10)
        assert reg.merge_min(0, 5) == 5
        assert reg.merge_max(0, 20) == 20
        assert reg.merge_min(0, 100) == 20

    def test_read_write_counters(self):
        reg = RegisterArray("r", 2)
        reg.read(0)
        reg.write(0, 1)
        reg.add(0, 1)
        assert reg.reads == 2
        assert reg.writes == 2

    @pytest.mark.parametrize("width", [8, 64])
    @pytest.mark.parametrize("value", [np.int64(5), np.uint64(5), np.int8(5)])
    def test_mutators_return_python_ints_for_numpy_inputs(self, width, value):
        reg = RegisterArray("r", 2, width_bits=width)
        results = [
            reg.write(0, value),
            reg.add(0, value),
            reg.merge_min(0, value),
            reg.merge_max(0, value),
            *reg.add_many([1, 1], [value, value]),
        ]
        assert results == [5, 10, 5, 5, 5, 10]
        assert all(type(result) is int for result in results)


class TestBulkOps:
    def test_read_many(self):
        reg = RegisterArray("r", 4)
        reg.write(1, 10)
        reg.write(3, 30)
        assert reg.read_many([1, 3, 0]) == [10, 30, 0]

    def test_add_many_accumulates_duplicates_in_order(self):
        reg = RegisterArray("r", 4)
        results = reg.add_many([0, 0, 1], [1, 2, 5])
        assert results == [1, 3, 5]
        assert reg.read(0) == 3

    def test_add_many_length_mismatch(self):
        reg = RegisterArray("r", 4)
        with pytest.raises(TableError):
            reg.add_many([0, 1], [1])

    def test_add_many_bad_index_leaves_register_unchanged(self):
        reg = RegisterArray("r", 4)
        with pytest.raises(TableError, match="index 9"):
            reg.add_many([0, 9], [1, 1])
        assert reg.snapshot().tolist() == [0, 0, 0, 0]
        assert (reg.reads, reg.writes) == (0, 0)

    def test_snapshot_and_load(self):
        reg = RegisterArray("r", 4)
        reg.load([1, 2, 3, 4])
        snap = reg.snapshot()
        assert list(snap) == [1, 2, 3, 4]
        assert snap.dtype == np.uint64
        reg.write(0, 99)
        assert snap[0] == 1  # snapshot is a copy

    def test_load_takes_numpy_arrays(self):
        reg = RegisterArray("r", 3, width_bits=64)
        reg.load(np.array([1, 2**64 - 1, 3], dtype=np.uint64))
        assert reg.read_many([0, 1, 2]) == [1, 2**64 - 1, 3]

    def test_load_shape_checked(self):
        reg = RegisterArray("r", 4)
        with pytest.raises(ConfigError):
            reg.load([1, 2])

    def test_load_masks_width(self):
        reg = RegisterArray("r", 2, width_bits=4)
        reg.load([0xFF, 0x0F])
        assert reg.read(0) == 0x0F

    @pytest.mark.parametrize(
        "values",
        [
            [-1, 0],
            [2**64, 0],
            [1.5, 0],
            ["1", 0],
            np.array([-1, 0], dtype=np.int64),
            np.array([1.0, 0.0]),
        ],
        ids=["negative", "too-wide", "fraction", "string", "int64-negative", "float-array"],
    )
    def test_load_rejects_bad_values(self, values):
        reg = RegisterArray("r", 2, width_bits=64)
        reg.write(0, 7)
        with pytest.raises(ConfigError, match="not an integer"):
            reg.load(values)
        assert reg.read_many([0, 1]) == [7, 0]

    def test_reset(self):
        reg = RegisterArray("r", 2)
        reg.write(0, 5)
        reg.reset()
        assert reg.read(0) == 0


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=64))
    def test_sum_of_adds_equals_total_mod_width(self, values):
        """Aggregation correctness: the accumulator equals the sum of all
        contributions modulo the register width."""
        reg = RegisterArray("r", 1, width_bits=64)
        for value in values:
            reg.add(0, value)
        assert reg.read(0) == sum(values) & ((1 << 64) - 1)

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50)
    )
    def test_merge_max_is_running_maximum(self, values):
        reg = RegisterArray("r", 1, width_bits=32)
        for value in values:
            reg.merge_max(0, value)
        assert reg.read(0) == max(values)


class _NumpyReference:
    """Register semantics on an ``np.uint64`` array, one cell op at a time.

    The oracle for the differential test: bulk ops are literally the
    sequence of single-cell ops they stand for.
    """

    def __init__(self, size: int, width_bits: int) -> None:
        self.mask = (1 << width_bits) - 1
        self.cells = np.zeros(size, dtype=np.uint64)
        self.reads = 0
        self.writes = 0

    def read(self, index):
        self.reads += 1
        return int(self.cells[index])

    def write(self, index, value):
        self.writes += 1
        self.cells[index] = np.uint64(value & self.mask)
        return int(self.cells[index])

    def _rmw(self, index, new):
        self.reads += 1
        self.writes += 1
        self.cells[index] = np.uint64(new)
        return new

    def add(self, index, value):
        return self._rmw(index, (int(self.cells[index]) + value) & self.mask)

    def merge_min(self, index, value):
        return self._rmw(index, min(int(self.cells[index]), value & self.mask))

    def merge_max(self, index, value):
        return self._rmw(index, max(int(self.cells[index]), value & self.mask))

    def read_many(self, indices):
        return [self.read(i) for i in indices]

    def add_many(self, indices, values):
        return [self.add(i, v) for i, v in zip(indices, values)]

    def load(self, values):
        self.cells = np.asarray(values, dtype=np.uint64) & np.uint64(self.mask)


_WIDTHS = st.sampled_from([1, 8, 32, 64])
_VALUES = st.integers(min_value=-(2**64), max_value=2**65)


@st.composite
def _register_programs(draw):
    """(width, size, ops) with every op a (method name, *args) tuple."""
    width = draw(_WIDTHS)
    size = draw(st.integers(min_value=1, max_value=6))
    index = st.integers(min_value=0, max_value=size - 1)
    pairs = st.lists(st.tuples(index, _VALUES), max_size=12)
    op = st.one_of(
        st.tuples(st.just("read"), index),
        st.tuples(
            st.sampled_from(["write", "add", "merge_min", "merge_max"]),
            index,
            _VALUES,
        ),
        st.tuples(st.just("read_many"), st.lists(index, max_size=12)),
        pairs.map(
            lambda ps: ("add_many", [i for i, _ in ps], [v for _, v in ps])
        ),
        st.tuples(
            st.just("load"),
            st.lists(
                st.integers(min_value=0, max_value=2**64 - 1),
                min_size=size,
                max_size=size,
            ),
        ),
    )
    return width, size, draw(st.lists(op, max_size=40))


class TestDifferential:
    @given(_register_programs())
    def test_matches_numpy_reference(self, program):
        width, size, ops = program
        reg = RegisterArray("r", size, width_bits=width)
        ref = _NumpyReference(size, width)
        for name, *args in ops:
            got = getattr(reg, name)(*args)
            assert got == getattr(ref, name)(*args), (name, args)
            for value in got if isinstance(got, list) else [got]:
                assert value is None or type(value) is int
        snap = reg.snapshot()
        assert snap.dtype == np.uint64
        assert snap.tolist() == ref.cells.tolist()
        assert (reg.reads, reg.writes) == (ref.reads, ref.writes)

    @given(
        _WIDTHS,
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3), _VALUES),
            max_size=16,
        ),
    )
    def test_add_many_equals_sequence_of_adds(self, width, pairs):
        indices = [i for i, _ in pairs]
        values = [v for _, v in pairs]
        bulk = RegisterArray("bulk", 4, width_bits=width)
        scalar = RegisterArray("scalar", 4, width_bits=width)
        assert bulk.add_many(indices, values) == [
            scalar.add(i, v) for i, v in pairs
        ]
        assert bulk.snapshot().tolist() == scalar.snapshot().tolist()
        assert (bulk.reads, bulk.writes) == (scalar.reads, scalar.writes)
