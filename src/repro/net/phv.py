"""The Packet Header Vector (PHV).

In RMT, "each stage communicates with the next through large register files
called packet header vectors ... its elements are scalars extracted from the
packets" (paper, section 2).  The PHV here is a bounded pool of containers
of a few fixed widths; the parser allocates containers for header fields,
and — in the ADCP extension — for array payload elements, which is what lets
a stage's match-action units consume a whole array at once.

Container capacity limits are real constraints on RMT programs, so the
layout is explicit and allocation failures raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from ..errors import ConfigError


class ContainerClass(Enum):
    """PHV container widths, mirroring commercial RMT chip classes."""

    BYTE = 8
    HALF = 16
    WORD = 32

    # Enum's default __hash__ hashes the member *name* string on every
    # call; members are singletons, so identity hashing is equivalent and
    # much cheaper for the per-field ``_used``/``_caps`` dict operations.
    __hash__ = object.__hash__

    @classmethod
    def for_width(cls, width_bits: int) -> "ContainerClass":
        """Smallest container class that fits a field of ``width_bits``.

        Fields wider than a word (e.g. 48-bit MACs) are split across
        multiple word containers by the allocator.
        """
        if width_bits <= 8:
            return cls.BYTE
        if width_bits <= 16:
            return cls.HALF
        return cls.WORD


def containers_needed(width_bits: int) -> "tuple[ContainerClass, int]":
    """Container class and count for a field of ``width_bits``.

    Memoized per width: enum construction and ``.value`` reads are
    surprisingly expensive and this runs for every parsed field.
    """
    cached = _NEEDED_BY_WIDTH.get(width_bits)
    if cached is None:
        cls = ContainerClass.for_width(width_bits)
        if width_bits <= cls.value:
            cached = (cls, 1)
        else:
            word = ContainerClass.WORD.value
            cached = (ContainerClass.WORD, (width_bits + word - 1) // word)
        _NEEDED_BY_WIDTH[width_bits] = cached
    return cached


_NEEDED_BY_WIDTH: dict[int, tuple[ContainerClass, int]] = {}


def _element_names(array_name: str, length: int) -> list[str]:
    """Memoized ``name[i]`` strings for array views (hot in parse/deparse)."""
    key = (array_name, length)
    names = _ELEMENT_NAMES.get(key)
    if names is None:
        names = [f"{array_name}[{i}]" for i in range(length)]
        _ELEMENT_NAMES[key] = names
    return names


_ELEMENT_NAMES: dict[tuple[str, int], list[str]] = {}


@dataclass(frozen=True)
class PHVLayout:
    """Capacity of a PHV: number of containers of each class.

    The default mirrors published RMT figures (64 of each class, 4 kb
    total is the right order of magnitude).
    """

    byte_containers: int = 64
    half_containers: int = 96
    word_containers: int = 64

    def capacity(self, cls: ContainerClass) -> int:
        if cls is ContainerClass.BYTE:
            return self.byte_containers
        if cls is ContainerClass.HALF:
            return self.half_containers
        return self.word_containers

    @property
    def total_bits(self) -> int:
        return (
            self.byte_containers * 8
            + self.half_containers * 16
            + self.word_containers * 32
        )


class PHV:
    """A populated packet header vector.

    Fields are addressed as ``"<header>.<field>"``; array elements as
    ``"<array>[i]"``.  The PHV tracks how many containers of each class are
    in use against its layout and refuses to over-allocate — this is exactly
    the resource the paper's array-support argument is about.
    """

    def __init__(self, layout: PHVLayout | None = None) -> None:
        layout = layout or PHVLayout()
        self.layout = layout
        self._values: dict[str, int] = {}
        self._containers: dict[str, tuple[ContainerClass, int]] = {}
        self._used: dict[ContainerClass, int] = {
            ContainerClass.BYTE: 0,
            ContainerClass.HALF: 0,
            ContainerClass.WORD: 0,
        }
        # The capacity table is read-only and identical for every PHV of
        # a layout, so it is built once and cached on the (frozen) layout.
        caps = getattr(layout, "_caps", None)
        if caps is None:
            caps = {
                ContainerClass.BYTE: layout.byte_containers,
                ContainerClass.HALF: layout.half_containers,
                ContainerClass.WORD: layout.word_containers,
            }
            object.__setattr__(layout, "_caps", caps)
        self._caps: dict[ContainerClass, int] = caps
        self._meta: dict[str, object] = {}
        # Set by every post-parse mutator (hook-facing APIs); parser bulk
        # allocation leaves it clear.  A clean PHV lets the pipeline skip
        # the deparse rebuild: writing unmodified values back produces a
        # packet equal to the original.
        self._dirty = False

    # --- intrinsic metadata ----------------------------------------------------
    # Forwarding decisions (egress port, drop flag) live outside the
    # container budget, like the intrinsic metadata bus of real chips.

    def set_meta(self, name: str, value) -> None:
        """Set an intrinsic-metadata field (not charged against containers)."""
        self._meta[name] = value
        self._dirty = True

    def get_meta(self, name: str, default=None):
        """Read an intrinsic-metadata field."""
        return self._meta.get(name, default)

    def has_meta(self, name: str) -> bool:
        return name in self._meta

    def _containers_needed(self, width_bits: int) -> tuple[ContainerClass, int]:
        return containers_needed(width_bits)

    def allocate(self, name: str, width_bits: int, value: int = 0) -> None:
        """Allocate containers for ``name`` and set its value."""
        if name in self._values:
            raise ConfigError(f"PHV field {name!r} already allocated")
        cls, count = containers_needed(width_bits)
        used = self._used[cls]
        if used + count > self._caps[cls]:
            raise ConfigError(
                f"PHV out of {cls.name} containers allocating {name!r} "
                f"({used}+{count} > {self._caps[cls]})"
            )
        self._used[cls] = used + count
        self._containers[name] = (cls, count)
        self._values[name] = value
        self._dirty = True

    def _allocate_planned(
        self,
        plan: "list[tuple[str, str, ContainerClass, int]]",
        class_totals: "tuple[tuple[ContainerClass, int], ...]",
        header_values: dict[str, int],
    ) -> None:
        """Bulk :meth:`allocate` over a parser field plan.

        ``plan`` rows are ``(qualified_name, field_name, class, count)``
        and ``class_totals`` the per-class container sums, both
        precomputed at parser construction.  When the whole plan fits,
        capacity is charged per class rather than per field; when it
        does not (or a name collides), the per-field loop below raises
        the same errors :meth:`allocate` would.  Per-name container
        records are not kept on this path — nothing reads them, and
        :meth:`used`/:attr:`used_bits` come from the per-class totals.
        """
        values = self._values
        used = self._used
        caps = self._caps
        fits = True
        for cls, total in class_totals:
            if used[cls] + total > caps[cls]:
                fits = False
                break
        if fits:
            collide = False
            for qname, fname, cls, count in plan:
                if qname in values:
                    collide = True
                    break
                values[qname] = header_values[fname]
            if not collide:
                for cls, total in class_totals:
                    used[cls] += total
                return
            raise ConfigError(f"PHV field {qname!r} already allocated")
        for qname, fname, cls, count in plan:
            if qname in values:
                raise ConfigError(f"PHV field {qname!r} already allocated")
            in_use = used[cls]
            if in_use + count > caps[cls]:
                raise ConfigError(
                    f"PHV out of {cls.name} containers allocating {qname!r} "
                    f"({in_use}+{count} > {caps[cls]})"
                )
            used[cls] = in_use + count
            values[qname] = header_values[fname]

    def _allocate_array_planned(
        self, name: str, element_values: Sequence[int]
    ) -> None:
        """Bulk :meth:`allocate_array` + :meth:`set_array` for 32-bit
        elements, with identical collision/capacity semantics."""
        values = self._values
        used = self._used
        word = ContainerClass.WORD
        cap = self._caps[word]
        length = len(element_values)
        names = _element_names(name, length)
        if used[word] + length <= cap:
            for qname, value in zip(names, element_values):
                if qname in values:
                    raise ConfigError(
                        f"PHV field {qname!r} already allocated"
                    )
                values[qname] = value
            used[word] += length
        else:
            for qname, value in zip(names, element_values):
                if qname in values:
                    raise ConfigError(
                        f"PHV field {qname!r} already allocated"
                    )
                in_use = used[word]
                if in_use + 1 > cap:
                    raise ConfigError(
                        f"PHV out of WORD containers allocating {qname!r} "
                        f"({in_use}+1 > {cap})"
                    )
                used[word] = in_use + 1
                values[qname] = value
        values[f"{name}.length"] = length

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __getitem__(self, name: str) -> int:
        if name not in self._values:
            raise ConfigError(f"PHV has no field {name!r}")
        return self._values[name]

    def __setitem__(self, name: str, value: int) -> None:
        if name not in self._values:
            raise ConfigError(
                f"PHV field {name!r} was never allocated by the parser"
            )
        self._values[name] = value
        self._dirty = True

    def get(self, name: str, default: int | None = None) -> int | None:
        return self._values.get(name, default)

    def fields(self) -> Iterator[tuple[str, int]]:
        return iter(self._values.items())

    def used(self, cls: ContainerClass) -> int:
        return self._used[cls]

    @property
    def used_bits(self) -> int:
        return sum(cls.value * n for cls, n in self._used.items())

    # --- array views (ADCP extension) ----------------------------------------

    def allocate_array(
        self, name: str, length: int, element_width_bits: int = 32
    ) -> None:
        """Allocate ``length`` contiguous containers as an array view.

        Elements become addressable as ``name[i]`` and as a block via
        :meth:`array`.  On classic RMT this is just sugar over scalar
        containers; the ADCP array MAU consumes the whole view per cycle.
        """
        if length <= 0:
            raise ConfigError(f"array length must be positive, got {length}")
        for i in range(length):
            self.allocate(f"{name}[{i}]", element_width_bits)
        self._values[f"{name}.length"] = length
        self._containers[f"{name}.length"] = (ContainerClass.BYTE, 0)
        # length is bookkeeping, not a real container; record zero usage.

    def array_length(self, name: str) -> int:
        length = self._values.get(f"{name}.length")
        if length is None:
            raise ConfigError(f"PHV has no array {name!r}")
        return length

    def array(self, name: str) -> list[int]:
        """Return the array view's values as a list."""
        vals = self._values
        try:
            return [
                vals[n] for n in _element_names(name, self.array_length(name))
            ]
        except KeyError as missing:
            raise ConfigError(f"PHV has no field {missing.args[0]!r}") from None

    def set_array(self, name: str, values: list[int]) -> None:
        """Overwrite an array view in place (length must match)."""
        length = self.array_length(name)
        if len(values) != length:
            raise ConfigError(
                f"array {name!r} has length {length}, got {len(values)} values"
            )
        vals = self._values
        for element, value in zip(_element_names(name, length), values):
            if element not in vals:
                raise ConfigError(
                    f"PHV field {element!r} was never allocated by the parser"
                )
            vals[element] = value
        self._dirty = True
