"""Files, extents, and the buffer cache.

The long-latency events of Table 1 are disk-bound, and the paper's
clearest cache observation — "the effects of the file system cache are
most clearly observed in the latency for starting the second OLE edit"
— requires a real buffer cache whose contents persist across events.
This module provides both: a simple extent-based file system (NTFS- vs
FAT-flavoured allocation, matching Section 2.1's testbed) and an LRU
block cache.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterable, List, Tuple

__all__ = ["SimFile", "FileSystem", "BufferCache"]


@dataclass
class SimFile:
    """A file: a name, a size, and the disk extents that back it.

    The allocator fixes a file's extents when it creates the file.
    """

    name: str
    size_bytes: int
    extents: List[Tuple[int, int]] = field(default_factory=list)  # (start, count)

    def __post_init__(self) -> None:
        # The file block at which each extent ends, for blocks() to
        # bisect: a read then costs O(log extents + blocks read) instead
        # of flattening the whole file.
        self._ends = list(accumulate(count for _start, count in self.extents))

    @property
    def block_count(self) -> int:
        return self._ends[-1] if self._ends else 0

    def blocks(self, offset: int, length: int, block_size: int) -> List[int]:
        """Absolute disk blocks covering ``[offset, offset+length)``."""
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        if length == 0:
            return []
        first = offset // block_size
        last = (offset + length - 1) // block_size
        ends = self._ends
        total = self.block_count
        if last >= total:
            raise ValueError(
                f"read past end of {self.name!r}: block {max(first, total)} of {total}"
            )
        out: List[int] = []
        index = first
        extent = bisect_right(ends, index)
        while index <= last:
            start, count = self.extents[extent]
            base = start - (ends[extent] - count)  # disk block of file block 0
            stop = min(last + 1, ends[extent])
            out.extend(range(base + index, base + stop))
            index = stop
            extent += 1
        return out


class FileSystem:
    """Extent allocator over a disk's block space.

    ``kind='ntfs'`` allocates each file contiguously (one extent);
    ``kind='fat'`` fragments files into small scattered extents —
    a first-order rendering of the NTFS-vs-FAT difference between the
    paper's NT and Windows 95 installations.
    """

    def __init__(
        self,
        total_blocks: int,
        block_size: int = 4096,
        kind: str = "ntfs",
        fat_extent_blocks: int = 16,
        fat_gap_blocks: int = 8,
    ) -> None:
        if kind not in ("ntfs", "fat"):
            raise ValueError(f"unknown filesystem kind {kind!r}")
        self.total_blocks = total_blocks
        self.block_size = block_size
        self.kind = kind
        self.fat_extent_blocks = fat_extent_blocks
        self.fat_gap_blocks = fat_gap_blocks
        self._next_block = 64  # leave room for boot/metadata blocks
        self._files: Dict[str, SimFile] = {}

    def _take(self, count: int) -> int:
        start = self._next_block
        if start + count > self.total_blocks:
            raise RuntimeError("simulated disk full")
        self._next_block = start + count
        return start

    def create(self, name: str, size_bytes: int) -> SimFile:
        """Allocate a file of ``size_bytes``; contents are not modelled."""
        if name in self._files:
            raise ValueError(f"file {name!r} already exists")
        if size_bytes <= 0:
            raise ValueError(f"file size must be positive, got {size_bytes}")
        blocks_needed = -(-size_bytes // self.block_size)
        extents: List[Tuple[int, int]] = []
        if self.kind == "ntfs":
            extents.append((self._take(blocks_needed), blocks_needed))
        else:
            remaining = blocks_needed
            while remaining > 0:
                chunk = min(self.fat_extent_blocks, remaining)
                start = self._take(chunk + self.fat_gap_blocks)
                extents.append((start, chunk))
                remaining -= chunk
        sim_file = SimFile(name=name, size_bytes=size_bytes, extents=extents)
        self._files[name] = sim_file
        return sim_file

    def lookup(self, name: str) -> SimFile:
        return self._files[name]

    def exists(self, name: str) -> bool:
        return name in self._files

    def ensure(self, name: str, size_bytes: int) -> SimFile:
        """Lookup-or-create, for idempotent workload setup."""
        if name in self._files:
            return self._files[name]
        return self.create(name, size_bytes)


class BufferCache:
    """LRU block cache (the file-system cache of Section 5.2)."""

    def __init__(self, capacity_blocks: int) -> None:
        if capacity_blocks <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity_blocks = capacity_blocks
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, block: int) -> bool:
        return block in self._lru

    def probe(self, blocks: Iterable[int]) -> Tuple[List[int], List[int]]:
        """Split ``blocks`` into (hits, misses), updating LRU order and stats."""
        hit_list: List[int] = []
        miss_list: List[int] = []
        for block in blocks:
            if block in self._lru:
                self._lru.move_to_end(block)
                hit_list.append(block)
                self.hits += 1
            else:
                miss_list.append(block)
                self.misses += 1
        return hit_list, miss_list

    def insert(self, blocks: Iterable[int]) -> None:
        """Add blocks (read from disk or written), evicting LRU overflow."""
        for block in blocks:
            if block in self._lru:
                self._lru.move_to_end(block)
            else:
                self._lru[block] = None
                while len(self._lru) > self.capacity_blocks:
                    self._lru.popitem(last=False)

    def flush(self) -> None:
        """Drop everything (models a cold boot without rebuilding the FS)."""
        self._lru.clear()
