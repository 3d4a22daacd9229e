"""Unit tests for files, extents and the buffer cache."""

import pytest

from repro.winsys.filesystem import BufferCache, FileSystem, SimFile


class TestFileSystem:
    def test_ntfs_allocates_contiguously(self):
        fs = FileSystem(total_blocks=10_000, kind="ntfs")
        file = fs.create("a", 10 * 4096)
        assert len(file.extents) == 1
        assert file.block_count == 10

    def test_fat_fragments(self):
        fs = FileSystem(total_blocks=100_000, kind="fat", fat_extent_blocks=4)
        file = fs.create("a", 20 * 4096)
        assert len(file.extents) == 5
        # Extents are separated by gaps.
        starts = [start for start, _count in file.extents]
        assert starts == sorted(starts)
        for (s0, c0), (s1, _c1) in zip(file.extents, file.extents[1:]):
            assert s1 > s0 + c0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FileSystem(total_blocks=100, kind="ext4")

    def test_duplicate_name_rejected(self):
        fs = FileSystem(total_blocks=10_000)
        fs.create("a", 4096)
        with pytest.raises(ValueError):
            fs.create("a", 4096)

    def test_zero_size_rejected(self):
        fs = FileSystem(total_blocks=10_000)
        with pytest.raises(ValueError):
            fs.create("a", 0)

    def test_disk_full(self):
        fs = FileSystem(total_blocks=100)
        with pytest.raises(RuntimeError):
            fs.create("big", 200 * 4096)

    def test_lookup_and_exists(self):
        fs = FileSystem(total_blocks=10_000)
        file = fs.create("a", 4096)
        assert fs.lookup("a") is file
        assert fs.exists("a")
        assert not fs.exists("b")

    def test_ensure_idempotent(self):
        fs = FileSystem(total_blocks=10_000)
        a = fs.ensure("x", 4096)
        b = fs.ensure("x", 9999999)  # size ignored on re-ensure
        assert a is b

    def test_files_do_not_overlap(self):
        fs = FileSystem(total_blocks=10_000)
        a = fs.create("a", 10 * 4096)
        b = fs.create("b", 10 * 4096)
        blocks_a = set(a.blocks(0, a.size_bytes, 4096))
        blocks_b = set(b.blocks(0, b.size_bytes, 4096))
        assert not blocks_a & blocks_b


class TestSimFileBlocks:
    def test_block_range_for_offsets(self):
        fs = FileSystem(total_blocks=10_000)
        file = fs.create("a", 10 * 4096)
        start = file.extents[0][0]
        assert file.blocks(0, 1, 4096) == [start]
        assert file.blocks(4096, 4096, 4096) == [start + 1]
        assert file.blocks(4095, 2, 4096) == [start, start + 1]

    def test_zero_length(self):
        fs = FileSystem(total_blocks=10_000)
        file = fs.create("a", 4096)
        assert file.blocks(0, 0, 4096) == []

    def test_read_past_end_rejected(self):
        fs = FileSystem(total_blocks=10_000)
        file = fs.create("a", 4096)
        with pytest.raises(ValueError):
            file.blocks(0, 5 * 4096, 4096)

    def test_negative_rejected(self):
        file = SimFile("x", 4096, extents=[(0, 1)])
        with pytest.raises(ValueError):
            file.blocks(-1, 10, 4096)

    def test_fat_blocks_span_extents(self):
        fs = FileSystem(total_blocks=100_000, kind="fat", fat_extent_blocks=2)
        file = fs.create("a", 6 * 4096)
        blocks = file.blocks(0, 6 * 4096, 4096)
        assert len(blocks) == 6
        assert len(set(blocks)) == 6

    @pytest.mark.parametrize("kind", ["ntfs", "fat"])
    def test_matches_flattened_reference(self, kind):
        """The bisected lookup equals flattening every extent, at every
        (offset, length) of a grid that crosses extent boundaries and
        runs past the end."""
        fs = FileSystem(total_blocks=100_000, kind=kind, fat_extent_blocks=4)
        file = fs.create("a", 11 * 4096 - 100)  # 11 blocks, a short tail
        flat = [b for start, count in file.extents for b in range(start, start + count)]
        if kind == "fat":
            assert len(file.extents) == 3
        sizes = (1, 100, 4095, 4096, 4097, 3 * 4096, 5 * 4096 + 7, 11 * 4096, 12 * 4096)
        for offset in range(0, 13 * 4096, 1024):
            for length in sizes:
                first = offset // 4096
                last = (offset + length - 1) // 4096
                wanted = list(range(first, last + 1))
                if last >= len(flat):
                    failing = next(i for i in wanted if i >= len(flat))
                    message = f"read past end of 'a': block {failing} of {len(flat)}"
                    with pytest.raises(ValueError) as error:
                        file.blocks(offset, length, 4096)
                    assert str(error.value) == message
                else:
                    assert file.blocks(offset, length, 4096) == [flat[i] for i in wanted]


class TestBufferCache:
    def test_probe_miss_then_hit(self):
        cache = BufferCache(10)
        hits, misses = cache.probe([1, 2, 3])
        assert hits == [] and misses == [1, 2, 3]
        cache.insert([1, 2, 3])
        hits, misses = cache.probe([1, 2, 3])
        assert hits == [1, 2, 3] and misses == []
        assert cache.hits == 3 and cache.misses == 3

    def test_lru_eviction(self):
        cache = BufferCache(2)
        cache.insert([1, 2])
        cache.insert([3])  # evicts 1
        assert 1 not in cache
        assert 2 in cache and 3 in cache

    def test_probe_refreshes_lru(self):
        cache = BufferCache(2)
        cache.insert([1, 2])
        cache.probe([1])  # 1 is now most recent
        cache.insert([3])  # evicts 2
        assert 1 in cache and 2 not in cache

    def test_flush(self):
        cache = BufferCache(4)
        cache.insert([1, 2])
        cache.flush()
        assert len(cache) == 0
        assert 1 not in cache

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferCache(0)

    def test_reinsert_moves_to_end(self):
        cache = BufferCache(2)
        cache.insert([1, 2])
        cache.insert([1])  # refresh 1
        cache.insert([3])  # evicts 2
        assert 1 in cache and 2 not in cache
