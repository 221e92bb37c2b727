"""Bitmaps for the mark phase of the region-based collectors.

The Parallel Scavenge old GC that the paper extends records liveness in a
*mark bitmap*: "a read-only bitmap ... to memorize all live objects in a
memory-efficient way" (§4.2), from which the summary phase is *idempotently*
recomputed — the property the recovery path relies on.

We keep two bitmaps, exactly like HotSpot's ParallelCompact keeps begin/end
bit pairs: ``begin`` marks the first word of each live object, ``live``
marks every word occupied by live objects.  Together they answer the two
questions recovery needs without touching (possibly clobbered) heap memory:
where live objects start, and how many live words precede any address.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import IllegalArgumentException

_WORD_BITS = 64


def _popcount(x: int) -> int:
    return bin(x).count("1")


class Bitmap:
    """A fixed-size bit vector backed by int64 words (persistable as-is)."""

    def __init__(self, num_bits: int) -> None:
        if num_bits <= 0:
            raise IllegalArgumentException("bitmap needs at least one bit")
        self.num_bits = num_bits
        self.num_words = (num_bits + _WORD_BITS - 1) // _WORD_BITS
        self._words = np.zeros(self.num_words, dtype=np.uint64)

    def _check(self, index: int) -> None:
        if index < 0 or index >= self.num_bits:
            raise IllegalArgumentException(
                f"bit {index} outside [0, {self.num_bits})")

    def set(self, index: int) -> None:
        self._check(index)
        self._words[index >> 6] |= np.uint64(1 << (index & 63))

    def set_range(self, start: int, count: int) -> None:
        """Set *count* consecutive bits starting at *start*."""
        if count <= 0:
            return
        self._check(start)
        self._check(start + count - 1)
        end = start + count
        first_word, last_word = start >> 6, (end - 1) >> 6
        if first_word == last_word:
            mask = ((1 << count) - 1) << (start & 63)
            self._words[first_word] |= np.uint64(mask)
            return
        self._words[first_word] |= np.uint64((~0 << (start & 63)) & (2**64 - 1))
        if last_word > first_word + 1:
            self._words[first_word + 1:last_word] = np.uint64(2**64 - 1)
        tail_bits = ((end - 1) & 63) + 1
        self._words[last_word] |= np.uint64((1 << tail_bits) - 1)

    def get(self, index: int) -> bool:
        self._check(index)
        return bool(self._words[index >> 6] & np.uint64(1 << (index & 63)))

    def clear_all(self) -> None:
        self._words[:] = 0

    def count_range(self, start: int, end: int) -> int:
        """Number of set bits in ``[start, end)``."""
        if end <= start:
            return 0
        self._check(start)
        self._check(end - 1)
        first_word, last_word = start >> 6, (end - 1) >> 6
        if first_word == last_word:
            mask = (((1 << (end - start)) - 1) << (start & 63)) & (2**64 - 1)
            return _popcount(int(self._words[first_word]) & mask)
        total = _popcount(int(self._words[first_word]) & ((~0 << (start & 63)) & (2**64 - 1)))
        for w in range(first_word + 1, last_word):
            total += _popcount(int(self._words[w]))
        tail_bits = ((end - 1) & 63) + 1
        total += _popcount(int(self._words[last_word]) & ((1 << tail_bits) - 1))
        return total

    def iter_set(self, start: int, end: int) -> Iterator[int]:
        """Yield indices of set bits in ``[start, end)`` in ascending order."""
        if end <= start:
            return
        self._check(start)
        self._check(end - 1)
        word_index = start >> 6
        last_word = (end - 1) >> 6
        while word_index <= last_word:
            word = int(self._words[word_index])
            base = word_index << 6
            if word_index == start >> 6:
                word &= (~0 << (start & 63)) & (2**64 - 1)
            if word_index == last_word:
                tail_bits = ((end - 1) & 63) + 1
                word &= (1 << tail_bits) - 1
            while word:
                low = word & -word
                yield base + low.bit_length() - 1
                word ^= low
            word_index += 1

    # -- persistence ----------------------------------------------------------
    def to_words(self) -> np.ndarray:
        """The raw backing words, reinterpreted as int64 for device storage."""
        return self._words.view(np.int64).copy()

    def load_words(self, words: np.ndarray) -> None:
        if len(words) != self.num_words:
            raise IllegalArgumentException(
                f"expected {self.num_words} bitmap words, got {len(words)}")
        self._words = words.astype(np.int64).view(np.uint64).copy()


class LiveMap:
    """Begin + live bitmaps over one heap space (addresses are absolute)."""

    def __init__(self, base: int, size_words: int) -> None:
        self.base = base
        self.size_words = size_words
        self.begin = Bitmap(size_words)
        self.live = Bitmap(size_words)

    def mark_object(self, address: int, size_words: int) -> None:
        offset = address - self.base
        self.begin.set(offset)
        self.live.set_range(offset, size_words)

    def is_marked(self, address: int) -> bool:
        return self.begin.get(address - self.base)

    def live_words_in(self, start_offset: int, end_offset: int) -> int:
        return self.live.count_range(start_offset, end_offset)

    def iter_objects(self, start_offset: int, end_offset: int) -> Iterator[int]:
        """Yield absolute addresses of marked object starts in the range."""
        for offset in self.begin.iter_set(start_offset, end_offset):
            yield self.base + offset

    def clear(self) -> None:
        self.begin.clear_all()
        self.live.clear_all()
