"""Unit + property tests for the mark bitmaps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IllegalArgumentException
from repro.runtime.bitmap import Bitmap, LiveMap


class TestBitmapBasics:
    def test_set_get(self):
        bm = Bitmap(100)
        bm.set(0)
        bm.set(63)
        bm.set(64)
        bm.set(99)
        assert bm.get(0) and bm.get(63) and bm.get(64) and bm.get(99)
        assert not bm.get(1)

    def test_out_of_range(self):
        bm = Bitmap(10)
        with pytest.raises(IllegalArgumentException):
            bm.set(10)
        with pytest.raises(IllegalArgumentException):
            bm.get(-1)

    def test_set_range_within_word(self):
        bm = Bitmap(128)
        bm.set_range(3, 5)
        assert all(bm.get(i) for i in range(3, 8))
        assert not bm.get(2) and not bm.get(8)

    def test_set_range_across_words(self):
        bm = Bitmap(256)
        bm.set_range(60, 80)
        assert all(bm.get(i) for i in range(60, 140))
        assert not bm.get(59) and not bm.get(140)

    def test_count_range(self):
        bm = Bitmap(256)
        bm.set_range(10, 20)
        assert bm.count_range(0, 256) == 20
        assert bm.count_range(0, 15) == 5
        assert bm.count_range(15, 30) == 15
        assert bm.count_range(30, 256) == 0

    def test_iter_set(self):
        bm = Bitmap(200)
        for i in (0, 5, 63, 64, 65, 130, 199):
            bm.set(i)
        assert list(bm.iter_set(0, 200)) == [0, 5, 63, 64, 65, 130, 199]
        assert list(bm.iter_set(5, 65)) == [5, 63, 64]

    def test_clear_all(self):
        bm = Bitmap(64)
        bm.set_range(0, 64)
        bm.clear_all()
        assert list(bm.iter_set(0, 64)) == []

    def test_words_roundtrip(self):
        bm = Bitmap(300)
        bm.set_range(17, 200)
        words = bm.to_words()
        bm2 = Bitmap(300)
        bm2.load_words(words)
        assert list(bm2.iter_set(0, 300)) == list(bm.iter_set(0, 300))

    def test_load_wrong_size_rejected(self):
        bm = Bitmap(300)
        with pytest.raises(IllegalArgumentException):
            bm.load_words(Bitmap(64).to_words())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 480), st.integers(1, 30)),
                min_size=0, max_size=20))
def test_bitmap_matches_model_set(ranges):
    """Property: Bitmap behaves like a plain Python set of indices."""
    bm = Bitmap(512)
    model = set()
    for start, count in ranges:
        count = min(count, 512 - start)
        if count <= 0:
            continue
        bm.set_range(start, count)
        model.update(range(start, start + count))
    assert list(bm.iter_set(0, 512)) == sorted(model)
    assert bm.count_range(0, 512) == len(model)
    for start, count in ranges[:5]:
        end = min(512, start + count + 7)
        assert bm.count_range(start, end) == len(
            [i for i in model if start <= i < end])


class TestLiveMap:
    def test_mark_object(self):
        lm = LiveMap(base=1000, size_words=128)
        lm.mark_object(1010, 4)
        assert lm.is_marked(1010)
        assert not lm.is_marked(1011)
        assert lm.live_words_in(0, 128) == 4

    def test_iter_objects_returns_absolute_addresses(self):
        lm = LiveMap(base=1000, size_words=128)
        lm.mark_object(1000, 3)
        lm.mark_object(1050, 5)
        assert list(lm.iter_objects(0, 128)) == [1000, 1050]

    def test_adjacent_objects_remain_distinct(self):
        lm = LiveMap(base=0, size_words=64)
        lm.mark_object(10, 4)
        lm.mark_object(14, 4)  # immediately adjacent
        assert list(lm.iter_objects(0, 64)) == [10, 14]
        assert lm.live_words_in(0, 64) == 8

    def test_clear(self):
        lm = LiveMap(base=0, size_words=64)
        lm.mark_object(0, 8)
        lm.clear()
        assert lm.live_words_in(0, 64) == 0
