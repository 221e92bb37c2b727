"""NVM row store: pages, rows, and table storage.

Tables store rows in chained fixed-size pages on the database's NVM device.
Page layout: ``[next_page, used_words, rows...]`` where ``next_page`` is a
page index (-1 terminates the chain).  Row layout:
``[row_words, row_id, live, encoded values...]``.  Updates that still fit
rewrite in place (keeping the original ``row_words`` so the page walk stays
intact); growing updates tombstone the old row and append a fresh copy.

All mutation goes through a transaction context (WAL-logged), so a crash
between page writes is always recoverable.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CorruptHeapError, SqlError
from repro.h2.catalog import TableDef
from repro.h2.values import decode_value, encode_value, validate

PAGE_HEADER_WORDS = 2
NO_PAGE = -1

ROW_HEADER_WORDS = 3
_ROW_WORDS = 0
_ROW_ID = 1
_ROW_LIVE = 2

Locator = Tuple[int, int]  # (page index, word offset within the page)


class PageManager:
    """Allocates pages from the page region (persisted next-free counter)."""

    def __init__(self, device, pages_offset: int, page_words: int,
                 meta_next_page_offset: int) -> None:
        self.device = device
        self.pages_offset = pages_offset
        self.page_words = page_words
        self.meta_next_page_offset = meta_next_page_offset
        self.page_capacity = (device.size_words - pages_offset) // page_words

    def page_offset(self, index: int) -> int:
        return self.pages_offset + index * self.page_words

    def allocate(self, tx) -> int:
        index = self.device.read(self.meta_next_page_offset)
        if index >= self.page_capacity:
            raise SqlError("database file full (no free pages)")
        tx.write(self.meta_next_page_offset,
                 np.array([index + 1], dtype=np.int64))
        offset = self.page_offset(index)
        tx.write(offset, np.array([NO_PAGE, 0], dtype=np.int64))
        return index


class TableStorage:
    """Row operations over one table's page chain."""

    def __init__(self, table: TableDef, pages: PageManager) -> None:
        self.table = table
        self.pages = pages
        self.device = pages.device
        self.last_page = table.first_page
        self.next_row_id = 1
        self.locators: Dict[int, Locator] = {}
        self._refresh()

    # -- walking ----------------------------------------------------------------
    def _pages(self) -> Iterator[Tuple[int, int]]:
        """(page, base offset) along the table's chain, reading each next
        link after the caller is done with its page."""
        seen = set()
        page = self.table.first_page
        while page != NO_PAGE:
            if page in seen:  # the walk would never end
                raise CorruptHeapError(
                    f"h2.table[{self.table.name}]",
                    f"page {page} revisited: the page chain loops")
            seen.add(page)
            base = self.pages.page_offset(page)
            yield page, base
            page = self.device.read(base)

    def _refresh(self) -> None:
        """Rebuild volatile state (last page, next row id, locators)."""
        self.locators.clear()
        self.next_row_id = 1
        for page, base in self._pages():
            used = self.device.read(base + 1)
            cursor = PAGE_HEADER_WORDS
            while cursor < PAGE_HEADER_WORDS + used:
                row_words = self.device.read(base + cursor)
                if row_words < ROW_HEADER_WORDS:  # would stall the walk
                    raise CorruptHeapError(
                        f"h2.table[{self.table.name}]",
                        f"page {page} cursor {cursor}: row length "
                        f"{row_words} is below the row header")
                row_id = self.device.read(base + cursor + _ROW_ID)
                live = self.device.read(base + cursor + _ROW_LIVE)
                if live:
                    self.locators[row_id] = (page, cursor)
                self.next_row_id = max(self.next_row_id, row_id + 1)
                cursor += row_words
            self.last_page = page

    def scan(self) -> Iterator[Tuple[int, List[Any]]]:
        """Yield (row_id, values) for every live row, in storage order."""
        for page, base in self._pages():
            used = self.device.read(base + 1)
            cursor = PAGE_HEADER_WORDS
            while cursor < PAGE_HEADER_WORDS + used:
                row_words = self.device.read(base + cursor)
                if row_words < ROW_HEADER_WORDS:  # would stall the walk
                    raise CorruptHeapError(
                        f"h2.table[{self.table.name}]",
                        f"page {page} cursor {cursor}: row length "
                        f"{row_words} is below the row header")
                live = self.device.read(base + cursor + _ROW_LIVE)
                if live:
                    row_id = self.device.read(base + cursor + _ROW_ID)
                    yield row_id, self._decode(base + cursor, row_words)
                cursor += row_words

    def _decode(self, row_offset: int, row_words: int) -> List[Any]:
        words = self.device.read_block(row_offset, row_words)
        values: List[Any] = []
        cursor = ROW_HEADER_WORDS
        for _ in self.table.columns:
            value, consumed = decode_value(words, cursor)
            values.append(value)
            cursor += consumed
        return values

    def read_row(self, row_id: int) -> Optional[List[Any]]:
        locator = self.locators.get(row_id)
        if locator is None:
            return None
        base = self.pages.page_offset(locator[0]) + locator[1]
        return self._decode(base, self.device.read(base))

    # -- encoding -----------------------------------------------------------------
    def _encode_row(self, row_id: int, values: Sequence[Any],
                    pad_to: Optional[int] = None) -> np.ndarray:
        words: List[int] = [0, row_id, 1]
        for value, col in zip(values, self.table.columns):
            words.extend(encode_value(validate(value, col.sql_type, col.name)))
        if pad_to is not None:
            if len(words) > pad_to:
                raise SqlError("row does not fit its original slot")
            words.extend([0] * (pad_to - len(words)))
        words[_ROW_WORDS] = len(words)
        return np.array(words, dtype=np.int64)

    # -- mutation ------------------------------------------------------------------
    def insert(self, tx, values: Sequence[Any],
               row_id: Optional[int] = None) -> int:
        if len(values) != len(self.table.columns):
            raise SqlError(
                f"{self.table.name}: {len(values)} values for "
                f"{len(self.table.columns)} columns")
        for value, col in zip(values, self.table.columns):
            if value is None and (col.not_null or col.primary_key):
                raise SqlError(f"column {col.name!r} is NOT NULL")
        if row_id is None:
            row_id = self.next_row_id
        row = self._encode_row(row_id, values)
        data_capacity = self.pages.page_words - PAGE_HEADER_WORDS
        if len(row) > data_capacity:
            raise SqlError(
                f"row of {len(row)} words exceeds page capacity "
                f"{data_capacity}")
        base = self.pages.page_offset(self.last_page)
        used = self.device.read(base + 1)
        if used + len(row) > data_capacity:
            new_page = self.pages.allocate(tx)
            tx.write(base, np.array([new_page], dtype=np.int64))
            self.last_page = new_page
            base = self.pages.page_offset(new_page)
            used = 0
        offset = PAGE_HEADER_WORDS + used
        tx.write(base + offset, row)
        tx.write(base + 1, np.array([used + len(row)], dtype=np.int64))
        self.next_row_id = max(self.next_row_id, row_id + 1)
        self.locators[row_id] = (self.last_page, offset)
        return row_id

    def delete(self, tx, row_id: int) -> bool:
        locator = self.locators.get(row_id)
        if locator is None:
            return False
        base = self.pages.page_offset(locator[0]) + locator[1]
        tx.write(base + _ROW_LIVE, np.array([0], dtype=np.int64))
        del self.locators[row_id]
        return True

    def update(self, tx, row_id: int, values: Sequence[Any]) -> bool:
        locator = self.locators.get(row_id)
        if locator is None:
            return False
        base = self.pages.page_offset(locator[0]) + locator[1]
        old_words = self.device.read(base)
        try:
            row = self._encode_row(row_id, values, pad_to=old_words)
        except SqlError:
            # Grew past its slot: tombstone and re-append under the same id.
            self.delete(tx, row_id)
            self.insert(tx, values, row_id=row_id)
            return True
        tx.write(base, row)
        return True

