"""SQL value types for the H2-style database substrate.

The JPA baseline needs a real relational database under it (the paper runs
DataNucleus over H2 [30] on the NVDIMM); this module defines the type
system: a small but genuine subset of H2's — INTEGER/BIGINT, DOUBLE,
VARCHAR, BOOLEAN, plus SQL NULL — with validation, coercion and the
word-level encoding used by the NVM row store.
"""

from __future__ import annotations

import enum
from typing import Any, List, Tuple

from repro.errors import SqlError
from repro.runtime.objects import bits_to_float, float_to_bits


class SqlType(enum.Enum):
    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    DOUBLE = "DOUBLE"
    VARCHAR = "VARCHAR"
    BOOLEAN = "BOOLEAN"

    @classmethod
    def parse(cls, name: str) -> "SqlType":
        upper = name.upper()
        aliases = {
            "INT": cls.INTEGER, "INTEGER": cls.INTEGER,
            "BIGINT": cls.BIGINT, "LONG": cls.BIGINT,
            "DOUBLE": cls.DOUBLE, "FLOAT": cls.DOUBLE, "REAL": cls.DOUBLE,
            "VARCHAR": cls.VARCHAR, "TEXT": cls.VARCHAR,
            "CHAR": cls.VARCHAR, "STRING": cls.VARCHAR,
            "BOOLEAN": cls.BOOLEAN, "BOOL": cls.BOOLEAN,
        }
        try:
            return aliases[upper]
        except KeyError:
            raise SqlError(f"unknown SQL type {name!r}") from None


def validate(value: Any, sql_type: SqlType, column: str = "?") -> Any:
    """Coerce a Python value to the column type; raise SqlError if illegal."""
    if value is None:
        return None
    if sql_type in (SqlType.INTEGER, SqlType.BIGINT):
        if isinstance(value, bool):
            raise SqlError(f"boolean into numeric column {column}")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise SqlError(f"cannot store {value!r} in {sql_type.value} {column}")
    if sql_type is SqlType.DOUBLE:
        if isinstance(value, bool):
            raise SqlError(f"boolean into DOUBLE column {column}")
        if isinstance(value, (int, float)):
            return float(value)
        raise SqlError(f"cannot store {value!r} in DOUBLE {column}")
    if sql_type is SqlType.VARCHAR:
        if isinstance(value, str):
            return value
        raise SqlError(f"cannot store {value!r} in VARCHAR {column}")
    if sql_type is SqlType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise SqlError(f"cannot store {value!r} in BOOLEAN {column}")
    raise SqlError(f"unsupported type {sql_type}")


def sql_literal(value: Any) -> str:
    """Render a Python value as a SQL literal (the JPA transformation path)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise SqlError(f"cannot render {value!r} as a SQL literal")


# ----------------------------------------------------------------------
# Word-level row encoding for the NVM row store.
#
# Each value encodes as a tag word followed by its payload:
#   0 NULL (no payload)        3 DOUBLE  (1 word, IEEE bits)
#   1 INTEGER/BIGINT (1 word)  4 BOOLEAN (1 word)
#   2 VARCHAR (1 length word + 1 word per 8 UTF-8 bytes)
# ----------------------------------------------------------------------
_TAG_NULL = 0
_TAG_INT = 1
_TAG_STR = 2
_TAG_DOUBLE = 3
_TAG_BOOL = 4


def encode_value(value: Any) -> List[int]:
    if value is None:
        return [_TAG_NULL]
    if isinstance(value, bool):
        return [_TAG_BOOL, int(value)]
    if isinstance(value, int):
        return [_TAG_INT, value]
    if isinstance(value, float):
        return [_TAG_DOUBLE, float_to_bits(value)]
    if isinstance(value, str):
        raw = value.encode("utf-8")
        words = [_TAG_STR, len(raw)]
        for i in range(0, len(raw), 8):
            chunk = raw[i:i + 8]
            words.append(int.from_bytes(chunk.ljust(8, b"\0"), "little",
                                        signed=True))
        return words
    raise SqlError(f"cannot encode {value!r}")


def decode_value(words, offset: int) -> Tuple[Any, int]:
    """Decode one value; returns (value, words consumed)."""
    tag = words[offset]
    if tag == _TAG_NULL:
        return None, 1
    if tag == _TAG_INT:
        return int(words[offset + 1]), 2
    if tag == _TAG_DOUBLE:
        return bits_to_float(int(words[offset + 1])), 2
    if tag == _TAG_BOOL:
        return bool(words[offset + 1]), 2
    if tag == _TAG_STR:
        length = int(words[offset + 1])
        nwords = (length + 7) // 8
        raw = b"".join(
            int(words[offset + 2 + i]).to_bytes(8, "little", signed=True)
            for i in range(nwords))
        return raw[:length].decode("utf-8"), 2 + nwords
    raise SqlError(f"corrupt value tag {tag}")
