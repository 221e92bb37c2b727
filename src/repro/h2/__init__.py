"""An H2-style embedded SQL database on simulated NVM.

The relational substrate under both coarse-grained persistence layers:
the JPA baseline drives it with SQL text (Figure 1), while the PJO mode
(:mod:`repro.h2.pjo_backend`) receives ``DBPersistable`` objects directly
(Figure 13), skipping SQL entirely.  The engine is embedded, so the
paper's JDBC hop is a direct call to :meth:`Database.execute`; its
marshalling cost is priced into the provider's per-character SQL cost
(:mod:`repro.jpa.sql_mapping`).
"""

from repro.h2.engine import Database, ResultSet
from repro.h2.parser import parse
from repro.h2.tokenizer import tokenize
from repro.h2.values import SqlType

__all__ = [
    "Database",
    "ResultSet",
    "SqlType",
    "parse",
    "tokenize",
]
