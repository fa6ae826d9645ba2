"""Targeted log hygiene for one known-benign Ray Data warning.

Ray's streaming executor warns whenever an operator emits a RefBundle whose
schema differs from the previous bundle's.  Its own comparison already
tolerates an empty PREVIOUS schema (``_is_empty_schema(old_schema)`` returns
early) but not an empty NEW one — and Ray itself emits column-less empty
pandas blocks for every empty range of a sort/groupby exchange (reproduced
in tests/test_join_schema.py: a fully schema-stable UDF over
``groupby().map_groups()`` with more blocks than keys still draws the
warning, because the UDF never runs on the empty ranges).  At 64-partition
exchanges over small inputs this floods real-cluster logs with noise that no
user code can prevent.

``install_empty_schema_filter()`` drops ONLY that variant — a new bundle
whose schema is the empty ``PandasBlockSchema(names=[], types=[])`` (or an
empty Arrow schema) — and leaves every genuine schema-divergence warning
(two non-empty, different schemas) untouched.  Installed by the session
owners (scripts/check_correctness.py, tests/conftest.py, cli) and
by ``__ray_entry__`` for driver-owned sessions; never by library import.
"""

from __future__ import annotations

import logging

_EMPTY_MARKERS = (
    "new schema: PandasBlockSchema(names=[], types=[])",
    # an empty pyarrow schema str()s to nothing, so the message reads
    # "new schema: . This may lead ..."
    "new schema: . This may lead",
)

_TARGET_LOGGER = "ray.data._internal.execution.streaming_executor_state"


class _EmptyNewSchemaFilter(logging.Filter):
    def filter(self, record: logging.LogRecord) -> bool:  # True = keep
        msg = record.getMessage()
        if "Operator produced a RefBundle with a different schema" not in msg:
            return True
        return not any(m in msg for m in _EMPTY_MARKERS)


_installed = False


def install_empty_schema_filter() -> None:
    """Idempotently attach the empty-new-schema filter to Ray Data's
    streaming-executor logger (and its parent ``ray.data`` logger, which
    handles the records in some Ray configs)."""
    global _installed
    if _installed:
        return
    f = _EmptyNewSchemaFilter()
    for name in (_TARGET_LOGGER, "ray.data"):
        logging.getLogger(name).addFilter(f)
    _installed = True
