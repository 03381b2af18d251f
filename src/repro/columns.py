"""Append-only logs held as typed columns.

A run appends to a handful of logs for its whole horizon and a checkpoint
serialises them at every snapshot.  A list of record objects pickles one
Python object per field per row; the same rows as NumPy columns pickle as a
few buffers.  :class:`ColumnLog` keeps the append as cheap as
``list.append`` (rows wait as tuples until something reads the columns),
and :meth:`ColumnLog.rows` yields Python ``int`` / ``float`` / ``bool`` /
object fields, so the record lists built from it never show a NumPy scalar.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["ColumnLog", "ordered_sum"]


def ordered_sum(values: np.ndarray) -> float:
    """``values`` (1-D ``float64``) summed strictly left to right from ``0.0``.

    The one fold behind every total a digest depends on (``G(t)``, slot and
    cumulative energies): what ``sum(values.tolist())`` returned before
    CPython 3.12 gave the builtin a compensated float sum — sequential
    double additions, which ``np.add.accumulate`` is by definition and
    ``np.sum``'s pairwise blocks are not.  ``+ 0.0`` is the builtin's
    integer start value: it turns a ``-0.0`` total into ``0.0``.
    """
    if not len(values):
        return 0.0
    return float(np.add.accumulate(values)[-1]) + 0.0


class ColumnLog:
    """An append-only table with one dtype per named column.

    Rows arrive one at a time (:meth:`append`) or as equal-length column
    blocks (:meth:`extend`), in any interleaving; order is preserved.

    Args:
        dtypes: column name -> NumPy dtype, in column order.  Use ``object``
            for strings and optional values.
    """

    def __init__(self, **dtypes: Any) -> None:
        if not dtypes:
            raise ValueError("a column log needs at least one column")
        self.names: Tuple[str, ...] = tuple(dtypes)
        self._columns = tuple(np.empty(0, dtype=dtype) for dtype in dtypes.values())
        #: Appended since the last consolidation, oldest first: column
        #: blocks, then the rows that arrived after the last block.
        self._blocks: List[Tuple[np.ndarray, ...]] = []
        self._rows: List[tuple] = []

    def append(self, row: tuple) -> None:
        """Append one row (a tuple in column order)."""
        self._rows.append(row)

    def extend_rows(self, rows: Iterable[tuple]) -> None:
        """Append several rows (tuples in column order), oldest first."""
        self._rows.extend(rows)

    def extend(self, *columns: Sequence) -> None:
        """Append a block of rows given as one equal-length sequence per
        column; the values are copied."""
        if len(columns) != len(self.names) or len({len(c) for c in columns}) != 1:
            raise ValueError(
                f"a block needs {len(self.names)} equal-length columns"
            )
        self._flush_rows()
        self._blocks.append(
            tuple(
                np.array(values, dtype=column.dtype)
                for values, column in zip(columns, self._columns)
            )
        )

    def _flush_rows(self) -> None:
        if self._rows:
            self._blocks.append(
                tuple(
                    np.array(values, dtype=column.dtype)
                    for values, column in zip(zip(*self._rows), self._columns)
                )
            )
            self._rows.clear()

    def columns(self) -> Tuple[np.ndarray, ...]:
        """Every column over all rows so far, in column order (treat as
        read-only: they are the log's own storage)."""
        self._flush_rows()
        if self._blocks:
            self._columns = tuple(
                np.concatenate([column] + [block[index] for block in self._blocks])
                for index, column in enumerate(self._columns)
            )
            self._blocks.clear()
        return self._columns

    def column(self, name: str) -> np.ndarray:
        """One column over all rows so far (read-only, like :meth:`columns`)."""
        return self.columns()[self.names.index(name)]

    def rows(self) -> List[tuple]:
        """Every row as a tuple of Python values, oldest first."""
        return list(zip(*(column.tolist() for column in self.columns())))

    def clear(self) -> None:
        self._columns = tuple(
            np.empty(0, dtype=column.dtype) for column in self._columns
        )
        self._blocks.clear()
        self._rows.clear()

    def __len__(self) -> int:
        return (
            len(self._columns[0])
            + sum(len(block[0]) for block in self._blocks)
            + len(self._rows)
        )

    def __getstate__(self) -> Dict[str, Any]:
        return {"names": self.names, "columns": self.columns()}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.names = state["names"]
        self._columns = state["columns"]
        self._blocks = []
        self._rows = []
