"""Lightweight tables rendered as aligned ASCII or GitHub markdown.

The experiment harness reports every result as a :class:`Table` so the
same object feeds terminal output, EXPERIMENTS.md, and JSON storage.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


class Table:
    """A headed table of heterogeneous cells with formatting control.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Optional initial rows; each row must match the header length.
    float_format:
        printf-style format used for float cells (default ``"%.3g"``).
    """

    def __init__(
        self,
        headers: Sequence[str],
        rows: Iterable[Sequence[Any]] = (),
        *,
        float_format: str = "%.4g",
    ) -> None:
        self._headers = [str(h) for h in headers]
        if not self._headers:
            raise ValueError("a table needs at least one column")
        self._float_format = float_format
        self._rows: list[list[Any]] = []
        for row in rows:
            self.add_row(row)

    @property
    def headers(self) -> list[str]:
        """Column names (a copy)."""
        return list(self._headers)

    @property
    def rows(self) -> list[list[Any]]:
        """Raw row data (a copy of the list; cells are shared)."""
        return [list(row) for row in self._rows]

    @property
    def n_rows(self) -> int:
        """Number of data rows."""
        return len(self._rows)

    def add_row(self, row: Sequence[Any]) -> None:
        """Append a row; its length must match the headers."""
        cells = list(row)
        if len(cells) != len(self._headers):
            raise ValueError(
                f"row has {len(cells)} cells but the table has "
                f"{len(self._headers)} columns"
            )
        self._rows.append(cells)

    def column(self, name: str) -> list[Any]:
        """All cells of the named column."""
        try:
            index = self._headers.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}; have {self._headers}") from None
        return [row[index] for row in self._rows]

    def _format_cell(self, cell: Any) -> str:
        if cell is None:
            return "-"
        if isinstance(cell, bool):
            return "yes" if cell else "no"
        if isinstance(cell, float):
            return self._float_format % cell
        return str(cell)

    def render(self) -> str:
        """Aligned plain-text rendering."""
        formatted = [self._headers] + [
            [self._format_cell(cell) for cell in row] for row in self._rows
        ]
        widths = [max(len(row[i]) for row in formatted) for i in range(len(self._headers))]
        lines = []
        header_line = "  ".join(h.ljust(w) for h, w in zip(formatted[0], widths))
        lines.append(header_line)
        lines.append("  ".join("-" * w for w in widths))
        for row in formatted[1:]:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def to_records(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by header (for JSON storage)."""
        return [dict(zip(self._headers, row)) for row in self._rows]

    @classmethod
    def from_records(
        cls, records: Sequence[dict[str, Any]], *, float_format: str = "%.4g"
    ) -> "Table":
        """Rebuild a table from :meth:`to_records` output."""
        if not records:
            raise ValueError("cannot infer headers from an empty record list")
        headers = list(records[0].keys())
        table = cls(headers, float_format=float_format)
        for record in records:
            table.add_row([record.get(h) for h in headers])
        return table

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Table(columns={self._headers}, rows={len(self._rows)})"
