"""Tests for :class:`~repro.analysis.tables.Table`."""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table


class TestConstruction:
    def test_headers_required(self):
        with pytest.raises(ValueError, match="at least one column"):
            Table([])

    def test_initial_rows(self):
        table = Table(["a", "b"], rows=[(1, 2), (3, 4)])
        assert table.n_rows == 2

    def test_row_length_enforced(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError, match="2 columns"):
            table.add_row([1])


class TestAccess:
    def test_column(self):
        table = Table(["n", "time"], rows=[(10, 1.5), (20, 2.5)])
        assert table.column("time") == [1.5, 2.5]

    def test_unknown_column(self):
        table = Table(["n"])
        with pytest.raises(KeyError, match="no column"):
            table.column("missing")

    def test_rows_are_copies(self):
        table = Table(["a"], rows=[(1,)])
        table.rows[0][0] = 99
        assert table.rows[0][0] == 1


class TestRendering:
    def test_plain_render_aligned(self):
        table = Table(["name", "value"], rows=[("alpha", 1), ("b", 22)])
        rendered = table.render()
        lines = rendered.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) or line for line in lines)

    def test_float_formatting(self):
        table = Table(["x"], rows=[(3.14159,)], float_format="%.2f")
        assert "3.14" in table.render()
        assert "3.14159" not in table.render()

    def test_none_renders_dash(self):
        table = Table(["x"], rows=[(None,)])
        assert "-" in table.render().splitlines()[-1]

    def test_bool_renders_yes_no(self):
        table = Table(["ok"], rows=[(True,), (False,)])
        rendered = table.render()
        assert "yes" in rendered
        assert "no" in rendered

    def test_str_is_render(self):
        table = Table(["a"], rows=[(1,)])
        assert str(table) == table.render()


class TestRecordsRoundtrip:
    def test_roundtrip(self):
        table = Table(["n", "mean"], rows=[(10, 1.5), (20, None)])
        records = table.to_records()
        assert records == [{"n": 10, "mean": 1.5}, {"n": 20, "mean": None}]
        rebuilt = Table.from_records(records)
        assert rebuilt.headers == ["n", "mean"]
        assert rebuilt.column("n") == [10, 20]

    def test_from_records_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            Table.from_records([])
