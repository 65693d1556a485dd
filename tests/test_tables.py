import csv

import pytest

from distradar.tables import parse_rows, read_table, write_table


def test_write_table_matches_csv_module(tmp_path):
    rows = [["0", f"{-0.0:.17g}", f"{5e-324:.17g}"],
            ["17", "converged", str(2.5)], [f"{1 / 3:.17g}", "cluster:3", "-7"],
            [], ["nan", "inf", "-inf"]]
    for header in (["iter", "state", "value"], None):
        write_table(tmp_path / "new.csv", header, rows)
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            if header is not None:
                writer.writerow(header)
            writer.writerows(rows)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())
    write_table(tmp_path / "empty.csv", ["pixel_index"], [])
    assert (tmp_path / "empty.csv").read_bytes() == b"pixel_index\r\n"
    # a field that is not yet a string is the caller's to format
    with pytest.raises(TypeError):
        write_table(tmp_path / "int.csv", ["iter"], [[3]])


def test_read_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [["1", "x"], ["2", "y"]])
    assert read_table(path, ["a", "b"]) == [["1", "x"], ["2", "y"]]
    assert read_table(path) == [["a", "b"], ["1", "x"], ["2", "y"]]
    # blank lines that end a table are dropped, and a line may end in \n
    # alone
    path.write_text("a,b\n1,x\n2,y\n\n\r\n")
    assert read_table(path, ["a", "b"]) == [["1", "x"], ["2", "y"]]
    path.write_text("1,x\n2,y\n\n")
    assert read_table(path) == [["1", "x"], ["2", "y"]]
    path.write_text("\n\n")
    assert read_table(path) == []


@pytest.mark.parametrize("text", ["", "b,a\n1,2\n", "a\n", "\na,b\n1,2\n"],
                         ids=["empty", "swapped", "short", "leading_blank"])
def test_read_table_refuses_another_first_line(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad.csv: header .*expected"):
        read_table(path, ["a", "b"])


@pytest.mark.parametrize("text, message", [
    ("a,b\n1,x\n2\n", "line 3 has 1 fields, expected 2"),
    # the interior blank line comes first
    ("a,b\n1,x\n\n2,y,z\n", "line 3 is blank"),
], ids=["short", "long"])
def test_read_table_refuses_a_row_of_another_width(tmp_path, text, message):
    # the row's line is named
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.csv: {message}"):
        read_table(path, ["a", "b"])


@pytest.mark.parametrize("text, message", [
    ("1,2,3\n4,5,6\n7,8\n", "line 3 has 2 fields, expected 3"),
    ("1,2\n3,4,5\n\n", "line 2 has 3 fields, expected 2"),
    ("1,2\n\n3,4\n", "line 2 is blank"),
    ("\n1,2\n3,4\n", "line 1 is blank"),
    ("a,b\n\n\n1,2\n", "line 2 is blank"),
], ids=["ragged", "ragged_before_trailing_blank", "interior_blank",
        "leading_blank", "blank_run"])
def test_read_table_one_width_rule_for_headerless_tables(tmp_path, text,
                                                         message):
    # every row has the width of the first line, header or not; only blank
    # lines that end the table are dropped
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.csv: {message}$"):
        read_table(path)


@pytest.mark.parametrize("data", [b"a,b\n1,\xff\n",
                                  b"a,b\n1," + b"9" * 200_000 + b"\n"],
                         ids=["not_utf8", "field_too_large"])
def test_read_table_names_the_file_it_cannot_parse(tmp_path, data):
    # unparsable text is refused as a ValueError (exit 2 in the CLI) that
    # names the file, not as a bare decode or csv error
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="bad.csv: "):
        read_table(path, ["a", "b"])


def test_parse_rows_names_the_line_of_a_refused_value():
    calls = []

    def parse(rows):
        calls.append(len(rows))
        return [float(row[1]) for row in rows]

    rows = [["0", "1.5"], ["1", "2"], ["2", "x"], ["3", "y"]]
    assert parse_rows("t.csv", rows[:2], parse, 2) == [1.5, 2.0]
    assert calls == [2]  # a valid table is parsed once, all rows at once
    with pytest.raises(ValueError, match=r"^t\.csv: line 4: could not "
                       r"convert string to float: 'x'$"):
        parse_rows("t.csv", rows, parse, 2)
