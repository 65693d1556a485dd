import csv

import pytest

from distradar.tables import read_table, write_table


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
    # a blank line reads as [], for the caller to refuse or skip, and a
    # line may end in \n alone
    path.write_text("a,b\n1,x\n\n2,y\n")
    assert read_table(path, ["a", "b"]) == [["1", "x"], [], ["2", "y"]]


@pytest.mark.parametrize("text", ["", "b,a\n1,2\n", "a\n", "\na,b\n1,2\n"],
                         ids=["empty", "swapped", "short", "leading_blank"])
def test_read_table_refuses_another_first_line(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad.csv: header .*expected"):
        read_table(path, ["a", "b"])


@pytest.mark.parametrize("text, width", [("a,b\n1,x\n2\n", 1),
                                         ("a,b\n1,x\n\n2,y,z\n", 3)],
                         ids=["short", "long"])
def test_read_table_refuses_a_row_of_another_width(tmp_path, text, width):
    # the row's line is named, blank lines counted
    path = tmp_path / "bad.csv"
    path.write_text(text)
    line = text.count("\n")
    with pytest.raises(ValueError, match=f"bad.csv: line {line} has {width} "
                                         "fields, expected 2"):
        read_table(path, ["a", "b"])


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
