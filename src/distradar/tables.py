"""The one table format of every CSV file distradar writes or reads:
comma-separated string fields, no quoting, lines ending in \\r\\n, and a
header line first (an image raster has none). Callers format each field,
samples and pixels at %.17g; none holds a comma, a quote or a line break,
so the bytes are those of csv.writer, and csv.reader reads them back.
"""

import csv


def write_table(path, header, rows):
    """Write the `header` line (none if it is None), then one line per row
    of string fields, in one write."""
    text = "".join(",".join(row) + "\r\n" for row in rows)
    if header is not None:
        text = ",".join(header) + "\r\n" + text
    with open(path, "w", newline="") as fh:
        fh.write(text)


def read_table(path, header=None):
    """The lines of a table as lists of fields. Blank lines may end a table
    and are dropped; every other line must have the width of the first.
    Given `header`, the first line must be it, and the lines after it are
    returned. Raises ValueError, naming the file, for another first line,
    for any other blank line or a row of another width (naming its line
    too) or for text that csv.reader cannot parse."""
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    while rows and not rows[-1]:
        rows.pop()
    if header is not None and rows[:1] != [header]:
        raise ValueError(f"{path}: header {rows[0] if rows else None}, "
                         f"expected {header}")
    # the first line sets the width; a blank one sets 1, to be refused
    width = max(len(rows[0]), 1) if rows else 0
    for lineno, row in enumerate(rows, 1):
        if len(row) != width:
            raise ValueError(f"{path}: line {lineno} " + (
                f"has {len(row)} fields, expected {width}" if row
                else "is blank"))
    return rows if header is None else rows[1:]


def parse_rows(path, rows, parse, first_line):
    """parse(rows), a reader's parse of all its rows at once. When that
    raises ValueError, raises ValueError naming the file and the line of
    the first row that parse refuses on its own (rows[0] is on line
    first_line), and why. Only this error path parses row by row, so a
    valid table costs nothing more per row."""
    try:
        return parse(rows)
    except ValueError as exc:
        for lineno, row in enumerate(rows, first_line):
            try:
                parse([row])
            except ValueError as row_exc:
                raise ValueError(f"{path}: line {lineno}: {row_exc}") from exc
        raise
