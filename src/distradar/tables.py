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
    """The lines of a table as lists of fields, a blank line as []. Given
    `header`, the first line must be it, every other line that is not
    blank must have its field count, and the lines after it are returned.
    Raises ValueError, naming the file, for another first line, for a row
    of another width (naming its line too) or for text that csv.reader
    cannot parse."""
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if header is None:
        return rows
    if rows[:1] != [header]:
        raise ValueError(f"{path}: header {rows[0] if rows else None}, "
                         f"expected {header}")
    for lineno, row in enumerate(rows[1:], 2):
        if row and len(row) != len(header):
            raise ValueError(f"{path}: line {lineno} has {len(row)} fields, "
                             f"expected {len(header)}")
    return rows[1:]
