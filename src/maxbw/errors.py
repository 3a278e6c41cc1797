"""Exception types shared across the package, and the one reader of the
numeric CSV tables that users supply (fading atoms, path loss, users).

The CLI maps ConfigError to exit code 1 and SolverError to exit code 2;
plain ValueError from domain validation is treated like ConfigError.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (scenario keys, link modes, budgets)."""


class SolverError(RuntimeError):
    """Numerical search failed to converge; never returned silently."""


def read_numeric_rows(path, width: int, what: str):
    """The first `width` fields of every row of a CSV file, as float tuples.

    Blank rows are skipped and the first non-blank row may be a header, that
    is, a row whose leading fields are not all numbers. Every other row must
    start with `width` numbers; extra fields are ignored. A bad row, or one
    the CSV reader refuses (say, a field past its size limit), raises
    ConfigError("path:line: ...").
    """
    import csv  # here, not at the top: most commands read no CSV file

    rows, seen = [], False
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for lineno, row in enumerate(reader, start=1):
                if not any(field.strip() for field in row):
                    continue
                first, seen = not seen, True
                try:
                    values = tuple(float(x) for x in row[:width])
                except ValueError:
                    if first:
                        continue
                    values = ()
                if len(values) < width:
                    raise ConfigError(f"{path}:{lineno}: bad {what} row {row!r}, "
                                      f"need {width} numbers")
                rows.append(values)
        except csv.Error as exc:
            raise ConfigError(f"{path}:{reader.line_num}: {exc}") from None
    return rows
