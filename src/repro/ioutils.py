"""Output helpers shared by every layer: crash-safe files and text tables.

The durable experiment store and the telemetry JSONL sink both promise that a
killed process never leaves a half-written file behind: a reader either sees
the complete previous contents or the complete new contents, nothing in
between.  The standard POSIX recipe delivers that promise — write the full
payload to a temporary file in the *same directory* (so the final rename
cannot cross filesystems), flush and fsync it, then :func:`os.replace` it
over the destination, which is atomic on every platform Python supports.

:func:`format_table` renders the fixed-width text tables that the paper
figures, the profiler, the bench log, run diffs and store reports print.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable, Sequence


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    The temporary file lives next to the destination (``.<name>.<random>.tmp``
    in the same directory) and is fsynced before :func:`os.replace` swaps it
    in, so a crash at any point leaves either the old file or the new file —
    never a truncated hybrid.  On failure the temporary file is removed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    handle, tmp_path = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(handle, "w", encoding=encoding) as tmp:
            tmp.write(text)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_lines(path: str, lines, encoding: str = "utf-8") -> None:
    """Atomically write an iterable of lines (newlines appended) to ``path``."""
    atomic_write_text(path, "".join(f"{line}\n" for line in lines), encoding)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple fixed-width text table (cells pass through ``str``)."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    header_line = line(list(headers))
    separator = "  ".join("-" * w for w in widths)
    body = "\n".join(line(row) for row in materialised)
    return "\n".join([header_line, separator, body])
