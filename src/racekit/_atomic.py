"""Atomic output files.

Every output file goes through atomic_open: episodes, dataset.json,
checkpoints, loss_curve.csv, the report JSON and CSV files, manifest.json,
the track, raceline and trace CSVs, `track gen`'s boundary CSV and
preview SVG, and the SVGs of `eval single --render` and `render`. The data
lands in a temporary sibling that replaces the target only once it is
complete, so a reader sees the previous file or the whole new one, never a
truncated write. There is no fsync: this guards against an interrupted or
failing process, not against losing power.
"""

from __future__ import annotations

import os


class atomic_open:
    """open(path, mode, **kwargs) for writing, as a context manager, through
    a temporary file in the same directory that os.replace moves onto
    `path` when the block completes. If the block raises, the temporary
    file is removed and `path` is left as it was.

    The temporary name carries the process id, so concurrent processes
    never share one; it is created like any open() file, under the umask.
    A plain class with string paths, not a generator context manager over
    pathlib: a set-up that writes many small episodes pays for every
    microsecond of it.
    """

    def __init__(self, path, mode: str = "w", **kwargs):
        self._path = os.fspath(path)
        head, name = os.path.split(self._path)
        self._tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
        self._fh = open(self._tmp, mode, **kwargs)

    def __enter__(self):
        return self._fh

    def __exit__(self, exc_type, exc, tb):
        try:
            self._fh.close()
            if exc_type is None:
                os.replace(self._tmp, self._path)
                return
        except BaseException:
            os.unlink(self._tmp)
            raise
        os.unlink(self._tmp)
