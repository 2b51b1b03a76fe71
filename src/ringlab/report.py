"""Run reports with deterministic CSV/JSON emission.

Numeric formatting is pinned: every float is written in scientific
notation with 17 significant digits, so identical configurations produce
byte-identical files.  Rows are built from columns in one place
(:meth:`RunReport.add_rows`), which stores complex quantities as _re/_im
column pairs.  Bounds and the empirical values they certify always appear
side by side.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _flat(key: str, col) -> list:
    """The (name, Python values) report columns of one column, an array or a
    list: a complex one split into its _re and _im columns, any other list
    kept as it is (an int stays an int)."""
    if isinstance(col, list) and not (col and isinstance(col[0], complex)):
        return [(key, col)]
    col = np.asarray(col)
    if col.dtype.kind == "c":
        return [(key + "_re", col.real.tolist()), (key + "_im", col.imag.tolist())]
    return [(key, col.tolist())]


@dataclass
class RunReport:
    """A run's rows, metadata, plot data and violations.  Only
    :meth:`add_rows` makes rows; the certification writes the violations."""

    rows: List[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    plotdata: dict = field(default_factory=dict)  # name -> (header, rows)
    violations: List[str] = field(default_factory=list)

    def __post_init__(self):
        self.metadata.setdefault("ringlab_version", __version__)

    def add_rows(self, blocks: list, holds: Optional[list] = None):
        """Append one row per index of ``blocks``, dicts of equal-length
        columns in report order (:func:`_flat`).  Row i holds, in order, the
        columns of the blocks whose indices the tuple ``holds[i]`` lists;
        with holds None every row holds every block."""
        flat, spans = [], []
        for block in blocks:
            start = len(flat)
            flat += [pair for key, col in block.items() for pair in _flat(key, col)]
            spans.append(range(start, len(flat)))
        names = [name for name, _ in flat]
        cells = zip(*(col for _, col in flat))
        if holds is None:
            self.rows += [dict(zip(names, row)) for row in cells]
            return
        picks = {}  # holds pattern -> its column names and their getter
        for held, row in zip(holds, cells):
            if held not in picks:
                idx = [j for b in held for j in spans[b]]
                # itemgetter of one index gives the cell itself, not a tuple
                get = itemgetter(*idx) if len(idx) > 1 else lambda row, j=idx: [row[k] for k in j]
                picks[held] = [names[j] for j in idx], get
            keys, get = picks[held]
            self.rows.append(dict(zip(keys, get(row))))

    def add_violation(self, message: str):
        self.violations.append(message)

    @property
    def ok(self) -> bool:
        return not self.violations

    def columns(self) -> List[str]:
        cols: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def write(self, out_dir: str) -> dict:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        cols = self.columns()
        csv_path = out / "report.csv"
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for row in self.rows:
                fh.write(",".join(fmt(row.get(c)) for c in cols) + "\n")
        paths["csv"] = str(csv_path)
        json_path = out / "report.json"
        doc = {
            "metadata": self.metadata,
            "rows": [{k: row.get(k) for k in cols} for row in self.rows],
            "violations": self.violations,
            "ok": self.ok,
        }
        with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, default=fmt)
            fh.write("\n")
        paths["json"] = str(json_path)
        if self.plotdata:
            pdir = out / "plotdata"
            pdir.mkdir(exist_ok=True)
            for name, (header, rows) in self.plotdata.items():
                ppath = pdir / f"{name}.csv"
                with open(ppath, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(",".join(header) + "\n")
                    for row in rows:
                        fh.write(",".join(fmt(v) for v in row) + "\n")
                paths[name] = str(ppath)
        return paths
