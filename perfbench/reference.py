"""Reference values the benchmark checks outputs against.

The committed ``benchmarks/out/table{4,5,6,7}.txt`` files hold, per row,
the delays the simulator produced at the default seed and the paper's
columns (MCS strings, Table 7 channel counts). They are read at run time,
so the benchmark checks the program against what the repository commits.
"""
from __future__ import annotations

import pathlib
import re

TABLES = ("table4", "table5", "table6", "table7")


def read_table(path: pathlib.Path) -> list[dict[str, str]]:
    """Rows of a ``repro.experiments.format_table`` rendering, as strings."""
    lines = path.read_text().splitlines()
    if len(lines) < 3:
        raise ValueError(f"{path}: not a rendered table")
    cols = [c.strip() for c in lines[1].split(" | ")]
    rows = []
    for line in lines[3:]:
        cells = [c.strip() for c in line.split(" | ")]
        if len(cells) != len(cols):
            raise ValueError(f"{path}: row has {len(cells)} cells, header {len(cols)}")
        rows.append(dict(zip(cols, cells)))
    return rows


def load(out_dir: pathlib.Path) -> dict[str, list[dict[str, str]]]:
    return {name: read_table(out_dir / f"{name}.txt") for name in TABLES}


def render_ms(value: float) -> str:
    """The committed tables' rendering of a delay in milliseconds."""
    return "inf" if value == float("inf") else f"{value:,.0f}"


_COMPONENT = re.compile(r"\{([^}]*)\}")


def mcs_components(desc: str) -> set[tuple[frozenset[str], frozenset[str]]]:
    """``"{*J1*, J2} {*J6*}"`` -> {(vertices, heads), ...}."""
    comps = set()
    for body in _COMPONENT.findall(desc):
        names = [n.strip() for n in body.split(",") if n.strip()]
        heads = frozenset(n.strip("*") for n in names if n.startswith("*"))
        comps.add((frozenset(n.strip("*") for n in names), heads))
    return comps


def mcs_matches_paper(ours: str, paper: str) -> bool:
    """Same components as the paper's column. Vertex order is free (the
    paper lists U1 before J8); heads are compared only where the paper marks
    them, because it leaves single-operator components unmarked in some
    rows and marked in others."""
    mine = {verts: heads for verts, heads in mcs_components(ours)}
    theirs = mcs_components(paper)
    if set(mine) != {verts for verts, _ in theirs}:
        return False
    return all(not heads or mine[verts] == heads for verts, heads in theirs)
