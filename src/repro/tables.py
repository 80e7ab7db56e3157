"""The one table layout every report uses.

A leaf module (it imports nothing from the package), so the run
ledger's renderers (:mod:`repro.obs.ledger`) and the paper's report
(:mod:`repro.core.reporting`) lay tables out the same way.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table"]


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str | None = None) -> str:
    """Render a padded markdown pipe table, after ``title`` and one
    blank line when a title is given.

    The columns are padded, so the same text reads as an aligned table
    on a console and renders as GitHub-flavoured markdown.
    """
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [
        max(len(row[j]) for row in cells) for j in range(len(headers))
    ]
    lines = []
    if title:
        lines += [title, ""]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("-|-".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
