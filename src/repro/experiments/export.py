"""Export experiment results to CSV / JSON / Markdown.

Lets downstream users archive reproduction runs or drop the tables into
reports without re-parsing the text rendering. Trace and metrics
exports of a run live in :mod:`repro.obs`.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Optional, Union

from repro.experiments.common import ExperimentResult

PathLike = Union[str, Path]


def to_csv(result: ExperimentResult,
           path: Optional[PathLike] = None) -> str:
    """Serialize rows as CSV (also written to ``path`` if given)."""
    columns = result.columns()
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns,
                            extrasaction="ignore")
    writer.writeheader()
    for row in result.rows:
        writer.writerow({col: _plain(row.get(col)) for col in columns})
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def to_json(result: ExperimentResult,
            path: Optional[PathLike] = None) -> str:
    """Serialize the full result (rows + metadata) as JSON."""
    payload = {
        "name": result.name,
        "title": result.title,
        "rows": [{key: _plain(value) for key, value in row.items()}
                 for row in result.rows],
        "notes": list(result.notes),
    }
    text = json.dumps(payload, indent=2, sort_keys=False)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def from_json(text: str) -> ExperimentResult:
    """Inverse of :func:`to_json` (round-trips)."""
    payload = json.loads(text)
    result = ExperimentResult(name=payload["name"],
                              title=payload["title"])
    result.rows = list(payload.get("rows", []))
    result.notes = list(payload.get("notes", []))
    return result


def to_markdown(result: ExperimentResult) -> str:
    """A GitHub-flavoured markdown table (for EXPERIMENTS.md etc.)."""
    columns = result.columns()
    if not columns:
        return f"### {result.title}\n\n(no rows)\n"
    lines = [f"### {result.title}", ""]
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    lines.extend(
        "| " + " | ".join(_fmt_md(row.get(col)) for col in columns) + " |"
        for row in result.rows)
    if result.notes:
        lines.append("")
        lines.extend(f"*{note}*" for note in result.notes)
    return "\n".join(lines) + "\n"


def _plain(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, 4)
    return value


def _fmt_md(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.2f}" if abs(value) < 1000 else f"{value:.0f}"
    return str(value)
