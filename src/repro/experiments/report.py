"""Plain-text table formatting matching the paper's presentation."""

from __future__ import annotations

from typing import Sequence

from ..obs.report import Column, render_table


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    title: str | None = None,
) -> str:
    """Left-aligned string columns as wide as their widest cell, two
    spaces apart, each underlined by its own dashes."""
    widths = [
        max([len(h), *(len(row[c]) for row in rows)])
        for c, h in enumerate(headers)
    ]
    columns = [Column(h, w, sep="  ") for h, w in zip(headers, widths)]
    dashes = ["-" * w for w in widths]
    return "\n".join(render_table(title, columns, [dashes, *rows], rule=False))


def fmt(value: float, decimals: int = 1) -> str:
    return f"{value:.{decimals}f}"


def geometric_mean(values: Sequence[float]) -> float:
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values)) if values else float("nan")


def arithmetic_mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")
