"""Deterministic SVG figures: hypnogram step plots and confusion heatmaps.

Hand-built SVG keeps the outputs diff-friendly and byte-reproducible; no
raster toolkit is involved.
"""
from __future__ import annotations

from html import escape

from .edf import StageLabel
from .evaluation import ConfusionMatrix, DISPLAY_COL_ORDER, DISPLAY_ROW_ORDER

# hypnogram vertical order, wake on top and deep sleep at the bottom
_HYPNO_LEVEL = {StageLabel.W: 0, StageLabel.R: 1, StageLabel.N1: 2,
                StageLabel.N2: 3, StageLabel.N3: 4}
_REFERENCE_COLOR = "#1f77b4"
_PREDICTED_COLOR = "#ff7f0e"


def _step_path(stages, indices, x0, y0, dx, dy) -> str:
    parts = []
    prev_idx = None
    for stage, idx in zip(stages, indices):
        level = _HYPNO_LEVEL[StageLabel(int(stage))]
        x = x0 + idx * dx
        y = y0 + level * dy
        if prev_idx is None or idx != prev_idx + 1:
            parts.append(f"M {x:.2f} {y:.2f}")
        else:
            parts.append(f"L {x:.2f} {y:.2f}")
        parts.append(f"L {x + dx:.2f} {y:.2f}")
        prev_idx = idx
    return " ".join(parts)


def hypnogram_svg(predicted, indices=None, reference=None,
                  title: str = "Hypnogram") -> str:
    """Stage-versus-time step plot; optional reference track for comparison."""
    predicted = list(predicted)
    if indices is None:
        indices = list(range(len(predicted)))
    indices = [int(i) for i in indices]
    width, height = 960.0, 240.0
    margin_l, margin_r, margin_t, margin_b = 70.0, 20.0, 30.0, 30.0
    span = max(max(indices) + 1, 1)
    dx = (width - margin_l - margin_r) / span
    dy = (height - margin_t - margin_b) / 4.0

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{escape(title, quote=False)}</text>',
    ]
    for stage, level in _HYPNO_LEVEL.items():
        y = margin_t + level * dy
        lines.append(f'<line x1="{margin_l:.2f}" y1="{y:.2f}" x2="{width - margin_r:.2f}" '
                     f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        lines.append(f'<text x="{margin_l - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{stage.name}</text>')
    if reference is not None:
        ref_path = _step_path(reference, indices, margin_l, margin_t, dx, dy)
        lines.append(f'<path d="{ref_path}" fill="none" stroke="{_REFERENCE_COLOR}" '
                     f'stroke-width="2.0" opacity="0.9"/>')
    pred_path = _step_path(predicted, indices, margin_l, margin_t, dx, dy)
    lines.append(f'<path d="{pred_path}" fill="none" stroke="{_PREDICTED_COLOR}" '
                 f'stroke-width="1.4" opacity="0.9"/>')
    legend_y = height - 8
    lines.append(f'<text x="{margin_l:.2f}" y="{legend_y:.2f}" font-family="sans-serif" '
                 f'font-size="11" fill="{_PREDICTED_COLOR}">predicted</text>')
    if reference is not None:
        lines.append(f'<text x="{margin_l + 80:.2f}" y="{legend_y:.2f}" font-family="sans-serif" '
                     f'font-size="11" fill="{_REFERENCE_COLOR}">reference</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def confusion_heatmap_svg(cm: ConfusionMatrix) -> str:
    """5x5 heatmap in the published layout; shade = share of the true-stage row."""
    cell = 64.0
    margin_l, margin_t = 80.0, 60.0
    width = margin_l + 5 * cell + 20
    height = margin_t + 5 * cell + 20
    rows = cm.counts
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">Confusion matrix</text>',
    ]
    for j, col_stage in enumerate(DISPLAY_COL_ORDER):
        x = margin_l + j * cell + cell / 2
        lines.append(f'<text x="{x:.2f}" y="{margin_t - 10:.2f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{col_stage.name}</text>')
    for i, row_stage in enumerate(DISPLAY_ROW_ORDER):
        y = margin_t + i * cell + cell / 2
        lines.append(f'<text x="{margin_l - 10:.2f}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{row_stage.name}</text>')
        row_total = int(rows[int(row_stage), :].sum())
        for j, col_stage in enumerate(DISPLAY_COL_ORDER):
            count = int(rows[int(row_stage), int(col_stage)])
            share = count / row_total if row_total else 0.0
            x = margin_l + j * cell
            lines.append(
                f'<rect x="{x:.2f}" y="{margin_t + i * cell:.2f}" width="{cell:.0f}" '
                f'height="{cell:.0f}" fill="#1f77b4" fill-opacity="{share:.4f}" '
                f'stroke="#888888" stroke-width="0.5"/>')
            text_fill = "#ffffff" if share > 0.5 else "#000000"
            lines.append(
                f'<text x="{x + cell / 2:.2f}" y="{margin_t + i * cell + cell / 2 + 4:.2f}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="11" '
                f'fill="{text_fill}">{count}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
