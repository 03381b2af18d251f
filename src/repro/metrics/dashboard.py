"""Zero-dependency static HTML comparison dashboard.

``repro-sim metrics dashboard --out report.html`` renders one self-contained
file (inline CSS + SVG, no scripts, no external assets) from a
:class:`~repro.metrics.store.MetricsStore`:

* headline stat tiles (runs, series points, scenarios, policies);
* the ingested-runs table;
* a scenario × policy energy pivot with savings vs a baseline policy
  (the paper's Fig. 5/6 comparison shape);
* per-run telemetry sparklines (accuracy and energy over slots) for runs
  that streamed frames into the store.

Rendering follows the project chart conventions: single-hue single-series
sparklines (no legend needed), one axis, thin 2px line marks, text in text
tokens (never series colors), light and dark modes from the same validated
palette via CSS custom properties, and the tables themselves are the
accessibility/table-view channel for every number a sparkline shows.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.metrics.query import headline_pivot, store_summary
from repro.metrics.store import MetricsStore

__all__ = ["render_dashboard", "write_dashboard"]

_STYLE = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;      /* chart surface */
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --gridline: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --series-1: #2a78d6;       /* categorical slot 1 (blue) */
  --delta-good: #006300;     /* success text */
  --delta-bad: #d03b3b;      /* status critical */
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --gridline: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --series-1: #3987e5;
    --delta-good: #0ca30c;
    --delta-bad: #d03b3b;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif; font-size: 14px;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.subtitle { color: var(--text-secondary); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 120px;
}
.tile .value { font-size: 24px; font-weight: 600; }
.tile .label { color: var(--text-secondary); font-size: 12px; }
table {
  border-collapse: collapse; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 8px; width: 100%;
}
th, td { padding: 6px 10px; text-align: left; border-bottom: 1px solid var(--gridline); }
th { color: var(--text-secondary); font-weight: 600; font-size: 12px; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
tr:last-child td { border-bottom: none; }
.delta-good { color: var(--delta-good); }
.delta-bad { color: var(--delta-bad); }
.empty { color: var(--text-secondary); font-style: italic; }
.spark { vertical-align: middle; }
.spark polyline { fill: none; stroke: var(--series-1); stroke-width: 2; stroke-linejoin: round; }
.spark circle { fill: var(--series-1); }
.spark line.base { stroke: var(--baseline); stroke-width: 1; }
.mono { font-family: ui-monospace, monospace; font-size: 12px; }
footer { margin-top: 32px; color: var(--muted); font-size: 12px; }
"""


def _fmt(value: Any, digits: int = 3) -> str:
    if value is None:
        return "–"
    if isinstance(value, float):
        return f"{value:,.{digits}f}"
    return str(value)


def _sparkline(
    points: Sequence[Tuple[float, float]],
    label: str,
    width: int = 160,
    height: int = 36,
) -> str:
    """One inline-SVG single-series line (2px stroke, end-point marker)."""
    if len(points) < 2:
        return '<span class="empty">n/a</span>'
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    pad = 4.0
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return pad + (width - 2 * pad) * (x - x_lo) / x_span

    def sy(y: float) -> float:
        return height - pad - (height - 2 * pad) * (y - y_lo) / y_span

    path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    tooltip = html.escape(
        f"{label}: min {y_lo:g}, max {y_hi:g}, last {ys[-1]:g} ({len(points)} points)"
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" role="img" '
        f'aria-label="{tooltip}"><title>{tooltip}</title>'
        f'<line class="base" x1="{pad}" y1="{height - pad}" '
        f'x2="{width - pad}" y2="{height - pad}"></line>'
        f'<polyline points="{path}"></polyline>'
        f'<circle cx="{sx(xs[-1]):.1f}" cy="{sy(ys[-1]):.1f}" r="3"></circle>'
        "</svg>"
    )


def _tile(value: Any, label: str) -> str:
    return (
        f'<div class="tile"><div class="value">{html.escape(_fmt(value, 0))}</div>'
        f'<div class="label">{html.escape(label)}</div></div>'
    )


def _runs_table(rows: List[Dict[str, Any]]) -> str:
    if not rows:
        return '<p class="empty">No runs ingested yet — pass a store to a suite, '\
               "a scenario runner, or the service to populate it.</p>"
    headers = (
        "spec", "scenario", "policy", "seed", "shards", "version",
        "energy (kJ)", "accuracy", "updates", "mean Q(t)", "wall (s)", "CO2 (g)",
    )
    body = []
    for row in rows:
        cells = [
            f'<td class="mono">{html.escape(str(row["spec_hash"])[:10])}</td>',
            f"<td>{html.escape(str(row.get('scenario') or row.get('label') or ''))}</td>",
            f"<td>{html.escape(str(row.get('policy') or ''))}</td>",
            f'<td class="num">{_fmt(row.get("seed"), 0)}</td>',
            f'<td class="num">{_fmt(row.get("shards"), 0)}</td>',
            f"<td>{html.escape(str(row.get('repro_version') or ''))}</td>",
            f'<td class="num">{_fmt(row.get("energy_kj"))}</td>',
            f'<td class="num">{_fmt(row.get("final_accuracy"), 4)}</td>',
            f'<td class="num">{_fmt(row.get("num_updates"), 0)}</td>',
            f'<td class="num">{_fmt(row.get("mean_queue_length"))}</td>',
            f'<td class="num">{_fmt(row.get("wall_time_s"))}</td>',
            f'<td class="num">{_fmt(row.get("carbon_g"))}</td>',
        ]
        body.append("<tr>" + "".join(cells) + "</tr>")
    head = "".join(
        f'<th{" class=num" if "(" in h or h in ("seed", "shards") else ""}>'
        f"{html.escape(h)}</th>"
        for h in headers
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{''.join(body)}</tbody></table>"


def _pivot_table(store: MetricsStore, baseline_policy: str) -> str:
    pivot = headline_pivot(store, metric="energy_kj")
    if not pivot:
        return '<p class="empty">No runs to compare.</p>'
    policies = sorted({policy for cell in pivot.values() for policy in cell})
    if baseline_policy in policies:  # baseline column leads
        policies.remove(baseline_policy)
        policies.insert(0, baseline_policy)
    head = "<th>scenario</th>" + "".join(
        f'<th class="num">{html.escape(p)} (kJ)</th>' for p in policies
    )
    body = []
    for scenario in sorted(pivot):
        cells = [f"<td>{html.escape(scenario)}</td>"]
        baseline = pivot[scenario].get(baseline_policy)
        for policy in policies:
            value = pivot[scenario].get(policy)
            if value is None:
                cells.append('<td class="num">–</td>')
                continue
            delta = ""
            if baseline and policy != baseline_policy:
                saving = 100.0 * (1.0 - value / baseline)
                cls = "delta-good" if saving >= 0 else "delta-bad"
                arrow = "▼" if saving >= 0 else "▲"
                delta = (
                    f' <span class="{cls}">{arrow}\N{NO-BREAK SPACE}'
                    f"{abs(saving):.1f}%</span>"
                )
            cells.append(f'<td class="num">{_fmt(value)}{delta}</td>')
        body.append("<tr>" + "".join(cells) + "</tr>")
    note = (
        f'<p class="subtitle">Energy per scenario; ▼/▲ = saving/excess vs the '
        f"<b>{html.escape(baseline_policy)}</b> baseline (icon + value, not "
        f"color alone).</p>"
    )
    return (
        f"{note}<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


def _series_section(store: MetricsStore, rows: List[Dict[str, Any]], cap: int = 12) -> str:
    blocks = []
    for row in rows:
        series = store.series(row["spec_hash"])
        if not series:
            continue
        name = row.get("scenario") or row.get("label") or row["spec_hash"][:10]
        cells = [
            f"<td>{html.escape(str(name))}</td>",
            f"<td>{html.escape(str(row.get('policy') or ''))}</td>",
        ]
        for metric in ("accuracy", "energy_j", "queue_length"):
            points = series.get(metric) or []
            cells.append(f"<td>{_sparkline(points, f'{name} {metric} by slot')}</td>")
        blocks.append("<tr>" + "".join(cells) + "</tr>")
        if len(blocks) >= cap:
            break
    if not blocks:
        return (
            '<p class="empty">No streamed telemetry yet — service jobs with a '
            "metrics store attached fill this section.</p>"
        )
    head = (
        "<th>run</th><th>policy</th><th>accuracy / slot</th>"
        "<th>energy (J) / slot</th><th>Q(t) / slot</th>"
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{''.join(blocks)}</tbody></table>"


def render_dashboard(
    store: Optional[MetricsStore] = None,
    title: str = "repro-sim metrics",
    baseline_policy: str = "immediate",
) -> str:
    """The full dashboard as one self-contained HTML string."""
    sections: List[str] = []
    if store is not None:
        counts = store_summary(store)
        tiles = [
            _tile(counts["runs"], "runs"),
            _tile(counts["series_points"], "series points"),
            _tile(len(counts["scenarios"]), "scenarios"),
            _tile(len(counts["policies"]), "policies"),
        ]
        sections.append(f'<div class="tiles">{"".join(tiles)}</div>')
        rows = store.runs()
        sections.append("<h2>Policy × scenario energy</h2>")
        sections.append(_pivot_table(store, baseline_policy))
        sections.append("<h2>Ingested runs</h2>")
        sections.append(_runs_table(rows))
        sections.append("<h2>Streamed telemetry</h2>")
        sections.append(_series_section(store, rows))
    else:
        sections.append('<p class="empty">No metrics store given.</p>')
    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{html.escape(title)}</title>\n"
        f"<style>{_STYLE}</style></head>\n"
        f"<body><h1>{html.escape(title)}</h1>\n"
        '<p class="subtitle">Derived observability data — read-only over the '
        "deterministic simulation core.</p>\n"
        f"{body}\n"
        "<footer>Generated by <code>repro-sim metrics dashboard</code>; every "
        "chart value also appears in its table (the table view).</footer>\n"
        "</body></html>\n"
    )


def write_dashboard(
    out: Union[str, Path],
    store: Optional[MetricsStore] = None,
    title: str = "repro-sim metrics",
    baseline_policy: str = "immediate",
) -> Path:
    """Render and write the dashboard; returns the output path."""
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        render_dashboard(
            store=store,
            title=title,
            baseline_policy=baseline_policy,
        ),
        encoding="utf-8",
    )
    return out
