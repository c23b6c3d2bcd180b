"""Plot export: simple SVG line charts of a bench report.

SVG output is generated directly (polylines on a fixed 720x480 canvas) so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

from swerom.bench import RunReport

__all__ = ["emit_plot_data", "svg_line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#e377c2", "#7f7f7f")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        return [10.0 ** e for e in range(math.floor(math.log10(lo)),
                                         math.ceil(math.log10(hi)) + 1)]
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 4)) if span > 0 else 1.0
    start = math.floor(lo / step) * step
    out = []
    t = start
    while t <= hi + 0.5 * step:
        if t >= lo - 0.5 * step:
            out.append(t)
        t += step
    return out


def svg_line_plot(series: list[tuple[str, list[float], list[float]]], path,
                  title: str = "", xlabel: str = "", ylabel: str = "",
                  logx: bool = False, logy: bool = False) -> None:
    """Write a fixed-size SVG with one polyline per (label, xs, ys) series."""
    if not series:
        raise ValueError("nothing to plot")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if logx:
        xs_all = [x for x in xs_all if x > 0]
    if logy:
        ys_all = [y for y in ys_all if y > 0]
    if not xs_all or not ys_all:
        raise ValueError("no positive data for logarithmic axes")

    def span(vals, log):
        lo, hi = min(vals), max(vals)
        if lo == hi:
            pad = abs(lo) * 0.1 + (1e-3 if not log else 0.0)
            lo, hi = lo - pad, hi + pad
            if log:
                lo, hi = lo / 2, hi * 2
        return lo, hi

    x_lo, x_hi = span(xs_all, logx)
    y_lo, y_hi = span(ys_all, logy)

    def sx(x):
        t = ((math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
             if logx else (x - x_lo) / (x_hi - x_lo))
        return _ML + t * (_W - _ML - _MR)

    def sy(y):
        t = ((math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
             if logy else (y - y_lo) / (y_hi - y_lo))
        return _H - _MB - t * (_H - _MT - _MB)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<text x="{_W // 2}" y="24" text-anchor="middle" '
             f'font-family="sans-serif" font-size="15">{title}</text>']
    # axes
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
                 'stroke="black"/>')
    for t in _ticks(x_lo, x_hi, logx):
        if x_lo <= t <= x_hi:
            px = sx(t)
            parts.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" '
                         f'y2="{_H - _MB + 5}" stroke="black"/>')
            parts.append(f'<text x="{px:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
                         f'font-family="sans-serif" font-size="11">{t:g}</text>')
    for t in _ticks(y_lo, y_hi, logy):
        if y_lo <= t <= y_hi:
            py = sy(t)
            parts.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" '
                         'stroke="black"/>')
            parts.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" text-anchor="end" '
                         f'font-family="sans-serif" font-size="11">{t:g}</text>')
    parts.append(f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_H // 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 16 {_H // 2})">{ylabel}</text>')

    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)
                       if (not logx or x > 0) and (not logy or y > 0))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = _MT + 16 * (idx + 1)
        parts.append(f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 120}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MR - 114}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def emit_plot_data(reports: list[RunReport], out_dir,
                   spectra: list[dict] | None = None) -> list[Path]:
    """Write SVG charts: log-log wall clock against mesh size and, when
    given, semilog spectra. The tables behind them are bench's CSV files.
    """
    if not reports:
        raise ValueError("nothing to plot: empty report set")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    by_mode: dict[str, list[RunReport]] = {}
    for rep in reports:
        if rep.status == "ok" and rep.online_s is not None:
            label = rep.mode if rep.m is None else f"{rep.mode} m={rep.m}"
            by_mode.setdefault(label, []).append(rep)
    for stage, stem, column in (("On-line", "online", "online_s"),
                                ("Off-line", "offline", "offline_total_s")):
        series = []
        for label in sorted(by_mode):
            rows = sorted((r for r in by_mode[label] if getattr(r, column) is not None),
                          key=lambda r: r.n)
            if rows:
                series.append((label, [r.n for r in rows], [getattr(r, column) for r in rows]))
        if series:
            path = out / f"{stem}_time_vs_n.svg"
            svg_line_plot(series, path, title=f"{stage} wall clock vs mesh size",
                          xlabel="mesh points n", ylabel="seconds", logx=True, logy=True)
            written.append(path)

    if spectra:
        grids = sorted({row["grid"] for row in spectra})
        for grid_name in grids:
            for kind in ("state", "nonlinear"):
                rows = [r for r in spectra if r["grid"] == grid_name and r["kind"] == kind]
                names = sorted({r["name"] for r in rows})
                series = []
                for name in names:
                    pts = sorted((r for r in rows if r["name"] == name),
                                 key=lambda r: r["index"])
                    series.append((name, [p["index"] for p in pts],
                                   [p["lambda"] for p in pts]))
                if series:
                    path = out / f"spectra_{kind}_{grid_name}.svg"
                    svg_line_plot(series, path,
                                  title=f"Snapshot spectra ({kind}, {grid_name})",
                                  xlabel="mode index", ylabel="eigenvalue",
                                  logy=True)
                    written.append(path)
    if not written:
        raise ValueError("nothing to plot: no successful rows")
    return written
