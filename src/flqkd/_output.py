"""CSV and SVG emission with atomic writes.

CSV: '.' decimal separator, configurable significant digits, Unix newlines.
SVG: a minimal static line chart of the table, no interactivity, no external
dependencies; output bytes are a pure function of the data.
"""

from __future__ import annotations

import errno
import math
import os
import tempfile

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def format_value(value, precision: int) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.{precision}g}"


def render_csv(table: dict[str, list], precision: int) -> str:
    """One line per row of a table of equal-length named columns."""
    lines = [",".join(table)]
    for row in zip(*table.values()):
        lines.append(",".join(format_value(v, precision) for v in row))
    return "\n".join(lines) + "\n"


def write_text_atomic(files: dict[str, str]) -> None:
    """Write each text to its path. Every file is staged beside its target
    before any target is replaced, so a failure while staging leaves every
    target as it was; an OSError names the target (filename)."""
    # mkstemp makes the file owner-only; give it the mode open(path, "w")
    # would, which os.replace keeps (the umask is read by setting it)
    umask = os.umask(0o077)
    os.umask(umask)
    staged = {}
    try:
        for path, text in files.items():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            # stage in the destination directory so os.replace stays atomic
            directory = os.path.dirname(os.path.abspath(path)) or "."
            fd, staged[path] = tempfile.mkstemp(dir=directory, prefix=".flqkd-", suffix=".part")
            os.chmod(staged[path], 0o666 & ~umask)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for path, tmp in staged.items():
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in staged.values():
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _ticks_linear(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _ticks_log(lo: float, hi: float) -> list[float]:
    lo_d = math.floor(math.log10(lo))
    hi_d = math.ceil(math.log10(hi))
    ticks = [10.0**d for d in range(int(lo_d), int(hi_d) + 1)]
    return [t for t in ticks if lo <= t <= hi] or [lo, hi]


def render_svg(
    series: list[tuple[str, list[float], list[float]]],
    x_label: str,
    y_label: str,
    log_x: bool = False,
    log_y: bool = False,
    title: str = "",
) -> str:
    width, height = 720.0, 480.0
    left, right, top, bottom = 72.0, 24.0, 36.0, 56.0
    px0, px1 = left, width - right
    py0, py1 = height - bottom, top

    # the points a chart can place: finite, and positive on a log axis
    series = [
        (label, [
            (x, y) for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)
            and not (log_x and x <= 0) and not (log_y and y <= 0)
        ])
        for label, xs, ys in series
    ]
    points = [p for _, placed in series for p in placed]
    if not points:
        points = [(0.0, 0.0), (1.0, 1.0)]
    x_lo = min(p[0] for p in points)
    x_hi = max(p[0] for p in points)
    y_lo = min(p[1] for p in points)
    y_hi = max(p[1] for p in points)

    def _expand(lo: float, hi: float, log: bool) -> tuple[float, float]:
        if log:
            return lo, hi
        pad = 0.05 * (hi - lo) or max(abs(lo), 1.0) * 0.05
        return lo - pad, hi + pad

    x_lo, x_hi = _expand(x_lo, x_hi, log_x)
    y_lo, y_hi = _expand(y_lo, y_hi, log_y)

    def sx(x: float) -> float:
        if log_x:
            f = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo) or 1.0)
        else:
            f = (x - x_lo) / ((x_hi - x_lo) or 1.0)
        return px0 + f * (px1 - px0)

    def sy(y: float) -> float:
        if log_y:
            f = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo) or 1.0)
        else:
            f = (y - y_lo) / ((y_hi - y_lo) or 1.0)
        return py0 + f * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{px0:.2f}" y="{py1:.2f}" width="{px1 - px0:.2f}" height="{py0 - py1:.2f}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{(px0 + px1) / 2:.2f}" y="{top - 12:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )

    x_ticks = _ticks_log(x_lo, x_hi) if log_x else _ticks_linear(x_lo, x_hi)
    y_ticks = _ticks_log(y_lo, y_hi) if log_y else _ticks_linear(y_lo, y_hi)
    for t in x_ticks:
        gx = sx(t)
        parts.append(f'<line x1="{gx:.2f}" y1="{py0:.2f}" x2="{gx:.2f}" y2="{py0 + 5:.2f}" stroke="#333"/>')
        parts.append(
            f'<text x="{gx:.2f}" y="{py0 + 20:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.3g}</text>'
        )
    for t in y_ticks:
        gy = sy(t)
        parts.append(f'<line x1="{px0 - 5:.2f}" y1="{gy:.2f}" x2="{px0:.2f}" y2="{gy:.2f}" stroke="#333"/>')
        parts.append(
            f'<text x="{px0 - 8:.2f}" y="{gy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:.3g}</text>'
        )
    parts.append(
        f'<text x="{(px0 + px1) / 2:.2f}" y="{height - 14:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{(py0 + py1) / 2:.2f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 18 {(py0 + py1) / 2:.2f})">{y_label}</text>'
    )

    for idx, (label, placed) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = [f"{sx(x):.2f},{sy(y):.2f}" for x, y in placed]
        if coords:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{" ".join(coords)}"/>'
            )
        ly = top + 16 + 16 * idx
        parts.append(f'<line x1="{px1 - 140:.2f}" y1="{ly:.2f}" x2="{px1 - 116:.2f}" y2="{ly:.2f}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{px1 - 110:.2f}" y="{ly + 4:.2f}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
