"""CSV and SVG emission with atomic writes.

CSV: '.' decimal separator, configurable significant digits, Unix newlines.
SVG: a minimal static line chart of the table, no interactivity, no external
dependencies; output bytes are a pure function of the data.
"""

from __future__ import annotations

import errno
import math
import os

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
    staged = {}
    try:
        for path, text in files.items():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            # stage in the destination directory so os.replace stays atomic
            directory = os.path.dirname(os.path.abspath(path))
            tmp = os.path.join(directory, f".flqkd-{os.urandom(8).hex()}.part")
            # the kernel applies the umask to 0o666, as open(path, "w") does;
            # O_EXCL refuses an existing path, a symlink included
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged[path] = tmp
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


def _ticks_linear(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _ticks_log(lo: float, hi: float) -> list[float]:
    lo_d = math.floor(math.log10(lo))
    hi_d = math.ceil(math.log10(hi))
    ticks = [10.0**d for d in range(int(lo_d), int(hi_d) + 1)]
    return [t for t in ticks if lo <= t <= hi] or [lo, hi]


def _axis(values: list[float], log: bool, p0: float, p1: float):
    """The axis over values, drawn from pixel p0 to p1: its scale (value to
    pixel) and its ticks. A linear axis is padded by 5% of its span. With no
    value an axis spans [0, 1] when linear and [1, 10] when log."""
    if values:
        lo, hi = min(values), max(values)
    else:
        lo, hi = (1.0, 10.0) if log else (0.0, 1.0)
    if not log:
        pad = 0.05 * (hi - lo) or max(abs(lo), 1.0) * 0.05
        lo, hi = lo - pad, hi + pad
    f = math.log10 if log else float
    f_lo = f(lo)
    span = f(hi) - f_lo or 1.0

    def scale(v: float) -> float:
        return p0 + (f(v) - f_lo) / span * (p1 - p0)

    return scale, _ticks_log(lo, hi) if log else _ticks_linear(lo, hi)


def render_svg(
    series: list[tuple[str, list[float], list[float]]],
    x_label: str,
    y_label: str,
    title: str,
    log_x: bool = False,
    log_y: bool = False,
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
    sx, x_ticks = _axis([x for x, _ in points], log_x, px0, px1)
    sy, y_ticks = _axis([y for _, y in points], log_y, py0, py1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{px0:.2f}" y="{py1:.2f}" width="{px1 - px0:.2f}" height="{py0 - py1:.2f}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{(px0 + px1) / 2:.2f}" y="{top - 12:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
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
