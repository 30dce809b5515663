"""Duration formatting for human-readable reports."""

from __future__ import annotations


def format_seconds(seconds: float) -> str:
    """Render a duration in a human-friendly unit (ns/us/ms/s/min).

    Examples
    --------
    >>> format_seconds(0.0042)
    '4.2ms'
    >>> format_seconds(300.0)
    '5.0min'
    """
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    if seconds < 1e-6:
        return f"{seconds * 1e9:.1f}ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 120.0:
        return f"{seconds:.2f}s"
    return f"{seconds / 60.0:.1f}min"
