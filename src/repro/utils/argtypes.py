"""argparse value types shared by the ``repro-experiments`` and
``repro-serve`` command lines."""

from __future__ import annotations

import argparse
from typing import Any, Callable


def number_arg(
    kind: Callable[[str], Any], flag: str, ok: Callable[[Any], bool], what: str
) -> Callable[[str], Any]:
    """argparse type: ``kind(text)`` if ``ok`` holds for it, else the usage
    error ``"{flag} must be {what}"`` (exit 2).  NaN fails ``ok``'s
    comparisons, so it is rejected too."""

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{flag} must be {what}, got {text!r}")
        return value

    return parse
