"""The one reader of JSON input files: scenario configs, scheme
descriptions and saved run reports."""

from __future__ import annotations

import json

from .errors import QbsimError


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path: str, error: type[QbsimError] = QbsimError):
    """The JSON value in the UTF-8 file at `path`. Text that is not JSON
    or not UTF-8, or holds NaN or Infinity, raises `error`; a file that
    cannot be opened raises its `OSError`."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return json.load(fp, parse_constant=_refuse_constant)
        except ValueError as exc:
            raise error(f"{path} is not a JSON file: {exc}") from None
