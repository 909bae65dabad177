"""Reading the JSON files slicekit is given: the config, model dims and scene files."""

from __future__ import annotations

import json


def load_json_file(path: str):
    """The parsed content of a JSON file; a file that is not valid JSON is a ValueError naming the file."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as e:  # JSONDecodeError, or UnicodeDecodeError for a file that is not text
            raise ValueError(f"{path}: not valid JSON ({e})") from None
