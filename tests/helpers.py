"""Plain helpers shared by test modules (fixtures live in conftest.py)."""

import json


def load_results(path) -> dict:
    """A results record, evaluation or checkpoint as the JSON it holds."""
    with open(path) as fh:
        return json.load(fh)
