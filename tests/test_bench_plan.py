"""The benchmark's trace plan names only functions the package defines."""

import importlib
import json
from pathlib import Path

PLAN = Path(__file__).resolve().parents[1] / "bench" / "plan.json"


def test_traced_functions_resolve():
    layers = json.loads(PLAN.read_text())["layers"]
    names = [name for layer in layers for name in layer["functions"]]
    assert names
    missing = []
    for dotted in names:
        mod_name, attr = dotted.rsplit(".", 1)
        if not hasattr(importlib.import_module("moegeo." + mod_name), attr):
            missing.append(dotted)
    assert missing == []
