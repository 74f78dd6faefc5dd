"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md: Library quick tour", "exec"), {"__name__": "quick_tour"})
