"""README.md names only what the package has."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_dotted_names_resolve():
    """Every backticked ``smotekit.<module>.<name>`` in README.md imports."""
    names = set(re.findall(r"`(smotekit\.\w+(?:\.\w+)+)`", README.read_text("utf-8")))
    assert names, "README.md names no smotekit.<module>.<name>"
    missing = []
    for dotted in sorted(names):
        _, module, *attrs = dotted.split(".")
        obj = importlib.import_module(f"smotekit.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(dotted)
    assert not missing, f"README.md names what smotekit lacks: {missing}"
