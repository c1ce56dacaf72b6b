"""README.md names only what the package has."""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

from smotekit.data import Dataset
from smotekit.distance import VdmTable
from smotekit.resample import SmoteParams, smote, smote_n, smote_nc

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


def test_resampling_surface_is_pinned():
    """The settable values README documents, and no more: adding a knob
    means editing this test and README.md together."""
    fields = [f.name for f in dataclasses.fields(SmoteParams)]
    assert fields == ["n_percent", "seed", "gap_mode", "neighbor_mode"]
    with pytest.raises(TypeError):
        SmoteParams(200, 5)  # seed is keyword-only
    names = {
        tuple(inspect.signature(fn).parameters) for fn in (smote, smote_nc, smote_n)
    }
    assert names == {("minority", "params", "neighbors", "rng")}
    assert [f.name for f in dataclasses.fields(VdmTable)] == ["counts"]
    assert tuple(inspect.signature(Dataset.__init__).parameters) == (
        "self", "schema", "columns", "minority", "minority_token", "majority_token"
    )
