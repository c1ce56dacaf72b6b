"""README.md names only what the package has."""

import argparse
import ast
import builtins
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import smotekit
from smotekit import cli, distance, model
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


def test_readme_names_every_public_class():
    """README.md names, as a whole word, every class a smotekit module
    defines at top level without a leading underscore."""
    text = README.read_text("utf-8")
    missing = []
    for info in pkgutil.iter_modules(smotekit.__path__):
        module = importlib.import_module(f"smotekit.{info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and not re.search(rf"(?<!\w){name}(?!\w)", text)
            ):
                missing.append(f"{info.name}.{name}")
    assert not missing, f"README.md does not name: {missing}"


MODULES = [info.name for info in pkgutil.iter_modules(smotekit.__path__)]


def _public_functions(module: str) -> list:
    """The functions ``smotekit.<module>`` defines at top level without a
    leading underscore."""
    namespace = importlib.import_module(f"smotekit.{module}")
    return [
        name for name, obj in vars(namespace).items()
        if inspect.isfunction(obj) and obj.__module__ == namespace.__name__ and not name.startswith("_")
    ]


def _mention(module: str, name: str) -> str:
    """A backticked mention of ``name`` in its dotted form:
    ``smotekit.<module>.name`` or ``smotekit.<module>.name(...``. A bare
    ``name`` does not count, since a generic name such as ``train`` also
    appears as another function's parameter."""
    return rf"`smotekit\.{module}\.{name}[`(]"


def _unnamed_functions(module: str, text: str) -> list:
    return [name for name in _public_functions(module) if not re.search(_mention(module, name), text)]


@pytest.mark.parametrize("module", MODULES)
def test_readme_names_every_public_function(module):
    """README.md names, backticked in its dotted ``smotekit.<module>.<name>``
    form, every function that a smotekit module defines at top level
    without a leading underscore: the package's public surface is what
    README documents."""
    missing = _unnamed_functions(module, README.read_text("utf-8"))
    assert not missing, f"README.md does not name smotekit.{module}: {missing}"


def test_the_function_check_fails_without_each_name():
    """Removing every dotted mention of one documented function from
    README.md makes :func:`test_readme_names_every_public_function` fail
    for it, though its bare name may still be backticked elsewhere."""
    text = README.read_text("utf-8")
    documented = [(module, name) for module in MODULES for name in _public_functions(module)]
    assert documented
    for module, name in documented:
        stripped = re.sub(_mention(module, name), "`", text)
        assert name in _unnamed_functions(module, stripped), f"{module}.{name}"


def test_cli_imports_no_private_name():
    """``cli.py`` is the package's first library user: it imports from the
    other smotekit modules only what README documents."""
    tree = ast.parse(Path(cli.__file__).read_text("utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("smotekit"))
        for alias in node.names
    ]
    assert imported
    private = [f"{module}.{name}" for module, name in imported if name.startswith("_")]
    assert not private, f"cli.py imports private names: {private}"


# CapWords that README backticks for something other than a class
NOT_CLASSES = {"Med"}  # the median of the minority's standard deviations


def test_readme_names_only_classes_that_exist():
    """Every name in CapWords that opens a backticked span of README.md
    (``Dataset``, or ``NcMetric`` of ``NcMetric(schema, med)``) is a class of
    a smotekit module or a builtin one, or is in ``NOT_CLASSES``. All-caps
    words, such as environment variables, are not CapWords."""
    words = set(re.findall(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)", README.read_text("utf-8")))
    namespaces = [builtins] + [
        importlib.import_module(f"smotekit.{info.name}") for info in pkgutil.iter_modules(smotekit.__path__)
    ]
    classes = {name for ns in namespaces for name, obj in vars(ns).items() if inspect.isclass(obj)}
    unknown = sorted(words - classes - NOT_CLASSES)
    assert not unknown, f"README.md names classes smotekit lacks: {unknown}"


def test_resampling_surface_is_pinned():
    """The settable values README documents, and no more: adding a knob
    means editing this test and README.md together."""
    params = inspect.signature(SmoteParams).parameters
    assert list(params) == ["n_percent", "seed", "gap_mode", "neighbor_mode"]
    assert [p.kind for p in params.values()] == [
        inspect.Parameter.POSITIONAL_OR_KEYWORD, *[inspect.Parameter.KEYWORD_ONLY] * 3
    ]
    with pytest.raises(TypeError):
        SmoteParams(200, 5)  # seed is keyword-only
    names = {
        tuple(inspect.signature(fn).parameters) for fn in (smote, smote_nc, smote_n)
    }
    assert names == {("minority", "params", "neighbors", "rng")}
    assert list(inspect.signature(VdmTable).parameters) == ["counts"]
    assert tuple(inspect.signature(Dataset.__init__).parameters) == (
        "self", "schema", "columns", "minority", "minority_token", "majority_token"
    )


def test_readme_names_every_cli_flag():
    """README.md names every long option and every choice of every
    subcommand as a whole word: ``--threshold`` is not found in
    ``--thresholds``."""
    text = README.read_text("utf-8")
    (subcommands,) = [
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    missing = set()
    for name, parser in subcommands.choices.items():
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            words = [o for o in action.option_strings if o.startswith("--")]
            words += list(action.choices or ())
            for word in words:
                if not re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", text):
                    missing.add(f"{name} {word}")
    assert not missing, f"README.md does not name: {sorted(missing)}"


def test_readme_states_the_external_scorer_time_limit():
    text = " ".join(README.read_text("utf-8").split())
    assert f"may take at most {model._SCORER_TIMEOUT_S} seconds" in text


def test_readme_states_the_search_block_size():
    """README.md gives the neighbor search's block as at most
    ``_DIFF_BUDGET`` floats and ``pairwise``'s chunks as at most half of
    it; every other power of two of floats or distances it states is one
    of the two."""
    text = " ".join(README.read_text("utf-8").split())
    (block,) = re.findall(r"asks the metric for a block of at most 2\^(\d+) floats at a time", text)
    assert 2 ** int(block) == distance._DIFF_BUDGET
    (chunk,) = re.findall(r"in row chunks of at most 2\^(\d+) floats", text)
    assert 2 ** int(chunk) == distance._DIFF_BUDGET // 2
    sizes = {2 ** int(n) for n in re.findall(r"2\^(\d+) (?:floats|distances)", text)}
    assert sizes <= {distance._DIFF_BUDGET, distance._DIFF_BUDGET // 2}, sizes
