"""The record types callers build and compare: their repr, equality and
hashing, the frozen ones' cached hash and refusal of assignment, and that
importing the CLI loads no ``dataclasses``."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smotekit
from smotekit.data import Dataset, FeatureSchema
from smotekit.distance import VdmTable
from smotekit.evaluate import ConfusionMatrix, HullVertex, RocCurve, RocPoint
from smotekit.model import ClassifierSpec, TrainedModel
from smotekit.pipeline import ExperimentConfig, ExperimentResult
from smotekit.resample import PlanResult, Provenance, SmoteParams, SyntheticBatch

SCHEMA = FeatureSchema((("x", "continuous"),), "cls")
DATA = Dataset(SCHEMA, [[1.5, 2.5]], [True, False])
BASE = np.array([0])
PROVENANCE = Provenance(BASE, BASE, np.zeros((1, 1)))
BATCH = SyntheticBatch(DATA, PROVENANCE)
MEANS = np.zeros((2, 1))
SPEC_REPR = "ClassifierSpec(kind='naive_bayes', prior_multiplier=1.0, threshold=0.5, command=None)"

# (build an instance, its repr, whether its fields refuse assignment)
CASES = {
    "FeatureSchema": (
        lambda: FeatureSchema((("x", "continuous"), ("c", "nominal")), "cls"),
        "FeatureSchema(features=(('x', 'continuous'), ('c', 'nominal')), class_column='cls')",
        True,
    ),
    "VdmTable": (
        lambda: VdmTable(({"a": (1, 0), "b": (0, 2)},)),
        "VdmTable(counts=({'a': (1, 0), 'b': (0, 2)},))",
        True,
    ),
    "ConfusionMatrix": (
        lambda: ConfusionMatrix(1, 2, 3, 4),
        "ConfusionMatrix(tp=1, fp=2, tn=3, fn=4)",
        True,
    ),
    "RocPoint": (
        lambda: RocPoint(10.0, 20.0, "under=50"),
        "RocPoint(fp_rate=10.0, tp_rate=20.0, tag='under=50')",
        True,
    ),
    "RocCurve": (
        lambda: RocCurve("plain_under", (RocPoint(50.0, 60.0), RocPoint(10.0, 20.0))),
        "RocCurve(family='plain_under', points=(RocPoint(fp_rate=10.0, tp_rate=20.0, tag=''), "
        "RocPoint(fp_rate=50.0, tp_rate=60.0, tag='')))",
        False,
    ),
    "HullVertex": (
        lambda: HullVertex(0.0, 0.0, "anchor", "anchor"),
        "HullVertex(fp_rate=0.0, tp_rate=0.0, family='anchor', tag='anchor')",
        True,
    ),
    "ClassifierSpec": (ClassifierSpec, SPEC_REPR, True),
    "TrainedModel": (
        lambda: TrainedModel(SCHEMA, DATA.intern, (1, 1), (-0.5, -0.5), MEANS, MEANS, []),
        f"TrainedModel(schema={SCHEMA!r}, intern={DATA.intern!r}, class_counts=(1, 1), "
        f"log_priors=(-0.5, -0.5), means={MEANS!r}, variances={MEANS!r}, nominal_loglik=[])",
        False,
    ),
    "SmoteParams": (
        lambda: SmoteParams(200, seed=3),
        "SmoteParams(n_percent=200, seed=3, gap_mode='per-attribute', "
        "neighbor_mode='with-replacement')",
        True,
    ),
    "Provenance": (
        lambda: Provenance(BASE, BASE, np.zeros((1, 1))),
        "Provenance(base_index=array([0]), neighbor_index=array([0]), gaps=array([[0.]]))",
        True,
    ),
    "SyntheticBatch": (
        lambda: SyntheticBatch(DATA, PROVENANCE),
        f"SyntheticBatch(data={DATA!r}, provenance={PROVENANCE!r})",
        False,
    ),
    "PlanResult": (
        lambda: PlanResult(DATA, BATCH, BASE),
        f"PlanResult(dataset={DATA!r}, batch={BATCH!r}, retained_majority=array([0]))",
        False,
    ),
    "ExperimentConfig": (
        lambda: ExperimentConfig(
            families=("smote_under",), over_percents=(100,), under_percents=(50,),
            prior_multipliers=(1,), thresholds=(0.5,),
        ),
        "ExperimentConfig(families=('smote_under',), over_percents=(100,), under_percents=(50,), "
        f"k=5, n_folds=10, seed=0, variant='smote', classifier={SPEC_REPR}, "
        "prior_multipliers=(1,), thresholds=(0.5,), gap_mode='per-attribute', "
        "neighbor_mode='with-replacement', under_basis='pre', include_raw_point=True)",
        False,
    ),
    "ExperimentResult": (
        lambda: ExperimentResult([], {"plain_under": 0.5}, [], {}, {}, "", "tie", [], {}, {}),
        "ExperimentResult(curves=[], aucs={'plain_under': 0.5}, hull=[], hull_counts={}, "
        "family_hull_counts={}, dominant_family='', statement='tie', warnings=[], "
        "cell_sizes={}, config={})",
        False,
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_record_repr_equality_hash_and_assignment(name):
    build, text, frozen = CASES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert repr(a) == text
    assert a == a
    assert a != object()
    if name == "Provenance":  # arrays have no single truth value: identity only
        assert a != b
        assert hash(a) == hash(a)
    else:
        assert a == b
        if not frozen:
            with pytest.raises(TypeError):
                hash(a)
        elif name == "VdmTable":  # the counts are dicts
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
    field = text[len(name) + 1:].split("=", 1)[0]
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        assert repr(a) == text
    else:
        setattr(a, field, getattr(b, field))
        assert getattr(a, field) is getattr(b, field)


def test_experiment_config_round_trips_through_its_dict():
    cfg = ExperimentConfig(
        families=("smote_under", "priors_sweep"),
        classifier=ClassifierSpec(prior_multiplier=2.0, threshold=0.4),
        seed=7,
    )
    raw = cfg.to_dict()
    assert raw["classifier"] == {
        "kind": "naive_bayes", "prior_multiplier": 2.0, "threshold": 0.4, "command": None
    }
    back = ExperimentConfig.from_dict(json.loads(json.dumps(raw)))
    assert back == cfg
    assert json.dumps(back.to_dict()) == json.dumps(raw)


def test_importing_the_cli_loads_no_dataclasses():
    code = "import sys, numpy, smotekit.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(smotekit.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env, timeout=60,
    ).stdout
    assert out == "False\n"


HASHED = [name for name, (_, _, frozen) in CASES.items() if frozen and name != "Provenance"]


@pytest.mark.parametrize("name", HASHED)
def test_frozen_record_hashes_its_values_once(name, monkeypatch):
    build, text, _ = CASES[name]
    a, fresh = build(), build()
    field = a._fields[0]
    if name == "VdmTable":  # the counts are dicts: every call raises
        for _ in range(3):
            with pytest.raises(TypeError):
                hash(a)
    else:
        values = tuple(getattr(a, f) for f in a._fields)
        assert hash(a) == hash(a) == hash(values)
        assert hash(copy.copy(a)) == hash(values)
        assert repr(a) == repr(copy.copy(a)) == text
        assert a == fresh and fresh == a and copy.copy(a) == fresh
        # the second call reads the first one's hash, not the fields
        monkeypatch.setattr(type(a), "_values", None)
        assert hash(a) == hash(values)
        monkeypatch.undo()
    for change in (lambda: setattr(a, field, getattr(fresh, field)), lambda: delattr(a, field)):
        with pytest.raises(AttributeError):
            change()
    assert repr(a) == text


def test_a_pickled_record_hashes_afresh():
    # str hashes differ from process to process: a record pickled by a
    # process with other hashes must not bring its hash along
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = (
        "import pickle, sys; from smotekit.data import FeatureSchema; "
        "s = FeatureSchema((('x', 'nominal'),), 'cls'); hash(s); "
        "sys.stdout.buffer.write(pickle.dumps(s))"
    )
    env = {
        **os.environ,
        "PYTHONHASHSEED": seed,
        "PYTHONPATH": str(Path(smotekit.__file__).resolve().parents[1]),
    }
    blob = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True, env=env, timeout=60
    ).stdout
    schema = pickle.loads(blob)
    assert schema == FeatureSchema((("x", "nominal"),), "cls")
    assert hash(schema) == hash((schema.features, schema.class_column))
