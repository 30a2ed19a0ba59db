import json

import numpy as np
import pytest

from spinmix import (
    ModelFormatError,
    ModelSpec,
    SpeciesSet,
    build_finite_model,
    loads_model,
    dumps_model,
    model_hash,
    sk_model,
    two_species_quadratic_model,
)
from spinmix.model import load_model

from conftest import MODELS_DIR


def test_round_trip():
    m = two_species_quadratic_model()
    again = loads_model(dumps_model(m))
    assert again.species.names == m.species.names
    assert np.allclose(again.species.lam, m.species.lam)
    assert again.mixture == m.mixture


def test_shipped_fixtures_load():
    for name in ("sk", "pure3", "pure4", "two_species_quadratic"):
        model = load_model(MODELS_DIR / f"{name}.json")
        assert model.xi1() > 0.0


def test_missing_lambda_names_the_field():
    doc = {"species": [{"name": "a"}], "terms": [{"degrees": {"a": 2}, "delta_sq": 1.0}]}
    with pytest.raises(ModelFormatError, match="species\\[0\\].*lambda"):
        loads_model(json.dumps(doc))
    # a JSON boolean or string is not a number, though float() would take it
    for lam, delta_sq, field in ((True, 1.0, "species\\[0\\].lambda"),
                                 ("1.0", 1.0, "species\\[0\\].lambda"),
                                 (1.0, "0.5", "terms\\[0\\].delta_sq"),
                                 (1.0, False, "terms\\[0\\].delta_sq")):
        doc = {"species": [{"name": "a", "lambda": lam}],
               "terms": [{"degrees": {"a": 2}, "delta_sq": delta_sq}]}
        with pytest.raises(ModelFormatError, match=field):
            loads_model(json.dumps(doc))


def test_non_finite_lambda_names_species():
    # json parses NaN and Infinity; a sum check alone lets a single NaN through
    for lam in (float("nan"), float("inf")):
        doc = {"species": [{"name": "a", "lambda": lam}],
               "terms": [{"degrees": {"a": 2}, "delta_sq": 1.0}]}
        with pytest.raises(ModelFormatError, match="species: proportions must be finite"):
            loads_model(json.dumps(doc))


def test_missing_terms_field():
    with pytest.raises(ModelFormatError, match="terms"):
        loads_model(json.dumps({"species": [{"name": "a", "lambda": 1.0}]}))


def test_unknown_species_in_term():
    doc = {
        "species": [{"name": "a", "lambda": 1.0}],
        "terms": [{"degrees": {"zz": 2}, "delta_sq": 1.0}],
    }
    with pytest.raises(ModelFormatError, match="unknown species 'zz'"):
        loads_model(json.dumps(doc))


def test_negative_degree_rejected():
    # true would pass an isinstance(d, int) check as degree 1
    for degree in (-1, True, "2", 2.0):
        doc = {
            "species": [{"name": "a", "lambda": 1.0}],
            "terms": [{"degrees": {"a": degree}, "delta_sq": 1.0}],
        }
        with pytest.raises(ModelFormatError, match="degrees\\['a'\\]"):
            loads_model(json.dumps(doc))


def test_duplicate_terms_accumulate():
    doc = {
        "species": [{"name": "a", "lambda": 1.0}],
        "terms": [
            {"degrees": {"a": 2}, "delta_sq": 0.25},
            {"degrees": {"a": 2}, "delta_sq": 0.75},
        ],
    }
    model = loads_model(json.dumps(doc))
    assert model.mixture.terms() == {(2,): 1.0}


def test_invalid_json_reported():
    with pytest.raises(ModelFormatError, match="invalid JSON"):
        loads_model("{not json")


def test_model_hash_distinguishes_models():
    two = two_species_quadratic_model()
    lam_40_60 = ModelSpec(SpeciesSet(two.species.names, np.array([0.4, 0.6])), two.mixture)
    for a, b in ((sk_model(), two), (two, lam_40_60)):  # the second pair differs in lam only
        assert model_hash(a) != model_hash(b)
        assert a != b
        assert build_finite_model(a, 30) != build_finite_model(b, 30)
    for m in (sk_model(), two, lam_40_60):
        # equal by value, as after a file round trip
        again = loads_model(dumps_model(m))
        assert model_hash(again) == model_hash(m)
        assert again == m
        assert build_finite_model(again, 30) == build_finite_model(m, 30)
