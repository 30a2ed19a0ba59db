"""Model definition: species proportions paired with a mixture, plus the
JSON file format used by the CLI and test fixtures.

A model file looks like

    {
      "species": [{"name": "a", "lambda": 0.5}, {"name": "b", "lambda": 0.5}],
      "terms": [{"degrees": {"a": 2}, "delta_sq": 1.0},
                {"degrees": {"a": 1, "b": 1}, "delta_sq": 1.0}]
    }

Missing species in a term's "degrees" default to degree 0, terms with the
same degrees are summed, and every term has total degree >= 2.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .mixture import Mixture, SpeciesSet

__all__ = [
    "ModelSpec",
    "ModelFormatError",
    "load_model",
    "loads_model",
    "dumps_model",
    "model_hash",
    "sk_model",
    "pure_model",
    "two_species_quadratic_model",
]


class ModelFormatError(ValueError):
    """Raised for malformed model documents; the message names the field."""


@dataclass(frozen=True)
class ModelSpec:
    """An asymptotic model: species set plus a base mixture.

    The models studied carry no external field, so every term of a base
    mixture has degree >= 2; this is the one place that rule is stated.
    """

    species: SpeciesSet
    mixture: Mixture

    def __post_init__(self):
        if self.mixture.species != self.species.names:
            raise ValueError(
                f"mixture species {self.mixture.species} do not match "
                f"species set {self.species.names}"
            )
        low = self.mixture.exponents[self.mixture.exponents.sum(axis=1) < 2]
        if len(low):
            raise ValueError(f"term {tuple(low[0].tolist())} has degree below 2: "
                             "base models carry no external field")

    @property
    def n_species(self) -> int:
        return self.species.n

    def xi1(self) -> float:
        return self._xi1

    @cached_property
    def _xi1(self) -> float:
        """xi(1), computed on first use and kept with the model."""
        return float(self.mixture.eval(1.0))


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ModelFormatError(f"{where}: missing field '{key}'")
    return doc[key]


def _number(value, where: str) -> float:
    # JSON true/false load as bool, which is an int subclass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_model(doc) -> ModelSpec:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    species_doc = _require(doc, "species", "model")
    terms_doc = _require(doc, "terms", "model")
    if not isinstance(species_doc, list) or not species_doc:
        raise ModelFormatError("species: expected a non-empty array")
    names, lams = [], []
    for i, entry in enumerate(species_doc):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"species[{i}]: expected an object")
        names.append(str(_require(entry, "name", f"species[{i}]")))
        lams.append(_number(_require(entry, "lambda", f"species[{i}]"), f"species[{i}].lambda"))
    try:
        species = SpeciesSet(tuple(names), np.array(lams))
    except ValueError as exc:
        raise ModelFormatError(f"species: {exc}") from exc

    if not isinstance(terms_doc, list) or not terms_doc:
        raise ModelFormatError("terms: expected a non-empty array")
    index = {name: k for k, name in enumerate(names)}
    terms: dict[tuple[int, ...], float] = {}
    for i, entry in enumerate(terms_doc):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"terms[{i}]: expected an object")
        degrees_doc = _require(entry, "degrees", f"terms[{i}]")
        delta_sq = _require(entry, "delta_sq", f"terms[{i}]")
        if not isinstance(degrees_doc, dict):
            raise ModelFormatError(f"terms[{i}].degrees: expected an object")
        degrees = [0] * len(names)
        for name, d in degrees_doc.items():
            if name not in index:
                raise ModelFormatError(f"terms[{i}].degrees: unknown species '{name}'")
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise ModelFormatError(
                    f"terms[{i}].degrees['{name}']: expected a nonnegative integer, got {d!r}"
                )
            degrees[index[name]] = d
        delta_sq = _number(delta_sq, f"terms[{i}].delta_sq")
        key = tuple(degrees)
        terms[key] = terms.get(key, 0.0) + delta_sq
    try:
        mixture = Mixture.from_terms(tuple(names), terms)
        return ModelSpec(species, mixture)
    except ValueError as exc:
        raise ModelFormatError(f"terms: {exc}") from exc


def loads_model(text: str) -> ModelSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    return _parse_model(doc)


def load_model(path) -> ModelSpec:
    return loads_model(Path(path).read_text())


def _canonical_doc(model: ModelSpec) -> dict:
    return {
        "species": [
            {"name": name, "lambda": float(lam)}
            for name, lam in zip(model.species.names, model.species.lam)
        ],
        "terms": [
            {
                "degrees": {
                    name: int(d)
                    for name, d in zip(model.species.names, row)
                    if int(d) > 0
                },
                "delta_sq": float(c),
            }
            for row, c in zip(model.mixture.exponents, model.mixture.coeffs)
        ],
    }


def dumps_model(model: ModelSpec) -> str:
    return json.dumps(_canonical_doc(model), indent=2, sort_keys=True) + "\n"


def model_hash(model: ModelSpec) -> str:
    """Stable content hash of the canonical serialized form."""
    canon = json.dumps(_canonical_doc(model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# canonical fixtures


def sk_model() -> ModelSpec:
    """Single species, xi(x) = x^2."""
    return ModelSpec(
        SpeciesSet(("a",), np.array([1.0])),
        Mixture.from_terms(("a",), {(2,): 1.0}),
    )


def pure_model(p: int, delta_sq: float = 1.0) -> ModelSpec:
    """Single species, xi(x) = delta_sq * x^p."""
    return ModelSpec(
        SpeciesSet(("a",), np.array([1.0])),
        Mixture.from_terms(("a",), {(p,): float(delta_sq)}),
    )


def two_species_quadratic_model() -> ModelSpec:
    """lambda = (1/2, 1/2) with unit coefficients on (2,0), (0,2), (1,1)."""
    return ModelSpec(
        SpeciesSet(("a", "b"), np.array([0.5, 0.5])),
        Mixture.from_terms(("a", "b"), {(2, 0): 1.0, (0, 2): 1.0, (1, 1): 1.0}),
    )
