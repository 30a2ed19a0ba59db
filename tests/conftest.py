import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from spinmix import (
    Mixture,
    ModelSpec,
    SpeciesSet,
    pure_model,
    sk_model,
    two_species_quadratic_model,
)

MODELS_DIR = Path(__file__).parent.parent / "models"
SCRIPTS_DIR = Path(__file__).parent.parent / "scripts"


def load_script(name: str):
    """The module scripts/<name>.py, imported from its file."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def sk() -> ModelSpec:
    return sk_model()


@pytest.fixture
def pure3() -> ModelSpec:
    return pure_model(3)


@pytest.fixture
def pure4() -> ModelSpec:
    return pure_model(4)


@pytest.fixture
def two_quad() -> ModelSpec:
    return two_species_quadratic_model()


@pytest.fixture
def cubic_two_species() -> ModelSpec:
    """Two-species cubic mixture satisfying positivity off the origin."""
    return ModelSpec(
        SpeciesSet(("a", "b"), np.array([0.6, 0.4])),
        Mixture.from_terms(
            ("a", "b"),
            {(2, 0): 0.7, (0, 2): 0.3, (1, 1): 0.5, (2, 1): 0.9, (3, 0): 0.2},
        ),
    )


@pytest.fixture
def cross_only() -> ModelSpec:
    """Two species coupled only through the (1,1) term; positivity fails."""
    return ModelSpec(
        SpeciesSet(("a", "b"), np.array([0.5, 0.5])),
        Mixture.from_terms(("a", "b"), {(1, 1): 1.0}),
    )


@pytest.fixture
def three_species_equal() -> ModelSpec:
    """Three species in equal proportions with cubic and quartic terms; its
    r1 r2 r3 term couples all three, so no species is a pivot and its
    quadrature sums the full n^3 grid; at N = 3200 it needs 257 nodes per
    axis."""
    names = ("a", "b", "c")
    return ModelSpec(
        SpeciesSet(names, np.full(3, 1.0 / 3.0)),
        Mixture.from_terms(names, {
            (2, 0, 0): 1.0, (0, 2, 0): 0.8, (0, 0, 2): 0.6, (1, 1, 0): 0.5, (0, 1, 1): 0.4,
            (3, 0, 0): 0.7, (1, 1, 1): 0.5, (0, 0, 4): 0.9,
        }),
    )


@pytest.fixture
def chain_three_species() -> ModelSpec:
    """Three species coupled in a chain through the middle one, so its
    quadrature eliminates species in O(n^2); at N = 12800 it needs 513 nodes
    per axis."""
    names = ("a", "b", "c")
    return ModelSpec(
        SpeciesSet(names, np.array([0.3, 0.4, 0.3])),
        Mixture.from_terms(names, {
            (2, 0, 0): 1.0, (0, 2, 0): 0.8, (0, 0, 2): 0.6, (1, 1, 0): 0.5, (0, 1, 1): 0.4,
            (2, 1, 0): 0.6, (0, 1, 2): 0.3, (0, 4, 0): 0.5,
        }),
    )


def random_mixture(rng: np.random.Generator, n_species: int, max_total: int = 4) -> Mixture:
    names = ("a", "b", "c")[:n_species]
    terms = {}
    for _ in range(int(rng.integers(1, 5))):
        while True:
            degs = tuple(int(d) for d in rng.integers(0, max_total + 1, size=n_species))
            if 2 <= sum(degs) <= max_total:
                break
        terms[degs] = terms.get(degs, 0.0) + float(rng.uniform(0.1, 2.0))
    return Mixture.from_terms(names, terms)


def random_model(rng: np.random.Generator, n_species: int, max_total: int = 4) -> ModelSpec:
    names = ("a", "b", "c")[:n_species]
    if n_species == 1:
        lam = np.array([1.0])
    else:
        w = rng.uniform(0.2, 0.8, size=n_species)
        lam = w / w.sum()
    return ModelSpec(SpeciesSet(names, lam), random_mixture(rng, n_species, max_total))


def watched(monkeypatch, *targets):
    """Patch each (owner, name), an attribute of a module or a class, to
    record, per name, the threads that call it; returns those sets and the
    live-thread count at every call."""
    idents, counts = {}, []
    for owner, name in targets:
        def watch(*args, _name=name, _original=getattr(owner, name), **kwargs):
            counts.append(threading.active_count())
            idents.setdefault(_name, set()).add(threading.get_ident())
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, watch)
    return idents, counts
