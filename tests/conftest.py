import numpy as np
import pytest

from spinphonon import (
    CouplingSet,
    Lineshape,
    Model,
    ModelSpec,
    PhononBath,
    SpinSystem,
    generate_model,
    relative_deviation,
)


def max_channel_dev(fast, naive) -> float:
    return max(
        relative_deviation(fast.per_channel[p], naive.per_channel[p])
        for p in fast.per_channel
    )


def per_tuple(chunk):
    """One ``rates._chunks`` chunk as (group, one index array per phonon,
    mismatches), each prefix repeated over its run of ``counts`` tuples."""
    group, prefix, counts, last, mismatch = chunk
    assert np.all(counts >= 1) and counts.sum() == last.size
    return group, tuple(np.repeat(ix, counts) for ix in prefix) + (last,), mismatch


def hermitian(rng: np.random.Generator, n_modes: int, n_states: int) -> np.ndarray:
    raw = rng.normal(size=(n_modes, n_states, n_states)) + 1j * rng.normal(
        size=(n_modes, n_states, n_states)
    )
    return 0.5 * (raw + raw.conj().transpose(0, 2, 1))


def two_level_resonant_model(gap: float = 50.0, v: float = 0.8) -> Model:
    """One mode exactly at the gap; with sigma=10, w=6 only the resonant
    absorb/emit terms survive, so one-phonon detailed balance is exact."""
    system = SpinSystem([0.0, gap])
    bath = PhononBath([gap])
    mat = np.array([[[0.0, v], [v, 0.0]]], dtype=complex)
    return Model(system, bath, CouplingSet(mat))


@pytest.fixture
def shape() -> Lineshape:
    return Lineshape()


@pytest.fixture
def small_model() -> Model:
    return generate_model(ModelSpec(seed=11, n_states=3, n_modes=14))
