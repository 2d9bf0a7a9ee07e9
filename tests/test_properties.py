"""Invariants of the rate kernels on small random models (hypothesis)."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphonon import (
    CouplingSet,
    Lineshape,
    Model,
    ModelSpec,
    PhononBath,
    SignPattern,
    SpinSystem,
    bose_occupation,
    generate_model,
    prune_triples,
    rate_at_order,
    relative_deviation,
    sign_patterns,
    with_coupling_scale,
)
from spinphonon import rates

from conftest import hermitian, per_tuple

FEW = settings(max_examples=15, deadline=None)


@st.composite
def small_models(draw):
    """A model of at most 3 states and 12 modes with one ordered transition."""
    n_states = draw(st.integers(2, 3))
    model = generate_model(ModelSpec(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_states=n_states,
        n_modes=draw(st.integers(3, 12)),
        gap=draw(st.floats(0.0, 40.0)),
        excited_offset=draw(st.floats(0.0, 80.0)),
        freq_range=(20.0, 150.0),
    ))
    b, a = draw(st.sampled_from(list(itertools.permutations(range(n_states), 2))))
    return model, b, a


shapes = st.builds(
    Lineshape,
    kind=st.sampled_from(["gaussian", "lorentzian"]),
    sigma=st.floats(2.0, 30.0),
    eta=st.floats(0.1, 3.0),
)


@FEW
@given(drawn=small_models(), shape=shapes, temperature=st.floats(5.0, 1000.0))
def test_every_channel_is_nonnegative(drawn, shape, temperature):
    model, b, a = drawn
    for order in (2, 4, 6):
        bd = rate_at_order(order, b, a, *model, temperature, shape)
        assert all(v >= 0.0 for v in bd.per_channel.values())


@FEW
@given(drawn=small_models(), shape=shapes, lam=st.floats(0.05, 20.0))
def test_scale_point_equals_the_rescaled_model(drawn, shape, lam):
    model, b, a = drawn
    scaled = with_coupling_scale(model, lam)
    for order in (2, 4, 6):
        (point,) = rate_at_order(order, b, a, *model, 300.0, shape, scales=[lam])
        one = rate_at_order(order, b, a, *scaled, 300.0, shape)
        assert point.per_channel == one.per_channel
        assert point.total == one.total


@FEW
@given(drawn=small_models(), shape=shapes, temperature=st.floats(5.0, 1000.0))
def test_channels_never_decrease_with_the_mode_limit(drawn, shape, temperature):
    model, b, a = drawn
    limits = list(range(model.bath.n_modes + 1))
    for order in (2, 4, 6):
        per_limit = rate_at_order(order, b, a, *model, temperature, shape,
                                  mode_limits=limits)
        for pattern in per_limit[0].per_channel:
            values = [bd.per_channel[pattern] for bd in per_limit]
            assert values[0] == 0.0
            assert all(x <= y for x, y in zip(values, values[1:]))


def mirror(pattern: SignPattern) -> SignPattern:
    return SignPattern(tuple(-s for s in pattern.signs))


@FEW
@given(drawn=small_models(), shape=shapes)
def test_mirror_channels_prune_to_equal_tuples(drawn, shape):
    """Channel s on b <- a and channel -s on a <- b have exactly negated
    mismatches, so they keep the same tuples, in the same chunks."""
    model, b, a = drawn
    omega = model.system.transition_frequency(b, a)
    for pattern in sign_patterns(3):
        assert np.array_equal(prune_triples(omega, pattern, model.bath, shape),
                              prune_triples(-omega, mirror(pattern), model.bath, shape))
    for order in (2, 4, 6):
        for pattern in sign_patterns(order // 2):
            there, back = (list(map(per_tuple, rates._chunks(w, p, model.bath, shape,
                                                             [model.bath.n_modes])))
                           for w, p in ((omega, pattern), (-omega, mirror(pattern))))
            assert len(there) == len(back)
            for (_, sel, d), (_, sel_back, d_back) in zip(there, back):
                assert all(np.array_equal(x, y) for x, y in zip(sel, sel_back))
                assert np.array_equal(d_back, -d)


@st.composite
def degenerate_models(draw):
    """A 2- or 3-state model whose modes all sit at one frequency w."""
    n_states = draw(st.integers(2, 3))
    energies = sorted(draw(st.lists(st.floats(0.0, 300.0), min_size=n_states,
                                    max_size=n_states)))
    n_modes = draw(st.integers(1, 6))
    w = draw(st.floats(20.0, 150.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return w, Model(SpinSystem(energies), PhononBath([w] * n_modes),
                    CouplingSet(hermitian(rng, n_modes, n_states)))


@FEW
@given(drawn=degenerate_models(), shape=shapes, temperature=st.floats(5.0, 1000.0))
def test_one_phonon_detailed_balance(drawn, shape, temperature):
    """Emission on b <- a and absorption on a <- b share |V_ba|^2 and the
    (even) lineshape, so they differ only by (n_w + 1) against n_w."""
    w, model = drawn
    n_w = bose_occupation(w, temperature)
    for b, a in itertools.permutations(range(model.system.n_states), 2):
        emit = rate_at_order(2, b, a, *model, temperature, shape).channel("+")
        absorb = rate_at_order(2, a, b, *model, temperature, shape).channel("-")
        assert relative_deviation(emit * n_w, absorb * (n_w + 1.0)) <= 1e-12
