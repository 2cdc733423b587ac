from almostalg.base_ring import RingConfig
from almostalg.complexes import firmify_perf, mu_perf_map, shift_perf
from almostalg.k0 import (
    K0Class,
    RelationLedger,
    almost_k_surjectivity,
    class_preserves_moves,
    gersten_check,
    k0_class,
    k_ideal_check,
    phi_object,
    projector_firm,
    projector_phi,
    split_check,
)
from almostalg.suites import perf_corpus

import pytest

V2 = RingConfig.perfect(2)


def corpus():
    return perf_corpus(1, 20, (2, 3))


def test_k0_group_laws():
    a = K0Class(V2, 2, -1)
    b = K0Class(V2, -2, 1)
    assert (a + b).is_zero()
    assert a - a == K0Class(V2, 0, 0)
    with pytest.raises(ValueError):
        a + K0Class(RingConfig.perfect(3), 0, 0)


def test_class_alternating_sum():
    for P in corpus():
        c = k0_class(P)
        want_a = sum((1 if d % 2 == 0 else -1) * ab[0]
                     for d, ab in P.mults.items())
        assert c.a == want_a


def test_projectors_sum_to_identity():
    for P in corpus():
        assert projector_firm(P) + projector_phi(P) == k0_class(P)


def test_phi_idempotent_on_classes():
    for P in corpus()[:8]:
        assert projector_phi(phi_object(P)) == projector_phi(P)


def test_split_check_full():
    for P in corpus()[:10]:
        assert split_check(P)


def test_ledger_verifies_and_descends():
    led = RelationLedger()
    for P in corpus()[:8]:
        led.harvest(mu_perf_map(P))
    assert led.verify()
    assert led.projectors_descend()
    assert led.rotations_hold()


def test_class_moves():
    for P in corpus()[:6]:
        assert class_preserves_moves(P)


def test_shift_negates():
    P = corpus()[0]
    assert k0_class(shift_perf(P, 1)) == -k0_class(P)


def test_aperf_surjectivity():
    aperf = [firmify_perf(P) for P in corpus()[:8]]
    assert almost_k_surjectivity(aperf)


def test_k_ideal_and_gersten():
    for p in (2, 3):
        assert k_ideal_check(RingConfig.perfect(p))
        assert k_ideal_check(RingConfig.truncated(p, 2))
        assert gersten_check(RingConfig.perfect(p))
    with pytest.raises(ValueError):
        gersten_check(RingConfig.truncated(2, 1))
