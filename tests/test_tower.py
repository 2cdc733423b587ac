from fractions import Fraction

import pytest

import stage_reference
from almostalg import tower
from almostalg.almost import (
    MonomialTower, cokernel_tower, firmify, mu_map)
from almostalg.base_ring import RingConfig
from almostalg.exponents import PExp
from almostalg.linalg import PolyMatrix, reduce_mod
from almostalg.modules import (
    ModuleMap,
    PresentedModule,
    cokernel_map,
    direct_sum,
)
from almostalg.tower import (
    TowerSpec,
    a_n_plus,
    a_n_plus_checks,
    frobenius_iso_check,
    tilt_basis_iso,
    tilting_zigzag_mixed,
    tower_roundtrip,
    verify_lemmaA,
)
from almostalg.polys import poly_add, poly_mul, poly_scale, poly_trim

V2 = RingConfig.perfect(2)
V3 = RingConfig.perfect(3)


def test_frobenius_iso_on_perfect_rings():
    for cfg in (V2, V3, RingConfig.truncated(2, 2), RingConfig.truncated(3, 1)):
        assert frobenius_iso_check(cfg)


def test_frobenius_fails_on_fixed_subring():
    # F_p[t] itself is not perfect: Frobenius is not surjective
    assert not frobenius_iso_check(V2, subring_level=0)
    assert not frobenius_iso_check(V3, subring_level=1)


def test_tilt_basis_tables():
    # x^k = p^(k/p^n) pairs with t^(k/p^n)
    for p in (2, 3):
        for n in (1, 2, 3):
            table = tilt_basis_iso(p, n)
            assert {k: (a.as_fraction(), b.as_fraction())
                    for k, (a, b) in table.items()} == {
                k: (Fraction(k, p ** n),) * 2 for k in range(p ** n)}


def test_tilt_basis_truncation_two():
    table = tilt_basis_iso(2, 2, c=2)
    assert len(table) == 4


def tilt_basis_iso_all_pairs(p, n, c=1):
    """Reference: tilt_basis_iso checking all p^(2n) basis products."""
    N, q = p ** n, p ** c
    basis = [[0] * k + [1] for k in range(N)]
    for a, xa in enumerate(basis):
        for b, xb in enumerate(basis):
            prod_m = tower.mixed_mock_reduce(poly_mul(xa, xb, q), p, n, c)
            prod_m = poly_scale(prod_m, 1, p)
            prod_f = reduce_mod(poly_mul(xa, xb, p), N)
            if a + b < N:
                if prod_m != basis[a + b] or prod_f != basis[a + b]:
                    raise AssertionError(f"product mismatch at ({a},{b})")
            elif prod_m or prod_f:
                raise AssertionError(f"carry products must vanish ({a},{b})")
    return {k: (PExp(p, k, n), PExp(p, k, n)) for k in range(N)}


def _outcome(f, *args):
    try:
        return f(*args)
    except AssertionError:
        return "raises"


def _fold_to_p_plus_one(f, p, n, c):
    """A wrong mixed mock: x^(p^n) folds to p + 1, a unit mod p."""
    N, q = p ** n, p ** c
    while len(f) > N:
        f = poly_add(poly_trim(f[:N]), poly_scale(f[N:], p + 1, q), q)
    return f


@pytest.mark.parametrize("faulty", [False, True])
def test_tilt_basis_iso_agrees_with_all_pairs(faulty, monkeypatch):
    if faulty:
        monkeypatch.setattr(tower, "mixed_mock_reduce", _fold_to_p_plus_one)
    for p in (2, 3, 5):
        for n in (0, 1, 2):
            for c in (1, 2):
                want = _outcome(tilt_basis_iso_all_pairs, p, n, c)
                assert _outcome(tilt_basis_iso, p, n, c) == want, (p, n, c)
                # every table past x^0 has a carry, which the fault keeps
                assert (want == "raises") == (faulty and n > 0)


def test_a_n_plus_shape():
    # A_n^+ = V/(t^n), independent of the stage
    for n in (1, 2):
        for j in (3, 4):
            Q, diag, proj = a_n_plus(1, n, j, V2)
            assert Q.free_rank() == 0
            assert [e.as_fraction() for e in Q.decompose_exponents()] == [
                Fraction(n)]


def test_a_n_plus_square_checks():
    for n in (1, 2, 3):
        assert a_n_plus_checks(n, 4, V2)


def test_lemma_a_pipelines():
    for p in (2, 3):
        cfg = RingConfig.perfect(p)
        for n in (1, 2):
            assert verify_lemmaA(n, cfg)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_r_lemma_a_sides_are_rank_one_plus_copies_of_v_mod_t_n(p):
    """verify_lemmaA compares A = V only.  At rank r both of its pipelines
    touch generator 0 of the A block alone: the diagonal is the rank-1
    diagonal with zero rows below, so each side is the rank-1 side plus
    r - 1 summands V/(t^n), matched by the identity.  If this fails, a
    pipeline reads past generator 0, and verify_lemmaA must compare rank r
    again (the tilting suite compared rank p)."""
    cfg = RingConfig.perfect(p)
    for n in (1, 2, Fraction(1, p)):
        copy = PExp.from_fraction(p, n)
        for j in (3, 4):
            def sides(r):
                An = direct_sum(*[PresentedModule.cyclic(cfg, n, level=j)
                                  for _ in range(r)])
                return (stage_reference.b_shriek_shriek(An, j)[:2],
                        a_n_plus(r, n, j, cfg)[:2])
            ones = sides(1)
            for r in {2, p}:
                for (Q1, diag1), (Qr, diagr) in zip(ones, sides(r)):
                    assert diagr.matrix.nonzero == (
                        diag1.matrix.nonzero + [{}] * (r - 1)), (n, j, r)
                    assert Qr.free_rank() == Q1.free_rank() == 0
                    assert Qr.decompose_exponents() == sorted(
                        Q1.decompose_exponents() + [copy] * (r - 1)), (
                            n, j, r)


def _a_n_plus_without_unit_leg(A_rank, n, j, cfg):
    """a_n_plus with the diagonal's p - 1 entry left out."""
    _, diag, _ = a_n_plus(A_rank, n, j, cfg)
    mat = PolyMatrix(diag.target.rank, 1, cfg.p, modulus=diag.matrix.modulus)
    mat.set(0, 0, diag.matrix.entry(0, 0))
    cut = ModuleMap(diag.source, diag.target, mat)
    Q, proj = cokernel_map(cut)
    return Q, cut, proj


def _a_n_plus_tower_without_unit_leg(n, cfg):
    """A_n^+ on towers with the diagonal's unit leg left out: the cokernel
    of mu on V/(t^n), next to m tensor V/(t^n) untouched."""
    leg = cokernel_tower(mu_map(PresentedModule.cyclic(cfg, n)))
    X = firmify(PresentedModule.cyclic(cfg, n))
    assert leg.K == X.K
    return MonomialTower(cfg, X.K, leg.forms + X.forms)


def test_lemma_a_refuses_a_diagonal_without_its_unit_leg(monkeypatch):
    monkeypatch.setattr(tower, "a_n_plus_tower",
                        _a_n_plus_tower_without_unit_leg)
    monkeypatch.setattr(stage_reference, "a_n_plus",
                        _a_n_plus_without_unit_leg)
    for p in (2, 3):
        cfg = RingConfig.perfect(p)
        assert not verify_lemmaA(1, cfg), p
        assert not stage_reference.verify_lemmaA(1, cfg, J=5), p


def test_tilting_zigzag(monkeypatch):
    # the Lemma A comparison is lemma-a-pipelines' alone
    def refuse(*args, **kwargs):
        raise AssertionError("the zig-zag reran the Lemma A comparison")
    monkeypatch.setattr(tower, "verify_lemmaA", refuse)
    for p in (2, 3):
        assert tilting_zigzag_mixed(p, 2)


def test_tilting_zigzag_refuses_a_shifted_dictionary(monkeypatch):
    # x <-> t^(2/p^n): x^(p^n) = p = 0 then says t^2 = 0, not t = 0
    def shifted(p, n, c=1):
        table = tilt_basis_iso(p, n, c)
        return {k: (a, 2 * b) for k, (a, b) in table.items()}
    monkeypatch.setattr(tower, "tilt_basis_iso", shifted)
    for p in (2, 3):
        assert not tilting_zigzag_mixed(p, 2), p


def test_tower_roundtrip_grid():
    for p in (2, 3):
        for rank in (1, 2, 3, 4):
            for depth in (1, 2, 3, 4):
                spec = TowerSpec(RingConfig.perfect(p), depth)
                assert tower_roundtrip(spec, rank), (p, rank, depth)


def test_tower_roundtrip_with_firm_twist():
    spec = TowerSpec(V2, 3)
    assert tower_roundtrip(spec, 2, firm_stage=3)


def test_tower_spec_refuses_depth_zero_and_past_the_truncation():
    # omega = t: A/t^depth must still be a quotient of V/(t^c)
    W = RingConfig.truncated(2, 2)
    assert TowerSpec(W, 2).depth == 2
    for cfg, depth in ((V2, 0), (W, 3)):
        with pytest.raises(ValueError):
            TowerSpec(cfg, depth)


def test_quotient_by_a_power_past_the_truncation_is_the_module():
    # over V/(t^2), t^3 = 0: M / t^3 M = M, and the relation t^3 is stored
    # reduced to zero like every PolyMatrix entry
    from almostalg.modules import PresentedModule
    from almostalg.tower import _quotient_exponent
    W = RingConfig.truncated(2, 2)
    Q = _quotient_exponent(PresentedModule.free(W, 1, 1), 3)
    assert Q.relations.entries == [[[]]]
    assert Q.free_rank() == 1 and not Q.invariant_factors()


def test_a_n_plus_at_stage_zero_over_the_residue_ring():
    # over V/(t), t^(1/p^0) = t = 0: the left leg of the diagonal is zero,
    # stored as the zero entry, and only the unit leg kills a generator
    W = RingConfig.truncated(2, 1)
    for rank in (1, 2):
        Q, diag, proj = a_n_plus(rank, 1, 0, W)
        assert diag.matrix.entries[0][0] == []
        assert (Q.level, Q.rank) == (1, rank + 1)
        assert Q.free_rank() == rank and Q.decompose_exponents() == []
        assert proj.compose(diag).is_zero_map()
