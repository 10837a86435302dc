from fractions import Fraction

import pytest

from orbigw.hae import check_hae, prefactor_collapse_check, verify_hae, verify_hae_policies
from orbigw.potentials import assemble_F
from orbigw.ring import RingElement


def test_hae_n3_g2(data3):
    r = verify_hae(3, 2, policy="zero")
    assert r.verified
    assert r.difference.is_zero()
    assert r.eval_residual.is_zero()
    assert r.parity == "odd"


def test_hae_n4_g2():
    r = verify_hae(4, 2, policy="zero")
    assert r.verified
    # both sides live in C[L^{+-1}][S_n][C_{s+1}]
    for side in (r.lhs, r.rhs):
        for g in side.generators_used():
            assert g[0] == "A" or g == ("C", 2)


def test_parity_dispatch():
    with pytest.raises(ValueError):
        verify_hae(3, 1)


@pytest.mark.parametrize(
    "args, name",
    [((3, 2.0), "g"), (("3", 2), "n"), ((3.0, 2), "n"), ((True, 2), "n"), ((3, True), "g"), ((3, 2, None, None, 40.0), "N"), ((3, 2, None, None, False), "N")],
)
def test_non_int_arguments_are_refused(args, name):
    # a float, a string or a bool is named before any table is built
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        verify_hae(*args)


def test_low_genus_is_refused_before_any_table(monkeypatch):
    import orbigw.hae as hae

    def forbidden(*args, **kwargs):
        raise AssertionError("tables built for a genus the equation does not cover")

    monkeypatch.setattr(hae.GenusZeroData, "build", staticmethod(forbidden))
    monkeypatch.setattr(hae, "build_pmatrix", forbidden)
    for g in (1, 0, -3):
        with pytest.raises(ValueError, match="g >= 2"):
            verify_hae(3, g)


@pytest.mark.parametrize("bad", [0.5, "1/2", True, 1.0])
def test_inexact_custom_constants_are_refused_before_any_table(monkeypatch, bad):
    # a float would enter the exact verdict as a binary fraction, and
    # Fraction() would parse a string; only int and Fraction are read
    import orbigw.hae as hae
    from orbigw.genus0 import GenusZeroData, ModelConfig
    from orbigw.pmatrix import compute_P_column

    data = GenusZeroData.build(ModelConfig(3))
    constants = [Fraction(1, 2), 1, Fraction(-3, 4), bad]
    with pytest.raises(TypeError, match="custom constants must be int or Fraction"):
        compute_P_column(data, 4, "custom", constants)

    def forbidden(*args, **kwargs):
        raise AssertionError("tables built for inexact constants")

    monkeypatch.setattr(hae.GenusZeroData, "build", staticmethod(forbidden))
    monkeypatch.setattr(hae, "build_pmatrix", forbidden)
    with pytest.raises(TypeError, match="custom constants must be int or Fraction"):
        verify_hae(3, 2, "custom", custom_constants=constants)


def test_int_and_fraction_custom_constants_are_read():
    assert verify_hae(3, 2, "custom", custom_constants=[1, Fraction(1, 2), -2, Fraction(3, 4)]).verified


def test_empty_policy_is_rejected():
    # only a missing policy defaults to symplectic
    with pytest.raises(ValueError, match="unknown constants policy"):
        verify_hae(3, 2, policy="")


def test_policy_independence_n3():
    rep, results = verify_hae_policies(3, 2, ["zero", "custom"])
    assert rep.ok
    assert all(r.verified for r in results)
    assert len({r.status for r in results}) == 1


def test_prefactor_collapse(data3, data4):
    assert prefactor_collapse_check(data3)
    assert prefactor_collapse_check(data4)


def test_sensitivity_edge_perturbation(tables3):
    # altering one edge contribution by +1 inside the F_g assembly only
    # (the right-hand side keeps the honest tables) breaks the identity
    from orbigw.potentials import ContributionTables

    clean = ContributionTables(tables3.pm)
    r = check_hae(clean, 2)
    assert r.verified

    # the graph sum reads the edge as a character sum; bumping its (0, 0)
    # component adds the same to the edge at every pair of decorations
    key = (0, 0)

    def bumped(tables, extra):
        char = dict(tables.edge(*key))
        char[(0, 0)] = char.get((0, 0), RingElement.zero()) + extra
        tables._edge[key] = char

    perturbed = ContributionTables(tables3.pm)
    bumped(perturbed, RingElement.scalar(Fraction(1)))
    lhs_core = assemble_F(perturbed, 2, ()).core.partial(("A", 1, 0)) * Fraction(1, 3)
    clean_lhs_core = assemble_F(clean, 2, ()).core.partial(("A", 1, 0)) * Fraction(1, 3)
    assert not (lhs_core - clean_lhs_core).is_zero()

    # a perturbation that changes the generator content is caught even when
    # applied coherently to both sides
    coherent = ContributionTables(tables3.pm)
    bumped(coherent, RingElement.generator(("A", 1, 0)))
    r2 = check_hae(coherent, 2)
    assert not r2.verified


def test_sensitivity_doubled_rhs(tables3):
    r = check_hae(tables3, 2)
    doubled = r.rhs * 2
    assert not (r.lhs - doubled).is_zero()


def test_lhs_is_nonzero(tables3):
    # the identity is not vacuous: dF_g/dA_s is a nonzero polynomial
    r = check_hae(tables3, 2)
    assert not r.lhs.is_zero()
    assert not r.rhs.is_zero()


def test_generator_audits_present(tables3):
    r = check_hae(tables3, 2)
    assert r.generator_audits
    for a in r.generator_audits:
        assert a["core_ok"] and a["prefactor_ok"] and a["vertex_ok"]


def test_verdicts_grow_no_series_table(monkeypatch):
    # the series oracle is built only where a check compares against it, and
    # the symplectic check reads the lift: no verdict grows a series table
    import orbigw.pmatrix

    def forbidden(*args, **kwargs):
        raise AssertionError("a verdict grew a series table")

    monkeypatch.setattr(orbigw.pmatrix, "extend_tables", forbidden)
    rep, results = verify_hae_policies(3, 2)
    assert rep.ok, rep.failures()
    assert [r.policy for r in results] == ["symplectic", "zero", "custom"]
    assert all(r.verified for r in results)


def test_hae_trivializes_for_n6_at_genus2():
    # at genus 2 the identity carries content exactly for n = 3, 4, 5; for
    # n = 6 the decoration character sums kill the distinguished-generator
    # dependence on the left and the right-hand potentials themselves, and
    # the equation degenerates to 0 = 0 (cross-checked by the ring-free
    # series assembly inside the potentials tests)
    r = verify_hae(6, 2, policy="zero")
    assert r.verified
    assert r.lhs.is_zero() and r.rhs.is_zero()


def test_given_tables_label_the_report(tables3):
    # tables3 hold n = 3 under the zero policy; the report says so, and is the
    # one verify_hae gives when it builds those tables itself
    r = check_hae(tables3, 2)
    assert (r.n, r.parity, r.policy, r.status) == (3, "odd", "zero", "verified")
    assert verify_hae(3, 2, policy="zero").to_json() == r.to_json()
