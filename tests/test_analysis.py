"""A matrix is analysed once: its hypothesis report and its parity graph
are kept on the matrix object, and every pi1 entry point reads them.  A
presentation is abelianized once: its Smith normal form diagonal is kept
on it."""

import pytest

import kmfg
from kmfg import (
    GeneralizedCartanMatrix,
    build_adm,
    enumerate_kappa,
    from_named,
    full_report,
    hypothesis_report,
    is_spherical,
    is_symmetrizable,
    pi1_flag,
    pi1_group,
    pi1_maximal_compact,
    pi1_spin,
)
from kmfg.errors import HypothesisError, InternalError

# neither two-spherical (product 4) nor symmetrizable: the gate refuses it
NEITHER = ((2, -2, -2), (-2, 2, -1), (-1, -2, 2))


def test_report_is_kept_on_the_matrix():
    m = from_named("E8")
    assert hypothesis_report(m) is hypothesis_report(m)


def test_graph_is_kept_on_the_matrix():
    m = from_named("E8")
    assert build_adm(m) is build_adm(m)


def test_predicates_read_the_report():
    m = from_named("G2~")
    report = hypothesis_report(m)
    assert is_symmetrizable(m) is report.symmetrizable is True
    assert is_spherical(m) is report.spherical is False


def test_analysis_leaves_equality_and_hash_alone():
    analysed, fresh = from_named("B3"), from_named("B3")
    hypothesis_report(analysed)
    build_adm(analysed)
    assert analysed == fresh
    assert hash(analysed) == hash(fresh)
    assert {analysed: 1}[fresh] == 1


def test_one_symmetrizer_call_per_matrix(monkeypatch):
    calls = []
    original = kmfg.cartan.symmetrizer

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(kmfg.cartan, "symmetrizer", counting)
    m = from_named("E8")
    pi1_group(m)
    pi1_maximal_compact(m)
    for kappa in enumerate_kappa(build_adm(m)):
        pi1_spin(m, kappa)
    full_report(m)
    assert calls == [m]


def test_force_is_not_remembered():
    m = GeneralizedCartanMatrix(NEITHER)
    pi1_group(m, force=True)
    with pytest.raises(HypothesisError):
        pi1_group(m)
    with pytest.raises(HypothesisError):
        pi1_maximal_compact(m)


def test_contradiction_is_an_internal_error(monkeypatch):
    # both routes to a flag group's invariants, its own presentation's
    # diagonal and G's exponent rows, end in _invariants; full_report reads
    # A3's singletons off G's rows
    wrong = kmfg.fpgroup.AbelianInvariants(1, ())
    monkeypatch.setattr(kmfg.fpgroup, "_invariants", lambda count, diagonal: wrong)
    with pytest.raises(InternalError):
        pi1_flag(from_named("A3"), (0,))
    with pytest.raises(InternalError):
        full_report(from_named("A3"))


def test_order_contradiction_is_an_internal_error(monkeypatch):
    # B3's flag group is predicted to have order 2^3 x 2 = 16; a one-row
    # table makes the enumerated group trivial
    def trivial(presentation, **kwargs):
        table = [[0] * (2 * presentation.generator_count)]
        return kmfg.fpgroup.EnumerationResult.finite(1, table)

    monkeypatch.setattr(kmfg.fpgroup, "todd_coxeter", trivial)
    with pytest.raises(InternalError, match="order expected 16, got 1"):
        pi1_flag(from_named("B3"), ())


def test_flag_group_abelianized_once(monkeypatch):
    # abelianization and the index bound of the enumeration share one SNF
    calls = []
    smith_normal_form = kmfg.fpgroup.smith_normal_form

    def counting(rows):
        calls.append(rows)
        return smith_normal_form(rows)

    monkeypatch.setattr(kmfg.fpgroup, "smith_normal_form", counting)
    info = pi1_flag(from_named("A6"), (0,))
    assert info.order.is_finite
    assert len(calls) == 1
