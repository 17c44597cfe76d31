"""Each verification clause must fail alone under a targeted tampering.

The point of these tests is soundness: a doctored certificate or eigenpair
list has to trip exactly the clause that watches for it, which proves the
clauses are independent checks rather than shadows of one another.
"""

import dataclasses
import json

import numpy as np
import pytest

import moddiag
from moddiag import (
    AlgebraElement,
    DiagonalizationResult,
    EigenPair,
    ModuleElement,
    ModuleOperator,
    NotSelfAdjointError,
    OrderRelation,
    ShapeMismatchError,
    diagonalize_normal,
    diagonalize_selfadjoint,
    inner,
    left_action,
    leq,
    moment_deviation,
    projection_ladder,
    serialize_report,
    two_block_gallery,
    verify_eigensystem,
)

from helpers import (
    ACCEPTANCE_SHAPES,
    module_over,
    pair,
    random_hermitian,
    random_normal_operator,
    random_positive_operator,
    random_selfadjoint_operator,
)


def _unit_scale_selfadjoint(mod, seed):
    rng = np.random.default_rng(seed)
    k = random_selfadjoint_operator(mod, rng)
    return (1.0 / k.norm()) * k


def _replace_pair(result, label, **changes):
    pairs = []
    for p in result.pairs:
        if p.label == label:
            p = p._replace(**changes)
        pairs.append(p)
    return DiagonalizationResult.from_pairs(tuple(pairs), result.ordering_certificate, result.tolerance_used)


def test_clean_result_passes_every_clause():
    mod = module_over((2, 1), 3)
    k = _unit_scale_selfadjoint(mod, 81)
    res = diagonalize_selfadjoint(k)
    report = verify_eigensystem(k, res)
    assert report.overall
    assert report.eigen_residual <= report.residual_bound
    assert report.orthogonality_residual <= report.residual_bound
    assert report.projection_defect <= report.residual_bound
    assert report.support_residual <= report.residual_bound
    assert report.complement_trivial and report.ordering_ok and report.oracle_ok
    assert "pass" in report.summary()


def test_perturbed_value_flips_only_eigen_residual():
    mod = module_over((2,), 2)
    k = _unit_scale_selfadjoint(mod, 82)
    res = diagonalize_selfadjoint(k)
    label = res.pair_labels[0]
    bad_value = pair(res, label).value + 1e-6 * mod.shape.identity()
    tampered = _replace_pair(res, label, value=bad_value)
    # moment_tol loose on purpose so the shift stays invisible to the oracle
    report = verify_eigensystem(k, tampered, moment_tol=1e-3)
    assert report.eigen_residual > report.residual_bound
    assert report.orthogonality_residual <= report.residual_bound
    assert report.projection_defect <= report.residual_bound
    assert report.support_residual <= report.residual_bound
    assert report.complement_trivial and report.ordering_ok and report.oracle_ok
    assert not report.overall


def test_scaled_vector_flips_only_projection_defect():
    mod = module_over((2,), 2)
    k = _unit_scale_selfadjoint(mod, 83)
    res = diagonalize_selfadjoint(k)
    label = res.pair_labels[1]
    short = pair(res, label).vector * 0.5
    report = verify_eigensystem(k, _replace_pair(res, label, vector=short))
    assert report.projection_defect > report.residual_bound
    assert report.eigen_residual <= report.residual_bound
    assert report.orthogonality_residual <= report.residual_bound
    assert report.support_residual <= report.residual_bound
    assert report.complement_trivial and report.ordering_ok and report.oracle_ok
    assert not report.overall


def test_dropped_vector_flips_only_complement_clause():
    mod = module_over((2,), 2)
    k = ModuleOperator.zero(mod)
    res = diagonalize_selfadjoint(k)
    tampered = _replace_pair(
        res,
        2,
        vector=mod.element([mod.shape.zero()] * mod.rank),
        support=mod.shape.zero(),
        value=mod.shape.zero(),
    )
    report = verify_eigensystem(k, tampered)
    assert not report.complement_trivial
    assert report.eigen_residual <= report.residual_bound
    assert report.orthogonality_residual <= report.residual_bound
    assert report.projection_defect <= report.residual_bound
    assert report.support_residual <= report.residual_bound
    assert report.ordering_ok and report.oracle_ok
    assert not report.overall


def test_value_off_support_flips_only_support_clause():
    lad = projection_ladder(3)
    pairs = tuple(
        EigenPair(p.vector, p.value, p.support, i + 1) for i, p in enumerate(lad.expected)
    )
    res = DiagonalizationResult.from_pairs(pairs, (), 1e-9)
    clean = verify_eigensystem(lad.operator, res)
    assert clean.overall, clean.summary()

    leak = lad.expected[1].value + 0.5 * (lad.shape.identity() - lad.expected[1].support)
    tampered = _replace_pair(res, 2, value=leak)
    report = verify_eigensystem(lad.operator, tampered)
    assert report.support_residual > report.residual_bound
    assert report.eigen_residual <= report.residual_bound
    assert report.orthogonality_residual <= report.residual_bound
    assert report.projection_defect <= report.residual_bound
    assert report.complement_trivial and report.ordering_ok and report.oracle_ok
    assert not report.overall


def test_swapped_labels_flip_only_ordering():
    mod = module_over((2,), 3)
    rng = np.random.default_rng(84)
    k = random_positive_operator(mod, rng)
    res = diagonalize_selfadjoint(k)
    a, b = res.pair_labels[0], res.pair_labels[1]
    swapped = []
    for p in res.pairs:
        if p.label == a:
            swapped.append(p._replace(label=b))
        elif p.label == b:
            swapped.append(p._replace(label=a))
        else:
            swapped.append(p)
    tampered = DiagonalizationResult.from_pairs(tuple(swapped), res.ordering_certificate, res.tolerance_used)
    report = verify_eigensystem(k, tampered)
    assert not report.ordering_ok
    assert report.eigen_residual <= report.residual_bound
    assert report.orthogonality_residual <= report.residual_bound
    assert report.projection_defect <= report.residual_bound
    assert report.support_residual <= report.residual_bound
    assert report.complement_trivial and report.oracle_ok
    assert not report.overall


def test_certificate_with_unknown_label_fails_ordering():
    mod = module_over((2,), 2)
    k = _unit_scale_selfadjoint(mod, 85)
    res = diagonalize_selfadjoint(k)
    bogus = res.ordering_certificate + (OrderRelation(99, None),)
    tampered = DiagonalizationResult.from_pairs(res.pairs, bogus, res.tolerance_used)
    assert not verify_eigensystem(k, tampered).ordering_ok


def test_moment_oracle_catches_shifted_values():
    mod = module_over((2, 3), 2)
    k = _unit_scale_selfadjoint(mod, 86)
    res = diagonalize_selfadjoint(k)
    assert moment_deviation(k, res) <= 1e-7
    assert moment_deviation(k, res) <= 1e-10
    label = res.pair_labels[0]
    shifted = pair(res, label).value + 1e-3 * mod.shape.identity()
    tampered = _replace_pair(res, label, value=shifted)
    assert not moment_deviation(k, tampered) <= 1e-7
    assert moment_deviation(k, tampered) > 1e-5


def _moment_deviation_reference(k, result):
    """The moment oracle one block and one power at a time, as first written."""
    worst = 0.0
    for b, blk in enumerate(k.blocks):
        e = np.frexp(np.abs(blk).max())[1]
        flat = np.ldexp(blk.real, -e) + 1j * np.ldexp(blk.imag, -e)
        sups = result.supports[b]
        vals = result.values[b]
        compressed = sups @ (np.ldexp(vals.real, -e) + 1j * np.ldexp(vals.imag, -e)) @ sups
        below, power, compressed_power = np.eye(len(flat)), flat, compressed
        for _ in range(6):
            diff = abs(np.trace(power) - np.trace(compressed_power, axis1=1, axis2=2).sum())
            bound = np.linalg.norm(flat) * np.linalg.norm(below)
            if np.isnan(diff) or (bound == 0.0 and diff > 0.0):
                return np.inf
            if bound > 0.0:
                worst = max(worst, diff / bound)
            below, power = power, power @ flat
            compressed_power = compressed_power @ compressed
    return worst


@pytest.mark.parametrize("powers_bytes", [None, 1])
@pytest.mark.parametrize("shape", ACCEPTANCE_SHAPES + [(1, 1, 2, 2)])
def test_stacked_moment_deviation_matches_the_per_block_loop(shape, powers_bytes, monkeypatch):
    if powers_bytes is not None:  # one block per stack
        monkeypatch.setattr(moddiag.verify, "_POWERS_BYTES", powers_bytes)
    # blocks of equal size share one stack of power chains; every product,
    # trace and norm rounds as in the loop, so the figure is the same float
    rng = np.random.default_rng(89)
    for rank in (1, 3):
        mod = module_over(shape, rank)
        k = random_selfadjoint_operator(mod, rng)
        res = diagonalize_selfadjoint(k)
        halved = DiagonalizationResult(
            res.module, res.pair_labels, res.vectors, tuple(0.5 * v for v in res.values),
            res.supports, res.ordering_certificate, res.tolerance_used,
        )
        for r in (res, halved):
            assert moment_deviation(k, r) == _moment_deviation_reference(k, r)


def test_one_power_iteration_per_operator(monkeypatch):
    # diagonalize and verify read one memoized operator scale, computed
    # from K alone; it equals a fresh power iteration
    from moddiag import algebra, operators

    calls = []

    def spy(blocks):
        calls.append(blocks)
        return algebra._norm_lower_bound(blocks)

    monkeypatch.setattr(operators, "_norm_lower_bound", spy)
    mod = module_over((2, 1), 3)
    k = random_selfadjoint_operator(mod, np.random.default_rng(90))
    report = verify_eigensystem(k, diagonalize_selfadjoint(k))
    assert report.overall and len(calls) == 1 and calls[0] is k.blocks
    assert report.operator_scale == algebra._norm_lower_bound(k.blocks)


def test_moment_deviation_zero_operator():
    mod = module_over((1, 2), 2)
    k = ModuleOperator.zero(mod)
    res = diagonalize_selfadjoint(k)
    assert moment_deviation(k, res) == 0.0


def test_report_serial_fields():
    mod = module_over((2,), 2)
    k = _unit_scale_selfadjoint(mod, 87)
    res = diagonalize_selfadjoint(k)
    report = verify_eigensystem(k, res, tol=1e-8, moment_tol=1e-6)
    assert report.tolerance == 1e-8
    assert report.moment_tolerance == 1e-6
    assert report.residual_bound == 1e-8 * report.operator_scale
    assert report.operator_scale > 0
    assert len(report.relations) == len(res.ordering_certificate)


def _flags(report):
    """Which clauses pass, by name; the dimensionless ones are bounded by tol."""
    return {
        "eigen": report.eigen_residual <= report.residual_bound,
        "orthogonality": report.orthogonality_residual <= report.tolerance,
        "projection": report.projection_defect <= report.tolerance,
        "support": report.support_residual <= report.residual_bound,
        "complement": report.complement_trivial,
        "ordering": report.ordering_ok,
    }


def _only_failing(report, clause):
    flags = _flags(report)
    assert not flags.pop(clause), report.summary()
    assert all(flags.values()), report.summary()
    assert not report.overall


@pytest.mark.parametrize("s", [1.0, 1e12, 1e-160])
def test_overlapping_vectors_flip_only_orthogonality_at_every_scale(s):
    # every vector is an eigenvector of s * I, so mixing two of them keeps
    # the eigen clause; the overlap of 0.447 is dimensionless and must fail
    # against tol whatever the size of K
    mod = module_over((2,), 3)
    k = s * ModuleOperator.identity(mod)
    res = diagonalize_selfadjoint(k)
    x1, x3 = pair(res, 1).vector, pair(res, 3).vector
    mixed = (x3 + 0.5 * x1) * (1.0 / np.sqrt(1.25))
    report = verify_eigensystem(k, _replace_pair(res, 3, vector=mixed))
    _only_failing(report, "orthogonality")
    assert report.worst_pairs["orthogonality"] == (1, 3)
    assert report.oracle_ok


@pytest.mark.parametrize("s", [1.0, 1e12, 1e-160])
def test_stretched_vector_flips_only_projection_at_every_scale(s):
    mod = module_over((2,), 3)
    k = s * ModuleOperator.identity(mod)
    res = diagonalize_selfadjoint(k)
    long = pair(res, 3).vector * 1.5
    report = verify_eigensystem(k, _replace_pair(res, 3, vector=long))
    _only_failing(report, "projection")
    assert report.worst_pairs["projection"] == 3
    assert report.oracle_ok


@pytest.mark.parametrize("s", [1.0, 1e12, 1e-160])
def test_shifted_value_flips_only_eigen_residual_at_every_scale(s):
    mod = module_over((2,), 2)
    k = s * _unit_scale_selfadjoint(mod, 88)
    res = diagonalize_selfadjoint(k)
    label = res.pair_labels[-1]
    shifted = pair(res, label).value + 1e-6 * s * mod.shape.identity()
    report = verify_eigensystem(k, _replace_pair(res, label, value=shifted), moment_tol=1e-3)
    _only_failing(report, "eigen")
    assert report.worst_pairs["eigen"] == label


def test_halved_spectrum_fails_at_tiny_scale():
    # with a bound of tol * (1 + ||K||) this passed at ||K|| = 1e-160, and
    # so did the moment oracle while it divided by max(1, |trace|)
    mod = module_over((2,), 3)
    k = 1e-160 * _unit_scale_selfadjoint(mod, 89)
    res = diagonalize_selfadjoint(k)
    halved = DiagonalizationResult.from_pairs(
        tuple(p._replace(value=0.5 * p.value) for p in res.pairs),
        res.ordering_certificate,
        res.tolerance_used,
    )
    report = verify_eigensystem(k, halved)
    assert report.eigen_residual > 1e6 * report.residual_bound
    flags = _flags(report)
    assert not flags.pop("eigen") and all(flags.values())
    assert not report.oracle_ok and report.moment_worst > 0.1
    assert not report.overall


def _integer_spectrum_operator(mod, rng):
    mats = []
    for k in mod.shape.block_sizes:
        d = mod.rank * k
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        mats.append(q @ np.diag(rng.integers(-3, 4, d).astype(float)) @ q.conj().T)
    return ModuleOperator(mod, mats)


@pytest.mark.parametrize("seed", [2, 18])
def test_moment_oracle_passes_a_clean_integer_spectrum_at_large_scale(seed):
    # odd power traces of a spectrum in -3..3 nearly cancel; against
    # max(1, |trace|) the round-off of 1e12-sized terms failed the oracle
    k = 1e12 * _integer_spectrum_operator(module_over((2, 3), 5), np.random.default_rng(seed))
    report = verify_eigensystem(k, diagonalize_selfadjoint(k))
    assert report.moment_worst < 1e-12
    assert report.overall, report.summary()


@pytest.mark.parametrize("s", [1e-200, 1e-160, 1.0, 1e12, 1e200])
def test_moment_deviation_is_unitless(s):
    mod = module_over((2, 3), 2)
    k = _unit_scale_selfadjoint(mod, 86)
    res = diagonalize_selfadjoint(k)
    label = res.pair_labels[0]
    shifted = _replace_pair(res, label, value=pair(res, label).value + 1e-3 * mod.shape.identity())
    for r in (res, shifted):
        scaled = DiagonalizationResult.from_pairs(
            tuple(p._replace(value=s * p.value) for p in r.pairs), r.ordering_certificate, r.tolerance_used
        )
        assert moment_deviation(s * k, scaled) == pytest.approx(moment_deviation(k, r), rel=1e-6, abs=1e-13)
    assert moment_deviation(s * k, scaled) > 1e-5


def test_zero_operator_passes_with_a_zero_bound():
    mod = module_over((2, 1), 3)
    k = ModuleOperator.zero(mod)
    report = verify_eigensystem(k, diagonalize_selfadjoint(k))
    assert report.operator_scale == 0.0 and report.residual_bound == 0.0
    assert report.overall, report.summary()
    assert all(v is None for v in report.worst_pairs.values())


def test_worst_pair_is_named_in_report_and_json():
    lad = projection_ladder(4)
    pairs = tuple(
        EigenPair(p.vector, p.value, p.support, i + 1) for i, p in enumerate(lad.expected)
    )
    res = DiagonalizationResult.from_pairs(pairs, (), 1e-9)
    leak = lad.expected[4].value + 0.5 * (lad.shape.identity() - lad.expected[4].support)
    report = verify_eigensystem(lad.operator, _replace_pair(res, 5, value=leak))
    assert report.worst_pairs["support"] == 5
    assert "support residual" in report.summary() and "(worst L5)" in report.summary()
    doc = json.loads(serialize_report(report))
    assert doc["worst_pairs"]["support"] == 5
    assert set(doc["residuals"]) == {"eigen", "orthogonality", "projection", "support"}


def test_every_pair_must_live_on_the_operator_module():
    mod = module_over((2,), 2)
    k = _unit_scale_selfadjoint(mod, 90)
    res = diagonalize_selfadjoint(k)
    stray = ModuleElement(module_over((2,), 3), [np.eye(2, 6)])
    with pytest.raises(ShapeMismatchError):
        verify_eigensystem(k, _replace_pair(res, res.pair_labels[-1], vector=stray))


def test_a_result_on_another_module_is_refused():
    k = _unit_scale_selfadjoint(module_over((2,), 2), 90)
    other = diagonalize_selfadjoint(ModuleOperator.identity(module_over((2,), 3)))
    with pytest.raises(ShapeMismatchError):
        verify_eigensystem(k, other)


def test_clean_results_verify_without_the_eigensolver(monkeypatch):
    mod = module_over((2, 1), 3)
    rng = np.random.default_rng(91)
    k = random_selfadjoint_operator(mod, rng)
    n = random_normal_operator(mod, rng)
    results = [(k, diagonalize_selfadjoint(k)), (n, diagonalize_normal(n))]

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier called the eigensolver")

    for namespace in (moddiag.eigen, moddiag.algebra, moddiag.modules, moddiag.verify):
        monkeypatch.setattr(namespace, "eig_hermitian", refuse, raising=False)
    for op, res in results:
        assert verify_eigensystem(op, res).overall


def _spectral_reference(K, result):
    """The residuals as C*-norms, pair by pair, as the verifier computed them before."""
    eigen = support = projection = orthogonality = 0.0
    for p in result.pairs:
        eigen = max(eigen, (K(p.vector) - left_action(p.value, p.vector)).norm())
        support = max(support, (p.value * p.support - p.value).norm())
        projection = max(
            projection,
            (inner(p.vector, p.vector) - p.support).norm(),
            (p.support - p.support.adjoint()).norm(),
            (p.support * p.support - p.support).norm(),
        )
    vectors = [p.vector for p in result.pairs]
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            orthogonality = max(orthogonality, inner(vectors[i], vectors[j]).norm())
    return {"eigen": eigen, "orthogonality": orthogonality, "projection": projection, "support": support}


def _battery():
    rng = np.random.default_rng(92)
    for i, sizes in enumerate(ACCEPTANCE_SHAPES * 3 + [(3,), (8,)]):
        mod = module_over(sizes, i % 3 + 1)
        kind = i % 3
        if kind == 2:
            k = random_normal_operator(mod, rng)
            res = diagonalize_normal(k)
        else:
            k = random_selfadjoint_operator(mod, rng, scale=10.0 ** (3 * kind))
            res = diagonalize_selfadjoint(k)
        yield k, res
        first, last = res.pair_labels[0], res.pair_labels[-1]
        bump = pair(res, first).value + 1e-5 * k.norm() * mod.shape.identity()
        yield k, _replace_pair(res, first, value=bump)
        mixed = pair(res, last).vector + 0.3 * pair(res, first).vector
        yield k, _replace_pair(res, last, vector=mixed)
        half = 0.5 * mod.shape.identity()
        yield k, _replace_pair(res, first, support=half)


def test_stacked_residuals_bracket_the_spectral_reference():
    for k, res in _battery():
        report = verify_eigensystem(k, res)
        ref = _spectral_reference(k, res)
        norm = k.norm()
        root_k = np.sqrt(max(k.module.shape.block_sizes))
        got = {
            "eigen": report.eigen_residual,
            "orthogonality": report.orthogonality_residual,
            "projection": report.projection_defect,
            "support": report.support_residual,
        }
        for clause, value in got.items():
            slack = 1e-13 * (1.0 + norm) if clause in ("eigen", "support") else 1e-13
            assert value >= ref[clause] - slack, (clause, value, ref[clause])
            assert value <= root_k * ref[clause] + slack, (clause, value, ref[clause])
        dim = k.module.rank * max(k.module.shape.block_sizes)
        assert norm / np.sqrt(dim) <= report.operator_scale <= norm * (1.0 + 1e-12)


def _leq_reference(result, order_tol):
    """The ordering clause as it was decided before: one leq call per relation."""
    by_label = {p.label: p.value for p in result.pairs}
    zero = result.pairs[0].value.shape.zero()
    for rel in result.ordering_certificate:
        lhs = zero if rel.lhs is None else by_label.get(rel.lhs)
        rhs = zero if rel.rhs is None else by_label.get(rel.rhs)
        if lhs is None or rhs is None:
            return False
        try:
            if not leq(lhs, rhs, tol=order_tol):
                return False
        except NotSelfAdjointError:
            return False
    return True


def _ordering_tampers(res, s):
    """The clean result and results whose certificate or values are doctored."""
    yield res
    labels = res.pair_labels
    first, second = labels[0], labels[1]
    swap = {first: second, second: first}
    yield DiagonalizationResult.from_pairs(
        tuple(p._replace(label=swap.get(p.label, p.label)) for p in res.pairs),
        res.ordering_certificate,
        res.tolerance_used,
    )
    cert = list(res.ordering_certificate)
    mid = cert[len(cert) // 2]
    cert[len(cert) // 2] = OrderRelation(mid.rhs, mid.lhs)
    yield DiagonalizationResult.from_pairs(res.pairs, tuple(cert), res.tolerance_used)
    identity = res.pairs[0].value.shape.identity()
    yield _replace_pair(res, first, value=pair(res, first).value - 1e-3 * s * identity)
    yield _replace_pair(res, second, value=pair(res, second).value + 1e-12 * s * identity)
    blocks = [np.array(b) for b in pair(res, first).value.blocks]
    big = max(range(len(blocks)), key=lambda b: blocks[b].shape[0])
    blocks[big][0, -1] += 0.5 * s
    yield _replace_pair(res, first, value=AlgebraElement(identity.shape, blocks))


@pytest.mark.parametrize("s", [1e-200, 1.0, 1e200])
def test_stacked_ordering_clause_matches_per_relation_leq(s):
    rng = np.random.default_rng(93)
    operators = [
        random_selfadjoint_operator(module_over(sizes, rank), rng)
        for sizes, rank in (((1, 1, 1, 1), 3), ((2, 1, 3), 2), ((8,), 2))
    ]
    operators.append(projection_ladder(32).operator)
    verdicts = []
    for k in operators:
        k = s * k
        for res in _ordering_tampers(diagonalize_selfadjoint(k), s):
            report = verify_eigensystem(k, res)
            expected = _leq_reference(res, report.residual_bound)
            assert report.ordering_ok == expected, (k.module.shape.block_sizes, s)
            verdicts.append(expected)
    assert verdicts.count(True) >= 4 and verdicts.count(False) >= 8


def test_one_false_relation_among_the_ladder_relations_fails_the_clause():
    k = projection_ladder(32).operator
    res = diagonalize_selfadjoint(k)
    cert = res.ordering_certificate
    assert len(cert) == 33 and verify_eigensystem(k, res).ordering_ok
    # L1 holds +0.5 in its first block, so L1 <= 0 is false
    for i in [*range(0, len(cert), 4), len(cert) - 1]:
        tampered = cert[:i] + (OrderRelation(1, None),) + cert[i + 1 :]
        report = verify_eigensystem(k, DiagonalizationResult.from_pairs(res.pairs, tampered, res.tolerance_used))
        assert not report.ordering_ok, i


@pytest.mark.parametrize(
    "relation, claimed",
    [(OrderRelation(3, None), 0.5), (OrderRelation(1, 3), 0.9), (OrderRelation(None, 2), 0.99)],
    ids=["L3<=0", "L1<=L3", "0<=L2"],
)
def test_a_loose_claimed_tolerance_does_not_widen_the_ordering_slack(relation, claimed):
    # each relation is false; its slack once grew to claimed * operator_scale
    k = random_selfadjoint_operator(module_over((2, 3), 3), np.random.default_rng(3))
    res = diagonalize_selfadjoint(k)
    assert res.pair_labels == (1, 2, 3) and verify_eigensystem(k, res).overall
    report = verify_eigensystem(k, DiagonalizationResult.from_pairs(res.pairs, (relation,), claimed))
    assert not report.ordering_ok and not report.overall
    assert report.eigen_residual <= report.residual_bound and report.complement_trivial and report.oracle_ok


def test_a_result_made_at_a_loose_tol_verifies_at_that_tol():
    # one scalar near 1e-7 ||K|| is classed as zero at tol 1e-6, so its
    # link through 0 holds within 1e-6 * operator_scale, not always within
    # a tighter verifier's slack
    mod = module_over((2, 1), 2)
    rng = np.random.default_rng(7)
    tight_failures = 0
    for i in range(200):
        spectra = [rng.uniform(-1.0, 1.0, 2 * k) for k in (2, 1)]
        top = max(np.abs(d).max() for d in spectra)
        chosen = spectra[rng.integers(2)]
        chosen[rng.integers(len(chosen))] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * 1e-7 * top
        mats = []
        for d in spectra:
            q = np.linalg.qr(rng.standard_normal((len(d),) * 2) + 1j * rng.standard_normal((len(d),) * 2))[0]
            h = q @ np.diag(d) @ q.conj().T
            mats.append((h + h.conj().T) / 2.0)
        k = ModuleOperator(mod, mats)
        res = diagonalize_selfadjoint(k, tol=1e-6)
        report = verify_eigensystem(k, res, tol=1e-6)
        assert report.overall, (i, report.summary())
        if i < 40:
            tight_failures += not verify_eigensystem(k, res, tol=1e-9).ordering_ok
    assert tight_failures


def _commuting_unitaries(values, rng):
    """Per pair, a random unitary that commutes with its (P, k, k) diagonal value
    block: a rotation inside each run of tied scalars, a phase on the others."""
    unitaries = np.zeros(values.shape, dtype=complex)
    for u, diag in zip(unitaries, np.real(np.diagonal(values, axis1=1, axis2=2))):
        for scalar in set(np.round(diag).tolist()):
            tied = np.flatnonzero(np.round(diag) == scalar)
            z = rng.standard_normal((len(tied),) * 2) + 1j * rng.standard_normal((len(tied),) * 2)
            u[np.ix_(tied, tied)] = np.linalg.qr(z)[0]
    return unitaries


def test_correct_results_the_paper_admits_verify():
    # the converse of the tamper tests: another eigenbasis of each tied
    # value, another order of the pairs, and the gallery's unit family with
    # its own labels and certificate must all still pass
    rng = np.random.default_rng(28)
    ties = 0
    for sizes in ACCEPTANCE_SHAPES:
        for rank in (1, 2, 3):
            mod = module_over(sizes, rank)
            mats = []
            for k in sizes:
                # integer scalars, each twice, so a window of a block of size 2 or 3 holds a tie
                v = np.repeat(rng.integers(-2, 3, size=(rank * k + 1) // 2), 2)[: rank * k].astype(float)
                q = np.linalg.qr(rng.standard_normal((rank * k,) * 2) + 1j * rng.standard_normal((rank * k,) * 2))[0]
                h = q @ np.diag(v) @ q.conj().T
                mats.append((h + h.conj().T) / 2.0)
            k_op = ModuleOperator(mod, mats)
            res = diagonalize_selfadjoint(k_op)
            assert verify_eigensystem(k_op, res).overall
            unitaries = [_commuting_unitaries(values, rng) for values in res.values]
            ties += sum(np.count_nonzero(u) > len(u) for us in unitaries for u in us)  # a rotation, not phases
            rotated = dataclasses.replace(
                res,
                vectors=tuple(u @ v for u, v in zip(unitaries, res.vectors)),
                supports=tuple(u @ s @ u.conj().swapaxes(1, 2) for u, s in zip(unitaries, res.supports)),
            )
            for variant in (rotated, res):
                order = rng.permutation(len(res.pair_labels))
                shuffled = DiagonalizationResult.from_pairs(
                    [variant.pairs[i] for i in order], variant.ordering_certificate, variant.tolerance_used
                )
                for claim in (variant, shuffled):
                    report = verify_eigensystem(k_op, claim)
                    assert report.overall, (sizes, rank, report.summary())
    assert ties

    gallery = two_block_gallery()
    unit = next(family for family in gallery.families if family.name == "unit")
    pairs = [EigenPair(v, value, inner(v, v), label) for (v, value), label in zip(unit.pairs, (3, 1))]
    claim = DiagonalizationResult.from_pairs(pairs, (OrderRelation(3, 1), OrderRelation(None, 3)), 1e-9)
    assert verify_eigensystem(gallery.operator, claim).overall


def test_exactly_zero_shifted_blocks_pass_the_ordering_clause():
    # for K = 0 the slack is 0, so every rhs - lhs + 0 * I is exactly zero,
    # which is semidefinite but has no Cholesky factor
    mod = module_over((2, 1, 1), 3)
    k = ModuleOperator.zero(mod)
    res = diagonalize_selfadjoint(k)
    labels = res.pair_labels
    every_way = tuple(OrderRelation(a, b) for a in labels + (None,) for b in labels + (None,))
    report = verify_eigensystem(k, DiagonalizationResult.from_pairs(res.pairs, every_way, res.tolerance_used))
    assert report.operator_scale == 0.0
    assert report.ordering_ok and report.overall, report.summary()
    zeros, unpadded = np.zeros((3, 2, 2)), np.zeros((3, 2), dtype=bool)
    assert moddiag.algebra._all_above(zeros, unpadded, 0.0)
    assert not moddiag.algebra._all_positive_definite([zeros], unpadded)


def test_padded_matrices_decide_as_their_unpadded_selves():
    # the identity on padded coordinates, and tol I on the others only,
    # keep every verdict: an exactly zero shifted matrix still passes, and a
    # tiny matrix padded beside a large one keeps its own scale
    from moddiag.algebra import _all_above, _all_positive_definite
    from moddiag.eigen import _zero_padded

    rng = np.random.default_rng(99)
    mats = [-1e-3 * np.eye(1), np.zeros((2, 2)), 1e-300 * np.eye(1), np.array([[1.0, 2.0], [2.0, 1.0]])]
    mats += [random_hermitian(rng, k, scale=10.0 ** rng.integers(-5, 5)) for k in (1, 2, 3, 3, 2, 1)]
    stack, padded = _zero_padded(mats, 4, 4)
    assert padded.tolist() == [[j >= len(m) for j in range(4)] for m in mats]
    verdicts = set()
    for tol in (0.0, 1e-3, 1.0):
        for i, m in enumerate(mats):
            unpadded = np.zeros((1, len(m)), dtype=bool)
            alone = _all_above(m[None], unpadded, tol)
            assert _all_above(stack[i : i + 1], padded[i : i + 1], tol) == alone, (i, tol)
            assert _all_positive_definite([stack[i : i + 1]], padded[i : i + 1]) == _all_positive_definite(
                [m[None]], unpadded
            ), i
            verdicts.add(alone)
        assert _all_above(stack, padded, tol) == all(
            _all_above(m[None], np.zeros((1, len(m)), dtype=bool), tol) for m in mats
        )
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "sizes, rank", [(None, 32), ((2, 1, 3), 3), ((1, 1, 1, 1), 2)], ids=["ladder", "mixed", "ones"]
)
def test_verify_makes_one_cholesky_call_per_block_order_per_clause(monkeypatch, sizes, rank):
    if sizes is None:
        k = projection_ladder(rank).operator
    else:
        k = random_selfadjoint_operator(module_over(sizes, rank), np.random.default_rng(94))
    res = diagonalize_selfadjoint(k)
    calls = []
    factor = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    assert verify_eigensystem(k, res).overall
    # two clauses factorize: the ordering clause and the complement check;
    # the ladder made 1088 calls with one factorization per block and relation
    assert len(calls) <= 2 * len(set(k.module.shape.block_sizes)), calls
    if sizes == (2, 1, 3):
        # blocks of three orders, zero-padded to one: one call per clause
        assert len(calls) == 2, calls


@pytest.mark.parametrize("bad", [0.0, 1.0, 1e300, -1e-9])
def test_a_tolerance_outside_the_unit_interval_is_refused(bad):
    # each one widens a slack; at 1e300 swapped labels passed
    mod = module_over((2,), 2)
    k = _unit_scale_selfadjoint(mod, 95)
    res = diagonalize_selfadjoint(k)
    with pytest.raises(ValueError, match="tolerance_used"):
        verify_eigensystem(k, DiagonalizationResult.from_pairs(res.pairs, res.ordering_certificate, bad))
    for kwargs in ({"tol": bad}, {"moment_tol": bad}):
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            verify_eigensystem(k, res, **kwargs)


def test_a_non_selfadjoint_claimed_value_fails_ordering_instead_of_raising():
    mod = module_over((2,), 3)
    k = _unit_scale_selfadjoint(mod, 96)
    res = diagonalize_selfadjoint(k)
    label = res.pair_labels[0]
    crooked = pair(res, label).value + AlgebraElement(mod.shape, [np.array([[0.0, 0.5], [0.0, 0.0]])])
    report = verify_eigensystem(k, _replace_pair(res, label, value=crooked))
    assert not report.ordering_ok and not report.overall


def test_a_relation_false_in_one_block_only_fails_the_clause():
    # blocks of equal order share a factorization; each order's verdict counts
    mod = module_over((2, 1, 3, 1, 2), 2)
    k = _unit_scale_selfadjoint(mod, 97)
    res = diagonalize_selfadjoint(k)
    top = res.pair_labels[0]
    for b in range(mod.shape.num_blocks):
        blocks = list(pair(res, top).value.blocks)
        blocks[b] = blocks[b] - 10.0 * np.eye(len(blocks[b]))
        sunk = _replace_pair(res, top, value=AlgebraElement(mod.shape, blocks))
        assert not verify_eigensystem(k, sunk).ordering_ok, b


def _with_block(result, part, b, p, block):
    """result with block b of pair p's vector, value or support (part) replaced."""
    stacks = {name: list(getattr(result, name)) for name in ("vectors", "values", "supports")}
    stack = np.array(stacks[part][b])
    stack[p] = block
    stacks[part][b] = stack
    return DiagonalizationResult(
        result.module, result.pair_labels, tuple(stacks["vectors"]), tuple(stacks["values"]),
        tuple(stacks["supports"]), result.ordering_certificate, result.tolerance_used,
    )


def _split_first_pair(result):
    """The first pair cut by q = diag(1, 0, ..., 0) in every block into (q x, q v, q) and ((1 - q) x, (1 - q) v, 1 - q).

    The values are diagonal, so both parts are eigenpairs with proper
    supports and the claim stays exact; the second part gets a new label.
    The certificate is dropped.
    """
    parts = {"vectors": [], "values": [], "supports": []}
    for b, k in enumerate(result.module.shape.block_sizes):
        q = np.zeros((k, k))
        q[0, 0] = 1.0
        for name, cut in (("vectors", lambda m, p: p @ m), ("values", lambda m, p: m @ p), ("supports", lambda m, p: p)):
            stack = np.array(getattr(result, name)[b])
            first = stack[0].copy()
            stack[0] = cut(first, q)
            parts[name].append(np.concatenate([stack, cut(first, np.eye(k) - q)[None]]))
    labels = result.pair_labels + (max(result.pair_labels) + 1,)
    return DiagonalizationResult(
        result.module, labels, tuple(parts["vectors"]), tuple(parts["values"]), tuple(parts["supports"]),
        (), result.tolerance_used,
    )


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("sizes", [(2, 1, 3), (1, 2)])
def test_a_fault_in_one_block_flips_only_its_clause(sizes, rank):
    # each block is padded to the largest order; a fault in one block, the
    # smallest and most padded included, must show at its full size in the
    # clause that watches for it and in no other
    mod = module_over(sizes, rank)
    k = _unit_scale_selfadjoint(mod, 98)
    res = diagonalize_selfadjoint(k)
    split = _split_first_pair(res)
    assert verify_eigensystem(k, res).overall and verify_eigensystem(k, split).overall
    label, new = res.pair_labels[0], split.pair_labels[-1]
    for b, size in enumerate(sizes):
        strip = res.vectors[b][0]
        shifted = _with_block(res, "values", b, 0, res.values[b][0] + 1e-6 * np.eye(size))
        report = verify_eigensystem(k, shifted, moment_tol=1e-3)
        _only_failing(report, "eigen")
        assert report.worst_pairs["eigen"] == label
        assert report.eigen_residual == pytest.approx(1e-6 * np.linalg.norm(strip), rel=1e-6)

        report = verify_eigensystem(k, _with_block(res, "vectors", b, 0, 1.5 * strip))
        _only_failing(report, "projection")
        assert report.worst_pairs["projection"] == label
        assert report.projection_defect == pytest.approx(1.25 * np.linalg.norm(res.supports[b][0]), rel=1e-9)

        # the split pair's support 1 - q has a 0 in the corner: a value there is off support
        leak = np.array(split.values[b][-1])
        leak[0, 0] += 1e-6
        report = verify_eigensystem(k, _with_block(split, "values", b, -1, leak))
        _only_failing(report, "support")
        assert report.worst_pairs["support"] == new
        assert report.support_residual == pytest.approx(1e-6, rel=1e-9)
        assert report.oracle_ok


def _factors(mat) -> bool:
    """Whether one Hermitian matrix, scaled by its own power of two, has a Cholesky factor."""
    top = np.abs(mat).max()
    if not 0.0 < top < np.inf:
        return False
    try:
        np.linalg.cholesky(moddiag.eigen._times_power_of_two(mat, -np.frexp(top)[1]))
    except np.linalg.LinAlgError:
        return False
    return True


def _verify_reference(K, result, order_tol):
    """The clauses one algebra block at a time, with one factorization per matrix, as first written."""
    labels = result.pair_labels
    count = len(labels)
    scaled = moddiag.eigen._times_power_of_two
    frobenius = lambda stack: np.sqrt((np.abs(stack) ** 2).sum(axis=(-2, -1)))
    e = np.frexp(K.entrywise_max())[1]
    eigen, projection, support = np.zeros(count), np.zeros(count), np.zeros(count)
    own = np.arange(count)
    above = np.triu_indices(count, 1)
    orthogonality = np.zeros(above[0].size)
    complement = True
    for b, k in enumerate(K.module.shape.block_sizes):
        strips, sups = result.vectors[b], result.supports[b]
        vecs = strips.reshape(count * k, -1)
        vals = scaled(result.values[b], -e)
        image = (vecs @ scaled(K.blocks[b], -e)).reshape(count, k, -1)
        eigen = np.maximum(eigen, frobenius(image - vals @ strips))
        gram = (vecs @ vecs.conj().T).reshape(count, k, count, k).swapaxes(1, 2)
        orthogonality = np.maximum(orthogonality, frobenius(gram[above]))
        projection = np.maximum.reduce([
            projection,
            frobenius(gram[own, own] - sups),
            frobenius(sups - sups.conj().swapaxes(1, 2)),
            frobenius(sups @ sups - sups),
        ])
        support = np.maximum(support, frobenius(vals @ sups - vals))
        c = 1e-8 * max(1.0, np.linalg.norm(vecs))
        complement = complement and _factors(vecs.conj().T @ vecs - c * c * np.eye(vecs.shape[1]))
    values = dict(zip(labels, (p.value for p in result.pairs)))
    ordering = True
    for rel in result.ordering_certificate:
        if rel.lhs not in values and rel.lhs is not None or rel.rhs not in values and rel.rhs is not None:
            ordering = False
            break
        sides = [values[x] if x is not None else values[labels[0]].shape.zero() for x in (rel.lhs, rel.rhs)]
        if not all(side.is_selfadjoint() for side in sides):
            ordering = False
            break
        for lhs, rhs in zip(sides[0].blocks, sides[1].blocks):
            shifted = moddiag.algebra._sym(rhs - lhs) + order_tol * np.eye(len(lhs))
            ordering = ordering and (not shifted.any() or _factors(shifted))

    def worst(residuals, names):
        m = int(np.argmax(residuals)) if residuals.size else None
        return None if m is None or residuals[m] == 0.0 else names[m]

    return {
        "eigen": float(np.ldexp(eigen.max(), e)),
        "orthogonality": float(orthogonality.max(initial=0.0)),
        "projection": float(projection.max()),
        "support": float(np.ldexp(support.max(), e)),
        "complement": complement,
        "ordering": ordering,
        "worst_pairs": {
            "eigen": worst(eigen, labels),
            "orthogonality": worst(orthogonality, [(labels[i], labels[j]) for i, j in zip(*above)]),
            "projection": worst(projection, labels),
            "support": worst(support, labels),
        },
    }


def _differential_cases():
    yield from _battery()
    lad = projection_ladder(32)
    pairs = tuple(EigenPair(p.vector, p.value, p.support, i + 1) for i, p in enumerate(lad.expected))
    closed = DiagonalizationResult.from_pairs(pairs, (), 1e-9)
    yield lad.operator, closed
    yield lad.operator, diagonalize_selfadjoint(lad.operator)
    leak = lad.expected[7].value + 0.5 * (lad.shape.identity() - lad.expected[7].support)
    yield lad.operator, _replace_pair(closed, 8, value=leak)
    yield lad.operator, _replace_pair(closed, 40, vector=1.5 * lad.expected[39].vector)


def test_padded_clauses_match_the_per_block_loop():
    # blocks of one order need no padding and give the loop's floats; mixed
    # orders change only how BLAS groups the sums of the padded products
    one_order = mixed = 0
    for k, res in _differential_cases():
        report = verify_eigensystem(k, res)
        ref = _verify_reference(k, res, max(1e-9, res.tolerance_used) * report.operator_scale)
        shape = k.module.shape.block_sizes
        assert (report.complement_trivial, report.ordering_ok) == (ref["complement"], ref["ordering"]), shape
        assert report.worst_pairs == ref["worst_pairs"], shape
        overall = (
            ref["eigen"] <= report.residual_bound
            and ref["orthogonality"] <= report.tolerance
            and ref["projection"] <= report.tolerance
            and ref["support"] <= report.residual_bound
            and ref["complement"]
            and ref["ordering"]
            and report.oracle_ok
        )
        assert report.overall == overall, shape
        got = {
            "eigen": report.eigen_residual,
            "orthogonality": report.orthogonality_residual,
            "projection": report.projection_defect,
            "support": report.support_residual,
        }
        if len(set(shape)) == 1:
            one_order += 1
            assert got == {clause: ref[clause] for clause in got}, shape
        else:
            mixed += 1
            norm = k.norm()
            for clause, value in got.items():
                slack = 1e-13 * norm if clause in ("eigen", "support") else 1e-13
                assert abs(value - ref[clause]) <= slack, (shape, clause, value, ref[clause])
    assert one_order >= 20 and mixed >= 20
