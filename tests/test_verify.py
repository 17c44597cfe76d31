"""Each verification clause must fail alone under a targeted tampering.

The point of these tests is soundness: a doctored certificate or eigenpair
list has to trip exactly the clause that watches for it, which proves the
clauses are independent checks rather than shadows of one another.
"""

import json

import numpy as np
import pytest

import moddiag
from moddiag import (
    AlgebraElement,
    DiagonalizationResult,
    EigenPair,
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
    verify_eigensystem,
)

from helpers import (
    ACCEPTANCE_SHAPES,
    module_over,
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
    label = res.labels()[0]
    bad_value = res.pair_by_label(label).value + 1e-6 * mod.shape.identity()
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
    label = res.labels()[1]
    short = res.pair_by_label(label).vector * 0.5
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
        vector=mod.zero_element(),
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
    a, b = res.labels()[0], res.labels()[1]
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
    label = res.labels()[0]
    shifted = res.pair_by_label(label).value + 1e-3 * mod.shape.identity()
    tampered = _replace_pair(res, label, value=shifted)
    assert not moment_deviation(k, tampered) <= 1e-7
    assert moment_deviation(k, tampered) > 1e-5


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
    x1, x3 = res.pair_by_label(1).vector, res.pair_by_label(3).vector
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
    long = res.pair_by_label(3).vector * 1.5
    report = verify_eigensystem(k, _replace_pair(res, 3, vector=long))
    _only_failing(report, "projection")
    assert report.worst_pairs["projection"] == 3
    assert report.oracle_ok


@pytest.mark.parametrize("s", [1.0, 1e12, 1e-160])
def test_shifted_value_flips_only_eigen_residual_at_every_scale(s):
    mod = module_over((2,), 2)
    k = s * _unit_scale_selfadjoint(mod, 88)
    res = diagonalize_selfadjoint(k)
    label = res.labels()[-1]
    shifted = res.pair_by_label(label).value + 1e-6 * s * mod.shape.identity()
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
    label = res.labels()[0]
    shifted = _replace_pair(res, label, value=res.pair_by_label(label).value + 1e-3 * mod.shape.identity())
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
    stray = module_over((2,), 3).basis_element(0)
    with pytest.raises(ShapeMismatchError):
        verify_eigensystem(k, _replace_pair(res, res.labels()[-1], vector=stray))


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
        first, last = res.labels()[0], res.labels()[-1]
        bump = res.pair_by_label(first).value + 1e-5 * k.norm() * mod.shape.identity()
        yield k, _replace_pair(res, first, value=bump)
        mixed = res.pair_by_label(last).vector + 0.3 * res.pair_by_label(first).vector
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
    labels = res.labels()
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
    yield _replace_pair(res, first, value=res.pair_by_label(first).value - 1e-3 * s * identity)
    yield _replace_pair(res, second, value=res.pair_by_label(second).value + 1e-12 * s * identity)
    blocks = [np.array(b) for b in res.pair_by_label(first).value.blocks]
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
            expected = _leq_reference(res, max(1e-9, res.tolerance_used) * report.operator_scale)
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


def test_exactly_zero_shifted_blocks_pass_the_ordering_clause():
    # for K = 0 the slack is 0, so every rhs - lhs + 0 * I is exactly zero,
    # which is semidefinite but has no Cholesky factor
    mod = module_over((2, 1, 1), 3)
    k = ModuleOperator.zero(mod)
    res = diagonalize_selfadjoint(k)
    labels = res.labels()
    every_way = tuple(OrderRelation(a, b) for a in labels + (None,) for b in labels + (None,))
    report = verify_eigensystem(k, DiagonalizationResult.from_pairs(res.pairs, every_way, res.tolerance_used))
    assert report.operator_scale == 0.0
    assert report.ordering_ok and report.overall, report.summary()
    zeros = np.zeros((3, 2, 2))
    assert moddiag.algebra._all_above([zeros], 0.0)
    assert not moddiag.algebra._all_positive_definite(zeros)


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
    label = res.labels()[0]
    crooked = res.pair_by_label(label).value + mod.shape.element([np.array([[0.0, 0.5], [0.0, 0.0]])])
    report = verify_eigensystem(k, _replace_pair(res, label, value=crooked))
    assert not report.ordering_ok and not report.overall


def test_a_relation_false_in_one_block_only_fails_the_clause():
    # blocks of equal order share a factorization; each order's verdict counts
    mod = module_over((2, 1, 3, 1, 2), 2)
    k = _unit_scale_selfadjoint(mod, 97)
    res = diagonalize_selfadjoint(k)
    top = res.labels()[0]
    for b in range(mod.shape.num_blocks):
        blocks = list(res.pair_by_label(top).value.blocks)
        blocks[b] = blocks[b] - 10.0 * np.eye(len(blocks[b]))
        sunk = _replace_pair(res, top, value=AlgebraElement(mod.shape, blocks))
        assert not verify_eigensystem(k, sunk).ordering_ok, b
