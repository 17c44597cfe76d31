"""Closed-form fixtures: the two-generator operator and the coupling ladder."""

import numpy as np
import pytest

from moddiag import (
    ModuleElement,
    diagonalize_selfadjoint,
    inner,
    left_action,
    leq,
    orthogonal_complement_trivial,
    projection_ladder,
    right_action,
    theta,
    two_block_gallery,
    verify_eigensystem,
)

from helpers import strip_stacks

EXACT = 1e-12


def _family(gal, name):
    for fam in gal.families:
        if fam.name == name:
            return fam
    raise AssertionError(name)


def test_gallery_relations_are_exact():
    gal = two_block_gallery()
    k = gal.operator
    for fam in gal.families:
        for vec, val in fam.pairs:
            if fam.right_action:
                want = right_action(vec, val)
            else:
                want = left_action(val, vec)
            assert (k(vec) - want).norm() <= EXACT, fam.name


def test_gallery_operator_is_sum_of_generator_thetas():
    gal = two_block_gallery()
    x, y = gal.generators
    rebuilt = theta(x, x) + theta(y, y)
    assert (rebuilt - gal.operator).entrywise_max() == 0.0
    assert gal.operator.is_selfadjoint()


def test_scaled_family_values_incomparable():
    gal = two_block_gallery()
    fam = _family(gal, "scaled")
    a = fam.pairs[0][1]
    b = fam.pairs[1][1]
    assert not leq(a, b)
    assert not leq(b, a)
    assert not fam.unit_vectors


def test_unit_family_values_comparable():
    gal = two_block_gallery()
    fam = _family(gal, "unit")
    a = fam.pairs[0][1]
    b = fam.pairs[1][1]
    assert leq(a, b)
    assert fam.unit_vectors
    for vec, _ in fam.pairs:
        assert inner(vec, vec).isclose(gal.shape.identity(), tol=EXACT)


def test_invariant_family_uses_right_action_only():
    gal = two_block_gallery()
    fam = _family(gal, "invariant")
    assert fam.right_action
    k = gal.operator
    for vec, val in fam.pairs:
        left = (k(vec) - left_action(val, vec)).norm()
        right = (k(vec) - right_action(vec, val)).norm()
        assert right <= EXACT
        assert left > 1.0  # genuinely fails as a left-action eigenvector
        gram = inner(vec, vec)
        assert not (gram.isclose(gram.adjoint(), 1e-9) and (gram * gram).isclose(gram, 1e-9))
        assert np.array_equal(gram.blocks[0], 2.0 * np.ones((2, 2)))


def test_gallery_diagonalizer_output():
    gal = two_block_gallery()
    res = diagonalize_selfadjoint(gal.operator)
    assert res.pair_labels == (1, 3)
    assert [r.describe() for r in res.ordering_certificate] == ["L3 <= L1", "0 <= L3"]
    spectrum = sorted(z.real for z in res.scalar_spectrum()[0])
    assert np.allclose(spectrum, [1.0, 4.0, 4.0, 9.0], atol=1e-10)
    report = verify_eigensystem(gal.operator, res)
    assert report.overall, report.summary()


def test_ladder_expected_pairs_are_exact():
    lad = projection_ladder(5)
    k = lad.operator
    for pair in lad.expected:
        residual = (k(pair.vector) - left_action(pair.value, pair.vector)).norm()
        assert residual <= EXACT
        assert pair.support.isclose(pair.support.adjoint(), EXACT)
        assert (pair.support * pair.support).isclose(pair.support, EXACT)
        # value lives on its support
        assert (pair.value * pair.support - pair.value).norm() <= EXACT
        gram = inner(pair.vector, pair.vector)
        assert gram.isclose(pair.support, tol=EXACT)


def test_ladder_counts_and_alphas():
    lad = projection_ladder(4)
    assert len(lad.expected) == 3 * 4 - 2
    assert lad.alphas == (0.5, 0.25, 0.125, 0.0625)
    custom = projection_ladder(3, [3.0, 2.0, 1.0])
    assert custom.alphas == (3.0, 2.0, 1.0)


def test_ladder_family_is_orthogonal_with_trivial_complement():
    lad = projection_ladder(4)
    vecs = [p.vector for p in lad.expected]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert inner(vecs[i], vecs[j]).norm() <= EXACT
    assert orthogonal_complement_trivial(strip_stacks(vecs))


def _ladder_pairs_by_element_arithmetic(count, alphas):
    """The expected ladder pairs built as they first were, through element arithmetic."""
    lad = projection_ladder(count, alphas)
    shape, module = lad.shape, lad.module
    one = shape.identity()
    # one-hot diagonals and identity strips: the 0.0 and 1.0 entries of the
    # central projections and the basis elements
    proj = [shape.diagonal([[float(c == b)] * k for c, k in enumerate(shape.block_sizes)]) for b in range(count)]
    basis = [ModuleElement(module, [np.eye(k, count * k, i * k) for k in shape.block_sizes]) for i in range(count)]
    alphas = lad.alphas
    expected = [(proj[0] * basis[0], alphas[0] * proj[0], proj[0])]
    root_half = 1.0 / np.sqrt(2.0)
    for n in range(1, count):
        plus = root_half * (proj[n] * (basis[0] + basis[n]))
        minus = root_half * (proj[n] * (basis[0] - basis[n]))
        expected.append((plus, alphas[n] * proj[n], proj[n]))
        expected.append((minus, -alphas[n] * proj[n], proj[n]))
    for n in range(1, count):
        comp = one - proj[n]
        expected.append((comp * basis[n], shape.zero(), comp))
    return expected


@pytest.mark.parametrize("seeded", [False, True], ids=["default", "seeded"])
@pytest.mark.parametrize("count", [2, 3, 32])
def test_ladder_pairs_are_bit_identical_to_element_arithmetic(count, seeded):
    # the pairs are written down from arrays; every entry, zero signs
    # included (the values of the minus pairs hold -0.0), is the bit pattern
    # that the products and sums of elements gave
    rng = np.random.default_rng(count)
    alphas = list(2.0 ** -np.arange(1, count + 1) * (1.0 + 0.25 * rng.random(count))) if seeded else None
    lad = projection_ladder(count, alphas)
    reference = _ladder_pairs_by_element_arithmetic(count, alphas)
    assert len(lad.expected) == len(reference) == 3 * count - 2
    for pair, parts in zip(lad.expected, reference):
        for got, want in zip(pair, parts):
            assert type(got) is type(want)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got.blocks, want.blocks))


def test_ladder_kernel_vectors_have_proper_supports():
    lad = projection_ladder(3)
    one = lad.shape.identity()
    for pair in lad.expected:
        assert not pair.support.isclose(one)


def test_ladder_diagonalizer_agrees():
    lad = projection_ladder(3)
    res = diagonalize_selfadjoint(lad.operator)
    assert res.pair_labels == (1, 2, 3)
    report = verify_eigensystem(lad.operator, res)
    assert report.overall, report.summary()
    # per algebra block the scalar spectrum is {alpha_b, 0, -alpha_b}
    # except in the first block, where the coupling never turns negative
    spectrum = res.scalar_spectrum()
    assert np.allclose([z.real for z in spectrum[0]], [0.5, 0.0, 0.0], atol=1e-12)
    assert np.allclose([z.real for z in spectrum[1]], [0.25, 0.0, -0.25], atol=1e-12)
    assert np.allclose([z.real for z in spectrum[2]], [0.125, 0.0, -0.125], atol=1e-12)


@pytest.mark.parametrize("count", [2.5, 3.0, "3"])
def test_ladder_count_must_be_an_integer(count):
    # 2.5 and 3.0 raised a TypeError from range; sizes and ranks name the value
    with pytest.raises(ValueError, match=repr(count)):
        projection_ladder(count)


@pytest.mark.parametrize("count", [1, 0, -3, np.int64(1)])
def test_ladder_count_below_two_is_refused(count):
    with pytest.raises(ValueError, match="count must be at least 2"):
        projection_ladder(count)


def test_ladder_count_may_be_a_numpy_integer():
    ladder = projection_ladder(np.int64(3))
    assert ladder.operator.module.rank == 3
    assert all(np.array_equal(a, b) for a, b in zip(ladder.operator.blocks, projection_ladder(3).operator.blocks))


def test_ladder_validation():
    with pytest.raises(ValueError):
        projection_ladder(1)
    with pytest.raises(ValueError):
        projection_ladder(3, [1.0, 0.5])
    with pytest.raises(ValueError):
        projection_ladder(2, [1.0, -0.5])
    with pytest.raises(ValueError):
        projection_ladder(2, [0.5, 0.5])
    with pytest.raises(ValueError):
        projection_ladder(2, [0.25, 0.5])
