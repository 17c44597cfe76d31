"""Closed-form fixtures: the two-generator operator and the coupling ladder."""

import numpy as np
import pytest

from moddiag import (
    diagonalize_selfadjoint,
    inner,
    is_projection,
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
        assert not is_projection(gram)
        assert np.array_equal(gram.blocks[0], 2.0 * np.ones((2, 2)))


def test_gallery_diagonalizer_output():
    gal = two_block_gallery()
    res = diagonalize_selfadjoint(gal.operator)
    assert res.labels() == (1, 3)
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
        assert is_projection(pair.support, tol=EXACT)
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


def test_ladder_kernel_vectors_have_proper_supports():
    lad = projection_ladder(3)
    one = lad.shape.identity()
    for pair in lad.expected:
        assert not pair.support.isclose(one)


def test_ladder_diagonalizer_agrees():
    lad = projection_ladder(3)
    res = diagonalize_selfadjoint(lad.operator)
    assert res.labels() == (1, 2, 3)
    report = verify_eigensystem(lad.operator, res)
    assert report.overall, report.summary()
    # per algebra block the scalar spectrum is {alpha_b, 0, -alpha_b}
    # except in the first block, where the coupling never turns negative
    spectrum = res.scalar_spectrum()
    assert np.allclose([z.real for z in spectrum[0]], [0.5, 0.0, 0.0], atol=1e-12)
    assert np.allclose([z.real for z in spectrum[1]], [0.25, 0.0, -0.25], atol=1e-12)
    assert np.allclose([z.real for z in spectrum[2]], [0.125, 0.0, -0.125], atol=1e-12)


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
