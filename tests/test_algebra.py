"""Block algebra arithmetic, order, and spectral tools."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moddiag import (
    AlgebraElement,
    AlgebraShape,
    HilbertModule,
    ModuleElement,
    ModuleOperator,
    NotSelfAdjointError,
    ShapeMismatchError,
    eig_hermitian,
    leq,
)
from moddiag import algebra

from helpers import random_algebra_element, random_hermitian

TOL = 1e-10
TIGHT = 1e-12

SHAPE = AlgebraShape((2, 1, 3))


def test_shape_basics():
    assert SHAPE.num_blocks == 3
    assert SHAPE.identity().trace() == pytest.approx(6)
    assert SHAPE.zero().norm() == 0.0


def test_shape_rejects_bad_sizes():
    with pytest.raises(ValueError):
        AlgebraShape((2, 0))
    with pytest.raises(ValueError):
        AlgebraShape(())


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", True, np.True_, None, 0, -1], ids=repr)
def test_sizes_and_ranks_must_be_positive_integers(bad):
    # int() used to truncate 2.5 to 2, read "3" as 3 and True as 1
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        AlgebraShape((bad, 1))
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        HilbertModule(AlgebraShape((2,)), bad)


def test_numpy_integer_sizes_and_ranks_are_ints():
    module = HilbertModule(AlgebraShape((np.int64(2), np.int32(1))), np.int64(3))
    assert module.shape.block_sizes == (2, 1) and module.rank == 3
    assert all(type(k) is int for k in (*module.shape.block_sizes, module.rank))


def test_repr_makes_no_solver_call(monkeypatch):
    # repr used to print the norm, one eig_hermitian call per repr
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return eig_hermitian(*args, **kwargs)

    monkeypatch.setattr(algebra, "eig_hermitian", spy)
    a = random_algebra_element(SHAPE, np.random.default_rng(3))
    assert repr(a) == "AlgebraElement(blocks=(2, 1, 3))"
    assert calls == []
    a.norm()
    assert len(calls) == 1


def test_element_validates_block_shapes():
    with pytest.raises(ShapeMismatchError):
        AlgebraElement(SHAPE, [np.eye(2), np.eye(1)])
    with pytest.raises(ShapeMismatchError):
        AlgebraElement(SHAPE, [np.eye(2), np.eye(2), np.eye(3)])


def test_diagonal_checks_its_entry_lists():
    with pytest.raises(ShapeMismatchError, match=r"^one entry list per block expected$"):
        SHAPE.diagonal([[1, 2], [3]])
    with pytest.raises(ShapeMismatchError, match=r"^expected 1 diagonal entries, got \(2,\)$"):
        SHAPE.diagonal([[1, 2], [3, 4], [5, 6, 7]])


TWO = AlgebraShape((2, 1))
CONTAINERS = {
    "algebra": (AlgebraElement, TWO, [(2, 2), (1, 1)]),
    "module": (ModuleElement, HilbertModule(TWO, 2), [(2, 4), (1, 2)]),
    "operator": (ModuleOperator, HilbertModule(TWO, 2), [(4, 4), (2, 2)]),
}


@pytest.mark.parametrize("kind", list(CONTAINERS))
def test_block_containers_check_their_blocks(kind):
    cls, space, shapes = CONTAINERS[kind]
    good = [np.ones(sh) for sh in shapes]
    x = cls(space, good)
    assert all(not blk.flags.writeable and blk.dtype == np.complex128 for blk in x.blocks)
    name = "shape" if kind == "algebra" else "module"
    assert getattr(x, name) is space
    with pytest.raises(AttributeError):
        setattr(x, name, space)
    good[0][0, 0] = 7.0  # the blocks are copies
    assert x.blocks[0][0, 0] == 1.0
    # surplus blocks are refused before any block is read, not dropped
    for extra in (np.ones(shapes[0]), np.full(shapes[-1], np.nan), "x"):
        with pytest.raises(ShapeMismatchError):
            cls(space, good + [extra])
    with pytest.raises(ShapeMismatchError):
        cls(space, good[:1])
    with pytest.raises(ShapeMismatchError):
        cls(space, [np.ones(shapes[1]), np.ones(shapes[1])])
    for bad in (np.nan, np.inf):
        blocks = [np.ones(sh) for sh in shapes]
        blocks[1][0, -1] = bad
        with pytest.raises(ValueError) as err:
            cls(space, blocks)
        assert not isinstance(err.value, ShapeMismatchError)
    for other_kind, (other_cls, other_space, other_shapes) in CONTAINERS.items():
        if other_kind != kind:
            y = other_cls(other_space, [np.ones(sh) for sh in other_shapes])
            with pytest.raises(TypeError):
                x + y
            with pytest.raises(TypeError):
                y - x


LADDER = HilbertModule(AlgebraShape((1,) * 32), 32)


def _no_fault_walk(monkeypatch):
    def walked(*args):
        raise AssertionError("the fault walk ran on valid blocks")

    monkeypatch.setattr(algebra, "_first_fault", walked)


def test_valid_blocks_of_one_shape_are_copied_as_one_stack(monkeypatch):
    _no_fault_walk(monkeypatch)
    rng = np.random.default_rng(24)
    stacks = {
        AlgebraElement: (LADDER.shape, rng.standard_normal((32, 1, 1))),
        ModuleElement: (LADDER, rng.standard_normal((32, 1, 32)) + 1j),
        ModuleOperator: (LADDER, rng.standard_normal((32, 32, 32))),
    }
    for cls, (space, stack) in stacks.items():
        for given in (stack, list(stack), [blk.tolist() for blk in stack]):
            x = cls(space, given)
            assert len(x.blocks) == 32 and all(blk.base is x.blocks[0].base for blk in x.blocks)
            assert np.array_equal(np.stack(x.blocks), stack)
    # two shapes, each met twice: one stack each, blocks in their own order
    mixed = [np.full((k, k), b) for b, k in enumerate((2, 1, 2, 1))]
    x = AlgebraElement(AlgebraShape((2, 1, 2, 1)), mixed)
    assert [blk[0, 0] for blk in x.blocks] == [0, 1, 2, 3]
    assert x.blocks[0].base is x.blocks[2].base is not x.blocks[1].base


def _per_block_freeze(blocks, shapes, what):
    """The per-block copy that the stacked one replaced, as the reference for its errors."""
    if len(blocks) != len(shapes):
        raise ShapeMismatchError(f"{what}: expected {len(shapes)} blocks, got {len(blocks)}")
    mats = []
    for want, raw in zip(shapes, blocks):
        m = np.array(raw, dtype=np.complex128)
        if m.shape != want:
            raise ShapeMismatchError(f"{what}: block must be {want}, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError(f"{what} has non-finite entries")
        mats.append(m)
    return tuple(mats)


NAN = np.full((2, 2), np.nan)
FAULTS = {
    "nan-then-shape": [NAN, np.eye(3), np.eye(1)],
    "shape-then-nan": [np.eye(3), NAN, np.eye(1)],
    "ragged": [[[1.0, 2.0], [3.0]], np.eye(2), np.eye(1)],
    "string": [[["x", 0], [0, 1]], np.eye(2), np.eye(1)],
    "none": [np.eye(2), [[1, None], [0, 1]], np.eye(1)],
    "int-beyond-float": [[[10**400, 0], [0, 1]], np.eye(2), np.eye(1)],
    "lone-shape-after-a-stack": [np.eye(2), np.eye(2), [[np.inf]]],
    "lone-shape-before-a-ragged-stack": [np.eye(2), [[1, 2], [3]], "x"],
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_the_first_fault_in_block_order_keeps_its_error(fault):
    blocks = FAULTS[fault]
    shape = AlgebraShape((2, 2, 1))
    with pytest.raises(Exception) as expected:
        _per_block_freeze(blocks, [(2, 2), (2, 2), (1, 1)], "AlgebraElement")
    with pytest.raises(type(expected.value)) as err:
        AlgebraElement(shape, blocks)
    assert type(err.value) is type(expected.value) and str(err.value) == str(expected.value)


def test_a_fault_in_an_ndarray_stack_keeps_its_message():
    stack = np.zeros((32, 32, 32))
    stack[5, 3, 4] = np.inf
    with pytest.raises(ValueError, match="^ModuleOperator has non-finite entries$"):
        ModuleOperator(LADDER, stack)
    with pytest.raises(ShapeMismatchError, match=re.escape("block must be (32, 32), got (32, 31)")):
        ModuleOperator(LADDER, stack[:, :, :31])


def test_blocks_that_pass_alone_but_do_not_stack_are_refused():
    # an object array of blocks goes to the stacked copy as given
    blocks = np.empty(2, dtype=object)
    blocks[0], blocks[1] = np.eye(2), np.eye(2)
    with pytest.raises(ShapeMismatchError, match="must form one array"):
        AlgebraElement(AlgebraShape((2, 2)), blocks)
    assert AlgebraElement(AlgebraShape((2, 2)), list(blocks)).trace() == 4


def test_blocks_are_read_only_and_the_callers_stack_stays_its_own():
    stack = np.ones((32, 1, 32))
    x = ModuleElement(LADDER, stack)
    for blk in x.blocks:
        with pytest.raises(ValueError, match="read-only"):
            blk[0, 0] = 2.0
    assert not x.blocks[0].base.flags.writeable
    stack *= 3
    assert stack.flags.writeable
    assert all(np.array_equal(blk, np.ones((1, 32))) for blk in x.blocks)


def test_diagonal():
    a = SHAPE.diagonal([[1, 2], [3], [4, 5, 6]])
    assert a.trace() == pytest.approx(21)


def test_arithmetic_matches_blockwise_numpy():
    rng = np.random.default_rng(21)
    a = random_algebra_element(SHAPE, rng)
    b = random_algebra_element(SHAPE, rng)
    s = a + b
    d = a - b
    p = a * b
    for blk_a, blk_b, blk_s, blk_d, blk_p in zip(a.blocks, b.blocks, s.blocks, d.blocks, p.blocks):
        assert np.allclose(blk_s, blk_a + blk_b, atol=TIGHT)
        assert np.allclose(blk_d, blk_a - blk_b, atol=TIGHT)
        assert np.allclose(blk_p, blk_a @ blk_b, atol=TIGHT)
    assert np.allclose((2.0 * a).blocks[0], 2.0 * a.blocks[0], atol=TIGHT)
    assert np.allclose((-a).blocks[2], -a.blocks[2], atol=TIGHT)


def test_adjoint_is_blockwise_conjugate_transpose():
    rng = np.random.default_rng(22)
    a = random_algebra_element(SHAPE, rng)
    for blk, adj in zip(a.blocks, a.adjoint().blocks):
        assert np.array_equal(adj, blk.conj().T)


def test_norm_is_largest_block_spectral_norm():
    rng = np.random.default_rng(23)
    first = random_algebra_element(SHAPE, rng)
    # the second input mixes orders 1, 4 and 2 at scales 1e-6, 0 and 1e6
    # in the one stacked solve of all blocks
    mixed = AlgebraShape((1, 4, 2))
    c = random_algebra_element(mixed, rng)
    second = AlgebraElement(mixed, [s * blk for s, blk in zip((1e-6, 0.0, 1e6), c.blocks)])
    for a in (first, second):
        want = max(np.linalg.norm(blk, 2) for blk in a.blocks)
        assert a.norm() == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("s", [1e-200, 1e200])
def test_norm_is_scale_covariant(s):
    # a* a is formed after exact power-of-two scaling; squaring the raw
    # entries gave 0.0 at 1e-200 and non-finite entries at 1e200
    rng = np.random.default_rng(24)
    a = random_algebra_element(SHAPE, rng)
    k = ModuleOperator(HilbertModule(SHAPE, 2), [random_hermitian(rng, 2 * n) for n in SHAPE.block_sizes])
    assert (s * a).norm() == pytest.approx(s * a.norm(), rel=1e-13, abs=0.0)
    assert (s * k).norm() == pytest.approx(s * k.norm(), rel=1e-13, abs=0.0)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
)
def test_cstar_identity(re, im):
    shape = AlgebraShape((2,))
    mat = np.array(re).reshape(2, 2) + 1j * np.array(im).reshape(2, 2)
    a = AlgebraElement(shape, [mat])
    lhs = (a.adjoint() * a).norm()
    assert lhs == pytest.approx(a.norm() ** 2, rel=1e-9, abs=1e-12)


def test_leq_frozen_examples():
    shape = AlgebraShape((2,))
    lo = shape.diagonal([[1, 4]])
    hi = shape.diagonal([[4, 9]])
    other = shape.diagonal([[1, 9]])
    flat = shape.diagonal([[4, 4]])
    assert leq(lo, hi)
    assert not leq(hi, lo)
    assert leq(lo, lo)
    # neither direction holds for this pair
    assert not leq(other, flat)
    assert not leq(flat, other)


def test_leq_requires_selfadjoint():
    shape = AlgebraShape((2,))
    bad = AlgebraElement(shape, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(NotSelfAdjointError):
        leq(bad, shape.identity())


def _eigenvalue_leq(a, b, tol):
    # the rule leq decided by before it used Cholesky, with numpy as the oracle
    return all(np.linalg.eigvalsh(0.5 * (d + d.conj().T))[0] >= -tol for d in (b - a).blocks)


def test_leq_agrees_with_the_eigenvalue_rule():
    rng = np.random.default_rng(31)
    shapes = (SHAPE, AlgebraShape((5,)), AlgebraShape((1, 1, 1)))
    checked = 0
    for i in range(240):
        shape = shapes[i % 3]
        s = (1e-150, 1.0, 1e150)[i % 5 % 3]
        a = AlgebraElement(shape, [s * random_hermitian(rng, k) for k in shape.block_sizes])
        tol = s * (0.0, 1e-10, 1e-6, 1e-3)[i % 4]
        # b - a has its smallest eigenvalue at -tol + margin in one block
        margin = s * float(rng.choice([-1e-2, -1e-4, -1e-6, -1e-8, 0.0, 1e-8, 1e-6, 1e-4, 1e-2]))
        diffs = []
        for b_, k in enumerate(shape.block_sizes):
            q = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
            lam = s * rng.uniform(0.1, 1.0, k)
            if b_ == 0:
                lam[0] = -tol + margin
            diffs.append(q @ np.diag(lam) @ q.conj().T)
        b = a + AlgebraElement(shape, diffs)
        lowest = min(np.linalg.eigvalsh(d)[0] for d in (b - a).blocks)
        if abs(lowest + tol) > 1e-6 * s:
            assert leq(a, b, tol=tol) == _eigenvalue_leq(a, b, tol), (i, lowest, tol)
            checked += 1
    assert checked >= 100


def test_leq_at_zero_tolerance_is_exact_semidefiniteness():
    a = SHAPE.diagonal([[1, 2], [3], [4, 5, 6]])
    assert leq(a, a, tol=0.0)
    assert leq(SHAPE.zero(), SHAPE.zero(), tol=0.0)
    assert leq(a, a + SHAPE.identity(), tol=0.0)
    assert not leq(a + SHAPE.identity(), a, tol=0.0)


def test_leq_fails_when_one_block_fails():
    # blocks of equal order share a factorization; each order's verdict counts
    shape = AlgebraShape((2, 1, 3, 1, 2))
    rng = np.random.default_rng(34)
    a = AlgebraElement(shape, [random_hermitian(rng, k) for k in shape.block_sizes])
    for b in range(shape.num_blocks):
        diffs = [np.eye(k) for k in shape.block_sizes]
        diffs[b] = diffs[b] - 2.0 * np.diag(np.arange(shape.block_sizes[b]) == 0)
        assert not leq(a, a + AlgebraElement(shape, diffs)), b
        assert leq(a, a + AlgebraElement(shape, [abs(d) for d in diffs]))


def _leq_cases():
    """Pairs (a, b) whose verdict is far from the tolerance's edge, or exactly semidefinite."""
    rng = np.random.default_rng(33)
    for shape in (SHAPE, AlgebraShape((4,)), AlgebraShape((1, 1, 1))):
        a = AlgebraElement(shape, [random_hermitian(rng, k) for k in shape.block_sizes])
        pd, indefinite, projection = [], [], []
        for k in shape.block_sizes:
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            pd.append(g @ g.conj().T + 0.1 * np.eye(k))
            indefinite.append(pd[-1] - 2.0 * np.trace(pd[-1]).real * np.outer(np.eye(k)[0], np.eye(k)[0]))
            projection.append(np.diag((np.arange(k) % 2 == 0).astype(float)))
        for diff in (pd, indefinite, projection, [0.0 * d for d in pd]):
            yield a, a + AlgebraElement(shape, diff)


def test_leq_default_tolerance_carries_no_units():
    # with a default slack of 1e-10 * (1 + ||b - a||), x <= 0 held for
    # x = 1e-12 while it failed for x = 1 and x = 1e-9
    x, zero = AlgebraShape((1,)).identity(), AlgebraShape((1,)).zero()
    for s in (1.0, 1e-9, 1e-12, 1e-200):
        assert not leq(s * x, zero) and leq(zero, s * x)
    scales = [2.0**j for j in range(-660, 661, 60)] + [10.0**j for j in range(-200, 201, 25)]
    verdicts = []
    for a, b in _leq_cases():
        expected = leq(a, b)
        verdicts.append(expected)
        for s in scales:
            assert leq(s * a, s * b) == expected, s
    assert 0 < verdicts.count(False) < len(verdicts)


@pytest.mark.parametrize("s", [1e-13, 1e-10, 1e-6, 1e12])
def test_is_selfadjoint_is_relative_to_the_largest_entry(s):
    shape = AlgebraShape((2,))
    assert not AlgebraElement(shape, [s * np.array([[0.0, 1.0], [0.0, 0.0]])]).is_selfadjoint()
    rng = np.random.default_rng(32)
    h = random_hermitian(rng, 2)
    for t in 10.0 ** np.arange(-200, 201, 50):
        assert AlgebraElement(shape, [t * h]).is_selfadjoint()
    assert shape.zero().is_selfadjoint()


def test_mixed_shape_arithmetic_raises():
    a = AlgebraShape((2,)).identity()
    b = AlgebraShape((3,)).identity()
    with pytest.raises(ShapeMismatchError):
        a + b
