"""Shared random generators for the test suite.

Every generator takes an explicit numpy Generator so each test controls its
own seed. numpy.linalg appears here on purpose: the tests use it as an
independent oracle against the package's own solver, which never calls it.
"""

import numpy as np

from moddiag import AlgebraElement, AlgebraShape, HilbertModule, ModuleElement, ModuleOperator

ACCEPTANCE_SHAPES = [(2,), (2, 3), (1, 1, 1, 1), (2, 1, 3)]


def random_hermitian(rng, d, scale=1.0):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (m + m.conj().T) / 2.0


def random_operator(module, rng, scale=1.0):
    blocks = []
    for k in module.shape.block_sizes:
        d = module.rank * k
        blocks.append(scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
    return ModuleOperator(module, blocks)


def random_selfadjoint_operator(module, rng, scale=1.0):
    blocks = [random_hermitian(rng, module.rank * k, scale) for k in module.shape.block_sizes]
    return ModuleOperator(module, blocks)


def random_positive_operator(module, rng, floor=0.1):
    """Positive definite: B B* plus a multiple of the identity."""
    b = random_selfadjoint_operator(module, rng)
    return b @ b.adjoint() + floor * ModuleOperator.identity(module)


def random_normal_operator(module, rng):
    """Unitary conjugate of a complex diagonal, one frame per block."""
    blocks = []
    for k in module.shape.block_sizes:
        d = module.rank * k
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        vals = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        blocks.append(q @ np.diag(vals) @ q.conj().T)
    return ModuleOperator(module, blocks)


def random_algebra_element(shape, rng, scale=1.0):
    mats = [
        scale * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        for k in shape.block_sizes
    ]
    return AlgebraElement(shape, mats)


def random_unitary_element(shape, rng):
    mats = []
    for k in shape.block_sizes:
        q = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
        mats.append(q)
    return AlgebraElement(shape, mats)


def random_element(module, rng, scale=1.0):
    mats = [
        scale
        * (
            rng.standard_normal((k, module.rank * k))
            + 1j * rng.standard_normal((k, module.rank * k))
        )
        for k in module.shape.block_sizes
    ]
    return ModuleElement(module, mats)


def module_over(sizes, rank):
    return HilbertModule(AlgebraShape(tuple(sizes)), rank)


def pair(result, label):
    """The eigenpair of result that carries label."""
    return result.pairs[result.pair_labels.index(label)]


def strip_stacks(elements, module=None):
    """Per algebra block, the (P, k, n*k) stack of the elements' row strips."""
    module = module or elements[0].module
    return [
        np.array([e.blocks[b] for e in elements]).reshape(len(elements), k, module.rank * k)
        for b, k in enumerate(module.shape.block_sizes)
    ]
