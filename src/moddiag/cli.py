"""Command-line driver.

The diagonalize and spectrum commands take self-adjoint and normal problems.
Exit codes: 0 when every check passes, 1 on a verification failure or when
the eigensolver does not converge, 2 on a malformed or unusable input,
including an operator that is neither self-adjoint nor normal and a --tol
outside (0, 1). Problems and solutions travel as JSON files; see the io
module for the schemas.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .algebra import NotSelfAdjointError, leq
from .diagonalize import diagonalize_normal, diagonalize_selfadjoint
from .eigen import ConvergenceError, NotNormalError
from .gallery import projection_ladder, two_block_gallery
from .io import _MAX_ENTRY, InputFormatError, parse_problem, parse_solution, serialize_report, serialize_solution
from .modules import inner, left_action
from .verify import verify_eigensystem

__all__ = ["main"]

FAMILY_TOL = 1e-12
LADDER_TOL = 1e-10


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"not UTF-8 text (byte {exc.start})", path) from None


def _finish(report, out_path) -> int:
    print(report.summary())
    if out_path:
        Path(out_path).write_text(serialize_report(report), encoding="utf-8")
    return 0 if report.overall else 1


def _diagonalized(K, tol: float):
    """K's diagonalization and whether K is self-adjoint; the diagonalizers' own checks decide its kind."""
    try:
        return diagonalize_selfadjoint(K, tol), True
    except NotSelfAdjointError:
        pass
    try:
        return diagonalize_normal(K, tol), False
    except NotNormalError:
        raise InputFormatError("operator is neither self-adjoint nor normal", "problem.operator") from None


def _cmd_diagonalize(args) -> int:
    K = parse_problem(_read(args.input))
    result, _ = _diagonalized(K, args.tol)
    report = verify_eigensystem(K, result, tol=args.tol, moment_tol=args.moment_tol)
    if args.solution:
        Path(args.solution).write_text(serialize_solution(result), encoding="utf-8")
    labels = ", ".join(f"L{label}" for label in result.pair_labels)
    print(f"diagonalized into {len(result.pair_labels)} eigenpairs: {labels}")
    for rel in result.ordering_certificate:
        print(f"  relation {rel.describe()}")
    return _finish(report, args.out)


def _cmd_verify(args) -> int:
    K = parse_problem(_read(args.input))
    result = parse_solution(_read(args.solution))
    if result.module != K.module:
        raise InputFormatError("solution algebra or rank does not match the problem", "solution")
    report = verify_eigensystem(K, result, tol=args.tol, moment_tol=args.moment_tol)
    return _finish(report, args.out)


def _fmt_entry(z: complex) -> str:
    if abs(z.imag) <= 1e-12 * (1.0 + abs(z.real)):
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}i"


def _fmt_alg(a) -> str:
    parts = []
    for blk in a.blocks:
        diag = np.diag(blk)
        if np.abs(blk - np.diag(diag)).max() <= 1e-12:
            parts.append("diag(" + ", ".join(_fmt_entry(z) for z in diag) + ")")
        else:
            rows = "; ".join(" ".join(_fmt_entry(z) for z in row) for row in blk)
            parts.append("[" + rows + "]")
    return " (+) ".join(parts)


def _cmd_example8(args) -> int:
    g = two_block_gallery()
    ok = True
    print("operator: sum of two rank-one maps on a rank-2 module over M2")
    for family in g.families:
        side = "v * value" if family.right_action else "value * v"
        print(f"family '{family.name}' (relation K(v) = {side}):")
        for v, val in family.pairs:
            image = v * val if family.right_action else left_action(val, v)
            residual = (g.operator(v) - image).norm()
            gram = inner(v, v)
            ok = ok and residual <= FAMILY_TOL
            print(f"  value {_fmt_alg(val)}  residual {residual:.3e}  gram {_fmt_alg(gram)}")
        if family.unit_vectors:
            unit_defect = max((inner(v, v) - g.shape.identity()).norm() for v, _ in family.pairs)
            ok = ok and unit_defect <= FAMILY_TOL
            print(f"  all vectors are units (defect {unit_defect:.3e})")
    scaled, unit = g.families[0], g.families[1]
    lo, hi = unit.pairs[0][1], unit.pairs[1][1]
    comparable = leq(lo, hi)
    a, b = scaled.pairs[0][1], scaled.pairs[1][1]
    incomparable = (not leq(a, b)) and (not leq(b, a))
    ok = ok and comparable and incomparable
    print(f"unit family values comparable: {comparable}")
    print(f"scaled family values comparable: {not incomparable}")
    result = diagonalize_selfadjoint(g.operator, tol=args.tol)
    report = verify_eigensystem(g.operator, result, tol=args.tol)
    spectrum = sorted(z.real for z in result.scalar_spectrum()[0])
    print("diagonalizer spectrum:", ", ".join(f"{v:g}" for v in spectrum))
    code = _finish(report, args.out)
    return code if ok else max(code, 1)


def _cmd_prop4(args) -> int:
    try:
        ladder = projection_ladder(args.n, args.alphas)
    except ValueError as exc:
        raise InputFormatError(str(exc), "arguments") from None
    # the bound parse_problem puts on a problem file's numbers
    if ladder.alphas[0] >= _MAX_ENTRY:
        raise InputFormatError("coupling values must be below 2**1000", "arguments")
    worst = 0.0
    for pair in ladder.expected:
        residual = (ladder.operator(pair.vector) - left_action(pair.value, pair.vector)).norm()
        worst = max(worst, residual)
    print(f"ladder on a rank-{args.n} module over C^{args.n}")
    print(f"closed-form eigenpairs: {len(ladder.expected)}, worst residual {worst:.3e}")
    result = diagonalize_selfadjoint(ladder.operator, tol=args.tol)
    report = verify_eigensystem(ladder.operator, result, tol=args.tol)
    values = sorted({f"{z.real:g}" for blk in result.scalar_spectrum() for z in blk})
    print("diagonalizer scalar values:", ", ".join(values))
    code = _finish(report, args.out)
    return code if worst <= LADDER_TOL else max(code, 1)


def _cmd_spectrum(args) -> int:
    result, selfadjoint = _diagonalized(parse_problem(_read(args.input)), 1e-9)  # the diagonalizers' default tol
    fmt = "{0.real:.10g}" if selfadjoint else "{0.real:.10g}{0.imag:+.10g}i"
    for b, (k, spectrum) in enumerate(zip(result.module.shape.block_sizes, result.scalar_spectrum())):
        print(f"block {b} (size {k}): " + ", ".join(map(fmt.format, spectrum)))
    return 0


def _alpha_list(text: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moddiag",
        description="Diagonalize self-adjoint and normal operators on free modules over block matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagonalize", help="diagonalize a problem file and verify the output")
    p.add_argument("--input", required=True, help="problem JSON file")
    p.add_argument("--tol", type=_tol, default=1e-9, help="residual tolerance in (0, 1) (default 1e-9)")
    p.add_argument("--moment-tol", type=_tol, default=1e-7, help="relative moment tolerance in (0, 1) (default 1e-7)")
    p.add_argument("--out", help="write the verification report JSON here")
    p.add_argument("--solution", help="write the solution JSON here")
    p.set_defaults(func=_cmd_diagonalize)

    p = sub.add_parser("verify", help="verify an externally supplied solution")
    p.add_argument("--input", required=True, help="problem JSON file")
    p.add_argument("--solution", required=True, help="solution JSON file")
    p.add_argument("--tol", type=_tol, default=1e-9)
    p.add_argument("--moment-tol", type=_tol, default=1e-7)
    p.add_argument("--out", help="write the verification report JSON here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example8", help="run the rank-2 fixture with its three eigenvector families")
    p.add_argument("--tol", type=_tol, default=1e-9)
    p.add_argument("--out", help="write the verification report JSON here")
    p.set_defaults(func=_cmd_example8)

    p = sub.add_parser("prop4", help="run the projection ladder construction")
    p.add_argument("--n", type=int, required=True, help="number of blocks and module rank")
    p.add_argument("--alphas", type=_alpha_list, default=None, help="comma-separated couplings")
    p.add_argument("--tol", type=_tol, default=1e-9)
    p.add_argument("--out", help="write the verification report JSON here")
    p.set_defaults(func=_cmd_prop4)

    p = sub.add_parser("spectrum", help="print per-block scalar spectra of a problem file")
    p.add_argument("--input", required=True, help="problem JSON file")
    p.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, OSError, NotSelfAdjointError, NotNormalError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
