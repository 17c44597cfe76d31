"""Seeded inputs, timed operations and the correctness gate of each workload.

A workload object has three parts. `make_inputs` generates the inputs from
the seed and writes any input files; it is the timed set-up and may run
several times. `prepare_gate` computes the reference answers once, untimed.
`run_pass` performs one pass of operations, times each call into the
program, and checks each result against the references; a check that fails
or an exception from the program counts the operation as failed instead of
ending the run.

The reference spectra come from numpy.linalg, which the package itself never
calls, so the gate is independent of the solver under test. Times are kept
scaled to a reference host speed; see Tally and calibrate.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import moddiag
import moddiag.cli

# a claimed eigenvalue may differ from the reference by this share of ||K||
GATE_RTOL = 1e-9
# calibrate()'s typical time on the machine the benchmark was written on, a
# 2-vCPU Intel Xeon VM, so scaled times read as seconds on that machine
CAL_REF_S = 0.026
CAL_EVERY_S = 0.5
ACCEPTANCE_SHAPES = ((2,), (2, 3), (1, 1, 1, 1), (2, 1, 3))


@dataclass
class Tally:
    """Per-call times of one phase, the calibrations behind them, and the gate's verdicts.

    Every time is stored scaled to the reference speed: multiplied by
    CAL_REF_S over the calibration taken before the operation, which
    `start` renews once the last one is CAL_EVERY_S old. An operation that
    itself lasted CAL_EVERY_S or more is calibrated again after it, and
    scaled by the mean of the two calibrations.
    """

    diagonalize_s: list = field(default_factory=list)
    verify_s: list = field(default_factory=list)
    problem_s: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    _calibrated_at: float = float("-inf")

    def _calibrate(self):
        self.calibrations.append(calibrate())
        self._calibrated_at = perf_counter()

    def start(self) -> float:
        """Calibrate if due, then return the operation's start time."""
        if perf_counter() - self._calibrated_at >= CAL_EVERY_S:
            self._calibrate()
        return perf_counter()

    def add(self, values: list, seconds: float) -> float:
        """Scale an operation's time, append it to `values` and return it."""
        cal = self.calibrations[-1]
        if seconds >= CAL_EVERY_S:
            self._calibrate()
            cal = 0.5 * (cal + self.calibrations[-1])
        scaled = seconds * CAL_REF_S / cal
        values.append(scaled)
        return scaled

    def record(self, ok: bool):
        self.attempted += 1
        self.failed += not ok


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter loop and small-array updates.

    The host's speed drifts by tens of percent within seconds and between
    minutes, and this mix drifts with the package's own code, so a time
    divided by a calibration taken next to it stays steady.
    """
    a = np.zeros((32, 32), dtype=complex)
    start = perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    for _ in range(3000):
        col = a[:, 3].copy()
        a[:, 4] = 0.5 * col - 0.25 * a[:, 5]
    return perf_counter() - start


def spectra_match(claimed, reference) -> bool:
    """Per block, the sorted claimed spectrum equals the reference within GATE_RTOL * ||K||."""
    scale = max(float(np.abs(ref).max()) for ref in reference)
    if len(claimed) != len(reference):
        return False
    for got, want in zip(claimed, reference):
        got = np.sort(np.asarray(got, dtype=complex))
        want = np.sort(np.asarray(want, dtype=complex))
        if got.shape != want.shape or not np.all(np.abs(got - want) <= GATE_RTOL * scale):
            return False
    return True


def value_spectra(value_blocks, num_blocks):
    """Per algebra block, the eigenvalues of every claimed value block."""
    out = [[] for _ in range(num_blocks)]
    for blocks in value_blocks:
        for b, mat in enumerate(blocks):
            out[b].extend(np.linalg.eigvals(mat))
    return out


def solution_spectra(text: str):
    """Spectra claimed by a solution file, read with json and numpy only."""
    obj = json.loads(text)
    sizes = obj["algebra"]["blocks"]
    values = []
    for pair in obj["pairs"]:
        mats = []
        for k, flat in zip(sizes, pair["value"]):
            arr = np.asarray(flat, dtype=float)
            mats.append((arr[:, 0] + 1j * arr[:, 1]).reshape(k, k))
        values.append(mats)
    return value_spectra(values, len(sizes))


def _hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2.0


def _normal(rng, d):
    # real parts at least 0.5 apart, so eig_normal never meets a near-tie in
    # the Hermitian part and the sorted spectra pair up unambiguously
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    vals = np.arange(d) - d / 2.0 + 0.5 * rng.random(d) + 1j * rng.standard_normal(d)
    return q @ np.diag(vals) @ q.conj().T


def _run_cli(argv):
    """moddiag.cli.main in-process; returns (exit code, captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = moddiag.cli.main(argv)
    return code, buf.getvalue()


def _passed(output: str) -> bool:
    return "overall: pass" in output.splitlines()


def _failure(what: str):
    print(f"operation failed: {what}\n{traceback.format_exc()}", file=sys.stderr)


class CliWorkload:
    """One problem file, run through `moddiag diagonalize` then `moddiag verify`.

    A pass is one diagonalize call and one verify call; each counts as one
    operation for the gate.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.problem = workdir / "problem.json"
        self.solution = workdir / "solution.json"
        self.report = workdir / "report.json"
        self.operator = None
        self.reference = None
        self.closed_form = None

    def build(self, rng):
        """The problem's ModuleOperator, and anything else the gate needs later."""
        raise NotImplementedError

    def make_inputs(self):
        self.operator = self.build(np.random.default_rng(self.seed))
        self.problem.write_text(moddiag.serialize_problem(self.operator), encoding="utf-8")

    def prepare_gate(self):
        self.reference = [np.linalg.eigvalsh(blk) for blk in self.operator.blocks]

    def diagonalize_ok(self, code, output) -> bool:
        if code != 0 or not _passed(output):
            return False
        report = json.loads(self.report.read_text(encoding="utf-8"))
        if report["overall"] != "pass":
            return False
        claimed = solution_spectra(self.solution.read_text(encoding="utf-8"))
        if not spectra_match(claimed, self.reference):
            return False
        return self.closed_form is None or spectra_match(claimed, self.closed_form)

    def verify_ok(self, code, output) -> bool:
        return code == 0 and _passed(output)

    def _timed(self, rec, request, argv, check, times, tally) -> float:
        rec.request = request
        start = tally.start()
        try:
            code, output = _run_cli(argv)
        except Exception:
            _failure(request)
            code, output = None, ""
        elapsed = tally.add(times, perf_counter() - start)
        try:
            ok = check(code, output)
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            _failure(f"{request} gate")
            ok = False
        tally.record(ok)
        return elapsed

    def diagonalize(self, tally: Tally, rec, tag: str) -> float:
        argv = ["diagonalize", "--input", str(self.problem), "--solution", str(self.solution), "--out", str(self.report)]
        return self._timed(rec, f"{tag}.diagonalize", argv, self.diagonalize_ok, tally.diagonalize_s, tally)

    def verify(self, tally: Tally, rec, tag: str) -> float:
        argv = ["verify", "--input", str(self.problem), "--solution", str(self.solution)]
        return self._timed(rec, f"{tag}.verify", argv, self.verify_ok, tally.verify_s, tally)

    def run_pass(self, tally: Tally, rec, tag: str):
        tally.problem_s.append(self.diagonalize(tally, rec, tag) + self.verify(tally, rec, tag))


class DenseBlock(CliWorkload):
    """A dense random Hermitian operator: one (rank*k) x (rank*k) block per algebra block."""

    def __init__(self, seed, workdir, blocks=(8,), rank=12):
        super().__init__(seed, workdir)
        self.blocks = blocks
        self.rank = rank

    def build(self, rng):
        module = moddiag.HilbertModule(moddiag.AlgebraShape(self.blocks), self.rank)
        mats = [_hermitian(rng, self.rank * k) for k in self.blocks]
        return moddiag.ModuleOperator(module, mats)


class LadderFile(CliWorkload):
    """gallery.projection_ladder(count) with seeded couplings near 2**-(n+1).

    Coupling n is 2**-(n+1) * (1 + u/4) for u uniform in [0, 1), which keeps
    the list strictly decreasing, so the closed-form eigenpairs apply.
    """

    def __init__(self, seed, workdir, count=32):
        super().__init__(seed, workdir)
        self.count = count
        self.ladder = None

    def build(self, rng):
        alphas = 2.0 ** -np.arange(1, self.count + 1) * (1.0 + 0.25 * rng.random(self.count))
        self.ladder = moddiag.projection_ladder(self.count, alphas.tolist())
        return self.ladder.operator

    def prepare_gate(self):
        super().prepare_gate()
        # every block of C^count has size 1: a pair contributes its value
        # to the blocks its support covers
        spectra = [[] for _ in range(self.count)]
        for pair in self.ladder.expected:
            for b in range(self.count):
                if pair.support.blocks[b][0, 0].real > 0.5:
                    spectra[b].append(pair.value.blocks[b][0, 0])
        self.closed_form = [np.array(s) for s in spectra]


class SmallSuite:
    """A pool of small operators over the acceptance shapes, rank 1 to 5.

    Problem i has shape i % 4 and rank 1 + (i // 4) % 5, so every 20
    problems cover each (shape, rank) pair once; in each block of 100, each
    pair is normal exactly once, so one problem in five is normal. A pass
    diagonalizes and verifies every problem of the pool in-process; each
    problem is one operation for the gate.
    """

    def __init__(self, seed, workdir, pool=100):
        self.seed = seed
        self.pool_size = pool
        self.pool = None
        self.reference = None

    def make_inputs(self):
        rng = np.random.default_rng(self.seed)
        pool = []
        for i in range(self.pool_size):
            combo = i % 20
            shape = moddiag.AlgebraShape(ACCEPTANCE_SHAPES[combo % 4])
            rank = 1 + (combo // 4) % 5
            normal = (i // 20) % 5 == combo % 5
            make = _normal if normal else _hermitian
            module = moddiag.HilbertModule(shape, rank)
            mats = [make(rng, rank * k) for k in shape.block_sizes]
            pool.append((normal, moddiag.ModuleOperator(module, mats)))
        self.pool = pool

    def prepare_gate(self):
        self.reference = [
            [(np.linalg.eigvals if normal else np.linalg.eigvalsh)(blk) for blk in K.blocks]
            for normal, K in self.pool
        ]

    def run_pass(self, tally: Tally, rec, tag: str):
        for i, (normal, K) in enumerate(self.pool):
            rec.request = f"{tag}.problem{i}"
            solve = moddiag.diagonalize_normal if normal else moddiag.diagonalize_selfadjoint
            start = tally.start()
            try:
                result = solve(K)
                mid = perf_counter()
                report = moddiag.verify_eigensystem(K, result)
            except Exception:
                _failure(rec.request)
                tally.add(tally.problem_s, perf_counter() - start)
                tally.record(False)
                continue
            end = perf_counter()
            tally.add(tally.diagonalize_s, mid - start)
            tally.add(tally.verify_s, end - mid)
            tally.add(tally.problem_s, end - start)
            claimed = value_spectra((p.value.blocks for p in result.pairs), K.module.shape.num_blocks)
            tally.record(report.overall and spectra_match(claimed, self.reference[i]))


def run_for(wl, seconds, rec, tag):
    """Whole passes while one more fits in `seconds`; returns (tally, pass count).

    A pass is assumed to take as long as the one before it; the first pass
    always runs.
    """
    tally = Tally()
    start = perf_counter()
    count = 0
    while True:
        begun = perf_counter()
        wl.run_pass(tally, rec, f"{tag}{count}")
        count += 1
        now = perf_counter()
        if now - start + (now - begun) > seconds:
            return tally, count


WORKLOADS = {
    "dense_block": DenseBlock,
    "ladder_file": LadderFile,
    "small_suite": SmallSuite,
}
