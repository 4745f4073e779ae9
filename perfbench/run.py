#!/usr/bin/env python3
"""dfsdca benchmark: time and data passes to reach a target relative
suboptimality, CLI wall times, and per-module timing.

Run from the repository root:

    python3 perfbench/run.py --workload serial-ridge --seed 0 --seconds 32 --trace 0

The program is imported from ``src/`` next to this directory; it needs no
build. ``--trace 0`` prints the end-to-end metrics, measured with tracing
off and scaled by a calibration loop timed around each sample (see
CAL_REF_S); ``--trace 1`` prints the per-layer metrics from a separate traced
run. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files and
the span log go to ``.bench_build/perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if not (_SRC / "dfsdca" / "__init__.py").is_file():
    sys.exit(f"perfbench: no dfsdca sources under {_SRC}")
sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from dfsdca import (  # noqa: E402
    ReferenceSolution,
    SolverConfig,
    chunked_sampling,
    gen_synthetic,
    logistic_loss,
    make_problem,
    naive_chunks,
    normalize_max_norm,
    parse_libsvm,
    primal_value,
    reference_solution,
    run,
    serial_uniform,
    serialize_libsvm,
    squared_loss,
    tau_nice,
    waiting_time,
)
from dfsdca.cli import main as cli_main  # noqa: E402
from dfsdca.diagnostics import ALL_SUITES  # noqa: E402
from dfsdca.solver import resync  # noqa: E402

from tracing import NullTracer, Tracer, replay  # noqa: E402

#: each operation in a round is repeated until it has run this long, so
#: short operations contribute many samples to their median
MIN_OP_S = 0.5
#: rounds per run, at least: the determinism checks compare two rounds
MIN_ROUNDS = 2
#: Shared hosts change speed by 30-40 % over minutes, on every workload at
#: once. So every end-to-end timing sample is scaled by CAL_REF_S over the
#: mean time of ``calibrate`` run just before and just after it: timings are
#: seconds at the machine speed at which ``calibrate`` takes CAL_REF_S.
CAL_REF_S = 0.02
#: end-to-end metrics that are rates; they are divided by the scale
RATES = {"examples_per_s"}
#: batch size of the waiting-time comparison, as in ``chunk-stats --tau``
WAIT_TAU = 16
#: ``--epochs`` of the CLI ``run --seeds 1|2`` calls
CLI_EPOCHS = 1
#: ``validate --suite all`` seed. Fixed, not drawn from --seed: a suite's cost
#: varies by about 25 % between seeds, which would enter validate_s's spread.
VALIDATE_SEED = 0
LOSSES = {"logistic": logistic_loss, "squared": squared_loss}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    d: int
    density: float
    model: str
    #: Pareto exponent of skewed-nnz data; None keeps the generator default
    tail_exponent: float | None
    #: set-up parses LIBSVM text instead of generating the data
    from_text: bool
    loss: str
    sampling: str
    #: target relative suboptimality (P - P*) / (P(0) - P*)
    eps: float
    #: epoch budget of the probe run that finds the first checkpoint <= eps
    max_epochs: int
    #: draws per scheme in the waiting-time comparison
    draws: int = 2000

    def generate(self, seed: int):
        extra = {} if self.tail_exponent is None else {"tail_exponent": self.tail_exponent}
        return gen_synthetic(self.n, self.d, self.density, self.model, seed, **extra)

    def cli_problem(self, seed: int, data_path: str) -> list[str]:
        return ["--data", data_path, "--seed", str(seed), "--loss", self.loss,
                "--lambda", "1/n", "--normalize"]


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="serial-ridge",
            why="n=5000 d=1000 linear-noise parsed from LIBSVM text, squared loss, "
                "serial-uniform, eps=1e-4: serial step kernel and parser; exact "
                "reference solve; ESO work must not move passes",
            n=5000, d=1000, density=0.01, model="linear-noise", tail_exponent=None,
            from_text=True, loss="squared", sampling="serial-uniform",
            eps=1e-4, max_epochs=12,
        ),
        Workload(
            name="nice-logistic",
            why="n=5000 d=200 skewed-nnz (tail 1.5), logistic, nice:16, eps=1e-4: "
                "per-draw sampler loop and iterative reference oracle; slack ESO "
                "bound, so a tighter one should cut passes",
            n=5000, d=200, density=0.05, model="skewed-nnz", tail_exponent=1.5,
            from_text=False, loss="logistic", sampling="nice:16",
            eps=1e-4, max_epochs=21,
        ),
        Workload(
            name="chunked-logistic",
            why="nice-logistic's data with chunked:16 over naive_chunks, eps=0.3: "
                "~170-example batches make the mini-batch step dominate; partition "
                "and waiting-time code",
            n=5000, d=200, density=0.05, model="skewed-nnz", tail_exponent=1.5,
            from_text=False, loss="logistic", sampling="chunked:16",
            eps=0.3, max_epochs=44,
        ),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "reference_s": "s",
    "time_to_eps_s": "s",
    "passes_to_eps": "passes",
    "examples_per_s": "1/s",
    "wait_ratio": "ratio",
    "validate_s": "s",
    "multiseed_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "dataset.parse_s": "s",
    "dataset.gen_s": "s",
    "dataset.normalize_s": "s",
    "dataset.csr_build_s": "s",
    "dataset.margins_us": "us",
    "dataset.combine_us": "us",
    "dataset.nnz": "count",
    "losses.gradients_ns_per_example": "ns",
    "sampling.draw_us": "us",
    "sampling.draws": "count",
    "sampling.examples_per_draw": "count",
    "sampling.partition_ms": "ms",
    "sampling.core_loads_us": "us",
    "sampling.wait_nice": "nnz",
    "sampling.wait_chunked": "nnz",
    "solver.step_us_per_example": "us",
    "solver.nnz_per_s": "1/s",
    "solver.step_bytes_computed": "B/example",
    "solver.theta": "ratio",
    "solver.iterations": "count",
    "solver.resync_ms": "ms",
    "solver.checkpoint_ms": "ms",
    "solver.loop_self_s": "s",
    "diagnostics.reference_grad_norm": "norm",
    "diagnostics.potentials_us": "us",
    **{f"diagnostics.suite.{name}_s": "s" for name in ALL_SUITES},
    "cli.run_single_s": "s",
    "cli.fanout_ratio": "ratio",
    "trace.replay_s": "s",
    "trace.overhead_pct": "%",
}


class Checks:
    """Attempted and failed operations; every failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED: {what}", file=sys.stderr)
        return ok

    def crashed(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: FAILED: {what}\n{traceback.format_exc()}", file=sys.stderr)


def scheme_factory(descriptor: str, problem, tr: Tracer):
    """A function building a fresh scheme per call. Schemes keep a mutable
    permutation buffer, so every solver run gets its own instance."""
    kind, _, arg = descriptor.partition(":")
    norms = problem.dataset.norms
    if kind == "serial-uniform":
        return lambda: serial_uniform(norms)
    if kind == "nice":
        return lambda: tau_nice(norms, int(arg))
    if kind == "chunked":
        i = tr.begin("sampling.naive_chunks")
        partition = naive_chunks(problem.dataset.nnz.tolist())
        tr.end(i)
        return lambda: chunked_sampling(norms, partition, int(arg))
    raise ValueError(f"unknown sampling descriptor {descriptor!r}")


def setup(wl: Workload, seed: int, text: str, tr: Tracer):
    """Input to a ready problem and scheme: the span that ``setup_s`` times."""
    if wl.from_text:
        i = tr.begin("dataset.parse_libsvm")
        ds = parse_libsvm(text)
    else:
        i = tr.begin("dataset.gen_synthetic")
        ds = wl.generate(seed)
    tr.end(i)
    i = tr.begin("dataset.normalize_max_norm")
    ds, _ = normalize_max_norm(ds)
    tr.end(i)
    i = tr.begin("solver.make_problem")
    problem = make_problem(ds, LOSSES[wl.loss](ds.labels), 1.0 / ds.n)
    tr.end(i)
    new_scheme = scheme_factory(wl.sampling, problem, tr)
    i = tr.begin("sampling.build_scheme")
    new_scheme()
    tr.end(i)
    i = tr.begin("dataset.csr_build")
    ds.csr()
    ds.csr_t()
    tr.end(i)
    return problem, new_scheme


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work that touches no dfsdca
    code, so no change to the program can move it."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return perf_counter() - t0


def relative_subopt(trace, p_star: float) -> list[float]:
    gap0 = trace.records[0].primal - p_star
    return [(r.primal - p_star) / gap0 for r in trace.records]


def timed_run(problem, scheme, epochs: int, seed: int, ref):
    t0 = perf_counter()
    state, trace = run(problem, scheme, SolverConfig(epochs=epochs, seed=seed), reference=ref)
    return state, trace, perf_counter() - t0


def same_state(a, b) -> bool:
    return bool(np.array_equal(a.w, b.w) and np.array_equal(a.alpha, b.alpha))


def cli(argv: list[str]) -> tuple[int, float]:
    """One in-process ``dfsdca`` command: exit code and wall time."""
    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(argv)
    return rc, perf_counter() - t0


class Bench:
    """One workload at one seed: the prepared inputs, the checks, and the
    samples of every metric."""

    def __init__(self, wl: Workload, seed: int, tmp: Path, tr: Tracer):
        self.wl, self.seed, self.tmp, self.tr = wl, seed, tmp, tr
        self.checks = Checks()
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: unscaled end-to-end timings and the calibration times, for the log
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.first_csv: dict[int, bytes] = {}
        self.first_solve = None
        #: span count after the first traced round; only those are written
        self.first_round_spans = 0

    # -- untimed preparation --------------------------------------------------
    def prepare(self) -> None:
        wl, seed, ck = self.wl, self.seed, self.checks
        self.text = serialize_libsvm(wl.generate(seed))
        self.data_path = str(self.tmp / "data.libsvm")
        Path(self.data_path).write_text(self.text)
        self.problem, self.new_scheme = setup(wl, seed, self.text, NullTracer())
        ds = self.problem.dataset
        ck.expect(ds.n == wl.n and ds.d == wl.d, f"dataset shape {ds.n}x{ds.d}")
        p0 = primal_value(self.problem, np.zeros(ds.d))
        self.ref_tol = 1e-12 * (1.0 + abs(p0))
        # The CLI's reference serves the library runs too; every timed
        # library call must reproduce its P* bitwise.
        self.ref_path = str(self.tmp / "ref.json")
        rc, _ = cli(["reference", *wl.cli_problem(seed, self.data_path), "--out", self.ref_path])
        if not ck.expect(rc == 0, f"dfsdca reference exited {rc}"):
            raise RuntimeError("no reference solution")
        with open(self.ref_path) as fh:
            self.ref = ReferenceSolution.from_json(json.load(fh))
        ck.expect(self.ref.grad_norm <= self.ref_tol,
                  f"reference grad_norm {self.ref.grad_norm:.3e} > tol {self.ref_tol:.3e}")

        # Probe: the first checkpoint at or below eps fixes the epoch budget
        # of the timed runs (a shorter run's trace is a prefix of a longer's).
        _, probe, _ = timed_run(self.problem, self.new_scheme(), wl.max_epochs, seed, self.ref)
        rel = relative_subopt(probe, self.ref.P_star)
        hit = next((j for j, r in enumerate(rel) if r <= wl.eps), None)
        ck.expect(hit is not None,
                  f"relative suboptimality {rel[-1]:.3e} > eps={wl.eps} after "
                  f"{wl.max_epochs} epochs")
        self.hit = len(rel) - 1 if hit is None else hit
        self.probe = probe
        t_eps = probe.records[self.hit].t
        self.passes = probe.records[self.hit].epoch
        self.epochs = next(
            e for e in range(1, wl.max_epochs + 1)
            if math.ceil(e * wl.n / probe.expected_size) >= t_eps
        )

    # -- timed operations -----------------------------------------------------
    def repeat(self, op) -> None:
        """Call ``op`` until it has run MIN_OP_S. ``op`` returns its duration
        and its samples; each sample is scaled by the calibration timed
        around it (see CAL_REF_S). An exception counts as a failed
        operation."""
        spent = 0.0
        before = calibrate()
        while spent < MIN_OP_S:
            try:
                dt, values = op()
            except Exception:
                self.checks.crashed(f"{self.wl.name}: {getattr(op, '__name__', op)}")
                return
            after = calibrate()
            scale = CAL_REF_S / (0.5 * (before + after))
            self.raw["calibrate_s"].append(after)
            for name, value in values.items():
                self.raw[name].append(value)
                self.samples[name].append(value / scale if name in RATES else value * scale)
            spent += dt
            before = after

    def op_setup(self):
        t0 = perf_counter()
        problem, _ = setup(self.wl, self.seed, self.text, NullTracer())
        dt = perf_counter() - t0
        ds = problem.dataset
        self.checks.expect(ds.n == self.wl.n and ds.d == self.wl.d,
                           f"set-up built a {ds.n}x{ds.d} problem")
        return dt, {"setup_s": dt}

    def op_reference(self):
        t0 = perf_counter()
        ref = reference_solution(self.problem)
        dt = perf_counter() - t0
        self.checks.expect(ref.grad_norm <= self.ref_tol and ref.P_star == self.ref.P_star,
                           f"reference grad_norm {ref.grad_norm:.3e} (tol {self.ref_tol:.3e}) "
                           "or P* differs from the CLI's")
        return dt, {"reference_s": dt}

    def op_solve(self):
        state, trace, dt = timed_run(self.problem, self.new_scheme(), self.epochs,
                                     self.seed, self.ref)
        rel = relative_subopt(trace, self.ref.P_star)
        prefix = [r.primal for r in trace.records[: self.hit + 1]]
        ck = self.checks
        ck.expect(rel[-1] <= self.wl.eps,
                  f"final relative suboptimality {rel[-1]:.3e} > eps={self.wl.eps}")
        ck.expect(prefix == [r.primal for r in self.probe.records[: self.hit + 1]],
                  "timed run's trace is not a prefix of the probe's")
        if self.first_solve is None:
            self.first_solve = state
        ck.expect(same_state(state, self.first_solve), "solver.run is not deterministic")
        return dt, {"time_to_eps_s": dt, "examples_per_s": state.grad_evals / dt}

    def cli_run(self, seeds: int) -> float:
        """``dfsdca run ... --seeds k``: wall time; output checked to be
        byte-identical across rounds."""
        out = self.tmp / f"run{seeds}.csv"
        rc, dt = cli(["run", *self.wl.cli_problem(self.seed, self.data_path),
                      "--sampling", self.wl.sampling, "--epochs", str(CLI_EPOCHS),
                      "--seeds", str(seeds), "--reference", self.ref_path, "--out", str(out)])
        if self.checks.expect(rc == 0, f"dfsdca run --seeds {seeds} exited {rc}"):
            csv = out.read_bytes()
            self.checks.expect(self.first_csv.setdefault(seeds, csv) == csv,
                               f"dfsdca run --seeds {seeds} output differs between reruns")
        return dt

    def op_validate(self):
        out = self.tmp / "validate.json"
        rc, dt = cli(["validate", "--suite", "all", "--seed", str(VALIDATE_SEED),
                      "--out", str(out)])
        ok = rc == 0 and json.loads(out.read_text())["pass"] is True
        self.checks.expect(ok, f"dfsdca validate exited {rc} or did not pass")
        return dt, {"validate_s": dt}

    def op_multiseed(self):
        dt = self.cli_run(2)
        return dt, {"multiseed_s": dt}

    def wait_ratio(self) -> float:
        """``chunk-stats``: mean waiting time of chunked vs nice draws."""
        out = self.tmp / "chunks.csv"
        rc, _ = cli(["chunk-stats", "--data", self.data_path, "--seed", str(self.seed),
                     "--tau", str(WAIT_TAU), "--draws", str(self.wl.draws), "--out", str(out)])
        self.checks.expect(rc == 0, f"dfsdca chunk-stats exited {rc}")
        _, nice_mean, chunked_mean = out.read_text().splitlines()[-1].split(",")
        ratio = float(chunked_mean) / float(nice_mean)
        self.checks.expect(0.0 < ratio < math.inf, f"wait ratio {ratio}")
        return ratio

    def e2e_round(self) -> None:
        for op in (self.op_setup, self.op_reference, self.op_solve,
                   self.op_validate, self.op_multiseed):
            self.repeat(op)

    # -- traced run -------------------------------------------------------------
    def layer_round(self) -> None:
        wl, seed, ck, tr = self.wl, self.seed, self.checks, self.tr
        mark = len(tr.names)
        root = tr.begin("round")
        problem, _ = setup(wl, seed, self.text, tr)
        ds = problem.dataset
        if wl.from_text:
            i = tr.begin("dataset.gen_synthetic")
            wl.generate(seed)
        else:
            i = tr.begin("dataset.parse_libsvm")
            parse_libsvm(self.text)
        tr.end(i)
        ref, idx = self.ref, np.arange(ds.n)
        for _ in range(5):
            i = tr.begin("dataset.margins")
            margins = ds.margins(ref.w)
            tr.end(i)
            i = tr.begin("dataset.combine")
            ds.combine(ref.alpha)
            tr.end(i)
            i = tr.begin("losses.gradients")
            problem.loss.gradients(idx, margins)
            tr.end(i)

        state, subsets = replay(self.problem, self.new_scheme(), self.epochs, seed, ref, tr)
        plain, _, run_s = timed_run(self.problem, self.new_scheme(), self.epochs, seed, ref)
        ck.expect(same_state(state, plain), "traced replay differs from solver.run")
        for _ in range(5):
            copy = plain.copy()
            i = tr.begin("solver.resync")
            resync(self.problem, copy)
            tr.end(i)

        u = ds.nnz
        i = tr.begin("sampling.naive_chunks")
        partition = naive_chunks(u.tolist())
        tr.end(i)
        rng = np.random.default_rng(seed)
        waits = {}
        for label, scheme in (("nice", tau_nice(ds.norms, WAIT_TAU)),
                              ("chunked", chunked_sampling(ds.norms, partition, WAIT_TAU))):
            w = []
            for _ in range(wl.draws):
                i = tr.begin("sampling.core_loads")
                loads = scheme.sample_core_loads(rng, u)
                tr.end(i)
                w.append(waiting_time(loads))
            waits[label] = float(np.mean(w))

        for name, suite in ALL_SUITES.items():
            i = tr.begin(f"diagnostics.suite.{name}")
            report = suite(VALIDATE_SEED)
            tr.end(i)
            ck.expect(report["pass"], f"suite {name} did not pass")
        i = tr.begin("cli.run_single")
        self.cli_run(1)
        tr.end(i)
        i = tr.begin("cli.run_multiseed")
        self.cli_run(2)
        tr.end(i)
        tr.end(root)
        self.first_round_spans = self.first_round_spans or len(tr.names)

        agg = tr.aggregate(mark)

        def mean(name, scale=1.0):
            return agg[name]["total"] / agg[name]["count"] * scale

        drawn = np.concatenate(subsets)
        examples, nnz = int(drawn.size), int(u[drawn].sum())
        step_s = agg["solver.step"]["total"]
        replay_s = agg["solver.run"]["total"]
        values = {
            "dataset.parse_s": mean("dataset.parse_libsvm"),
            "dataset.gen_s": mean("dataset.gen_synthetic"),
            "dataset.normalize_s": mean("dataset.normalize_max_norm"),
            "dataset.csr_build_s": mean("dataset.csr_build"),
            "dataset.margins_us": mean("dataset.margins", 1e6),
            "dataset.combine_us": mean("dataset.combine", 1e6),
            "dataset.nnz": int(u.sum()),
            "losses.gradients_ns_per_example": mean("losses.gradients", 1e9 / ds.n),
            "sampling.draw_us": mean("sampling.draw", 1e6),
            "sampling.draws": len(subsets),
            "sampling.examples_per_draw": examples / len(subsets),
            "sampling.partition_ms": mean("sampling.naive_chunks", 1e3),
            "sampling.core_loads_us": mean("sampling.core_loads", 1e6),
            "sampling.wait_nice": waits["nice"],
            "sampling.wait_chunked": waits["chunked"],
            "solver.step_us_per_example": step_s / examples * 1e6,
            "solver.nnz_per_s": nnz / step_s,
            # computed, not measured: per example, index+value reads twice
            # (margin, update), w gather, w read-modify-write (7 x 8 B per
            # nonzero) and alpha read/write, p_i and y_i (4 x 8 B)
            "solver.step_bytes_computed": (56 * nnz + 32 * examples) / examples,
            "solver.theta": self.probe.theta,
            "solver.iterations": agg["solver.step"]["count"],
            "solver.resync_ms": mean("solver.resync", 1e3),
            "solver.checkpoint_ms": mean("solver.checkpoint", 1e3),
            "solver.loop_self_s": agg["solver.run"]["self"],
            "diagnostics.reference_grad_norm": ref.grad_norm,
            "diagnostics.potentials_us": mean("diagnostics.potentials", 1e6),
            **{f"diagnostics.suite.{name}_s": agg[f"diagnostics.suite.{name}"]["total"]
               for name in ALL_SUITES},
            "cli.run_single_s": agg["cli.run_single"]["total"],
            "cli.fanout_ratio": agg["cli.run_multiseed"]["total"]
                                / (2.0 * agg["cli.run_single"]["total"]),
            "trace.replay_s": replay_s,
            "trace.overhead_pct": 100.0 * (replay_s - run_s) / run_s,
        }
        for key, value in values.items():
            self.samples[key].append(value)

    # -- driver -----------------------------------------------------------------
    def measure(self, seconds: float, trace: bool) -> None:
        round_op = self.layer_round if trace else self.e2e_round
        start = perf_counter()
        rounds = 0
        while True:
            try:
                round_op()
            except Exception:
                self.checks.crashed(f"{self.wl.name}: round {rounds}")
            rounds += 1
            elapsed = perf_counter() - start
            if rounds >= MIN_ROUNDS and elapsed + 0.5 * elapsed / rounds > seconds:
                break
        self.rounds = rounds


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                           "unset (OpenBLAS default: nproc)"),
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Measure one workload and return the result object."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tr = Tracer() if trace else NullTracer()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        bench = Bench(wl, seed, Path(tmp), tr)
        bench.prepare()
        if not trace:
            bench.samples["passes_to_eps"].append(round(bench.passes, 9))
            bench.samples["wait_ratio"].append(bench.wait_ratio())
        bench.measure(seconds, trace)
    if trace:
        tr.write(out_dir / f"spans-{wl.name}-seed{seed}.csv", bench.first_round_spans)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.samples["peak_rss_mb"].append(rss)

    units = LAYER_UNITS if trace else E2E_UNITS
    missing = [name for name in units if not bench.samples.get(name)]
    if missing:
        raise RuntimeError(f"no samples for {', '.join(missing)}")
    metrics = {
        name: {"value": statistics.median(bench.samples[name]), "unit": unit}
        for name, unit in units.items()
    }
    ck = bench.checks
    return {
        "correct": ck.failed == 0,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": metrics,
        "rounds": bench.rounds,
        "unscaled": {name: statistics.median(v) for name, v in bench.raw.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    result = run_workload(wl, args.seed, args.seconds, bool(args.trace),
                          ROOT / ".bench_build" / "perfbench")
    print("# machine " + json.dumps(machine_facts(), sort_keys=True))
    print(f"# workload {wl.name} seed {args.seed} rounds {result.pop('rounds')}")
    for name, value in result.pop("unscaled").items():
        print(f"# unscaled median {name} = {value!r}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
