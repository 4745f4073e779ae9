"""Code outside the package that calls into it: the benchmark script and
README's library example. A renamed or deleted name breaks them here."""

import dataclasses
import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from dfsdca import (
    SolverConfig,
    chunked_sampling,
    gen_synthetic,
    logistic_loss,
    make_problem,
    naive_chunks,
    reference_solution,
    run,
    serial_uniform,
    serialize_libsvm,
    tau_nice,
)
from dfsdca import _kernel

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark_module(monkeypatch, name):
    """``perfbench/<name>.py`` as a module, imported as the benchmark
    script imports it."""
    # run.py finds tracing.py next to itself, as when started as a script
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_imports(monkeypatch):
    assert callable(load_benchmark_module(monkeypatch, "run").main)


@pytest.mark.parametrize("from_text", [True, False])
def test_benchmark_setup_gets_the_bindings_the_row_pass_reads(monkeypatch, from_text):
    # the benchmark's setup calls ds.csr() and ds.csr_t(): they are the
    # Dataset's bindings of its rows and transpose, which margins and
    # combine read
    bench = load_benchmark_module(monkeypatch, "run")
    wl = bench.Workload(name="tiny", why="", n=40, d=8, density=0.3, model="skewed-nnz",
                        tail_exponent=None, from_text=from_text, loss="logistic",
                        sampling="nice:4", eps=0.1, max_epochs=2)
    text = serialize_libsvm(wl.generate(3)) if from_text else ""
    problem, _ = bench.setup(wl, 3, text, bench.NullTracer())
    read, product = [], _kernel.Csr.product
    monkeypatch.setattr(_kernel.Csr, "product",
                        lambda csr, *args: read.append(csr) or product(csr, *args))
    ds = problem.dataset
    ds.margins(np.zeros(ds.d))
    ds.combine(np.zeros(ds.n))
    assert len(read) == 2 and read[0] is ds.csr() and read[1] is ds.csr_t()


@pytest.mark.parametrize("scheme", ["serial-uniform", "nice:4", "chunked:3"])
def test_benchmark_replay_equals_run(monkeypatch, scheme):
    # the benchmark times run's loop through a traced replay, which repeats
    # run's draws and resyncs; it must end where run ends, bitwise
    tracing = load_benchmark_module(monkeypatch, "tracing")
    ds = gen_synthetic(30, 6, 0.5, "skewed-nnz", 4)
    problem = make_problem(ds, logistic_loss(ds.labels), 1.0 / ds.n)
    ref = reference_solution(problem)

    def build():
        if scheme == "serial-uniform":
            return serial_uniform(ds.norms)
        if scheme == "nice:4":
            return tau_nice(ds.norms, 4)
        return chunked_sampling(ds.norms, naive_chunks(ds.nnz.tolist()), 3)

    want, _ = run(problem, build(), SolverConfig(epochs=30, seed=6), reference=ref)
    assert want.t > 2 * ds.n  # two resyncs
    got, _ = tracing.replay(problem, build(), 30, 6, ref, tracing.NullTracer())
    assert np.array_equal(got.w, want.w)
    assert np.array_equal(got.alpha, want.alpha)


@pytest.mark.parametrize("name", ["serial-ridge", "nice-logistic", "chunked-logistic"])
def test_benchmark_traced_round(monkeypatch, tmp_path, name):
    # the traced round also calls the schemes' core loads, the validator
    # suites and the CLI; at the toy sizes of the benchmark's own smoke
    # test (whose end-to-end cases are too slow for this suite), no
    # operation may fail
    bench = load_benchmark_module(monkeypatch, "run")
    monkeypatch.setitem(sys.modules, "run", bench)  # as test_smoke imports it
    toy = load_benchmark_module(monkeypatch, "test_smoke").TOY[name]
    wl = dataclasses.replace(bench.WORKLOADS[name], draws=50, **toy)
    result = bench.run_workload(wl, seed=3, seconds=0.0, trace=True, out_dir=tmp_path)
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_readme_library_example(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    subopt = namespace["trace"].records[-1].subopt
    assert math.isfinite(subopt)
    assert capsys.readouterr().out == f"{subopt}\n"
