"""Fuzz of tiny problems through ``dfsdca reference`` and ``dfsdca run``.

Hypothesis draws LIBSVM texts of one to four rows over at most three
features, label-only rows among them, and may repeat a row. Each text meets
a loss, lambda at either extreme (1e-12 or 1e6), a stepsize rule and every
sampling kind, tau-nice and chunked with tau = n. A command may exit 0, or
3 with a one-line message that names its cause (a tau above the number of
chunks, a c of 1, a stepsize that is not finite, a Newton iteration).
Where both commands succeed, the lemma 1 identity and bound and the
one-step contraction are checked by exact enumeration on the same problem,
scheme, reference and stepsize. Their tolerances are relative to the size
of their terms, since lambda = 1e-12 puts w near 1e12. The examples are
derandomized, so a run is reproducible.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsdca.cli import _build_scheme, _sampling, main
from dfsdca.dataset import parse_libsvm
from dfsdca.diagnostics import (
    ReferenceSolution,
    potentials,
    random_relation_state,
    verify_contraction,
    verify_lemma1,
)
from dfsdca.losses import logistic_loss, squared_loss
from dfsdca.solver import PrimalPoint, make_problem

#: the causes an exit 3 may name on these problems
CAUSES = re.compile(
    r"dfsdca: (tau must be in \[1, k=\d+\], got \d+"
    r"|c must be finite and exceed 1, got \S+"
    r"|auto-(non)?convex stepsize \S+ is not finite and positive: it is set "
    r"by example \d+, .*"
    r"|Newton iteration \d+: .*)"
)
#: relative tolerance of the exact-enumeration checks; about 3e-15 is seen
RTOL = 1e-11
VALUES = (0.5, -1.0, 2.0, 1e-3, 3.7, -0.25)
#: every sampling kind; {n} is the number of rows
SAMPLINGS = ("serial-uniform", "serial-importance", "serial-random:2",
             "serial-random:1", "nice:{n}", "chunked:{n}", "chunked:1")


@st.composite
def texts(draw):
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        label = draw(st.sampled_from(("+1", "-1")))
        cols = sorted(draw(st.sets(st.integers(1, 3), max_size=3)))
        rows.append(label + "".join(
            f" {j}:{draw(st.sampled_from(VALUES))!r}" for j in cols))
    repeat = draw(st.integers(0, len(rows) - 1))
    rows += [rows[repeat]] * draw(st.integers(0, 2))
    return "\n".join(rows) + "\n"


def call(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 3, (argv, code, err)
        assert err.count("\n") == 1 and CAUSES.match(err), err
    return code


def header_theta(path):
    with open(path) as fh:
        return float(re.search(r"theta=(\S+)", fh.read()).group(1))


def check_exactly(problem, state, scheme, ref, theta, rule):
    """Lemma 1 at the run's stepsize and the contraction of the potential
    that ``rule`` certifies, each against the size of its terms."""
    ds, lam = problem.dataset, problem.lam
    at = PrimalPoint(problem, state.w)
    z = state.alpha - at.alpha
    dw = state.w - ref.w
    scale_C = float(np.max(theta * ((state.alpha - ref.alpha) ** 2
                                    + (at.alpha - ref.alpha) ** 2 + z**2)))
    eq, slack = verify_lemma1(problem, state, theta, scheme, ref)
    assert eq <= RTOL * (1.0 + scale_C)
    scale_B = (float(dw @ dw) + 2.0 * theta / lam * abs(float(dw @ at.gradient))
               + theta**2 / (ds.n * lam) ** 2
               * float(np.sum(scheme.eso(ds) / scheme.p * z**2)))
    assert slack >= -RTOL * (1.0 + scale_B)
    potential = "E" if rule == "auto-convex" else "D"
    x_old = getattr(potentials(state, ref, problem.smoothness, lam), potential)
    assert verify_contraction(problem, state, scheme, ref, potential) \
        >= -RTOL * (1.0 + x_old)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(text=texts(), loss=st.sampled_from(("logistic", "squared")),
       lam=st.sampled_from(("1e-12", "1e6")),
       theta=st.sampled_from(("auto-convex", "auto-nonconvex")),
       seed=st.integers(0, 2**32 - 1))
def test_tiny_problems_run_or_name_their_cause(text, loss, lam, theta, seed):
    ds = parse_libsvm(text.encode())
    build = logistic_loss if loss == "logistic" else squared_loss
    problem = make_problem(ds, build(ds.labels), float(lam))
    state = random_relation_state(problem, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        data, ref_path, out = (os.path.join(tmp, f) for f in ("d", "r.json", "t.csv"))
        with open(data, "w") as fh:
            fh.write(text)
        problem_args = ["--data", data, "--loss", loss, "--lambda", lam]
        if call(["reference", *problem_args, "--out", ref_path]):
            for sampling in SAMPLINGS:
                call(["run", *problem_args, "--sampling", sampling.format(n=ds.n),
                      "--theta", theta, "--epochs", "2", "--seed", str(seed)])
            return
        with open(ref_path) as fh:
            ref = ReferenceSolution.from_json(json.load(fh))
        for sampling in SAMPLINGS:
            sampling = sampling.format(n=ds.n)
            if call(["run", *problem_args, "--sampling", sampling, "--theta", theta,
                     "--epochs", "2", "--seed", str(seed), "--reference", ref_path,
                     "--out", out]) == 0:
                scheme = _build_scheme(_sampling(sampling), problem, seed)
                check_exactly(problem, state, scheme, ref, header_theta(out), theta)
