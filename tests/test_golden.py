"""Bitwise regression digests for datasets, norms and CLI outputs.

Each digest is a sha256 over arrays in a canonical dtype (int64 for index
arrays, float64 for values), so the storage dtype may change but no value
may. The expected digests were recorded before the dataset layer stored CSR
as its only representation, and the quadratic-family reference digest before
one Newton oracle replaced the exact solve; a mismatch means some bits moved.
The ``nice:8`` and ``chunked:4`` run digests were re-recorded when the
tau-subset draws became one ``rng.choice`` call instead of a partial shuffle
of a persistent permutation: the subsets drawn, and so the traces, changed,
while every other digest here stayed as recorded. The ``nice:8`` digest was
re-recorded once more when tau-nice sampling took the data-dependent ESO
bound ``TauNiceSampling.eso``: the draws are unchanged, but v_i and so
theta (4.5x larger here) changed, and with them the trace. The serial,
``chunked:4`` and reference digests kept their bytes. Both were re-recorded
once more when a run's default checkpoints moved from every round(n/E|S|)
iterations to the ends of epochs, ceil(k n/E|S|): n/E|S| is 37.5 and 40.25
here, so the records fall at other iterations, while the iterates and the
records at iterations both schedules share (the first and the last) kept
their bytes. The serial digests, where n/E|S| = n, kept theirs. All four
were re-recorded when E|S| became each scheme's exact value (1, tau and
n tau/k) instead of the float sum of p, which read 1.0000000000000002,
8.000000000000002 and 7.499999999999999 here: the header's expected_size
and the epoch column's last bits changed, and the ``chunked:4`` records
moved from t = 41, 81, 121 to the epoch ends 40, 80, 120. The iterates
kept their bits, and the other three runs every other column. The two
reference digests and the ``validate`` digest were re-recorded when the
oracle's dense d x d Newton solve became conjugate gradients on
Hessian-vector products: w* moved in its last bits (by at most 7.8e-16 on
the squared and 1.1e-16 on the quadratic-family problem, with P* equal
and 1.4e-17 apart), and with it the suites' slacks, such as lemma1's
worst from 7.1e-15 to 3.6e-15, while every suite still passes. The
``validate`` digest was re-recorded once more when the ESO check became
the exact worst ratio over every h, the top eigenvalue of
D^{-1/2} (P o A A^T) D^{-1/2}, instead of ratios at 5 Gaussian h per
scheme: only the ``eso`` entry changed, its trials from 150 checks to 30,
its worst from 2.2e-16 to 4.4e-16 and its counterexample's ratio from
6.18 (at random h) to the exact 9. Every other suite kept its bytes.
"""

import hashlib

import numpy as np
import pytest

from dfsdca.cli import main
from dfsdca.dataset import (
    gen_synthetic,
    normalize_max_norm,
    parse_libsvm,
    serialize_libsvm,
)
from dfsdca.losses import build_nonconvex_instance

# a label-only row and explicit zeros, which the parser drops
TEXT = (
    "+1 1:0.5 3:-2.25 7:1e-3\n"
    "-1\n"
    "+1 2:0 4:3.5\n"
    "-1 1:1.25 2:-0.75 5:0 6:2  # comment\n"
    "+1 3:0.1 4:0.2 6:0.3 7:0.4\n"
)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        a = a.astype(np.int64 if a.dtype.kind in "iu" else np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def build(name):
    """The dataset named ``name`` plus any extra outputs of its builder."""
    if name in ("linear-sign", "linear-noise", "skewed-nnz"):
        return gen_synthetic(300, 40, 0.1, name, 11), ()
    if name == "nonconvex":
        ds, loss = build_nonconvex_instance(9, 4, 3)
        return ds, (loss.c, loss.b)
    source, _, normalizer = name.partition(":")
    base = parse_libsvm(TEXT) if source == "parsed" \
        else gen_synthetic(200, 30, 0.2, "linear-noise", 5)
    if normalizer == "max-norm":
        ds, scale = normalize_max_norm(base)
        return ds, ([scale],)
    return base, ()


GOLDEN_DATASETS = {
    "linear-sign": "ff6953f755d82b83",
    "linear-noise": "373603166c63d4d2",
    "skewed-nnz": "99543f8e502b2d0b",
    "nonconvex": "ab674d478845d757",
    "parsed": "67354b71eab3e1a5",
    "parsed:max-norm": "1d301448dc0f5a6c",
    "synthetic:max-norm": "d3c451b61ad5a024",
}


@pytest.mark.parametrize("name", list(GOLDEN_DATASETS))
def test_dataset_digest(name):
    ds, extra = build(name)
    A = ds.csr()
    got = digest(A.indptr, A.indices, A.data, ds.labels, ds.norms, [ds.d], *extra)
    assert got == GOLDEN_DATASETS[name]


def test_serialize_digest():
    text = serialize_libsvm(parse_libsvm(TEXT)) \
        + serialize_libsvm(gen_synthetic(50, 12, 0.3, "linear-noise", 2))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "e544e36e427471e9"


PROBLEM = ["--synthetic", "300,40,0.1,linear-sign", "--loss", "logistic"]

GOLDEN_RUNS = {
    "serial-uniform": "91430d25c636512b",
    "nice:8": "fc6a32e394cbaaef",
    "chunked:4": "1e1c3516e86a70be",
    "serial-uniform --seeds 3": "76a87b10543587a9",
}


@pytest.mark.parametrize("case", list(GOLDEN_RUNS))
def test_run_csv_digest(case, tmp_path):
    out = tmp_path / "trace.csv"
    sampling, *more = case.split()
    assert main(["run", *PROBLEM, "--sampling", sampling, "--epochs", "3",
                 "--seed", "2", *more, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == GOLDEN_RUNS[case]


def test_exact_reference_digest(tmp_path):
    # squared loss: the first Newton step is a linear solve, by CG
    out = tmp_path / "ref.json"
    assert main(["reference", "--synthetic", "200,30,0.2,linear-noise",
                 "--loss", "squared", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "3a569ddc928184ad"


def test_quadfam_reference_digest(tmp_path):
    # quadratic family with some c_i < 0: CG on the Hessian of a non-convex loss
    out = tmp_path / "ref.json"
    assert main(["reference", "--synthetic", "9,4,1,nonconvex",
                 "--loss", "quadfam", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "473b52686e161e37"


def test_validate_json_digest(tmp_path):
    # every suite's report at seed 0: exact enumeration, the ESO's
    # eigenvalues and the fixed-point steps all feed these bytes
    out = tmp_path / "validate.json"
    assert main(["validate", "--suite", "all", "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "211387fe714bead8"
