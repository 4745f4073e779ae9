import argparse
import json
import os
import re

import numpy as np
import pytest

import dfsdca._kernel as _kernel
import dfsdca.cli as cli
import dfsdca.diagnostics as diagnostics
from dfsdca.cli import TRACE_COLUMNS, build_parser, main
from dfsdca.dataset import LABEL_MODELS, gen_synthetic, serialize_libsvm
from dfsdca.losses import quadratic_family
from dfsdca.solver import run as solver_run

from csr_rows import from_rows

RIDGE = "1 1:1\n3 1:1\n"


@pytest.fixture
def ridge_file(tmp_path):
    path = tmp_path / "ridge.libsvm"
    path.write_text(RIDGE)
    return str(path)


def read_rows(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#") or not line:
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, line.split(","))))
    return header, rows


class TestRun:
    def test_ridge_reaches_closed_form(self, ridge_file, tmp_path):
        ref = tmp_path / "ref.json"
        out = tmp_path / "trace.csv"
        assert main([
            "reference", "--data", ridge_file, "--loss", "squared",
            "--lambda", "1", "--out", str(ref),
        ]) == 0
        payload = json.loads(ref.read_text())
        assert abs(payload["w"][0] - 1.0) <= 1e-10
        assert main([
            "run", "--data", ridge_file, "--loss", "squared", "--lambda", "1",
            "--sampling", "serial-uniform", "--theta", "auto-convex",
            "--epochs", "200", "--seed", "0",
            "--reference", str(ref), "--out", str(out),
        ]) == 0
        header, rows = read_rows(out)
        assert ",".join(header) == TRACE_COLUMNS
        assert float(rows[-1]["subopt"]) <= 1e-6

    def test_lambda_token_resolved(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main([
            "run", "--synthetic", "100,8,0.4,linear-sign", "--lambda", "1/n",
            "--epochs", "1", "--out", str(out),
        ]) == 0
        meta = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert any("lambda=0.01" in l for l in meta)

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "run", "--synthetic", "60,10,0.5,linear-sign", "--lambda", "0.1",
            "--sampling", "nice:4", "--epochs", "3", "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_fanout_aggregates(self, tmp_path):
        ref = tmp_path / "ref.json"
        out = tmp_path / "agg.csv"
        base = ["--synthetic", "40,8,0.5,linear-sign", "--lambda", "0.2"]
        assert main(["reference"] + base + ["--out", str(ref)]) == 0
        assert main([
            "run", *base, "--sampling", "serial-uniform", "--epochs", "2",
            "--seeds", "4", "--reference", str(ref), "--out", str(out),
        ]) == 0
        header, rows = read_rows(out)
        assert "E_mean" in header and "E_stderr" in header
        assert float(rows[-1]["E_mean"]) < float(rows[0]["E_mean"])

    def test_seeds_share_one_scheme_and_theta(self, tmp_path, monkeypatch):
        # serial-random:<c> takes its marginals from --seed, so every seed
        # runs on one scheme at one stepsize and the envelope is that one's
        ref = tmp_path / "ref.json"
        out = tmp_path / "agg.csv"
        base = ["--synthetic", "60,10,0.5,linear-sign", "--lambda", "0.2"]
        assert main(["reference", *base, "--out", str(ref)]) == 0
        runs = []

        def spy(problem, scheme, config, reference=None):
            state, trace = solver_run(problem, scheme, config, reference=reference)
            runs.append((scheme, config.seed, trace.theta))
            return state, trace

        monkeypatch.setattr(cli, "run", spy)
        assert main(["run", *base, "--sampling", "serial-random:3", "--seeds", "3",
                     "--epochs", "3", "--reference", str(ref), "--out", str(out)]) == 0
        theta = float(re.search(r" theta=(\S+)", out.read_text()).group(1))
        _, rows = read_rows(out)
        assert [seed for _, seed, _ in runs] == [0, 1, 2]
        assert all(scheme is runs[0][0] for scheme, _, _ in runs)
        assert [used for _, _, used in runs] == [theta] * 3
        assert [float(row["theta"]) for row in rows] == [theta] * len(rows)
        for name in ("D", "E"):
            x0 = float(rows[0][f"{name}_mean"])
            for row in rows:
                assert float(row[f"envelope_{name}"]) == pytest.approx(
                    x0 * np.exp(-theta * int(row["t"])), rel=1e-12)

    def test_seeds_without_reference_fill_only_primal(self, tmp_path):
        out = tmp_path / "agg.csv"
        assert main(["run", "--synthetic", "40,8,0.5,linear-sign", "--seeds", "2",
                     "--epochs", "2", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        empty = [f"{name}_{stat}" for name in ("subopt", "B", "D", "E")
                 for stat in ("mean", "stderr")] + ["envelope_D", "envelope_E"]
        for row in rows:
            assert float(row["primal_mean"]) > 0 and row["primal_stderr"] != ""
            assert [row[column] for column in empty] == [""] * len(empty)

    def test_envelope_columns_present(self, ridge_file, tmp_path):
        ref = tmp_path / "ref.json"
        out = tmp_path / "t.csv"
        main(["reference", "--data", ridge_file, "--loss", "squared",
              "--lambda", "1", "--out", str(ref)])
        main(["run", "--data", ridge_file, "--loss", "squared", "--lambda", "1",
              "--epochs", "10", "--reference", str(ref), "--out", str(out)])
        _, rows = read_rows(out)
        e0 = float(rows[0]["E"])
        theta = float(rows[0]["theta"])
        for row in rows:
            expected = e0 * np.exp(-theta * int(row["t"]))
            assert float(row["envelope_E"]) == pytest.approx(expected, rel=1e-12)

    def test_exit_codes(self, tmp_path, ridge_file, capsys):
        # usage: unknown sampling descriptor / missing source / bad loss combo
        assert main(["run", "--synthetic", "10,3,1,linear-sign",
                     "--sampling", "bogus"]) == 1
        assert main(["run"]) == 1
        assert main(["run", "--synthetic", "10,3,1,linear-sign",
                     "--loss", "quadfam"]) == 1
        # data: missing and malformed files
        assert main(["run", "--data", str(tmp_path / "nope")]) == 2
        bad = tmp_path / "bad.libsvm"
        bad.write_text("+1 3:1 2:1\n")
        assert main(["run", "--data", str(bad)]) == 2
        # validation: explicit theta above min p_i
        assert main(["run", "--data", ridge_file, "--loss", "squared",
                     "--lambda", "1", "--theta", "0.9"]) == 3
        # success: a label-only row parses, so it must also run (v_i = 0)
        empty_row = tmp_path / "empty_row.libsvm"
        empty_row.write_text("+1 1:1 2:0.5\n-1\n+1 2:2\n-1 1:-1.5\n")
        for extra in (["--sampling", "serial-uniform"], ["--sampling", "nice:2"],
                      ["--sampling", "chunked:1"], ["--theta", "auto-nonconvex"]):
            assert main(["run", "--data", str(empty_row), "--epochs", "2",
                         *extra, "--out", str(tmp_path / "e.csv")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--seeds", "--epochs"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_is_usage_error(self, flag, value, capsys):
        code = main(["run", "--synthetic", "20,4,0.5,linear-sign", flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    def test_default_header_reads_one_seed(self, capsys):
        assert main(["run", "--synthetic", "20,4,0.5,linear-sign",
                     "--epochs", "1"]) == 0
        assert "# seed=0 seeds=1 epochs=1\n" in capsys.readouterr().out

    @pytest.mark.parametrize("descriptor", [
        "nice:abc", "nice:", "nice", "chunked:x", "serial-random:x",
    ])
    def test_malformed_sampling_is_usage_error(self, descriptor, capsys):
        code = main(["run", "--synthetic", "20,4,0.5,linear-sign",
                     "--sampling", descriptor])
        assert code == 1
        err = capsys.readouterr().err
        assert "--sampling" in err and repr(descriptor) in err

    @pytest.mark.parametrize("descriptor,name", [
        ("nice:0", "tau"), ("chunked:0", "tau"), ("serial-random:1", "c"),
        ("serial-random:nan", "c"), ("serial-random:inf", "c"),
    ])
    def test_sampling_out_of_range_exits_3(self, descriptor, name, capsys):
        code = main(["run", "--synthetic", "20,4,0.5,linear-sign",
                     "--sampling", descriptor])
        assert code == 3
        assert name in capsys.readouterr().err

    def test_label_only_rows_keep_D_finite(self, tmp_path):
        data = tmp_path / "label_only.libsvm"
        data.write_text("+1 1:1\n-1\n+1 2:0.5\n")
        ref, out = tmp_path / "ref.json", tmp_path / "t.csv"
        assert main(["reference", "--data", str(data), "--out", str(ref)]) == 0
        assert main(["run", "--data", str(data), "--epochs", "3",
                     "--reference", str(ref), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert float(rows[0]["D"]) > 0.0
        for row in rows:
            assert np.isfinite(float(row["D"]))
            assert np.isfinite(float(row["envelope_D"]))

    @pytest.mark.parametrize("command", ["run", "reference"])
    def test_index_beyond_int32_exits_3(self, command, tmp_path, capsys):
        # rejected before any d-sized array exists, up to the largest index
        # the parser takes
        for d in (3_000_000_000, 2**63 - 1):
            data = tmp_path / "wide.libsvm"
            data.write_text(f"+1 {d}:1\n-1 2:0.5\n")
            assert main([command, "--data", str(data)]) == 3
            err = capsys.readouterr().err
            assert f"d={d}" in err and "2147483647" in err

    @pytest.mark.parametrize("index", [2**63, 10**20])
    def test_index_beyond_int64_exits_2(self, index, tmp_path, capsys):
        data = tmp_path / "wider.libsvm"
        data.write_text(f"-1 2:0.5\n+1 {index}:1\n")
        assert main(["run", "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert f"line 2: index {index} exceeds 2**63 - 1" in err

    def test_non_utf8_byte_exits_2(self, tmp_path, capsys):
        data = tmp_path / "latin1.libsvm"
        data.write_bytes(b"+1 1:0.5\n-1 2:\xff\n")
        assert main(["run", "--data", str(data)]) == 2
        assert "data error: line 2: non-ASCII byte 0xff" in capsys.readouterr().err

    def test_normalize_drops_values_that_underflow(self, tmp_path):
        # 1e-320 / 1e10 is 0.0, which the data must not hold as a value
        data = tmp_path / "tiny.libsvm"
        data.write_text("+1 1:1e-320 2:1e10\n-1 1:1\n")
        out = tmp_path / "trace.csv"
        assert main(["run", "--data", str(data), "--normalize", "--out", str(out)]) == 0
        assert "# loss=logistic n=2 d=2" in out.read_text()

    @pytest.mark.parametrize("text, flags, message", [
        ("+1 1:nan\n-1 2:1\n", [], "row 0 (0-based): norm nan is not finite"),
        ("+1 1:1\nnan 2:1\n", ["--loss", "squared"],
         "row 1 (0-based): label nan is not finite"),
        ("+1 1:1e200\n-1 2:1\n", [], "row 0 (0-based): norm inf is not finite"),
        ("+1 1:1e200\n-1 2:1\n", ["--normalize"], "row 0 (0-based): norm inf"),
        ("+1 1:1\n-1 2:-inf\n", ["--normalize"], "row 1 (0-based): norm inf"),
    ], ids=["nan-value", "nan-label", "overflow", "overflow-normalize", "inf-value"])
    @pytest.mark.parametrize("command", ["run", "reference"])
    def test_non_finite_data_exits_2(self, command, text, flags, message, tmp_path,
                                     capsys):
        # warnings are errors here, so an overflow RuntimeWarning fails too
        data = tmp_path / "bad.libsvm"
        data.write_text(text)
        code = main([command, "--data", str(data), *flags, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: {message}" in err and "Traceback" not in err

    def test_vanishing_stepsize_names_its_example(self, tmp_path, capsys):
        # finite data, but v_1 = 1e308 against lambda = 1e-20 underflows theta
        data = tmp_path / "huge.libsvm"
        data.write_text("+1 1:1\n-1 2:1e154\n")
        assert main(["run", "--data", str(data), "--lambda", "1e-20",
                     "--out", str(tmp_path / "trace.csv")]) == 3
        err = capsys.readouterr().err
        assert ("auto-convex stepsize 0.0 is not finite and positive: it is set by "
                "example 1, with p_1=0.5, v_1=1") in err
        assert "l_1=0.25 (lambda=1e-20, n=2)" in err

    @pytest.mark.parametrize("sampling, code", [("nice:2", 0), ("chunked:2", 3)])
    def test_near_overflow_norm_reports_only_the_stepsize(self, sampling, code,
                                                          tmp_path, capsys):
        # ||A_2||^2 = 1e308: tau-nice's cap keeps v_2 finite, the chunked
        # cardinality bound 2e308 is inf; neither leaks an overflow warning
        data = tmp_path / "huge.libsvm"
        data.write_text("+1 1:1\n-1 2:1e154\n")
        assert main(["run", "--data", str(data), "--sampling", sampling,
                     "--out", str(tmp_path / "trace.csv")]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.splitlines() == [
                "dfsdca: auto-convex stepsize 0.0 is not finite and positive: it is "
                "set by example 1, with p_1=1.0, v_1=inf, l_1=0.25 (lambda=0.5, n=2)"
            ]

    def test_divergent_instance_exits_3(self, tmp_path, capsys):
        assert main([
            "run", "--synthetic", "20,4,0.5,linear-sign", "--loss", "logistic",
            "--lambda", "1e-9", "--theta", "0.05", "--epochs", "2000",
        ]) == 3
        assert "at iteration 20:" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["auto-convex", "1", "1.0000000000001"])
    def test_unit_theta_envelope(self, tmp_path, theta):
        # one label-only row: v_1 = 0 and p_1 = 1, so auto-convex gives
        # theta = 1; the guard's rounding slack admits a little more
        data, ref, out = (tmp_path / f for f in ("one.libsvm", "ref.json", "t.csv"))
        data.write_text("+1\n")
        assert main(["reference", "--data", str(data), "--out", str(ref)]) == 0
        assert main(["run", "--data", str(data), "--theta", theta, "--epochs", "3",
                     "--reference", str(ref), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        e0 = float(rows[0]["E"])
        assert e0 > 0.0
        expect = 1.0 if theta == "auto-convex" else float(theta)
        for row in rows:
            assert float(row["theta"]) == expect
            assert float(row["envelope_E"]) == pytest.approx(
                e0 * np.exp(-expect * int(row["t"])), rel=1e-15)

    @pytest.mark.parametrize("descriptor", [
        "serial-importance", "serial-random:3", "nice:5", "chunked:2",
    ])
    def test_every_sampling_descriptor_runs(self, tmp_path, descriptor):
        out = tmp_path / "t.csv"
        assert main([
            "run", "--synthetic", "30,8,0.5,linear-sign", "--lambda", "0.2",
            "--sampling", descriptor, "--epochs", "2", "--out", str(out),
        ]) == 0
        _, rows = read_rows(out)
        assert float(rows[-1]["primal"]) < float(rows[0]["primal"])

    def test_header_v_is_the_scheme_eso(self, tmp_path):
        def v_range(sampling):
            out = tmp_path / "t.csv"
            assert main([
                "run", "--synthetic", "60,10,0.3,linear-sign", "--seed", "0",
                "--sampling", sampling, "--epochs", "1", "--out", str(out),
            ]) == 0
            line = next(l for l in out.read_text().splitlines() if " v_max=" in l)
            fields = dict(tok.split("=") for tok in line[1:].split())
            return float(fields["v_min"]), float(fields["v_max"])

        # the tau-nice bound lies below the cardinality bound tau ||A_i||^2
        # and is the serial ||A_i||^2 at tau = 1
        norms = gen_synthetic(60, 10, 0.3, "linear-sign", 0).norms
        assert v_range("nice:6")[1] < 6 * float(np.max(norms**2))
        assert v_range("nice:1") == v_range("serial-uniform")

    def test_nonconvex_synthetic_model(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main([
            "run", "--synthetic", "40,8,0.5,nonconvex", "--loss", "quadfam",
            "--lambda", "1", "--theta", "auto-nonconvex", "--epochs", "5",
            "--out", str(out),
        ]) == 0
        _, rows = read_rows(out)
        assert float(rows[-1]["primal"]) < float(rows[0]["primal"])


class TestChunkStats:
    def test_uniform_nnz_all_zero(self, tmp_path, capsys):
        data = tmp_path / "uniform.libsvm"
        data.write_text("".join(f"1 1:1 2:{i + 2}\n" for i in range(12)))
        out = tmp_path / "cs.csv"
        assert main([
            "chunk-stats", "--data", str(data), "--tau", "3",
            "--draws", "50", "--out", str(out),
        ]) == 0
        header, rows = read_rows(out)
        assert header == ["row", "standard", "chunked"]
        assert all(float(r["standard"]) == 0.0 for r in rows)
        assert all(float(r["chunked"]) == 0.0 for r in rows)

    def test_skewed_improvement_and_side_file(self, tmp_path):
        out = tmp_path / "cs.csv"
        assert main([
            "chunk-stats", "--synthetic", "500,100,0.05,skewed-nnz",
            "--tau", "8", "--draws", "2000", "--seed", "3", "--out", str(out),
        ]) == 0
        _, rows = read_rows(out)
        mean_row = [r for r in rows if r["row"] == "mean"][0]
        assert float(mean_row["chunked"]) < float(mean_row["standard"])
        side = json.loads((tmp_path / "cs.csv.chunks.json").read_text())
        assert side["k"] >= 8
        assert sum(side["g"]) == 500

    def test_without_out_writes_csv_then_partition_to_stdout(self, tmp_path, capsys):
        data = tmp_path / "five.libsvm"
        data.write_text("1 1:1 2:1 3:1\n-1 1:1\n1 2:1\n-1 1:1 3:1\n1 3:1\n")
        assert main(["chunk-stats", "--data", str(data), "--tau", "2",
                     "--draws", "3", "--seed", "1"]) == 0
        assert capsys.readouterr() == (
            "row,standard,chunked\n"
            "0,0.0,0.5\n"
            "1,0.5,0.0\n"
            "2,1.0,0.5\n"
            "mean,0.5,0.3333333333333333\n"
            '{"boundaries": [0, 1, 3, 5], "g": [1, 2, 2], "k": 3, "m_cap": 3.0, '
            '"s": [3.0, 2.0, 3.0]}\n', "")

    def test_index_beyond_int32_exits_3(self, tmp_path, capsys):
        # a Dataset is int32 CSR, whichever command reads it
        data = tmp_path / "wide.libsvm"
        data.write_text("+1 3000000000:1\n-1 2:0.5\n")
        out = tmp_path / "cs.csv"
        assert main(["chunk-stats", "--data", str(data), "--tau", "1",
                     "--draws", "5", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "dfsdca: dataset too large for int32 CSR indices: n=2, d=3000000000 "
            "and nnz=2 must be at most 2**31 - 1 = 2147483647\n")
        assert not out.exists()

    @pytest.mark.parametrize("draws", ["0", "-1"])
    def test_draws_below_one_is_usage_error(self, draws, capsys):
        code = main(["chunk-stats", "--synthetic", "50,10,0.3,skewed-nnz",
                     "--tau", "2", "--draws", draws])
        assert code == 1
        captured = capsys.readouterr()
        assert "--draws" in captured.err and captured.out == ""

    @pytest.mark.parametrize("tau", ["0", "-1", "x"])
    def test_tau_below_one_is_usage_error(self, tau, capsys):
        code = main(["chunk-stats", "--synthetic", "50,10,0.3,skewed-nnz",
                     "--tau", tau])
        assert code == 1
        captured = capsys.readouterr()
        assert "argument --tau: " in captured.err and captured.out == ""

    def test_tau_exceeding_chunks_exits_3(self, tmp_path, capsys):
        data = tmp_path / "two.libsvm"
        data.write_text("1 1:1\n1 1:1\n")
        code = main(["chunk-stats", "--data", str(data), "--tau", "5"])
        assert code == 3
        assert "k=2" in capsys.readouterr().err


class TestValidate:
    def test_full_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["validate", "--seed", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert len(report["suites"]) >= 6
        names = {s["name"] for s in report["suites"]}
        assert {"eso", "lemma1", "lemma2", "contraction",
                "gradcheck", "fixedpoint"} <= names

    def test_injected_bad_theta_surfaces_guard(self, capsys):
        code = main(["validate", "--suite", "lemma1", "--theta", "0.9"])
        assert code == 3
        assert "exceeds p" in capsys.readouterr().err

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["validate", "--suite", "nope"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("suites", ["lemma1,gradcheck", "gradcheck,lemma1"])
    def test_bad_theta_in_either_position_is_one_line(self, suites, capsys):
        assert main(["validate", "--suite", suites, "--theta", "0.9"]) == 3
        captured = capsys.readouterr()
        assert re.fullmatch(r"dfsdca: theta=0\.9 exceeds p_0=\S+: alpha update "
                            r"would leave the convex combination\n", captured.err)
        assert captured.out == ""

    def test_oracle_give_up_in_a_later_suite_exits_3(self, monkeypatch, capsys):
        def give_up(seed, theta_override=None):
            raise diagnostics.ReferenceError("the oracle stopped short", 1.5)

        monkeypatch.setitem(diagnostics.ALL_SUITES, "lemma1", give_up)
        assert main(["validate", "--suite", "gradcheck,lemma1"]) == 3
        assert capsys.readouterr().err == "dfsdca: the oracle stopped short\n"


class TestReference:
    def test_rerun_identical(self, ridge_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["reference", "--data", ridge_file, "--loss", "squared",
                "--lambda", "1"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_one_or_two_cpus_write_the_same_bytes(self, tmp_path, monkeypatch):
        # enough entries that two CPUs give the oracle a helper thread
        ds = gen_synthetic(1500, 100, 0.1, "linear-sign", 3)
        assert ds.indices.size >= _kernel.MIN_HESSIAN_NNZ
        data = tmp_path / "big.libsvm"
        data.write_text(serialize_libsvm(ds))
        threads, init = [], _kernel.Hessian.__init__

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            threads.append(self.threads)

        monkeypatch.setattr(_kernel.Hessian, "__init__", record)
        out = {}
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out[len(cpus)] = tmp_path / f"ref{len(cpus)}.json"
            assert main(["reference", "--data", str(data), "--loss", "logistic",
                         "--lambda", "1/n", "--normalize",
                         "--out", str(out[len(cpus)])]) == 0
        assert threads == [1, 2]
        assert out[1].read_bytes() == out[2].read_bytes()

    def test_unreachable_tol_exits_3(self, capsys):
        # the gradient norm stalls near 4e-17 here, far above the target
        code = main([
            "reference", "--synthetic", "50,10,0.8,linear-sign",
            "--lambda", "0.5", "--tol", "1e-30",
        ])
        assert code == 3
        assert re.match(r"dfsdca: Newton iteration \d+: no smaller gradient norm "
                        r"in 3 iterations, so the oracle stopped at \|\|grad\|\| = ",
                        capsys.readouterr().err)

    def test_nonconvex_objective_exits_3(self, monkeypatch, capsys):
        # one example of curvature -1 > lam = 0.5: P has no minimum
        ds = from_rows([([0], [1.0])], [0.0], 1)
        monkeypatch.setattr(cli, "build_nonconvex_instance",
                            lambda n, d, seed: (ds, quadratic_family([-1.0], [1.0])))
        code = main(["reference", "--synthetic", "1,1,1,nonconvex",
                     "--loss", "quadfam", "--lambda", "0.5"])
        assert code == 3
        assert "Newton iteration 1: p^T H p" in capsys.readouterr().err

    def test_cg_cap_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(diagnostics, "_CG_PER_DIM", 0)
        monkeypatch.setattr(diagnostics, "_CG_EXTRA", 1)
        code = main(["reference", "--synthetic", "50,10,0.8,linear-sign",
                     "--lambda", "0.5"])
        assert code == 3
        err = capsys.readouterr().err
        assert "Newton iteration 1: CG hit its cap of 1 iterations" in err
        assert "residual" in err

    @pytest.mark.parametrize("case", ["tol", "nonconvex", "cg-cap"])
    def test_oracle_names_its_gradient_norm_once(self, case, monkeypatch, capsys):
        argv = ["reference", "--synthetic", "50,10,0.8,linear-sign", "--lambda", "0.5"]
        if case == "tol":
            argv += ["--tol", "1e-30"]
        elif case == "nonconvex":
            ds = from_rows([([0], [1.0])], [0.0], 1)
            monkeypatch.setattr(cli, "build_nonconvex_instance",
                                lambda n, d, seed: (ds, quadratic_family([-1.0], [1.0])))
            argv[2:3] = ["1,1,1,nonconvex", "--loss", "quadfam"]
        else:
            monkeypatch.setattr(diagnostics, "_CG_PER_DIM", 0)
            monkeypatch.setattr(diagnostics, "_CG_EXTRA", 1)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("||grad||") == 1 and err.count("\n") == 1
        assert re.search(r"the oracle stopped at \|\|grad\|\| = \d\.\d{3}e[+-]\d\d", err)

    def test_reference_dimension_mismatch_is_data_error(self, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        main(["reference", "--synthetic", "10,4,0.8,linear-sign",
              "--lambda", "0.5", "--out", str(ref)])
        code = main([
            "run", "--synthetic", "12,4,0.8,linear-sign", "--lambda", "0.5",
            "--reference", str(ref),
        ])
        assert code == 2
        capsys.readouterr()

    def test_missing_reference_is_data_error(self, tmp_path, capsys):
        ref = tmp_path / "missing.json"
        assert main(["run", "--synthetic", "10,4,0.8,linear-sign",
                     "--reference", str(ref)]) == 2
        assert capsys.readouterr() == ("", (
            f"dfsdca: data error: cannot read {ref}: "
            f"[Errno 2] No such file or directory: '{ref}'\n"))

    @pytest.mark.parametrize("text", [
        "{", "[1]", '{"w": "abc", "alpha": [1.0], "P_star": 1.0, "grad_norm": 0.0}',
    ], ids=["not-json", "not-an-object", "not-numbers"])
    def test_malformed_reference_is_data_error(self, text, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        ref.write_text(text)
        assert main(["run", "--synthetic", "10,4,0.8,linear-sign",
                     "--reference", str(ref)]) == 2
        assert f"data error: bad reference file {ref}" in capsys.readouterr().err

    def test_reference_for_another_problem_is_data_error(self, tmp_path, capsys):
        # same data, n and d, but made for lambda 1 and the logistic loss
        ref = tmp_path / "ref.json"
        data = ["--synthetic", "40,6,0.5,linear-sign"]
        assert main(["reference", *data, "--lambda", "1", "--out", str(ref)]) == 0
        P_star = json.loads(ref.read_text())["P_star"]
        out = tmp_path / "trace.csv"
        code = main(["run", *data, "--lambda", "0.05", "--loss", "squared",
                     "--reference", str(ref), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"its P_star = {P_star!r} (lambda=1.0, loss='logistic')" in err
        assert re.search(r"its w gives P = \S+ here \(lambda=0.05, loss='squared'\)",
                         err)
        assert not out.exists()
        assert main(["run", *data, "--lambda", "1", "--reference", str(ref),
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("tol", ["nan", "-1", "-inf", "abc"])
    def test_tol_must_be_a_number_at_least_0(self, tol, capsys):
        assert main(["reference", "--synthetic", "10,4,0.8,linear-sign",
                     f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert (f"argument --tol: expected a number at least 0, inf included, "
                f"got '{tol}'") in captured.err
        assert captured.out == ""

    def test_tol_inf_is_accepted(self, capsys):
        assert main(["reference", "--synthetic", "10,4,0.8,linear-sign",
                     "--tol", "inf"]) == 0
        assert "P_star" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["run"], ["reference"], ["chunk-stats", "--tau", "2"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("sources", [
    [], ["--data", "unused.libsvm", "--synthetic", "20,4,0.5,linear-sign"],
], ids=["neither", "both"])
def test_data_source_is_one_of_data_or_synthetic(command, sources, capsys):
    assert main([*command, *sources]) == 1
    captured = capsys.readouterr()
    assert ("one of the arguments --data --synthetic is required" in captured.err
            if not sources else
            "argument --synthetic: not allowed with argument --data" in captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["run", "--synthetic", "20,4,0.5,linear-sign"],
    ["reference", "--synthetic", "20,4,0.5,linear-sign"],
    ["chunk-stats", "--synthetic", "20,4,0.5,skewed-nnz", "--tau", "2"],
    ["validate"],
], ids=lambda command: command[0])
def test_negative_seed_is_usage_error(command, capsys):
    assert main([*command, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert "argument --seed: must be at least 0, got -1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("theta", ["nan", "-1", "0", "inf", "abc", "xyz"])
@pytest.mark.parametrize("command", [
    ["run", "--synthetic", "20,4,0.5,linear-sign"],
    ["validate", "--suite", "lemma1"],
], ids=lambda command: command[0])
def test_theta_must_be_a_finite_number_above_0(command, theta, capsys):
    # run's --theta also takes two tokens, and its message names them
    expected = "a finite number above 0"
    if command[0] == "run":
        expected = "auto-convex, auto-nonconvex or " + expected
    assert main([*command, "--theta", theta]) == 1
    captured = capsys.readouterr()
    assert f"argument --theta: expected {expected}, got '{theta}'\n" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("lam", ["nan", "inf", "0", "-1", "abc"])
@pytest.mark.parametrize("command", ["run", "reference"])
def test_lambda_must_be_1_over_n_or_a_finite_number_above_0(command, lam, capsys):
    assert main([command, "--synthetic", "10,4,0.8,linear-sign", "--lambda", lam]) == 1
    captured = capsys.readouterr()
    assert f"argument --lambda: expected 1/n or a finite number above 0, got '{lam}'\n" \
        in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", [
    ["--sampling", "nice:x"], ["--lambda", "abc"], ["--loss", "quadfam"],
], ids=lambda flag: flag[0])
@pytest.mark.parametrize("exists", [True, False], ids=["data", "missing-data"])
def test_bad_flag_fails_before_any_data_is_read(flag, exists, ridge_file, tmp_path,
                                                monkeypatch, capsys):
    def parse_libsvm(fh):
        raise AssertionError("the data was read")

    monkeypatch.setattr(cli, "parse_libsvm", parse_libsvm)
    data = ridge_file if exists else str(tmp_path / "nope")
    assert main(["run", "--data", data, "--normalize", *flag]) == 1
    captured = capsys.readouterr()
    assert flag[0] in captured.err and captured.out == ""


@pytest.mark.parametrize("command", [
    ["run"], ["reference"], ["chunk-stats", "--tau", "2"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("spec", ["5,3,0.5,nonsense", "5,3,0.5", "5,x,0.5,linear-sign"])
def test_synthetic_spec_is_checked_by_the_parser(command, spec, capsys):
    assert main([*command, "--synthetic", spec]) == 1
    captured = capsys.readouterr()
    assert (f"argument --synthetic: expected n,d,density,model with model in "
            f"{{{','.join(LABEL_MODELS)},nonconvex}}, got '{spec}'") in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("source,loss", [
    ("20,4,0.5,linear-sign", "quadfam"), ("20,4,0.5,nonconvex", "logistic"),
    ("20,4,0.5,nonconvex", "squared"),
])
@pytest.mark.parametrize("command", ["run", "reference"])
def test_quadfam_and_nonconvex_go_together(command, source, loss, capsys):
    assert main([command, "--synthetic", source, "--loss", loss]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("dfsdca: error: --loss quadfam and the model "
                            "nonconvex need each other\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["run", "--synthetic", "20,4,0.5,linear-sign", "--epochs", "1"],
    ["reference", "--synthetic", "20,4,0.5,linear-sign"],
    ["validate", "--suite", "gradcheck"],
    ["chunk-stats", "--synthetic", "20,4,0.5,skewed-nnz", "--tau", "2",
     "--draws", "3"],
    # a malformed --data file: the message names --out, so --out came first
    ["run", "--data", "BAD", "--epochs", "1"],
    ["reference", "--data", "BAD"],
    ["chunk-stats", "--data", "BAD", "--tau", "2", "--draws", "3"],
], ids=lambda command: command[0] + ("-data" if "--data" in command else ""))
def test_unwritable_out_is_data_error(command, tmp_path, capsys):
    bad = tmp_path / "bad.libsvm"
    bad.write_text("1 1:x\n")
    out = tmp_path / "missing" / "x.csv"
    command = [str(bad) if arg == "BAD" else arg for arg in command]
    assert main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"dfsdca: data error: cannot write {out}: ")
    assert err.count("\n") == 1


def test_unwritable_chunk_side_file_is_data_error(tmp_path, capsys):
    out = tmp_path / "cs.csv"
    (tmp_path / "cs.csv.chunks.json").mkdir()
    assert main(["chunk-stats", "--synthetic", "20,4,0.5,skewed-nnz", "--tau", "2",
                 "--draws", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"dfsdca: data error: cannot write {out}.chunks.json: ")
    assert err.count("\n") == 1
    assert not out.exists()  # neither file is written


def test_unwritable_chunk_csv_writes_no_side_file(tmp_path, capsys):
    out = tmp_path / "cs.csv"
    out.mkdir()
    assert main(["chunk-stats", "--synthetic", "20,4,0.5,skewed-nnz", "--tau", "2",
                 "--draws", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"dfsdca: data error: cannot write {out}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["cs.csv"]


def test_writable_check_leaves_files_as_they_were(tmp_path, capsys):
    # a failing command leaves no new --out file, and an old one unchanged
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("old\n")
    for out in (new, old):
        assert main(["run", "--synthetic", "20,4,0.5,linear-sign", "--sampling",
                     "nice:99", "--out", str(out)]) == 3
    assert not new.exists() and old.read_text() == "old\n"


def test_no_option_is_typed_by_bare_int():
    # an integer option takes _int_at_least, which names its lower bound,
    # and a real one a _real type, which names the values it accepts; every
    # option that takes a value but a path is parsed by argparse
    def actions(parser):
        for action in parser._actions:
            yield action
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)

    options = [a for a in actions(build_parser()) if a.option_strings]
    assert [a.option_strings for a in options if a.type in (int, float)] == []
    assert {s for a in options if a.nargs != 0 and a.type is None and a.choices is None
            for s in a.option_strings} == {"--data", "--reference", "--out"}


class TestHelp:
    def test_run_help_documents_columns(self, capsys):
        assert main(["run", "--help"]) == 0
        assert "t,epoch,primal" in capsys.readouterr().out
