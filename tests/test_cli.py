"""CLI exit codes, file outputs and determinism."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from hmfront import cli, nlp, problem, scalarization, synthetic_returns
from hmfront.cli import (
    EXIT_INPUT,
    EXIT_MEASURE,
    EXIT_OK,
    EXIT_SOLVE,
    EXIT_VERIFY,
    METHODS,
    _build_config,
    build_parser,
    main,
)
from hmfront.errors import ConfigError
from hmfront.fronts import read_front_csv

SYN = ["--synthetic", "3", "400", "28", "0.4"]


def run(args):
    return main(args)


def _epsilon_and_quality_runs(tmp_path) -> str:
    """Code for a small ``front --method epsilon`` run from a returns CSV and
    a ``quality`` run of its front at a 4 x 4 reference."""
    csv = tmp_path / "r.csv"
    returns = synthetic_returns(3, 400, 28, 0.4)
    rows = [",".join(returns.assets)]
    rows += [",".join(map(repr, r)) for r in returns.observations.tolist()]
    csv.write_text("\n".join(rows), encoding="utf-8")
    front, quality = str(tmp_path / "f"), str(tmp_path / "q")
    inp = ["--input", str(csv)]
    front_argv = ["front", *inp, "--method", "epsilon", "--out", front]
    front_argv += ["--param", "n1=4", "--param", "n2=4", "--param", "rounds=1"]
    quality_argv = ["quality", *inp, "--front", os.path.join(front, "front.csv")]
    quality_argv += ["--reference-n", "4", "4", "--out", quality]
    return (
        "from hmfront.cli import main; "
        "assert main(%r) == 0; assert main(%r) == 0" % (front_argv, quality_argv)
    )


@pytest.mark.parametrize(
    "package, runs",
    [
        # the set-up every CLI run pays: importing the CLI must not pull in scipy
        ("scipy", lambda tmp_path: "import hmfront.cli"),
        # numpy 2 loads numpy.random lazily, for about 5 MB; the epsilon
        # driver and the quality reference draw no random numbers
        ("numpy.random", _epsilon_and_quality_runs),
    ],
    ids=["cli-import-no-scipy", "epsilon-and-quality-no-numpy-random"],
)
def test_run_leaves_package_unloaded(tmp_path, package, runs):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    loaded = "sorted(m for m in sys.modules if m == %r or m.startswith(%r))" % (
        package,
        package + ".",
    )
    code = "import sys, numpy; print(%s); %s; print(%s)" % (loaded, runs(tmp_path), loaded)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    lines = out.stdout.strip().splitlines()
    after_numpy, after_runs = lines[0], lines[-1]
    if after_numpy != "[]":
        pytest.skip("import numpy already loads %s" % package)
    assert after_runs == "[]"


def test_moments_writes_report(tmp_path):
    out = tmp_path / "m"
    assert run(["moments", *SYN, "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "moments.json").read_text())
    assert doc["schema_version"] == "1"
    assert doc["n"] == 3 and doc["T"] == 400
    assert len(doc["mu"]) == 3
    assert "m3" not in doc


def test_moments_full_tensors_flag(tmp_path):
    out = tmp_path / "m"
    assert run(["moments", *SYN, "--out", str(out), "--full-tensors"]) == EXIT_OK
    doc = json.loads((out / "moments.json").read_text())
    assert len(doc["m3"]) == 3 and len(doc["m3"][0]) == 9
    assert len(doc["m4"][0]) == 27


def test_moments_json_round_trips(tmp_path):
    out = tmp_path / "m"
    run(["moments", *SYN, "--out", str(out)])
    text = (out / "moments.json").read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_moments_constant_column_reports_zero_variance(tmp_path):
    csv = tmp_path / "r.csv"
    rows = ["A,B", "0.01,0.02", "0.01,0.03", "0.01,0.01"]
    csv.write_text("\n".join(rows), encoding="utf-8")
    out = tmp_path / "m"
    assert run(["moments", "--input", str(csv), "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "moments.json").read_text())
    assert doc["sigma"][0][0] == 0.0


def test_malformed_csv_exits_2(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("A,B\n0.1,nope\n0.2,0.3\n", encoding="utf-8")
    assert run(["moments", "--input", str(csv), "--out", str(tmp_path)]) == EXIT_INPUT


def test_missing_input_exits_2(tmp_path):
    assert run(["moments", "--out", str(tmp_path)]) == EXIT_INPUT


def test_unknown_method_param_exits_2(tmp_path):
    code = run(
        ["front", *SYN, "--method", "tracer", "--param", "bogus=3", "--out", str(tmp_path)]
    )
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "argv, method_params, expected",
    [
        (["--method", "nbi", "--param", "divisions=2.9"], None, ConfigError),
        (["--method", "sp"], {"modified": "false"}, {"modified": False}),
        (["--method", "nbi"], {"divisions": True}, ConfigError),
    ],
    ids=["int-from-fraction", "bool-from-string", "int-from-bool"],
)
def test_method_params_are_coerced_strictly(tmp_path, argv, method_params, expected):
    argv = ["front", *SYN, *argv, "--out", str(tmp_path / "f")]
    if method_params is not None:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"method_params": method_params}), encoding="utf-8")
        argv += ["--config", str(cfg_file)]
    cfg = _build_config(build_parser().parse_args(argv))
    if expected is ConfigError:
        with pytest.raises(ConfigError):
            cfg.validate_method()
        assert run(argv) == EXIT_INPUT
    else:
        cfg.validate_method()
        assert cfg.method_params == expected


# per method: small parameters, the CSV columns after the statistics, and the
# metadata keys of front.json
METHOD_CASES = {
    "sf": (
        ["n_references=3"],
        ["reference_1", "reference_2", "reference_3", "delta", "mu_1", "mu_2", "mu_3"],
        {"n_references", "seed"},
    ),
    "msf": (
        ["n_references=3"],
        ["reference_1", "reference_2", "reference_3", "delta"]
        + ["lambda_1", "lambda_2", "lambda_3"],
        {"n_references", "seed"},
    ),
    "nbi": (
        ["divisions=2"],
        ["beta_1", "beta_2", "beta_3", "s", "lambda_1", "lambda_2", "lambda_3"],
        {"divisions", "missed_rays", "seed"},
    ),
    "sp": (
        ["divisions=2"],
        ["beta_1", "beta_2", "beta_3", "t", "lambda_1", "lambda_2", "lambda_3"],
        {"divisions", "missed_rays", "seed"},
    ),
    "epsilon": (
        ["n1=3", "n2=3", "rounds=0"],
        ["eps_1", "eps_2", "mu_1", "mu_2"],
        {"attempted", "failed", "infeasible", "seed", "skipped"},
    ),
    "pgp": (
        [],
        ["alpha", "beta", "d1", "d3", "scale", "lambda_1", "lambda_2", "lambda_3"],
        {"scale", "seed", "z_stars"},
    ),
    "tracer": (
        ["max_points=6", "n_starts=2"],
        ["t_star", "kkt_residual", "alpha_1", "alpha_2", "alpha_3"],
        {"max_points", "n_starts", "seed", "tau"},
    ),
    "utility": (["n_starts=2"], ["lambda", "value"], {"lambda", "seed"}),
    "utility_iterative": (["lambda_start=6"], ["lambda"], {"schedule", "seed"}),
}


@pytest.mark.parametrize("method", sorted(METHODS))
def test_every_method_writes_its_columns_and_reruns_identically(tmp_path, method):
    params, columns, metadata_keys = METHOD_CASES[method]
    args = ["front", *SYN, "--method", method]
    for item in params:
        args += ["--param", item]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run([*args, "--out", str(a)]) == EXIT_OK
    header = (a / "front.csv").read_text().splitlines()[0].split(",")
    assert header == ["w_1", "w_2", "w_3", "mean", "variance", "skewness"] + columns
    doc = json.loads((a / "front.json").read_text())
    assert doc["method"] == method
    assert len(doc["points"]) >= 1
    assert set(doc["metadata"]) == metadata_keys
    assert run([*args, "--out", str(b)]) == EXIT_OK
    assert _hash_tree(a) == _hash_tree(b)


def test_utility_iterative_reports_a_failed_qp(tmp_path, monkeypatch):
    real_qp = problem._mean_variance_qp

    def qp(p, lambda1, x0, mu=None):
        sol = real_qp(p, lambda1, x0, mu)
        if lambda1 == 4.0 ** 2 / 2.0:
            return dataclasses.replace(sol, status=nlp.SolveStatus.MAX_ITER)
        return sol

    monkeypatch.setattr(problem, "_mean_variance_qp", qp)
    out = tmp_path / "f"
    args = ["front", *SYN, "--method", "utility_iterative", "--param", "lambda_start=6"]
    assert run([*args, "--out", str(out)]) == EXIT_SOLVE
    doc = json.loads((out / "front.json").read_text())
    assert doc["partial"] is True
    assert doc["failures"] == ["utility_iterative at lambda=4.0: QP did not converge"]
    assert [pt["params"]["lambda"] for pt in doc["points"]] == [2.0, 6.0]


def test_front_tracer_outputs(tmp_path):
    out = tmp_path / "f"
    code = run(
        [
            "front",
            *SYN,
            "--method",
            "tracer",
            "--param",
            "max_points=12",
            "--param",
            "n_starts=2",
            "--seed",
            "3",
            "--out",
            str(out),
            "--gnuplot",
        ]
    )
    assert code == EXIT_OK
    front = read_front_csv(out / "front.csv")
    assert len(front.points) == 12
    means = [pt.mean for pt in front.points]
    assert means == sorted(means, reverse=True)
    doc = json.loads((out / "front.json").read_text())
    assert doc["partial"] is False
    assert doc["schema_version"] == "1"
    dat = (out / "front.dat").read_text().splitlines()
    assert dat[0].startswith("# mean variance skewness")
    assert len(dat) == 13


def test_front_epsilon_metadata(tmp_path):
    out = tmp_path / "f"
    code = run(
        [
            "front",
            *SYN,
            "--method",
            "epsilon",
            "--param",
            "n1=5",
            "--param",
            "n2=5",
            "--param",
            "rounds=0",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((out / "front.json").read_text())
    assert doc["metadata"]["attempted"] == 25


def test_quality_command(tmp_path):
    front_dir = tmp_path / "f"
    run(
        [
            "front",
            *SYN,
            "--method",
            "tracer",
            "--param",
            "max_points=10",
            "--param",
            "n_starts=2",
            "--out",
            str(front_dir),
        ]
    )
    out = tmp_path / "q"
    code = run(
        [
            "quality",
            *SYN,
            "--front",
            str(front_dir / "front.csv"),
            "--reference-n",
            "6",
            "6",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((out / "quality.json").read_text())
    for key in ("coverage_error", "uniformity", "cardinality", "dominated_count"):
        assert key in doc
    assert doc["cardinality"] >= 2
    reference = doc["reference"]
    assert set(reference) == {"method", "N", "attempted", "skipped"}
    assert reference["attempted"] == 36
    assert 0 < reference["skipped"] < 36


def test_quality_single_point_front_exits_5(tmp_path):
    front_dir = tmp_path / "f"
    run(
        [
            "front",
            *SYN,
            "--method",
            "utility",
            "--out",
            str(front_dir),
        ]
    )
    out = tmp_path / "q"
    code = run(
        [
            "quality",
            *SYN,
            "--front",
            str(front_dir / "front.csv"),
            "--reference-n",
            "4",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_MEASURE


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "method": "tracer",
                "synthetic": [3, 400, 28, 0.4],
                "method_params": {"max_points": 5, "n_starts": 2},
                "seed": 9,
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "f"
    code = run(["front", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads((out / "front.json").read_text())
    assert doc["seed"] == 9
    assert len(doc["points"]) == 5


def test_unknown_config_field_exits_2(tmp_path, capsys):
    # "input_path" and "output_dir" are not accepted in place of "input" and "out"
    for key, val in (("motive", "nope"), ("input_path", "r.csv"), ("output_dir", "o")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: val}), encoding="utf-8")
        assert run(["front", *SYN, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_INPUT
        assert "unknown config field %r" % key in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"method_params": [1]},
        {"synthetic": [3, 400]},
        {"objectives": 5},
        {"seed": "x"},
        {"workers": [2]},
        {"reference_n": [5]},
    ],
    ids=["method_params", "synthetic", "objectives", "seed", "workers", "reference_n"],
)
def test_mistyped_config_field_exits_2(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["front", *SYN, "--method", "sf", "--param", "n_references=1"]
    assert run([*argv, "--config", str(cfg), "--out", str(tmp_path / "f")]) == EXIT_INPUT
    assert "config field %r" % next(iter(doc)) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["front", "--synthetic", "3", "400", "28", "x"], None),
        (["front", "--synthetic", "3.5", "400", "28", "0.4"], None),
        (["front", "--synthetic", "3", "400", "-28", "0.4"], None),
        (["front", *SYN, "--seed", "-1"], None),
        (["quality", *SYN, "--reference-n", "2.5", "3"], None),
        (["front", *SYN], {"seed": -1}),
        (["front"], {"synthetic": [3, 400, -28, 0.4]}),
    ],
    ids=[
        "synthetic-level",
        "synthetic-n",
        "synthetic-seed",
        "seed",
        "reference-n",
        "config-seed",
        "config-synthetic-seed",
    ],
)
def test_malformed_number_exits_2(tmp_path, capsys, argv, doc):
    argv = [*argv, "--out", str(tmp_path / "f")]
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        argv += ["--config", str(cfg)]
    if argv[0] == "front":
        argv += ["--method", "sf", "--param", "n_references=1"]
    else:
        argv += ["--front", str(tmp_path / "front.csv")]
    assert run(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve ran before the parameter check")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "method, param",
    [
        ("utility_iterative", "lambda_step=0"),
        ("utility_iterative", "lambda_step=-1"),
        ("nbi", "divisions=0"),
        ("nbi", "divisions=-1"),
        ("sf", "n_references=-2"),
        ("tracer", "corrector_tol=-1"),
        ("epsilon", "rounds=-1"),
        ("epsilon", "k=0"),
        ("epsilon", "alpha=-1"),
        ("utility", "n_starts=0"),
        # the lambda schedule of each of these would never end
        ("utility_iterative", "lambda_start=inf"),
        ("utility_iterative", "lambda_start=1e300"),
        ("utility_iterative", "lambda_stop=-inf"),
        # finite, but 5e14 values; rejected before the schedule is built
        ("utility_iterative", "lambda_start=1e15"),
    ],
)
def test_out_of_range_method_param_exits_2(tmp_path, capsys, monkeypatch, method, param):
    monkeypatch.setattr(nlp, "solve", _no_solve)
    argv = ["front", *SYN, "--method", method, "--param", param, "--out", str(tmp_path / "f")]
    assert run(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Warning" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--objectives", "mean,variance"],
        ["verify", "--objectives", "mean,variance,kurtosis"],
        ["verify", "--objectives", "mean,variance,skewness,kurtosis"],
        ["front", "--method", "pgp", "--objectives", "mean,variance"],
    ],
    ids=["verify-mv", "verify-mvk", "verify-mvsk", "pgp-mv"],
)
def test_unsupported_objectives_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(nlp, "solve", _no_solve)
    out = tmp_path / "f"
    assert run([argv[0], *SYN, *argv[1:], "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_quality_front_without_an_objective_column_exits_2_before_any_solve(
    tmp_path, capsys, monkeypatch
):
    # a three-objective front has no kurtosis column
    front_dir = tmp_path / "f"
    params = ["--param", "max_points=10", "--param", "n_starts=2"]
    run(["front", *SYN, "--method", "tracer", *params, "--out", str(front_dir)])
    monkeypatch.setattr(nlp, "solve", _no_solve)
    out = tmp_path / "q"
    argv = ["quality", *SYN, "--objectives", "mean,skewness,kurtosis"]
    argv += ["--front", str(front_dir / "front.csv"), "--out", str(out)]
    assert run(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "kurtosis" in err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-4"])
def test_nonpositive_verify_samples_exit_2_before_any_solve(
    tmp_path, capsys, monkeypatch, samples
):
    monkeypatch.setattr(nlp, "solve", _no_solve)
    out = tmp_path / "v"
    assert run(["verify", *SYN, "--samples", samples, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: samples")
    assert not out.exists()


def test_verify_takes_its_objectives_in_any_order(tmp_path, monkeypatch):
    # the objective check passes, so the first solve is reached
    monkeypatch.setattr(nlp, "solve", _no_solve)
    argv = ["verify", *SYN, "--objectives", "skewness,mean,variance", "--out", str(tmp_path)]
    with pytest.raises(AssertionError, match="a solve ran"):
        run(argv)


def test_verify_reports_a_failing_identity(tmp_path, monkeypatch):
    real_msf = scalarization.solve_msf

    def shifted_msf(*args, **kwargs):
        # delta moves by 1e-3; value = -delta moves with it
        sol = real_msf(*args, **kwargs)
        return dataclasses.replace(sol, aux_value=sol.aux_value + 1e-3, value=sol.value - 1e-3)

    monkeypatch.setattr(scalarization, "solve_msf", shifted_msf)
    argv = ["verify", *SYN, "--samples", "3", "--seed", "5", "--out", str(tmp_path)]
    assert run(argv) == EXIT_VERIFY
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["all_pass"] is False
    failing = [c for c in doc["cases"] if c["status"] == "fail"]
    assert failing
    for case in failing:
        assert case["check"] == "nbi_vs_mapped_msf"
        assert case["delta_value"] == pytest.approx(1e-3, abs=1e-6)


@pytest.mark.parametrize(
    "params, cap, error",
    [
        (["lambda_start=6"], 3, None),  # 6, 4, 2
        (["lambda_start=8"], 3, "more than 3 values"),  # 8, 6, 4, 2
        # 7 values by count, but subtracting 1 stalls at 2**53 + 4, where
        # round-half-even returns the same float
        (
            ["lambda_start=9007199254740998", "lambda_stop=9007199254740992", "lambda_step=1"],
            10,
            "too small to change lambda",
        ),
    ],
)
def test_lambda_schedule_is_bounded(tmp_path, capsys, monkeypatch, params, cap, error):
    monkeypatch.setattr(cli, "_MAX_LAMBDA_SCHEDULE", cap)
    argv = ["front", *SYN, "--method", "utility_iterative", "--out", str(tmp_path / "f")]
    for item in params:
        argv += ["--param", item]
    if error is None:
        assert run(argv) == EXIT_OK
    else:
        assert run(argv) == EXIT_INPUT
        assert error in capsys.readouterr().err


@pytest.mark.parametrize(
    "params",
    [
        ["--method", "epsilon", "--param", "n1=3", "--param", "n2=3", "--param", "rounds=1"],
        ["--method", "tracer", "--param", "max_points=8", "--param", "n_starts=2"],
    ],
    ids=["epsilon", "tracer"],
)
def test_front_is_identical_for_one_and_two_workers(tmp_path, params):
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / ("w" + workers)
        assert run(["front", *SYN, *params, "--workers", workers, "--out", str(out)]) == EXIT_OK
        outputs.append(_hash_tree(out))
    assert outputs[0].keys() == {"front.csv", "front.json"}
    assert outputs[0] == outputs[1]


def _hash_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize(
    "args",
    [
        ["moments", *SYN],
        [
            "front",
            *SYN,
            "--method",
            "tracer",
            "--param",
            "max_points=8",
            "--param",
            "n_starts=2",
            "--seed",
            "5",
            "--gnuplot",
        ],
        [
            "front",
            *SYN,
            "--method",
            "epsilon",
            "--param",
            "n1=4",
            "--param",
            "n2=4",
            "--param",
            "rounds=1",
            "--seed",
            "5",
        ],
        ["verify", *SYN, "--samples", "3", "--seed", "5"],
    ],
)
def test_byte_identical_reruns(tmp_path, args):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run([*args, "--out", str(a)]) in (EXIT_OK,)
    assert run([*args, "--out", str(b)]) in (EXIT_OK,)
    ha, hb = _hash_tree(a), _hash_tree(b)
    assert ha.keys() == hb.keys()
    for name in ha:
        assert ha[name] == hb[name], "output %s differs between runs" % name
