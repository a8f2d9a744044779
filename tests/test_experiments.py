import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import fixed_code_corpus
from gibbscode import cli, exact, experiments, gexit, graphs
from gibbscode.channels import ChannelModel, sample_llr
from gibbscode.cli import main as cli_main
from gibbscode.clusters import dkp_pointwise_bound
from gibbscode.exact import make_instance, spin_product_correlation
from gibbscode.experiments import (EXPERIMENTS, PARAMS, DecayFit, ExperimentConfig,
                                   ExperimentResult, emit, fit_exponential, run_experiment)
from gibbscode.graphs import (DegreeDistribution, build_graph, load_graph, sample_ensemble,
                              save_graph, LDGM)


def test_fit_exponential_exact():
    pts = [(d, 3.0 * math.exp(-d / 2.0), 1e-6) for d in range(1, 6)]
    fit = fit_exponential(pts)
    assert fit.xi == pytest.approx(2.0, abs=1e-9)
    assert fit.c1 == pytest.approx(3.0, rel=1e-9)
    assert fit.r <= -0.999999


def test_fit_exponential_flat_flags_infinity():
    pts = [(d, 0.5, 0.01) for d in range(1, 6)]
    fit = fit_exponential(pts)
    assert math.isinf(fit.xi) and fit.slope >= 0


def test_fit_exponential_noisy_recovery():
    rng = np.random.default_rng(0)
    xi_true = 1.7
    pts = [(d, 2.0 * math.exp(-d / xi_true) * (1 + 0.01 * rng.standard_normal()),
            0.02 * math.exp(-d / xi_true)) for d in range(1, 8)]
    fit = fit_exponential(pts)
    assert abs(fit.xi - xi_true) / xi_true < 0.05


def test_fit_exponential_needs_three_bins():
    with pytest.raises(ValueError):
        fit_exponential([(1, 0.5, 0.01), (2, 1e-15, 0.01), (3, 1e-14, 0.01)])


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.from_json({"experiment": "nope", "channel": "bsc:0.1",
                                    "seed": 1})
    with pytest.raises(KeyError):
        ExperimentConfig.from_json({"experiment": "bounds", "channel": "bsc:0.1"})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json({"experiment": "bounds", "channel": "bsc:0.9",
                                    "seed": 1})


CORR_CFG = {
    "experiment": "corr-decay",
    "code": {"type": "ensemble", "family": "ldgm", "var_degree": 3,
             "chk_degree": 2, "n": 15},
    "channel": "bsc:0.45",
    "eps_grid": [0.44, 0.46],
    "samples": 600,
    "seed": 7,
    "params": {"graphs": 3},
}


def test_corr_decay_rows_and_fit():
    res = run_experiment(ExperimentConfig.from_json(CORR_CFG))
    assert {r["eps"] for r in res.rows} == {0.44, 0.46}
    for fit in res.summary["fits"].values():
        assert fit["r"] < -0.9
    row = res.rows[0]
    assert set(row) == {"eps", "distance", "mean_abs_corr", "std_err", "n_samples"}


def test_determinism_and_emit(tmp_path):
    cfg = ExperimentConfig.from_json(CORR_CFG)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(r1, "csv", p1)
    emit(r2, "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == \
        "eps,distance,mean_abs_corr,std_err,n_samples"
    emit(r1, "json", tmp_path / "a.json")
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["config"]["seed"] == 7
    assert len(doc["content_hash"]) == 64
    with pytest.raises(ValueError):
        emit(r1, "parquet", tmp_path / "x")


def test_cli_rejects_threads(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CORR_CFG))
    with pytest.raises(SystemExit) as exc:
        cli_main(["corr-decay", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                  "--threads", "2"])
    assert exc.value.code == 2


def test_cli_help_lists_every_experiment_and_rejects_unknown_ones(tmp_path, capsys):
    """One parser serves every experiment: --help names all seven and
    exits 0, and an experiment it does not know exits 2 before any
    config is read."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert len(EXPERIMENTS) == 7
    for name in EXPERIMENTS:
        assert name in usage
    with pytest.raises(SystemExit) as exc:
        cli_main(["no-such-experiment", "--config", str(tmp_path / "missing.json"),
                  "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-experiment'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_rejected_config_exits_2_with_one_line(tmp_path, capsys):
    """A config that fails validation is not a failed check: one line on
    stderr, exit code 2 (argparse's code for bad arguments) and no output;
    a missing mandatory key and malformed JSON are rejected the same way,
    and so are a negative seed (numpy's seeding rejects it mid-run) and
    values of the wrong JSON type, which are neither truncated
    (a fractional seed, sample count, depth or count, a bool seed) nor
    left to end in a traceback (a top-level array, a code or params that
    is not an object, a channel that is not a string, a bad eps grid,
    malformed ensemble fields, degrees that do not balance at n, a
    degree above the node count of the other side, an
    eps_step that is not a positive number (whatever the methods) or that
    leaves (0, eps_max) under entropy-fd, a param the experiment does not
    read, an eps_grid where the channel alone is read or where the codes
    and LLRs come from the seed alone (duality-check, berretti-check),
    the magnetization route off the BIAWGNC, a fixed code that does not
    build or whose file cannot be read or holds a malformed header, edge
    line or number (the message names the file, the line and its form),
    an unknown family, methods that
    are not a list of names or none at all, an H that is not a number,
    one sample where a standard error is estimated, limits depths at or
    above the reference, an exact table that must exceed the brute-force
    cap, duality-check draws whose table may exceed it)."""
    one_check = {"type": "edges", "family": "ldgm", "n_var": 2, "n_chk": 1,
                 "edges": [[0, 0], [1, 0]]}
    base = {"code": one_check, "channel": "bsc:0.3", "samples": 4, "seed": 1}
    ensemble = {"type": "ensemble", "family": "ldgm", "var_degree": 3, "chk_degree": 2,
                "n": 9}
    irregular = {"type": "ensemble", "family": "ldgm", "var_coeffs": {"2": 0.5, "3": 0.5},
                 "chk_coeffs": {"2": 1.0}, "n": 10}
    two_checks = {"type": "edges", "family": "ldpc", "n_var": 30, "n_chk": 2,
                  "edges": [[v, v // 15] for v in range(30)]}
    ldpc36 = {"type": "ensemble", "family": "ldpc", "var_degree": 3, "chk_degree": 6, "n": 60}
    identity = {"type": "edges", "family": "ldgm", "n_var": 26, "n_chk": 26,
                "edges": [[v, v] for v in range(26)]}
    bad_header, bad_edge, non_integer = (tmp_path / f"code{k}.txt" for k in range(3))
    bad_header.write_text("ldpc 3\n")
    bad_edge.write_text("ldpc 3 2\n0 0\n1 0 1\n")
    non_integer.write_text("ldpc 3 2\n0 x\n1 0\n")
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "o"
    for experiment, text, message in (
            ("bounds", json.dumps(base),
             "gibbscode: invalid config: bounds draws two distinct checks; "
             "the code needs >= 2"),
            ("bounds", json.dumps({"code": one_check, "channel": "bsc:0.3", "samples": 4}),
             "gibbscode: invalid config: missing key 'seed'"),
            ("bounds", "{", "gibbscode: invalid config: Expecting property name"),
            *((experiment, json.dumps(doc), f"gibbscode: invalid config: {line}\n")
              for experiment, doc, line in (
                ("bounds", {**base, "seed": 5.5, "samples": 5.7},
                 "seed must be an integer, not 5.5"),
                ("bounds", {**base, "samples": 5.7}, "samples must be an integer, not 5.7"),
                ("bounds", {**base, "seed": True}, "seed must be an integer, not True"),
                ("gexit-curve", {**base, "seed": -1}, "seed must be >= 0, not -1"),
                ("bounds", [1, 2], "a config must be a JSON object, not list"),
                ("bounds", {**base, "code": 5}, "code must be a JSON object, not int"),
                ("bounds", {**base, "params": [[1, 2]]},
                 "params must be a JSON object, not list"),
                ("bounds", {**base, "channel": 5},
                 "channel must be a spec such as 'bsc:0.25', not 5"),
                ("bounds", {**base, "eps_grid": 0.2}, "eps_grid must be a list, not float"),
                ("bounds", {**base, "eps_grid": ["a"]},
                 "eps_grid must hold numbers, not ['a']"),
                ("bounds", {**base, "eps_grid": [0.2, 0.7]}, "eps=0.7 outside (0, 0.5)"),
                ("gexit-curve", {**base, "params": {"methods": ["bp"], "d": 2.7}},
                 "d must be an integer, not 2.7"),
                ("gexit-curve", {**base, "params": {"methods": ["series"], "p_max": 2.5}},
                 "p_max must be an integer, not 2.5"),
                ("gexit-curve", {**base, "params": {"methods": ["entropy-fd"], "eps_step": 0}},
                 "eps_step must be a number > 0, not 0"),
                ("gexit-curve", {**base, "params": {"methods": ["entropy-fd"], "eps_step": "x"}},
                 "eps_step must be a number > 0, not 'x'"),
                ("gexit-curve", {**base, "params": {"methods": ["functional"], "eps_step": "x"}},
                 "eps_step must be a number > 0, not 'x'"),
                ("gexit-curve", {**base, "params": {"methods": ["functional"], "eps_step": None}},
                 "eps_step must be a number > 0, not None"),
                ("de-curve", {**base, "code": ensemble, "params": {"n-pop": 10}},
                 "unknown de-curve param(s) ['n-pop']; known: ['d', 'n_pop']"),
                ("corr-decay", {**base, "params": {"d": 4, "graphs": 2}},
                 "unknown corr-decay param(s) ['d']; known: ['graphs']"),
                ("limits", {**base, "eps_grid": [0.1, 0.2]},
                 "limits reads the channel alone, not eps_grid"),
                ("duality-check", {**base, "eps_grid": [0.3]},
                 "duality-check draws its codes and LLRs from the seed, not from the channel "
                 "or eps_grid"),
                ("berretti-check", {**base, "eps_grid": [0.3]},
                 "berretti-check draws its codes and LLRs from the seed, not from the channel "
                 "or eps_grid"),
                ("gexit-curve", {**base, "eps_grid": [0.1, 0.3],
                                 "params": {"methods": ["entropy-fd"], "eps_step": 0.25}},
                 "entropy-fd needs eps +- eps_step inside (0, 0.5); eps_step 0.25 leaves it "
                 "at eps [0.1, 0.3]"),
                ("gexit-curve", {**base, "params": {"methods": ["awgn-magnetization"]}},
                 "the awgn-magnetization method needs a biawgnc channel"),
                ("de-curve", {**base, "code": ensemble, "params": {"n_pop": True}},
                 "n_pop must be an integer, not True"),
                ("bounds", {**base, "code": ensemble, "params": {"graphs": 2.0}},
                 "graphs must be an integer, not 2.0"),
                ("limits", {**base, "params": {"d_primes": [2, 4.5]}},
                 "d_primes must be a list of integers, not [2, 4.5]"),
                ("limits", {**base, "params": {"d_refs": 100}},
                 "d_refs must be a list of integers, not 100"),
                ("corr-decay", {**base, "code": {**ensemble, "var_degree": "x"}},
                 "var_degree must be an integer, not 'x'"),
                ("corr-decay", {**base, "code": {**ensemble, "chk_degree": 2.5}},
                 "chk_degree must be an integer, not 2.5"),
                ("corr-decay", {**base, "code": {**ensemble, "n": [6]}},
                 "n must be an integer, not [6]"),
                ("corr-decay", {**base, "code": {**ensemble, "n": True}},
                 "n must be an integer, not True"),
                ("corr-decay", {**base, "code": {**ensemble, "n": 7}},
                 "mean degrees (3, 2) do not balance at n=7"),
                ("gexit-curve", {**base, "code": {**ensemble, "family": "ldpc", "var_degree": 4,
                                                  "chk_degree": 4, "n": 3}},
                 "variable degree 4 exceeds the 3 checks of an ensemble graph at n=3"),
                ("corr-decay", {**base, "code": {**irregular, "var_coeffs": {"3": 1.0},
                                                 "chk_coeffs": {"2": 0.5, "4": 0.5}, "n": 3}},
                 "check degree 4 exceeds the 3 variables of an ensemble graph at n=3"),
                ("corr-decay", {**base, "code": {**irregular, "var_coeffs": [2, 3]}},
                 "var_coeffs must map degrees to probabilities, not [2, 3]"),
                ("corr-decay", {**base, "code": {**irregular, "var_coeffs": {"x": 1.0}}},
                 "a var_coeffs degree must be an integer, not 'x'"),
                ("corr-decay", {**base, "code": {**irregular, "chk_coeffs": {"2": "1"}}},
                 "chk_coeffs probabilities must be finite numbers, not '1'"),
                ("de-curve", {**base, "code": {**irregular, "chk_coeffs": {"2": 0.5}}},
                 "chk coefficients must be a probability vector"),
                ("gexit-curve", {**base, "code": {**one_check, "edges": [[0, 0], [2, 0]]}},
                 "edge (2,0) out of range"),
                ("gexit-curve", {**base, "code": {**one_check, "edges": [[0, 0], [0, 0]]}},
                 "duplicate edge (0,0)"),
                ("gexit-curve", {**base, "code": {**one_check, "edges": [[0, 0], [0.5, 0]]}},
                 "edges must be a list of [variable, check] integer pairs, "
                 "not [[0, 0], [0.5, 0]]"),
                ("corr-decay", {**base, "code": {**one_check, "n_var": 2.0}},
                 "n_var must be an integer, not 2.0"),
                ("gexit-curve", {**base, "code": {**one_check, "family": "ldxx"}},
                 "unknown code family 'ldxx'; known: ['ldgm', 'ldpc']"),
                ("de-curve", {**base, "code": {**ensemble, "family": "ldxx"}},
                 "unknown code family 'ldxx'; known: ['ldgm', 'ldpc']"),
                ("gexit-curve", {**base, "code": {"type": "file", "path": str(tmp_path / "no")}},
                 f"cannot read code file {str(tmp_path / 'no')!r}: No such file or directory"),
                ("limits", {**base, "code": {"type": "file", "path": 5}},
                 "path must be a file name, not 5"),
                *(("gexit-curve", {**base, "code": {"type": "file", "path": str(path)}},
                   f"code file {str(path)!r} line {line}: expected '{form}', not {text!r}")
                  for path, line, form, text in (
                      (bad_header, 1, "kind n_var n_chk", "ldpc 3"),
                      (bad_edge, 3, "v c", "1 0 1"),
                      (non_integer, 2, "v c", "0 x"))),
                ("gexit-curve", {**base, "params": {"methods": 5}},
                 "methods must be a list of method names, not 5"),
                ("gexit-curve", {**base, "params": {"methods": "functional"}},
                 "methods must be a list of method names, not 'functional'"),
                ("gexit-curve", {**base, "params": {"methods": []}},
                 "gexit-curve needs at least one method in methods"),
                ("gexit-curve", {**base, "code": two_checks},
                 "support dimension 28 (codeword dimension n - rank H) exceeds cap 24"),
                ("corr-decay", {**base, "code": two_checks},
                 "support dimension 28 (codeword dimension n - rank H) exceeds cap 24"),
                ("corr-decay", {**base, "code": ldpc36},
                 "support dimension 30 (codeword dimension n - rank H) exceeds cap 24"),
                ("gexit-curve", {**base, "code": {**ldpc36, "n": 64},
                                 "params": {"methods": ["bp", "entropy-fd"]}},
                 "support dimension 32 (codeword dimension n - rank H) exceeds cap 24"),
                ("bounds", {**base, "code": identity},
                 "support dimension 26 (rank G) exceeds cap 24"),
                ("duality-check", {**base, "params": {"n_max": 30}},
                 "duality-check draws LDPC codes of up to n_max = 30 bits and as few as one "
                 "check: support dimension 29 (codeword dimension n - rank H) exceeds cap 24"),
                ("bounds", {**base, "code": ensemble, "params": {"H": None}},
                 "H must be a number, not None"),
                ("bounds", {**base, "code": ensemble, "params": {"H": [1]}},
                 "H must be a number, not [1]"),
                ("gexit-curve", {**base, "samples": 1},
                 "gexit-curve methods ['functional'] estimate a standard error over the "
                 "samples; need samples >= 2"),
                ("gexit-curve", {**base, "code": ensemble, "samples": 1,
                                 "params": {"methods": ["de", "bp"]}},
                 "gexit-curve methods ['bp'] estimate a standard error over the samples; "
                 "need samples >= 2"),
                ("limits", {**base, "samples": 1},
                 "limits estimates standard errors over the samples; needs samples >= 2"),
                ("limits", {**base, "params": {"d_refs": [5, 6]}},
                 "limits compares d_primes [2, 4, 6] and the smallest of d_refs with the "
                 "largest reference depth 6; each must be smaller"),
                ("limits", {**base, "params": {"d_refs": [50, 50]}},
                 "limits compares d_primes [2, 4, 6] and the smallest of d_refs with the "
                 "largest reference depth 50; each must be smaller")))):
        cfg_path.write_text(text)
        assert cli_main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(message), \
            (experiment, captured.err)
        assert not out.exists()


def test_cli_cap_hit_at_run_time_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    """A run that hits a cap is not a failed check either: one line on
    stderr, exit code 2 and no output written, for each of the three cap
    errors (under small caps: an LDGM draw's rank G over the brute-force
    cap, the walks of bounds over the walk cap; at the default retry cap,
    a draw of a (5,6) LDGM or (6,5) LDPC ensemble at n = 5, whose only
    simple graph is complete, that runs out its parallel-edge repair
    rounds; no experiment builds a computational tree, so a run that
    raises its cap error stands in for one).  Other errors are not
    caught."""
    ensemble = {"type": "ensemble", "family": "ldgm", "var_degree": 3, "chk_degree": 2,
                "n": 9}
    base = {"code": ensemble, "channel": "bsc:0.3", "samples": 4, "seed": 1}
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "o"
    run = cli.run_experiment

    def raising(err):
        def run_experiment(cfg):
            raise err
        return run_experiment

    for experiment, doc, patch, message in (
            ("gexit-curve", {**base, "params": {"methods": ["functional"]}},
             (exact, "BRUTE_FORCE_CAP", 2), "support dimension 5 (rank G) exceeds cap 2"),
            *(("limits", {**base, "code": {"type": "ensemble", "family": family,
                                           "var_degree": dv, "chk_degree": dc, "n": 5},
                          "samples": 2, "seed": seed},
               (graphs, "ENSEMBLE_RETRY_CAP", 1000),
               f"could not avoid parallel edges in 1000 repair rounds of a graph of {sizes}")
              for family, dv, dc, seed, sizes in (
                ("ldgm", 5, 6, 201, "6 variables and 5 checks"),
                ("ldpc", 6, 5, 240, "5 variables and 6 checks"))),
            ("bounds", base, (graphs, "SAW_ENUM_CAP", 1), "more than 1 walks"),
            ("bounds", base, (cli, "run_experiment", raising(graphs.NodeCapExceeded("tree"))),
             "tree")):
        cfg_path.write_text(json.dumps(doc))
        with monkeypatch.context() as m:
            m.setattr(*patch)
            assert cli_main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gibbscode: cap exceeded: {message}\n"
        assert not out.exists()
    assert cli.run_experiment is run
    monkeypatch.setattr(cli, "run_experiment", raising(ValueError("not a cap")))
    with pytest.raises(ValueError, match="not a cap"):
        cli_main(["bounds", "--config", str(cfg_path), "--out", str(out)])


def test_cli_long_ldpc_code_of_small_dimension(tmp_path, capsys):
    """No word width limits an LDPC code: a 70-bit chain code (every bit
    equal, dimension 1) runs the MAP functional and series routes and BP
    through the CLI.  Each extrinsic is tanh of the sum of the other 69
    LLRs; at eps 0.1 that sum is far above 20 in every draw, the
    extrinsics round to 1 and the MAP routes read exactly 0."""
    edges = [[c + d, c] for c in range(69) for d in (0, 1)]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "code": {"type": "edges", "family": "ldpc", "n_var": 70, "n_chk": 69, "edges": edges},
        "channel": "bsc:0.1", "eps_grid": [0.1, 0.3], "samples": 20, "seed": 1,
        "params": {"methods": ["functional", "series", "bp"], "d": 4}}))
    out = tmp_path / "o"
    assert cli_main(["gexit-curve", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "gexit-curve: wrote 6 rows\n"
    rows = json.loads((out / "gexit-curve.json").read_text())["rows"]
    assert [(r["eps"], r["method"]) for r in rows] == [
        (eps, m) for eps in (0.1, 0.3) for m in ("functional", "series", "bp")]
    assert all(r["n"] == 70 and math.isfinite(r["value"]) for r in rows)
    assert [r["value"] for r in rows[:2]] == [0.0, 0.0]


def test_cli_unreadable_config_exits_2_with_one_line(tmp_path, capsys):
    """A config file that cannot be opened is an invalid config too: one
    line on stderr naming the file, exit code 2 and no output."""
    out = tmp_path / "o"
    for path, reason in ((tmp_path / "nope.json", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        assert cli_main(["gexit-curve", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"gibbscode: invalid config: cannot read config file "
                                f"{str(path)!r}: {reason}\n")
        assert not out.exists()


def test_file_code_is_read_once_per_run(tmp_path, monkeypatch):
    """Validation builds the code and the run reads what it built, so a
    file code is read once per run_experiment, in every experiment that
    reads the code."""
    g = build_graph(4, 6, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2),
                           (3, 3), (0, 3), (0, 4), (2, 5)], LDGM)
    path = tmp_path / "code.txt"
    save_graph(g, path)
    reads = []
    monkeypatch.setattr(experiments, "load_graph", lambda p: reads.append(p) or load_graph(p))
    for experiment, params in (("corr-decay", {}), ("gexit-curve", {"methods": ["bp"]}),
                               ("bounds", {"graphs": 2}), ("limits", {"d_refs": [20]})):
        del reads[:]
        run_experiment(ExperimentConfig.from_json({
            "experiment": experiment, "code": {"type": "file", "path": str(path)},
            "channel": "bsc:0.3", "samples": 8, "seed": 1, "params": params}))
        assert reads == [str(path)], experiment


#: the content hashes of two configs, one without params: the hash covers
#: the config as given, and no default enters it
CONTENT_HASHES = (
    (CORR_CFG, "900ad4de70fbb8320e3608b7cf7240f268a5934d32b1c468f25500c28dfea239"),
    ({"experiment": "duality-check", "code": {}, "channel": "bsc:0.3", "samples": 10,
      "seed": 5}, "07bfa91542979055ea51637499ecb88970c6e3b5043a8ae75ab76949de54153d"),
)


def test_content_hash_covers_the_config_as_given(tmp_path):
    for doc, digest in CONTENT_HASHES:
        cfg = ExperimentConfig.from_json(doc)
        assert cfg.as_dict()["params"] == doc.get("params", {})
        emit(ExperimentResult(cfg, [], {}), "json", tmp_path / "a.json")
        assert json.loads((tmp_path / "a.json").read_text())["content_hash"] == digest


def test_readme_params_table_is_experiments_params():
    """README's table of params and defaults lists experiments.PARAMS, in
    its order and with its JSON types."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| experiment | param | default | what it sets |\n")[1]
    listed = {}
    for line in table.split("\n\n")[0].splitlines()[1:]:
        experiment, param, default = (cell.strip().strip("`") for cell in line.split("|")[1:4])
        listed.setdefault(experiment, {})
        if param != "none":
            listed[experiment][param] = json.loads(default)
    assert json.dumps(listed) == json.dumps(PARAMS)


def test_table_cap_checked_only_where_tables_are_built():
    """The brute-force cap is checked at validation only where exact
    tables are built: BP-only gexit-curve runs on a 70-bit LDPC code and
    on a (3,6) LDPC ensemble past the cap, and an LDGM ensemble, whose
    rank G is known only per draw, is left to run time."""
    ldpc70 = {"type": "edges", "family": "ldpc", "n_var": 70, "n_chk": 35,
              "edges": [[v, v // 2] for v in range(70)]}
    ldpc36 = {"type": "ensemble", "family": "ldpc", "var_degree": 3, "chk_degree": 6,
              "n": 60}
    ldgm = {"type": "ensemble", "family": "ldgm", "var_degree": 3, "chk_degree": 2, "n": 60}
    for experiment, code, methods in (("gexit-curve", ldpc70, ["bp"]),
                                      ("gexit-curve", ldpc36, ["bp", "de"]),
                                      ("gexit-curve", ldgm, ["functional"]),
                                      ("corr-decay", ldgm, None)):
        ExperimentConfig.from_json({"experiment": experiment, "code": code,
                                    "channel": "bsc:0.3", "samples": 4, "seed": 1,
                                    "params": {"methods": methods} if methods else {}})


def test_ensemble_fields_validated_only_where_read():
    """de-curve reads only the degree distribution, so its n is free (the
    DE tests pass n = 0); the two check suites ignore the code."""
    de = {"family": "ldpc", "var_degree": 3, "chk_degree": 6, "n": 0}
    assert ExperimentConfig.from_json({"experiment": "de-curve", "code": de,
                                       "channel": "bsc:0.05", "seed": 2}).code["n"] == 0
    with pytest.raises(ValueError, match="n >= 1"):
        ExperimentConfig.from_json({"experiment": "gexit-curve", "code": de,
                                    "channel": "bsc:0.05", "seed": 2})
    for exp in ("duality-check", "berretti-check"):
        ExperimentConfig.from_json({"experiment": exp, "code": {"n": 7},
                                    "channel": "bsc:0.3", "seed": 2})


def test_density_evolution_needs_ensemble_code():
    edges = {"type": "edges", "family": "ldpc", "n_var": 3, "n_chk": 2,
             "edges": [[0, 0], [1, 0], [1, 1], [2, 1]]}
    for exp, params in (("gexit-curve", {"methods": ["functional", "de"]}),
                        ("de-curve", {})):
        for code in (edges, {"type": "file", "family": "ldpc", "path": "code.txt"}):
            with pytest.raises(ValueError, match="ensemble code"):
                ExperimentConfig.from_json({"experiment": exp, "code": code,
                                            "channel": "bsc:0.3", "seed": 1,
                                            "params": params})


BOUNDS_CODE = {"type": "ensemble", "family": "ldgm", "var_degree": 3, "chk_degree": 2, "n": 9}


def _config(experiment, code=BOUNDS_CODE, **params):
    return ExperimentConfig.from_json({"experiment": experiment, "code": code,
                                       "channel": "bsc:0.45", "samples": 40, "seed": 1,
                                       "params": params})


def test_bounds_rejects_ldpc_codes(tmp_path):
    ldpc = {"type": "ensemble", "family": "ldpc", "var_degree": 3, "chk_degree": 6, "n": 12}
    path = tmp_path / "code.txt"
    save_graph(build_graph(3, 1, [(0, 0), (1, 0), (2, 0)], "ldpc"), path)
    for code in (ldpc, {"type": "file", "path": str(path)}):
        with pytest.raises(ValueError, match="LDGM codes only"):
            _config("bounds", code)


def test_bounds_and_corr_decay_need_graphs():
    for exp in ("bounds", "corr-decay"):
        with pytest.raises(ValueError, match="graphs >= 1"):
            _config(exp, graphs=0)


def test_bounds_needs_positive_threshold():
    for H in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="H > 0"):
            _config("bounds", H=H)
    assert _config("bounds", H=0.1).params["H"] == 0.1


def test_negative_depths_rejected():
    for exp, params in (("gexit-curve", {"methods": ["bp"], "d": -4}),
                        ("limits", {"d_primes": [-2, 4]}),
                        ("limits", {"d_refs": [100, -200]})):
        with pytest.raises(ValueError, match="must be >= 0"):
            _config(exp, **params)
    assert _config("gexit-curve", methods=["bp"], d=0).params["d"] == 0


def test_density_evolution_needs_a_positive_depth():
    ldpc = {"type": "ensemble", "family": "ldpc", "var_degree": 3, "chk_degree": 6, "n": 12}
    for exp, params in (("gexit-curve", {"methods": ["de"], "d": 0}), ("de-curve", {"d": 0})):
        with pytest.raises(ValueError, match="d >= 1"):
            _config(exp, ldpc, **params)


def test_gexit_curve_rejects_unknown_methods():
    with pytest.raises(ValueError, match=r"unknown gexit-curve method\(s\) \['nope'\]"):
        _config("gexit-curve", methods=["functional", "nope"])


def test_series_needs_a_positive_p_max():
    for p_max in (0, -3):
        with pytest.raises(ValueError, match="p_max >= 1"):
            _config("gexit-curve", methods=["functional", "series"], p_max=p_max)
    assert _config("gexit-curve", methods=["functional"], p_max=0).params["p_max"] == 0


def test_density_evolution_needs_a_population():
    ldpc = {"type": "ensemble", "family": "ldpc", "var_degree": 3, "chk_degree": 6, "n": 12}
    for exp, params in (("gexit-curve", {"methods": ["de"], "n_pop": 0}),
                        ("de-curve", {"n_pop": 0})):
        with pytest.raises(ValueError, match="n_pop >= 1"):
            _config(exp, ldpc, **params)


def test_limits_needs_a_reference_depth():
    with pytest.raises(ValueError, match="reference depth in d_refs"):
        _config("limits", d_refs=[])


def test_limits_needs_two_compared_depths():
    for d_primes in ([], [2]):
        with pytest.raises(ValueError, match="two depths in d_primes"):
            _config("limits", d_primes=d_primes)
    assert _config("limits", d_primes=[2, 4], d_refs=[50]).params["d_refs"] == [50]


def test_bounds_needs_two_checks():
    one_check = {"type": "edges", "family": "ldgm", "n_var": 2, "n_chk": 1,
                 "edges": [[0, 0], [1, 0]]}
    for code in (one_check, dict(BOUNDS_CODE, n=1)):
        with pytest.raises(ValueError, match="the code needs >= 2"):
            _config("bounds", code)


def test_gexit_curve_schema():
    cfg = ExperimentConfig.from_json({
        "experiment": "gexit-curve",
        "code": {"type": "edges", "family": "ldpc", "n_var": 3, "n_chk": 2,
                 "edges": [[0, 0], [1, 0], [1, 1], [2, 1]]},
        "channel": "bsc:0.3", "eps_grid": [0.2, 0.3], "samples": 200, "seed": 1,
        "params": {"methods": ["functional", "series", "bp"], "d": 4}})
    res = run_experiment(cfg)
    assert len(res.rows) == 6
    assert {r["method"] for r in res.rows} == {"functional", "series", "bp"}


def test_gexit_curve_finite_at_low_biawgnc_noise():
    """At BIAWGNC eps 0.01 to 0.25 the kernel's window reaches where tanh
    rounds to -1; the functional and BP rows stay finite (a RuntimeWarning
    fails the suite)."""
    cfg = ExperimentConfig.from_json({
        "experiment": "gexit-curve",
        "code": {"type": "edges", "family": "ldpc", "n_var": 3, "n_chk": 2,
                 "edges": [[0, 0], [1, 0], [1, 1], [2, 1]]},
        "channel": "biawgnc:0.1", "eps_grid": [0.01, 0.1, 0.25], "samples": 20, "seed": 3,
        "params": {"methods": ["functional", "bp"], "d": 4}})
    rows = run_experiment(cfg).rows
    assert len(rows) == 6
    assert all(math.isfinite(r["value"]) and math.isfinite(r["std_err"]) for r in rows)


@pytest.mark.parametrize("code", [
    {"type": "ensemble", "family": "ldgm", "var_degree": 3, "chk_degree": 2, "n": 9},
    {"type": "edges", "family": "ldpc", "n_var": 5, "n_chk": 3,
     "edges": [[0, 0], [1, 0], [2, 0], [2, 1], [3, 1], [3, 2], [4, 2], [0, 2]]},
], ids=["ensemble", "fixed"])
def test_map_methods_share_one_pass(code):
    """The exact-posterior routes (functional, series and entropy-fd on a
    BSC, functional and awgn-magnetization on the BIAWGNC) come from one
    pass per point; the rows equal, bit for bit, those of the
    single-method configs, in the config's method order."""
    for channel, grid, methods in (
            ("bsc:0.3", [0.2, 0.4], ["series", "entropy-fd", "functional"]),
            ("biawgnc:0.8", [0.5, 0.8], ["awgn-magnetization", "functional"])):
        def rows(methods):
            return run_experiment(ExperimentConfig.from_json({
                "experiment": "gexit-curve", "code": code, "channel": channel,
                "eps_grid": grid, "samples": 40, "seed": 6,
                "params": {"methods": methods, "p_max": 8}})).rows

        singles = [rows([m]) for m in methods]
        assert rows(methods) == [row for point in zip(*singles) for row in point]


def test_gexit_curve_walks_the_samples_once_per_point(monkeypatch):
    """A gexit-curve point walks the samples (gexit._draws) once for all
    of its exact-posterior routes and once for BP.  The ten configs of
    the benchmark's fixed-gexit workload (functional, series, entropy-fd
    and bp on a BSC at three eps, functional, awgn-magnetization and bp
    on the BIAWGNC at one, on each corpus code) make 40 walks."""
    walks = []
    draws = gexit._draws

    def counted(*args):
        walks.append(args[1].kind)
        return draws(*args)

    monkeypatch.setattr(gexit, "_draws", counted)

    def run(g, channel, grid, methods, samples):
        code = {"type": "edges", "family": g.kind, "n_var": g.n_var, "n_chk": g.n_chk,
                "edges": [list(e) for e in g.edges()]}
        run_experiment(ExperimentConfig.from_json({
            "experiment": "gexit-curve", "code": code, "channel": channel, "eps_grid": grid,
            "samples": samples, "seed": 11, "params": {"methods": methods, "d": 20}}))

    corpus = fixed_code_corpus()
    ldpc5 = dict(corpus)["ldpc-5"]
    run(ldpc5, "bsc:0.3", [0.3], ["functional", "series", "entropy-fd"], 20)
    run(ldpc5, "biawgnc:0.8", [0.8], ["functional", "awgn-magnetization"], 20)
    assert walks == ["bsc", "biawgnc"]
    walks.clear()
    for _, g in corpus:
        run(g, "bsc:0.3", [0.2, 0.3, 0.4], ["functional", "series", "entropy-fd", "bp"], 150)
        run(g, "biawgnc:0.8", [], ["functional", "awgn-magnetization", "bp"], 20)
    assert len(walks) == 40


def test_de_curve():
    cfg = ExperimentConfig.from_json({
        "experiment": "de-curve",
        "code": {"family": "ldpc", "var_degree": 3, "chk_degree": 6, "n": 0},
        "channel": "bsc:0.05", "eps_grid": [0.03, 0.05], "samples": 1, "seed": 2,
        "params": {"d": 4, "n_pop": 20000}})
    res = run_experiment(cfg)
    assert len(res.rows) == 2 and all(r["method"] == "de" for r in res.rows)


def test_de_curve_is_gexit_curves_de_route(tmp_path):
    """de-curve and gexit-curve with methods ["de"] on the same ensemble,
    seed, eps_grid, d and n_pop write byte-identical CSVs: a DE row's
    samples is the population in both, beside a MAP row's noise samples."""
    base = {"code": {"family": "ldpc", "var_degree": 3, "chk_degree": 6, "n": 12},
            "channel": "bsc:0.1", "eps_grid": [0.08, 0.12], "samples": 30, "seed": 4}
    de_params = {"d": 3, "n_pop": 2000}
    csvs = []
    for exp, params in (("de-curve", de_params),
                        ("gexit-curve", {**de_params, "methods": ["de"]})):
        cfg_path = tmp_path / f"{exp}.json"
        cfg_path.write_text(json.dumps({**base, "params": params}))
        assert cli_main([exp, "--config", str(cfg_path), "--out", str(tmp_path / exp)]) == 0
        csvs.append((tmp_path / exp / f"{exp}.csv").read_bytes())
    assert csvs[0] == csvs[1]
    res = run_experiment(ExperimentConfig.from_json({
        **base, "experiment": "gexit-curve",
        "params": {**de_params, "methods": ["functional", "de"]}}))
    assert [(r["method"], r["samples"]) for r in res.rows] == \
        [("functional", 30), ("de", 2000)] * 2


def test_check_suites_draw_the_acceptance_corpora():
    """duality-check at seed 102 (200 samples) holds criteria 2 and 3's
    corpus, and berretti-check at seed 105 (24 samples) criterion 5's,
    row by row and bit for bit."""
    from conftest import tiny_ldpc_no_isolated
    from gibbscode.clusters import berretti_identity_residual
    from gibbscode.duality import duality_residuals, macwilliams_log_residual
    from test_acceptance import _duality_corpus

    def run(exp, samples, seed):
        return run_experiment(ExperimentConfig.from_json({
            "experiment": exp, "code": {}, "channel": "bsc:0.3",
            "samples": samples, "seed": seed})).rows

    rows = run("duality-check", 200, 102)
    assert len(rows) == 200
    for row, (dinst, i, j) in zip(rows, _duality_corpus()):
        want = (dinst.graph.n_var, dinst.graph.n_chk, macwilliams_log_residual(dinst),
                *duality_residuals(dinst, i, j))
        got = tuple(row[k] for k in ("n", "m", "macwilliams", "r1", "r2"))
        assert np.array(got).tobytes() == np.array(want).tobytes(), row["case"]
    rows = run("berretti-check", 24, 105)
    assert len(rows) == 24
    rng = np.random.default_rng(105)
    for row in rows:
        g = tiny_ldpc_no_isolated(rng)
        l = rng.uniform(-2, 2, g.n_var)
        i, j = (int(x) for x in rng.choice(g.n_var, 2, replace=False))
        want = (g.n_var, g.n_chk, i, j, berretti_identity_residual(make_instance(g, l), i, j))
        got = tuple(row[k] for k in ("n", "m", "i", "j", "residual"))
        assert np.array(got).tobytes() == np.array(want).tobytes(), row["case"]


def test_check_experiments_pass():
    for exp, samples in (("duality-check", 25), ("berretti-check", 10)):
        cfg = ExperimentConfig.from_json({"experiment": exp, "code": {},
                                          "channel": "bsc:0.3",
                                          "samples": samples, "seed": 5})
        res = run_experiment(cfg)
        assert res.passed is True


def _bounds_per_draw(cfg):
    """Reference for the bounds experiment: one posterior pass and one walk
    bound per noise draw, reading the rng in the experiment's order."""
    code, H, n_graphs = cfg.code, cfg.params["H"], cfg.params["graphs"]
    dd = DegreeDistribution.regular(code["var_degree"], code["chk_degree"])
    ch = ChannelModel.from_spec(cfg.channel)
    rng = np.random.default_rng(cfg.seed)
    rows, violations = [], 0
    for _ in range(n_graphs):
        g = sample_ensemble(dd, code["n"], LDGM, int(rng.integers(2 ** 63)))
        i, j = rng.choice(g.n_chk, 2, replace=False)
        A, B = set(g.adj_chk[int(i)]), set(g.adj_chk[int(j)])
        corrs, bounds = [], []
        for _ in range(cfg.samples // n_graphs):
            inst = make_instance(g, sample_llr(ch, g.n_chk, rng))
            corrs.append(abs(spin_product_correlation(inst, A, B)))
            bounds.append(dkp_pointwise_bound(inst, A, B, H)[0])
            violations += corrs[-1] > bounds[-1] + 1e-12
        rows.append((float(np.mean(corrs)), float(np.mean(bounds))))
    return rows, violations


def test_bounds_experiment():
    cfg = ExperimentConfig.from_json({
        "experiment": "bounds",
        "code": {"type": "ensemble", "family": "ldgm", "var_degree": 3,
                 "chk_degree": 2, "n": 9},
        "channel": "bsc:0.45", "samples": 300, "seed": 3,
        "params": {"graphs": 3, "H": 0.1}})
    res = run_experiment(cfg)
    assert res.passed is True and res.summary["violations"] == 0
    ref_rows, ref_violations = _bounds_per_draw(cfg)
    assert res.summary["violations"] == ref_violations
    for row, (corr, bound) in zip(res.rows, ref_rows, strict=True):
        assert row["mean_pointwise_bound"] == bound
        assert row["mc_mean_abs_corr"] == pytest.approx(corr, rel=1e-12, abs=0)


def test_cli_end_to_end(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"code": {}, "channel": "bsc:0.3",
                                    "samples": 10, "seed": 5}))
    out = tmp_path / "out"
    rc = cli_main(["duality-check", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "duality-check.csv").exists()
    doc = json.loads((out / "duality-check.json").read_text())
    assert doc["passed"] is True


def test_cli_console_script(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"code": {}, "channel": "bsc:0.3",
                                    "samples": 5, "seed": 5}))
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "gibbscode.cli", "berretti-check",
         "--config", str(cfg_path), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_graph_file_roundtrip_through_config(tmp_path):
    g = build_graph(4, 6, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2),
                           (3, 3), (0, 3), (0, 4), (2, 5)], LDGM)
    path = tmp_path / "code.txt"
    save_graph(g, path)
    cfg = ExperimentConfig.from_json({
        "experiment": "limits", "code": {"type": "file", "path": str(path)},
        "channel": "bsc:0.45", "samples": 150, "seed": 11,
        "params": {"d_primes": [2, 4], "d_refs": [40, 80]}})
    res = run_experiment(cfg)
    assert res.summary["monotone"] in (True, False)
    assert load_graph(path).edges() == g.edges()
