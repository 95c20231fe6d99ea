import hashlib
import json
import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gossipopt
from gossipopt.cli import (
    _SECTIONS,
    ConfigError,
    build_topology,
    config_hash,
    emit_comparison,
    main,
    parse_config,
    plan_experiment,
    run_experiment,
)
from gossipopt.core import RunPlan, plan_parameters
from text_forms import serialize_config

MINIMAL = """\
[problem]
kind = synthetic_piecewise
d = 6
samples_per_client = 3
gen_seed = 5

[topology]
kind = ring
n = 4
neighbors_per_side = 1

[algorithm]
method = docs
oracle = first
delta = 0.5
epsilon = 0.5
K = 2
T = 20
R = 2
eta = 0.002
D = 0.01

[run]
seeds = 1, 2
metrics_every = 5
out_dir = {out}
"""


def write_config(tmp_path, text=MINIMAL, name="exp.ini", out=None):
    out = out or (tmp_path / "runs")
    path = tmp_path / name
    path.write_text(text.format(out=out))
    return str(path), Path(out)


def test_parse_minimal_config_fills_defaults(tmp_path):
    path, _ = write_config(tmp_path)
    cfg = parse_config(path)
    assert cfg.algorithm.delta_prime is None  # resolved to delta/2 at plan time
    assert cfg.algorithm.eta == (0.002,)
    assert cfg.run.goldstein_samples == 64
    assert cfg.run.goldstein_final_samples == 4096
    assert cfg.run.probe_policy == "all_clients"


# every key of every section, each set away from its default
EVERY_FIELD = """\
[problem]
kind = synthetic_piecewise
dataset = data/set.libsvm
d = 12
lam = 0.001
alpha = 1.5
subsample = 300
data_seed = 4
samples_per_client = 6
gen_seed = 9
lipschitz = 3.5
grad_bound = 2.5

[topology]
kind = file
n = 5
neighbors_per_side = 2
path = weights.txt

[algorithm]
method = baseline
oracle = zeroth
delta = 0.25
epsilon = 0.75
delta_prime = 0.1
eta = 0.001, 0.002
D = 0.5, 0.25
R = 3
K = 4
T = 50
eps_prime = 0.05
sigma = 0.2
c0 = 2.0
nu = 0.5

[run]
seeds = 3, 1, 2
metrics_every = 7
goldstein_every = 2
goldstein_samples = 16
goldstein_final_samples = 128
probe_policy = all_clients
out_dir = {out}
"""


def test_config_round_trip(tmp_path):
    for name, text in (("minimal", MINIMAL), ("every_field", EVERY_FIELD)):
        path, _ = write_config(tmp_path, text, name=f"{name}.ini")
        cfg = parse_config(path)
        path2 = tmp_path / f"{name}_roundtrip.ini"
        path2.write_text(serialize_config(cfg))
        assert parse_config(str(path2)) == cfg, name


def test_readme_example_config_parses(tmp_path, synthetic_libsvm_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    # the example's dataset is the make-data set the session fixture writes
    assert "make-data data/sparse123.libsvm --samples 8000 --dim 123 --seed 7" in readme
    assert "dataset = data/sparse123.libsvm" in example
    path = tmp_path / "readme.ini"
    path.write_text(example.replace("data/sparse123.libsvm", synthetic_libsvm_path))
    cfg = parse_config(str(path))
    assert cfg.algorithm.eta == (0.001, 0.005, 0.01)
    assert cfg.run.seeds == (1, 2, 3)
    monkeypatch.chdir(tmp_path)  # the example's out_dir is relative
    assert main(["plan", str(path)]) == 0
    assert len(capsys.readouterr().out.strip().split("\n\n")) == 3 * 3 * 3  # eta x D x seeds
    assert os.listdir(tmp_path) == ["readme.ini"]


def test_unknown_keys_and_sections_rejected(tmp_path):
    path, _ = write_config(tmp_path, MINIMAL + "\nbogus = 1\n")
    with pytest.raises(ConfigError, match="run.bogus"):
        parse_config(path)
    path2, _ = write_config(tmp_path, MINIMAL + "\n[mystery]\na = 1\n", name="e2.ini")
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(path2)


def test_removed_knobs_are_config_errors(tmp_path):
    # one output epoch for every client and one probe policy, the worst client
    path, _ = write_config(tmp_path, MINIMAL.replace("R = 2", "R = 2\nper_client_selector = no"))
    with pytest.raises(ConfigError, match="^unknown key algorithm.per_client_selector$"):
        parse_config(path)
    for policy in ("mean_of_clients", "client_0"):
        text = MINIMAL.replace("metrics_every = 5", f"metrics_every = 5\nprobe_policy = {policy}")
        path, _ = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="^run.probe_policy: expected one of"):
            parse_config(path)


# (text replaced in MINIMAL, its replacement, the exact ConfigError text)
TYPE_ERRORS = [
    ("T = 20", "T = twenty", "algorithm.T: expected integer, got 'twenty'"),
    ("delta = 0.5", "delta = half", "algorithm.delta: expected number, got 'half'"),
    ("eta = 0.002", "eta = 0.002, x",
     "algorithm.eta: expected comma-separated numbers, got '0.002, x'"),
    ("seeds = 1, 2", "seeds = 1, 2.5",
     "run.seeds: expected comma-separated integers, got '1, 2.5'"),
    ("kind = synthetic_piecewise", "kind = lasso",
     "problem.kind: expected one of ['capped_l1_svm', 'synthetic_piecewise'], got 'lasso'"),
    ("kind = ring", "kind = star",
     "topology.kind: expected one of ['ring', 'complete', 'file'], got 'star'"),
    ("method = docs", "method = magic",
     "algorithm.method: expected one of ['docs', 'baseline'], got 'magic'"),
    ("oracle = first", "oracle = second",
     "algorithm.oracle: expected one of ['first', 'zeroth'], got 'second'"),
    ("metrics_every = 5", "metrics_every = 5\nprobe_policy = worst",
     "run.probe_policy: expected one of ['all_clients'], got 'worst'"),
]


def test_type_errors_name_the_key(tmp_path):
    for old, new, message in TYPE_ERRORS:
        path, _ = write_config(tmp_path, MINIMAL.replace(old, new, 1))
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == message


# (key path, a bad value); every key with a declared range has a case here.
# A value that spans lines sets further keys of the same section.
BAD_VALUES = [
    ("run.goldstein_final_samples", "0"),
    ("run.goldstein_samples", "0"),
    ("run.goldstein_every", "-1"),
    ("problem.subsample", "0"),
    ("problem.subsample", "-5"),
    ("problem.lam", "0"),
    ("problem.alpha", "-1"),
    ("problem.data_seed", "-1"),
    ("problem.gen_seed", "-3"),
    ("run.seeds", "-1"),
    ("run.seeds", "1, -2"),
    ("run.seeds", "1, 1"),
    ("run.seeds", "3, 1, 3"),
    ("algorithm.sigma", "-2"),
    ("algorithm.nu", "-1"),
    ("algorithm.c0", "0"),
    ("algorithm.c0", "-1"),
    ("algorithm.delta_prime", "-0.1"),
    pytest.param("algorithm.delta_prime", "0\noracle = zeroth",
                 id="algorithm.delta_prime-0-zeroth"),
    ("problem.lipschitz", "0"),
    ("problem.lipschitz", "-1"),
    ("problem.grad_bound", "0"),
    ("problem.d", "0"),
    ("problem.samples_per_client", "0"),
    pytest.param("problem.samples_per_client", "0\nkind = capped_l1_svm\ndataset = x.svm",
                 id="problem.samples_per_client-0-capped_l1_svm"),
    ("topology.n", "0"),
    ("topology.neighbors_per_side", "0"),
    ("algorithm.delta", "0"),
    ("algorithm.delta", "nan"),
    ("algorithm.epsilon", "-0.5"),
    ("algorithm.eta", "0.002, -0.001"),
    # a repeated value would run one grid cell twice into one directory
    ("algorithm.eta", "0.01, 0.01"),
    ("algorithm.eta", "0.01, 1e-2"),
    ("algorithm.D", "0"),
    ("algorithm.D", "0.05, 0.02, 0.05"),
    ("algorithm.D", "5e-2, 0.05"),
    ("algorithm.eps_prime", "0"),
    ("algorithm.R", "0"),
    ("algorithm.K", "0"),
    ("algorithm.T", "0"),
    ("run.metrics_every", "0"),
]


@pytest.mark.parametrize("key,value", BAD_VALUES)
def test_bad_probe_and_data_values_rejected_before_any_run(tmp_path, key, value):
    section, name = key.split(".")
    # the key (and any further line of its value) goes right under its
    # section header, in place of any line MINIMAL already has for the same
    # name, so that each name is set only once
    setting = f"{name} = {value}".splitlines()
    names = {line.split(" = ")[0] for line in setting}
    lines = [line for line in MINIMAL.splitlines() if line.split(" = ")[0] not in names]
    at = lines.index(f"[{section}]") + 1
    lines[at:at] = setting
    path, out = write_config(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"^{key}: must be "):
        parse_config(path)
    for command in ("run", "plan"):
        assert main([command, path]) == 1
    assert not out.exists()


# (the [topology] lines, the message after the key); {path} is a weight file
# holding a matrix that is not symmetric
BAD_TOPOLOGIES = [
    ("kind = ring\nn = 2", "topology.n: ring topology requires n >= 3, got n = 2"),
    ("kind = ring\nn = 16\nneighbors_per_side = 8",
     "topology.neighbors_per_side: neighbors_per_side = 8 needs at least 17 clients, got n = 16"),
    ("kind = file\nn = 2\npath = {path}",
     "topology.path: {path}: matrix is not symmetric: |p[0][1] - p[1][0]| = 1.000e-01"),
]


@pytest.mark.parametrize("topology,message", BAD_TOPOLOGIES)
def test_bad_topologies_rejected_before_any_run(tmp_path, capsys, topology, message):
    weights = tmp_path / "w.txt"
    weights.write_text("0.5 0.5\n0.4 0.6\n")
    start, stop = MINIMAL.index("[topology]"), MINIMAL.index("[algorithm]")
    text = MINIMAL[:start] + f"[topology]\n{topology}\n\n" + MINIMAL[stop:]
    path, out = write_config(tmp_path, text.replace("{path}", str(weights)))
    for command in ("run", "plan"):
        assert main([command, path]) == 1
        want = message.replace("{path}", str(weights))
        assert capsys.readouterr().err == f"configuration error: {want}\n"
    assert not out.exists()


def test_ranged_keys_have_a_rejection_case_and_a_readme_entry():
    ranged = {
        (section, f.name)
        for section, cls in _SECTIONS.items()
        for f in fields(cls)
        if "range" in f.metadata
    }
    cases = {getattr(case, "values", case)[0] for case in BAD_VALUES}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    [paragraph] = [p for p in readme.split("\n\n") if "checked ranges" in p]
    for section, name in sorted(ranged):
        assert f"{section}.{name}" in cases, name
        assert f"`{section}.{name}`" in paragraph or f"`{name}`" in paragraph, name


def test_plan_rejected_by_the_planner_writes_nothing(tmp_path, capsys):
    # only the planner sees that eps_prime is not below its D = delta / (4 T)
    text = (MINIMAL.replace("D = 0.01\n", "eps_prime = 0.5\n")
            .replace("K = 2", "K = 1").replace("T = 20", "T = 10"))
    path, out = write_config(tmp_path, text)
    message = ("algorithm.eps_prime: eps_prime = 0.5 must be above 0 and below "
               "the planner's D = delta / (4 T) = 0.0125")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_experiment(parse_config(path))
    for command in ("plan", "run"):
        assert main([command, path]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


SVM_CONFIG = """\
[problem]
kind = capped_l1_svm
dataset = {data}
d = 3

[topology]
kind = ring
n = 4

[algorithm]
method = docs
oracle = first
delta = 0.5
epsilon = 0.5
K = 1
T = 5
R = 2
eta = 0.005
D = 0.01

[run]
seeds = 1
out_dir = {out}
"""


@pytest.mark.parametrize(
    "extra,key", [("subsample = 3", "problem.subsample"), ("", "problem.dataset")]
)
def test_too_few_samples_for_the_clients_rejected_before_any_run(tmp_path, extra, key):
    data = tmp_path / "small.libsvm"
    rows = "+1 1:1\n-1 2:1\n+1 3:1\n"
    data.write_text(rows * 2 if extra else rows)  # three samples remain either way
    text = SVM_CONFIG.replace("{data}", str(data)).replace("d = 3", f"d = 3\n{extra}")
    path, out = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=f"^{key}: 3 samples cannot be sharded across "
                                          "topology.n = 4 clients$"):
        run_experiment(parse_config(path))
    for command in ("run", "plan"):
        assert main([command, path]) == 1
    assert not out.exists()


def test_malformed_dataset_is_a_configuration_error_naming_the_file(tmp_path, capsys):
    data = tmp_path / "bad.libsvm"
    data.write_text("+1 1:1\n-1 2:1\n+1 3:1\n-1 0:2\n+1 1:1\n")
    path, out = write_config(tmp_path, SVM_CONFIG.replace("{data}", str(data)))
    for command in ("run", "plan"):
        assert main([command, path]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: problem.dataset: {data}: "
            "line 4, column 4: feature index must be >= 1\n"
        )
    assert not out.exists()


def test_failed_final_probe_is_recorded_per_seed(tmp_path, monkeypatch):
    import gossipopt.cli as cli

    probe = cli._final_goldstein

    def fail_for_seed_1(problem, w_out, plan, samples):
        if plan.seed == 1:
            raise FloatingPointError("probe failed")
        return probe(problem, w_out, plan, samples)

    monkeypatch.setattr(cli, "_final_goldstein", fail_for_seed_1)
    path, out = write_config(tmp_path)
    summary = run_experiment(parse_config(path))
    failed, ok = summary.runs
    assert failed.error == "FloatingPointError: probe failed"
    assert ok.error is None and ok.final_goldstein is not None
    payload = json.loads((out / "summary.json").read_text())
    assert payload["aggregate"]["completed"] == 1 and payload["aggregate"]["failed"] == 1


def test_eps_prime_at_least_diameter_rejected(tmp_path):
    bad = MINIMAL.replace("D = 0.01", "D = 0.01\neps_prime = 0.02")
    path, _ = write_config(tmp_path, bad)
    with pytest.raises(ConfigError, match="eps_prime < D"):
        parse_config(path)


def test_config_hash_tracks_semantics_only(tmp_path):
    path, _ = write_config(tmp_path)
    cfg = parse_config(path)
    path2, _ = write_config(tmp_path, name="other.ini", out=tmp_path / "elsewhere")
    cfg2 = parse_config(path2)
    assert config_hash(cfg) == config_hash(cfg2)  # only out_dir differs
    path3, _ = write_config(tmp_path, MINIMAL.replace("eta = 0.002", "eta = 0.003"), name="e3.ini")
    assert config_hash(parse_config(path3)) != config_hash(cfg)


def test_run_experiment_two_seeds(tmp_path):
    path, out = write_config(tmp_path)
    cfg = parse_config(path)
    summary = run_experiment(cfg)
    assert (out / "trace_1.csv").exists()
    assert (out / "trace_2.csv").exists()
    payload = json.loads((out / "summary.json").read_text())
    assert len(payload["runs"]) == 2
    assert payload["config_hash"] == config_hash(cfg)
    assert all(r["error"] is None for r in payload["runs"])
    assert all(r["final_objective"] is not None for r in payload["runs"])
    agg = payload["aggregate"]["final_objective"]
    finals = [r["final_objective"] for r in payload["runs"]]
    assert agg["mean"] == pytest.approx(np.mean(finals))
    assert agg["min"] == min(finals) and agg["max"] == max(finals)
    assert summary.runs[0].samples_total == 40  # K * T steps, one call each


def test_summary_declares_trace_format(tmp_path):
    path, out = write_config(tmp_path)
    run_experiment(parse_config(path))
    payload = json.loads((out / "summary.json").read_text())
    assert payload["version"] == gossipopt.__version__
    assert payload["trace_format"] == gossipopt.TRACE_FORMAT == 9


def test_same_seed_produces_byte_identical_trace(tmp_path):
    path, out = write_config(tmp_path)
    cfg = parse_config(path)
    run_experiment(cfg)
    first = (out / "trace_1.csv").read_bytes()
    run_experiment(cfg)
    assert (out / "trace_1.csv").read_bytes() == first


def test_methods_share_shards_with_same_seed(tmp_path, synthetic_libsvm_path):
    template = """\
[problem]
kind = capped_l1_svm
dataset = {data}
d = 123
subsample = 400

[topology]
kind = ring
n = 4

[algorithm]
method = {method}
oracle = first
delta = 0.5
epsilon = 0.5
K = 1
T = 10
R = 2
eta = 0.005
D = 0.01

[run]
seeds = 3
metrics_every = 10
out_dir = {out}
"""
    from gossipopt.cli import build_problem, load_dataset

    cfgs = {}
    for method in ("docs", "baseline"):
        text = template.format(data=synthetic_libsvm_path, method=method, out=tmp_path / method)
        p = tmp_path / f"{method}.ini"
        p.write_text(text)
        cfgs[method] = parse_config(str(p))
    prob_a, prob_b = (
        build_problem(c.problem, 4, 3, load_dataset(c.problem)) for c in cfgs.values()
    )
    assert np.array_equal(prob_a.signed, prob_b.signed)
    assert np.array_equal(prob_a.labels, prob_b.labels)


def test_grid_expansion_writes_cells(tmp_path):
    text = MINIMAL.replace("eta = 0.002", "eta = 0.002, 0.004").replace(
        "D = 0.01", "D = 0.01, 0.02"
    )
    path, out = write_config(tmp_path, text)
    summary = run_experiment(parse_config(path))
    assert len(summary.runs) == 8  # 2 eta x 2 D x 2 seeds
    cells = [p.name for p in out.iterdir() if p.is_dir()]
    assert len(cells) == 4
    for cell in cells:
        assert (out / cell / "trace_1.csv").exists()


SVM_GRID = """\
[problem]
kind = capped_l1_svm
dataset = {data}
d = 123
subsample = 400

[topology]
kind = ring
n = 4

[algorithm]
method = docs
oracle = first
delta = 0.5
epsilon = 0.5
K = 1
T = 12
R = 2
eta = {eta}
D = {D}

[run]
seeds = 3, 4
metrics_every = 4
goldstein_final_samples = 16
out_dir = {{out}}
"""


def test_grid_builds_one_problem_per_seed(tmp_path, synthetic_libsvm_path, monkeypatch):
    from gossipopt.oracles import CappedHingeSvmProblem

    build = CappedHingeSvmProblem.from_shards
    built = []

    def counting_build(data, shards, d, **kwargs):
        built.append(1)
        return build(data, shards, d, **kwargs)

    monkeypatch.setattr(CappedHingeSvmProblem, "from_shards", staticmethod(counting_build))
    text = SVM_GRID.format(data=synthetic_libsvm_path, eta="0.002, 0.004", D="0.01, 0.02")
    path, out = write_config(tmp_path, text, name="grid.ini", out=tmp_path / "grid")
    summary = run_experiment(parse_config(path))
    assert len(built) == 2  # one per seed, not one per (cell, seed)
    # the runs keep their (cell, seed) order
    assert [(r.eta, r.D, r.seed) for r in summary.runs] == [
        (eta, D, seed) for eta in (0.002, 0.004) for D in (0.01, 0.02) for seed in (3, 4)
    ]
    for eta in ("0.002", "0.004"):
        for D in ("0.01", "0.02"):
            single = SVM_GRID.format(data=synthetic_libsvm_path, eta=eta, D=D)
            cell_out = tmp_path / f"single_{eta}_{D}"
            path, _ = write_config(tmp_path, single, name=f"{eta}_{D}.ini", out=cell_out)
            run_experiment(parse_config(path))
            for seed in (3, 4):
                name = f"trace_{seed}.csv"
                shared = (out / f"eta{eta}_D{D}" / name).read_bytes()
                assert shared == (cell_out / name).read_bytes()


def test_output_dir_env_override(tmp_path):
    path, out = write_config(tmp_path)
    other = tmp_path / "redirected"
    os.environ["GOSSIPOPT_OUTPUT_DIR"] = str(other)
    try:
        run_experiment(parse_config(path))
    finally:
        del os.environ["GOSSIPOPT_OUTPUT_DIR"]
    assert (other / "trace_1.csv").exists()
    assert not (out / "trace_1.csv").exists()


def test_dry_run_prints_resolved_plan(tmp_path, capsys):
    path, out = write_config(tmp_path, MINIMAL.replace("eta = 0.002", "eta = 0.002, 0.004"))
    assert main(["plan", path]) == 0
    printed = capsys.readouterr().out
    assert not out.exists()
    # one block per (grid cell, seed), cells outer, each naming every plan field
    blocks = [dict(line.split(" = ") for line in block.splitlines())
              for block in printed.strip().split("\n\n")]
    assert [list(b) for b in blocks] == [["method"] + [f.name for f in fields(RunPlan)]] * 4
    assert [(b["eta"], b["seed"]) for b in blocks] == [
        ("0.002", "1"), ("0.002", "2"), ("0.004", "1"), ("0.004", "2")
    ]
    for b in blocks:
        assert (b["method"], b["K"], b["T"], b["R"], b["D"], b["consensus_guaranteed"]) == (
            "docs", "2", "20", "2", "0.01", "False"
        )


def test_baseline_reports_the_one_round_it_runs(tmp_path, capsys):
    text = MINIMAL.replace("method = docs", "method = baseline").replace("R = 2\n", "")
    path, out = write_config(tmp_path, text)
    assert main(["plan", path]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert "R = 1" in printed
    assert "consensus_guaranteed = False" in printed  # the planner wants R > 1 on a ring
    run_experiment(parse_config(path))
    payload = json.loads((out / "summary.json").read_text())
    assert [r["R"] for r in payload["runs"]] == [1, 1]
    assert all(r["communication_rounds"] == 2 * 40 for r in payload["runs"])


def test_synthetic_problem_takes_the_lipschitz_and_grad_bound_overrides(
    tmp_path, monkeypatch, capsys
):
    import gossipopt.cli as cli

    received = []

    def recording(*args, **kwargs):
        received.append(args[5:7])  # (L, G)
        return plan_parameters(*args, **kwargs)

    monkeypatch.setattr(cli, "plan_parameters", recording)
    data = tmp_path / "small.libsvm"
    data.write_text("+1 1:1\n-1 2:1\n+1 3:1\n-1 1:1\n")
    svm = SVM_CONFIG.replace("{data}", str(data))
    # (base config, the line the overrides go after, overrides, (L, G) they set)
    cases = [
        (MINIMAL, "gen_seed = 5\n", "lipschitz = 50\n", (50.0, None)),
        (MINIMAL, "gen_seed = 5\n", "grad_bound = 7\n", (None, 7.0)),
        (MINIMAL, "gen_seed = 5\n", "lipschitz = 50\ngrad_bound = 7\n", (50.0, 7.0)),
        (svm, "d = 3\n", "lipschitz = 50\n", (50.0, None)),
        (svm, "d = 3\n", "grad_bound = 7\n", (None, 7.0)),
    ]
    for i, (base, line, overrides, (L, G)) in enumerate(cases):
        path, _ = write_config(tmp_path, base, name=f"base{i}.ini")
        received.clear()
        bounds = [problem.lipschitz for _, _, problem in plan_experiment(parse_config(path))[2]]
        # unset, both constants are the problem's one bound
        assert received == [(b, b) for b in bounds], i
        assert main(["plan", path]) == 0
        planned = capsys.readouterr().out
        path, _ = write_config(tmp_path, base.replace(line, line + overrides), name=f"{i}.ini")
        received.clear()
        runs = plan_experiment(parse_config(path))[2]
        assert received == [(L or b, G or b) for b in bounds], i
        # the override reaches the planner only; the problem keeps its bound
        assert [problem.lipschitz for _, _, problem in runs] == bounds, i
        assert main(["plan", path]) == 0
        assert capsys.readouterr().out != planned, i


def test_cli_exit_codes(tmp_path):
    missing = str(tmp_path / "nope.ini")
    assert main(["run", missing]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text(MINIMAL.format(out=tmp_path / "o").replace("method = docs", "method = magic"))
    assert main(["run", str(bad)]) == 1
    # runtime failure: dataset file vanishes after validation
    cfg_text = """\
[problem]
kind = capped_l1_svm
dataset = {data}
d = 123

[topology]
kind = complete
n = 2

[algorithm]
method = docs
oracle = first
delta = 0.5
epsilon = 0.5
K = 1
T = 5

[run]
seeds = 1
out_dir = {out}
""".format(data=tmp_path / "gone.libsvm", out=tmp_path / "o2")
    cfg_path = tmp_path / "vanish.ini"
    cfg_path.write_text(cfg_text)
    assert main(["run", str(cfg_path)]) == 2
    assert main(["plan", str(cfg_path)]) == 2
    assert not (tmp_path / "o2").exists()  # no summary is made up for the failed load


def test_validate_topology_subcommand(tmp_path, capsys):
    from gossipopt.topology import build_ring

    good = tmp_path / "good.txt"
    np.savetxt(good, build_ring(5, 1).weights)
    assert main(["validate-topology", str(good)]) == 0
    assert "gamma" in capsys.readouterr().out
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0\n0 1\n")
    assert main(["validate-topology", str(bad)]) == 1


def test_make_data_subcommand(tmp_path, capsys):
    target = tmp_path / "gen.libsvm"
    assert main(["make-data", str(target), "--samples", "50", "--dim", "20", "--seed", "1"]) == 0
    from gossipopt.oracles import load_libsvm

    assert len(load_libsvm(str(target), 20)) == 50
    bad = tmp_path / "bad.libsvm"
    for flag, value, least in (
        ("--samples", "0", 1), ("--samples", "-5", 1), ("--dim", "0", 1), ("--seed", "-1", 0)
    ):
        assert main(["make-data", str(bad), flag, value]) == 1
        err = capsys.readouterr().err
        assert err == f"configuration error: {flag}: must be >= {least}\n"
        assert not bad.exists()


def test_make_data_output_is_pinned(tmp_path):
    # the benchmark builds its dataset with make-data, so its bytes are fixed
    target = tmp_path / "pinned.libsvm"
    assert main(["make-data", str(target), "--samples", "300", "--dim", "20", "--seed", "7"]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "edd26fdf96f955cee6bda43d0e9845d1f12630994197d82a8b12f7f1bc370952"
    )


def test_file_topology_config(tmp_path):
    from gossipopt.topology import build_ring

    w = tmp_path / "weights.txt"
    np.savetxt(w, build_ring(4, 1).weights)
    text = MINIMAL.replace(
        "kind = ring\nn = 4\nneighbors_per_side = 1",
        f"kind = file\nn = 4\npath = {w}",
    )
    path, _ = write_config(tmp_path, text)
    cfg = parse_config(path)
    m = build_topology(cfg.topology)
    assert m.n == 4 and m.gamma == pytest.approx(0.5, abs=1e-12)
    # a single-client file config still reads and checks its weights file
    three = tmp_path / "three.txt"
    np.savetxt(three, build_ring(3, 1).weights)
    for weights in (three, tmp_path / "missing.txt"):
        single = MINIMAL.replace(
            "kind = ring\nn = 4\nneighbors_per_side = 1", f"kind = file\nn = 1\npath = {weights}"
        )
        path, _ = write_config(tmp_path, single, name="single.ini")
        assert main(["plan", path]) == 1


def test_connectivity_sweep_gammas_increase(tmp_path):
    gammas = []
    for k in (1, 2, 3, 4):
        text = MINIMAL.replace("n = 4", "n = 16").replace(
            "neighbors_per_side = 1", f"neighbors_per_side = {k}"
        )
        path, _ = write_config(tmp_path, text, name=f"nb{k}.ini", out=tmp_path / f"out{k}")
        cfg = parse_config(path)
        gammas.append(build_topology(cfg.topology).gamma)
    assert all(a < b for a, b in zip(gammas, gammas[1:]))


def test_compare_single_trace_pass_through(tmp_path):
    path, out = write_config(tmp_path)
    run_experiment(parse_config(path))
    trace = out / "trace_1.csv"
    text = emit_comparison([str(trace)], "samples")
    lines = text.splitlines()
    assert lines[0] == "method,seed,x,objective,goldstein_estimate"
    n_rows = len(trace.read_text().splitlines()) - 1
    assert len(lines) == 1 + n_rows
    assert lines[1].startswith(f"{out.name},1,")


def test_compare_union_of_x_points_no_interpolation(tmp_path):
    path, out = write_config(tmp_path)
    run_experiment(parse_config(path))
    sparse_cfg = MINIMAL.replace("metrics_every = 5", "metrics_every = 7")
    path2, out2 = write_config(tmp_path, sparse_cfg, name="sparse.ini", out=tmp_path / "runs2")
    run_experiment(parse_config(path2))
    t1, t2 = out / "trace_1.csv", out2 / "trace_1.csv"
    merged = emit_comparison([str(t1), str(t2)], "computation", labels=["a", "b"])
    rows = [r.split(",") for r in merged.splitlines()[1:]]
    xs_a = {r[2] for r in rows if r[0] == "a"}
    xs_b = {r[2] for r in rows if r[0] == "b"}
    assert xs_a != xs_b
    n1 = len(t1.read_text().splitlines()) - 1
    n2 = len(t2.read_text().splitlines()) - 1
    assert len(rows) == n1 + n2


def test_compare_rejects_schema_mismatch(tmp_path):
    bad = tmp_path / "trace_9.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="schema"):
        emit_comparison([str(bad)], "samples")
    with pytest.raises(ConfigError, match="x_axis"):
        emit_comparison([str(bad)], "time")


def test_compare_command_writes_the_merged_csv(tmp_path, capsys):
    path, out = write_config(tmp_path)
    run_experiment(parse_config(path))
    traces = [str(out / "trace_1.csv"), str(out / "trace_2.csv")]
    expected = emit_comparison(traces, "communication", labels=["a", "b"])
    merged = tmp_path / "merged.csv"
    args = ["compare", *traces, "--x-axis", "communication", "--labels", "a,b"]
    assert main([*args, "--out", str(merged)]) == 0
    assert merged.read_text() == expected
    assert capsys.readouterr().out == ""
    assert main(args) == 0
    assert capsys.readouterr().out == expected
    assert main(["compare", *traces, "--labels", "a"]) == 1
    assert "labels must match" in capsys.readouterr().err


def test_goldstein_cadence_fills_cells(tmp_path):
    text = MINIMAL.replace(
        "metrics_every = 5",
        "metrics_every = 5\ngoldstein_every = 2\ngoldstein_samples = 16\n"
        "goldstein_final_samples = 32\nprobe_policy = all_clients",
    )
    path, out = write_config(tmp_path, text)
    run_experiment(parse_config(path))
    rows = (out / "trace_1.csv").read_text().splitlines()[1:]
    gold_cells = [r.rsplit(",", 1)[1] for r in rows]
    filled = [c for c in gold_cells if c]
    assert filled and len(filled) < len(gold_cells)
    assert gold_cells[0] != ""   # first record probed
    assert gold_cells[-1] != ""  # final record always probed
    for c in filled:
        assert float(c) >= 0.0


def test_default_alpha_and_lam(tmp_path, synthetic_libsvm_path):
    from gossipopt.cli import ProblemConfig, build_problem, load_dataset

    cfg = ProblemConfig(kind="capped_l1_svm", dataset=synthetic_libsvm_path, d=123)
    prob = build_problem(cfg, 4, 1, load_dataset(cfg))
    assert prob.alpha == 2.0
    assert prob.lam == pytest.approx(1e-5 / 8000)
