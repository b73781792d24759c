import csv
import functools
import hashlib
import json

import numpy as np
import pytest

from choicealloc import (
    TabulatedChoiceModel,
    assortment_subproblem_bruteforce,
    random_instance,
    solve_cdlp,
    validate_instance,
)
from choicealloc import cdlp, cli
from choicealloc.cli import dump_instance, load_instance, main
from choicealloc.valuefn import DEFAULT_GRID_SIZE, MIN_GRID
from choicealloc.verify import SUITES, _opr_sweep, _spike_cases, suite_spike

GOOD = {
    "resources": [{"capacity": 1}],
    "products": [{"resource": 1, "reward": 1.0}],
    "types": [
        {
            "rate": {"breakpoints": [0.0, 1.0], "rates": [2.0]},
            "choice": {"kind": "table", "entries": [{"S": [1], "p": {"1": 1.0}}]},
        }
    ],
}


@pytest.fixture
def good_path(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(GOOD))
    return path


def test_validate_ok(good_path, capsys):
    assert main(["validate", "--instance", str(good_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--instance", str(path)]) == 2
    assert "parse error" in capsys.readouterr().out


def test_validate_missing_field(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"resources": []}))
    assert main(["validate", "--instance", str(path)]) == 2


def test_validate_invariant_violation(tmp_path, capsys):
    doc = json.loads(json.dumps(GOOD))
    doc["products"][0]["resource"] = 7
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(path)]) == 1
    assert "dangling resource" in capsys.readouterr().out


def test_validate_a_table_past_twelve_products_is_a_parse_error(tmp_path, capsys):
    doc = json.loads(json.dumps(GOOD))
    doc["types"][0]["choice"]["entries"].append({"S": [13], "p": {"13": 0.5}})
    bad = tmp_path / "wide_table.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(bad)]) == 2
    assert "at most 12 products and each one it lists; got 13," in capsys.readouterr().out


@pytest.mark.parametrize("path,value", [
    (("types", 0, "choice", "entries", 0, "p"), [1.0]),
    (("types", 0, "reward_override"), [0.8]),
], ids=["table-p-list", "override-list"])
def test_validate_non_object_field_is_a_parse_error(path, value, tmp_path, capsys):
    doc = json.loads(json.dumps(GOOD))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().out


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("path,value,message", [
    (("resources", 0, "capacity"), NAN, "capacity must be a nonnegative integer"),
    (("resources", 0, "capacity"), INF, "capacity must be a nonnegative integer"),
    (("resources", 0, "capacity"), 1.5, "capacity must be a nonnegative integer"),
    (("resources", 0, "expiry"), NAN, "expiry must lie in (0, 1]"),
    (("resources", 0, "expiry"), INF, "expiry must lie in (0, 1]"),
    (("products", 0, "reward"), NAN, "non-finite or negative reward"),
    (("products", 0, "reward"), INF, "non-finite or negative reward"),
    (("types", 0, "rate", "breakpoints", 1), NAN, "non-monotone breakpoints"),
    (("types", 0, "rate", "breakpoints", 1), INF, "non-monotone breakpoints"),
    (("types", 0, "rate", "rates", 0), NAN, "non-finite or negative rate"),
    (("types", 0, "rate", "rates", 0), INF, "non-finite or negative rate"),
    (("types", 0, "reward_override"), {"1": NAN}, "non-finite or negative override"),
    (("types", 0, "reward_override"), {"1": INF}, "non-finite or negative override"),
    (("types", 0, "choice"), {"kind": "attraction", "mu": [0.0], "nu": [INF]},
     "non-finite choice weight"),
    (("types", 0, "choice"), {"kind": "attraction", "mu": [0.0], "nu": [NAN]},
     "non-finite choice weight"),
    (("types", 0, "choice"), {"kind": "mixture", "segments": [
        {"weight": NAN, "mu": [0.0], "nu": [1.0]}]}, "non-finite choice weight"),
    (("types", 0, "choice", "entries", 0, "p", "1"), NAN, "non-finite selection probability"),
])
def test_validate_reports_non_finite_numbers(path, value, message, tmp_path, capsys):
    doc = json.loads(json.dumps(GOOD))
    doc["types"][0]["rate"] = {"breakpoints": [0.0, 0.5, 1.0], "rates": [2.0, 2.0]}
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # NaN and Infinity literals, which json reads back
    report = validate_instance(load_instance(bad))
    assert not report.ok
    assert any(message in e for e in report.errors)
    assert main(["validate", "--instance", str(bad)]) == 1
    assert "violation: " in capsys.readouterr().out


def test_integral_float_capacity_in_a_file_is_an_integer(tmp_path, capsys):
    doc = json.loads(json.dumps(GOOD))
    doc["resources"][0]["capacity"] = 2.0
    path = tmp_path / "float_capacity.json"
    path.write_text(json.dumps(doc))
    capacity = load_instance(path).resources[0].capacity
    assert capacity == 2 and type(capacity) is int
    assert main(["validate", "--instance", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_fractional_resource_reference_in_a_file_is_left_for_validation(tmp_path, capsys):
    doc = json.loads(json.dumps(GOOD))
    doc["products"][0]["resource"] = 1.9
    path = tmp_path / "fractional_resource.json"
    path.write_text(json.dumps(doc))
    assert load_instance(path).products[0].resource == 1.9  # not truncated to 1
    assert main(["validate", "--instance", str(path)]) == 1
    assert "resource reference 1.9 is no integer" in capsys.readouterr().out
    doc["products"][0]["resource"] = 1.0
    path.write_text(json.dumps(doc))
    resource = load_instance(path).products[0].resource
    assert resource == 1 and type(resource) is int


def test_fractional_table_member_in_a_file_is_a_format_error(tmp_path, capsys):
    doc = json.loads(json.dumps(GOOD))
    doc["types"][0]["choice"]["entries"][0]["S"] = [1.7]
    path = tmp_path / "fractional_member.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.InstanceFormatError, match="not 1.7"):
        load_instance(path)
    assert main(["validate", "--instance", str(path)]) == 2
    capsys.readouterr()
    doc["types"][0]["choice"]["entries"][0]["S"] = [1.0]
    path.write_text(json.dumps(doc))
    assert load_instance(path).types[0].choice.table == {frozenset({1}): {1: 1.0}}


_NUMBERS = {
    "resources": [{"capacity": 2, "expiry": 1.0}],
    "products": [{"resource": 1, "reward": 1.0}, {"resource": 1, "reward": 1.0}],
    "types": [
        {"rate": {"breakpoints": [0.0, 1.0], "rates": [2.0]},
         "choice": {"kind": "attraction", "mu": [0.0, 0.0], "nu": [1.0, 1.0]},
         "reward_override": {"1": 0.8}},
        {"rate": {"breakpoints": [0.0, 1.0], "rates": [1.0]},
         "choice": {"kind": "mixture", "segments": [
             {"weight": 0.5, "mu": [0.0, 0.0], "nu": [1.0, 2.0]},
             {"weight": 0.5, "mu": [0.0, 0.0], "nu": [2.0, 1.0]}]}},
        {"rate": {"breakpoints": [0.0, 1.0], "rates": [1.0]},
         "choice": {"kind": "table", "entries": [{"S": [1], "p": {"1": 0.5}},
                                                 {"S": [2], "p": {"2": 0.5}},
                                                 {"S": [1, 2], "p": {"1": 0.3, "2": 0.3}}]}},
    ],
}


@pytest.mark.parametrize("where", [
    ("resources", 0, "capacity"), ("resources", 0, "expiry"),
    ("products", 0, "resource"), ("products", 1, "reward"),
    ("types", 0, "rate", "breakpoints", 0), ("types", 0, "rate", "rates", 0),
    ("types", 0, "reward_override", "1"),
    ("types", 0, "choice", "mu", 1), ("types", 0, "choice", "nu", 1),
    ("types", 1, "choice", "segments", 0, "weight"),
    ("types", 1, "choice", "segments", 1, "nu", 0),
    ("types", 2, "choice", "entries", 0, "S", 0), ("types", 2, "choice", "entries", 0, "p", "1"),
], ids=lambda where: "-".join(map(str, where)))
@pytest.mark.parametrize("value", ["string", "bool"])
def test_a_string_or_a_boolean_where_a_number_goes_is_a_format_error(tmp_path, capsys,
                                                                     where, value):
    # float() and int() took "2" and true, so such a file validated as ok
    doc = json.loads(json.dumps(_NUMBERS))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(path)]) == 0
    *parents, key = where
    node = functools.reduce(lambda node, step: node[step], parents, doc)
    node[key] = True if value == "bool" else str(node[key])
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.InstanceFormatError, match="expected a number, got"):
        load_instance(path)
    assert main(["validate", "--instance", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["simulate", "--instance", "x.json", "--seed", "1", "--out", "x", "--reps", "1"],
    ["simulate", "--instance", "x.json", "--seed", "1", "--out", "x", "--grid", str(MIN_GRID - 1)],
    ["spike", "--seed", "1", "--reps", "1"],
    ["spike", "--seed", "1", "--grid", str(MIN_GRID - 1)],
    ["verify", "--suite", "scaling", "--reps", "1"],
    ["verify", "--suite", "dominance", "--reps", "1"],
    ["verify", "--suite", "dominance", "--instances", "0"],
    ["verify", "--suite", "dominance", "--instances", "many"],
    ["simulate", "--instance", "x.json", "--seed", "1", "--out", "x", "--workers", "0"],
    ["spike", "--seed", "1", "--workers", "-1"],
    ["simulate", "--instance", "x.json", "--seed", "-1", "--out", "x"],
    ["verify", "--suite", "scaling", "--seed", "-1"],
    ["spike", "--seed", "-1"],
])
def test_out_of_range_counts_are_parse_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err or "invalid int value" in err
    assert "Traceback" not in err


def test_cdlp_command_objective(good_path, capsys, tmp_path):
    out = tmp_path / "plan.csv"
    code = main(["cdlp", "--instance", str(good_path), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "objective 1.0" in text
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "record,index,assortment,value"


def test_an_empty_instance_validates_and_plans_zero(tmp_path, capsys):
    # no resources, products or types is a valid instance, and its plan is 0.0
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"resources": [], "products": [], "types": []}))
    assert main(["validate", "--instance", str(path)]) == 0
    assert main(["cdlp", "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ok: 0 resources, 0 products, 0 types" in out
    assert "objective 0.0  eps 0.0  certified yes  iterations 1" in out


def test_cdlp_rejects_localsearch_at_eps_zero(good_path, capsys):
    # the planner has one exact subproblem solver, so there is nothing to pick
    with pytest.raises(SystemExit) as exit_:
        main(["cdlp", "--instance", str(good_path), "--solver", "localsearch"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --solver localsearch" in capsys.readouterr().err


def test_cdlp_sort_solver_is_a_parse_error(good_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["cdlp", "--instance", str(good_path), "--solver", "sort"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --solver sort" in capsys.readouterr().err


def test_simulate_solver_option_is_a_parse_error(good_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--instance", str(good_path), "--seed", "1",
              "--out", str(tmp_path), "--solver", "bruteforce"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --solver bruteforce" in capsys.readouterr().err


def test_cdlp_rejects_nan_eps(good_path, capsys):
    code = main(["cdlp", "--instance", str(good_path), "--eps", "nan"])
    assert code == 1
    assert "eps must be finite and nonnegative" in capsys.readouterr().out


def test_simulate_report_structure(good_path, tmp_path):
    out = tmp_path / "run"
    code = main([
        "simulate", "--instance", str(good_path), "--policies", "fcfs,pr,opr",
        "--reps", "50", "--seed", "5", "--grid", "400", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "instance-id,policy,M,mean,ci_half_width,V_CDLP,ratio,seed"
    assert len(lines) == 4
    v_cdlp = {line.split(",")[5] for line in lines[1:]}
    assert len(v_cdlp) == 1  # all policies share the plan value


def test_simulate_theta_sweep_rows(good_path, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "simulate", "--instance", str(good_path), "--policies", "fcfs",
        "--reps", "20", "--seed", "5", "--grid", "400",
        "--theta", "1,4", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "@theta1" in lines[1] and "@theta4" in lines[2]


def test_simulate_rerun_byte_identical(good_path, tmp_path):
    args = lambda out: [
        "simulate", "--instance", str(good_path), "--policies", "fcfs,opr",
        "--reps", "40", "--seed", "9", "--grid", "400", "--trace", "--dump-grids",
        "--out", str(out),
    ]
    assert main(args(tmp_path / "a")) == 0
    assert main(args(tmp_path / "b")) == 0
    for name in ("report.csv", "trace_inst_fcfs.csv", "trace_inst_opr.csv",
                 "grid_inst_resource1.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_workers_match_serial(good_path, tmp_path):
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    base = [
        "simulate", "--instance", str(good_path), "--policies", "fcfs",
        "--reps", "30", "--seed", "3", "--grid", "400",
    ]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--out", str(pooled), "--workers", "2"]) == 0
    assert (serial / "report.csv").read_bytes() == (pooled / "report.csv").read_bytes()


def test_simulate_rejects_unknown_policy(good_path, tmp_path, capsys):
    code = main([
        "simulate", "--instance", str(good_path), "--policies", "fcfs,greedy",
        "--reps", "10", "--seed", "1", "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "unknown policies" in capsys.readouterr().out


def test_simulate_rejects_bad_theta(good_path, tmp_path, capsys):
    code = main([
        "simulate", "--instance", str(good_path), "--policies", "fcfs",
        "--reps", "10", "--seed", "1", "--theta", "0", "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "theta" in capsys.readouterr().out


def test_simulate_rejects_infinite_eps(good_path, tmp_path, capsys):
    code = main([
        "simulate", "--instance", str(good_path), "--policies", "fcfs",
        "--reps", "10", "--seed", "1", "--eps", "inf", "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "eps must be finite and nonnegative" in capsys.readouterr().out


@pytest.mark.parametrize("theta", ["nan", "inf", "2,inf", "1,nan"])
def test_simulate_rejects_non_finite_theta(good_path, tmp_path, capsys, theta):
    code = main([
        "simulate", "--instance", str(good_path), "--policies", "fcfs",
        "--reps", "10", "--seed", "1", "--theta", theta, "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "error: bad --theta value" in capsys.readouterr().out
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("theta", ["16,16", "1,1.0000001", "4,2,4.0"])
def test_simulate_refuses_thetas_that_print_alike(good_path, tmp_path, capsys, theta):
    # runs are tagged f"{theta:g}", so two such runs would write one report
    # row tag, trace and grid dump each
    code = main([
        "simulate", "--instance", str(good_path), "--policies", "fcfs,pr",
        "--reps", "10", "--seed", "1", "--theta", theta, "--dump-grids", "--trace",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "print alike" in capsys.readouterr().out
    assert not (tmp_path / "x").exists()


def test_verify_inequality_suite(capsys):
    assert main(["verify", "--suite", "inequality"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_rejects_bad_overrides(capsys):
    assert main(["verify", "--suite", "inequality", "--reps", "5"]) == 1
    assert "--reps" in capsys.readouterr().out


def test_verify_bounds_with_fewer_reps_than_hindsight_paths(capsys):
    # the bounds suite pairs each run's first rewards with per-path
    # hindsight bounds, so it must not draw more paths than replications
    assert main(["verify", "--suite", "bounds", "--reps", "20", "--instances", "1"]) in (0, 4)
    assert "checks passed" in capsys.readouterr().out


def test_verify_propagates_type_error_from_suite(monkeypatch):
    def broken_suite(reps: int = 10, seed: int = 0):
        raise TypeError("defect inside the suite")

    monkeypatch.setitem(SUITES, "inequality", broken_suite)
    with pytest.raises(TypeError, match="defect inside the suite"):
        main(["verify", "--suite", "inequality", "--reps", "5"])


def test_spike_smoke(tmp_path, capsys):
    code = main([
        "spike", "--sharpness", "1,4", "--reps", "60", "--seed", "2",
        "--grid", "400", "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "spike.csv").read_text().splitlines()
    assert len(lines) == 3


def test_spike_command_writes_the_spike_suite_sweep(tmp_path):
    seed = 3
    assert main(["spike", "--sharpness", "1,8", "--reps", "500", "--seed", str(seed),
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "spike.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    sweep = _opr_sweep(*_spike_cases((1, 8), seed), 500, grid_size=DEFAULT_GRID_SIZE)
    assert [(float(r["mean"]), float(r["V_CDLP"]), float(r["ratio"])) for r in rows] == \
        [(run.mean, plan, ratio) for _, run, plan, ratio, _ in sweep]
    [check] = suite_spike(sharpness=(1, 8), reps=500, seed=seed)
    assert check.detail == ", ".join(
        f"s={float(r['sharpness']):g}: {float(r['ratio']):.4f}"
        f"±{float(r['ci_half_width']) / float(r['V_CDLP']):.4f}" for r in rows)


@pytest.mark.parametrize("sharpness", ["1,x", "0.5", "inf"])
def test_spike_rejects_bad_sharpness(sharpness, capsys):
    assert main(["spike", "--sharpness", sharpness, "--reps", "10", "--seed", "1"]) == 1
    assert "error: bad --sharpness value" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["cdlp", "simulate"])
@pytest.mark.parametrize("kind", ["attraction", "mixture", "table"])
@pytest.mark.parametrize("solver", ["auto", "bruteforce"])
def test_every_solver_on_every_model_kind_exits_cleanly(solver, kind, command,
                                                        tmp_path, capsys, monkeypatch):
    # the CLI plans with cdlp._auto; the brute force is swapped in under it
    # to run the same commands with the other exact subproblem solver.
    # opr on a table that is not removal-monotone is a domain error
    fn = {"auto": cdlp._auto, "bruteforce": assortment_subproblem_bruteforce}[solver]
    monkeypatch.setattr(cli, "solve_cdlp", functools.partial(solve_cdlp, solver=fn))
    path = tmp_path / f"{kind}.json"
    dump_instance(random_instance(4, max_products=4, model_kinds=(kind,)), path)
    argv = [command, "--instance", str(path)]
    if command == "simulate":
        argv += ["--reps", "20", "--seed", "1", "--grid", "200", "--out", str(tmp_path / "run")]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 3)
    assert "Traceback" not in out + err
    if code == 1:
        assert "error: " in out


def test_dump_and_load_roundtrip(tmp_path):
    for seed in (0, 5):
        inst = random_instance(seed, model_kinds=("attraction", "mixture", "table"))
        path = tmp_path / f"rt{seed}.json"
        dump_instance(inst, path)
        again = load_instance(path)
        assert again.resources == inst.resources
        assert again.products == inst.products
        for a, b in zip(again.types, inst.types):
            assert a.rate == b.rate
            assert a.reward_override == b.reward_override
            assert type(a.choice) is type(b.choice)
            if isinstance(b.choice, TabulatedChoiceModel):
                assert a.choice.table == b.choice.table
                assert a.choice.num_products == b.choice.num_products
            else:
                assert a.choice == b.choice


@pytest.mark.parametrize("policies", ["pr", "fcfs"])
def test_grid_dump(policies, good_path, tmp_path):
    # fcfs reads no grid, but --dump-grids builds and writes them anyway
    out = tmp_path / "grids"
    code = main([
        "simulate", "--instance", str(good_path), "--policies", policies,
        "--reps", "10", "--seed", "1", "--grid", "150",
        "--out", str(out), "--dump-grids",
    ])
    assert code == 0
    grid_file = out / "grid_inst_resource1.csv"
    assert grid_file.exists()
    lines = grid_file.read_text().splitlines()
    assert lines[0] == "t,c,V"
    t, c, v = lines[1].split(",")
    assert float(t) == 0.0 and c == "0" and float(v) == 0.0
    assert "np.float64" not in lines[1]
    # level-major rows on the uniform axis of the surface, t written as
    # the repr of each axis double
    G, C = 150, 1
    axis = [repr(float(x)) for x in np.linspace(0.0, 1.0, G + 1)]
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == (C + 1) * (G + 1)
    assert [r[1] for r in rows] == [str(c) for c in range(C + 1) for _ in axis]
    assert [r[0] for r in rows] == axis * (C + 1)
    # pinned bytes: the axis the CLI builds is the one the surface was solved on
    assert hashlib.sha256(grid_file.read_bytes()).hexdigest() == (
        "5cadd4a496fc10e47faed6c3965f8623bde76f670b80b621ae67ee2e3796c814")
