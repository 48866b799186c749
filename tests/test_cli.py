"""End-to-end tests of the command-line interface: exit codes, report formats,
determinism, configuration layering, and the report validator."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from parind_lab import cli
from parind_lab import hvaudit as hv

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _pinned_commands():
    """The benchmark's pinned CLI configs: (name, argv, extension, seeded)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CliReports.commands


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# One parser per process


def test_calls_in_one_process_match_fresh_processes(capsys):
    """`main` builds its parser once per process.  Two subcommands, a usage
    error and a good call after it each give, in one process, the exit code,
    report and messages of a fresh process."""
    calls = [
        ["chain", "--N", "1,2", "--format", "csv"],
        ["lemma", "--r", "6", "--J", "1", "--seed", "0"],
        ["dim", "--N", "1", "--no-such-flag"],
        ["dim", "--coeffs", "1/6,1/4,1/4,1/3", "--N", "1,2"],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    codes = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "parind_lab.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert captured.out or captured.err
        codes.append(code)
    assert codes == [0, 0, 2, 0]
    assert cli._parser() is cli._parser()


# ---------------------------------------------------------------------------
# Exit codes


def test_chain_sweep_passes(capsys):
    code, out, _ = run(capsys, "chain", "--N", "1,2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("command,")
    assert len(lines) == 3
    assert "0.5857864376269049" in out  # frozen N = 2 chain value


def test_unknown_flag_value_is_config_error(capsys):
    code, _, err = run(capsys, "chain", "--N", "two")
    assert code == 2
    assert "config error:" in err


def test_out_of_domain_value_is_config_error(capsys):
    # parses as an int but fails the construction's own validation
    code, _, err = run(capsys, "chain", "--N", "0")
    assert code == 2
    assert "config error:" in err
    assert "chain depth" in err


@pytest.mark.parametrize("command", ["sqrt-rational", "arbitrary"])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_chain_depth_below_one_is_config_error(capsys, command, depth):
    """The library refuses N < 1 on the spec-only routes as `chain` and `dim`
    do through their chain spec: no traceback, no failed row."""
    code, out, err = run(capsys, command, "--N", depth)
    assert code == 2
    assert f"chain depth N must be >= 1, got {depth}" in err
    assert out == ""


def test_one_slot_pair_chain_is_config_error(capsys):
    """With r = 1 the only "pair" is one slot with itself, which the literal
    chain route refuses too."""
    code, out, err = run(capsys, "sqrt-rational", "--coeffs", "1")
    assert code == 2
    assert "two distinct indices" in err
    assert out == ""


def test_dim_without_equal_pair_is_config_error(capsys):
    code, _, err = run(capsys, "dim", "--coeffs", "1/6,1/3,1/2")
    assert code == 2
    assert "equal pair" in err


def test_zero_workers_is_config_error(capsys):
    code, out, err = run(capsys, "chain", "--N", "1", "--workers", "0")
    assert code == 2
    assert "--workers must be >= 1" in err
    assert out == ""


@pytest.mark.parametrize("command", ["pc", "couple", "lemma", "audit"])
def test_zero_workers_is_config_error_on_serial_commands(capsys, command):
    """Commands that never start a pool still refuse --workers 0."""
    code, out, err = run(capsys, command, "--workers", "0")
    assert code == 2
    assert "--workers must be >= 1" in err
    assert out == ""


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_tol_outside_finite_nonnegative_is_config_error(capsys, tol):
    """A negative or nan tolerance fails every verdict and an infinite one
    passes every verdict, so each is a config error (exit 2), not a verdict."""
    code, out, err = run(capsys, "chain", "--N", "1", "--tol", tol)
    assert (code, out) == (2, "")
    assert "--tol must be a finite number >= 0" in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-1e-9"])
def test_config_tol_outside_finite_nonnegative_is_config_error(capsys, tmp_path, value):
    config = tmp_path / "tol.json"
    config.write_text('{"tol": %s}' % value)
    code, out, err = run(capsys, "sqrt-rational", "--N", "1", "--config", str(config))
    assert (code, out) == (2, "")
    assert "--tol must be a finite number >= 0" in err


def test_unknown_fixture_is_config_error(capsys):
    code, _, err = run(capsys, "audit", "--model", "bohmian")
    assert code == 2
    assert "config error:" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("dim", "--N", "1", "--coeffs", ""), "--coeffs"),
        (("arbitrary", "--coeffs", ""), "--coeffs"),
        (("audit", "--N-max", "1", "--model", ""), "--model"),
        (("arbitrary", "--model", ""), "--model"),
    ],
)
def test_empty_value_is_config_error_not_the_default(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"config error: {flag} must not be empty")
    assert out == ""


def test_zero_instances_is_config_error_not_the_default(capsys):
    code, out, err = run(capsys, "couple", "--instances", "0")
    assert code == 2
    assert "--instances must be >= 1, got 0" in err
    assert out == ""


def test_zero_chain_depth_limit_is_config_error_not_the_default(capsys):
    code, out, err = run(capsys, "audit", "--N-max", "0")
    assert code == 2
    assert "--N-max must be >= 1, got 0" in err
    assert out == ""


def test_zero_tolerance_is_honoured(capsys):
    code, out, _ = run(capsys, "chain", "--N", "1,2", "--tol", "0", "--format", "json")
    report = json.loads(out)
    assert report["parameters"]["tol"] == 0.0
    # N = 2 misses its closed form by one ulp, which only a zero tolerance fails
    assert [row["verdict"] for row in report["rows"]] == ["pass", "fail"]
    assert code == 1


# ---------------------------------------------------------------------------
# Determinism


def test_output_is_identical_across_worker_counts(capsys):
    outputs = set()
    for workers in ("1", "3"):
        _, out, _ = run(
            capsys, "chain", "--N", "1,2,4", "--format", "csv", "--workers", workers
        )
        outputs.add(out)
    assert len(outputs) == 1


def test_config_file_workers_match_serial_run(capsys, tmp_path):
    config = tmp_path / "workers.json"
    config.write_text(json.dumps({"workers": 2}))
    argv = ("chain", "--N", "1,2,4", "--format", "csv")
    _, serial, _ = run(capsys, *argv, "--workers", "1")
    _, pooled, _ = run(capsys, *argv, "--config", str(config))
    assert serial == pooled


def test_seeded_commands_are_reproducible(capsys):
    a = run(capsys, "pc", "--n", "60", "--seed", "5", "--format", "csv")
    b = run(capsys, "pc", "--n", "60", "--seed", "5", "--format", "csv")
    assert a == b


# ---------------------------------------------------------------------------
# Config layering


def test_config_file_supplies_defaults_and_flags_win(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"N": "4,8", "format": "csv"}))
    _, from_config, _ = run(capsys, "chain", "--config", str(config))
    assert from_config.count("\n") == 3  # header + two rows
    _, overridden, _ = run(capsys, "chain", "--config", str(config), "--N", "1")
    lines = overridden.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "1"


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"depth": 3}))
    code, _, err = run(capsys, "chain", "--config", str(config))
    assert code == 2
    assert "depth" in err


@pytest.mark.parametrize(
    "command, own, rows, foreign",
    [
        ("chain", {"N": "1", "tol": 1e-9, "format": "csv", "workers": 1}, 1,
         {"seed": 5, "model": "bohmian", "r": 10, "N_max": 2, "file": "report.csv",
          "lenient": True, "config": "x", "command": "x", "help": "x"}),
        ("lemma", {"r": 10, "J": "0,1", "seed": 1, "format": "csv"}, 3,
         {"N": "1", "tol": 0.0, "instances": 2, "model": "trivial"}),
    ],
    ids=["chain", "lemma"],
)
def test_config_file_takes_only_the_subcommand_flags(capsys, tmp_path, command, own, rows, foreign):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(own))
    code, out, _ = run(capsys, command, "--config", str(config))
    assert code == 0
    assert out.count("\n") == rows + 1
    for key, value in foreign.items():
        config.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, command, "--config", str(config))
        assert (code, out) == (2, "")
        assert f"unknown config keys for {command}: [{key!r}]" in err


@pytest.mark.parametrize(
    "argv, payload, key",
    [
        (("chain",), {"N": [1.9]}, "N"),
        (("chain",), {"N": [True, 2]}, "N"),
        (("lemma",), {"r": 10.5}, "r"),
        (("couple",), {"instances": True}, "instances"),
        (("couple",), {"tol": True}, "tol"),
        (("audit",), {"N_max": 2.7}, "N_max"),
        (("chain",), {"workers": 1.5}, "workers"),
        (("chain",), {"format": "xml"}, "format"),
        (("chain",), {"out": 5}, "out"),
        (("validate", "report.csv"), {"lenient": 1}, "lenient"),
    ],
    ids=["N-float", "N-bool", "r-float", "instances-bool", "tol-bool", "N_max-float",
         "workers-float", "format-choice", "out-int", "lenient-int"],
)
def test_config_value_gets_the_checks_of_its_flag(capsys, tmp_path, argv, payload, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith("config error: ")
    assert key in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "chain", "--N", "1", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    assert out == ""  # nothing on stdout when writing to a file
    assert target.read_text().startswith("command,")


# ---------------------------------------------------------------------------
# Flags: each subcommand takes only the flags its handler reads

# (subcommand, destination) pairs declared but never read, with the reason
UNREAD_FLAGS = {
    ("embezzle", "N"): "the pinned benchmark argv and the README example pass --N",
}


def config_reads(source: str, handler: str) -> set[str]:
    """The config keys `handler` in module `source` reads, through
    `cfg.get("k")`, `_option(cfg, "k", ...)` or `cfg["k"]`, in the handler and
    in the module-level functions it calls."""
    functions = {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
    }

    def key(node: ast.expr) -> str | None:
        return node.value if isinstance(node, ast.Constant) else None

    reads: set[str] = set()
    pending, seen = [handler], set()
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "cfg":
                reads.add(key(node.slice))
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute) and func.attr == "get"
                    and getattr(func.value, "id", None) == "cfg"
                ):
                    reads.add(key(node.args[0]))
                elif isinstance(func, ast.Name) and func.id in functions:
                    if func.id == "_option":
                        reads.add(key(node.args[1]))
                    pending.append(func.id)
    return reads - {None}


def test_scan_follows_helpers_and_every_read_form():
    source = (
        "def _option(cfg, key, default):\n    return cfg.get(key)\n"
        "def _helper(cfg):\n    return cfg['b']\n"
        "def _unused(cfg):\n    return cfg.get('z')\n"
        "def run_x(cfg):\n"
        "    other = {}\n"
        "    return cfg.get('a'), _helper(cfg), _option(cfg, 'c', 1), other.get('y')\n"
    )
    assert config_reads(source, "run_x") == {"a", "b", "c"}


def declared_flags() -> dict[str, set[str]]:
    parser = cli.build_parser()
    [subparsers] = [a for a in parser._actions if a.dest == "command"]
    return {
        name: {a.dest for a in sub._actions if a.dest != "help"}
        for name, sub in subparsers.choices.items()
    }


def test_every_declared_flag_is_read():
    source = inspect.getsource(cli)
    expected = {
        name: config_reads(source, command.handler)
        | set(cli._REPORT_FLAGS)
        | {dest for sub, dest in UNREAD_FLAGS if sub == name}
        for name, command in cli._COMMANDS.items()
    }
    assert declared_flags() == expected


REMOVED_FLAGS = {
    "chain": ("--n", "--l", "--coeffs", "--model", "--seed", "--state"),
    "dim": ("--n", "--l", "--model", "--seed"),
    "sqrt-rational": ("--l", "--model", "--seed"),
    "arbitrary": ("--seed",),
    "lemma": ("--N", "--n", "--l", "--coeffs", "--model", "--tol"),
    "embezzle": ("--model", "--seed"),
    "pc": ("--N", "--l", "--model"),
    "couple": ("--N", "--n", "--l", "--coeffs", "--model"),
    "audit": ("--N", "--n", "--l", "--coeffs", "--seed", "--state"),
}
SAMPLE_VALUES = {
    "--N": "4", "--n": "60", "--l": "3", "--coeffs": "1/2,1/2", "--model": "x",
    "--seed": "5", "--tol": "0", "--state": "bell",
}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in REMOVED_FLAGS.items() for flag in flags],
)
def test_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, command, flag):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, flag, SAMPLE_VALUES[flag]])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


# ---------------------------------------------------------------------------
# Subcommand smoke results


def test_lemma_direct_and_complement_routes(capsys):
    code, out, _ = run(capsys, "lemma", "--r", "10", "--J", "0,1", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["coefficient"] == "8/5"
    assert report["passed"]
    assert all(row["exact"] for row in report["rows"])
    # oversized subsets go through the complement identity
    code, out, _ = run(capsys, "lemma", "--r", "10", "--J", "0,1,2,3,4,5")
    assert code == 0
    report = json.loads(out)
    assert report["parameters"]["via_complement"]
    assert report["coefficient"] == "6/5"
    assert report["passed"]


def test_audit_model_file_and_findings(capsys, tmp_path):
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps({"fixture": "local-cosine", "grid_points": 8}))
    code, out, _ = run(
        capsys, "audit", "--model", str(model_file), "--N-max", "2", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["findings"]["refuting_N"] == 2
    assert not report["findings"]["compquant_passed"]


def test_audit_model_file_sets_the_fixture_parameters(capsys, tmp_path, monkeypatch):
    built = []
    original = hv.fixture_model

    def recording(name, **params):
        built.append(original(name, **params))
        return built[-1]

    monkeypatch.setattr(hv, "fixture_model", recording)
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps({"fixture": "local-cosine", "grid_points": 4}))
    code, _, _ = run(capsys, "audit", "--model", str(model_file), "--N-max", "2")
    assert code == 0
    [(model, space)] = built
    assert model.grid_points == 4
    assert space.points == (0, 1, 2, 3)


@pytest.mark.parametrize(
    "payload, messages",
    [
        pytest.param(
            {"fixture": "local-cosine", "grid_point": 4},
            ["'grid_point'", "accepted parameters: grid_points"],
            id="unknown-key",
        ),
        pytest.param({"fixture": "local-cosine", "grid_points": 4.5}, ["got 4.5"], id="float-grid"),
        pytest.param(
            {"fixture": "local-cosine", "grid_points": True}, ["got True"], id="bool-grid"
        ),
        pytest.param({"fixture": "local-cosine", "grid_points": "3"}, ["got '3'"], id="text-grid"),
        pytest.param({"fixture": "signalling-toy", "shift": True}, ["got True"], id="bool-shift"),
        pytest.param(
            {"fixture": "signalling-toy", "shift": "0.1"}, ["got '0.1'"], id="text-shift"
        ),
    ],
)
def test_audit_model_file_with_a_bad_parameter_is_config_error(
    capsys, tmp_path, payload, messages
):
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "audit", "--model", str(model_file), "--N-max", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    for message in messages:
        assert message in err


def test_audit_reports_model_refusals(capsys):
    code, out, _ = run(
        capsys, "audit", "--model", "signalling-toy", "--N-max", "4", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["findings"]["undefined_N"] == [3, 4]
    assert report["findings"]["parind_first_failure"]["deviation"] == pytest.approx(0.1)
    undefined_rows = [r for r in report["rows"] if r["undefined"]]
    assert {r["N"] for r in undefined_rows} == {3, 4}
    for row in undefined_rows:
        assert row["verdict"] == "pass"  # Born integrity still checked


def test_embezzle_reports_decreasing_infidelity(capsys):
    code, out, _ = run(
        capsys, "embezzle", "--n", "50,100,200", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    infidelities = [row["one_minus_fidelity"] for row in report["rows"]]
    assert infidelities == sorted(infidelities, reverse=True)


def test_sqrt_rational_convergence_block(capsys):
    code, out, _ = run(
        capsys, "sqrt-rational", "--N", "2", "--n", "50,100", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert report["convergence"][0]["decreasing"]


def test_pc_all_events_vanish(capsys):
    code, out, _ = run(capsys, "pc", "--n", "80", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert all(row["mismatch"] <= 1e-12 for row in report["rows"])


def test_arbitrary_epsilon_ledger(capsys):
    code, out, _ = run(
        capsys,
        "arbitrary", "--N", "2", "--l", "3", "--n", "60,120", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    eps = [row["achieved_epsilon"] for row in report["rows"]]
    assert eps[1] < eps[0]


@pytest.mark.parametrize(
    "model, premise",
    [
        ("signalling-toy", "parameter independence"),
        ("deterministic-chain", "quantum completeness"),
    ],
)
@pytest.mark.parametrize("workers", ["1", "2"])
def test_arbitrary_refuses_non_compliant_fixtures_as_verdict_failures(
    capsys, model, premise, workers
):
    code, out, err = run(capsys, "arbitrary", "--model", model, "--workers", workers)
    assert code == 1
    assert out == ""
    assert err.startswith(f"verdict failure: model {model!r} fails {premise}: ")


# ---------------------------------------------------------------------------
# Report validation


def chain_csv(capsys, tmp_path, name="chain.csv"):
    target = tmp_path / name
    run(capsys, "chain", "--N", "1,2", "--format", "csv", "--out", str(target))
    return target


def test_validate_accepts_generated_reports(capsys, tmp_path):
    target = chain_csv(capsys, tmp_path)
    code, out, _ = run(capsys, "validate", str(target), "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"]


def test_validate_catches_corrupted_cells(capsys, tmp_path):
    target = chain_csv(capsys, tmp_path)
    lines = target.read_text().splitlines()
    header = lines[0].split(",")
    column = header.index("closed_form")
    row = lines[1].split(",")
    row[column] = "0.9999"
    lines[1] = ",".join(row)
    target.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "validate", str(target), "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    assert any("closed_form" in d and "recomputed" in d for d in report["diagnostics"])


def test_validate_strict_flags_extra_columns_lenient_allows(capsys, tmp_path):
    target = chain_csv(capsys, tmp_path)
    lines = target.read_text().splitlines()
    lines[0] += ",note"
    lines[1:] = [line + ",hello" for line in lines[1:]]
    target.write_text("\n".join(lines) + "\n")
    strict_code, _, _ = run(capsys, "validate", str(target))
    assert strict_code == 1
    lenient_code, _, _ = run(capsys, "validate", str(target), "--lenient")
    assert lenient_code == 0


def test_validate_missing_file_is_config_error(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.csv"))
    assert code == 2
    assert "does not exist" in err


_CHAIN_JSON_FIELDS = {"command": "chain", "parameters": {}, "passed": True}


@pytest.mark.parametrize(
    "name, text, diagnostic",
    [
        ("blank.csv", "command,N,value\n\nchain,1,0.5\n", "row 0 has 0 cells under 3 columns"),
        ("ragged.csv", "command,N\nchain,1,0.5\n", "row 0 has 3 cells under 2 columns"),
        ("list.json", "[1, 2]", "top level is not a JSON object"),
        ("command.json", json.dumps({"command": ["chain"]}), "unknown or missing command"),
        ("columns.json", json.dumps({**_CHAIN_JSON_FIELDS, "columns": 5, "rows": []}),
         "columns must be a list and rows a list of objects"),
        ("rows.json", json.dumps({**_CHAIN_JSON_FIELDS, "columns": [], "rows": [1]}),
         "columns must be a list and rows a list of objects"),
    ],
    ids=["blank-csv-row", "ragged-csv-row", "json-list", "json-command-list",
         "json-columns-int", "json-rows-int"],
)
def test_validate_reports_a_malformed_file(capsys, tmp_path, name, text, diagnostic):
    target = tmp_path / name
    target.write_text(text)
    code, out, _ = run(capsys, "validate", str(target), "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    [recorded] = report["diagnostics"]
    assert recorded.startswith(diagnostic)


def test_validate_json_report_roundtrip(capsys, tmp_path):
    target = tmp_path / "audit.json"
    run(
        capsys, "audit", "--model", "trivial", "--N-max", "2",
        "--format", "json", "--out", str(target),
    )
    code, _, _ = run(capsys, "validate", str(target))
    assert code == 0


@pytest.mark.parametrize(
    "name, argv, ext, seeded", [pytest.param(*c, id=c[0]) for c in _pinned_commands()]
)
def test_pinned_reports_match_goldens_and_validate(capsys, tmp_path, name, argv, ext, seeded):
    target = tmp_path / f"{name}.{ext}"
    seed = ("--seed", "0") if seeded else ()
    code, _, _ = run(capsys, *argv, *seed, "--workers", "1", "--out", str(target))
    assert code == 0
    assert target.read_bytes() == (BENCH / "goldens" / "cli" / target.name).read_bytes()
    code, out, _ = run(capsys, "validate", str(target))
    assert code == 0
    assert json.loads(out)["passed"]
