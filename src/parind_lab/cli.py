"""Batch experiment driver.

Each subcommand reproduces one family of numerical experiments as a
deterministic report: chained-correlation sweeps (`chain`, `dim`), the
rational- and approximant-coefficient extraction routes (`sqrt-rational`,
`arbitrary`), the half-subset window identity (`lemma`), extraction fidelity
sweeps (`embezzle`), perfect-correlation transfer (`pc`), measurement
couplings (`couple`), hidden-variable model audits (`audit`), and report
re-validation (`validate`).

Reports are CSV for sweep tables and JSON for nested audit output; both are
byte-identical for a fixed config and seed (no timestamps, sorted keys,
fixed float repr).  Sweeps over parameter grids honor the repeated-limit
ordering: n varies innermost, then l, then N, and the report records
per-level convergence of the tracked quantity.  Exit status 0 means every
verdict passed; 1 flags a failed verdict; 2 flags an invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import random
import sys
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import chained_bell as cb
from . import couplings
from . import embezzle as ez
from . import halfsum
from . import hvaudit as hv
from .qcore import SparseState, SystemRegistry, span_projector, squared_norm

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """Invalid configuration: wrong flag values, malformed config file, or
    parameters that violate a module precondition."""


# ---------------------------------------------------------------------------
# Parsing and report plumbing


def _parse_int_list(text: str | list | tuple, flag: str) -> tuple[int, ...]:
    tokens = (
        list(text)
        if isinstance(text, (list, tuple))
        else [tok for tok in str(text).split(",") if tok.strip()]
    )
    try:
        # int() would truncate a float and read a bool as 0 or 1
        if any(isinstance(tok, (bool, float)) for tok in tokens):
            raise ValueError
        values = tuple(int(tok) for tok in tokens)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{flag} expects a comma list of integers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    # a size, depth or index past int64 would end in an OverflowError downstream
    if any(v >= 2**63 for v in values):
        raise ConfigError(f"{flag} values must be below 2**63, got {text!r}")
    # a grid level or subset index listed twice would be a second level or
    # index with the same value, which the level and subset rules cannot tell
    if len(set(values)) < len(values):
        repeated = next(v for v in values if values.count(v) > 1)
        raise ConfigError(f"{flag} repeats the value {repeated}, got {text!r}")
    return values


# The largest chain depth `--N` and `--N-max` take, as `lemma --r` takes at
# most 10**6: a chain holds 2N + 1 settings and an audit N_max chains, so a
# deeper one would end in a MemoryError or OverflowError, not a report.
_MAX_DEPTH = 10**6


def _parse_depths(text: str | list | tuple) -> tuple[int, ...]:
    depths = _parse_int_list(text, "--N")
    if any(N > _MAX_DEPTH for N in depths):
        raise ConfigError(f"--N values must be at most 10**6, got {text!r}")
    return depths


def _parse_fraction_list(text: str | list | tuple, flag: str) -> tuple[Fraction, ...]:
    tokens = (
        [str(t) for t in text]
        if isinstance(text, (list, tuple))
        else [tok for tok in str(text).split(",") if tok.strip()]
    )
    values = []
    for token in tokens:
        try:
            values.append(Fraction(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(
                f"{flag} expects fractions like 1/3,2/3, got {token!r}"
            ) from exc
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    return tuple(values)


def _option(cfg: dict, key: str, default: object) -> object:
    """`cfg[key]`, or `default` where the key is unset; an explicit 0 stays 0."""
    value = cfg.get(key)
    return default if value is None else value


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return "|".join(_cell(v) for v in value)
    return "" if value is None else str(value)


def _jsonable(value: object) -> object:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _render_csv(report: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    columns = report["columns"]
    writer.writerow(columns)
    for row in report["rows"]:
        writer.writerow([_cell(row.get(col)) for col in columns])
    return buffer.getvalue()


def _write_report(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "csv":
        text = _render_csv(report)
    else:
        text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report to {out!r}: {exc.strerror}") from exc


def _read_text(path: Path, what: str) -> str:
    """The text of the `what` file at `path`, newlines as written; a path that
    cannot be read is a config error naming it."""
    try:
        with path.open(newline="") as handle:
            return handle.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} {str(path)!r} does not exist") from exc
    except OSError as exc:
        raise ConfigError(f"{what} {str(path)!r} cannot be read: {exc.strerror}") from exc


def _resolve_workers(cfg: dict) -> int:
    """`--workers` (checked by `_merge_config`), else the CPU count."""
    if cfg.get("workers") is not None:
        return int(cfg["workers"])
    return os.cpu_count() or 1


def _map_grid(fn, points: list, workers: int) -> list:
    """Evaluate grid points, preserving order; one writer aggregates results."""
    if workers <= 1 or len(points) <= 1:
        return [fn(p) for p in points]
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
            return list(pool.map(fn, points))
    except OSError:
        return [fn(p) for p in points]


def _monotone_decreasing(values: list[float], strict: bool = True) -> bool:
    pairs = zip(values, values[1:])
    return all(b < a if strict else b <= a for a, b in pairs)


def _squares(cfg: dict, default: str) -> tuple[Fraction, ...]:
    """`--coeffs` as exact squared coefficients, which must sum to exactly 1."""
    squares = _parse_fraction_list(_option(cfg, "coeffs", default), "--coeffs")
    if sum(squares) != 1:
        raise ConfigError(f"squared coefficients must sum to 1, got {sum(squares)}")
    return squares


def _levels(
    rows: list[dict], size: int, level: tuple[str, ...], inner: str, column: str,
    strict: bool = False,
) -> list[dict]:
    """The per-level convergence of `column`: one entry per run of `size`
    consecutive rows, holding the run's `level` cells, its `inner` and
    `column` cells as lists, and whether `column` decreases along the run."""
    entries = []
    for start in range(0, len(rows), size):
        run = rows[start:start + size]
        values = [row[column] for row in run]
        entries.append({
            **{key: run[0][key] for key in level}, inner: [row[inner] for row in run],
            column: values, "decreasing": _monotone_decreasing(values, strict),
        })
    return entries


def _set_level_gaps(rows: list[dict], column: str, level: tuple[str, ...]) -> None:
    """Set each row's `level_gap`: the change in `column` since the previous row
    of the same level (equal values of the `level` columns), None where a level
    starts."""
    previous = None
    for row in rows:
        same = previous is not None and all(row[k] == previous[k] for k in level)
        row["level_gap"] = row[column] - previous[column] if same else None
        previous = row


# ---------------------------------------------------------------------------
# The command table: one entry per subcommand


def _abs_difference(minuend: str, subtrahend: str):
    return lambda row: abs(float(row[minuend]) - float(row[subtrahend]))


def _closed_form_columns(closed_form, bound) -> tuple:
    """The columns that end chain and dim rows: the measured chain value against
    its closed form and bound, which the rules `closed_form` and `bound` write
    from the row's other cells; `_closed_form_verdicts` reads them."""
    return (
        "value",
        ("closed_form", closed_form),
        ("bound", bound),
        ("closed_form_deviation", _abs_difference("value", "closed_form")),
        "bound_holds",
        "verdict",
    )


def _lemma_coefficient(row: dict) -> Fraction:
    J = row["J"]
    if isinstance(J, (list, tuple)):
        size = len(J)
    else:
        tokens = str(J).strip("()[]").replace("|", ",").split(",")
        size = len([tok for tok in tokens if tok.strip()])
    return halfsum.bound_coefficient(int(row["r"]), size)


# Every flag, keyed by its destination.  A subcommand takes the flags its
# `_Command.flags` names plus `_REPORT_FLAGS`; any other flag is a usage error.
_FLAGS = {
    "file": ("file", {"type": str, "help": "report file to validate (.csv or .json)"}),
    "N": ("--N", {"help": "comma list of chain depths"}),
    "n": ("--n", {"help": "comma list of precisions"}),
    "l": ("--l", {"help": "comma list of approximant levels"}),
    "coeffs": ("--coeffs", {"help": "comma list of squared coefficients (fractions)"}),
    "model": ("--model", {"type": str, "help": "model fixture name or JSON file path"}),
    "r": ("--r", {"type": int, "help": "even sequence length"}),
    "J": ("--J", {"help": "comma list of distinguished indices"}),
    "instances": ("--instances", {"type": int, "help": "random instances to run"}),
    "N_max": ("--N-max", {"type": int, "help": "audit chains up to this depth"}),
    "seed": ("--seed", {"type": int, "help": "seed for randomized audits"}),
    "tol": ("--tol", {"type": float, "help": "verdict tolerance"}),
    "lenient": ("--lenient", {"action": "store_true", "default": None,
                              "help": "tolerate added columns"}),
    "format": ("--format", {"choices": ("csv", "json"), "help": "report format"}),
    "out": ("--out", {"type": str, "help": "output path (default: stdout)"}),
    "workers": ("--workers", {"type": int, "help": "worker pool size"}),
    "config": ("--config", {"help": "JSON config file mirroring the flags"}),
}
_REPORT_FLAGS = ("format", "out", "workers", "config")


@dataclasses.dataclass(frozen=True)
class _Command:
    """One subcommand.

    `handler` names the module-level `run_*` function that builds the report.
    It is looked up when the command runs, so a wrapper bound to that name
    (as `bench/tracer.py` installs) is what runs.  `columns` lists the report
    columns in order, and a row holds exactly these cells.  A derived column is
    a (name, rule) pair: the rule computes the cell from the row's earlier
    cells, `_derive` writes it with that rule, and `validate` recomputes it
    with the same rule and compares exactly.  `flags` names the `_FLAGS`
    destinations the handler reads, in `--help` order; every subcommand also
    takes `_REPORT_FLAGS`.
    """

    handler: str
    format: str
    columns: tuple
    flags: tuple[str, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c if isinstance(c, str) else c[0] for c in self.columns)

    @property
    def recompute(self) -> dict:
        return dict(c for c in self.columns if not isinstance(c, str))


_COMMANDS: dict[str, _Command] = {
    "chain": _Command(
        "run_chain", "csv",
        ("command", "N", *_closed_form_columns(
            lambda row: cb.bell_chain_closed_form(int(row["N"])),
            lambda row: cb.bell_chain_bound(int(row["N"])),
        )),
        flags=("N", "tol"),
    ),
    "dim": _Command(
        "run_dim", "csv",
        ("command", "N", "d", "pair", "pair_square", *_closed_form_columns(
            lambda row: cb.ddim_chain_closed_form(int(row["N"]), float(row["pair_square"])),
            lambda row: cb.ddim_chain_bound(int(row["N"]), float(row["pair_square"])),
        )),
        flags=("coeffs", "N", "tol"),
    ),
    "sqrt-rational": _Command(
        "run_sqrt_rational", "csv",
        (
            "command", "N", "n", "r", "slots", "value",
            # 2N (2/r) sin^2(pi/4N): two rotated slots of weight 1/r each
            ("reference", lambda row: 2 * int(row["N"])
             * ez.uniform_pair_disagreement_closed_form(int(row["r"]), int(row["N"]))),
            ("gap", _abs_difference("value", "reference")),
            "gap_bound", "level_gap", "verdict",
        ),
        flags=("coeffs", "N", "n", "tol"),
    ),
    "arbitrary": _Command(
        "run_arbitrary", "csv",
        ("command", "model", "N", "l", "n", "r", "achieved_epsilon",
         "epsilon_pair", "epsilon_half", "epsilon_coefficient",
         "links_hold", "conclusion_holds", "level_gap", "verdict"),
        flags=("coeffs", "model", "N", "l", "n", "tol"),
    ),
    "lemma": _Command(
        "run_lemma", "json",
        ("command", "r", "J", "check", "lhs", "rhs", "exact",
         ("coefficient", _lemma_coefficient), "verdict"),
        flags=("r", "J", "seed"),
    ),
    "embezzle": _Command(
        "run_embezzle", "csv",
        (
            "command", "l", "n", "r", "numerators", "fidelity", "z_form",
            ("z_form_gap", lambda row: float(row["fidelity"]) - float(row["z_form"])),
            ("one_minus_fidelity", lambda row: 1.0 - float(row["fidelity"])),
            "trace_distance", "distance_bound", "lower_bound_holds",
            "distance_bound_holds", "level_gap", "verdict",
        ),
        # --N is read by nothing; the pinned benchmark argv still passes it
        flags=("coeffs", "N", "l", "n", "tol"),
    ),
    "pc": _Command(
        "run_pc", "csv", ("command", "family", "n", "event", "mismatch", "verdict"),
        flags=("coeffs", "n", "seed", "tol"),
    ),
    "couple": _Command(
        "run_couple", "csv",
        ("command", "instance", "kind", "dimension", "max_deviation", "verdict"),
        flags=("instances", "seed", "tol"),
    ),
    "audit": _Command(
        "run_audit", "json",
        ("command", "model", "N", "chain_value",
         ("chain_closed_form", lambda row: cb.bell_chain_closed_form(int(row["N"]))),
         "lhs", "model_chain_value", "refuted", "undefined", "verdict"),
        flags=("model", "N_max", "tol"),
    ),
    "validate": _Command(
        "run_validate", "json", ("command", "file", "valid", "diagnostics", "verdict"),
        flags=("file", "lenient"),
    ),
}


def _schema_diagnostics(command: str, cells, strict: bool = True) -> list[str]:
    """How `cells` (a header, or a row's cell names) depart from `command`'s
    columns: one diagnostic per missing column, and in strict mode one naming
    the added ones."""
    names = _COMMANDS[command].names
    diagnostics = [f"missing {name!r}" for name in names if name not in cells]
    added = [name for name in cells if name not in names]
    if added and strict:
        diagnostics.append(f"unexpected {added} (strict mode)")
    return diagnostics


def _derive(command: str, rows: list[dict]) -> list[dict]:
    """Write each row's derived cells with their `_COMMANDS` rules, in column
    order, so that a verdict can read them off the row.  A row that holds one
    already is refused: the rule is the cell's one formula."""
    rules = _COMMANDS[command].recompute
    for row in rows:
        written = sorted(rules.keys() & row.keys())
        if written:
            raise RuntimeError(f"a {command} row writes its derived cells {written}")
        for column, rule in rules.items():
            row[column] = rule(row)
    return rows


def _report(
    command: str, parameters: dict, rows: list[dict], passed: bool = True, **extra
) -> dict:
    """A report of `command` with its table columns; it passes when every row's
    verdict passed and `passed` holds.  Each row gets its `command` cell here,
    and a row whose cells are then not exactly the columns is refused."""
    for index, row in enumerate(rows):
        row["command"] = command
        diagnostics = _schema_diagnostics(command, row)
        if diagnostics:
            raise RuntimeError(f"{command} row {index}: " + "; ".join(diagnostics))
    return {
        "command": command,
        "parameters": parameters,
        "columns": list(_COMMANDS[command].names),
        "rows": rows,
        **extra,
        "passed": passed and all(row["verdict"] == "pass" for row in rows),
    }


# ---------------------------------------------------------------------------
# chain: two-outcome chained correlations on the Bell state


def _closed_form_verdicts(rows: list[dict], tol: float) -> list[dict]:
    """Set each chain or dim row's `bound_holds` and `verdict`, read off its
    derived `bound` and `closed_form_deviation` cells."""
    for row in rows:
        row["bound_holds"] = row["value"] <= row["bound"] + tol
        row["verdict"] = _verdict(row["closed_form_deviation"] <= tol and row["bound_holds"])
    return rows


def _chain_point(N: int) -> dict:
    report = cb.correlation_measure_IN(cb.bell_state(), cb.ChainSpec(N=N, pair=(0, 1)))
    return {"N": N, "value": report.value}


def run_chain(cfg: dict) -> dict:
    Ns = _parse_depths(_option(cfg, "N", "1,2,4,8,16"))
    tol = float(_option(cfg, "tol", 1e-12))
    rows = _derive("chain", _map_grid(_chain_point, list(Ns), _resolve_workers(cfg)))
    return _report("chain", {"state": "bell", "N": list(Ns), "tol": tol},
                   _closed_form_verdicts(rows, tol))


# ---------------------------------------------------------------------------
# dim: chained correlations on a rotated pair inside a d-dimensional state


def _dim_point(args: tuple[tuple[Fraction, ...], int, int, int]) -> dict:
    squares, lo, hi, N = args
    state = ez.phi_schmidt([math.sqrt(float(q)) for q in squares])
    spec = cb.ChainSpec(N=N, pair=(lo, hi), eigenvalue_scheme=cb.dimension_scheme)
    report = cb.correlation_measure_IN_prime(state, spec)
    return {"N": N, "d": len(squares), "pair": (lo, hi),
            "pair_square": float(squares[lo]), "value": report.value}


def run_dim(cfg: dict) -> dict:
    squares = _squares(cfg, "1/3,1/3,1/3")
    Ns = _parse_depths(_option(cfg, "N", "1,2,4,8"))
    tol = float(_option(cfg, "tol", 1e-12))
    pair = next(
        (
            (i, j)
            for i in range(len(squares))
            for j in range(i + 1, len(squares))
            if squares[i] == squares[j]
        ),
        None,
    )
    if pair is None:
        raise ConfigError("dim needs at least one equal pair of squared coefficients")
    points = [(squares, pair[0], pair[1], N) for N in Ns]
    rows = _derive("dim", _map_grid(_dim_point, points, _resolve_workers(cfg)))
    parameters = {"coeffs": [str(q) for q in squares], "pair": list(pair), "N": list(Ns), "tol": tol}
    return _report("dim", parameters, _closed_form_verdicts(rows, tol))


# ---------------------------------------------------------------------------
# sqrt-rational: exact rational squares through the extraction route


def _sqrt_rational_point(args: tuple[tuple[Fraction, ...], int, int]) -> dict:
    squares, N, n = args
    spec = ez.EmbezzleSpec.from_exact(squares, n)
    stats = ez.slot_statistics_from_spec(spec)
    ordered = sorted(spec.pairs, key=lambda p: stats.weights[p])
    lo, hi = ordered[0], ordered[-1]
    d1, _ = ez.extraction_distances(spec)
    # The squares are exact, so every c_i^2 = m_i / r and chi is the uniform
    # slot state: the `reference` rule is its pair chain's closed form.
    return {
        "N": N,
        "n": n,
        "r": spec.r,
        "slots": (lo, hi),
        "value": ez.fast_pair_chain(spec, N, lo, hi, stats).value,
        "gap_bound": 2 * N * d1,
    }


def run_sqrt_rational(cfg: dict) -> dict:
    squares = _squares(cfg, "1/3,2/3")
    Ns = _parse_depths(_option(cfg, "N", "2"))
    ns = _parse_int_list(_option(cfg, "n", "100"), "--n")
    tol = float(_option(cfg, "tol", 1e-12))
    points = [(squares, N, n) for N in Ns for n in ns]
    rows = _derive("sqrt-rational", _map_grid(_sqrt_rational_point, points, _resolve_workers(cfg)))
    for row in rows:
        row["verdict"] = _verdict(row["gap"] <= row["gap_bound"] + tol)
    _set_level_gaps(rows, "gap", ("N",))
    parameters = {
        "coeffs": [str(q) for q in squares], "N": list(Ns), "n": list(ns),
        "tol": tol, "nesting": ["N", "n (innermost)"],
    }
    return _report("sqrt-rational", parameters, rows,
                   convergence=_levels(rows, len(ns), ("N",), "n", "gap"))


# ---------------------------------------------------------------------------
# lemma: half-subset window identity and bound coefficient


def run_lemma(cfg: dict) -> dict:
    r = int(_option(cfg, "r", 10))
    J = _parse_int_list(_option(cfg, "J", "0,1"), "--J")
    seed = int(_option(cfg, "seed", 0))
    if r % 2 != 0 or r < 2:
        raise ConfigError(f"--r must be even and positive, got {r}")
    if r > 10**6:
        raise ConfigError(f"--r must be at most 10**6, got {r}")
    if any(not 0 <= j < r for j in J) or len(set(J)) != len(J):
        raise ConfigError(f"--J must list distinct indices below r={r}, got {J}")
    direct = len(J) <= r // 2
    system = halfsum.build_system(
        r, J if direct else tuple(sorted(set(range(r)) - set(J)))
    )
    rng = random.Random(seed)
    rows = []
    for check_index in range(3):
        p = [Fraction(rng.randrange(0, 64), 64) for _ in range(r)]
        result = halfsum.identity_check(system, p)
        lhs = sum(p[i] for i in J)
        rhs = result["rhs"] if direct else sum(p) - result["rhs"]
        rows.append(
            {
                "r": r,
                "J": tuple(J),
                "check": check_index,
                "lhs": lhs,
                "rhs": rhs,
                "exact": lhs == rhs,
                "verdict": _verdict(lhs == rhs and result["holds"]),
            }
        )
    return _report(
        "lemma",
        {"r": r, "J": list(J), "seed": seed, "via_complement": not direct},
        _derive("lemma", rows),
        coefficient=halfsum.bound_coefficient(r, len(J)),
        window_size=system.x,
    )


# ---------------------------------------------------------------------------
# embezzle: extraction fidelity sweep


def _embezzle_point(args: tuple[tuple[Fraction, ...], int | None, int]) -> dict:
    squares, l, n = args
    if l is None:
        spec = ez.EmbezzleSpec.from_exact(squares, n)
    else:
        spec = ez.EmbezzleSpec.from_reals([float(q) for q in squares], l, n)
    report = ez.embezzlement_fidelity(spec)
    ok = report.lower_bound_holds and report.distance_bound_holds
    return {
        "l": l,
        "n": n,
        "r": spec.r,
        "numerators": spec.m,
        "fidelity": report.computed_fidelity,
        "z_form": report.z_form_fidelity,
        "trace_distance": report.trace_distance,
        "distance_bound": report.distance_bound,
        "lower_bound_holds": report.lower_bound_holds,
        "distance_bound_holds": report.distance_bound_holds,
        "verdict": _verdict(ok),
    }


def run_embezzle(cfg: dict) -> dict:
    squares = _squares(cfg, "1/3,2/3")
    ns = _parse_int_list(_option(cfg, "n", "100,1000"), "--n")
    ls: tuple[int | None, ...]
    ls = _parse_int_list(cfg["l"], "--l") if cfg.get("l") is not None else (None,)
    tol = float(_option(cfg, "tol", 1e-12))
    points = [(squares, l, n) for l in ls for n in ns]
    rows = _derive("embezzle", _map_grid(_embezzle_point, points, _resolve_workers(cfg)))
    convergence = _levels(rows, len(ns), ("l",), "n", "one_minus_fidelity", strict=True)
    all_decreasing = all(level["decreasing"] for level in convergence)
    _set_level_gaps(rows, "one_minus_fidelity", ("l",))
    parameters = {
        "coeffs": [str(q) for q in squares], "l": list(ls), "n": list(ns),
        "tol": tol, "nesting": ["l", "n (innermost)"],
    }
    return _report("embezzle", parameters, rows, all_decreasing, convergence=convergence)


# ---------------------------------------------------------------------------
# pc: perfect-correlation transfer


def run_pc(cfg: dict) -> dict:
    squares = _squares(cfg, "1/3,2/3")
    ns = _parse_int_list(_option(cfg, "n", "200"), "--n")
    seed = int(_option(cfg, "seed", 0))
    tol = float(_option(cfg, "tol", 1e-12))
    d = len(squares)
    state = ez.phi_schmidt([math.sqrt(float(q)) for q in squares])
    rng = random.Random(seed)
    index_sets = []
    for _ in range(20):
        size = rng.randrange(1, d) if d > 1 else 1
        index_sets.append(tuple(sorted(rng.sample(range(d), size))))
    events = hv.schmidt_index_events(state.registry, index_sets)
    schmidt_report = hv.perfect_correlation_check(state, events, tol=tol)
    rows = [
        {
            "family": "schmidt", "n": None,
            "event": q["event"], "mismatch": q["mismatch"],
            "verdict": _verdict(q["holds"]),
        }
        for q in schmidt_report["quantum"]
    ]
    extraction_reports = []
    for n in ns:
        spec = ez.EmbezzleSpec.from_exact(squares, n)
        mapped, block_events = hv.extraction_block_events(spec)
        report = hv.perfect_correlation_check(mapped, block_events, tol=tol)
        extraction_reports.append({"n": n, "max_mismatch": report["max_mismatch"]})
        rows.extend(
            {
                "family": "extraction", "n": n,
                "event": q["event"], "mismatch": q["mismatch"],
                "verdict": _verdict(q["holds"]),
            }
            for q in report["quantum"]
        )
    parameters = {"coeffs": [str(q) for q in squares], "n": list(ns), "seed": seed, "tol": tol}
    return _report("pc", parameters, rows, extraction_summary=extraction_reports)


# ---------------------------------------------------------------------------
# couple: measurement couplings


def _random_state(rng: np.random.Generator, registry: SystemRegistry) -> SparseState:
    dim = registry.total_dimension
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    return SparseState(registry, {(k,): vec[k] for k in range(dim)})


def _random_split(
    rng: np.random.Generator, registry: SystemRegistry, blocks: int
) -> list:
    dim = registry.total_dimension
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis, _ = np.linalg.qr(matrix)
    cuts = sorted(rng.choice(np.arange(1, dim), size=blocks - 1, replace=False))
    groups = np.split(np.arange(dim), cuts)
    projectors = []
    for group in groups:
        kets = [
            SparseState(registry, {(k,): basis[k, col] for k in range(dim)})
            for col in group
        ]
        projectors.append(span_projector(kets))
    return projectors


def _pointer_mismatch(state: SparseState) -> float:
    axis_1, axis_2 = state.registry.axis("B1"), state.registry.axis("B2")
    return sum(
        abs(amp) ** 2
        for key, amp in state.amplitudes.items()
        if key[axis_1] != key[axis_2]
    )


def _random_povm(rng: np.random.Generator, dim: int, count: int) -> couplings.PovmElementSet:
    raw = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(count)
    ]
    gross = [a.conj().T @ a for a in raw]
    w, v = np.linalg.eigh(sum(gross))
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return couplings.PovmElementSet.from_elements([inv_sqrt @ f @ inv_sqrt for f in gross])


def run_couple(cfg: dict) -> dict:
    seed = int(_option(cfg, "seed", 0))
    instances = int(_option(cfg, "instances", 18))
    tol = float(_option(cfg, "tol", 1e-10))
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {instances}")
    rng = np.random.default_rng(seed)
    rows = []

    trine = couplings.trine_povm()
    registry_2 = SystemRegistry((("S", 2),))
    psi_2 = _random_state(rng, registry_2)
    coupled = couplings.povm_coupling(psi_2, trine, "S")
    direct = couplings.povm_probabilities(psi_2, trine, "S")
    dist = couplings.pointer_distribution(coupled, "B1")
    deviation = max(abs(dist.get(j, 0.0) - p) for j, p in enumerate(direct))
    deviation = max(deviation, _pointer_mismatch(coupled))
    rows.append(
        {
            "instance": "trine", "kind": "povm",
            "dimension": 2, "max_deviation": deviation,
            "verdict": _verdict(deviation <= tol),
        }
    )

    for index in range(instances):
        dim = int(rng.integers(2, 5))
        registry = SystemRegistry((("S", dim),))
        psi = _random_state(rng, registry)
        kind = ("first", "second", "povm")[index % 3]
        if kind in ("first", "second"):
            blocks = int(rng.integers(2, dim + 1))
            projectors = _random_split(rng, registry, blocks)
            branches = couplings.branch_amplitudes(psi, projectors)
            weights = [min(1.0, max(0.0, squared_norm(branch))) for branch in branches]
            if kind == "first":
                out = couplings.first_kind_coupling(psi, branches)
                dist = couplings.pointer_distribution(out, "B")
            else:
                posts = [_random_state(rng, registry) for _ in projectors]
                out = couplings.second_kind_coupling(psi, branches, posts)
                dist = couplings.pointer_distribution(out, "B1")
            deviation = max(abs(dist.get(j, 0.0) - w) for j, w in enumerate(weights))
            if kind == "second":
                deviation = max(deviation, _pointer_mismatch(out))
        else:
            povm = _random_povm(rng, dim, int(rng.integers(2, 5)))
            out = couplings.povm_coupling(psi, povm, "S")
            direct = couplings.povm_probabilities(psi, povm, "S")
            dist = couplings.pointer_distribution(out, "B1")
            deviation = max(abs(dist.get(j, 0.0) - p) for j, p in enumerate(direct))
            deviation = max(deviation, _pointer_mismatch(out))
        norm_gap = abs(sum(abs(a) ** 2 for a in out.amplitudes.values()) - 1.0)
        deviation = max(deviation, norm_gap)
        rows.append(
            {
                "instance": index, "kind": kind,
                "dimension": dim, "max_deviation": deviation,
                "verdict": _verdict(deviation <= tol),
            }
        )
    return _report("couple", {"seed": seed, "instances": instances, "tol": tol}, rows)


# ---------------------------------------------------------------------------
# audit: hidden-variable model audits on the Bell chain


def _model_name(cfg: dict) -> str:
    """`--model`, "trivial" where unset; an explicit empty value is refused."""
    name = str(_option(cfg, "model", "trivial"))
    if not name:
        raise ConfigError("--model must not be empty")
    return name


def _load_model(cfg: dict) -> tuple[hv.HVModel, hv.LambdaSpace]:
    name = _model_name(cfg)
    if name.endswith(".json"):
        try:
            payload = json.loads(_read_text(Path(name), "model file"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model file {name!r} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "fixture" not in payload:
            raise ConfigError(
                f"model file {name!r} must be an object with a 'fixture' key"
            )
        fixture = payload.pop("fixture")
        try:
            return hv.fixture_model(fixture, **payload)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
    try:
        return hv.fixture_model(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_audit(cfg: dict) -> dict:
    state = cb.bell_state()
    model, space = _load_model(cfg)
    n_max = int(_option(cfg, "N_max", 8))
    if n_max < 1:
        raise ConfigError(f"--N-max must be >= 1, got {n_max}")
    if n_max >= 2**63:
        raise ConfigError(f"--N-max must be below 2**63, got {n_max}")
    if n_max > _MAX_DEPTH:
        raise ConfigError(f"--N-max must be at most 10**6, got {n_max}")
    tol = float(_option(cfg, "tol", 1e-9))
    scan = hv.refutation_scan(model, space, state, tuple(range(1, n_max + 1)), tol=tol)

    chain2 = cb.ChainSpec(N=min(2, n_max), pair=(0, 1))
    a_family, b_family = cb.chain_families(chain2, state.registry)
    preparation = hv.Preparation.of(state)
    single = hv.Scenario(preparation, (a_family[0],), description="setting 0 alone")
    pair = hv.Scenario(preparation, (a_family[0], b_family[1]), description="settings (0, 1)")
    idle = hv.Scenario(
        preparation,
        (a_family[0], hv.identity_observable(b_family[1].registry)),
        description="remote idle",
    )
    hv.fill_born([single, pair, idle])
    premises = hv.preaudit(model, space, [single, pair, idle], tol=tol)

    rows = []
    for report in scan["reports"]:
        undefined = "undefined" in report
        if undefined:
            # the model declined this depth; Born integrity is still checkable
            spec = cb.ChainSpec(N=report["N"], pair=(0, 1))
            value = cb.correlation_measure_IN(state, spec).value
        else:
            value = report["chain_value"]
        rows.append(
            {
                "model": model.name,
                "N": report["N"],
                "chain_value": value,
                "lhs": report.get("lhs"),
                "model_chain_value": report.get("model_chain_value"),
                "refuted": report["refuted"],
                "undefined": report["undefined"] if undefined else "",
            }
        )
    for row in _derive("audit", rows):
        row["verdict"] = _verdict(abs(row["chain_value"] - row["chain_closed_form"]) <= 1e-9)
    return _report(
        "audit",
        {"model": model.name, "state": "bell", "N_max": n_max, "tol": tol},
        rows,
        findings={
            "refuting_N": scan["refuting_N"],
            "refuted": scan["refuted"],
            "undefined_N": list(scan["undefined_N"]),
            "compquant_passed": premises["quantum completeness"]["passed"],
            "compquant_first_failure": premises["quantum completeness"]["first_failure"],
            "parind_passed": premises["parameter independence"]["passed"],
            "parind_first_failure": premises["parameter independence"]["first_failure"],
            "pe_passed": premises["spectator invariance"]["passed"],
        },
        scan=scan,
    )


# ---------------------------------------------------------------------------
# arbitrary: approximant route and the triviality ledger sweep


def _arbitrary_point(
    args: tuple[tuple[Fraction, ...], str, int, int, int, float]
) -> dict:
    squares, model_name, N, l, n, tol = args
    spec = ez.EmbezzleSpec.from_reals([float(q) for q in squares], l, n)
    model, space = hv.fixture_model(model_name)
    report = hv.triviality_bound(model, space, spec, N, tol=tol)
    return {
        "model": model_name,
        "N": N,
        "l": l,
        "n": n,
        "r": spec.r,
        "achieved_epsilon": report["achieved_epsilon"],
        "epsilon_pair": report["epsilon_pair"],
        "epsilon_half": report["epsilon_half"],
        "epsilon_coefficient": report["epsilon_coefficient"],
        "links_hold": report["links_hold"],
        "conclusion_holds": report["conclusion_holds"],
        "verdict": _verdict(report["passed"]),
    }


def run_arbitrary(cfg: dict) -> dict:
    squares = _parse_fraction_list(_option(cfg, "coeffs", "1/3,2/3"), "--coeffs")
    if abs(float(sum(squares)) - 1.0) > 1e-12:
        raise ConfigError(f"squared coefficients must sum to 1, got {sum(squares)}")
    Ns = _parse_depths(_option(cfg, "N", "2"))
    ls = _parse_int_list(_option(cfg, "l", "3"), "--l")
    ns = _parse_int_list(_option(cfg, "n", "100"), "--n")
    tol = float(_option(cfg, "tol", 1e-9))
    model_name = _model_name(cfg)
    if model_name not in hv.FIXTURE_NAMES:
        raise ConfigError(
            f"arbitrary sweeps run built-in fixtures only, got {model_name!r}"
        )
    points = [(squares, model_name, N, l, n, tol) for N in Ns for l in ls for n in ns]
    rows = _map_grid(_arbitrary_point, points, _resolve_workers(cfg))
    # the rows at the largest n, then those at the largest l as well
    n_ends = rows[len(ns) - 1::len(ns)]
    l_ends = n_ends[len(ls) - 1::len(ls)]
    convergence = {
        "n_levels": _levels(rows, len(ns), ("N", "l"), "n", "achieved_epsilon"),
        "l_levels": _levels(n_ends, len(ls), ("N",), "l", "achieved_epsilon"),
        "N_levels": _levels(l_ends, len(Ns), (), "N", "achieved_epsilon")[0],
    }
    _set_level_gaps(rows, "achieved_epsilon", ("N", "l"))
    parameters = {
        "coeffs": [str(q) for q in squares], "model": model_name,
        "N": list(Ns), "l": list(ls), "n": list(ns), "tol": tol,
        "nesting": ["N", "l", "n (innermost)"],
    }
    return _report("arbitrary", parameters, rows, convergence=convergence)


# ---------------------------------------------------------------------------
# validate: re-check a written report


def report_schema_validate(path: str | Path, *, strict: bool = True) -> dict:
    """Re-validate a written report: its columns, the cells of each JSON row,
    and every derived cell.

    Strict mode requires the exact column set of the producing command; lenient
    mode tolerates added columns and cells.  Each derived cell (a column with a
    rule in `_COMMANDS`) is recomputed from the row's other cells by the rule
    that wrote it and must read exactly as written, since CSV and JSON floats
    round-trip exactly; any drift is reported with its cell coordinate.
    """
    path = Path(path)

    def malformed(diagnostic: str) -> dict:
        return {"file": str(path), "valid": False, "diagnostics": [diagnostic]}

    try:
        text = _read_text(path, "report file")
    except UnicodeDecodeError as exc:
        return malformed(f"not UTF-8 text: {exc}")
    diagnostics: list[str] = []
    if path.suffix == ".json":
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return malformed(f"not valid JSON: {exc}")
        if not isinstance(report, dict):
            return malformed("top level is not a JSON object")
        command = report.get("command")
        if not isinstance(command, str) or command not in _COMMANDS:
            return malformed(f"unknown or missing command {command!r}")
        for key in ("parameters", "columns", "rows", "passed"):
            if key not in report:
                diagnostics.append(f"missing top-level field {key!r}")
        columns = report.get("columns", [])
        rows = report.get("rows", [])
        if not isinstance(columns, list) or not isinstance(rows, list) or not all(
            isinstance(row, dict) for row in rows
        ):
            return malformed("columns must be a list and rows a list of objects")
    else:
        reader = list(csv.reader(io.StringIO(text, newline="")))
        if not reader:
            return malformed("empty file")
        columns = reader[0]
        if "command" not in columns or not reader[1:]:
            return malformed("missing command column or data rows")
        for index, row in enumerate(reader[1:]):
            if len(row) != len(columns):
                return malformed(f"row {index} has {len(row)} cells under {len(columns)} columns")
        rows = [dict(zip(columns, row)) for row in reader[1:]]
        command = rows[0]["command"]
        if command not in _COMMANDS:
            return malformed(f"unknown command {command!r}")

    diagnostics += [f"columns: {d}" for d in _schema_diagnostics(command, columns, strict)]
    rules = _COMMANDS[command].recompute
    for index, row in enumerate(rows):
        if path.suffix == ".json":  # a CSV row has exactly the header's cells
            diagnostics += [f"row {index}: {d}" for d in _schema_diagnostics(command, row, strict)]
        for column, rule in rules.items():
            if column not in row:
                continue  # diagnosed above
            try:
                expected = rule(row)
            except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
                diagnostics.append(f"row {index}, column {column!r}: cannot recompute ({exc})")
                continue
            if _cell(row[column]) != _cell(expected):
                diagnostics.append(
                    f"row {index}, column {column!r}: recorded {row[column]!r}, "
                    f"recomputed {expected!r}"
                )
    return {"file": str(path), "valid": not diagnostics, "diagnostics": diagnostics}


def run_validate(cfg: dict) -> dict:
    result = report_schema_validate(cfg["file"], strict=not cfg.get("lenient"))
    row = {
        "file": result["file"],
        "valid": result["valid"],
        "diagnostics": "; ".join(result["diagnostics"]) or None,
        "verdict": _verdict(result["valid"]),
    }
    parameters = {"file": result["file"], "strict": not cfg.get("lenient")}
    return _report("validate", parameters, [row], diagnostics=result["diagnostics"])


# ---------------------------------------------------------------------------
# Argument parsing, config merge, entry point


def build_parser() -> argparse.ArgumentParser:
    """The `parind-lab` parser, with one subparser per `_COMMANDS` entry."""
    parser = argparse.ArgumentParser(
        prog="parind-lab",
        description="Deterministic sweep and audit reports for the chained-"
        "correlation laboratory.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        # no prefix matching: `audit --N 4` must not read as `--N-max 4`
        sub = subparsers.add_parser(name, allow_abbrev=False)
        for dest in (*command.flags, *_REPORT_FLAGS):
            flag, options = _FLAGS[dest]
            sub.add_argument(flag, **options)
    return parser


_CONFIG_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _check_config_value(key: str, value: object) -> None:
    """Give a config-file value the checks argparse gives its flag: `type`,
    `choices`, and a bool for a `store_true` flag.  A null leaves it unset."""
    options = _FLAGS[key][1]
    if value is None:
        return
    if "choices" in options and value not in options["choices"]:
        raise ConfigError(
            f"config key {key!r} must be one of {list(options['choices'])}, got {value!r}"
        )
    kind = bool if options.get("action") == "store_true" else options.get("type")
    # bool is an int subclass; a float flag also takes an integer
    accepted = (int, float) if kind is float else kind
    if kind is not None and (
        not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool)
    ):
        raise ConfigError(f"config key {key!r} must be {_CONFIG_TYPES[kind]}, got {value!r}")


def _merge_config(args: argparse.Namespace) -> dict:
    """The config file's values under the flags given on the command line.  The
    file may set exactly the flags the subcommand declares, except `--config`."""
    known = set(vars(args)) - {"command", "config"}
    cfg: dict = {}
    if getattr(args, "config", None):
        try:
            payload = json.loads(_read_text(Path(args.config), "config file"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        for key, value in payload.items():
            _check_config_value(key, value)
        cfg.update(payload)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            cfg[key] = value
    # Every subcommand takes --workers, also those that run serially.
    if cfg.get("workers") is not None and int(cfg["workers"]) < 1:
        raise ConfigError(f"--workers must be >= 1, got {int(cfg['workers'])}")
    # A negative or nan tolerance fails every verdict, an infinite one passes it.
    if cfg.get("tol") is not None and not (math.isfinite(cfg["tol"]) and cfg["tol"] >= 0):
        raise ConfigError(f"--tol must be a finite number >= 0, got {cfg['tol']!r}")
    return cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on the first `main` call and reused: parsing
    leaves the parser unchanged, and building it costs more than most calls."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        # resolved by name at call time, see `_Command`
        report = globals()[_COMMANDS[args.command].handler](cfg)
        _write_report(report, cfg.get("format") or _COMMANDS[args.command].format, cfg.get("out"))
    except (hv.PremiseError, hv.ModelUndefinedError) as exc:
        # The model, not the user's numbers, failed: nothing is certified.
        print(f"verdict failure: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except ValueError as exc:
        # ConfigError plus domain validation raised by the constructions
        # themselves (chain depth, coefficient shapes, ...) on user numbers.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK if report["passed"] else EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
