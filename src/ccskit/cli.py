"""Command-line front end.

Subcommands mirror the library's pipeline stages: `check` runs the
construction gates and reports variable usage, `compose` flattens a
model file into its composed closed loop, `obligations` emits the proof
decomposition, `simulate` runs seeded schedule batches, and `export-kyx`
turns an obligations JSON file into one prover problem file each.

Output is JSON by default (`--format text` where a human table exists)
so pipelines can consume results without scraping.

Exit codes: 0 clean, 1 the analysis found a problem with the model
(gate failure, monitor violation, stuck run), 2 bad input (parse
errors, missing files, wrong usage). Every failure, a usage error too,
ends with one line on stderr.

Both ways of running `ccs`, the installed script and `python -m
ccskit.cli`, exit through `script`, which freezes the heap after the
command so that the interpreter's shutdown collections have nothing to
walk; it also points a stdout whose reader has closed at /dev/null.
`main(argv)` itself leaves the collector and stdout as they were. A
command started with fd 1 closed, where Python sets `sys.stdout` to
None, ends as one on a closed pipe does: exit 1 once it has run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__, dsl
from .components import MCCS
from .composition import CostModel, non_interference_controllers
from .errors import CcsError, ParseError, UnboundedVariable
from .obligations import (
    ProofObligation,
    kyx_filename,
    obligation_from_json,
    obligations_ccs,
    obligations_controllers,
    obligations_plants,
    render_kyx,
)
from .ast import fraction_to_text
from .simulator import (
    MAX_ITERATIONS,
    STRATEGIES,
    alias_root,
    box_interval,
    pinned_init,
    run_batch,
    system_variables,
    write_trace_csv,
)
from .statics import bound_vars, free_vars, must_bound_vars


def _fail(message: str, code: int = 2) -> NoReturn:
    """Exit with `code` after one line on stderr."""
    print(message, file=sys.stderr)
    sys.exit(code)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        _fail(f"cannot read {path}: {e}")


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        _fail(f"cannot write {path}: {e}")


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError, RecursionError) as e:
        _fail(f"bad {what} {path}: {e}")


def _cost_model(path: str | None) -> CostModel | None:
    if path is None:
        return None
    try:
        return CostModel.from_file(path)
    except (OSError, ValueError, RecursionError) as e:
        _fail(f"bad cost model {path}: {e}")


def _too_deep(path: str) -> NoReturn:
    """Exit 2: the input at `path` nests past Python's recursion limit."""
    _fail(f"{path}: input nests too deeply to process")


def _model(path: str, build, *args):
    """`build(*args)` on the model at `path`: a parse error or input
    nested too deeply exits 2, a rejected model exits 1, each with one
    line naming the file."""
    try:
        return build(*args)
    except ParseError as e:
        _fail(f"{path}: parse error: {e}")
    except RecursionError:
        _too_deep(path)
    except CcsError as e:
        _fail(f"{path}: rejected ({type(e).__name__}): {e}", 1)


def _load(path: str, system: str | None, cost_model: CostModel | None) -> MCCS:
    return _model(path, dsl.load, _read_text(path), system, cost_model)


def _check_init_box(box, path: str, system: MCCS) -> None:
    """Exit 2 unless `box` is an object that maps variables of `system`
    to entries box_interval reads or `"=name"` aliases whose chain ends
    at one of those or at a constant the system pins, and gives each
    variable the system does not pin a value. A bad entry's line names
    it and says what box_interval or alias_root raised for it."""

    def reject(problem: str) -> NoReturn:
        _fail(f"bad init file {path}: {problem}")

    if not isinstance(box, dict):
        reject(f"expected a JSON object, got {type(box).__name__}")
    needed = system_variables(system)
    resolvable = pinned_init(needed, system.env.constants(), box)
    for name, spec in box.items():
        if name not in needed:
            reject(f"entry {name!r} names no variable of system {system.name!r}")
        try:
            if not isinstance(spec, str):
                box_interval(spec, name)
            alias_root(resolvable, name)
        except (ValueError, UnboundedVariable) as e:
            reject(f"entry {name!r}: {e}")
    missing = sorted(needed - resolvable.keys())
    if missing:
        reject("no initial value for: " + ", ".join(missing))


# ---------------------------------------------------------------------------


def _variable_report(system: MCCS) -> dict:
    def triple(program) -> dict:
        return {
            "fv": sorted(free_vars(program)),
            "bv": sorted(bound_vars(program)),
            "mbv": sorted(must_bound_vars(program)),
        }

    out = {"system": triple(system.to_program())}
    for rc in system.controller.choices:
        out[rc.name] = triple(rc.to_program())
    out[system.plant.name] = triple(system.plant.to_program())
    return out


def check(model, system, cost_model_path, show_vars, fmt):
    """Run all construction gates on MODEL and report the result."""
    sys_ = _load(model, system, _cost_model(cost_model_path))
    warnings = []
    atoms = sys_.controller.choices
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            report = non_interference_controllers(atoms[i], atoms[j])
            warnings.extend(w.describe() for w in report.warnings)

    payload = {
        "system": sys_.name,
        "status": "ok",
        "controllers": [
            {"name": rc.name, "reactivity": fraction_to_text(rc.reactivity)}
            for rc in atoms
        ],
        "plant": {
            "name": sys_.plant.name,
            "controllability": fraction_to_text(sys_.plant.controllability),
        },
        "scheduling": {
            "cost": fraction_to_text(sys_.controller.reactivity),
            "bound": fraction_to_text(sys_.plant.controllability),
        },
        "warnings": warnings,
    }
    if show_vars:
        payload["variables"] = _variable_report(sys_)

    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    print(f"ok {sys_.name}")
    for rc in atoms:
        print(f"  controller {rc.name} (reactivity {fraction_to_text(rc.reactivity)})")
    print(
        f"  plant {sys_.plant.name} "
        f"(controllability {fraction_to_text(sys_.plant.controllability)})"
    )
    print(
        f"  scheduling cost {payload['scheduling']['cost']} <= "
        f"bound {payload['scheduling']['bound']}"
    )
    for w in warnings:
        print(f"  warning: {w}")
    if show_vars:
        for name, triple in payload["variables"].items():
            print(f"  {name}:")
            print(f"    FV:  {', '.join(triple['fv']) or '-'}")
            print(f"    BV:  {', '.join(triple['bv']) or '-'}")
            print(f"    MBV: {', '.join(triple['mbv']) or '-'}")


# ---------------------------------------------------------------------------


def compose(model, system, cost_model_path, output):
    """Compose MODEL's declared system and write the flattened file.

    Controllers merge under the cost model (reactivities on a shared
    resource add), plants merge pairwise; the output declares the same
    closed loop as one controller family and one joint plant.
    """
    sys_ = _load(model, system, _cost_model(cost_model_path))
    try:
        text = dsl.serialize_composed(sys_)
    except CcsError as e:
        _fail(f"cannot serialize ({type(e).__name__}): {e}", 1)
    _write_text(output, text)
    print(f"wrote {output}")
    print(
        f"  {sys_.name}: scheduling cost "
        f"{fraction_to_text(sys_.controller.reactivity)} <= bound "
        f"{fraction_to_text(sys_.plant.controllability)}"
    )


# ---------------------------------------------------------------------------


def _gather_obligations(
    model: str, system: str | None, theorem: str, cost_model: CostModel | None
) -> list[ProofObligation]:
    source = _model(model, dsl.parse, _read_text(model))
    parts = _model(model, dsl.build_components, source, system)
    sysdecl, rcs, cps, env, invariant = parts
    try:
        if theorem in ("auto", "ccs"):
            return obligations_ccs(_model(model, dsl.assemble, parts, cost_model))
        if theorem == "controllers":
            if len(rcs) != 2:
                _fail(
                    f"--theorem controllers needs exactly two controllers, "
                    f"{sysdecl.name!r} has {len(rcs)}"
                )
            return obligations_controllers(
                rcs[0], rcs[1], cost_model=cost_model, env=env, invariant=invariant
            )
        if len(cps) != 2:
            _fail(
                f"--theorem plants needs exactly two plants, "
                f"{sysdecl.name!r} has {len(cps)}"
            )
        return obligations_plants(cps[0], cps[1], env=env, invariant=invariant)
    except CcsError as e:
        _fail(f"rejected ({type(e).__name__}): {e}", 1)


def obligations(model, system, theorem, cost_model_path, fmt, out):
    """Emit the proof obligations for MODEL."""
    obs = _gather_obligations(model, system, theorem, _cost_model(cost_model_path))
    payload = json.dumps([ob.to_json() for ob in obs], indent=2)
    if out is not None:
        _write_text(out, payload + "\n")
        print(f"wrote {len(obs)} obligations to {out}")
    elif fmt == "json":
        print(payload)
    else:
        width = max(len(ob.id) for ob in obs)
        for ob in obs:
            print(f"{ob.id.ljust(width)}  [{ob.hint}]  {ob.status}")
        print(f"{len(obs)} obligations")


# ---------------------------------------------------------------------------


def export_kyx(obligations_json, out_dir):
    """Write one prover problem file per obligation in OBLIGATIONS_JSON."""
    data = _read_json(obligations_json, "obligations file")
    if not isinstance(data, list):
        _fail(f"{obligations_json}: expected a JSON array")
    try:
        obs = [obligation_from_json(d) for d in data]
    except (KeyError, TypeError, ValueError, ParseError) as e:
        _fail(f"{obligations_json}: bad obligation entry: {e}")
    except RecursionError:
        _too_deep(obligations_json)
    entries: dict[str, int] = {}  # file name -> index of its entry
    for i, ob in enumerate(obs):
        name = kyx_filename(ob)
        entry = f"{obligations_json}: entry {i} (id {ob.id!r})"
        if not ob.id or "/" in name or "\0" in name:
            _fail(f"{entry}: the id is not a plain file name")
        if name in entries:
            _fail(f"{entry}: the id repeats that of entry {entries[name]}")
        entries[name] = i
    try:
        texts = [render_kyx(ob) for ob in obs]
    except ValueError as e:
        _fail(f"{obligations_json}: bad obligation entry: {e}")
    except RecursionError:
        _too_deep(obligations_json)
    directory = Path(out_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        _fail(f"cannot write {out_dir}: {e}")
    for name, text in zip(entries, texts):
        _write_text(directory / name, text)
    print(f"wrote {len(obs)} problem files to {out_dir}")


# ---------------------------------------------------------------------------


def _default_init_path(model: str) -> Path:
    return Path(model).with_suffix("").with_name(Path(model).stem + ".init.json")


def simulate(model, system, schedules, seed, horizon, strategy, init_path, outputs,
             cost_model_path):
    """Run seeded schedule batches and report monitor violations."""
    if schedules < 1:
        _fail(f"--schedules must be at least 1, got {schedules}")
    if not (math.isfinite(horizon) and horizon > 0):
        _fail(f"--horizon must be finite and positive, got {horizon}")
    sys_ = _load(model, system, _cost_model(cost_model_path))
    if init_path is None:
        candidate = _default_init_path(model)
        if not candidate.exists():
            _fail(f"no --init given and {candidate} does not exist")
        init_path = str(candidate)
    init_box = _read_json(init_path, "init file")
    _check_init_box(init_box, init_path, sys_)

    csv_paths = [p for p in outputs if p.endswith(".csv")]
    json_paths = [p for p in outputs if p.endswith(".json")]
    odd = [p for p in outputs if not (p.endswith(".csv") or p.endswith(".json"))]
    if odd:
        _fail(
            "cannot tell what to write to " + ", ".join(odd)
            + " (expected a .csv or .json suffix)"
        )

    try:
        summary = run_batch(
            sys_, schedules, seed, init_box, strategy=strategy, horizon=horizon,
            keep_first=bool(csv_paths),
        )
    except CcsError as e:
        _fail(f"simulation failed ({type(e).__name__}): {e}", 1)
    if summary.first_trace is not None:
        for path in csv_paths:
            try:
                write_trace_csv(summary.first_trace, path)
            except OSError as e:
                _fail(f"cannot write {path}: {e}")
            print(f"wrote trace of run 0 to {path}", file=sys.stderr)
    elif csv_paths:
        print("run 0 is stuck: wrote no trace to " + ", ".join(csv_paths), file=sys.stderr)
    payload = json.dumps(summary.to_json(), indent=2)
    for path in json_paths:
        _write_text(path, payload + "\n")
        print(f"wrote summary to {path}", file=sys.stderr)
    if not json_paths:
        print(payload)
    if summary.truncated_runs:
        print(f"{summary.truncated_runs} of {schedules} runs stopped after {MAX_ITERATIONS} "
              "loop passes, before the horizon", file=sys.stderr)
    if summary.runs_with_violations or summary.stuck_runs:
        sys.exit(1)


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Rejects abbreviated options; a usage error exits 2 with one line."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        _fail(f"{self.prog}: {message}")


def main(argv: list[str] | None = None) -> None:
    """Assemble, check, decompose and simulate timed component models."""
    parser = _Parser(prog="ccs", description=main.__doc__)
    parser.add_argument("--version", action="version", version=f"ccs, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    model = _Parser(add_help=False)
    model.add_argument("model", metavar="MODEL")
    model.add_argument("--system", help="system name when the file has several")
    model.add_argument(
        "--cost-model", dest="cost_model_path", metavar="FILE", help="JSON name -> resource map"
    )
    formatted = _Parser(add_help=False)
    formatted.add_argument("--format", dest="fmt", choices=["json", "text"], default="json")

    def command(run, *parents):
        doc = run.__doc__
        sub = commands.add_parser(
            run.__name__.replace("_", "-"), parents=parents,
            help=doc.partition("\n")[0], description=doc,
        )
        sub.set_defaults(run=run)
        return sub

    sub = command(check, model, formatted)
    sub.add_argument(
        "--vars", dest="show_vars", action="store_true", help="include FV/BV/MBV tables"
    )
    command(compose, model).add_argument("-o", "--output", required=True)
    sub = command(obligations, model, formatted)
    sub.add_argument(
        "--theorem", choices=["auto", "ccs", "controllers", "plants"], default="auto",
        help="which decomposition to emit (auto, the default, is ccs)",
    )
    sub.add_argument("-o", "--out")
    sub = command(export_kyx)
    sub.add_argument("obligations_json", metavar="OBLIGATIONS_JSON")
    sub.add_argument("-o", "--out", dest="out_dir", required=True)
    sub = command(simulate, model)
    sub.add_argument("--schedules", type=int, default=1, help="number of runs (default %(default)s)")
    sub.add_argument("--seed", type=int, default=0, help="batch seed (default %(default)s)")
    sub.add_argument("--horizon", type=float, default=20.0, help="time horizon (default %(default)s)")
    sub.add_argument(
        "--strategy", choices=STRATEGIES, default="uniform-random",
        help="scheduling strategy (default %(default)s)",
    )
    sub.add_argument(
        "--init", dest="init_path", metavar="FILE",
        help='JSON file: variable -> number, [lo, hi] interval, or "=var" alias '
        "(default: <model>.init.json beside the model)",
    )
    sub.add_argument(
        "--out", dest="outputs", metavar="PATH", action="append", default=[],
        help="output path; .csv writes the trace of run 0, .json the batch summary "
        "(repeatable)",
    )

    args = vars(parser.parse_args(argv))
    run = args.pop("run")
    try:
        try:
            run(**args)
        finally:
            if sys.stdout is not None:
                sys.stdout.flush()
        if sys.stdout is None:  # started with fd 1 closed: the output went nowhere
            raise BrokenPipeError
    except BrokenPipeError:  # the reader closed stdout
        sys.exit(1)


def script() -> None:
    """The `ccs` process: freeze the heap that importing left, run `main()`,
    then freeze every object it leaves; a collection inside `main` then
    walks only what the command made. A stdout whose reader has closed is
    pointed at /dev/null, so that the flush at interpreter exit does not
    fail again; a missing one (fd 1 closed at start) has nothing to flush."""
    gc.freeze()
    try:
        main()
    except SystemExit as e:
        # main's exit 1 on a closed pipe
        if isinstance(e.__context__, BrokenPipeError) and sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise
    finally:
        gc.freeze()


if __name__ == "__main__":
    script()
