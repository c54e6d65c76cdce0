#!/usr/bin/env python3
"""ccskit benchmark: the `simulate`, `check` and `cli` workloads.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Run it from the repository root; it needs nothing installed but click. It
times only public entry points: `python -m ccskit.cli` subprocesses with
PYTHONPATH=src, and calls into ccskit functions in this process. One
client runs everything in a closed loop, one operation at a time.

Every workload is a fixed round of operations of three kinds (`ccs
simulate` batches, in-process `check_bounded` verdicts, and the `check`,
`compose`, `obligations` and `export-kyx` commands), repeated until
`--seconds` have passed. The workloads differ in how much of each kind a
round holds, so each reports every end-to-end metric. With `--trace 1`
every other round also records spans around the public calls and replays
the CLI and simulator layers in-process, and the result holds the
per-layer metrics instead. The second-to-last stdout line is the run
record, the last line the result. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from prepare import CHECK_BOXES, FLOW_SAMPLES, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden"
WORK = HERE / ".work"
PINNED = HERE / "pinned.json"

STRATEGIES = ("uniform-random", "lazy-controller", "round-robin")
REJECTED = ("two_tanks_slow", "bad_shared_output")
MUTANT = "watertank_late_ctrl"  # the simulator must report its violations
MODELS = ("watertank", "two_tanks", MUTANT, "watertank_tight", *REJECTED)
CHECK_SETS = ("watertank", "two_tanks", "vacuous", "watertank_tight")
HORIZON = 20.0  # the `ccs simulate` default
RESIDUAL_LIMIT = 1e-9
PIN_SEED = 20260814  # the batch seed of acceptance criterion 6
PIN_SCHEDULES = 2
SETUP_PROBES = 15
# Timings are scaled to a machine on which the reference loops take
# CPU_REFERENCE_S and MEMORY_REFERENCE_S; see "Machine speed" in README.md.
CPU_REFERENCE_S = 0.004
MEMORY_REFERENCE_S = 0.0035
HEAP_OBJECTS = 1 << 17  # about 40 MB of small dicts, well past the caches
HEAP_READS = 5000
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 60
INIT_SEED_MASK = 0x5EED  # how `run_batch` and `ccs simulate --out` derive a member's init rng

# (model, theorem) -> golden obligations file in tests/golden (read, never written).
GOLDEN_OBLIGATIONS = {
    ("watertank", "auto"): "watertank_obligations.json",
    ("two_tanks", "auto"): "two_tanks_obligations.json",
    ("two_tanks", "controllers"): "two_tanks_controllers_obligations.json",
    ("two_tanks", "plants"): "two_tanks_plants_obligations.json",
}


@dataclass(frozen=True)
class Mix:
    """What one round of a workload runs."""

    sim: tuple[tuple[str, str], ...]  # (model, strategy) `ccs simulate` invocations
    schedules: int  # --schedules per invocation
    grids: dict  # check set -> grid per axis
    cli_models: tuple[str, ...]  # models run through check/compose/obligations/export-kyx


PROBE_SIM = tuple(("watertank", s) for s in STRATEGIES)
PROBE_CLI = ("watertank", "two_tanks", "watertank_tight")
PROBE_GRIDS = {"watertank": 3, "two_tanks": 2, "vacuous": 3, "watertank_tight": 5}

WORKLOADS = {
    # The simulator is >95% of a large batch's time; the mutant takes the
    # violation-recording path and one invocation per model the CSV path.
    "simulate": Mix(
        sim=tuple((m, s) for m in ("watertank", "two_tanks") for s in STRATEGIES)
        + ((MUTANT, "uniform-random"),),
        schedules=3,
        grids=PROBE_GRIDS,
        cli_models=PROBE_CLI,
    ),
    # The same evaluator as the simulator over many states and short paths;
    # both exhaustive `holds` and early-exit `counterexample` verdicts.
    "check": Mix(
        sim=PROBE_SIM,
        schedules=2,
        grids={"watertank": 17, "two_tanks": 6, "vacuous": 9, "watertank_tight": 17},
        cli_models=PROBE_CLI,
    ),
    # The interactive path: interpreter start and imports dominate.
    "cli": Mix(sim=PROBE_SIM, schedules=2, grids=PROBE_GRIDS, cli_models=MODELS),
}
# The (model, strategy) pairs some workload simulates: those pinned.json holds.
PINNED_PAIRS = sorted({pair for mix in WORKLOADS.values() for pair in mix.sim})


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans (name, start, end, parent, op id) and counts, kept in memory."""

    def __init__(self) -> None:
        self.enabled = False
        self.round = 0
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int, **attrs):
        """Yields a dict the caller fills with the counts the call returned."""
        if not self.enabled:
            yield {}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": op,
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round,
            **attrs,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Child:
    code: int
    out: Path
    wall_s: float
    rss_mb: float


class Launcher:
    """Runs commands through launcher.py, a process started while the
    benchmark is still small, so that a child's peak RSS is its own."""

    def __init__(self) -> None:
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = "src"  # as in the tier-1 command; the package is not installed
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def spawn(self, args: list[str], out: Path) -> Child:
        """Run one command to completion from the repository root. Children
        may write bytecode, so that the cache warmed in set-up holds."""
        req = {"args": args, "cwd": str(ROOT), "env": self.env, "out": str(out),
               "err": str(out.with_name(out.name + ".err")), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Child(reply["code"], out, reply["wall_s"], reply["rss_mb"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def ccs(*args: str) -> list[str]:
    return [sys.executable, "-m", "ccskit.cli", *args]


# ---------------------------------------------------------------------------
# Known answers and digests


def digest_json(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def read_json(path: Path):
    """The JSON in `path`, or None when there is none."""
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def digest_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def watertank_point_problems(rows) -> list[str]:
    """Each sample on the closed-form level (fin - fout)(t - tau_1) + wlm,
    inside the band [3, 7] that corpus/watertank.ccs guarantees."""
    out = []
    for v in rows:
        wl = float(v["wl"])
        line = (float(v["fin"]) - float(v["fout"])) * (float(v["t"]) - float(v["tau_1"]))
        line += float(v["wlm"])
        if not 3.0 <= wl <= 7.0 or abs(wl - line) > RESIDUAL_LIMIT:
            out.append(f"watertank sample at t={v['t']}: wl={wl}, closed form {line}")
            break
    return out


def summary_problems(model: str, strategy: str, runs: int, code: int, s: dict) -> list[str]:
    out = []
    if s.get("runs") != runs or s.get("strategy") != strategy:
        out.append(f"summary of {model}/{strategy} has runs={s.get('runs')}")
    if model == MUTANT:
        if code != 1 or s["violations"].get("G[tank]", 0) < 1:
            out.append(f"{model}/{strategy}: exit {code}, violations {s['violations']}")
    elif (
        code != 0
        or s["runs_with_violations"]
        or s["stuck_runs"]
        or any(s["violations"].values())
        or not s["max_invariant_residual"] <= RESIDUAL_LIMIT
    ):
        out.append(
            f"{model}/{strategy}: exit {code}, {s['runs_with_violations']} runs with "
            f"violations, {s['stuck_runs']} stuck, residual {s['max_invariant_residual']}"
        )
    if s["stuck_runs"]:
        out.append(f"{model}/{strategy}: {s['stuck_runs']} stuck runs")
    return out


KYX_DECL = re.compile(r"^  Real (\S+);$", re.M)


def kyx_problems(text: str, name: str) -> list[str]:
    """Every variable declared in ProgramVariables appears verbatim, as a
    whole identifier, in the Problem block."""
    problem = text.partition("\nProblem\n")[2]
    if not problem:
        return [f"{name}: no Problem block"]
    for v in KYX_DECL.findall(text):
        if not re.search(rf"(?<![\w\\]){re.escape(v)}(?!\w)", problem):
            return [f"{name}: declared variable {v!r} not in the problem"]
    return []


# ---------------------------------------------------------------------------
# The benchmark


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.name = workload
        self.mix = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer()
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, set] = defaultdict(set)
        self.samples: list[dict] = []  # one per end-to-end operation
        self.op_id = 0
        self.round_e2e: dict[int, float] = defaultdict(float)
        self.reference: dict[int, list] = defaultdict(list)  # round -> CPU loop times
        self.launcher = Launcher()  # before the heap, while this process is small
        self.heap = Heap()
        self.last_ref = (0.0, 0.0)

        # Inputs from the seed: batch seeds, and the order of operations.
        rng = random.Random(seed)
        self.sim_ops = []
        csv_done = set()
        for model, strategy in self.mix.sim:
            write_csv = model not in csv_done
            csv_done.add(model)
            self.sim_ops.append((model, strategy, rng.randrange(1, 2**31), write_csv))
        rng.shuffle(self.sim_ops)
        self.cli_models = list(self.mix.cli_models)
        rng.shuffle(self.cli_models)
        self.check_order = list(CHECK_SETS)
        rng.shuffle(self.check_order)

    # -- bookkeeping --------------------------------------------------------

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    def speed_scale(self, round_: int, in_process: bool) -> float:
        """The factor that takes the operation that just ended to reference
        speed, from the reference loops timed just before and just after it.
        In-process work follows the CPU loop. Subprocesses follow the mean of
        both loops, because start-up also waits on memory."""
        ref = (cpu_loop_s(), self.heap.read_s())
        cpu = (self.last_ref[0] + ref[0]) / 2 / CPU_REFERENCE_S
        memory = (self.last_ref[1] + ref[1]) / 2 / MEMORY_REFERENCE_S
        self.last_ref = ref
        self.reference[round_].append(ref[0])
        return 1 / cpu if in_process else 2 / (cpu + memory)

    def sample(self, kind: str, wall_s: float, round_: int, in_process: bool = False,
               **extra) -> None:
        scale = self.speed_scale(round_, in_process)
        self.samples.append(
            {"kind": kind, "wall_s": wall_s, "round": round_, "scale": scale, **extra})
        self.round_e2e[round_] += wall_s * scale

    # -- set-up -------------------------------------------------------------

    def models(self) -> list[str]:
        sim_models = [m for m, _ in self.mix.sim]
        return sorted({"watertank", "two_tanks", "watertank_tight", *sim_models, *self.cli_models})

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        # Warm the bytecode cache once; every timed child then reads .pyc files.
        warm = self.launcher.spawn(
            [sys.executable, "-c", "import ccskit.cli"], self.work / "warm.out")
        if warm.code != 0:
            raise SystemExit("cannot import ccskit.cli from src/")
        import importlib.util

        pyc = importlib.util.cache_from_source(str(SRC / "ccskit" / "cli.py"))
        self.bytecode_warm = Path(pyc).is_file()

        spec = json.dumps(
            {
                "models": self.models(),
                "sim_models": sorted({m for m, _ in self.mix.sim}),
                "check_sets": list(CHECK_SETS),
            }
        )
        self.setup_probes = []
        self.last_ref = (cpu_loop_s(), self.heap.read_s())
        for i in range(SETUP_PROBES):
            child = self.launcher.spawn(
                [sys.executable, str(HERE / "prepare.py"), spec], self.work / f"setup{i}.out"
            )
            if child.code != 0:
                raise SystemExit("set-up probe failed:\n" + child.out.with_name(
                    child.out.name + ".err").read_text())
            probe = json.loads(child.out.read_text())["setup_s"]
            self.setup_probes.append({"wall_s": probe, "scale": self.speed_scale(-1, False)})

        sys.path.insert(0, str(SRC))
        t0 = time.perf_counter()
        self.prep = prepare(self.models(), json.loads(spec)["sim_models"], list(CHECK_SETS))
        self.setup_in_process_s = time.perf_counter() - t0
        self.last_ref = (cpu_loop_s(), self.heap.read_s())

    # -- operations ---------------------------------------------------------

    def run_simulate(self, r: int, model: str, strategy: str, seed: int, write_csv: bool):
        k = self.mix.schedules
        args = ["simulate", f"corpus/{model}.ccs", "--schedules", str(k), "--seed", str(seed)]
        args += ["--strategy", strategy]
        csv_path = self.work / f"{model}.run.csv"
        if write_csv:
            args += ["--out", str(csv_path)]
            csv_path.unlink(missing_ok=True)
        op = self.next_op()
        with self.tracer.span("op.simulate", op, model=model, strategy=strategy):
            child = self.launcher.spawn(ccs(*args), self.work / "simulate.out")
        self.sample("simulate", child.wall_s, r, runs=k, rss_mb=child.rss_mb)
        key = f"{model}/{strategy}/{k}/{seed}"
        summary = read_json(child.out)
        if not isinstance(summary, dict):
            self.op([f"simulate {key}: exit {child.code}, no summary"])
            return None
        problems = summary_problems(model, strategy, k, child.code, summary)
        self.digests[key + "/summary"].add(digest_json(summary))
        if write_csv:
            if not csv_path.is_file():
                problems.append(f"simulate {key}: no CSV written")
            else:
                self.digests[key + "/csv"].add(digest_file(csv_path))
                if model == "watertank":
                    with open(csv_path, newline="") as fh:
                        problems += watertank_point_problems(csv.DictReader(fh))
        self.op(problems)
        return op, key

    def run_checks(self, r: int) -> None:
        from ccskit.obligations import check_bounded

        results = []
        for name in self.check_order:
            grid = self.mix.grids[name]
            op = self.next_op()
            t0 = time.perf_counter()
            with self.tracer.span("op.check", op, model=name):
                for ob in self.prep["obligations"][name]:
                    with self.tracer.span(
                        "obligations.check_bounded", op, model=name, grid=grid
                    ) as counts:
                        try:
                            res = check_bounded(
                                ob, CHECK_BOXES[name], grid=grid, flow_samples=FLOW_SAMPLES
                            )
                        except Exception as e:  # a failed operation, counted below
                            results.append((name, ob, e))
                            continue
                        counts.update(
                            checked=res.checked,
                            total=res.total,
                            counterexamples=int(res.status == "counterexample"),
                            truncated=int("truncated" in res.caveat),
                        )
                    results.append((name, ob, res))
            self.sample("check", time.perf_counter() - t0, r, in_process=True)
        bases = {name: obs[0] for name, obs in self.prep["obligations"].items()}
        for name, ob, res in results:
            if isinstance(res, Exception):
                self.op([f"{name} {ob.id}: {res!r}"])
            elif name == "watertank_tight":
                if ob is bases[name]:
                    wl = (res.counterexample or {}).get("wl")
                    ok = res.status == "counterexample" and wl is not None and 6.0 < wl <= 7.0
                    self.op([] if ok else [f"watertank_tight base: {res.status}, wl={wl}"])
                else:
                    self.op([])
            else:
                self.op([] if res.status == "holds" else [f"{name} {ob.id}: {res.status}"])

    def run_cli_model(self, r: int, model: str) -> None:
        rejected = model in REJECTED
        expect = 1 if rejected else 0
        path = f"corpus/{model}.ccs"

        child = self.cli(r, "check", model, ccs("check", path))
        problems = [] if child.code == expect else [f"check {model}: exit {child.code}"]
        if not rejected and not problems:
            report = read_json(child.out)
            if not isinstance(report, dict) or report.get("status") != "ok" \
                    or report.get("system") != model:
                problems.append(f"check {model}: report {report}")
        self.op(problems)

        composed = self.work / f"{model}.composed.ccs"
        composed.unlink(missing_ok=True)
        child = self.cli(r, "compose", model, ccs("compose", path, "-o", str(composed)))
        problems = [] if child.code == expect else [f"compose {model}: exit {child.code}"]
        if model == "two_tanks" and not problems:
            if composed.read_text() != (GOLDEN / "two_tanks_composed.ccs").read_text():
                problems.append("compose two_tanks differs from tests/golden")
        self.op(problems)

        theorems = ["auto"] + (["controllers", "plants"] if model == "two_tanks" else [])
        watertank_ids = [o["id"] for o in self.golden("watertank_obligations.json")]
        for theorem in theorems:
            args = ["obligations", path] + ([] if theorem == "auto" else ["--theorem", theorem])
            out = self.work / f"{model}.{theorem}.obligations.json"
            child = self.cli(r, "obligations", model, ccs(*args), out=out)
            problems = [] if child.code == expect else [f"obligations {model}: exit {child.code}"]
            if problems or rejected:
                self.op(problems)
                continue
            obligations = read_json(out)
            golden = GOLDEN_OBLIGATIONS.get((model, theorem))
            if not isinstance(obligations, list):
                self.op([f"obligations {model} {theorem}: no JSON array"])
                continue
            if golden is not None:
                if obligations != self.golden(golden):
                    problems.append(f"obligations {model} {theorem} differ from tests/golden")
            elif [o["id"] for o in obligations] != watertank_ids:
                # One controller and one plant: the census of the watertank golden file.
                problems.append(f"obligations {model}: ids {[o['id'] for o in obligations]}")
            self.op(problems)

            kyx_dir = self.work / f"{model}.{theorem}.kyx"
            shutil.rmtree(kyx_dir, ignore_errors=True)
            child = self.cli(
                r, "export_kyx", model, ccs("export-kyx", str(out), "-o", str(kyx_dir))
            )
            problems = [] if child.code == 0 else [f"export-kyx {model}: exit {child.code}"]
            files = sorted(kyx_dir.glob("*.kyx")) if kyx_dir.is_dir() else []
            if len(files) != len(obligations):
                problems.append(f"export-kyx {model}: {len(files)} files")
            for f in files:
                problems += kyx_problems(f.read_text(), f.name)
            self.op(problems)

    def cli(self, r: int, command: str, model: str, args: list[str], out: Path | None = None):
        op = self.next_op()
        with self.tracer.span(f"op.cli.{command}", op, model=model):
            child = self.launcher.spawn(args, out or self.work / f"{command}.out")
        self.sample(f"cli.{command}", child.wall_s, r, rss_mb=child.rss_mb)
        return child

    def golden(self, name: str):
        return json.loads((GOLDEN / name).read_text())

    def next_op(self) -> int:
        self.op_id += 1
        return self.op_id

    # -- in-process layer replays (traced rounds) ---------------------------

    def replay_cli_layers(self, model: str) -> None:
        from ccskit import dsl
        from ccskit.components import as_multi_controller, make_ccs
        from ccskit.composition import CostModel, compose_controllers, compose_plants
        from ccskit.errors import CcsError
        from ccskit.obligations import (
            obligations_ccs,
            obligations_controllers,
            obligations_plants,
            render_kyx,
        )

        tr, op = self.tracer, self.next_op()
        text = self.prep["texts"][model]
        with tr.span("dsl.tokenize", op, model=model) as counts:
            counts["tokens"] = len(dsl.tokenize(text))
        with tr.span("dsl.parse", op, model=model):
            source = dsl.parse(text)
        try:
            with tr.span("dsl.load", op, model=model):
                system = dsl.load(source)
        except CcsError:
            system = None
        try:
            sysdecl, rcs, cps, env, invariant = dsl.build_components(source)
        except CcsError:
            return
        try:
            # What `dsl.load` does after building the components.
            with tr.span("composition.compose", op, model=model):
                cm = CostModel.uniform()
                controller = rcs[0]
                for rc in rcs[1:]:
                    controller = compose_controllers(controller, rc, cm)
                plant = cps[0]
                for p in cps[1:]:
                    plant = compose_plants(plant, p)
                make_ccs(as_multi_controller(controller), plant, env=env,
                         invariant=invariant, name=sysdecl.name)
        except CcsError:
            pass
        if system is None:
            return
        with tr.span("dsl.serialize_composed", op, model=model):
            dsl.serialize_composed(system)
        sets = [lambda: obligations_ccs(system)]
        if model == "two_tanks":
            sets += [
                lambda: obligations_controllers(rcs[0], rcs[1], env=env, invariant=invariant),
                lambda: obligations_plants(cps[0], cps[1], env=env, invariant=invariant),
            ]
        for make in sets:
            with tr.span("obligations.generate", op, model=model) as counts:
                obligations = make()
                counts["count"] = len(obligations)
            with tr.span("obligations.render_kyx", op, model=model) as counts:
                files = [render_kyx(ob) for ob in obligations]
                counts["bytes"] = sum(len(f.encode()) for f in files)

    def replay_simulation(self, op: int, key: str, model: str, strategy: str, seed: int,
                          write_csv: bool) -> None:
        from ccskit.errors import StuckState
        from ccskit.simulator import (
            Schedule,
            batch_schedule_seed,
            run,
            run_batch,
            sample_init,
            write_trace_csv,
        )

        tr = self.tracer
        system, box, k = self.prep["systems"][model], self.prep["inits"][model], self.mix.schedules
        with tr.span("simulator.run_batch", op, model=model, strategy=strategy):
            summary = run_batch(system, k, seed, box, strategy=strategy, horizon=HORIZON)
        self.digests[key + "/summary"].add(digest_json(summary.to_json()))
        problems = []
        for i in range(k):
            run_seed = batch_schedule_seed(seed, i)
            init = sample_init(box, random.Random(run_seed ^ INIT_SEED_MASK))
            schedule = Schedule(strategy=strategy, seed=run_seed, horizon=HORIZON)
            with tr.span("simulator.run", op, model=model, strategy=strategy) as counts:
                try:
                    trace = run(system, schedule, init)
                except StuckState:
                    counts["stuck"] = 1
                    continue
            counts["points"] = len(trace.points)
            counts["violations"] = len(trace.violations)
            for p in trace.points:
                event = "event." + p.event.partition("(")[0]
                counts[event] = counts.get(event, 0) + 1
            if model == "watertank":
                problems += watertank_point_problems(p.values for p in trace.points)
            if i == 0 and write_csv:
                path = self.work / f"{model}.replay.csv"
                with tr.span("simulator.write_trace_csv", op, model=model) as counts:
                    write_trace_csv(trace, path)
                counts["bytes"] = path.stat().st_size
                self.digests[key + "/csv"].add(digest_file(path))
        self.op(problems)

    # -- rounds -------------------------------------------------------------

    def round(self, r: int, traced: bool) -> None:
        self.tracer.enabled = traced
        self.tracer.round = r
        replays = []
        for model, strategy, seed, write_csv in self.sim_ops:
            done = self.run_simulate(r, model, strategy, seed, write_csv)
            if done is not None:
                replays.append((*done, model, strategy, seed, write_csv))
        self.run_checks(r)
        for model in self.cli_models:
            self.run_cli_model(r, model)
        if not traced:
            return
        for op, key, model, strategy, seed, write_csv in replays:
            self.replay_simulation(op, key, model, strategy, seed, write_csv)
        for model in self.cli_models:
            self.replay_cli_layers(model)
        op = self.next_op()
        for i in range(IMPORT_PROBES):
            with self.tracer.span("cli.import", op) as counts:
                child = self.launcher.spawn(
                    [sys.executable, "-c", "import time; t = time.perf_counter(); "
                     "import ccskit.cli; print(time.perf_counter() - t)"],
                    self.work / "import.out",
                )
                counts["import_s"] = float(child.out.read_text())

    def measure(self) -> None:
        t_start = time.perf_counter()
        durations: list[float] = []
        r = 0
        # A traced run alternates untraced and traced rounds; their
        # end-to-end times give the tracing overhead.
        min_rounds = 2 if self.trace else 1
        while True:
            t0 = time.perf_counter()
            self.round(r, traced=self.trace and r % 2 == 1)
            durations.append(time.perf_counter() - t0)
            r += 1
            elapsed = time.perf_counter() - t_start
            if r >= min_rounds and elapsed + max(durations[-2:]) > self.seconds:
                break
        self.tracer.enabled = False
        self.rounds = r
        self.round_s = durations

    def verify_pinned(self) -> None:
        """The pinned `ccs simulate` batch of every (model, strategy) this
        workload simulates, run through the CLI, against pinned.json."""
        pinned = json.loads(PINNED.read_text())["digests"]
        for model, strategy in sorted(set(self.mix.sim)):
            key = f"{model}/{strategy}"
            got = pinned_digests(self.launcher, model, strategy, self.work)
            want = pinned.get(key)
            self.op([] if got == want else [f"pinned digest of {key}: {got} != {want}"])
        for key, values in sorted(self.digests.items()):
            self.op([] if len(values) == 1 else [f"{key}: {len(values)} digests across repeats"])

    # -- metrics ------------------------------------------------------------

    def scale(self, r: int) -> float:
        """Factor that takes a time measured in round `r` to reference speed."""
        return CPU_REFERENCE_S / statistics.fmean(self.reference[r])

    def end_to_end(self, scale) -> dict:
        """Each timing is multiplied by `scale(sample)`. Batch throughput is
        runs over wall time of all batches, check time the median over rounds
        of a round's total, command times medians over commands, and memory
        the median over children."""
        by_kind = defaultdict(lambda: defaultdict(list))  # kind -> round -> samples
        for s in self.samples:
            by_kind[s["kind"]][s["round"]].append(s)

        def per_round_total(kind):
            return statistics.median(
                sum(s["wall_s"] * scale(s) for s in v) for v in by_kind[kind].values())

        def cmd_ms(kind):
            return statistics.median(
                s["wall_s"] * scale(s) for v in by_kind[kind].values() for s in v) * 1e3

        def rss(kinds):
            return statistics.median(
                s["rss_mb"] for k in kinds for v in by_kind[k].values() for s in v)

        sims = [s for v in by_kind["simulate"].values() for s in v]
        cli_kinds = [k for k in by_kind if k.startswith("cli.")]
        cli_walls = [s["wall_s"] * scale(s) for k in cli_kinds
                     for v in by_kind[k].values() for s in v]
        values = {
            "setup_s": (statistics.median(s["wall_s"] * scale(s) for s in self.setup_probes), "s"),
            "sim.runs_per_s": (
                sum(s["runs"] for s in sims) / sum(s["wall_s"] * scale(s) for s in sims), "1/s"),
            "sim.peak_rss_mb": (rss(["simulate"]), "MB"),
            "check.verdicts_s": (per_round_total("check"), "s"),
            "cli.check_ms": (cmd_ms("cli.check"), "ms"),
            "cli.compose_ms": (cmd_ms("cli.compose"), "ms"),
            "cli.obligations_ms": (cmd_ms("cli.obligations"), "ms"),
            "cli.export_kyx_ms": (cmd_ms("cli.export_kyx"), "ms"),
            "cli.p90_ms": (p90(cli_walls) * 1e3, "ms"),
            "cli.peak_rss_mb": (rss(cli_kinds), "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def per_layer(self) -> dict:
        traced = sorted({s["round"] for s in self.tracer.spans})
        spans = defaultdict(list)
        for s in self.tracer.spans:
            spans[s["name"]].append(s)
        dur = lambda s: (s["end"] - s["start"]) * self.scale(s["round"])

        def med_ms(name, where=lambda s: True):
            return statistics.median(dur(s) for s in spans[name] if where(s)) * 1e3

        def per_round(name, fn, where=lambda s: True):
            """Median over traced rounds of fn(spans of that round)."""
            return statistics.median(
                fn([s for s in spans[name] if s["round"] == r and where(s)]) for r in traced
            )

        def count(name, key, where=lambda s: True):
            return per_round(name, lambda v: sum(s["counts"].get(key, 0) for s in v), where)

        def rate(name, key):
            return sum(s["counts"].get(key, 0) for s in spans[name]) / sum(map(dur, spans[name]))

        checks = spans["obligations.check_bounded"]
        runs = spans["simulator.run"]
        values = {
            "cli.import_ms": (
                statistics.median(s["counts"]["import_s"] * self.scale(s["round"])
                                  for s in spans["cli.import"]) * 1e3, "ms"),
            "dsl.parse_ms": (med_ms("dsl.parse"), "ms"),
            "dsl.tokens_per_s": (rate("dsl.tokenize", "tokens"), "1/s"),
            "dsl.load_ms": (med_ms("dsl.load"), "ms"),
            "composition.compose_ms": (med_ms("composition.compose"), "ms"),
            "dsl.serialize_composed_ms": (med_ms("dsl.serialize_composed"), "ms"),
            "obligations.generate_ms": (med_ms("obligations.generate"), "ms"),
            "obligations.count": (count("obligations.generate", "count"), "count"),
            "obligations.render_kyx_ms": (med_ms("obligations.render_kyx"), "ms"),
            "obligations.kyx_bytes": (count("obligations.render_kyx", "bytes"), "B"),
        }
        for name in CHECK_SETS:
            values[f"obligations.check_bounded_ms.{name}"] = (
                per_round("obligations.check_bounded", lambda v: sum(map(dur, v)) * 1e3,
                          lambda s, n=name: s["model"] == n),
                "ms",
            )
        values.update({
            "obligations.check_points_per_s": (rate("obligations.check_bounded", "total"), "1/s"),
            "obligations.antecedent_ratio": (
                sum(s["counts"]["checked"] for s in checks)
                / sum(s["counts"]["total"] for s in checks), "ratio"),
            "obligations.counterexamples": (count("obligations.check_bounded", "counterexamples"), "count"),
            "obligations.truncated": (count("obligations.check_bounded", "truncated"), "count"),
        })
        for strategy in STRATEGIES:
            times = [dur(s) * 1e3 for s in runs if s["strategy"] == strategy]
            values[f"simulator.run.{strategy}.p50_ms"] = (statistics.median(times), "ms")
            values[f"simulator.run.{strategy}.p90_ms"] = (p90(times), "ms")
        values["simulator.run.points_per_s"] = (rate("simulator.run", "points"), "1/s")
        values["simulator.run.points"] = (count("simulator.run", "points"), "count")
        for event in ("ode-step", "ctrl-fired", "guard-expiry", "loop-boundary"):
            values[f"simulator.run.events.{event}"] = (count("simulator.run", "event." + event), "count")
        values["simulator.run.violations"] = (count("simulator.run", "violations"), "count")
        values["simulator.run.stuck"] = (count("simulator.run", "stuck"), "count")

        def aggregate(batches):
            run_s = defaultdict(float)
            for s in runs:
                run_s[s["op"]] += dur(s)
            return sum(dur(b) - run_s[b["op"]] for b in batches) * 1e3

        values["simulator.run_batch.aggregate_ms"] = (per_round("simulator.run_batch", aggregate), "ms")
        values["simulator.write_trace_csv_ms"] = (med_ms("simulator.write_trace_csv"), "ms")
        values["simulator.trace_csv_bytes"] = (count("simulator.write_trace_csv", "bytes"), "B")
        values["trace.overhead_pct"] = (self.overhead_pct(), "%")
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def overhead_pct(self) -> float:
        """Traced minus untraced end-to-end time of a round, as a share."""
        traced = [t for r, t in self.round_e2e.items() if r % 2 == 1]
        plain = [t for r, t in self.round_e2e.items() if r % 2 == 0]
        self.trace_overhead_s = statistics.median(traced) - statistics.median(plain)
        return 100.0 * self.trace_overhead_s / statistics.median(plain)

    def record(self) -> dict:
        return {
            "git_sha": git_sha(),
            "python": sys.version,
            "cpu_count": os.cpu_count(),
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "load": "closed loop, one client, one operation at a time",
            "schedules": self.mix.schedules,
            "simulate": [
                {"model": m, "strategy": s, "seed": seed, "csv": c}
                for m, s, seed, c in self.sim_ops
            ],
            "grids": self.mix.grids,
            "flow_samples": FLOW_SAMPLES,
            "cli_models": self.cli_models,
            "bytecode_warm": self.bytecode_warm,
            "setup_probes_s": [s["wall_s"] for s in self.setup_probes],
            "setup_in_process_s": self.setup_in_process_s,
            "cold_call_s": self.prep["cold_s"],
            "rounds": self.rounds,
            "round_s": self.round_s,
            "samples": {k: sum(s["kind"] == k for s in self.samples)
                        for k in sorted({s["kind"] for s in self.samples})},
            "trace_overhead_s": getattr(self, "trace_overhead_s", None),
            "digests": {k: sorted(v) for k, v in sorted(self.digests.items())},
            "failures": self.failures[:20],
            "reference_s": {r: statistics.fmean(v) for r, v in sorted(self.reference.items())},
            "unscaled": getattr(self, "unscaled", None),
        }


def cpu_loop_s() -> float:
    """Wall time of a fixed pure-Python loop that stays in cache and runs no
    ccskit code."""
    t0 = time.perf_counter()
    d, x = {}, 0.0
    for i in range(20000):
        k = i & 255
        d[k] = d.get(k, 0.0) * 0.5 + i
        x += (i * 1.000001) % 7.0
    return time.perf_counter() - t0


class Heap:
    """Small dicts spread over more memory than the caches hold."""

    def __init__(self) -> None:
        self.objects = [{"v": float(i), "w": i} for i in range(HEAP_OBJECTS)]
        self.order = random.Random(0).sample(range(HEAP_OBJECTS), HEAP_READS)

    def read_s(self) -> float:
        """Wall time of HEAP_READS reads at fixed random places."""
        t0 = time.perf_counter()
        x = 0.0
        for i in self.order:
            o = self.objects[i]
            x += o["v"] * 0.5 + o["w"]
        return time.perf_counter() - t0


def p90(values: list[float]) -> float:
    """Linearly interpolated 90th percentile; the only value when there is one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def pinned_digests(launcher: Launcher, model: str, strategy: str, work: Path) -> dict:
    """Exit code of `ccs simulate` on the pinned batch (PIN_SCHEDULES
    schedules at PIN_SEED, `--out pin.csv`), and digests of the summary it
    prints and of the run-0 CSV it writes."""
    csv_path = work / "pin.csv"
    csv_path.unlink(missing_ok=True)
    args = ["simulate", f"corpus/{model}.ccs", "--schedules", str(PIN_SCHEDULES),
            "--seed", str(PIN_SEED), "--strategy", strategy, "--out", str(csv_path)]
    child = launcher.spawn(ccs(*args), work / "pin.out")
    summary = read_json(child.out)
    return {
        "code": child.code,
        "summary": None if summary is None else digest_json(summary),
        "csv": digest_file(csv_path) if csv_path.is_file() else None,
    }


def git_sha() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (SRC / "ccskit" / "cli.py", CORPUS, GOLDEN, PINNED) if not p.exists()]
    if missing:
        print("not a ccskit checkout; missing " + ", ".join(map(str, missing)), file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        bench.setup()
        bench.measure()
        if bench.trace:
            metrics = bench.per_layer()
        else:
            metrics = bench.end_to_end(lambda s: s["scale"])
            bench.unscaled = bench.end_to_end(lambda s: 1.0)
        bench.verify_pinned()
        record = bench.record()
        if bench.trace:
            (WORK / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps({"record": record, "spans": bench.tracer.spans})
            )
    finally:
        bench.launcher.close()
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
