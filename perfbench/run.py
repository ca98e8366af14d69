"""End-to-end benchmark of the crosp command line, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload closed-n4000 --seed 1 --seconds 36 --trace 0

``--trace 0`` runs every command as its own ``python -m crosp.cli`` process,
one after another, and reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the same commands in-process through ``crosp.cli.main``,
alternating plain passes with passes traced by ``tracing.Tracer``, and
reports the per-layer metrics.  Every output is checked; a failed or wrong
command counts in ``failed``.  The second-to-last line of standard output
holds per-command timings and the environment, the last line the result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUPS_PER_PASS = 2  # set-ups before each untraced pass; setup_s is their median
PEAK_PASSES = 3  # peak_rss_mb is the largest child peak in this many passes
IMPORT_PROBES = 3  # `-X importtime` runs per traced run
COMMAND_TIMEOUT_S = 150
MC_SAMPLES = 1_000_000
SERIES_TOL = 1e-8
# `verify all` makes 3-sigma Monte Carlo checks, so about one seed in thirty
# fails by chance; it therefore always runs at the CLI's default seed
VERIFY_SEED = 0
NPROC = len(os.sched_getaffinity(0))


@dataclass
class Command:
    key: str  # unique within a workload; names the output file
    group: str  # timing group on the detail line
    args: list
    check: Callable  # (output bytes, values of earlier checks) -> value; raises CheckError
    threads: int = 1
    seed: int | None = None  # overrides the run's seed

    def argv(self, seed: int, out: Path) -> list:
        return [*self.args, "--seed", str(self.seed if self.seed is not None else seed),
                "--threads", str(self.threads), "--no-meta", "--out", str(out / f"{self.key}.json")]


@dataclass
class Result:
    rc: int
    wall_s: float
    rss_mb: float | None
    data: bytes | None
    stderr: str = ""


def _need(values: dict, key: str):
    if key not in values:
        raise CheckError(f"reference {key!r} is unavailable")
    return values[key]


def _closed_value(space: str, n: int):
    def check(data, values):
        value = checks.field(checks.result_doc(data, "ball_discrepancy", space, n), "value")
        checks.expect(value >= 0, f"closed discrepancy {value} is negative")
        return value
    return check


def independent_tau(space: str, n: int, path: Path) -> float:
    """tau[D] of a point-set file from checks.py, run as a child process.

    A child's ru_maxrss includes the peak RSS of the process that launched
    it, so the driver keeps the oracle's N x N arrays out of its own memory.
    """
    r = subprocess.run([sys.executable, str(HERE / "checks.py"), space, str(n), str(path)],
                       stdin=subprocess.DEVNULL, capture_output=True, text=True,
                       timeout=COMMAND_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"independent tau[D] failed:\n{r.stderr}")
    return float(r.stdout)


def workload(name: str, inp: Path) -> tuple[list, list]:
    """Reference commands (run once per run) and the commands of one pass."""
    spaces = Command("spaces", "startup", ["spaces"], lambda d, v: checks.check_spaces(d))
    if name == "closed-n4000":
        n = 4000
        # independent oracles for tau[D], computed before any pass is timed
        tau = {s: independent_tau(s, n, inp / f"{s}.json") for s in ("s2", "hp2")}

        def closed(space):
            def check(data, values):
                lam = checks.field(checks.result_doc(data, "ball_discrepancy", space, n), "value")
                checks.check_identity(lam, tau[space], _need(values, f"constants-{space}"), n)
            return check

        def energy_hp2(data, values):
            doc = checks.result_doc(data, "pair_sum", "hp2", n)
            checks.expect(doc.get("metric") == "chordal", f"metric is {doc.get('metric')!r}")
            checks.check_pair_sum(checks.field(doc, "value"), tau["hp2"])

        refs = [Command(f"constants-{s}", "constants", ["constants", "--space", s],
                        lambda d, v, s=s: checks.check_constants(d, s)) for s in ("s2", "hp2")]
        return refs, [
            spaces,
            Command("gen-s2", "gen", ["gen", "--space", "s2", "--n", str(n)],
                    lambda d, v: checks.check_pointset(d, "s2", n)),
            Command("closed-s2", "closed",
                    ["discrepancy", "--in", str(inp / "s2.json"), "--route", "closed"],
                    closed("s2")),
            Command("gen-hp2", "gen", ["gen", "--space", "hp2", "--n", str(n)],
                    lambda d, v: checks.check_pointset(d, "hp2", n)),
            Command("energy-hp2", "energy",
                    ["energy", "--in", str(inp / "hp2.json"), "--metric", "chordal"], energy_hp2),
            Command("closed-hp2", "closed",
                    ["discrepancy", "--in", str(inp / "hp2.json"), "--route", "closed"],
                    closed("hp2")),
        ]
    if name == "mc-hp2":
        n, mc = 100, ["discrepancy", "--in", str(inp / "hp2.json"), "--route", "mc",
                      "--samples", str(MC_SAMPLES)]

        def mc_check(data, values):
            doc = checks.result_doc(data, "ball_discrepancy", "hp2", n)
            checks.check_mc(doc, _need(values, "closed-hp2"), MC_SAMPLES)

        refs = [Command("closed-hp2", "closed",
                        ["discrepancy", "--in", str(inp / "hp2.json"), "--route", "closed"],
                        _closed_value("hp2", n))]
        return refs, [spaces, Command("mc-1", "mc", mc, mc_check, threads=1),
                      Command("mc-nproc", "mc_parallel", mc, mc_check, threads=NPROC)]
    if name == "series-certify":
        inputs = {"s2": (["--in", str(inp / "s2.json")], 150),
                  "op2": (["--in", str(inp / "op2.csv"), "--space", "op2"], 100)}

        def series_check(space, n):
            def check(data, values):
                doc = checks.result_doc(data, "ball_discrepancy", space, n)
                checks.check_series(doc, _need(values, f"closed-{space}"), SERIES_TOL, n)
            return check

        refs = [Command(f"closed-{s}", "closed", ["discrepancy", *a, "--route", "closed"],
                        _closed_value(s, n)) for s, (a, n) in inputs.items()]
        return refs, [spaces] + [
            Command(f"series-{s}", "series",
                    ["discrepancy", *a, "--route", "series", "--tol", str(SERIES_TOL)],
                    series_check(s, n)) for s, (a, n) in inputs.items()
        ] + [Command("verify", "verify", ["verify", "all"],
                     lambda d, v: checks.check_verify(d), seed=VERIFY_SEED)]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("closed-n4000", "mc-hp2", "series-certify")


class Judge:
    """Counts every command attempted and every failure.

    A command fails when it exits nonzero, writes no output, writes output
    that fails its check, or writes bytes that differ from those of an
    earlier invocation with the same arguments (outputs under --no-meta are
    byte-identical by contract).  The check runs on the first output of
    each command and is reused for identical later outputs.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.values = {}
        self._first = {}
        self._verdict = {}

    def __call__(self, cmd: Command, res: Result) -> bool:
        self.attempted += 1
        if res.rc != 0:
            why = f"exit code {res.rc}: {res.stderr.strip()[-300:]}"
        elif res.data is None:
            why = "wrote no output"
        elif cmd.key in self._first and res.data != self._first[cmd.key]:
            why = "output differs from an earlier run with identical arguments"
        else:
            if cmd.key not in self._first:
                self._first[cmd.key] = res.data
                try:
                    self.values[cmd.key] = cmd.check(res.data, self.values)
                    self._verdict[cmd.key] = None
                except CheckError as exc:
                    self._verdict[cmd.key] = str(exc)
            why = self._verdict[cmd.key]
        if why is not None:
            self.failures.append(f"{cmd.key}: {why}")
            print(f"perfbench: FAILED {cmd.key}: {why}", file=sys.stderr)
        return why is None


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CROSP_SEED", None)  # the benchmark always passes --seed
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, out: Path) -> Result:
    """Run one command as a fresh process; time it and read its peak RSS."""
    out.unlink(missing_ok=True)
    log = out.with_suffix(".stderr")
    t0 = time.perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT)
    fd = os.pidfd_open(proc.pid)
    try:
        if not select.select([fd], [], [], COMMAND_TIMEOUT_S)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, wall, usage.ru_maxrss / 1024, _read(out),
                  log.read_text(errors="replace") if proc.returncode else "")


def set_up(name: str, seed: int, inp: Path) -> float:
    """Write the workload's inputs into `inp` once; return the seconds it took."""
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, str(HERE / "inputs.py"), name, str(seed), str(inp)],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, env=child_env(), cwd=ROOT,
                       timeout=COMMAND_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if r.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{r.stderr.decode(errors='replace')}")
    return elapsed


def timed_loop(seconds: float, one_round: Callable) -> list:
    """Repeat one_round while another round of median length fits in `seconds`."""
    start, rounds, lengths = time.perf_counter(), [], []
    while not rounds or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        t0 = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        lengths.append(time.perf_counter() - t0)
    return rounds


def summarize(cmds: list, passes: list) -> tuple[dict, dict]:
    """End-to-end metrics and per-command detail from (ok, results) passes."""
    # a pass with a failed command is not timed as a success
    timed = [res for ok, res in passes if ok] or [res for _, res in passes]
    med = statistics.median

    def group_s(group):
        return med(sum(r.wall_s for c, r in zip(cmds, res) if c.group == group) for res in timed)

    metrics = {
        "wall_s": med(sum(r.wall_s for r in res) for res in timed),
        "startup_s": group_s("startup"),
        # the parallel Monte Carlo peak depends on how its threads overlap;
        # a fixed number of passes keeps the expected maximum independent of
        # how many passes fit in the run
        "peak_rss_mb": max(r.rss_mb for res in timed[:PEAK_PASSES] for r in res),
    }
    detail = {
        "passes": len(passes),
        "clean_passes": sum(ok for ok, _ in passes),
        "pass_wall_s": [sum(r.wall_s for r in res) for _, res in passes],
        "group_median_s": {f"{g}_s": group_s(g) for g in dict.fromkeys(c.group for c in cmds)},
        "command_s": {c.key: [res[i].wall_s for res in timed] for i, c in enumerate(cmds)},
        "command_peak_rss_mb": {c.key: max(res[i].rss_mb for res in timed[:PEAK_PASSES])
                                for i, c in enumerate(cmds)},
    }
    return metrics, detail


def run_untraced(name: str, seed: int, seconds: float, work: Path) -> tuple:
    inp = work / "inputs"
    setup_times = [set_up(name, seed, inp)]
    refs, cmds = workload(name, inp)
    out = work / "out"
    out.mkdir()
    judge = Judge()

    def launch(c: Command) -> Result:
        return spawn(["-m", "crosp.cli", *c.argv(seed, out)], out / f"{c.key}.json")

    for c in refs:
        judge(c, launch(c))

    def one_pass(_):
        # the inputs are written afresh before every pass (same seed, same
        # bytes), so the set-up samples span the run as the passes do
        setup_times.extend(set_up(name, seed, inp) for _ in range(SETUPS_PER_PASS))
        results = [launch(c) for c in cmds]
        return all([judge(c, r) for c, r in zip(cmds, results)]), results

    passes = timed_loop(seconds, one_pass)
    metrics, detail = summarize(cmds, passes)
    metrics["setup_s"] = statistics.median(setup_times)
    detail["setup_runs_s"] = setup_times
    return judge, metrics, detail


def run_traced(name: str, seed: int, seconds: float, work: Path) -> tuple:
    inp = work / "inputs"
    set_up(name, seed, inp)
    refs, cmds = workload(name, inp)
    out = work / "out"
    out.mkdir()
    sys.path.insert(0, str(SRC))
    import crosp.cli
    import tracing

    # every command starts with cold caches, as it would in a fresh process
    caches = [obj for mod_name, mod in list(sys.modules.items())
              if mod_name.split(".")[0] == "crosp" and mod is not None
              for obj in vars(mod).values() if callable(getattr(obj, "cache_clear", None))]

    def call(cmd: Command) -> Result:
        for fn in caches:
            fn.cache_clear()
        target = out / f"{cmd.key}.json"
        target.unlink(missing_ok=True)
        t0 = time.perf_counter()
        with redirect_stderr(io.StringIO()) as err:
            try:
                rc = crosp.cli.main(cmd.argv(seed, out))
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc()
                rc = -1
        wall = time.perf_counter() - t0
        return Result(rc, wall, None, _read(target), err.getvalue() if rc else "")

    judge = Judge()
    for c in refs:
        judge(c, call(c))

    imports = []
    for _ in range(IMPORT_PROBES):
        r = subprocess.run([sys.executable, "-X", "importtime", "-c", "import crosp"],
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, env=child_env(), cwd=ROOT,
                           timeout=COMMAND_TIMEOUT_S, text=True)
        if r.returncode != 0:
            raise RuntimeError(f"import crosp failed:\n{r.stderr}")
        imports.append(tracing.parse_importtime(r.stderr))

    def one_pass(traced: bool):
        tracer = tracing.Tracer()
        patched = tracer.install() if traced else []
        try:
            results = [call(c) for c in cmds]
        finally:
            tracer.uninstall(patched)
        for c, r in zip(cmds, results):
            judge(c, r)
        return sum(r.wall_s for r in results), tracer.metrics()

    one_pass(False)  # warm-up: first calls in a process pay one-off costs

    def one_pair(i):
        # alternate which side goes first so warm-up favours neither
        order = (False, True) if i % 2 == 0 else (True, False)
        return {traced: one_pass(traced) for traced in order}

    pairs = timed_loop(seconds, one_pair)
    med = statistics.median
    plain = med(p[False][0] for p in pairs)
    traced = med(p[True][0] for p in pairs)
    layer = [p[True][1] for p in pairs]
    metrics = {k: med(m[k] for m in layer) for k in layer[0]}
    for pkg in tracing.IMPORT_ROOTS:
        metrics[f"cli.import.{pkg}_s"] = med(i[pkg] for i in imports)
    metrics["trace.overhead_ratio"] = traced / plain
    detail = {"pairs": len(pairs), "plain_pass_s": plain, "traced_pass_s": traced}
    return judge, metrics, detail


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": NPROC, "cpu_model": cpu, "caches": caches, "versions": versions,
            "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                                if k.endswith("_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "crosp" / "cli.py").is_file():
        print(f"perfbench: no crosp sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_untraced
        judge, values, detail = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(judge.failures)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  fail_ratio=failed / judge.attempted, failures=judge.failures,
                  environment=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": judge.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
