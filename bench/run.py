"""twinreg benchmark: run one workload (or all) and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli_cold --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, the failure ratio, and the environment.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import checks
import inputs
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join("bench", "worker.py")
WORKLOADS = ("cli_cold", "posterior_heavy", "freq_batch")
# The latency tail is the highest percentile that keeps ~10 samples beyond it
# at the op counts each workload reaches in 25 s (cli_cold ~40, freq_batch
# ~750).  posterior_heavy cannot: ~12 ops of ~2 s each leave only ~3 samples
# beyond its p75.
TAIL_PCT = {"cli_cold": 75, "posterior_heavy": 75, "freq_batch": 98}
SETUP_REPS = 3
FREQ_POOL = 128  # distinct CSVs per freq_batch run, cycled by the ops
STARTUP_PROBES = 5


class Worker:
    """One ``worker.py serve`` process; one request in flight at a time."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "serve"],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.hello = self._read()
        src = os.path.join(ROOT, "src", "")
        if not self.hello["twinreg"].startswith(src):
            self.close()
            raise RuntimeError(f"worker imported twinreg from {self.hello['twinreg']}, not {src}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def request(self, doc: dict) -> dict:
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        try:
            return self.request({"exit": True}) if self.proc.poll() is None else {}
        finally:
            self.proc.stdin.close()
            self.proc.stdout.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def spawn(env: dict, args: list[str], out_path: str, err_path: str) -> tuple[int, float, int]:
    """Run ``python ARGS`` to completion; return (exit code, wall ms, max RSS kB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + args, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    ms = (time.perf_counter() - t0) * 1e3
    return os.waitstatus_to_exitcode(status), ms, usage.ru_maxrss


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timed_loop(seconds: float, start: int, do_op) -> tuple[list[float], float, int]:
    """Closed loop: start op k only after op k-1 returned, until the time is up."""
    lat = []
    k = start
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        lat.append(do_op(k))
        k += 1
    return lat, time.perf_counter() - t0, k


class Run:
    """State of one workload run: inputs, oracles, collected outputs."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.oracles: dict[str, checks.Oracle] = {}
        self.rows: dict[str, int] = {}
        # (op id, argvs, results, stdouts the results must equal or None)
        self.records: list[tuple[int, list[list[str]], list[dict], list[str] | None]] = []
        self.messages: list[str] = []

    def oracle(self, path: str) -> checks.Oracle:
        if path not in self.oracles:
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                text = fh.read()
            self.oracles[path] = checks.Oracle(text)
            self.rows[path] = sum(1 for line in text.splitlines()[1:] if line.strip())
        return self.oracles[path]

    def op_failed(self, argvs, results, expected) -> bool:
        """An op fails on a non-zero exit, any stderr, a failed oracle check,
        or stdout that differs from what the same argv printed elsewhere."""
        errs = []
        for i, (argv, res) in enumerate(zip(argvs, results)):
            if res["rc"] != 0 or res["err"]:
                errs.append(f"exit {res['rc']}, stderr {res['err'][:300]!r}")
                continue
            if expected is not None and res["out"] != expected[i]:
                errs.append("stdout differs from the same argv's earlier output")
            path = argv[argv.index("--input") + 1]
            errs += checks.check(argv, res["out"].encode("latin-1"), self.oracle(path))
        if errs and len(self.messages) < 5:
            self.messages.append(f"{argvs[0]}: {errs[:3]}")
        return bool(errs)

    def failures(self) -> int:
        return sum(self.op_failed(a, r, e) for _, a, r, e in self.records)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


def python_startup_ms(run: Run) -> float:
    out = os.path.join(run.work, "probe.out")
    return statistics.median(
        spawn(run.env, ["-c", "pass"], out, out)[1] for _ in range(STARTUP_PROBES)
    )


def op_kind(argvs: list[list[str]]) -> str:
    argv = argvs[0]
    if argv[0] not in ("bayes", "verdict", "report"):
        return ""
    return "hdi" if "--hdi" in argv else "et"


def layer_block(run: Run, traced: dict, ops: list[int], argvs_of, rates: tuple[float, float]) -> dict:
    """Per-layer metrics of the traced ``ops``.  ``traced`` holds the spans,
    absent names, and import times and module counts of the traced processes;
    ``rates`` are the untraced and traced ops/s."""
    kinds = {k: op_kind(argvs_of(k)) for k in ops}
    rows = {}
    for k in ops:
        argv = argvs_of(k)[0]
        path = argv[argv.index("--input") + 1]
        run.oracle(path)
        rows[k] = run.rows[path]
    metrics = tracer.layer_metrics(traced["spans"], kinds, rows)
    metrics.update({
        "python.startup_ms": python_startup_ms(run),
        "twinreg.import_ms": statistics.median(traced["import_ms"]),
        "twinreg.modules_loaded": statistics.median(traced["modules"]),
        "trace.untraced_ops_per_s": rates[0],
        "trace.traced_ops_per_s": rates[1],
        "trace.overhead_ratio": rates[0] / rates[1],
        "trace.absent_names": len(traced["absent"]),
    })
    if traced["absent"]:
        print(f"absent trace targets: {sorted(set(traced['absent']))}")
    return metrics


def run_cli_cold(run: Run) -> dict:
    setups = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        argvs = inputs.cold_argvs(run.seed)
        worker = Worker(run.env)
        setups.append(time.perf_counter() - t0)
        if rep < SETUP_REPS - 1:
            worker.close()
    out_path, err_path = os.path.join(run.work, "op.out"), os.path.join(run.work, "op.err")
    rss = []
    traced_doc = {"spans": [], "absent": [], "import_ms": [], "modules": []}

    def read(path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    def cold(k: int, traced: bool) -> float:
        argv = argvs[k % len(argvs)]
        if traced:
            span_file = os.path.join(run.work, f"spans-{k}.json")
            rc, ms, kb = spawn(run.env, [WORKER, "child", span_file] + argv, out_path, err_path)
            try:
                with open(span_file, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except OSError:  # the child died before writing; the op fails its checks
                doc = {"spans": [], "absent": [], "import_ms": None, "modules": None}
            offset = len(traced_doc["spans"])
            for s in doc["spans"]:
                s[tracer.OP] = k
                if s[tracer.PARENT] >= 0:
                    s[tracer.PARENT] += offset
            traced_doc["spans"] += doc["spans"]
            traced_doc["absent"] += doc["absent"]
            if doc["import_ms"] is not None:
                traced_doc["import_ms"].append(doc["import_ms"])
                traced_doc["modules"].append(doc["modules"])
        else:
            rc, ms, kb = spawn(run.env, ["-m", "twinreg.cli"] + argv, out_path, err_path)
        rss.append(kb)
        res = {"rc": rc, "out": read(out_path).decode("latin-1"), "err": read(err_path).decode("utf-8", "replace")}
        run.records.append((k, [argv], [res], None))
        return ms

    try:
        cold(-1, False)  # warm the page cache; not timed, not counted
        run.records.clear()
        rss.clear()
        if run.trace:
            lat, el, k = timed_loop(run.seconds / 2, 0, lambda k: cold(k, False))
            n_untraced = len(run.records)
            lat2, el2, _ = timed_loop(run.seconds / 2, k, lambda k: cold(k, True))
            traced_ops = [r[0] for r in run.records[n_untraced:]]
        else:
            lat, el, _ = timed_loop(run.seconds, 0, lambda k: cold(k, False))
        # the same argv in-process must print the same bytes as the cold run
        reference = [worker.request({"op": i, "argvs": [a]})["results"][0]["out"] for i, a in enumerate(argvs)]
        run.records[:] = [(k, a, r, [reference[k % len(argvs)]]) for k, a, r, _ in run.records]
    finally:
        worker.close()
    if run.trace:
        return layer_block(run, traced_doc, traced_ops, lambda k: [argvs[k % len(argvs)]],
                           (len(lat) / el, len(lat2) / el2))
    return e2e_metrics(run, setups, lat, el, max(rss))


def run_inprocess(run: Run, prepare, argvs_of, alloc: bool) -> dict:
    """Shared flow of the in-process workloads: set up, warm up, time, check."""
    setups, hellos = [], []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        prepare()
        worker = Worker(run.env)
        setups.append(time.perf_counter() - t0)
        hellos.append(worker.hello)
        if rep < SETUP_REPS - 1:
            worker.close()

    def op(k: int) -> float:
        reply = worker.request({"op": k, "argvs": argvs_of(k)})
        run.records.append((k, argvs_of(k), reply["results"], None))
        return reply["ms"]

    try:
        op(0)  # warm-up: not timed; its output is the reference for the repeat check
        if run.trace:
            lat, el, k = timed_loop(run.seconds / 2, 1, op)
            n_untraced = len(run.records)
            worker.request({"trace": True, "alloc": alloc})
            lat2, el2, _ = timed_loop(run.seconds / 2, k, op)
            traced_ops = [r[0] for r in run.records[n_untraced:]]
        else:
            lat, el, _ = timed_loop(run.seconds, 1, op)
        # a repeated argv and seed must give identical bytes: one more op
        again = worker.request({"op": 0, "argvs": argvs_of(0)})["results"]
        run.records.append((0, argvs_of(0), again, [r["out"] for r in run.records[0][2]]))
    finally:
        bye = worker.close()
    if run.trace:
        bye["import_ms"] = [h["import_ms"] for h in hellos]
        bye["modules"] = [h["modules"] for h in hellos]
        return layer_block(run, bye, traced_ops, argvs_of, (len(lat) / el, len(lat2) / el2))
    return e2e_metrics(run, setups, lat, el, bye["maxrss_kb"])


def run_posterior_heavy(run: Run) -> dict:
    return run_inprocess(
        run,
        lambda: None,  # the fixture is the input; argvs are made per op
        lambda k: [inputs.posterior_argv(run.seed, k)],
        alloc=True,
    )


def run_freq_batch(run: Run) -> dict:
    pool: list[str] = []

    def prepare() -> None:
        pool[:] = inputs.freq_pool(ROOT, run.seed, FREQ_POOL, os.path.relpath(run.work, ROOT))

    return run_inprocess(run, prepare, lambda k: inputs.freq_argvs(pool[k % len(pool)]), alloc=False)


def e2e_metrics(run: Run, setups: list[float], lat: list[float], elapsed: float, rss_kb: int) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "latency_ms_p50": percentile(lat, 50),
        "latency_ms_tail": percentile(lat, TAIL_PCT[run.workload]),
        "ops_per_s": len(lat) / elapsed,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def environment() -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "commit": "unknown",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            def read(name: str) -> str:
                with open(os.path.join(cache_dir, index, name), encoding="utf-8") as fh:
                    return fh.read().strip()
            if read("type") != "Instruction":
                env[f"L{read('level')}"] = read("size")
    except OSError:
        pass
    for dist in ("numpy", "scipy"):
        try:
            env[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            env[dist] = None
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        env["commit"] = head
    except OSError:
        pass
    n, p = inputs.POSTERIOR_DRAWS, len(checks.NAMES)
    env["posterior_heavy"] = {
        "draws": n,
        "params": p,
        "raw_block_words": 2 * n * p,  # Box-Muller: two 64-bit words per normal
        "raw_block_bytes": 16 * n * p,
        "beta_draws_bytes": 8 * n * p,
    }
    return env


def declared_units(trace: bool) -> dict:
    """Units of the metrics a run must emit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


RUNNERS = {"cli_cold": run_cli_cold, "posterior_heavy": run_posterior_heavy, "freq_batch": run_freq_batch}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    run = Run(name, seed, seconds, trace)
    try:
        metrics = RUNNERS[name](run)
        failed = run.failures()
        attempted = len(run.records)
    finally:
        run.close()
    units = declared_units(trace)
    print(f"== {name} (seed {seed}, {seconds:g} s, trace {int(trace)}) ==")
    for key, value in metrics.items():
        print(f"{key:40s} {value:14.4f} {units[key]}")
    metrics = {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}
    print(f"{'failed_ratio':40s} {failed / attempted:14.4f} ({failed} of {attempted} ops)")
    if not trace:
        print(f"latency_ms_tail is p{TAIL_PCT[name]}")
    for msg in run.messages:
        print(f"failure: {msg}", file=sys.stderr)
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    for need in (os.path.join("src", "twinreg", "cli.py"), inputs.FIXTURE):
        if not os.path.isfile(need):
            print(f"bench: {need} not found; run from a twinreg checkout", file=sys.stderr)
            return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
