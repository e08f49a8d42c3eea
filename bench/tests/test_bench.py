"""Tests of the benchmark itself: python3 -m pytest -q bench/tests"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def cli(argv: list[str]) -> bytes:
    return subprocess.run(
        [sys.executable, "-m", "twinreg.cli"] + argv, cwd=ROOT, env=ENV, capture_output=True, check=True
    ).stdout


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def work_dir():
    """A scratch directory inside the checkout, like the benchmark's own."""
    path = os.path.join(ROOT, ".bench_work", f"tests-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path)


def test_generator_is_deterministic(work_dir):
    a, b, c = (inputs.freq_pool(ROOT, seed, 4, os.path.join(work_dir, d)) for seed, d in ((7, "a"), (7, "b"), (8, "c")))
    blobs = [[open(p, "rb").read() for p in paths] for paths in (a, b, c)]
    assert blobs[0] == blobs[1]
    assert blobs[0] != blobs[2]
    assert len(set(blobs[0])) == 4
    assert inputs.cold_argvs(7) == inputs.cold_argvs(7) != inputs.cold_argvs(8)
    assert inputs.posterior_argv(7, 3) == inputs.posterior_argv(7, 3) != inputs.posterior_argv(7, 4)


@pytest.mark.parametrize("seed", range(20))
def test_generated_designs_are_full_rank_and_finite(seed):
    rng = random.Random(seed)
    n = rng.randint(inputs.MIN_QUARTERS, inputs.MAX_QUARTERS)
    text = inputs.jittered_csv(inputs.read_fixture(ROOT), rng, n).decode()
    assert len(text.splitlines()) == n + 1
    X, y = checks.design(checks.parse_rows(text))
    assert (X.shape[0] > X.shape[1]) and checks.np.linalg.matrix_rank(X) == X.shape[1]
    assert checks.np.isfinite(X).all() and checks.np.isfinite(y).all()


@pytest.fixture(scope="module")
def fixture_run():
    r = run.Run("test", 0, 0.0, False)
    yield r
    r.close()


def result(out: bytes, rc: int = 0, err: str = "") -> dict:
    return {"rc": rc, "out": out.decode("latin-1"), "err": err}


def test_correct_outputs_pass(fixture_run):
    for argv in inputs.cold_argvs(3):
        out = cli(argv)
        assert checks.check(argv, out, fixture_run.oracle(inputs.FIXTURE)) == [], argv
        assert not fixture_run.op_failed([argv], [result(out)], [out.decode("latin-1")])


def test_corrupted_outputs_count_as_failed(fixture_run):
    argv = ["report", "--input", inputs.FIXTURE, "--format", "json"]
    out = cli(argv)
    doc = json.loads(out)
    doc["ols"]["terms"][3]["estimate"] *= 1.001
    bad_ols = json.dumps(doc).encode()
    doc = json.loads(out)
    doc["bayes"]["parameters"][6]["median"] += 0.05
    bad_bayes = json.dumps(doc).encode()
    text_argv = ["describe", "--input", inputs.FIXTURE]
    text = cli(text_argv)
    bad_text = text.replace(b"Loss | 0.666", b"Loss | 0.676")
    assert bad_text != text
    cases = [
        ([argv], [result(bad_ols)], None),
        ([argv], [result(bad_bayes)], None),
        ([argv], [result(out[:-40])], None),
        ([argv], [result(out, rc=1)], None),
        ([argv], [result(out, err="numeric error: x\n")], None),
        ([argv], [result(out)], [bad_ols.decode("latin-1")]),
        ([text_argv], [result(bad_text)], None),
    ]
    for argvs, results, expected in cases:
        assert fixture_run.op_failed(argvs, results, expected)
    assert not fixture_run.op_failed([text_argv], [result(text)], None)


def test_tracer_spans_self_time_and_absent_names():
    t = tracer.Tracer()
    mod = type(sys)("fake_layers")
    mod.inner = lambda n: sum(range(n))
    mod.outer = lambda n: mod.inner(n) + mod.inner(n)
    sys.modules["fake_layers"] = mod
    try:
        t.install((
            ("fake_layers", "outer", "fake.outer", None),
            ("fake_layers", "inner", "fake.inner", None),
            ("fake_layers", "gone", "fake.gone", None),
            ("no_such_module", "x", "fake.module", None),
        ))
        t.op = 1
        assert t.call("cli.main", mod.outer, (10_000,)) == 2 * sum(range(10_000))
    finally:
        del sys.modules["fake_layers"]
    assert t.absent == ["fake.gone", "fake.module"]
    names = [s[tracer.NAME] for s in t.spans]
    assert names == ["cli.main", "fake.outer", "fake.inner", "fake.inner"]
    assert [s[tracer.PARENT] for s in t.spans] == [-1, 0, 1, 1]
    m = tracer.layer_metrics(t.spans, {1: ""}, {1: 0})
    assert set(m) <= {x["name"] for x in spec()["per_layer"]}
    main = t.spans[0]
    assert 0.0 <= m["cli.self_ms"] <= (main[tracer.END] - main[tracer.START]) * 1e3


NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_only_declared_metrics(trace):
    """A tiny run of every workload passes its checks and names only
    metrics that BENCHMARK.json declares."""
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "all",
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr
    doc = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 3, p.stderr
    declared = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    seen = {}
    for key, metric in doc["metrics"].items():
        workload, name = key.split(".", 1)
        assert workload in run.WORKLOADS
        assert NAME_RE.fullmatch(name) and name in declared, name
        assert metric["unit"] == declared[name]
        seen.setdefault(workload, set()).add(name)
    assert all(names == set(declared) for names in seen.values())
    assert len(seen) == len(run.WORKLOADS)


def test_refuses_to_run_without_the_program(work_dir):
    """In a directory holding only BENCHMARK.json and bench/, it exits non-zero
    and prints no result."""
    shutil.copytree(BENCH, os.path.join(work_dir, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work_dir)
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work_dir, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0 and p.stdout == ""
