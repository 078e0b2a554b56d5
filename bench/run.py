"""End-to-end benchmark of harmsum: the jobs users run, each in a fresh
interpreter, and a traced run that splits their time by layer.

    python3 bench/run.py --workload exact|density|mc [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke

It benchmarks the tree it sits in (src/harmsum), whatever the working
directory. A run repeats the workload's jobs while another pass fits in
--seconds (at least one pass), checks every answer, prints one
"name value unit" line per metric, writes everything it measured, spans
included, to bench/out/, and ends with one JSON line holding the metrics
that BENCHMARK.json lists for the mode. --smoke runs every workload at
tiny sizes, traced and untraced, and checks that every metric prints with
its unit. See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 20260819
MACHINE_NOTE = "2 cores, ~7 GiB"
SETUP_PROBES = 10
RUN_DEADLINE_S = 170.0  # a run must end within 180 s, even when a job hangs
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(SRC),
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)

# Published scaled minima and gaps over prime prefixes; the same independent
# values as tests/test_acceptance.py.
TABLE1 = [
    1, 1, 1, 23, 43, 251, 263, 21013, 1407079, 4919311,
    818778281, 2402234557, 379757743297, 3325743954311, 54237719914087,
    903944329576111, 46919460458733911, 367421942920402841,
    17148430651130576323, 1236225057834436760243, 4190310920096832376289,
    535482916756698482410061, 29119155169912957197310753,
    443284248908491516288671253, 28438781483496930396689638231,
    10196503226925713726754541885481, 137512198125317766267968137765087,
    5572821202475305606211985553786081, 77833992457426020006787481021085581,
    24244850423688161715955346535954790877,
    2030349334778419995324119439659994086131,
    76860130392109667765387079377871685276909,
    5191970624445760882844533168270184721318637,
    329643209271348431895096550792159132283920307,
    19171590315567357340242017182966253037383120953,
    58192378490977430486851365332352874578233287403,
    837477642920747839191618216897250374978659503996169,
    130665466261033919414441892800025408642432364448372023,
    7541550169407232608689149525984967898398947805296216009,
    23868339955752715692132986729285170427530832996153507207,
]
TABLE3 = [
    1, 1, 1, 2, 22, 35, 263, 4675, 24871, 104006,
    2356081, 6221080, 141769355, 6096082265, 6928889495,
    367231143235, 1283811918935, 78312527055035, 5246939312687345,
    372532691200801495, 8815359347599933286, 223849990729887044174,
]

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "fail_frac": "ratio",
    "table1_s": "s",
    "table3_s": "s",
    "table1_rss_mib": "MiB",
    "interval_prob_s": "s",
    "primes_grid_s": "s",
    "harmonic_grid_s": "s",
    "anchor_abs_err": "1",
    "mc_samples_per_s": "1/s",
    "mc_small_samples_per_s": "1/s",
}
COMMON_E2E = ("setup_s", "wall_s", "peak_rss_mib", "fail_frac")
WORKLOAD_E2E = {
    "exact": ("table1_s", "table3_s", "table1_rss_mib"),
    "density": ("interval_prob_s", "primes_grid_s", "harmonic_grid_s", "anchor_abs_err"),
    "mc": ("mc_samples_per_s", "mc_small_samples_per_s"),
}


# -- answer checks: each takes the job's stdout and returns (problem, values)


def _check_table(expected: list[int]) -> Callable:
    def check(out: str):
        got = [tuple(int(v) for v in line.split()) for line in out.splitlines()]
        if got != list(enumerate(expected, 1)):
            return f"rows differ from the published rows 1..{len(expected)}", {}
        return None, {}

    return check


def _grid_rows(out: str) -> list[tuple[float, ...]]:
    return [
        tuple(float(v) for v in line.split("\t"))
        for line in out.splitlines()
        if not line.startswith("#")
    ]


def _check_grid(points: int) -> Callable:
    def check(out: str):
        rows = _grid_rows(out)
        if len(rows) != points or not all(math.isfinite(v) for row in rows for v in row):
            return f"expected {points} rows of finite numbers", {}
        return None, {}

    return check


def _check_anchor(out: str):
    # Schmuland (2003): g(2) = 1/8 for b_n = n
    x, g, estimate = next(row for row in _grid_rows(out) if row[0] == 2.0)
    err = abs(g - 0.125)
    if err > estimate:
        return f"|g(2) - 1/8| = {err:.3g} exceeds the error estimate {estimate:.3g}", {
            "anchor_abs_err": err
        }
    return None, {"anchor_abs_err": err}


def _check_probability(out: str):
    p = float(out)
    return (None if 0.0 < p < 1.0 else f"probability {p} is outside (0, 1)"), {}


def _check_mc(out: str):
    z = float(dict(line.split("\t") for line in out.splitlines())["z_score"])
    return (None if abs(z) <= 5.0 else f"|z_score| = {abs(z):.2f} exceeds 5"), {"z_score": z}


# -- workloads


@dataclass(frozen=True)
class Job:
    metric: str  # end-to-end metric named after the job
    spec: dict  # what bench/job.py runs
    check: Callable
    samples: int = 0  # MC jobs report samples per second instead of seconds
    rss_metric: str | None = None


def _cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def workload_jobs(workload: str, seed: int, smoke: bool) -> list[Job]:
    if workload == "exact":
        n1, n3 = (12, 10) if smoke else (40, 22)
        return [
            Job(
                "table1_s",
                _cli("table1", "--upto", n1, "--emit", "bfile"),
                _check_table(TABLE1[:n1]),
                rss_metric="table1_rss_mib",
            ),
            Job("table3_s", _cli("table3", "--upto", n3, "--emit", "bfile"), _check_table(TABLE3[:n3])),
        ]
    if workload == "density":
        loose = ["--eps", "1e-4"] if smoke else []
        points, grid = (3, "0:2:3") if smoke else (9, "0:3:7")
        return [
            Job(
                "interval_prob_s",
                {"kind": "interval_probability", "lo": -0.1, "hi": 0.1, "eps": 1e-4 if smoke else 1e-8},
                _check_probability,
            ),
            # argparse reads "--grid -2:2:9" as two flags, so the "=" form is needed
            Job("primes_grid_s", _cli("density", f"--grid=-2:2:{points}", *loose), _check_grid(points)),
            Job(
                "harmonic_grid_s",
                _cli("density", "--kind", "ap", "--a", 1, "--q", 1, "--grid", grid,
                     "--eps", "1e-4" if smoke else "1e-6"),
                _check_anchor,
            ),
        ]
    eps = "1e-4" if smoke else "1e-6"
    big, small = (2000, 2000) if smoke else (200_000, 4_000_000)
    mc = ("mc", "--seed", seed, "--lo", -0.1, "--hi", 0.1, "--eps", eps)
    return [
        Job("mc_samples_per_s", _cli(*mc, "--n", 10_000, "--samples", big), _check_mc, samples=big),
        Job("mc_small_samples_per_s", _cli(*mc, "--n", 100, "--samples", small), _check_mc, samples=small),
    ]


# -- running jobs


def spawn(spec: dict, deadline: float) -> tuple[float | None, float, dict | None, str | None]:
    """Run bench/job.py once. Returns (set-up seconds, seconds after set-up,
    its JSON result, problem)."""
    spec = dict(spec, src=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "job.py"), json.dumps(spec)],
        cwd=ROOT,
        env=CHILD_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,  # unbuffered, so readline leaves the rest for communicate
    ) as proc:
        ready = proc.stdout.readline() == b"ready\n"
        t_ready = time.perf_counter()
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - t_ready))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, time.perf_counter() - t_ready, None, "timed out"
    elapsed = time.perf_counter() - t_ready
    out, err = out.decode(), err.decode(errors="replace")
    try:
        result = json.loads(out.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return (t_ready - t0 if ready else None), elapsed, None, f"exit {proc.returncode}: {tail[0]}"
    problem = None if proc.returncode == 0 else f"exit {proc.returncode}"
    return (t_ready - t0 if ready else None), elapsed, result, problem


def run_job(job: Job, traced: bool, deadline: float) -> dict:
    setup_s, elapsed, result, problem = spawn(dict(job.spec, trace=traced), deadline)
    record = {
        "job": job.metric,
        "traced": traced,
        "setup_s": setup_s,
        "seconds": elapsed,
        "rss_mib": None,
        "values": {},
        "spans": [],
    }
    if result is not None:
        record.update(seconds=result["seconds"], rss_mib=result["maxrss_mib"], spans=result["spans"])
        if problem is None and result["error"]:
            problem = result["error"]
        elif problem is None and result["code"] != 0:
            problem = f"harmsum exited {result['code']}"
        if problem is None:
            try:
                problem, record["values"] = job.check(result["stdout"])
            except (ValueError, KeyError, IndexError, StopIteration) as exc:
                problem = f"unreadable output ({type(exc).__name__}: {exc})"
    record["problem"] = problem
    return record


def measure(jobs: list[Job], seconds: float, trace: bool, smoke: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    probes = [spawn({"kind": "probe", "trace": False}, deadline) for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        t = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            passes.append([run_job(job, traced, deadline) for job in jobs])
        now = time.perf_counter()
        # another pass only if, at this pace, it would end within --seconds
        if smoke or now - start + (now - t) > seconds or now > deadline:
            break
    versions = next((result for _, _, result, _ in probes if result), {})
    return {"probes": probes, "passes": passes, "versions": versions}


# -- metrics


def _median_times(passes: list[list[dict]], index: int) -> float:
    return statistics.median(records[index]["seconds"] for records in passes)


def metrics_of(jobs: list[Job], measured: dict, trace: bool) -> dict:
    passes = measured["passes"]
    plain = [p for p in passes if not p[0]["traced"]]
    records = [r for p in passes for r in p]
    setups = [s for s, _, _, _ in measured["probes"]] + [r["setup_s"] for r in records]
    times = [_median_times(plain, i) for i in range(len(jobs))]
    m = {
        "setup_s": statistics.median(s for s in setups if s is not None),
        "wall_s": sum(times),
        "peak_rss_mib": max((r["rss_mib"] for p in plain for r in p if r["rss_mib"]), default=0.0),
        "fail_frac": sum(r["problem"] is not None for r in records) / len(records),
    }
    for i, (job, t) in enumerate(zip(jobs, times)):
        m[job.metric] = job.samples / t if job.samples else t
        if job.rss_metric:
            m[job.rss_metric] = max((p[i]["rss_mib"] or 0.0) for p in plain)
        for key in plain[0][i]["values"].keys() & E2E_UNITS.keys():
            m[key] = statistics.median(p[i]["values"][key] for p in plain if key in p[i]["values"])
    if trace:
        traced = [p for p in passes if p[0]["traced"]]
        layers = [spans.layer_metrics([r["spans"] for r in p]) for p in traced]
        for name in layers[0]:
            m[name] = statistics.median(lm[name] for lm in layers)
        traced_wall = sum(_median_times(traced, i) for i in range(len(jobs)))
        m["trace.overhead_s"] = traced_wall - m["wall_s"]
    return m


# -- environment and report


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
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


def environment(versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy", "unknown"),
        "git_sha": git_sha(),
        "note": MACHINE_NOTE,
        "job_threads": "one job process at a time; OMP/OPENBLAS/MKL_NUM_THREADS=1",
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[list[str], dict]:
    """One benchmark run: the report lines and the contract object."""
    jobs = workload_jobs(workload, seed, smoke)
    measured = measure(jobs, seconds, trace, smoke)
    m = metrics_of(jobs, measured, trace)
    units = dict(E2E_UNITS, **spans.UNITS)
    env = environment(measured["versions"])
    records = [r for p in measured["passes"] for r in p]
    failed = sum(r["problem"] is not None for r in records)
    lines = [
        f"# harmsum benchmark: workload={workload} seed={seed} trace={int(trace)} smoke={smoke} "
        f"passes={len(measured['passes'])} jobs={len(records)} failed={failed}",
        "# env " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    lines += [f"# FAILED {r['job']}: {r['problem']}" for r in records if r["problem"]]
    lines += [f"{name} {value!r} {units[name]}" for name, value in m.items()]

    modes = load_benchmark()["per_layer" if trace else "end_to_end"]
    contract = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {e["name"]: {"value": m[e["name"]], "unit": e["unit"]} for e in modes},
    }
    OUT.mkdir(exist_ok=True)
    name = f"BENCH_{workload}_trace{int(trace)}_seed{seed}{'_smoke' if smoke else ''}.json"
    (OUT / name).write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "seconds": seconds,
                "trace": int(trace),
                "smoke": smoke,
                "env": env,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in m.items()},
                "setup_probes_s": [s for s, _, _, _ in measured["probes"]],
                "jobs": [dict(r, spec=j.spec) for p in measured["passes"] for r, j in zip(p, jobs)],
            }
        )
    )
    return lines, contract


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(seed: int) -> int:
    """Every workload at tiny sizes, untraced and traced: every metric must
    print with its unit, the contract line must carry exactly the metrics
    BENCHMARK.json lists, and every answer must check."""
    bench = load_benchmark()
    problems = []
    for workload in WORKLOAD_E2E:
        for trace in (False, True):
            lines, contract = run(workload, seed, 0, trace, smoke=True)
            printed = {}
            for line in lines:
                if not line.startswith("#"):
                    name, _, unit = line.split(" ")
                    printed[name] = unit
            expected = {n: E2E_UNITS[n] for n in COMMON_E2E + WORKLOAD_E2E[workload]}
            if trace:
                expected.update(spans.UNITS)
            listed = bench["per_layer" if trace else "end_to_end"]
            where = f"{workload} trace={int(trace)}"
            problems += [f"{where}: {n} not printed in {u}" for n, u in expected.items() if printed.get(n) != u]
            if {n: v["unit"] for n, v in contract["metrics"].items()} != {e["name"]: e["unit"] for e in listed}:
                problems.append(f"{where}: contract metrics differ from BENCHMARK.json")
            if not contract["correct"]:
                problems.append(f"{where}: " + "; ".join(l for l in lines if l.startswith("# FAILED")))
            print(f"smoke {where}: {len(printed)} metrics printed", flush=True)
    for problem in problems:
        print("smoke FAILED: " + problem, file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("the seed must fit in 64 unsigned bits")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOAD_E2E))
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="MC workload seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    args = parser.parse_args()
    if not (SRC / "harmsum" / "cli.py").is_file():
        print(f"error: no harmsum sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    lines, contract = run(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    print("\n".join(lines))
    print(json.dumps(contract), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
