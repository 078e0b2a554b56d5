"""Run one benchmark job in a fresh interpreter and report it as JSON.

Usage: python3 bench/job.py '<job spec as JSON>'

The spec names the job ("cli" with an argv, "interval_probability" with
lo/hi/eps on the primes, or "probe", which only imports), the directory
harmsum must be imported from, and whether to trace. The process writes
"ready" on stdout as soon as harmsum.cli is imported, so the parent can
time interpreter start plus import, then runs the job with its output
captured and writes one JSON line: exit code, error, job seconds, peak
RSS, the captured output, and the spans when tracing.
"""

import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path


def run(spec: dict) -> dict:
    import harmsum.analytic
    import harmsum.cli
    from harmsum.sequences import SequenceSpec

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    out = io.StringIO()
    code, error = 0, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if spec["kind"] == "cli":
                code = harmsum.cli.main(spec["argv"])
            elif spec["kind"] == "interval_probability":
                p = harmsum.analytic.interval_probability(
                    SequenceSpec.primes(), spec["lo"], spec["hi"], spec["eps"]
                )
                print(repr(p))
    except Exception as exc:  # reported as a failed job, never hidden
        code, error = 1, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return {
        "code": code,
        "error": error,
        "seconds": seconds,
        "stdout": out.getvalue(),
        "spans": tracer.spans if tracer else [],
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    import harmsum.cli

    src = Path(spec["src"]).resolve()
    if src not in Path(harmsum.cli.__file__).resolve().parents:
        print(f"harmsum imported from {harmsum.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if spec["kind"] == "probe":
        import numpy

        result = {"python": platform.python_version(), "numpy": numpy.__version__}
    else:
        result = run(spec)
    result["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
