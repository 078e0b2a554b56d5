"""Command line interface.

Subcommands cover term generation, the exact minimum searches and their
published-table reproductions, the cosine-product kernel and its limit,
the limiting density, finite-range inequality scans, and Monte Carlo
comparison. Output formats: tsv (default, '#'-prefixed header), json
(canonical key order, big integers as decimal strings), and bfile
("index value" pairs, no header), offered only where every value is an
integer; argparse refuses a format a subcommand does not offer.

Each subcommand takes only the limit flags it reads: --memory-gib, the
budget every subcommand prices its memory against, and for the exact
searches --force with --minsum-cap (minsum, table1, decay, two-stage) or
--gap-cap (gap, table3). An explicit cap wins over --force, which lifts
the default.

Exit codes: 0 success, 2 usage or domain error, 3 cap or resource limit,
4 numerical truncation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from .analytic import (
    check_decay,
    cosine_product,
    cosine_product_limit,
    densities,
    density,
    exponential_bound_suite,
    sandwich_suite,
)
from .errors import (
    GAP_CAP,
    MEMORY_GIB,
    MINSUM_CAP,
    CapExceeded,
    DivergedTruncation,
    RangeUnreachable,
    ResourceLimit,
    TruncationFailure,
    _check_memory,
)
from .exact import (
    decay_profile,
    min_gap,
    min_gaps,
    min_signed_sum,
    min_signed_sums,
    parse_exact,
    two_stage_for_n,
)
from .montecarlo import SimulationConfig, histogram, simulate
from .sequences import SequenceSpec, _sieve_bytes, generate, terms_array

EMITS = ("tsv", "json", "bfile")
# `seq` prints tsv and bfile rows in blocks of _SEQ_ROWS, each row holding
# at most _ROW_BYTES while its block prints: its term's Python int in a
# list, its line in a list and its share of the joined text (tracemalloc
# measured at most 151 B a row, with terms of 19 digits)
_SEQ_ROWS = 2**14
_ROW_BYTES = 192
_LONG_FLAG = re.compile(r"--[a-z][a-z-]*")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _budget_gib(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number of GiB, got {text}")
    return value


def _uint64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must fit in 64 unsigned bits, got {text}")
    return value


def _cap(explicit: int | None, force: bool, default: int) -> float:
    """An explicit cap wins over --force, which lifts the default."""
    return explicit or (math.inf if force else default)


def _spec_from_args(args) -> SequenceSpec:
    kind = args.kind
    if kind == "pk":
        return SequenceSpec.k_squarefree(args.k if args.k else 1)
    if kind == "omega-k":
        return SequenceSpec.k_distinct(args.k if args.k else 1)
    if kind == "ap":
        return SequenceSpec.arithmetic(args.a, args.q)
    if kind == "custom":
        if not args.values:
            raise ValueError("custom sequences need --values")
        return SequenceSpec.custom(int(v) for v in args.values.split(","))
    if kind == "nonprimes":
        return SequenceSpec.nonprimes()
    return SequenceSpec.primes()


def _jnum(x: float):
    return x if math.isfinite(x) else repr(x)


def _emit_pairs(emit: str, pairs, bfile_row=None) -> None:
    """One record of (key, value) pairs in canonical order."""
    if emit == "json":
        print(json.dumps(dict(pairs)))
    elif emit == "bfile":
        print(f"{bfile_row[0]} {bfile_row[1]}")
    else:
        for key, value in pairs:
            print(f"{key}\t{value}")


def _emit_table(emit: str, header, rows, json_key: str, bfile_cols=None) -> None:
    """Many records with a fixed column layout."""
    if emit == "json":
        print(json.dumps({json_key: [dict(zip(header, r)) for r in rows]}))
    elif emit == "bfile":
        i, j = bfile_cols
        for r in rows:
            print(f"{r[i]} {r[j]}")
    else:
        print("# " + "\t".join(header))
        for r in rows:
            print("\t".join(str(v) for v in r))


def _search_pairs(res) -> list:
    return [
        ("n", res.n),
        ("scaled_num", str(res.scaled_num)),
        ("den", str(res.den)),
        ("witness", str(res.witness)),
        ("tau", str(res.tau)),
    ]


def cmd_seq(args) -> int:
    spec = _spec_from_args(args)
    # priced before the sieve runs. json holds per term its Python int, its
    # decimal string in a list and its share of the text (176 B; tracemalloc
    # measured at most 166.5 B at n = 2e5 and 1e6, terms of up to 19 digits)
    if args.emit == "json":
        _check_memory(176 * args.n, args.memory_gib)
        terms = [str(t) for t in terms_array(spec, args.n).tolist()]
        print(json.dumps({"kind": spec.label(), "n": len(terms), "terms": terms}))
        return 0
    # tsv and bfile hold the int64 terms and what the sieve holds beside
    # them, and print from them one block of rows at a time
    rows = _ROW_BYTES * min(args.n, _SEQ_ROWS)
    _check_memory((8 + _sieve_bytes(spec)) * args.n + rows, args.memory_gib)
    terms = terms_array(spec, args.n)
    if args.emit == "tsv":
        print("# index\tterm")
    sep = "\t" if args.emit == "tsv" else " "
    for lo in range(0, len(terms), _SEQ_ROWS):
        block = terms[lo:lo + _SEQ_ROWS].tolist()
        print("\n".join(f"{i}{sep}{t}" for i, t in enumerate(block, lo + 1)))
    return 0


def cmd_minsum(args) -> int:
    spec = _spec_from_args(args)
    tau = parse_exact(args.tau)
    cap = _cap(args.minsum_cap, args.force, MINSUM_CAP)
    res = min_signed_sum(generate(spec, args.n), tau, cap=cap, memory_gib=args.memory_gib)
    _emit_pairs(args.emit, _search_pairs(res), bfile_row=(res.n, res.scaled_num))
    return 0


def cmd_gap(args) -> int:
    spec = _spec_from_args(args)
    cap = _cap(args.gap_cap, args.force, GAP_CAP)
    res = min_gap(generate(spec, args.n), cap=cap, memory_gib=args.memory_gib)
    pairs = [
        ("n", res.n),
        ("scaled_num", str(res.scaled_num)),
        ("den", str(res.den)),
        ("witness", str(res.witness)),
    ]
    _emit_pairs(args.emit, pairs, bfile_row=(res.n, res.scaled_num))
    return 0


def cmd_table1(args) -> int:
    results = min_signed_sums(
        generate(SequenceSpec.primes(), args.upto),
        range(1, args.upto + 1),
        cap=_cap(args.minsum_cap, args.force, MINSUM_CAP),
        memory_gib=args.memory_gib,
    )
    rows = [(res.n, str(res.scaled_num)) for res in results]
    _emit_table(args.emit, ("n", "scaled_minimum"), rows, "rows", bfile_cols=(0, 1))
    return 0


def cmd_table3(args) -> int:
    results = min_gaps(
        generate(SequenceSpec.primes(), args.upto),
        range(1, args.upto + 1),
        cap=_cap(args.gap_cap, args.force, GAP_CAP),
        memory_gib=args.memory_gib,
    )
    rows = [(res.n, str(res.scaled_num)) for res in results]
    _emit_table(args.emit, ("n", "scaled_gap"), rows, "rows", bfile_cols=(0, 1))
    return 0


def cmd_decay(args) -> int:
    spec = _spec_from_args(args)
    tau = parse_exact(args.tau)
    terms = generate(spec, args.hi)
    profile = decay_profile(
        terms,
        range(args.lo, args.hi + 1),
        tau,
        cap=_cap(args.minsum_cap, args.force, MINSUM_CAP),
        memory_gib=args.memory_gib,
    )
    rows = [
        (
            r.n,
            str(r.scaled_num),
            str(r.den),
            str(r.value),
            _jnum(r.log_value),
            _jnum(r.ref_log_sq),
            _jnum(r.ref_power),
        )
        for r in profile.rows
    ]
    header = ("n", "scaled_num", "den", "value", "log_value", "ref_log_sq", "ref_power")
    if args.emit == "json":
        print(
            json.dumps(
                {
                    "slope": _jnum(profile.slope),
                    "intercept": _jnum(profile.intercept),
                    "r_squared": _jnum(profile.r_squared),
                    "rows": [dict(zip(header, r)) for r in rows],
                }
            )
        )
    else:
        _emit_table(args.emit, header, rows, "rows")
        print(f"# slope={profile.slope!r} intercept={profile.intercept!r} r_squared={profile.r_squared!r}")
    return 0


def cmd_two_stage(args) -> int:
    tau = parse_exact(args.tau)
    cap = _cap(args.minsum_cap, args.force, MINSUM_CAP)
    res = two_stage_for_n(args.n, tau, cap=cap, memory_gib=args.memory_gib)
    pairs = [
        ("tau", str(tau)),
        ("refined_target", str(res.refined_target)),
        ("residual", str(res.residual)),
    ]
    stages = (("first", _search_pairs(res.first)), ("second", _search_pairs(res.second)))
    if args.emit == "json":
        pairs += [(name, dict(sp)) for name, sp in stages]
    else:
        pairs += [(f"{name}.{k}", v) for name, sp in stages for k, v in sp]
    _emit_pairs(args.emit, pairs)
    return 0


def cmd_rho(args) -> int:
    spec = _spec_from_args(args)
    if args.n is not None:
        # the terms, _rho_batch's float64 copy of them and what a sieve holds
        _check_memory((16 + _sieve_bytes(spec)) * args.n, args.memory_gib)
        rv = cosine_product(terms_array(spec, args.n), args.x)
        pairs = [("x", _jnum(rv.x)), ("n", rv.n), ("value", _jnum(rv.value))]
        _emit_pairs(args.emit, pairs)
    else:
        if args.eps is None:
            raise ValueError("need --n for the finite kernel or --eps for the limit")
        rv = cosine_product_limit(spec, args.x, args.eps, memory_gib=args.memory_gib)
        pairs = [
            ("x", _jnum(rv.x)),
            ("eps", _jnum(args.eps)),
            ("value", _jnum(rv.value)),
            ("tail_bound", _jnum(rv.tail_bound)),
            ("terms_used", rv.terms_used),
        ]
        _emit_pairs(args.emit, pairs)
    return 0


def cmd_density(args) -> int:
    spec = _spec_from_args(args)
    if args.grid:
        try:
            lo_s, hi_s, steps_s = args.grid.split(":")
            lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
        except ValueError:
            raise ValueError("--grid expects lo:hi:steps")
        if steps < 2 or not lo < hi:
            raise ValueError("--grid expects lo < hi and steps >= 2")
        rows = [
            (_jnum(d.x), _jnum(d.g), _jnum(d.quadrature_error_estimate))
            for d in densities(
                spec, np.linspace(lo, hi, steps), args.eps, memory_gib=args.memory_gib
            )
        ]
        _emit_table(args.emit, ("x", "g", "quadrature_error_estimate"), rows, "rows")
    else:
        d = density(spec, args.x, args.eps, memory_gib=args.memory_gib)
        pairs = [
            ("x", _jnum(d.x)),
            ("eps", _jnum(args.eps)),
            ("g", _jnum(d.g)),
            ("quadrature_error_estimate", _jnum(d.quadrature_error_estimate)),
            ("truncation_m", d.truncation_m),
            ("truncation_u", _jnum(d.truncation_u)),
        ]
        _emit_pairs(args.emit, pairs)
    return 0


def cmd_check(args) -> int:
    spec = _spec_from_args(args)
    if args.bound == "decay":
        report = check_decay(
            spec, args.n, args.alpha, args.grid, c_prime=args.c_prime, x_cap=args.x_cap,
            memory_gib=args.memory_gib,
        )
    else:
        # the terms and what a sieve holds; the suite prices its own scan
        _check_memory((8 + _sieve_bytes(spec)) * args.n, args.memory_gib)
        suite = exponential_bound_suite if args.bound == "exp" else sandwich_suite
        report = suite(
            terms_array(spec, args.n), pairs=args.pairs, seed=args.seed, x_max=args.x_max,
            memory_gib=args.memory_gib,
        )
    payload = {
        "bound": args.bound,
        "a": report.a,
        "x_lo": _jnum(report.x_lo),
        "x_hi": _jnum(report.x_hi),
        "samples": report.samples,
        "violations": [_jnum(v) for v in report.violations],
        "passed": report.passed,
        "c_prime": report.c_prime,
        "c_prime_defaulted": report.c_prime_defaulted,
    }
    _emit_pairs(args.emit, payload.items())
    return 0


def cmd_mc(args) -> int:
    spec = _spec_from_args(args)
    config = SimulationConfig(
        spec=spec, n=args.n, samples=args.samples, seed=args.seed, interval=(args.lo, args.hi)
    )
    if args.bins:
        rows = [
            (_jnum(r.center), _jnum(r.empirical), _jnum(r.expected))
            for r in histogram(config, args.bins, eps=args.eps, memory_gib=args.memory_gib)
        ]
        _emit_table(args.emit, ("center", "empirical", "expected"), rows, "bins")
    else:
        rep = simulate(config, eps=args.eps, memory_gib=args.memory_gib)
        pairs = [
            ("empirical_prob", _jnum(rep.empirical_prob)),
            ("predicted", _jnum(rep.predicted)),
            ("standard_error", _jnum(rep.standard_error)),
            ("z_score", _jnum(rep.z_score)),
            ("sample_mean", _jnum(rep.sample_mean)),
            ("sample_variance", _jnum(rep.sample_variance)),
        ]
        _emit_pairs(args.emit, pairs)
    return 0


# flags as (name, add_argument keywords); the limit flags, which come first,
# also name the subcommands that read them
_EXACT = ("minsum", "gap", "table1", "table3", "decay", "two-stage")
_LIMITS = (
    ("--force", _EXACT, {
        "action": "store_true",
        "help": "lift the default size caps, so that the memory budget and the 64-bit "
        "encodings bound N",
    }),
    ("--minsum-cap", ("minsum", "table1", "decay", "two-stage"),
     {"type": _positive_int, "help": "override the minimum-search cap"}),
    ("--gap-cap", ("gap", "table3"), {"type": _positive_int, "help": "override the gap-search cap"}),
    ("--memory-gib", _EXACT + ("seq", "rho", "density", "check", "mc"), {
        "type": _budget_gib, "default": MEMORY_GIB,
        "help": "memory budget in GiB (default: half of physical memory)",
    }),
)
_FAMILY = (
    ("--kind", {
        "choices": ("primes", "pk", "omega-k", "nonprimes", "ap", "custom"),
        "default": "primes", "help": "denominator sequence family",
    }),
    ("--k", {"type": _positive_int, "help": "prime-factor count for pk / omega-k"}),
    ("--a", {"type": _positive_int, "default": 1, "help": "first term for --kind ap"}),
    ("--q", {"type": _positive_int, "default": 1, "help": "common difference for --kind ap"}),
    ("--values", {"help": "comma separated terms for --kind custom"}),
)
_N = ("--n", {"type": _positive_int, "required": True})
_UPTO = ("--upto", {"type": _positive_int, "required": True})
_TAU = ("--tau", {"default": "0"})
_SEED = ("--seed", {"type": _uint64, "default": 0})


class _Command(NamedTuple):
    name: str
    func: Callable
    help: str
    flags: tuple = ()
    emits: tuple = ("tsv", "json")  # the --emit choices: bfile only for integer values
    emit: str = "tsv"  # the default --emit


_COMMANDS = (
    _Command("seq", cmd_seq, "emit the first n terms of a sequence", _FAMILY + (_N,), EMITS),
    _Command("minsum", cmd_minsum, "exact minimal |signed sum - tau|", _FAMILY + (
        _N, ("--tau", {"default": "0", "help": "target as an exact fraction, e.g. 1/3"}),
    ), EMITS),
    _Command("gap", cmd_gap, "exact minimal nonzero |three-valued sum|", _FAMILY + (_N,), EMITS),
    _Command("table1", cmd_table1, "scaled minima over prime prefixes 1..upto", (_UPTO,), EMITS),
    _Command("table3", cmd_table3, "scaled minimal gaps over prime prefixes 1..upto", (_UPTO,),
             EMITS),
    _Command("decay", cmd_decay, "minimum decay profile with reference curves", _FAMILY + (
        ("--lo", {"type": _positive_int, "required": True}),
        ("--hi", {"type": _positive_int, "required": True}),
        _TAU,
    )),
    _Command("two-stage", cmd_two_stage, "composite-then-prime refinement over {1..n}", (_N, _TAU)),
    _Command("rho", cmd_rho, "cosine-product kernel, finite or limiting", _FAMILY + (
        ("--n", {"type": _positive_int, "help": "factor count for the finite kernel"}),
        ("--x", {"type": float, "required": True}),
        ("--eps", {"type": float, "help": "tail tolerance for the limit"}),
    )),
    _Command("density", cmd_density, "limiting density of the random signed sum", _FAMILY + (
        ("--x", {"type": float, "default": 0.0}),
        ("--eps", {"type": float, "default": 1e-8}),
        ("--grid", {"help": "lo:hi:steps sweep instead of a single point"}),
    )),
    _Command("check", cmd_check, "finite-range inequality scans", _FAMILY + (
        ("--bound", {"choices": ("exp", "sandwich", "decay"), "required": True}),
        _N,
        ("--pairs", {"type": _positive_int, "default": 1000}),
        _SEED,
        ("--x-max", {"type": float, "default": 1000.0}),
        ("--alpha", {"type": float, "default": 1.0, "help": "decay exponent"}),
        ("--grid", {"type": _positive_int, "default": 200}),
        ("--c-prime", {"type": float, "help": "decay range constant"}),
        ("--x-cap", {"type": float, "default": 1e6}),
    ), emit="json"),
    _Command("mc", cmd_mc, "Monte Carlo comparison with the limiting density", _FAMILY + (
        _N,
        ("--samples", {"type": _positive_int, "required": True}),
        _SEED,
        ("--lo", {"type": float, "required": True}),
        ("--hi", {"type": float, "required": True}),
        ("--bins", {"type": _positive_int}),
        ("--eps", {"type": float, "default": 1e-8}),
    )),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone when it names
    one: main builds only the subcommand it runs. The usage line lists every
    subcommand either way, so help and usage errors read the same."""
    parser = argparse.ArgumentParser(
        prog="harmsum",
        description="Exact minimal signed harmonic sums and their limiting density.",
    )
    chosen = [c for c in _COMMANDS if c.name == command]
    metavar = "{" + ",".join(c.name for c in _COMMANDS) + "}" if chosen else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for c in chosen or _COMMANDS:
        p = sub.add_parser(c.name, help=c.help)
        p.add_argument("--emit", choices=c.emits, help="output format")
        limits = [(flag, kwargs) for flag, readers, kwargs in _LIMITS if c.name in readers]
        for flag, kwargs in limits + list(c.flags):
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=c.func, emit=c.emit)
    return parser


def _glue_negative_values(argv) -> list[str]:
    """Rewrite '--flag -2:2:9' as '--flag=-2:2:9'.

    argparse takes a token that starts with '-' for a flag unless it is a
    plain negative number, so values such as -2:2:9 or -1/3 would be refused.
    """
    out: list[str] = []
    for tok in argv:
        if out and _LONG_FLAG.fullmatch(out[-1]) and _NEGATIVE_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _glue_negative_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RangeUnreachable, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, ResourceLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DivergedTruncation, TruncationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
