import argparse
import ast
import contextlib
import io
import json
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest

from harmsum import analytic, cli, errors, exact, montecarlo, sequences
from harmsum.cli import _COMMANDS, _glue_negative_values, build_parser, main
from harmsum.errors import TruncationFailure
from harmsum.sequences import SequenceSpec, terms_array

BFILE_LINE = re.compile(r"^\d+ -?\d+$")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table1_bfile(capsys):
    code, out, err = run(capsys, ["table1", "--upto", "10", "--emit", "bfile"])
    assert code == 0
    assert out.endswith("\n")
    lines = out.splitlines()
    assert all(BFILE_LINE.match(line) for line in lines)
    values = [int(line.split()[1]) for line in lines]
    assert values == [1, 1, 1, 23, 43, 251, 263, 21013, 1407079, 4919311]


def test_table3_rows(capsys):
    code, out, _ = run(capsys, ["table3", "--upto", "5", "--emit", "bfile"])
    assert code == 0
    assert [int(l.split()[1]) for l in out.splitlines()] == [1, 1, 1, 2, 22]


def test_minsum_json_round_trip(capsys):
    code, out, _ = run(capsys, ["minsum", "--n", "4", "--emit", "json"])
    assert code == 0
    line = out.strip()
    obj = json.loads(line)
    assert list(obj) == ["n", "scaled_num", "den", "witness", "tau"]
    assert obj == {"n": 4, "scaled_num": "23", "den": "210", "witness": "-++-", "tau": "0"}
    assert json.dumps(obj) == line


def test_minsum_tsv_default(capsys):
    code, out, _ = run(capsys, ["minsum", "--n", "4"])
    assert code == 0
    rows = dict(line.split("\t") for line in out.splitlines())
    assert rows["scaled_num"] == "23"
    assert rows["den"] == "210"


def test_gap_json(capsys):
    code, out, _ = run(capsys, ["gap", "--n", "5", "--emit", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"n": 5, "scaled_num": "22", "den": "2310", "witness": "0-++0"}


def test_seq_bfile(capsys, monkeypatch):
    # rows print in blocks: blocks of 4 rows split the 6 in two
    monkeypatch.setattr(cli, "_SEQ_ROWS", 4)
    code, out, _ = run(capsys, ["seq", "--kind", "pk", "--k", "2", "--n", "6", "--emit", "bfile"])
    assert code == 0
    rows = list(enumerate([6, 10, 14, 15, 21, 22], 1))
    assert out == "".join(f"{i} {t}\n" for i, t in rows)
    code, out, _ = run(capsys, ["seq", "--kind", "pk", "--k", "2", "--n", "6"])
    assert code == 0
    assert out == "# index\tterm\n" + "".join(f"{i}\t{t}\n" for i, t in rows)


def test_two_stage_json(capsys):
    code, out, _ = run(capsys, ["two-stage", "--n", "10", "--tau", "1/3", "--emit", "json"])
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["tau", "refined_target", "residual", "first", "second"]
    assert obj["tau"] == "1/3"
    assert json.dumps(obj) == out.strip()


def test_rho_finite_and_limit(capsys):
    code, out, _ = run(capsys, ["rho", "--n", "3", "--x", "1.0", "--emit", "json"])
    assert code == 0
    assert abs(json.loads(out)["value"]) <= 1e-15
    code, out, _ = run(capsys, ["rho", "--x", "0.5", "--eps", "1e-6", "--emit", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["tail_bound"] <= 1e-6
    assert abs(obj["value"] - 0.5466403) <= 1e-6
    # a large x takes a larger M, priced and allowed
    code, out, _ = run(capsys, ["rho", "--x", "1e5", "--eps", "1e-9", "--emit", "json"])
    assert code == 0
    assert json.loads(out)["tail_bound"] <= 1e-9


def test_density_grid_tsv(capsys):
    code, out, _ = run(capsys, ["density", "--grid", "0:1:3", "--eps", "1e-6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# x\t")
    assert len(lines) == 4


def test_density_grid_negative_lo_space_form(capsys):
    # argparse alone reads -2:2:9 as a flag and exits 2
    code, spaced, _ = run(capsys, ["density", "--grid", "-2:2:9", "--eps", "1e-4"])
    assert code == 0
    code, glued, _ = run(capsys, ["density", "--grid=-2:2:9", "--eps", "1e-4"])
    assert code == 0
    assert spaced == glued
    assert len(spaced.splitlines()) == 10


def test_check_json(capsys):
    code, out, _ = run(capsys, ["check", "--bound", "exp", "--n", "10", "--pairs", "50"])
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["samples"] == 50
    code, out, _ = run(capsys, ["check", "--bound", "decay", "--n", "50", "--alpha", "1.0"])
    assert code == 0
    obj = json.loads(out)
    assert obj["c_prime_defaulted"] is True
    assert obj["samples"] == 0


def test_sandwich_counts_wide_windows(capsys):
    # the near count is closed form per term: a matrix of every integer in
    # (x - y, x + y) by every back-half term would take 11.3 GiB here
    code, out, _ = run(capsys, ["check", "--bound", "sandwich", "--n", "20000", "--pairs", "20"])
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "argv, name",
    [
        (["density", "--eps", "nan"], "eps"),
        (["mc", "--n", "10", "--samples", "10", "--lo", "-0.1", "--hi", "0.1", "--eps", "nan"],
         "eps"),
        (["mc", "--n", "10", "--samples", "10", "--lo", "-0.1", "--hi", "0.1", "--eps", "nan",
          "--bins", "5"], "eps"),
        (["check", "--bound", "decay", "--n", "50", "--c-prime", "nan"], "c_prime"),
        (["check", "--bound", "decay", "--n", "50", "--alpha", "nan"], "a"),
        (["check", "--bound", "decay", "--n", "50", "--alpha", "inf"], "a"),
        (["check", "--bound", "decay", "--n", "50", "--c-prime", "1", "--x-cap", "nan"], "x_cap"),
        (["check", "--bound", "exp", "--n", "10", "--x-max", "-5"], "x_max"),
        (["check", "--bound", "sandwich", "--n", "10", "--x-max", "0"], "x_max"),
    ],
    ids=["density-eps", "mc-eps", "mc-bins-eps", "c-prime", "alpha-nan", "alpha-inf", "x-cap", "x-max-negative",
         "x-max-zero"],
)
def test_bad_analytic_inputs_exit_2_at_once(capsys, monkeypatch, argv, name):
    # refused before any kernel node or product is evaluated, and before
    # any Monte Carlo sample is drawn
    def evaluated(*args, **kwargs):
        raise AssertionError("the kernel or the sampler ran")

    monkeypatch.setattr(analytic, "_Kernel", evaluated)
    monkeypatch.setattr(analytic, "_rho_batch", evaluated)
    monkeypatch.setattr(montecarlo, "_chunk_sums", evaluated)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name} must be ")


@pytest.mark.parametrize(
    "argv",
    [
        ["rho", "--x", "3e5", "--eps", "1e-6", "--memory-gib", "0.001"],
        ["density", "--x", "0", "--eps", "1e-6", "--memory-gib", "1e-5"],
        ["density", "--grid", "0:1:3", "--eps", "1e-6", "--memory-gib", "1e-5"],
        ["check", "--bound", "exp", "--n", "10", "--pairs", "100000000", "--memory-gib", "0.01"],
        ["check", "--bound", "sandwich", "--n", "10", "--pairs", "100000000",
         "--memory-gib", "0.01"],
        ["check", "--bound", "decay", "--n", "50", "--c-prime", "1", "--grid", "100000000",
         "--memory-gib", "0.01"],
    ],
    ids=["rho", "density", "density-grid", "exp", "sandwich", "decay"],
)
def test_analytic_reads_memory_budget(capsys, argv):
    # the run is refused before its arrays are allocated; the kernel's M is
    # 2^20 at x = 3e5 (64 MiB) and 1024 for the density (64 KiB)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert "budget" in err
    assert peak < 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "--n", "3000000", "--emit", "bfile"],
        ["rho", "--n", "3000000", "--x", "3.3"],
        ["check", "--bound", "decay", "--n", "3000000", "--grid", "1", "--c-prime", "0.01"],
        ["check", "--bound", "exp", "--n", "3000000", "--pairs", "1"],
    ],
    ids=["seq", "rho", "check-decay", "check-exp"],
)
def test_term_lists_are_priced_before_the_sieve(capsys, monkeypatch, argv):
    def sieved(*args, **kwargs):
        raise AssertionError("the terms were sieved before they were priced")

    monkeypatch.setattr(sequences, "_first_n", sieved)
    code, out, err = run(capsys, argv + ["--memory-gib", "0.001"])
    assert (code, out) == (3, "")
    assert "budget" in err


def test_decay_range_past_every_float_ends_at_the_cap(capsys):
    code, out, _ = run(capsys, ["check", "--bound", "decay", "--n", "50", "--c-prime", "1e300",
                                "--grid", "5"])
    assert code == 0
    obj = json.loads(out)
    assert (obj["x_hi"], obj["samples"]) == (1e6, 5)


def test_mc_deterministic(capsys):
    argv = ["mc", "--n", "6", "--samples", "2000", "--seed", "5", "--lo", "-0.1",
            "--hi", "0.1", "--eps", "1e-6", "--emit", "json"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    assert out1 == out2
    obj = json.loads(out1)
    assert 0.0 <= obj["empirical_prob"] <= 1.0


def test_usage_errors(capsys):
    code, _, err = run(capsys, ["minsum", "--n", "0"])
    assert code == 2
    assert "usage" in err
    code, _, _ = run(capsys, ["minsum", "--n", "3", "--bogus"])
    assert code == 2
    code, _, err = run(capsys, ["minsum", "--n", "3", "--tau", "abc"])
    assert code == 2
    code, _, err = run(capsys, ["two-stage", "--n", "6", "--tau", "99"])
    assert code == 2
    code, _, err = run(capsys, ["rho", "--x", "0.5"])
    assert code == 2
    code, _, err = run(capsys, ["seq", "--kind", "custom", "--n", "2"])
    assert code == 2


def test_cap_and_truncation_exit_codes(capsys):
    code, _, err = run(capsys, ["minsum", "--n", "49"])
    assert code == 3
    assert "cap" in err
    # the limit's terms are priced (b_n >= n) before any sieve runs
    code, out, err = run(capsys, ["rho", "--x", "1e12", "--eps", "1e-6"])
    assert code == 3 and out == ""
    assert "budget" in err
    code, _, err = run(
        capsys,
        ["density", "--kind", "custom", "--values", "2,4,8", "--x", "0", "--eps", "1e-6"],
    )
    assert code == 4
    # no M brings the limit's bound below its rounding part, ~1e-12 here
    code, out, err = run(capsys, ["rho", "--x", "0.5", "--eps", "1e-20"])
    assert code == 4 and out == ""
    assert "rounding" in err


def test_encodings_and_budget_bound_the_lifted_caps(capsys, monkeypatch):
    def built(*args):
        raise AssertionError("a half was built")

    monkeypatch.setattr(exact._Half, "build", built)
    code, out, err = run(capsys, ["gap", "--n", "40", "--gap-cap", "40", "--memory-gib", "1000"])
    assert (code, out) == (3, "") and "64-bit encodings" in err
    code, out, err = run(capsys, ["gap", "--n", "31", "--force", "--memory-gib", "0.01"])
    assert (code, out) == (3, "") and "budget" in err
    # an explicit cap wins over --force
    code, out, err = run(capsys, ["gap", "--n", "27", "--force", "--gap-cap", "26"])
    assert (code, out, err) == (3, "", "error: n=27 exceeds the cap of 26\n")
    # on an 8 GiB machine physical memory bounds any budget: the gap at
    # N = 39 is priced at 14.0 GiB
    monkeypatch.setattr(errors, "PHYSICAL_GIB", 8.0)
    code, out, err = run(capsys, ["gap", "--n", "39", "--force", "--memory-gib", "1000"])
    assert (code, out, err) == (3, "", "error: estimated 14 GiB exceeds the 8 GiB of physical memory\n")


def test_decay_of_a_target_past_float_range(capsys):
    code, out, err = run(capsys, ["decay", "--lo", "2", "--hi", "6", "--tau", "1e400"])
    assert (code, err) == (0, "")
    assert "intercept=921.03403719761" in out.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, n, cap",
    [
        (["table1", "--upto", "49"], 49, 48),
        (["table3", "--upto", "27"], 27, 26),
        (["decay", "--lo", "4", "--hi", "49"], 49, 48),
    ],
    ids=["table1", "table3", "decay"],
)
def test_over_cap_sweeps_exit_before_any_search(capsys, monkeypatch, argv, n, cap):
    def searched(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(exact, "_meet", searched)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (3, "", f"error: n={n} exceeds the cap of {cap}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--x", "0", "--eps", "1e-6"],
        ["check", "--bound", "exp", "--n", "10", "--pairs", "5"],
        ["decay", "--lo", "4", "--hi", "8"],
        ["two-stage", "--n", "6"],
        ["rho", "--x", "0.5", "--eps", "1e-8"],
        ["mc", "--n", "10", "--samples", "10", "--lo", "-0.1", "--hi", "0.1"],
    ],
    ids=["density", "check", "decay", "two-stage", "rho", "mc"],
)
def test_bfile_unavailable(capsys, monkeypatch, argv):
    # refused by the parser, before any search, kernel or draw
    def ran(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(exact, "_meet", ran)
    monkeypatch.setattr(analytic, "_Kernel", ran)
    monkeypatch.setattr(montecarlo, "_chunk_sums", ran)
    code, out, err = run(capsys, argv + ["--emit", "bfile"])
    assert code == 2
    assert "bfile" in err
    assert out == ""


def test_mc_prediction_refuses_before_any_draw(capsys, monkeypatch):
    # a finite list's signed sum has atoms and no density, so the prediction
    # fails; it runs before the sampler draws anything
    def drawn(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(montecarlo, "_chunk_sums", drawn)
    argv = ["mc", "--kind", "custom", "--values", "2,3,5", "--n", "3", "--samples", "20000000",
            "--lo", "-0.1", "--hi", "0.1", "--eps", "1e-6"]
    for extra in ([], ["--bins", "4"]):
        code, out, err = run(capsys, argv + extra)
        assert (code, out) == (4, "") and "has no density" in err


def test_long_custom_list_has_no_density(capsys, monkeypatch):
    # the first 1,000 primes as a list: its kernel decays below eps, but
    # the sum is still a finite one with atoms, so density, the interval
    # probability and the mc prediction refuse it before any kernel is built
    def built(*args, **kwargs):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(analytic, "_Kernel", built)
    primes = terms_array(SequenceSpec.primes(), 1000).tolist()
    family = ["--kind", "custom", "--values", ",".join(map(str, primes))]
    for argv in (
        ["density", *family, "--x", "0"],
        ["density", *family, "--grid=-1:1:5"],
        ["mc", *family, "--n", "1000", "--samples", "1000", "--lo", "-0.1", "--hi", "0.1"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, "") and "has no density" in err
    with pytest.raises(TruncationFailure, match="has no density"):
        analytic.interval_probability(SequenceSpec.custom(primes), -0.1, 0.1, 1e-8)


def test_tsv_layouts(capsys):
    code, out, _ = run(capsys, ["check", "--bound", "exp", "--n", "10", "--pairs", "5",
                                "--emit", "tsv"])
    assert code == 0
    keys = [line.split("\t")[0] for line in out.splitlines()]
    assert keys == ["bound", "a", "x_lo", "x_hi", "samples", "violations", "passed",
                    "c_prime", "c_prime_defaulted"]
    assert out.startswith("bound\texp\n")

    code, out, _ = run(capsys, ["decay", "--lo", "4", "--hi", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# n\tscaled_num\t")
    assert [int(line.split("\t")[0]) for line in lines[1:-1]] == [4, 5, 6, 7, 8]
    assert lines[-1].startswith("# slope=")

    code, out, _ = run(capsys, ["two-stage", "--n", "6"])
    assert code == 0
    rows = dict(line.split("\t") for line in out.splitlines())
    assert list(rows)[:3] == ["tau", "refined_target", "residual"]
    assert "first.n" in rows and "second.n" in rows


def test_threads_env_is_ignored(capsys, monkeypatch):
    monkeypatch.delenv("HARMONIC_THREADS", raising=False)
    code, plain, _ = run(capsys, ["seq", "--n", "3"])
    assert code == 0
    for value in ("4", "zero"):
        monkeypatch.setenv("HARMONIC_THREADS", value)
        code, out, _ = run(capsys, ["seq", "--n", "3"])
        assert code == 0
        assert out == plain


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "subcommand" in out or "usage" in out


def test_memory_budget_default_is_shared():
    args = build_parser().parse_args(["minsum", "--n", "3"])
    assert args.memory_gib == exact.MEMORY_GIB == montecarlo.MEMORY_GIB > 0


def test_mc_reads_memory_budget(capsys):
    argv = ["mc", "--n", "10000", "--samples", "1000", "--lo", "-0.1", "--hi", "0.1",
            "--eps", "1e-6"]
    code, out, err = run(capsys, argv + ["--memory-gib", "0.001"])
    assert code == 3
    assert out == ""
    assert "budget" in err
    code, _, _ = run(capsys, argv + ["--bins", "5", "--memory-gib", "0.001"])
    assert code == 3
    code, _, _ = run(capsys, argv)
    assert code == 0


@pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1"])
def test_memory_budget_must_be_finite_and_positive(capsys, budget):
    # a NaN or infinite budget would switch every memory guard off, and a
    # non-positive one refuse every job as if it were too large
    code, out, err = run(capsys, ["mc", "--n", "10000", "--samples", "1000", "--lo", "-0.1",
                                  "--hi", "0.1", "--eps", "1e-6", "--memory-gib", budget])
    assert code == 2 and out == ""
    assert "finite positive" in err


@pytest.mark.parametrize(
    "command",
    [
        "$ harmsum mc --kind primes --n 100 --samples 200000 --seed 7 --lo -0.1 --hi 0.1",
        "$ harmsum rho --kind primes --x 0.5 --eps 1e-8",
    ],
    ids=["mc", "rho"],
)
def test_readme_mc_example_is_reproduced(capsys, command):
    # README promises the lines under each command, up to the next blank
    # line or the end of the block, byte for byte (mc: for a fixed seed)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    at = readme.index(command)
    end = next(i for i in range(at + 1, len(readme)) if readme[i] in ("", "```"))
    code, out, _ = run(capsys, command.split()[2:])
    assert code == 0
    assert out.splitlines() == readme[at + 1 : end]


def test_memory_refusal_prints_an_estimate_above_the_budget(capsys):
    code, out, err = run(capsys, ["mc", "--n", "10000", "--samples", "1000", "--lo", "-0.1",
                                  "--hi", "0.1", "--eps", "1e-6", "--memory-gib", "0.001"])
    assert code == 3 and out == ""
    shown = re.search(r"estimated (\S+) GiB exceeds the (\S+) GiB budget", err)
    estimate, budget = float(shown[1]), float(shown[2])
    assert estimate > budget == 0.001


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["gap", "--n", "30", "--force", "--memory-gib", "0.0604"], "0.067 GiB exceeds the 0.0604"),
        (["minsum", "--n", "48", "--memory-gib", "0.0875"], "0.095 GiB exceeds the 0.0875"),
    ],
)
def test_memory_refusal_prints_the_budget_given(capsys, argv, shown):
    # the budget as typed, not rounded to the digits the estimate needs
    assert run(capsys, argv) == (3, "", f"error: estimated {shown} GiB budget\n")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["density", "--x", "inf", "--eps", "1e-6"], id="inf"),
        pytest.param(["density", "--x", "nan", "--eps", "1e-6"], id="nan"),
        pytest.param(["rho", "--x", "inf", "--eps", "1e-6"], id="rho-limit-inf"),
        pytest.param(["rho", "--x", "nan", "--eps", "1e-6"], id="rho-limit-nan"),
        pytest.param(["rho", "--n", "3", "--x", "inf"], id="rho-finite-inf"),
        pytest.param(["check", "--bound", "exp", "--n", "5", "--x-max", "inf"], id="check-inf"),
    ],
)
def test_density_refuses_non_finite_x(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def _argv_lists() -> list[list[str]]:
    """Every list of string literals in this file that starts with a
    subcommand, and every README example."""
    names = {c.name for c in _COMMANDS}
    lists = [
        [e.value for e in node.elts]
        for node in ast.walk(ast.parse(Path(__file__).read_text()))
        if isinstance(node, ast.List) and node.elts
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
        and node.elts[0].value in names
    ]
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lists += [shlex.split(line)[2:] for line in readme.read_text().splitlines()
              if line.startswith("$ harmsum ")]
    return lists


def _parse(parser, argv):
    """(the namespace's repr, so nan reads equal, or the exit code; stdout;
    stderr) of parse_args."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", [c.name for c in _COMMANDS])
def test_one_subcommand_parser_reads_as_the_full_one(name):
    # main builds only the subcommand that argv names; each argv must parse
    # to the same namespace, and help and usage errors print the same bytes
    argvs = [a for a in _argv_lists() if a[0] == name]
    assert argvs
    argvs += [
        [name, "--help"], [name], [name, "--bogus"], [name, "extra"], [name, "--emit", "xml"],
        [name, "--memory-gib"], [name, "--memory-gib", "0"], [name, "--n", "0"],
    ]
    for argv in map(_glue_negative_values, argvs):
        assert _parse(build_parser(name), argv) == _parse(build_parser(), argv), argv
    other = "seq" if name != "seq" else "mc"
    code, _, err = _parse(build_parser(name), [other, "--n", "3"])
    assert code == 2 and "invalid choice" in err


class _Reads(argparse.Namespace):
    """A namespace that records the name of every attribute that the
    handler reads from it: main reads func to dispatch, and what was read
    before, by argparse and main, is forgotten then."""

    def __getattribute__(self, name):
        if name == "func":
            self._read.clear()
        elif not name.startswith("_"):
            self._read.add(name)
        return object.__getattribute__(self, name)

    @property
    def _read(self) -> set:
        return self.__dict__.setdefault("_read_names", set())


# the modes of each subcommand, at tiny sizes; a subcommand that takes a
# sequence runs each mode over the four kinds that read --k, --a/--q and --values
_MODES = {
    "seq": [["--n", "3"], ["--n", "3", "--emit", "json"]],
    "minsum": [["--n", "3", "--tau", "1/3"]],
    "gap": [["--n", "3"]],
    "table1": [["--upto", "3"]],
    "table3": [["--upto", "3"]],
    "decay": [["--lo", "2", "--hi", "4"]],
    "two-stage": [["--n", "5", "--tau", "1/3"]],
    "rho": [["--n", "3", "--x", "0.5"], ["--x", "0.5", "--eps", "1e-6"]],
    "density": [["--x", "0.5", "--eps", "1e-4"], ["--grid", "0:1:2", "--eps", "1e-4"]],
    "check": [["--bound", bound, "--n", "3", "--pairs", "2", "--grid", "2", "--c-prime", "0.5"]
              for bound in ("exp", "sandwich", "decay")],
    "mc": [["--n", "3", "--samples", "10", "--lo", "-0.1", "--hi", "0.1", "--eps", "1e-4"] + bins
           for bins in ([], ["--bins", "2"])],
}
_KINDS = (
    [], ["--kind", "pk", "--k", "2"], ["--kind", "ap", "--a", "2", "--q", "3"],
    ["--kind", "custom", "--values", "2,3,5,7,11"],
)


@pytest.mark.parametrize("name", [c.name for c in _COMMANDS])
def test_every_declared_flag_is_read(capsys, monkeypatch, name):
    # the union of what a subcommand's handler reads over its modes is
    # exactly what its parser declares: no flag is accepted and ignored
    sub = next(a for a in build_parser(name)._actions if isinstance(a, argparse._SubParsersAction))
    declared = {a.dest for a in sub.choices[name]._actions} - {"help"}
    namespaces = []

    def recording(command=None):
        parser = build_parser(command)
        parse = parser.parse_args

        def parse_args(argv):
            namespaces.append(parse(argv, _Reads()))
            return namespaces[-1]

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "build_parser", recording)
    read = set()
    for mode in _MODES[name]:
        for kind in _KINDS if "kind" in declared else ([],):
            code = main([name] + mode + kind)
            capsys.readouterr()
            # the density and the mc prediction refuse a custom list, with exit 4
            assert code == (4 if "custom" in kind and name in ("density", "mc") else 0), kind
            read |= namespaces[-1]._read
    assert read == declared - {"command"}
