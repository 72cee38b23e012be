"""The CLI, fuzzed in-process: every exit code is a documented one.

Specs are built from valid, boundary and invalid factor tokens, and
every command gets its options at valid, boundary and invalid values.
The properties: the exit code is in 0..4; a non-zero exit prints
nothing on stdout and one `error:` line on stderr (after argparse's
usage for its own exit 2); a closed count that exits 0 agrees with
`--strategy brute` wherever that exits 0 too; a verify suite that exits
0 passes every check; a cache file, warmed or tampered with, gives exit
4 or the output of a cold run, never another count.
"""

from __future__ import annotations

import io
import json
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxtraces.cli import _cache_path, main
from coxtraces.roots import MAX_CLASSICAL_RANK
from coxtraces.verify import MAX_DEGREE

VALID = ["A0", "D2", "D3", "I2(129)", "I2(300)"]
# "" and "+" give empty specs, empty factors and stray separators
INVALID = ["E5", "E9", "I2(0)", "I2(2)", "B0", "D0",
           f"A{MAX_CLASSICAL_RANK + 1}", f"B{MAX_CLASSICAL_RANK + 1}",
           f"D{MAX_CLASSICAL_RANK + 1}", "", "+"]
# specs of any tokens, and as many of valid tokens only, so that many
# examples get past the parser
SPECS = st.one_of(*(st.lists(st.sampled_from(pool), min_size=1, max_size=3)
                    for pool in (VALID + INVALID, VALID))).map("+".join)
# five factors at the rank bound: a |W| of about 417,000 digits, past the
# 170,000 that a spec may have; printing it once took unbounded time
PAST_DIGIT_BOUND = "+".join([f"B{MAX_CLASSICAL_RANK}"] * 5)
BUDGETS = st.sampled_from(["-1", "0", str(10 ** 7)])
# "yaml" is not a format: argparse refuses it
FORMATS = st.sampled_from(["markdown", "csv", "json", "yaml"])

FUZZ = settings(max_examples=200, derandomize=True, deadline=5000)
# a verify suite takes up to 0.3 s, and every cache example writes files
FUZZ_VERIFY = settings(FUZZ, max_examples=12)
FUZZ_FEW = settings(FUZZ, max_examples=50)


def optional(option, values):
    """argv pieces: the option with one of the values, or nothing."""
    return st.one_of(st.just(()), st.sampled_from(values).map(
        lambda value: (option, value)))


def run(*argv):
    """(exit code, stdout, stderr) of one in-process CLI call, checked
    against the documented exits."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in range(5), (argv, code, err)
    if code:
        assert out == "", argv
        lines = err.splitlines()
        if lines and lines[0].startswith("usage:"):
            assert code == 2, argv
            lines = [line for line in lines if "error:" in line]
            assert len(lines) == 1 and ": error: " in lines[0], (argv, err)
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), \
                (argv, err)
    return code, out, err


@FUZZ
@given(SPECS, BUDGETS)
@example(PAST_DIGIT_BOUND, str(10 ** 7))
def test_count_exits_are_documented_and_brute_agrees(spec, budget):
    code, out, _ = run("count", spec, "--budget", budget, "--format", "json")
    brute_code, brute_out, _ = run("count", spec, "--budget", budget,
                                   "--format", "json", "--strategy", "brute")
    if code:
        # the budget and the spec are read before either route starts
        assert brute_code == code, spec
    elif brute_code == 0:
        closed, brute = json.loads(out), json.loads(brute_out)
        assert (brute["T"], brute["S"]) == (closed["T"], closed["S"]), spec
        assert brute["order"] == closed["order"], spec


@FUZZ
@given(SPECS, BUDGETS, FORMATS)
@example(PAST_DIGIT_BOUND, str(10 ** 7), "json")
def test_classes_exits_are_documented(spec, budget, fmt):
    run("classes", spec, "--budget", budget, "--format", fmt)


def verify_options(degrees):
    return st.tuples(
        st.sampled_from(degrees).map(lambda value: ("--degree", value)),
        st.sampled_from(["-1", "0", "3"]).map(lambda value: ("--trials", value)),
        optional("--seed", ["0", "1", "-3"]), optional("--budget", ["-1", "0"]))


# the lemma costs O(degree^3): small degrees, and one past the cap (refused
# at once); the other suites do not read --degree, so they take the cap too
SMALL_DEGREES = ["-1", "0", "1", "40", "120", str(MAX_DEGREE + 1)]
CAP_DEGREES = SMALL_DEGREES + [str(MAX_DEGREE - 1), str(MAX_DEGREE)]


def check_verify(scope, options):
    code, out, _ = run("verify", scope, *(a for o in options for a in o))
    if code == 0:
        assert out and all(line.startswith("PASS  ")
                           for line in out.splitlines()), (scope, options)


@FUZZ
@given(verify_options(SMALL_DEGREES))
@example((("--degree", "-1"), ("--trials", "0"), (), ()))
@example((("--degree", str(MAX_DEGREE + 1)), ("--trials", "0"), (), ()))
@example((("--degree", "40"), ("--format", "json"), (), ()))
def test_verify_lemma_exits_are_documented_and_exit_0_passes(options):
    check_verify("lemma", options)


@FUZZ_VERIFY
@given(st.sampled_from(["theorems", "appendices"]), verify_options(CAP_DEGREES))
@example("theorems", (("--degree", "0"), ("--trials", "-1"), (), ()))
@example("appendices", (("--degree", str(MAX_DEGREE)), ("--trials", "0"), (), ()))
@example("appendices", (("--degree", str(MAX_DEGREE + 1)), ("--trials", "0"), (), ()))
def test_verify_suites_exits_are_documented_and_exit_0_passes(scope,
                                                              options):
    check_verify(scope, options)


@FUZZ_FEW
@given(st.sampled_from(["section3", "section4", "all", "section5"]), FORMATS,
       optional("--budget", ["-1", "0", str(10 ** 7)]))
def test_table_exits_are_documented(which, fmt, budget):
    run("table", which, "--format", fmt, *budget)


# cache files of these are warmed once, then read, rewritten and tampered
# with; every read from a cache must give the cold output or exit 4
WARMED = ["A1", "A2", "B3", "I2(5)"]


def reads(spec, *where):
    return [("count", spec, "--strategy", "brute", "--format", "json", *where),
            ("classes", spec, "--format", "csv", *where)]


@pytest.fixture(scope="module")
def warmed(tmp_path_factory):
    """spec -> (its cache file, (exit code, stdout) of its cold reads)."""
    cache = str(tmp_path_factory.mktemp("warmed"))
    found = {}
    for spec in WARMED:
        assert run("cache", "warm", spec, "--cache-dir", cache)[0] == 0
        found[spec] = (Path(_cache_path(cache, spec)).read_bytes(),
                       [run(*argv)[:2] for argv in reads(spec)])
    return found


CACHE_ACTIONS = st.lists(st.tuples(
    st.sampled_from(["warm", "list", "clear"]),
    st.one_of(st.just(()), st.sampled_from(
        WARMED + ["A0", "E5", "I2(300)", ""]).map(lambda s: (s,))),
    optional("--budget", ["-1", "0"])), min_size=1, max_size=4)


@FUZZ_FEW
@given(CACHE_ACTIONS, st.booleans())
@example([("list", (), ("--format", "json")), ("warm", ("A2",), ("--format", "csv"))],
         True)
def test_cache_exits_are_documented_and_a_warm_cache_reads_cold(
        warmed, actions, with_dir):
    with tempfile.TemporaryDirectory() as cache:
        where = ("--cache-dir", cache) if with_dir else ()
        for action, spec, budget in actions:
            run("cache", action, *spec, *where, *budget)
        for spec in WARMED:
            for argv, cold in zip(reads(spec, "--cache-dir", cache),
                                  warmed[spec][1]):
                assert run(*argv)[:2] == cold, (actions, argv)


LABELS = ["A2", "B3", "I2(5)", "B2", "A3", "G2", "I2(7)", "A2+A0", "Z9", ""]
TAMPERS = st.one_of(
    st.tuples(st.just("flip"), st.one_of(st.integers(0, 63),
                                         st.integers(0, 10 ** 5)),
              st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.one_of(st.integers(0, 63),
                                             st.integers(0, 10 ** 5))),
    st.tuples(st.just("label"), st.sampled_from(LABELS)))


def tamper(raw: bytes, how) -> bytes:
    """The cache file image with one byte flipped, cut short, or its
    label rewritten (the header's length field with it)."""
    if how[0] == "flip":
        at = how[1] % len(raw)
        return raw[:at] + bytes([raw[at] ^ how[2]]) + raw[at + 1:]
    if how[0] == "truncate":
        return raw[:how[1] % len(raw)]
    old_len, = struct.unpack_from("<H", raw, 6)
    label = how[1].encode()
    return raw[:6] + struct.pack("<H", len(label)) + label + raw[8 + old_len:]


@settings(FUZZ, max_examples=150)
@given(st.sampled_from(WARMED), TAMPERS)
def test_a_tampered_cache_gives_exit_4_or_the_cold_output(warmed, spec, how):
    raw, cold = warmed[spec]
    with tempfile.TemporaryDirectory() as cache:
        Path(_cache_path(cache, spec)).write_bytes(tamper(raw, how))
        for argv, expected in zip(reads(spec, "--cache-dir", cache), cold):
            code, out, _ = run(*argv)
            assert code == 4 or (code, out) == expected, (spec, how, argv)
