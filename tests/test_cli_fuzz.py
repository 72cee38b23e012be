"""The CLI, fuzzed in-process: every exit code is a documented one.

Specs are built from valid, boundary and invalid factor tokens.  The
properties: the exit code is in 0..4; a non-zero exit prints nothing on
stdout and one `error:` line on stderr (after argparse's usage for its
own exit 2); a closed count that exits 0 agrees with `--strategy brute`
wherever that exits 0 too.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from coxtraces.cli import main
from coxtraces.roots import MAX_CLASSICAL_RANK

VALID = ["A0", "D2", "D3", "I2(129)", "I2(300)"]
# "" and "+" give empty specs, empty factors and stray separators
INVALID = ["E5", "E9", "I2(0)", "I2(2)", "B0", "D0",
           f"A{MAX_CLASSICAL_RANK + 1}", f"B{MAX_CLASSICAL_RANK + 1}",
           f"D{MAX_CLASSICAL_RANK + 1}", "", "+"]
# specs of any tokens, and as many of valid tokens only, so that many
# examples get past the parser
SPECS = st.one_of(*(st.lists(st.sampled_from(pool), min_size=1, max_size=3)
                    for pool in (VALID + INVALID, VALID))).map("+".join)
BUDGETS = st.sampled_from(["-1", "0", str(10 ** 7)])
# "yaml" is not a format: argparse refuses it
FORMATS = st.sampled_from(["markdown", "csv", "json", "yaml"])

FUZZ = settings(max_examples=200, derandomize=True, deadline=5000)


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
def test_classes_exits_are_documented(spec, budget, fmt):
    run("classes", spec, "--budget", budget, "--format", fmt)
