"""Command-line behavior: formats, exit codes, caching, determinism."""

from __future__ import annotations

import json
import struct
import time
import zlib
from pathlib import Path

import pytest

from coxtraces import classes, cli, group, partitions, roots
from coxtraces.classes import count
from coxtraces.cli import main
from coxtraces.verify import MAX_DEGREE

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_markdown(capsys):
    code, out, err = _run(capsys, "count", "E6")
    assert code == 0
    assert "| E6 | 5 | 9 |" in out
    assert "computed in" in err          # timing stays off stdout


def test_count_json(capsys):
    code, out, _ = _run(capsys, "count", "B4+D5+I2(7)+A0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["T"] == 0 and payload["S"] == 80
    assert payload["order"] == 10321920
    assert payload["minus_identity"] is False


def test_count_csv(capsys):
    code, out, _ = _run(capsys, "count", "G2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "system,T,S,method,|W|,-I in W"
    assert lines[1] == "G2,3,3,closed_form,12,yes"


def test_count_brute_strategy(capsys):
    code, out, _ = _run(capsys, "count", "H3", "--strategy", "brute",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["T"], payload["S"]) == (4, 4)
    assert payload["method"] == "brute_force"


def test_bad_spec_is_usage_error(capsys):
    code, _, err = _run(capsys, "count", "Z9")
    assert code == 2
    assert "error:" in err


def test_negative_budget_is_usage_error(capsys):
    code, _, err = _run(capsys, "count", "A2", "--budget", "-5")
    assert code == 2
    assert "non-negative" in err


@pytest.mark.parametrize("argv", [("verify", "lemma", "--degree", "-5"),
                                  ("verify", "lemma", "--degree", "-1"),
                                  ("verify", "theorems", "--trials", "-1"),
                                  ("verify", "appendices", "--trials", "-2")])
def test_negative_verify_options_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    option = argv[2][2:]
    assert (code, out) == (2, "")
    assert err == f"error: {option} must be non-negative, got {argv[3]}\n"


def test_verify_lemma_at_degree_0(capsys):
    code, out, _ = _run(capsys, "verify", "lemma", "--degree", "0")
    assert (code, out) == (0, "PASS  partition parity identity  (degree 0)\n")


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_inexact_newton_traces_print_no_count(capsys, monkeypatch):
    # (1, 0) are the power traces of no integer matrix: Newton's identities
    # give 2 c_2 = 1, and the class walk must stop before any count prints;
    # the failed certificate is a message and exit 1, not a traceback
    monkeypatch.setattr(group.Group, "power_traces",
                        lambda self, i: [(1,), (0,)])
    code, out, err = _run(capsys, "count", "A2", "--strategy", "brute")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not exact" in err


def test_e8_brute_force_is_refused(capsys):
    code, _, err = _run(capsys, "count", "E8", "--strategy", "brute")
    assert code == 3
    assert "E8" in err


def test_more_than_256_roots_is_refused_at_once(capsys):
    # |W| is about 1e10; the refusal must come before any enumeration
    code, _, err = _run(capsys, "count", "H4+B3+H4", "--strategy", "brute",
                        "--budget", "100000000000")
    assert code == 3
    assert "258 roots" in err


def test_dihedral_past_256_roots_is_refused(capsys):
    code, _, err = _run(capsys, "count", "I2(129)", "--strategy", "brute")
    assert code == 3
    assert "258 roots" in err


def test_wide_coordinate_ring_is_refused(capsys, no_root_systems):
    code, _, err = _run(capsys, "count", "I2(7)+I2(9)+I2(11)",
                        "--strategy", "brute")
    assert code == 3
    assert "2cos(pi/693)" in err


@pytest.mark.parametrize("m", [7, 8, 9, 12, 127, 128])
def test_every_dihedral_is_enumerated(capsys, m):
    code, out, _ = _run(capsys, "count", f"I2({m})", "--strategy", "brute",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["T"], payload["S"]) == (m // 2, (m + 1) // 2)
    assert payload["method"] == "brute_force"


def test_decagon_is_enumerated(capsys):
    code, out, _ = _run(capsys, "count", "I2(10)", "--strategy", "brute",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["T"], payload["S"], payload["order"]) == (5, 5, 20)
    assert payload["method"] == "brute_force"


@pytest.fixture
def no_root_systems(monkeypatch):
    """Make build_system fail, under every name it is imported by."""
    def refuse(factors):
        raise AssertionError("build_system called")
    for module in (roots, classes, cli):
        monkeypatch.setattr(module, "build_system", refuse)


def test_closed_form_route_builds_no_root_system(capsys, no_root_systems):
    result = count("A200+D200+E8")
    product = count("A200") * count("D200") * count("E8")
    assert result.pair() == product.pair()
    assert result.method == "composed"
    # 2001 letters: about 4 million roots, were they built
    code, out, _ = _run(capsys, "count", "A2000", "--format", "json")
    assert code == 0
    assert json.loads(out)["T"] > 0
    code, out, _ = _run(capsys, "verify", "theorems", "--trials", "4")
    assert code == 0
    assert out.count("PASS") == len(out.strip().splitlines())


def test_brute_refusal_comes_before_any_root(capsys, no_root_systems):
    code, _, err = _run(capsys, "count", "A30", "--strategy", "brute")
    assert code == 3
    assert "930 roots" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("COXTRACES_BUDGET", "10")
    code, _, _ = _run(capsys, "count", "B3", "--strategy", "brute")
    assert code == 3
    # an explicit flag beats the environment
    code, out, _ = _run(capsys, "count", "B3", "--strategy", "brute",
                        "--budget", "1000", "--format", "json")
    assert code == 0
    assert json.loads(out)["T"] == 3


def test_classes_report(capsys):
    code, out, _ = _run(capsys, "classes", "G2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["system"] == "G2"
    assert len(payload["classes"]) == 6
    sizes = sorted(c["size"] for c in payload["classes"])
    assert sizes == [1, 1, 2, 2, 3, 3]
    no_plus = [c for c in payload["classes"] if not c["has_plus_one"]]
    assert len(no_plus) == 3


@pytest.mark.parametrize("spec, fmt, golden", [
    ("H3", "json", "classes_H3.json"),
    ("B3", "markdown", "classes_B3.md"),
    ("F4", "markdown", "classes_F4.md"),
    ("E6", "markdown", "classes_E6.md"),
    ("B2+I2(5)+A0", "csv", "classes_B2+I2(5)+A0.csv"),
    ("I2(7)", "json", "classes_I2(7).json"),
    ("H3+I2(7)", "markdown", "classes_H3+I2(7).md"),
    ("B5+A3", "csv", "classes_B5+A3.csv"),
    ("H4", "markdown", "classes_H4.md"),
    ("A1+H4", "csv", "classes_A1+H4.csv"),
])
def test_class_report_matches_golden_text(capsys, spec, fmt, golden):
    # det and char_poly of every class, byte for byte
    code, out, _ = _run(capsys, "classes", spec, "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_table_all_matches_golden_text(capsys):
    code, out, _ = _run(capsys, "table", "all")
    assert code == 0
    assert out == (GOLDEN / "table_all.md").read_text()


@pytest.mark.parametrize("argv, golden", [
    (("verify", "appendices"), "verify_appendices.txt"),
    (("verify", "lemma", "--degree", "120"), "verify_lemma_120.txt"),
], ids=["appendices", "lemma-120"])
def test_verify_output_matches_golden_text(capsys, argv, golden):
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("spec", ["A1999", "A2000", "B2000", "D2000", "D2001"])
def test_large_rank_count_matches_golden_json(capsys, spec):
    # partition numbers past 10^40, and the parity split of D at odd rank
    code, out, _ = _run(capsys, "count", spec, "--format", "json")
    assert code == 0
    assert out == (GOLDEN / f"count_{spec}.json").read_text()


@pytest.mark.parametrize("spec", ["A20001", "D20001", "B4+C30000"])
def test_classical_rank_past_the_bound_is_a_usage_error(capsys, spec):
    code, out, err = _run(capsys, "count", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "20000" in err


def test_corrupted_p_table_is_a_failed_certificate(capsys, monkeypatch):
    table = list(partitions._p_upto(40))
    table[40] += 1
    monkeypatch.setattr(partitions, "_p_table", lambda: table)
    code, out, err = _run(capsys, "count", "D40")
    assert code == 1 and out == ""
    assert err.startswith("error: parity split of p(40)")


@pytest.mark.parametrize("argv", [
    ("verify", "theorems", "--heavy"),
    ("verify", "lemma", "--unsupported-e8-enumeration"),
    ("count", "A1", "--heavy"),
    ("classes", "A1", "--unsupported-e8-enumeration"),
    ("table", "all", "--cache-dir", "groups"),
])
def test_enumeration_options_only_on_enumerating_commands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("verify", "lemma", "--format", "json"),
    ("cache", "list", "--cache-dir", "groups", "--format", "json"),
])
def test_format_only_on_commands_that_read_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_defaults_are_the_verify_module_constants(capsys,
                                                         monkeypatch):
    from coxtraces import verify
    monkeypatch.setattr(verify, "DEFAULT_DEGREE", 60)
    code, out, _ = _run(capsys, "verify", "lemma")
    assert code == 0
    assert out == "PASS  partition parity identity  (degree 60)\n"


def test_spec_past_the_digit_bound_is_refused_at_once(capsys):
    # five factors at the rank bound: a |W| of about 417,000 digits
    started = time.perf_counter()
    code, out, err = _run(capsys, "count", "+".join(["B20000"] * 5))
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "170,000" in err


def test_table_json_fixture(capsys):
    code, out, _ = _run(capsys, "table", "all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"section3", "section4"}
    by_label3 = {row["system"]: row for row in payload["section3"]}
    by_label4 = {row["system"]: row for row in payload["section4"]}
    assert (by_label3["E8"]["T"], by_label3["E8"]["S"]) == (30, 30)
    assert by_label3["E8"]["method"] == "closed_form"
    # every dihedral row is small enough to be cross-checked
    assert by_label3["I2(10)"]["method"] == "closed_form=brute"
    assert by_label3["I2(12)"]["method"] == "closed_form=brute"
    assert by_label4["I2(19)"]["method"] == "closed_form=brute"
    assert (by_label4["E6"]["T"], by_label4["E6"]["S"]) == (5, 9)
    assert (by_label4["A0"]["T"], by_label4["A0"]["S"]) == (0, 1)
    for row in payload["section3"]:
        assert row["T"] == row["S"]
        assert row["minus_identity"] is True
    for row in payload["section4"]:
        assert row["T"] < row["S"]
        assert row["minus_identity"] is False


def test_table_output_is_byte_stable(capsys):
    _, first, _ = _run(capsys, "table", "section4")
    _, second, _ = _run(capsys, "table", "section4")
    assert first == second


def test_verify_lemma_scope(capsys):
    code, out, _ = _run(capsys, "verify", "lemma", "--degree", "120")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_theorems_scope_small(capsys):
    code, out, _ = _run(capsys, "verify", "theorems", "--trials", "4")
    assert code == 0
    assert out.count("PASS") == len(out.strip().splitlines())


def test_an_ordering_theorem_violation_is_a_failed_check(capsys,
                                                        monkeypatch):
    # a factor formula that gives T > S: count prints one error line and
    # no count, verify theorems a FAIL line per check, and both exit 1
    monkeypatch.setattr(classes, "closed_form_count", lambda factor:
                        partitions.TraceCount(factor.rank + 1, factor.rank,
                                              "closed_form"))
    code, out, err = _run(capsys, "count", "E6")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "trace count out of range" in err
    code, out, err = _run(capsys, "verify", "theorems", "--trials", "3")
    lines = out.splitlines()
    assert code == 1 and "Traceback" not in err
    assert len(lines) == 3 + 25 and all(l.startswith("FAIL  ") for l in lines)
    assert "ordering theorem on" in lines[0] and "out of range" in lines[0]


def test_cache_warm_list_count_clear(capsys, tmp_path):
    cache = str(tmp_path / "groups")
    code, out, _ = _run(capsys, "cache", "warm", "F4", "--cache-dir", cache)
    assert code == 0
    assert "F4" in out and "1152" in out

    code, out, _ = _run(capsys, "cache", "list", "--cache-dir", cache)
    assert code == 0
    assert "F4  order=1152" in out and "version=6" in out

    code, out, _ = _run(capsys, "count", "F4", "--strategy", "brute",
                        "--cache-dir", cache, "--format", "json")
    assert code == 0
    assert json.loads(out)["T"] == 9

    code, out, _ = _run(capsys, "cache", "clear", "--cache-dir", cache)
    assert code == 0
    assert "removed 1" in out

    code, out, _ = _run(capsys, "cache", "list", "--cache-dir", cache)
    assert code == 0
    assert "(empty)" in out


def test_cache_needs_a_directory(capsys, monkeypatch):
    monkeypatch.delenv("COXTRACES_CACHE_DIR", raising=False)
    code, _, err = _run(capsys, "cache", "list")
    assert code == 2
    assert err.startswith("error: no cache directory") and err.count("\n") == 1


def test_cache_warm_needs_a_spec(capsys, tmp_path):
    code, out, err = _run(capsys, "cache", "warm", "--cache-dir", str(tmp_path))
    assert (code, out, err) == (2, "", "error: cache warm needs a system spec\n")


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    cache = str(tmp_path / "envcache")
    monkeypatch.setenv("COXTRACES_CACHE_DIR", cache)
    code, _, _ = _run(capsys, "cache", "warm", "A2")
    assert code == 0
    code, out, _ = _run(capsys, "cache", "list")
    assert code == 0
    assert "A2" in out


def test_corrupt_cache_is_an_io_error(capsys, tmp_path):
    cache = tmp_path / "bad"
    cache.mkdir()
    (cache / "A2.grp").write_bytes(b"not a cache file at all")
    code, _, err = _run(capsys, "count", "A2", "--strategy", "brute",
                        "--cache-dir", str(cache))
    assert code == 4
    assert "error:" in err
    # a well-formed header whose root width byte is not 1
    _run(capsys, "cache", "warm", "A2", "--cache-dir", str(cache))
    raw = (cache / "A2.grp").read_bytes()
    (cache / "A2.grp").write_bytes(raw[:5] + b"\x02" + raw[6:])
    code, _, err = _run(capsys, "classes", "A2", "--cache-dir", str(cache))
    assert code == 4
    assert "bytes per root" in err
    # a header whose order field is not |W(A2)| = 6
    (cache / "A2.grp").write_bytes(raw[:14] + struct.pack("<Q", 3) + raw[22:])
    code, _, err = _run(capsys, "count", "A2", "--strategy", "brute",
                        "--cache-dir", str(cache))
    assert code == 4
    assert "does not match" in err
    # a file of an earlier format version (here a fresh one with its
    # version byte changed): one error line that says to warm it again
    _run(capsys, "cache", "warm", "H3", "--cache-dir", str(cache))
    raw = (cache / "H3.grp").read_bytes()
    (cache / "H3.grp").write_bytes(raw[:4] + b"\x04" + raw[5:])
    code, out, err = _run(capsys, "count", "H3", "--strategy", "brute",
                          "--cache-dir", str(cache))
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cache version 4, expected 6; run `cache warm` again" in err


def test_a_version_5_cache_with_a_changed_orbit_length_or_label_exits_4(
        capsys, tmp_path):
    # version 6 keeps version 5's fields; under a CRC-32 that matches,
    # only the chain rebuilt from the label can tell: A1+B2 has orbit
    # lengths (2, 4, 2), and B2+A1, with the same roots and order, (4, 2, 2)
    _run(capsys, "cache", "warm", "A1+B2", "--cache-dir", str(tmp_path))
    path = tmp_path / "A1_B2.grp"
    raw = path.read_bytes()
    assert raw[8:13] == b"A1+B2" and raw[-16:-4] == struct.pack("<3I", 2, 4, 2)
    for forged, message in (
            (raw[:-12] + struct.pack("<I", 2) + raw[-8:-4], "orbit lengths"),
            (raw[:8] + b"B2+A1" + raw[13:-4], "orbit lengths")):
        path.write_bytes(forged + struct.pack("<I", zlib.crc32(forged)))
        code, out, err = _run(capsys, "count", "A1+B2", "--strategy",
                              "brute", "--cache-dir", str(tmp_path))
        assert (code, out) == (4, "") and message in err, forged


def test_cache_list_and_clear_pass_over_a_directory_entry(capsys, tmp_path):
    # a directory named like a cache file is listed as unreadable, and
    # clear removes the files beside it and reports them
    _run(capsys, "cache", "warm", "A2", "--cache-dir", str(tmp_path))
    (tmp_path / "x.grp").mkdir()
    code, out, err = _run(capsys, "cache", "list", "--cache-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert out.startswith("A2  order=6  ")
    assert out.splitlines()[1].startswith("x.grp  UNREADABLE (")
    code, out, err = _run(capsys, "cache", "clear", "--cache-dir",
                          str(tmp_path))
    assert (code, out, err) == (0, "removed 1 cached group(s)\n", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.grp"]


def test_a_cache_hit_needs_the_flags_a_fresh_group_needs(capsys, tmp_path):
    # the walk enumerates W whether the group was loaded or generated, so
    # the budget holds for a warmed E7 too
    code, out, _ = _run(capsys, "cache", "warm", "E7",
                        "--cache-dir", str(tmp_path))
    assert code == 0 and "E7: 2903040 elements" in out
    code, out, err = _run(capsys, "count", "E7", "--strategy", "brute",
                          "--budget", "1000000", "--cache-dir", str(tmp_path))
    assert (code, out) == (3, "") and "budget 1,000,000" in err


def test_cache_of_another_system_is_refused(capsys, tmp_path):
    cache = tmp_path / "c"
    _run(capsys, "cache", "warm", "B2", "--cache-dir", str(cache))
    (cache / "B2.grp").rename(cache / "A2.grp")
    code, _, err = _run(capsys, "count", "A2", "--strategy", "brute",
                        "--cache-dir", str(cache))
    assert code == 4
    assert "holds B2, not A2" in err


def test_unwritable_cache_dir_is_an_io_error(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file where a directory should go")
    code, _, err = _run(capsys, "cache", "warm", "A2",
                        "--cache-dir", str(blocker / "sub"))
    assert code == 4
    assert "error:" in err


def test_cache_hit_matches_cold_run(capsys, tmp_path):
    cache = str(tmp_path / "c")
    _run(capsys, "cache", "warm", "B3", "--cache-dir", cache)
    _, cold, _ = _run(capsys, "count", "B3", "--strategy", "brute")
    _, warm, _ = _run(capsys, "count", "B3", "--strategy", "brute",
                      "--cache-dir", cache)
    assert cold == warm


@pytest.mark.parametrize("scope", ["lemma", "appendices"])
def test_verify_degree_past_the_cap_is_a_usage_error(capsys, scope):
    code, out, err = _run(capsys, "verify", scope, "--degree",
                          str(MAX_DEGREE + 1))
    assert (code, out) == (2, "")
    assert err == f"error: degree must be at most 1,000, got {MAX_DEGREE + 1}\n"
    # the cap itself is valid: appendices does not read the degree
    assert _run(capsys, "verify", "appendices", "--degree",
                str(MAX_DEGREE))[0] == 0

