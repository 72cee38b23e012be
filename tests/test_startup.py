"""Start-up: the package and the closed-route CLI load only what they use.

Each guard runs in a fresh interpreter without site (python -S), so a
module that site happens to load does not hide one the library loads.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import coxtraces
from coxtraces.group import GroupElement
from coxtraces.linalg import CertificateError
from coxtraces.partitions import TraceCount
from coxtraces.roots import Factor
from coxtraces.verify import CheckLine, SuiteResult

SRC = str(Path(coxtraces.__file__).resolve().parents[1])

CORE = ("coxtraces", "coxtraces.classes", "coxtraces.group",
        "coxtraces.linalg", "coxtraces.partitions", "coxtraces.roots")

# what the counts do not use: dataclasses pulls in inspect, fractions
# pulls in decimal, typing only served annotations, and the fixtures
# and suites load with the commands that read them
UNUSED = {"dataclasses", "inspect", "fractions", "decimal", "typing",
          "coxtraces.models", "coxtraces.verify"}


def _newly_loaded(body: str) -> set:
    """The modules a fresh interpreter loads while it runs body."""
    code = (f"import sys\nsys.path.insert(0, {SRC!r})\n"
            "before = set(sys.modules)\n"
            f"{body}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


def test_importing_the_core_loads_nothing_unused():
    loaded = _newly_loaded(f"import {', '.join(CORE)}")
    assert set(CORE) <= loaded
    assert not loaded & UNUSED


def test_a_closed_count_loads_no_json_csv_or_suites():
    loaded = _newly_loaded("from coxtraces.cli import main\n"
                           "main(['count', 'D2000'])")
    assert "coxtraces.cli" in loaded
    assert not loaded & (UNUSED | {"json", "csv"})


def test_a_cache_round_trip_loads_no_openssl(tmp_path):
    # the cache's checksum is zlib's crc32: hashlib would map libcrypto
    loaded = _newly_loaded("from coxtraces.cli import main\n"
                           f"main(['cache', 'warm', 'H3', '--cache-dir', "
                           f"{str(tmp_path)!r}])\n"
                           "main(['count', 'H3', '--strategy', 'brute', "
                           f"'--cache-dir', {str(tmp_path)!r}])")
    assert (tmp_path / "H3.grp").exists() and "coxtraces.group" in loaded
    assert not loaded & {"hashlib", "_hashlib", "_blake2"}


def test_every_exported_name_resolves():
    assert all(hasattr(coxtraces, name) for name in coxtraces.__all__)
    from coxtraces import models  # the fixtures live here, not at the root
    assert callable(models.h3_charpoly_table_check)


def test_records_are_named_tuples_with_their_reprs():
    count = TraceCount(4, 4, "closed_form")
    assert repr(count) == ("TraceCount(traces=4, supertraces=4, "
                           "method='closed_form')")
    assert count == (4, 4, "closed_form")
    assert hash(count) == hash((4, 4, "closed_form"))
    assert repr(Factor("I", 7)) == "Factor(family='I', n=7)"
    assert {Factor("I", 7): 1}[Factor("I", 7)] == 1
    assert CheckLine("x", True) == ("x", True, "")
    with pytest.raises(CertificateError, match=r"in TraceCount\(traces=3"):
        TraceCount(3, 2, "closed_form")
    with pytest.raises(CertificateError):
        count._replace(traces=5)


def test_records_do_no_tuple_arithmetic():
    # equality with a plain tuple stays; sums, repeats and orders do not
    factor, element = Factor("A", 3), GroupElement(None, 0)
    assert factor == ("A", 3) and element == (None, 0)
    for record, other in ((factor, Factor("B", 1)), (element, element)):
        for refused in (lambda: record + other, lambda: record + (1,),
                        lambda: (1,) + record, lambda: record * 2,
                        lambda: 2 * record, lambda: record < other,
                        lambda: record <= other, lambda: record > other,
                        lambda: record >= other):
            with pytest.raises(TypeError, match="no tuple arithmetic"):
                refused()
    with pytest.raises(TypeError, match="no tuple arithmetic"):
        (1,) + TraceCount(4, 4, "closed_form")


def test_suite_results_share_no_list():
    first, second = SuiteResult(), SuiteResult()
    first.add("a", True)
    assert second.lines == [] and repr(second) == "SuiteResult(lines=[])"
