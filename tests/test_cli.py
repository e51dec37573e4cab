import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from buchstab.cli import GUARD_DIGITS, MAX_DIGITS, format_rational, format_real, main
from buchstab.numerics import context
from buchstab.omega_k import OmegaKLedger
from buchstab.store import save_artifact
from oracles import SWITCH_SWEEP, OmegaKChain


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_proc(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "buchstab", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def set_first_coefficient(path, n, value):
    """Set block n's first coefficient in the artifact at ``path`` to
    ``value`` and write the file again, checksummed to match."""
    head, *lines = path.read_text().splitlines()
    record = json.loads(lines[n - 1])
    record[1] = value
    lines[n - 1] = json.dumps(record, separators=(",", ":"))
    body = "".join(line + "\n" for line in lines).encode("ascii")
    header = dict(json.loads(head), payload_sha256=hashlib.sha256(body).hexdigest())
    path.write_bytes(canonical(header) + b"\n" + body)


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_counts_single_cell(capsys):
    code, out = run_cli(capsys, "counts", "--n", "1")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "k=1"]
    assert rows[1] == ["1", "1"]


def test_counts_row10(capsys):
    code, out = run_cli(capsys, "counts", "--n", "10")
    assert code == 0
    rows = parse_csv(out)
    assert rows[10][:6] == ["10", "2293839", "525105", "223200", "151200", "72576"]
    assert rows[3] == ["3", "4", "0", "2"] + [""] * 7


def test_dist(capsys):
    code, out = run_cli(capsys, "dist", "--n", "4")
    assert code == 0
    rows = parse_csv(out)
    assert rows[1:] == [
        ["1", "5/8"], ["2", "1/8"], ["3", "0"], ["4", "1/4"],
    ]


def test_tail(capsys):
    code, out = run_cli(capsys, "tail", "--n", "3", "--k", "2")
    assert code == 0
    assert parse_csv(out)[1] == ["3", "2", "1/3"]


def test_variance_series(capsys):
    code, out = run_cli(capsys, "variance-series", "--n", "3")
    assert code == 0
    rows = parse_csv(out)
    assert rows[2] == ["2", "1/4", "0.125000"]
    assert rows[3] == ["3", "8/9", "0.296296"]


def test_omega_value(capsys):
    code, out = run_cli(capsys, "omega", "--x", "1.5")
    assert code == 0
    assert out == "0.666667\n"


def test_omega_reaches_past_the_quadrature_blocks(capsys, tmp_path):
    # omega --x reads any block the K = 1 ledger reaches, with and
    # without a cache: omega(x) = Omega_1(x)/x
    argv = ("omega", "--x", "300.5")
    assert run_cli(capsys, *argv) == (0, "0.561459\n")
    for _ in ("cold", "warm"):
        assert run_cli(capsys, *argv, "--cache-dir", str(tmp_path)) == (0, "0.561459\n")
    code, out = run_cli(capsys, "omega-k", "--k", "1", "--x", "300.5", "--digits", "30")
    assert code == 0
    assert format_real(Decimal(out) / Decimal("300.5")) == "0.561459"


def test_omega_k_value(capsys):
    code, out = run_cli(capsys, "omega-k", "--k", "1", "--x", "3")
    assert code == 0
    assert out == "1.69315\n"


def test_omega_k_table_subset(capsys):
    code, out = run_cli(
        capsys, "omega-k-table", "--k", "0.5", "--x-list", "2", "16",
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[1][0] == "2" and rows[1][1].startswith("1.0000")
    # reference table lists 3.3302 at x=16; our value within its band
    assert abs(float(rows[2][1]) - 3.3302) < 2e-3 * 3.3302


def test_constant_small_config(capsys):
    code, out = run_cli(capsys, "constant", "--moment", "2")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert abs(float(lines["constant"]) - 1.3070) < 2e-3
    assert float(lines["error_budget"]) < 1e-4
    assert lines["first_interval_exact"] == "3/4"


def test_constant_digits_reach_the_precision(capsys):
    # the Laplace-transform value is 1.30720779891056809974468019429
    code, out = run_cli(capsys, "constant", "--digits", "25")
    assert code == 0
    assert out.splitlines()[0] == "constant=1.307207798910568099744680"


def test_json_and_csv_agree(capsys):
    code, csv_out = run_cli(capsys, "dist", "--n", "5")
    code2, json_out = run_cli(capsys, "dist", "--n", "5", "--format", "json")
    assert code == code2 == 0
    doc = json.loads(json_out)
    assert doc["rows"] == [r for r in parse_csv(csv_out)[1:]]
    assert doc["columns"] == parse_csv(csv_out)[0]


def test_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "t.csv"
    code, out = run_cli(capsys, "counts", "--n", "6")
    code2, _ = run_cli(capsys, "counts", "--n", "6", "--out", str(path))
    assert code == code2 == 0
    assert path.read_text() == out


def plant_entry(cache_dir, blocks=20, K="1"):
    """A cache entry as earlier versions wrote it: the K ledger's first
    ``blocks`` chain blocks at the default precision."""
    path = cache_dir / "omega-k-ledger-0123456789abcdef01234567.json"
    chain = OmegaKChain(K, 30)
    chain.block(blocks)
    save_artifact(OmegaKLedger(K, 30, chain.blocks), path)
    os.utime(path, ns=(10 ** 9, 10 ** 9))
    return path


def assert_untouched(path, data):
    stamp = path.stat()
    assert path.read_bytes() == data and stamp.st_mtime_ns == 10 ** 9


def test_cache_round_trip(capsys, tmp_path):
    # a ledger command accepts --cache-dir and writes nothing there
    cache_dir = str(tmp_path / "cache")
    args = ("omega-k", "--k", "1", "--x", "5.5", "--cache-dir", cache_dir)
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second == run_cli(capsys, *args[:-2])[1] == "3.08803\n"
    assert run_cli(capsys, "cache", "list", "--cache-dir", cache_dir) == (0, "")
    assert run_cli(capsys, "cache", "clear", "--cache-dir", cache_dir) == (0, "removed=0\n")


@pytest.mark.parametrize("argv", [
    ("omega", "--x", "300.5"),
    ("constant", "--moment", "3"),
    ("omega-k", "--k", "0.5", "--x", "40.5"),
    ("omega-k", "--k", "5e-1", "--x", "2048.5"),
    ("omega-k-table", "--k", "1"),
])
def test_ledger_commands_ignore_the_cache_dir(capsys, tmp_path, argv):
    # with --cache-dir, new or holding an earlier version's entry, or
    # unusable, a ledger command prints what it prints without one, and
    # neither reads nor writes the directory
    code, expected = run_cli(capsys, *argv)
    assert code == 0
    empty, planted = tmp_path / "empty", tmp_path / "planted"
    planted.mkdir()
    entry = plant_entry(planted)
    data = entry.read_bytes()
    (tmp_path / "occupied").write_text("a file")
    for where in (empty, planted, tmp_path / "occupied" / "sub"):
        assert run_cli(capsys, *argv, "--cache-dir", str(where)) == (0, expected)
    assert not empty.exists() and list(planted.iterdir()) == [entry]
    assert_untouched(entry, data)


def test_cache_clear_keeps_files_that_are_not_entries(capsys, tmp_path):
    # a user's settings.json is neither listed nor removed; the entries
    # earlier versions wrote are both
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    entry = plant_entry(cache_dir)
    (cache_dir / "settings.json").write_text("{}\n")
    (cache_dir / "omega-ledger-0123456789abcdef01234567.json").write_text("{}\n")
    code, listing = run_cli(capsys, "cache", "list", "--cache-dir", str(cache_dir))
    assert (code, listing) == (
        0, f"{entry.name}\nomega-ledger-0123456789abcdef01234567.json\n")
    assert run_cli(capsys, "cache", "clear", "--cache-dir", str(cache_dir)) == (
        0, "removed=2\n")
    assert sorted(p.name for p in cache_dir.glob("*.json")) == ["settings.json"]


def test_omega_limit_holds_on_a_longer_entry(capsys, tmp_path):
    # beside an 8192-block entry an earlier version wrote, omega, constant
    # and omega-k print what they print without it, far past its last block too
    cache = ("--cache-dir", str(tmp_path))
    entry = plant_entry(tmp_path, 8192)
    data = entry.read_bytes()
    for argv in (("omega", "--x", "20.5"),
                 ("omega", "--x", "8192.5"),
                 ("omega", "--x", "1e20"),
                 ("omega-k", "--k", "1", "--x", "1e20"),
                 ("omega-k-table", "--k", "1", "--x-list", "3", "1e20"),
                 ("constant",)):
        code = main([*argv, *cache])
        warm = (code, capsys.readouterr())
        code = main(list(argv))
        assert warm == (code, capsys.readouterr()), argv
        assert code == 0 and warm[1].err == "", argv
    assert_untouched(entry, data)


@pytest.mark.parametrize("argv", [
    ("omega", "--x", "0.5"),
    ("omega-k", "--k", "0.5", "--x", "-3"),
    ("omega-k-table", "--k", "1", "--x-list", "0.5", "3"),
])
def test_refused_x_leaves_the_cache_empty(capsys, tmp_path, argv):
    # an x outside [1, inf) is a usage error, and nothing is written
    assert main([*argv, "--cache-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "defined on [1, inf)" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_non_finite_cached_coefficient_exit_code(capsys, tmp_path):
    # a tampered but re-checksummed entry is never read: the command
    # prints the fresh value
    args = ("omega-k", "--k", "1", "--x", "5.5", "--cache-dir", str(tmp_path))
    entry = plant_entry(tmp_path)
    set_first_coefficient(entry, 5, "NaN")  # block 5 is the one x = 5.5 reads
    assert run_cli(capsys, *args) == (0, "3.08803\n")


def test_tampered_block_fails_only_where_read(capsys, tmp_path):
    # a re-checksummed entry with a NaN in block 3 is read by no command,
    # so none fails: each prints what it prints with no cache directory
    cache = ("--cache-dir", str(tmp_path))
    far = ("omega-k", "--k", "1", "--x", "20.5")
    near = ("omega-k-table", "--k", "1", "--x-list", "3.5", "20")
    entry = plant_entry(tmp_path)
    set_first_coefficient(entry, 3, "NaN")
    for argv in (far, near):
        assert run_cli(capsys, *argv, *cache) == run_cli(capsys, *argv)


def test_corrupt_cache_file_exit_code(capsys, tmp_path):
    # an entry with one byte flipped, or cut short, is never read: the
    # command gives a fresh build's output (exit 0) and leaves the file
    args = ("omega-k", "--k", "1", "--x", "5.5", "--cache-dir", str(tmp_path))
    entry = plant_entry(tmp_path, 5)
    intact = entry.read_bytes()
    fresh = run_cli(capsys, *args[:-2])
    assert fresh == (0, "3.08803\n")

    def flip(at, value):
        return intact[:at] + bytes([value]) + intact[at + 1:]

    def outcome(data):
        entry.write_bytes(data)
        result = run_cli(capsys, *args)
        assert entry.read_bytes() == data
        return result

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        st.builds(flip, st.integers(0, len(intact) - 1), st.integers(0, 255)),
        st.integers(0, len(intact)).map(lambda n: intact[:n]),
    ))
    def check(data):
        assert outcome(data) == fresh

    check()
    assert outcome(flip(200, 0xFF)) == fresh  # not ASCII
    version = intact.index(b'"format_version":3') + len(b'"format_version":')
    assert outcome(flip(version, ord("7"))) == fresh


def test_format_real_carries_into_next_power_of_ten():
    assert format_real(Decimal("0.9999996")) == "1.00000"
    assert format_real(Decimal("9.9999996")) == "10.0000"


def test_format_real_renders_zero_like_other_values():
    # at one digit no value has a decimal point, zero included
    assert [format_real(Decimal(v), 1) for v in ("0", "7", "0.2")] == ["0", "7", "0.2"]
    assert format_real(Decimal(0), 3) == "0.00"


def test_variance_series_at_one_digit(capsys):
    assert run_cli(capsys, "variance-series", "--n", "2", "--digits", "1") == (
        0, "n,variance,variance_over_n\n1,0,0\n2,1/4,0.1\n")


def test_format_rational_beyond_int_string_limit():
    # str(int) refuses more than 4300 digits on CPython 3.11+
    assert format_rational(Fraction(10 ** 5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"


@pytest.mark.parametrize("argv", [
    ("omega", "--x", "abc"),
    ("omega", "--x", "nan"),
    ("omega", "--x", "inf"),
    ("omega-k", "--k", "abc", "--x", "5"),
    ("omega-k-table", "--k", "1", "--x-list", "3", "zz"),
    # exponents past the context's range
    ("omega", "--x", "1e100000000"),
    ("omega-k", "--k", "1", "--x", "1e100000000"),
    ("omega-k", "--k", "1e100000000", "--x", "3"),
    ("omega-k-table", "--k", "1", "--x-list", "3", "1e100000000"),
])
def test_bad_number_exit_code(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not a finite number" in captured.err


@pytest.mark.parametrize("argv", [
    ("variance-series", "--n", "3"),
    ("constant",),
    ("omega-k", "--k", "1", "--x", "5"),
    ("omega-k-table", "--k", "1", "--x-list", "3"),
])
def test_digits_are_checked_on_every_command_that_prints_reals(capsys, argv):
    assert main([*argv, "--digits", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--digits 0 is below 1" in captured.err


@pytest.mark.parametrize("argv", [
    ("variance-series", "--n", "3"),
    ("constant",),
    ("omega", "--x", "5"),
    ("omega-k", "--k", "1", "--x", "5"),
    ("omega-k-table", "--k", "1", "--x-list", "3"),
])
def test_digits_past_the_cap_exit_3_before_any_work(capsys, argv):
    assert main([*argv, "--digits", str(MAX_DIGITS + 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --digits {MAX_DIGITS + 1} exceeds the cap of "
                            f"{MAX_DIGITS} digits\n")


def test_digits_at_the_cap_are_printed(capsys):
    code, out = run_cli(capsys, "variance-series", "--n", "2", "--digits", str(MAX_DIGITS))
    assert code == 0 and out.splitlines()[-1] == "2,1/4,0.125" + "0" * (MAX_DIGITS - 3)


def test_constant_digits_past_fifty_are_printed(capsys):
    # the quadrature's tail reads its constant off the ledger, not off a
    # 50-digit gamma literal, so only MAX_DIGITS bounds --digits; the value
    # agrees with a reference of blocks to 200 and a 100-digit gamma
    code, out = run_cli(capsys, "constant", "--digits", "60")
    assert code == 0
    assert out.splitlines()[0] == (
        "constant=1.30720779891056809974468019428857389489917668754669767637279")


@pytest.mark.parametrize("argv, out", [
    (("omega", "--x", "1e5000"), "0.561459\n"),
    (("omega-k", "--k", "1", "--x", "1e5000"), "561459" + "0" * 4994 + "\n"),
    (("omega-k-table", "--k", "0.5", "--x-list", "3", "1e5000"),
     "x,omega_k\n3,1.34657\n1" + "0" * 5000 + ",845501" + "0" * 2494 + "\n"),
], ids=["omega", "omega-k", "omega-k-table"])
def test_huge_x_is_answered(capsys, argv, out):
    # an x whose block number has more digits than str() spells out costs
    # one block made from the large-x expansion
    assert run_cli(capsys, *argv) == (0, out)


@pytest.mark.parametrize("argv", [
    ("omega-k", "--k", "1", "--x", "9e999999"),
    ("omega", "--x", "9e999999"),
    ("omega-k", "--k", "40.5", "--x", "1e30000"),
    ("omega-k", "--k", "65", "--x", "2.5"),
])
def test_values_past_the_decimal_range_and_k_past_max_k_are_usage_errors(capsys, argv):
    # Omega_K(x) beyond the largest decimal exponent, and K > MAX_K, exit 2
    # with a one-line message, never a traceback from decimal
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_cache_clear_that_cannot_remove_an_entry(capsys, tmp_path):
    # a directory under an entry's name is a persistence error, not a crash
    (tmp_path / "omega-k-ledger-abc.json").mkdir()
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot remove cache entry" in captured.err


# the options each subcommand accepted without reading them, and
# --precision, which --digits now sets
REMOVED_OPTIONS = [
    (base, option)
    for base, options in [
        (("counts", "--n", "3"), ("--digits", "--precision", "--max-interval")),
        (("dist", "--n", "3"), ("--digits", "--precision", "--max-interval")),
        (("tail", "--n", "3", "--k", "2"), ("--digits", "--precision", "--max-interval")),
        (("variance-series", "--n", "3"), ("--precision", "--max-interval")),
        (("omega", "--x", "2.5"), ("--format", "--precision", "--max-interval")),
        (("constant",), ("--format", "--precision", "--max-interval")),
        (("omega-k", "--k", "1", "--x", "2.5"),
         ("--format", "--precision", "--max-interval")),
        (("omega-k-table", "--k", "1", "--x-list", "3"),
         ("--precision", "--max-interval")),
        (("cache", "list", "--cache-dir", "unused"),
         ("--format", "--digits", "--precision", "--max-interval")),
    ]
    for option in options
]
OPTION_VALUES = {"--format": "json", "--digits": "6", "--precision": "40",
                 "--max-interval": "50"}


@pytest.mark.parametrize("base, option", REMOVED_OPTIONS,
                         ids=[f"{base[0]}{option}" for base, option in REMOVED_OPTIONS])
def test_options_a_command_does_not_read_are_rejected(capsys, base, option):
    with pytest.raises(SystemExit) as exc:
        main([*base, option, OPTION_VALUES[option]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {option}" in captured.err


@pytest.mark.parametrize("argv", [
    ("omega", "--x", "2.5"),
    ("counts", "--n", "3"),
    ("cache", "list", "--cache-dir", "unused"),
])
def test_unwritable_out_is_a_persistence_error(capsys, tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path / "missing" / "f")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: cannot write output")


def test_unwritable_out_exit_code_in_a_fresh_process(tmp_path):
    occupied = tmp_path / "occupied"
    occupied.write_text("a file")
    code, out, err = run_proc("omega", "--x", "2.5", "--out", str(occupied / "f"))
    assert (code, out) == (4, "")
    [line] = err.splitlines()
    assert line.startswith("error: cannot write output")


@pytest.mark.parametrize("digits", ["0", "-3"])
def test_digits_beyond_precision_is_a_usage_error(capsys, digits):
    # fewer than one digit prints nothing
    assert main(["omega", "--x", "5", "--digits", digits]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--digits {digits} is below 1" in captured.err


@pytest.mark.parametrize("digits", [31, 100])
def test_digits_past_the_default_precision_are_printed(capsys, digits):
    # the working precision follows --digits, so no digit is a made-up zero
    code, out = run_cli(capsys, "omega", "--x", "5", "--digits", str(digits))
    assert code == 0 and len(out.strip()) == digits + 2
    assert out.startswith("0.561454468268456728736324688942")


def test_digits_up_to_precision(capsys):
    assert run_cli(capsys, "omega", "--x", "5", "--digits", "30") == (
        0, "0.561454468268456728736324688943\n")
    code, out = run_cli(capsys, "omega", "--x", "5", "--digits", "36")
    assert code == 0 and len(out.strip()) == 38 and out.startswith("0.5614544682684567287363246889")


def test_guard_digits_cover_the_switch_bound():
    # every ledger switches, so a value's relative error is at most
    # Switch.bound, about (n0 + 2) 10^(1-p): the guard digits cover it
    for K, p in SWITCH_SWEEP:
        ledger = OmegaKLedger(K, p)
        ledger.ensure(200)
        assert ledger.switch.bound <= Decimal(1).scaleb(GUARD_DIGITS - 1 - p), (K, p)


def assert_within_one_unit(printed, value, digits):
    """``printed`` is ``value`` rounded to ``digits`` significant digits,
    give or take one unit in the last place."""
    want = Decimal(format_real(value, digits))
    unit = Decimal(1).scaleb(want.adjusted() - digits + 1)
    assert abs(Decimal(printed) - want) <= unit, (printed, want)


@pytest.mark.parametrize("digits", [25, 30, 40])
@pytest.mark.parametrize("k", ["1", "0.5"])
def test_every_printed_digit_matches_a_finer_ledger(capsys, k, digits):
    # each command prints what a chain with 15 more digits than printed
    # gives, out to x = 8192, where a p = 30 chain has lost 4 digits
    q = digits + 15
    chain = OmegaKChain(k, q)
    flag = ("--digits", str(digits))
    code, out = run_cli(capsys, "omega-k-table", "--k", k, "--x-list",
                        "2.5", "10.5", "100.5", "1000.5", "4096", "8192", *flag)
    assert code == 0
    for x, printed in parse_csv(out)[1:]:
        assert_within_one_unit(printed, chain.value(x), digits)
    code, out = run_cli(capsys, "omega-k", "--k", k, "--x", "8192.5", *flag)
    assert code == 0
    assert_within_one_unit(out.strip(), chain.value("8192.5"), digits)
    if k == "1":
        for x in ("2.5", "8192"):
            code, out = run_cli(capsys, "omega", "--x", x, *flag)
            assert code == 0
            assert_within_one_unit(out.strip(), context(q).divide(chain.value(x), Decimal(x)), digits)


def test_omega_1_at_8192_is_8192_exp_neg_gamma(capsys):
    # past x ~ 20, Omega_1(x) = x e^-gamma to more than 30 digits
    assert run_cli(capsys, "omega-k", "--k", "1", "--x", "8192", "--digits", "30") == (
        0, "4599.47608937992331119938121557\n")


def test_usage_error_exit_codes():
    code, _, err = run_proc("counts")
    assert code == 2
    code, _, err = run_proc("omega", "--x", "2.5", "--taylor-degree", "40")
    assert code == 2
    code, _, err = run_proc("omega", "--x", "0.5")
    assert code == 2
    assert "error" in err


def test_resource_cap_exit_code():
    code, _, err = run_proc("counts", "--n", "1000000")
    assert code == 3
    assert "cap" in err


def test_unknown_class_exit_code():
    code, _, err = run_proc("counts", "--n", "3", "--class", "widgets")
    assert code == 2


def test_persistence_error_exit_code(tmp_path):
    # a --cache-dir that could hold no file is ignored like any other; an
    # --out file that cannot be written is the persistence error
    bad = tmp_path / "not-a-dir-file"
    bad.write_text("occupied")
    code, out, _ = run_proc(
        "omega-k", "--k", "1", "--x", "2.5", "--cache-dir", str(bad / "sub"),
    )
    assert (code, out) == (0, "1.40547\n")
    code, out, err = run_proc("omega-k", "--k", "1", "--x", "2.5", "--out", str(bad / "f"))
    assert (code, out) == (4, "") and "cannot write output" in err


def test_corrupt_cache_file_exit_code_in_a_fresh_process(tmp_path):
    # a process that finds a corrupt entry in --cache-dir does not read it
    args = ("omega-k", "--k", "1", "--x", "5.5", "--cache-dir", str(tmp_path))
    entry = plant_entry(tmp_path)
    data = entry.read_bytes()
    at = data.index(b'\n[1,"') + len(b'\n[1,"')  # block 1's first coefficient
    flipped = b"2" if data[at:at + 1] != b"2" else b"3"
    entry.write_bytes(data[:at] + flipped + data[at + 1:])
    assert run_proc(*args)[:2] == (0, "3.08803\n")
    assert list(tmp_path.iterdir()) == [entry]


def test_empty_x_list_is_a_usage_error():
    # an empty --x-list is an error, not the default grid
    code, out, err = run_proc("omega-k-table", "--k", "1", "--x-list")
    assert (code, out) == (2, "") and "--x-list" in err


@pytest.mark.parametrize("argv", [
    ("counts", "--n", "7", "--class", "derangements"),
    ("dist", "--n", "6"),
    ("tail", "--n", "6", "--k", "2"),
    ("variance-series", "--n", "5"),
])
def test_count_commands_write_no_cache(capsys, tmp_path, argv):
    # count commands build their table directly: --cache-dir is accepted,
    # ignored, and never an error even where no cache could be written
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    unusable = tmp_path / "occupied"
    unusable.write_text("a file")
    code, expected = run_cli(capsys, *argv)
    assert code == 0
    for where in (cache_dir, unusable / "sub"):
        assert run_cli(capsys, *argv, "--cache-dir", str(where)) == (0, expected)
    assert list(cache_dir.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("counts", "--n", "7"),
    ("dist", "--n", "6"),
    ("tail", "--n", "6", "--k", "2"),
    ("variance-series", "--n", "5"),
    ("omega", "--x", "2.5"),
    ("omega-k", "--k", "0.5", "--x", "4.5"),
    ("omega-k-table", "--k", "1", "--x-list", "2", "3", "4"),
])
def test_repeated_runs_byte_identical(argv):
    code1, out1, _ = run_proc(*argv)
    code2, out2, _ = run_proc(*argv)
    assert code1 == code2 == 0
    assert out1 == out2
