import hashlib
import json
import sys
import threading

import pytest

from buchstab.omega import build_omega_ledger, eval_omega, moment_constant
from buchstab.omega_k import OmegaKLedger, eval_omega_k
from buchstab.store import (
    ArtifactCache,
    CorruptArtifactError,
    VersionError,
    load_artifact,
    save_artifact,
)


def _omega_k_ledger(n_star=10):
    ledger = OmegaKLedger("0.5")
    ledger.ensure(n_star)
    return ledger


def _read_entry(path):
    """The header and the block lines of the artifact at ``path``."""
    head, *lines = path.read_text().splitlines()
    return json.loads(head), lines


def _write_entry(path, header, lines):
    """``lines`` under ``header``, its digest set to match them."""
    body = "".join(line + "\n" for line in lines).encode("ascii")
    header = dict(header, payload_sha256=hashlib.sha256(body).hexdigest())
    path.write_bytes(json.dumps(header, sort_keys=True, separators=(",", ":"))
                     .encode("ascii") + b"\n" + body)


def test_save_load_save_is_byte_identical(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_artifact(_omega_k_ledger(8), p1)
    save_artifact(load_artifact(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_omega_ledger_round_trip(tmp_path):
    # omega is served from the K = 1 ledger, stored as an omega-k artifact
    ledger = _omega_ledger()
    before = str(eval_omega(ledger, "2.5"))
    path = tmp_path / "omega.json"
    save_artifact(ledger, path)
    reloaded = load_artifact(path)
    assert str(eval_omega(reloaded, "2.5")) == before
    assert (reloaded.K, reloaded.p, reloaded.built_through) == (1, 30, ledger.built_through)


def test_reloaded_omega_ledger_keeps_moment_constant(tmp_path):
    # the quadrature ends where its tail bound meets 10^-p: a reloaded
    # 10-block ledger grows to that block and gives the constant of a
    # fresh omega ledger
    ledger = OmegaKLedger(1)
    ledger.ensure(10)
    path = tmp_path / "omega.json"
    save_artifact(ledger, path)
    reloaded = load_artifact(path)
    fresh = build_omega_ledger()
    assert moment_constant(reloaded) == moment_constant(fresh)
    assert reloaded.built_through == fresh.built_through == 19


def test_omega_k_ledger_round_trip(tmp_path):
    # the chain ends at its switch block, 23 for K = 1/2 at p = 30; the
    # reloaded ledger makes the blocks past it as the saved one does
    ledger = OmegaKLedger("0.5")
    ledger.ensure(30)
    before = [str(eval_omega_k(ledger, x)) for x in ("17.25", "30.25")]
    path = tmp_path / "omk.json"
    save_artifact(ledger, path)
    assert _read_entry(path)[0]["params"] == {"n_star": 23, "p": 30, "K": "0.5"}
    reloaded = load_artifact(path)
    assert reloaded.built_through == 23
    assert [str(eval_omega_k(reloaded, x)) for x in ("17.25", "30.25")] == before
    assert reloaded.switch == ledger.switch
    # save -> load -> save, and a second build from (K, p), give the same bytes
    again = OmegaKLedger("0.5")
    again.ensure(30)
    for other in (reloaded, again):
        other_path = tmp_path / "other.json"
        save_artifact(other, other_path)
        assert other_path.read_bytes() == path.read_bytes()


def _rewrite_header(path, key, value):
    """Set one header field of the artifact at ``path``; the body stays."""
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header[key] = value
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + body)


def test_future_version_rejected(tmp_path):
    path = tmp_path / "omk.json"
    save_artifact(_omega_k_ledger(3), path)
    _rewrite_header(path, "format_version", 99)
    with pytest.raises(VersionError):
        load_artifact(path)


def test_corrupt_payload_rejected(tmp_path):
    path = tmp_path / "omk.json"
    save_artifact(_omega_k_ledger(3), path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[3])  # block 3
    record[1] = "5"
    lines[3] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptArtifactError):
        load_artifact(path)


def test_non_ascii_artifact_rejected(tmp_path):
    path = tmp_path / "omk.json"
    save_artifact(_omega_k_ledger(3), path)
    data = bytearray(path.read_bytes())
    data[200] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptArtifactError, match="not ASCII JSON"):
        load_artifact(path)


def test_non_string_checksum_rejected(tmp_path):
    path = tmp_path / "omk.json"
    save_artifact(_omega_k_ledger(3), path)
    _rewrite_header(path, "payload_sha256", 5)
    with pytest.raises(CorruptArtifactError, match="checksum mismatch"):
        load_artifact(path)


def _omega_ledger():
    """The omega ledger as the moment quadrature leaves it (19 blocks)."""
    ledger = build_omega_ledger()
    moment_constant(ledger)
    return ledger


_LEDGERS = {
    "omega": _omega_ledger,
    "omega_k": _omega_k_ledger,
}

# A tamper edits the parsed block records, [n, "c0", "c1", ...] for
# blocks 1..n*, in place; each record is written back as one line.


def _swap(records):
    records[4], records[5] = records[5], records[4]


def _renumber(records):
    records[6][0] = 8


def _replace_record(index, value):
    """Record ``index`` replaced by ``value``."""
    def tamper(records):
        records[index] = value
    return tamper


def _set_index(index, value):
    def tamper(records):
        records[index][0] = value
    return tamper


def _pad_block(index, extra):
    """Block ``index + 1`` padded to ``extra`` more coefficients than the
    block before it."""
    def tamper(records):
        record = records[index]
        record += ["0"] * (len(records[index - 1]) + extra - len(record))
    return tamper


def _set_coeff(value):
    def tamper(records):
        records[4][1 + 3] = value
    return tamper


def _clear_coeffs(index):
    def tamper(records):
        del records[index][1:]
    return tamper


def _read_every_block(ledger):
    for n in range(1, ledger.built_through + 1):
        ledger.block(n)


@pytest.mark.parametrize("which, tamper", [
    pytest.param("omega_k", lambda r: r.clear(), id="omega_k-no-blocks"),
    pytest.param("omega_k", lambda r: r.__setitem__(slice(None), [5]),
                 id="omega_k-blocks-not-a-list"),
    pytest.param("omega_k", _replace_record(3, "block 4"), id="omega_k-string-block"),
    pytest.param("omega_k", _set_index(3, "abc"), id="omega_k-non-integer-index"),
    pytest.param("omega_k", lambda r: r.pop(0), id="omega_k-no-block-1"),
    pytest.param("omega_k", lambda r: r.pop(5), id="omega_k-gap"),
    pytest.param("omega_k", lambda r: r.pop(), id="omega_k-short"),
    pytest.param("omega_k", _swap, id="omega_k-swapped"),
    pytest.param("omega_k", _renumber, id="omega_k-renumbered"),
    pytest.param("omega_k", _clear_coeffs(4), id="omega_k-short-block"),
    pytest.param("omega_k", _pad_block(4, 5), id="omega_k-long-block"),
    pytest.param("omega_k", _pad_block(6, 2), id="omega_k-two-longer-block"),
    pytest.param("omega", lambda r: r.pop(3), id="omega-gap"),
    pytest.param("omega", _swap, id="omega-swapped"),
    pytest.param("omega", _clear_coeffs(2), id="omega-short-block"),
    pytest.param("omega_k", _set_coeff("garbage"), id="omega_k-garbage-coeff"),
    pytest.param("omega_k", _set_coeff("NaN"), id="omega_k-nan-coeff"),
    pytest.param("omega_k", _set_coeff("-Infinity"), id="omega_k-infinite-coeff"),
    pytest.param("omega_k", _set_coeff(0.25), id="omega_k-unquoted-coeff"),
    pytest.param("omega", _set_coeff("sNaN"), id="omega-snan-coeff"),
])
def test_misshapen_payload_rejected_on_load(tmp_path, which, tamper):
    # the payload is re-checksummed, so only the line count checked on
    # load and the block checks on first read can catch it
    path = tmp_path / "tampered.json"
    save_artifact(_LEDGERS[which](), path)
    header, lines = _read_entry(path)
    records = [json.loads(line) for line in lines]
    tamper(records)
    _write_entry(path, header, [json.dumps(record, separators=(",", ":"))
                                for record in records])
    with pytest.raises(CorruptArtifactError):
        _read_every_block(load_artifact(path))


def test_deeply_nested_json_is_corrupt(tmp_path):
    # json.loads raises RecursionError here, which is not a ValueError
    nested = "[" * 100000 + "]" * 100000
    path = tmp_path / "omk.json"
    save_artifact(_omega_k_ledger(), path)
    header, lines = _read_entry(path)
    _write_entry(path, header, lines[:3] + [nested] + lines[4:])
    with pytest.raises(CorruptArtifactError, match="line 4"):
        load_artifact(path)
    path.write_text(nested + "\n")
    with pytest.raises(CorruptArtifactError, match="not ASCII JSON"):
        load_artifact(path)


@pytest.mark.parametrize("K", ["-1", "65"])
def test_stored_k_outside_the_domain_is_corrupt(tmp_path, K):
    # a ledger takes K in (0, MAX_K] whether it starts from seeds or a file
    path = tmp_path / "omk.json"
    save_artifact(_omega_k_ledger(), path)
    header, lines = _read_entry(path)
    header["params"]["K"] = K
    _write_entry(path, header, lines)
    with pytest.raises(CorruptArtifactError, match="bad params"):
        load_artifact(path)


def test_block_is_decoded_and_checked_on_first_read(tmp_path):
    # a re-checksummed artifact with a NaN in block 3: the load decodes
    # and checks every block, so it fails before any value is read
    ledger = OmegaKLedger(1)
    ledger.ensure(20)
    path = tmp_path / "omk.json"
    save_artifact(ledger, path)
    header, lines = _read_entry(path)
    record = json.loads(lines[2])
    record[1] = "NaN"
    lines[2] = json.dumps(record, separators=(",", ":"))
    _write_entry(path, header, lines)
    with pytest.raises(CorruptArtifactError, match="block 3"):
        load_artifact(path)


def test_reloaded_ledger_grows_from_its_decoded_last_block(tmp_path):
    ledger = OmegaKLedger("0.5")
    ledger.ensure(10)
    path = tmp_path / "omk.json"
    save_artifact(ledger, path)
    reloaded = load_artifact(path)
    assert str(eval_omega_k(reloaded, "37.25")) == str(eval_omega_k(ledger, "37.25"))
    # both chains grew to the switch block and made block 37 past it
    assert reloaded.built_through == ledger.built_through == ledger.switch.n0 == 23


def test_threads_share_an_undecoded_ledger(tmp_path):
    ledger = OmegaKLedger("0.5")
    ledger.ensure(300)
    path = tmp_path / "omk.json"
    save_artifact(ledger, path)
    xs = [f"{n}.5" for n in range(1, 301)]
    expected = [str(eval_omega_k(ledger, x)) for x in xs]
    reloaded = load_artifact(path)
    results = {}

    def worker(i):
        results[i] = [str(eval_omega_k(reloaded, x)) for x in xs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [results[i] for i in range(4)] == [expected] * 4


@pytest.mark.parametrize("K", ["1", "0.5"])
def test_full_ledger_round_trip_is_byte_identical(tmp_path, K):
    # a ledger read out to x = 8192 stores its chain, which ends at the
    # switch block: blocks past it are made again from the expansion
    ledger = OmegaKLedger(K)
    ledger.ensure(8192)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_artifact(ledger, p1)
    save_artifact(load_artifact(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(p1.read_bytes().splitlines()) == ledger.switch.n0 + 1 == {"1": 20, "0.5": 24}[K]
    assert load_artifact(p1).block(8192) == ledger.block(8192)


def test_cached_omega_k_ledger_keeps_its_limit(tmp_path):
    # a reloaded ledger reads what the original reads and keeps its chain
    ledger = OmegaKLedger(1)
    ledger.ensure(20)
    path = tmp_path / "omk.json"
    save_artifact(ledger, path)
    reloaded = load_artifact(path)
    assert str(eval_omega_k(reloaded, "19.5")) == str(eval_omega_k(ledger, "19.5"))
    assert reloaded.built_through == ledger.built_through


def test_load_computes_no_block(tmp_path, monkeypatch):
    # the stored lines hold every block, the seeds included
    ledger = OmegaKLedger(1)
    ledger.ensure(20)
    path = tmp_path / "omk.json"
    save_artifact(ledger, path)

    def refuse(*args):
        raise AssertionError("a load computed a seed block")

    monkeypatch.setattr("buchstab.omega_k.seed_block2", refuse)
    reloaded = load_artifact(path)
    assert [reloaded.block(n) for n in range(1, 21)] == \
        [ledger.block(n) for n in range(1, 21)]


def test_cache_list_and_clear(tmp_path):
    # entries of the kinds the package wrote are listed and removed, other
    # files are kept; nothing reads them
    cache = ArtifactCache(tmp_path / "cache")
    assert cache.entries() == [] and cache.clear() == 0
    (tmp_path / "cache").mkdir()
    save_artifact(_omega_k_ledger(4), tmp_path / "cache" / "omega-k-ledger-a.json")
    save_artifact(OmegaKLedger(1), tmp_path / "cache" / "omega-ledger-b.json")
    (tmp_path / "cache" / "keep.json").write_text("{}\n")
    assert cache.entries() == ["omega-k-ledger-a.json", "omega-ledger-b.json"]
    assert cache.clear() == 2
    assert cache.entries() == []
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["keep.json"]
