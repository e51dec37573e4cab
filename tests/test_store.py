import copy
import json
from decimal import Decimal

import pytest

from buchstab.omega import (
    QuadratureConfig,
    build_omega_ledger,
    eval_omega,
    moment_constant,
)
from buchstab.omega_k import OmegaKLedger, eval_omega_k
from buchstab.store import (
    ArtifactCache,
    CorruptArtifactError,
    StoredArtifact,
    VersionError,
    artifact_from_omega_k_ledger,
    load_artifact,
    omega_k_ledger_from_artifact,
    save_artifact,
)


def _omega_k_artifact(n_star=10):
    ledger = OmegaKLedger("0.5")
    ledger.ensure(n_star)
    return artifact_from_omega_k_ledger(ledger)


def test_save_load_save_is_byte_identical(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_artifact(_omega_k_artifact(8), p1)
    reloaded = omega_k_ledger_from_artifact(load_artifact(p1))
    save_artifact(artifact_from_omega_k_ledger(reloaded), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_omega_ledger_round_trip(tmp_path):
    # omega is served from the K = 1 ledger, stored as an omega-k artifact
    ledger = build_omega_ledger(QuadratureConfig(max_interval=20))
    before = str(eval_omega(ledger, "2.5"))
    path = tmp_path / "omega.json"
    save_artifact(artifact_from_omega_k_ledger(ledger), path)
    reloaded = omega_k_ledger_from_artifact(load_artifact(path), max_interval=20)
    assert str(eval_omega(reloaded, "2.5")) == before
    assert (reloaded.K, reloaded.p, reloaded.max_interval,
            reloaded.built_through) == (1, 30, 20, 20)


def test_reloaded_omega_ledger_keeps_moment_constant(tmp_path):
    # without max_interval the reloaded ledger keeps the stored n*
    ledger = build_omega_ledger(QuadratureConfig(max_interval=20))
    path = tmp_path / "omega.json"
    save_artifact(artifact_from_omega_k_ledger(ledger), path)
    reloaded = omega_k_ledger_from_artifact(load_artifact(path))
    assert reloaded.max_interval == 20
    assert moment_constant(reloaded) == moment_constant(ledger)


def test_omega_k_ledger_round_trip(tmp_path):
    ledger = OmegaKLedger("0.5")
    ledger.ensure(30)
    before = str(eval_omega_k(ledger, "17.25"))
    art = artifact_from_omega_k_ledger(ledger)
    assert art.params == {"n_star": 30, "p": 30, "K": "0.5"}
    path = tmp_path / "omk.json"
    save_artifact(art, path)
    reloaded = omega_k_ledger_from_artifact(load_artifact(path))
    assert reloaded.built_through == 30
    assert str(eval_omega_k(reloaded, "17.25")) == before
    # save -> load -> save, and a second build from (K, p), give the same bytes
    again = OmegaKLedger("0.5")
    again.ensure(30)
    for other in (reloaded, again):
        other_path = tmp_path / "other.json"
        save_artifact(artifact_from_omega_k_ledger(other), other_path)
        assert other_path.read_bytes() == path.read_bytes()


def test_future_version_rejected(tmp_path):
    path = tmp_path / "omk.json"
    save_artifact(_omega_k_artifact(3), path)
    doc = json.loads(path.read_text())
    doc["header"]["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(VersionError):
        load_artifact(path)


def test_corrupt_payload_rejected(tmp_path):
    path = tmp_path / "omk.json"
    save_artifact(_omega_k_artifact(3), path)
    doc = json.loads(path.read_text())
    doc["payload"]["blocks"][2]["coeffs"][0] = "5"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptArtifactError):
        load_artifact(path)


def test_non_ascii_artifact_rejected(tmp_path):
    path = tmp_path / "omk.json"
    save_artifact(_omega_k_artifact(3), path)
    data = bytearray(path.read_bytes())
    data[200] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptArtifactError, match="not ASCII JSON"):
        load_artifact(path)


def test_non_string_checksum_rejected(tmp_path):
    path = tmp_path / "omk.json"
    save_artifact(_omega_k_artifact(3), path)
    doc = json.loads(path.read_text())
    doc["header"]["payload_sha256"] = 5
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptArtifactError, match="checksum mismatch"):
        load_artifact(path)


_DECODERS = {
    "omega": (lambda: artifact_from_omega_k_ledger(
        build_omega_ledger(QuadratureConfig(max_interval=8))),
              omega_k_ledger_from_artifact),
    "omega_k": (_omega_k_artifact, omega_k_ledger_from_artifact),
}


def _swap(payload):
    blocks = payload["blocks"]
    blocks[4], blocks[5] = blocks[5], blocks[4]


def _renumber(payload):
    payload["blocks"][6]["n"] = 8


def _set(key, value, block=None):
    """Set ``key`` of the payload, or of block record ``block``, to ``value``."""
    def tamper(payload):
        (payload if block is None else payload["blocks"][block])[key] = value
    return tamper


def _stringify_block(payload):
    payload["blocks"][3] = "block 4"


def _pad_block(index, extra):
    """Block ``index + 1`` padded to ``extra`` more coefficients than the
    block before it."""
    def tamper(payload):
        blocks = payload["blocks"]
        coeffs = blocks[index]["coeffs"]
        coeffs += ["0"] * (len(blocks[index - 1]["coeffs"]) + extra - len(coeffs))
    return tamper


def _set_coeff(value):
    def tamper(payload):
        payload["blocks"][4]["coeffs"][3] = value
    return tamper


@pytest.mark.parametrize("which, tamper", [
    pytest.param("omega_k", lambda p: p.pop("blocks"), id="omega_k-no-blocks"),
    pytest.param("omega_k", _set("blocks", 5), id="omega_k-blocks-not-a-list"),
    pytest.param("omega_k", _stringify_block, id="omega_k-string-block"),
    pytest.param("omega_k", _set("n", "abc", block=3), id="omega_k-non-integer-index"),
    pytest.param("omega_k", lambda p: p["blocks"].pop(0), id="omega_k-no-block-1"),
    pytest.param("omega_k", lambda p: p["blocks"].pop(5), id="omega_k-gap"),
    pytest.param("omega_k", lambda p: p["blocks"].pop(), id="omega_k-short"),
    pytest.param("omega_k", _swap, id="omega_k-swapped"),
    pytest.param("omega_k", _renumber, id="omega_k-renumbered"),
    pytest.param("omega_k", lambda p: p["blocks"][4]["coeffs"].clear(),
                 id="omega_k-short-block"),
    pytest.param("omega_k", _pad_block(4, 5), id="omega_k-long-block"),
    pytest.param("omega_k", _pad_block(6, 2), id="omega_k-two-longer-block"),
    pytest.param("omega", lambda p: p["blocks"].pop(3), id="omega-gap"),
    pytest.param("omega", _swap, id="omega-swapped"),
    pytest.param("omega", lambda p: p["blocks"][2]["coeffs"].clear(),
                 id="omega-short-block"),
    pytest.param("omega_k", _set_coeff("garbage"), id="omega_k-garbage-coeff"),
    pytest.param("omega_k", _set_coeff("NaN"), id="omega_k-nan-coeff"),
    pytest.param("omega_k", _set_coeff("-Infinity"), id="omega_k-infinite-coeff"),
    pytest.param("omega_k", _set_coeff(0.25), id="omega_k-unquoted-coeff"),
    pytest.param("omega", _set_coeff("sNaN"), id="omega-snan-coeff"),
])
def test_misshapen_payload_rejected_on_load(tmp_path, which, tamper):
    # the payload is re-checksummed, so only the shape checks can catch it
    make, decode = _DECODERS[which]
    art = make()
    payload = copy.deepcopy(art.payload)
    tamper(payload)
    path = tmp_path / "tampered.json"
    save_artifact(StoredArtifact(art.kind, art.params, payload), path)
    loaded = load_artifact(path)
    with pytest.raises(CorruptArtifactError):
        decode(loaded)


def test_cached_omega_k_ledger_keeps_its_limit(tmp_path):
    ledger = OmegaKLedger(1)
    ledger.ensure(20)
    path = tmp_path / "omk.json"
    save_artifact(artifact_from_omega_k_ledger(ledger), path)
    reloaded = omega_k_ledger_from_artifact(load_artifact(path), max_interval=20)
    assert str(eval_omega_k(reloaded, "19.5")) == str(eval_omega_k(ledger, "19.5"))
    with pytest.raises(ValueError, match="limit 20"):
        eval_omega_k(reloaded, "21.5")


def test_cache_hit_and_miss(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    art = _omega_k_artifact(6)
    assert cache.lookup(art.params) is None
    cache.store(art)
    hit = cache.lookup(art.params)
    assert hit is not None
    expected = str(eval_omega_k(omega_k_ledger_from_artifact(art), "5.5"))
    assert str(eval_omega_k(omega_k_ledger_from_artifact(hit), "5.5")) == expected
    assert cache.lookup(dict(art.params, n_star=7)) is None


def test_store_ignores_leftover_lock_file(tmp_path):
    # a writer killed while storing leaves .lock behind; flock does not care
    cache = ArtifactCache(tmp_path / "cache")
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / ".lock").touch()
    art = _omega_k_artifact(5)
    cache.store(art)
    hit = cache.lookup(art.params)
    assert hit is not None and hit.payload == art.payload


def test_cache_list_and_clear(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    cache.store(_omega_k_artifact(4))
    cache.store(_omega_k_artifact(5))
    assert len(cache.entries()) == 2
    assert cache.clear() == 2
    assert cache.entries() == []
