"""Versioned persistence for Omega_K coefficient ledgers.

An artifact is a single JSON file with a header carrying the format
version, the artifact kind (``omega-k-ledger``, the only one), the
parameters that fully determine the payload, and a SHA-256 checksum of
the canonical payload bytes.  Coefficients are serialized as decimal
strings that keep all p working digits, so a load/save round trip is
byte-identical and evaluation after reload produces the same digits as
before saving.  Format 2 lets each ledger block carry its own number of
coefficients.  Count tables are not stored: the column recurrence
rebuilds one faster than a stored copy can be read back.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from decimal import Decimal, InvalidOperation
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from .numerics import as_real
from .omega_k import LedgerRangeError, OmegaBlock, OmegaKLedger

__all__ = [
    "FORMAT_VERSION",
    "StoreError",
    "VersionError",
    "CorruptArtifactError",
    "StoredArtifact",
    "artifact_from_omega_k_ledger",
    "omega_k_ledger_from_artifact",
    "save_artifact",
    "load_artifact",
    "ArtifactCache",
    "cached_ledger",
]

FORMAT_VERSION = 2

KIND_OMEGA_K = "omega-k-ledger"


class StoreError(Exception):
    """Persistence failure."""

    exit_code = 4  # the command line's persistence-error status


class VersionError(StoreError):
    """Artifact written by an unsupported format version."""


class CorruptArtifactError(StoreError):
    """Payload checksum or shape does not match the header."""


def _canonical_bytes(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


class StoredArtifact(NamedTuple):
    kind: str
    params: Dict[str, Any]
    payload: Dict[str, Any]

    def header(self) -> Dict[str, Any]:
        return {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "params": self.params,
            "payload_sha256": hashlib.sha256(
                _canonical_bytes(self.payload)
            ).hexdigest(),
        }


def _coefficients(raw: Any, where: str) -> Tuple[Decimal, ...]:
    """Ledger coefficients: decimal strings of finite numbers."""
    try:
        coeffs = (tuple(map(Decimal, raw)) if type(raw) is list
                  and all(type(c) is str for c in raw) else None)
    except InvalidOperation:
        coeffs = None
    if coeffs is None or not all(map(Decimal.is_finite, coeffs)):
        raise CorruptArtifactError(f"{where} holds a coefficient that is not "
                                   f"a finite number")
    return coeffs


def _blocks_from_payload(art: StoredArtifact) -> List[OmegaBlock]:
    """[None, block 1, ..., block n_star], checked against the header.

    Every block is non-empty, and an advanced block (n >= 3) is at most
    one coefficient longer than the block before, its natural length."""
    n_star = int(art.params["n_star"])
    try:
        records = art.payload["blocks"]
        indices = [int(rec["n"]) for rec in records]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptArtifactError(
            f"{art.kind} payload does not hold numbered block records"
        ) from exc
    if indices != list(range(1, n_star + 1)):
        raise CorruptArtifactError(
            f"{art.kind} block indices are not 1..{n_star}"
        )
    blocks = [None]
    for n, rec in zip(indices, records):
        coeffs = _coefficients(rec.get("coeffs"), f"{art.kind} block {n}")
        if not coeffs or (n >= 3 and len(coeffs) > len(blocks[-1].coeffs) + 1):
            raise CorruptArtifactError(
                f"{art.kind} block {n} holds {len(coeffs)} coefficients"
            )
        blocks.append(OmegaBlock(n, coeffs))
    return blocks  # type: ignore[return-value]


def _ledger_params(n_star: int, p: int, K: Decimal) -> Dict[str, Any]:
    """The parameters that key a ledger artifact and head its file."""
    return {"n_star": n_star, "p": p, "K": str(K)}


def artifact_from_omega_k_ledger(ledger: OmegaKLedger) -> StoredArtifact:
    blocks = [
        {"n": b.n, "coeffs": [str(c) for c in b.coeffs]}
        for b in ledger._blocks[1:]
    ]
    return StoredArtifact(
        KIND_OMEGA_K,
        _ledger_params(ledger.built_through, ledger.p, ledger.K),
        {"blocks": blocks},
    )


def omega_k_ledger_from_artifact(art: StoredArtifact, *,
                                 max_interval: Optional[int] = None
                                 ) -> OmegaKLedger:
    """Rebuild the ledger; it keeps growing on demand up to ``max_interval``,
    by default the stored n_star, so that a reloaded omega ledger keeps
    the n* that ``moment_constant`` reads from it."""
    if art.kind != KIND_OMEGA_K:
        raise StoreError(f"expected an {KIND_OMEGA_K} artifact, got {art.kind}")
    blocks = _blocks_from_payload(art)
    ledger = OmegaKLedger(art.params["K"], int(art.params["p"]),
                          max_interval=max_interval or len(blocks) - 1)
    ledger._blocks = blocks
    return ledger


def save_artifact(art: StoredArtifact, path) -> None:
    """Write the artifact; the byte stream is canonical and reproducible."""
    doc = {"header": art.header(), "payload": art.payload}
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(data)
    except OSError as exc:
        raise StoreError(f"cannot write artifact {path}: {exc}") from exc


def load_artifact(path) -> StoredArtifact:
    try:
        with open(path, encoding="ascii") as fh:
            doc = json.loads(fh.read())
    except OSError as exc:
        raise StoreError(f"cannot read artifact {path}: {exc}") from exc
    except ValueError as exc:  # not ASCII, or not JSON
        raise CorruptArtifactError(f"artifact {path} is not ASCII JSON: {exc}") from exc
    try:
        header = doc["header"]
        payload = doc["payload"]
        version = header["format_version"]
        kind = header["kind"]
        params = header["params"]
        checksum = header["payload_sha256"]
    except (KeyError, TypeError) as exc:
        raise CorruptArtifactError(f"artifact {path} misses header fields") from exc
    if version != FORMAT_VERSION:
        raise VersionError(
            f"artifact {path} has format version {version}, "
            f"supported: {FORMAT_VERSION}"
        )
    actual = hashlib.sha256(_canonical_bytes(payload)).hexdigest()
    if actual != checksum:
        raise CorruptArtifactError(
            f"artifact {path} payload checksum mismatch "
            f"(header {str(checksum)[:12]}.., payload {actual[:12]}..)"
        )
    return StoredArtifact(kind, params, payload)


class ArtifactCache:
    """Parameter-keyed cache of ledger artifacts in a directory.

    Writers hold an exclusive ``flock`` on ``.lock`` so concurrent
    processes do not interleave writes; the kernel releases it when the
    holder exits or dies, so a killed writer leaves no stale lock.
    Readers need no lock (files appear atomically via rename).
    """

    def __init__(self, directory):
        self.directory = os.fspath(directory)

    def _key_path(self, params: Dict[str, Any]) -> str:
        digest = hashlib.sha256(
            _canonical_bytes({"kind": KIND_OMEGA_K, "params": params})
        ).hexdigest()[:24]
        return os.path.join(self.directory, f"{KIND_OMEGA_K}-{digest}.json")

    def lookup(self, params: Dict[str, Any]):
        """The cached artifact, or None on a miss.  An entry written in
        another format version is a miss, so it is rebuilt and replaced."""
        path = self._key_path(params)
        if not os.path.exists(path):
            return None
        try:
            art = load_artifact(path)
        except VersionError:
            return None
        if art.kind != KIND_OMEGA_K or art.params != params:
            raise CorruptArtifactError(f"cache file {path} does not match its key")
        return art

    def store(self, art: StoredArtifact) -> str:
        path = self._key_path(art.params)
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create cache directory "
                             f"{self.directory}: {exc}") from exc
        lock_path = os.path.join(self.directory, ".lock")
        try:
            lock = open(lock_path, "a")
        except OSError as exc:
            raise StoreError(f"cannot open cache lock {lock_path}: {exc}") from exc
        with lock:  # closing the file releases the lock
            try:
                fcntl.flock(lock, fcntl.LOCK_EX)
                tmp = os.path.splitext(path)[0] + ".tmp"
                save_artifact(art, tmp)
                os.replace(tmp, path)
            except OSError as exc:
                raise StoreError(f"cannot store artifact {path}: {exc}") from exc
        return path

    def entries(self) -> List[str]:
        """File names of the cached artifacts, sorted."""
        if not os.path.isdir(self.directory):
            return []
        return sorted(name for name in os.listdir(self.directory)
                      if name.endswith(".json"))

    def clear(self) -> int:
        removed = 0
        for name in self.entries():
            os.unlink(os.path.join(self.directory, name))
            removed += 1
        return removed


def cached_ledger(cache_dir: Optional[str], K, p: int, n_star: int,
                  limit: int) -> OmegaKLedger:
    """The K ledger at precision p through block n_star, growable to
    ``limit``: served from ``cache_dir`` on a key match, else built and
    stored there (no cache when ``cache_dir`` is None)."""
    n_star = max(n_star, 2)  # a ledger always holds blocks 1 and 2
    if n_star > limit:  # refuse before reading the cache, as a fresh build would
        raise LedgerRangeError(
            f"block {n_star} beyond the configured ledger limit {limit}"
        )
    cache = ArtifactCache(cache_dir) if cache_dir else None
    if cache is not None:
        art = cache.lookup(_ledger_params(n_star, p, as_real(K, p)))
        if art is not None:
            return omega_k_ledger_from_artifact(art, max_interval=limit)
    ledger = OmegaKLedger(K, p, max_interval=limit)
    ledger.ensure(n_star)
    if cache is not None:
        cache.store(artifact_from_omega_k_ledger(ledger))
    return ledger
