"""Versioned persistence for Omega_K coefficient ledgers.

An artifact is a text file of one header line and then one line per
ledger block.  The header is a JSON object carrying the format version,
the artifact kind (``omega-k-ledger``, the only one), the parameters
that fully determine the blocks, and ``payload_sha256``, the SHA-256 of
every byte after the header line.  Block n's line is the JSON array
``[n,"c0","c1",...]``; its coefficients are decimal strings that keep
all p working digits, so a load/save round trip is byte-identical and
evaluation after reload produces the same digits as before saving.
Each block carries its own number of coefficients.

A load parses the header alone: it checks the format version, the
digest of the body as stored and the number of block lines, and keeps
the lines undecoded.  The ledger rebuilt from them decodes block n the
first time it is read, and checks it then: the line holds index n and
finite decimal strings, at most one more than the line before.  So a
command decodes only the blocks it evaluates, while a byte changed
anywhere in the file still fails the digest.

Count tables are not stored: the column recurrence rebuilds one faster
than a stored copy can be read back.
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

FORMAT_VERSION = 3

KIND_OMEGA_K = "omega-k-ledger"

# File name prefixes of the package's cache entries: the current kind,
# and the kinds earlier versions wrote, which ``cache clear`` removes too.
_ENTRY_PREFIXES = (f"{KIND_OMEGA_K}-", "omega-ledger-", "count-table-")


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
    """An artifact's kind, its parameters and its payload, the block
    lines (block n on line n - 1, without the newline), undecoded."""

    kind: str
    params: Dict[str, Any]
    payload: List[str]


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


def _block_line(block: OmegaBlock) -> str:
    # a decimal string holds no character that JSON escapes
    return '[%d,"%s"]' % (block.n, '","'.join(map(str, block.coeffs)))


class _StoredLedger(OmegaKLedger):
    """A ledger read from an artifact: block n is decoded from its line
    on first read, checked, and kept.  Threads that read one block at
    once may each decode it; they get equal blocks."""

    def __init__(self, art: StoredArtifact, max_interval: int):
        super().__init__(art.params["K"], int(art.params["p"]),
                         max_interval=max_interval)
        self._lines = art.payload
        self._blocks = [None] * (len(art.payload) + 1)  # type: ignore[list-item]

    def block(self, n: int) -> OmegaBlock:
        block = super().block(n)
        if block is None:
            block = self._blocks[n] = self._decode(n)
        return block

    def _record(self, n: int) -> list:
        """Block n's line, parsed: [n, c0, c1, ...]."""
        try:
            rec = json.loads(self._lines[n - 1])
        except (ValueError, RecursionError):  # not JSON, or nested too deep
            rec = None
        if type(rec) is not list or not rec or type(rec[0]) is not int or rec[0] != n:
            raise CorruptArtifactError(f"{KIND_OMEGA_K} line {n} does not "
                                       f"hold block {n}")
        return rec

    def _decode(self, n: int) -> OmegaBlock:
        """Block n, non-empty and, if advanced (n >= 3), at most one
        coefficient longer than the block before, its natural length."""
        coeffs = _coefficients(self._record(n)[1:], f"{KIND_OMEGA_K} block {n}")
        if not coeffs or (n >= 3 and len(coeffs) > self._length(n - 1) + 1):
            raise CorruptArtifactError(
                f"{KIND_OMEGA_K} block {n} holds {len(coeffs)} coefficients"
            )
        return OmegaBlock(n, coeffs)

    def _length(self, n: int) -> int:
        """How many coefficients block n holds, read without decoding them."""
        block = self._blocks[n]
        return len(block.coeffs) if block is not None else len(self._record(n)) - 1


def _ledger_params(n_star: int, p: int, K: Decimal) -> Dict[str, Any]:
    """The parameters that key a ledger artifact and head its file."""
    return {"n_star": n_star, "p": p, "K": str(K)}


def artifact_from_omega_k_ledger(ledger: OmegaKLedger) -> StoredArtifact:
    n_star = ledger.built_through
    return StoredArtifact(
        KIND_OMEGA_K,
        _ledger_params(n_star, ledger.p, ledger.K),
        [_block_line(ledger.block(n)) for n in range(1, n_star + 1)],
    )


def omega_k_ledger_from_artifact(art: StoredArtifact, *,
                                 max_interval: Optional[int] = None
                                 ) -> OmegaKLedger:
    """The stored ledger, each block decoded on its first read; it keeps
    growing on demand up to ``max_interval``, by default the stored
    n_star, so that a reloaded omega ledger keeps the n* that
    ``moment_constant`` reads from it."""
    if art.kind != KIND_OMEGA_K:
        raise StoreError(f"expected an {KIND_OMEGA_K} artifact, got {art.kind}")
    return _StoredLedger(art, max_interval or len(art.payload))


def save_artifact(art: StoredArtifact, path) -> None:
    """Write the artifact; the byte stream is canonical and reproducible."""
    body = "".join(line + "\n" for line in art.payload).encode("ascii")
    header = {
        "format_version": FORMAT_VERSION,
        "kind": art.kind,
        "params": art.params,
        "payload_sha256": hashlib.sha256(body).hexdigest(),
    }
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(_canonical_bytes(header) + b"\n" + body)
    except OSError as exc:
        raise StoreError(f"cannot write artifact {path}: {exc}") from exc


def load_artifact(path) -> StoredArtifact:
    """The artifact at ``path``, its block lines checked against the
    header's digest and n_star but not decoded."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise StoreError(f"cannot read artifact {path}: {exc}") from exc
    try:
        head, _, body = data.decode("ascii").partition("\n")
        header = json.loads(head)
    except (ValueError, RecursionError) as exc:  # not ASCII, or not JSON
        raise CorruptArtifactError(f"artifact {path} is not ASCII JSON: {exc}") from exc
    if type(header) is dict and "header" in header:  # formats 1 and 2: one document
        header = header["header"]
    try:
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
    actual = hashlib.sha256(memoryview(data)[len(head) + 1:]).hexdigest()
    if actual != checksum:
        raise CorruptArtifactError(
            f"artifact {path} payload checksum mismatch "
            f"(header {str(checksum)[:12]}.., payload {actual[:12]}..)"
        )
    lines = body.split("\n")
    if lines.pop() != "" or type(params) is not dict \
            or len(lines) != params.get("n_star"):
        raise CorruptArtifactError(
            f"artifact {path} holds {len(lines)} block lines, not n_star"
        )
    return StoredArtifact(kind, params, lines)


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
        """File names of the package's cache entries, sorted; other files
        in the directory are not listed."""
        if not os.path.isdir(self.directory):
            return []
        return sorted(name for name in os.listdir(self.directory)
                      if name.startswith(_ENTRY_PREFIXES) and name.endswith(".json"))

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
