"""Versioned persistence for Omega_K coefficient ledgers.

A ledger is fixed by K and the working precision p: its blocks form one
chain, and a longer ledger holds a shorter one's blocks unchanged.  So
the cache keeps one entry per (K, p), and replaces it with a longer one
when a command grows the ledger past the blocks it holds.

An entry is a text file of one header line and then one line per
ledger block.  The header is a JSON object carrying the format version,
the kind ``omega-k-ledger``, the parameters K, p and n_star (the number
of blocks), and ``payload_sha256``, the SHA-256 of every byte after the
header line.  Block n's line is the JSON array ``[n,"c0","c1",...]``;
its coefficients are decimal strings that keep all p working digits, so
a load/save round trip is byte-identical and evaluation after reload
produces the same digits as before saving.  Each block carries its own
number of coefficients.

A load parses the header alone: it checks the format version, the
digest of the body as stored and the number of block lines, and keeps
the lines undecoded.  The ledger it returns decodes block n the first
time it is read, and checks it then: the line holds index n and finite
decimal strings, at most one more than the line before.  So a command
decodes only the blocks it evaluates, while a byte changed anywhere in
the file still fails the digest.

Count tables are not stored: the column recurrence rebuilds one faster
than a stored copy can be read back.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import threading
from decimal import Decimal, InvalidOperation
from typing import Any, Iterator, List, Optional, Tuple

from .numerics import as_real, context
from .omega_k import OmegaBlock, OmegaKLedger

__all__ = [
    "FORMAT_VERSION",
    "StoreError",
    "VersionError",
    "CorruptArtifactError",
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

    def __init__(self, K, p: int, lines: List[bytes]):
        # not OmegaKLedger.__init__, which computes the seed blocks: the
        # stored lines hold them.  Line 0 is the header, block n line n.
        self.K = as_real(K, p)
        self.p = p
        self._grow_lock = threading.Lock()
        self._lines = lines
        self._blocks = [None] * (len(lines) - 1)  # type: ignore[list-item]

    def _built(self, n: int) -> OmegaBlock:
        block = self._blocks[n]
        if block is None:
            block = self._blocks[n] = self._decode(n)
        return block

    def _record(self, n: int) -> list:
        """Block n's line, parsed: [n, c0, c1, ...]."""
        try:
            rec = json.loads(self._lines[n])
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


def save_artifact(ledger: OmegaKLedger, path) -> None:
    """Write the ledger's built blocks; the byte stream is canonical and
    reproducible."""
    n_star = ledger.built_through
    body = "".join(_block_line(ledger._built(n)) + "\n"
                   for n in range(1, n_star + 1)).encode("ascii")
    header = {
        "format_version": FORMAT_VERSION,
        "kind": KIND_OMEGA_K,
        "params": {"K": str(ledger.K), "n_star": n_star, "p": ledger.p},
        "payload_sha256": hashlib.sha256(body).hexdigest(),
    }
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(_canonical_bytes(header) + b"\n" + body)
    except OSError as exc:
        raise StoreError(f"cannot write artifact {path}: {exc}") from exc


def load_artifact(path) -> OmegaKLedger:
    """The ledger stored at ``path``, its block lines checked against the
    header's digest and n_star but not decoded: each block is decoded on
    its first read.  It keeps growing on demand, as a fresh ledger does."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise StoreError(f"cannot read artifact {path}: {exc}") from exc
    try:
        if not data.isascii():
            data.decode("ascii")  # raises, naming the first non-ASCII byte
        # the header on line 0, block n on line n, b"" after the last newline
        lines = data.split(b"\n")
        header = json.loads(lines[0])
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
    actual = hashlib.sha256(memoryview(data)[len(lines[0]) + 1:]).hexdigest()
    if actual != checksum:
        raise CorruptArtifactError(
            f"artifact {path} payload checksum mismatch "
            f"(header {str(checksum)[:12]}.., payload {actual[:12]}..)"
        )
    n_star = max(len(lines) - 2, 0)
    # a ledger holds blocks 1 and 2 from the start
    if lines[-1] != b"" or type(params) is not dict \
            or not 2 <= n_star == params.get("n_star"):
        raise CorruptArtifactError(
            f"artifact {path} holds {n_star} block lines, not n_star"
        )
    if kind != KIND_OMEGA_K:
        raise StoreError(f"expected an {KIND_OMEGA_K} artifact, got {kind}")
    try:
        return _StoredLedger(params["K"], params["p"], lines)
    except (KeyError, TypeError, ValueError) as exc:  # no K or p, or not numbers
        raise CorruptArtifactError(f"artifact {path} has bad params: {exc}") from exc


class ArtifactCache:
    """One ledger entry per (K, p) in a directory.

    Writers hold an exclusive ``flock`` on ``.lock`` so concurrent
    processes do not interleave writes; the kernel releases it when the
    holder exits or dies, so a killed writer leaves no stale lock.
    Readers need no lock (files appear atomically via rename).  The last
    writer wins: a race between two growths may leave the shorter
    ledger, never a torn one.
    """

    def __init__(self, directory):
        self.directory = os.fspath(directory)

    def _key_path(self, K: Decimal, p: int) -> str:
        # K keys by its value: 0.5, 5e-1 and 0.50 share one entry
        K = str(K.normalize(context(p)))
        digest = hashlib.sha256(
            _canonical_bytes({"kind": KIND_OMEGA_K, "params": {"K": K, "p": p}})
        ).hexdigest()[:24]
        return os.path.join(self.directory, f"{KIND_OMEGA_K}-{digest}.json")

    def lookup(self, K, p: int) -> Optional[OmegaKLedger]:
        """The cached K ledger at precision p, or None on a miss.  An entry
        written in another format version is a miss, so it is rebuilt and
        replaced."""
        K = as_real(K, p)
        path = self._key_path(K, p)
        if not os.path.exists(path):
            return None
        try:
            ledger = load_artifact(path)
        except VersionError:
            return None
        if (ledger.K, ledger.p) != (K, p):
            raise CorruptArtifactError(f"cache file {path} does not match its key")
        return ledger

    def store(self, ledger: OmegaKLedger) -> str:
        path = self._key_path(ledger.K, ledger.p)
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
                save_artifact(ledger, tmp)
                os.replace(tmp, path)
            except OSError as exc:
                raise StoreError(f"cannot store artifact {path}: {exc}") from exc
        return path

    def entries(self) -> List[str]:
        """File names of the package's cache entries, sorted; other files
        in the directory are not listed."""
        try:
            names = os.listdir(self.directory) if os.path.isdir(self.directory) else []
        except OSError as exc:
            raise StoreError(f"cannot list cache directory {self.directory}: {exc}") from exc
        return sorted(name for name in names
                      if name.startswith(_ENTRY_PREFIXES) and name.endswith(".json"))

    def clear(self) -> int:
        names = self.entries()
        for name in names:
            path = os.path.join(self.directory, name)
            try:
                os.unlink(path)
            except OSError as exc:
                raise StoreError(f"cannot remove cache entry {path}: {exc}") from exc
        return len(names)


@contextlib.contextmanager
def cached_ledger(cache_dir: Optional[str], K, p: int) -> Iterator[OmegaKLedger]:
    """The K ledger at precision p, read from the (K, p) entry of
    ``cache_dir`` or else fresh, for the caller to grow as far as it
    reads; on a normal exit it is written back there if it grew past that
    entry (no cache when ``cache_dir`` is None)."""
    cache = ArtifactCache(cache_dir) if cache_dir else None
    ledger = cache.lookup(K, p) if cache is not None else None
    stored = ledger.built_through if ledger is not None else 0
    if ledger is None:
        ledger = OmegaKLedger(K, p)
    yield ledger
    if cache is not None and ledger.built_through > stored:
        cache.store(ledger)
