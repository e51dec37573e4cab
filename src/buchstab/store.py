"""Versioned persistence for Omega_K coefficient ledgers.

An artifact is a text file of one header line and then one line per
chain block.  The header is a JSON object carrying the format version,
the kind ``omega-k-ledger``, the parameters K, p and n_star (the number
of blocks), and ``payload_sha256``, the SHA-256 of every byte after the
header line.  Block n's line is the JSON array ``[n,"c0","c1",...]``,
its coefficients decimal strings of all p working digits, so a
load/save round trip is byte-identical and a reloaded ledger gives the
digits it gave before.  A load checks the version, the digest and the
number of lines, then decodes every line and checks that it holds block
n, finite decimal strings, at most one more than the line before.  The
reloaded ledger goes on as the saved one would.  ``hashlib``, which
maps OpenSSL, is imported on the first save or load, not with the
module: the cache commands compute no digest.

The commands keep no cache: a ledger's chain ends at its switch block,
a few dozen blocks that grow in milliseconds.  ``ArtifactCache`` lists
and clears the entries earlier versions wrote to a cache directory.
"""

from __future__ import annotations

import json
import os
from decimal import Decimal, InvalidOperation
from typing import Any, List, Tuple

from .omega_k import OmegaBlock, OmegaKLedger

__all__ = [
    "FORMAT_VERSION",
    "StoreError",
    "VersionError",
    "CorruptArtifactError",
    "save_artifact",
    "load_artifact",
    "ArtifactCache",
]

FORMAT_VERSION = 3

KIND_OMEGA_K = "omega-k-ledger"

# File name prefixes of the cache entries earlier versions wrote, which
# ``cache list`` and ``cache clear`` see.
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


def save_artifact(ledger: OmegaKLedger, path) -> None:
    """Write the ledger's built blocks; the byte stream is canonical and
    reproducible."""
    import hashlib  # loads OpenSSL: only a save or a load hashes

    n_star = ledger.built_through
    body = "".join(_block_line(ledger.block(n)) + "\n"
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
    header's digest and n_star, and each block decoded and checked."""
    import hashlib  # as in save_artifact

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
    blocks: List[OmegaBlock] = []
    for n, line in enumerate(lines[1:-1], start=1):
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError):  # not JSON, or nested too deep
            rec = None
        if type(rec) is not list or not rec or type(rec[0]) is not int or rec[0] != n:
            raise CorruptArtifactError(f"{KIND_OMEGA_K} line {n} does not hold block {n}")
        coeffs = _coefficients(rec[1:], f"{KIND_OMEGA_K} block {n}")
        # non-empty and, if advanced (n >= 3), at most one coefficient
        # longer than the block before, its natural length
        if not coeffs or (n >= 3 and len(coeffs) > len(blocks[-1].coeffs) + 1):
            raise CorruptArtifactError(
                f"{KIND_OMEGA_K} block {n} holds {len(coeffs)} coefficients")
        blocks.append(OmegaBlock(n, coeffs))
    try:
        return OmegaKLedger(params["K"], params["p"], blocks)
    except (KeyError, TypeError, ValueError) as exc:  # no K or p, or not numbers
        raise CorruptArtifactError(f"artifact {path} has bad params: {exc}") from exc


class ArtifactCache:
    """The cache entries earlier versions wrote to a directory: listed
    and removed, never read."""

    def __init__(self, directory):
        self.directory = os.fspath(directory)

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
