"""Decentralized identifiers and issuer-signed credentials.

A DID is a (scheme, address) pair on a simulated identity ledger; it
carries no user data. An identity provider binds a DID to a user public
key by signing the canonical serialization of (did, public key, claims).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .crypto import Digest, KeyPair, digest, sign, verify
from .wire import Reader, be64, lp, pack_fields

_CRED_VERSION = 1
_CRED_TAG = b"vc-v1"

VettingPolicy = Callable[["Did", bytes, Mapping[str, str]], bool]


@dataclass(frozen=True)
class Did:
    scheme: str  # ledger identifier plus chain identifier, e.g. "sim:main"
    address: str

    def __str__(self) -> str:
        return f"did:{self.scheme}:{self.address}"

    @classmethod
    def parse(cls, text: str) -> "Did":
        if not text.startswith("did:"):
            raise ValueError(f"not a DID: {text!r}")
        scheme, _, address = text[4:].rpartition(":")
        if not scheme or not address:
            raise ValueError(f"malformed DID: {text!r}")
        return cls(scheme=scheme, address=address)


class DidRegistry:
    """Append-only identifier registry; creation never refuses (censorship-free)."""

    def __init__(self) -> None:
        self._dids: list[Did] = []
        self._known: set[Did] = set()

    def __len__(self) -> int:
        return len(self._dids)

    def __contains__(self, did: Did) -> bool:
        return did in self._known

    def register(self, did: Did) -> None:
        if did in self._known:
            raise ValueError(f"DID already registered: {did}")
        self._dids.append(did)
        self._known.add(did)


def create_did(registry: DidRegistry, scheme: str) -> Did:
    """Mint a fresh unique DID on the registry."""
    address = digest(scheme.encode() + be64(len(registry)))[:20].hex()
    did = Did(scheme=scheme, address=address)
    registry.register(did)
    return did


def _canonical_claims(claims: Mapping[str, str]) -> bytes:
    out = b""
    for key in sorted(claims):
        out += lp(key.encode()) + lp(claims[key].encode())
    return out


@dataclass(frozen=True)
class VerifiableCredential:
    did: Did
    user_public_key: bytes
    claims: tuple[tuple[str, str], ...]
    issuer_did: Did
    issuer_signature: bytes

    def canonical_body(self) -> bytes:
        return pack_fields(
            _CRED_TAG + bytes([_CRED_VERSION]),
            str(self.did).encode(),
            self.user_public_key,
            _canonical_claims(dict(self.claims)),
        )

    def export(self) -> bytes:
        return self.canonical_body() + lp(str(self.issuer_did).encode()) + lp(self.issuer_signature)

    @classmethod
    def from_export(cls, data: bytes) -> "VerifiableCredential":
        with Reader(data, _CRED_TAG + bytes([_CRED_VERSION])) as r:
            did_raw, pk, claims_raw, issuer_raw, sig = r.lp(), r.lp(), r.lp(), r.lp(), r.lp()
        claims = []
        c = Reader(claims_raw)
        while c.more():
            claims.append((c.lp().decode(), c.lp().decode()))
        if _canonical_claims(dict(claims)) != claims_raw:
            raise ValueError("claims are not sorted by unique key")
        return cls(
            did=Did.parse(did_raw.decode()),
            user_public_key=pk,
            claims=tuple(claims),
            issuer_did=Did.parse(issuer_raw.decode()),
            issuer_signature=sig,
        )

    def fingerprint(self) -> Digest:
        return digest(self.export())


def _approve_all(_did: Did, _pk: bytes, _claims: Mapping[str, str]) -> bool:
    # Document-based vetting happens out of band; default policy admits everyone.
    return True


class IdentityProvider:
    """Issuer of verifiable credentials with a revocation list."""

    def __init__(
        self,
        did: Did,
        keypair: KeyPair,
        registry: DidRegistry,
        vetting: VettingPolicy = _approve_all,
    ) -> None:
        self.did = did
        self.keypair = keypair
        self.registry = registry
        self.vetting = vetting
        self.issued_log: list[Digest] = []
        self.revocations: set[Digest] = set()

    @property
    def public_key(self) -> bytes:
        return self.keypair.public_key

    def issue_credential(
        self, did: Did, user_public_key: bytes, claims: Mapping[str, str]
    ) -> VerifiableCredential:
        if did not in self.registry:
            raise ValueError(f"unknown DID: {did}")
        if not self.vetting(did, user_public_key, claims):
            raise ValueError(f"vetting rejected DID: {did}")
        unsigned = VerifiableCredential(
            did=did,
            user_public_key=user_public_key,
            claims=tuple(sorted(claims.items())),
            issuer_did=self.did,
            issuer_signature=b"",
        )
        signature = sign(self.keypair.secret_key, unsigned.canonical_body())
        credential = VerifiableCredential(
            did=unsigned.did,
            user_public_key=unsigned.user_public_key,
            claims=unsigned.claims,
            issuer_did=unsigned.issuer_did,
            issuer_signature=signature,
        )
        self.issued_log.append(credential.fingerprint())
        return credential

    def revoke_credential(self, fingerprint: Digest) -> None:
        """Idempotent for already-revoked credentials; unknown ones are rejected."""
        if fingerprint not in self.issued_log:
            raise ValueError("cannot revoke a credential that was never issued")
        self.revocations.add(fingerprint)


def verify_credential(
    credential: VerifiableCredential,
    issuer_public_key: bytes,
    revocations: frozenset[Digest] | set[Digest] = frozenset(),
) -> bool:
    """True iff the issuer signature is valid and the credential is not revoked."""
    if credential.fingerprint() in revocations:
        return False
    return verify(issuer_public_key, credential.canonical_body(), credential.issuer_signature)
