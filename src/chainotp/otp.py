"""Two-layer one-time-password scheme and the split of its material.

The authenticator keeps only the seed and derives 16-byte precursors on
demand; the client wallet keeps the hash images (the OTPs), the full
Merkle tree over them, and the session counter — but never the seed or
any precursor. Seed and precursors cross the air gap as mnemonics only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import mnemonic
from .crypto import OTP_LEN, SEED_LEN, KeyPair, OtpValue, Seed, digest, prf, truncate_to_otp
from .identity import Did, VerifiableCredential
from .merkle import MerkleProof, MerkleTree, build_tree, prove
from .wire import Reader, lp, u32le

DEFAULT_CAPACITY = 1024

_WALLET_MAGIC = b"WAL1"
_AUTH_MAGIC = b"AUT1"
_VERSION = 1


class OtpExhaustedError(RuntimeError):
    """All N indices consumed; the account needs reinitialization."""


def _check_capacity(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError(f"capacity must be a power of two >= 2, got {n}")


@dataclass(frozen=True)
class AuthenticatorState:
    """Seed-only device state; everything else is derivable on demand."""

    seed: Seed
    capacity: int

    def to_bytes(self) -> bytes:
        return _AUTH_MAGIC + bytes([_VERSION]) + self.seed + u32le(self.capacity)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AuthenticatorState":
        with Reader(data, _AUTH_MAGIC + bytes([_VERSION])) as r:
            return cls(seed=r.fixed(SEED_LEN), capacity=r.u32())


@dataclass(frozen=True)
class PrecursorReveal:
    """One precursor as shown on the authenticator display."""

    index: int
    precursor: OtpValue
    encoding: mnemonic.Mnemonic


def derive_precursor(auth: AuthenticatorState, index: int) -> PrecursorReveal:
    """Precursor i = first 16 bytes of prf(seed, i), plus its mnemonic form."""
    if not 1 <= index <= auth.capacity:
        raise ValueError(f"index {index} out of range 1..{auth.capacity}")
    precursor = truncate_to_otp(prf(auth.seed, index))
    return PrecursorReveal(index=index, precursor=precursor, encoding=mnemonic.encode(precursor))


def derive_all_otps(seed: Seed, n: int) -> list[OtpValue]:
    """OTP i = first 16 bytes of digest(precursor i), for i = 1..n."""
    _check_capacity(n)
    return [
        truncate_to_otp(digest(truncate_to_otp(prf(seed, i))))
        for i in range(1, n + 1)
    ]


def new_authenticator(rng: random.Random, n: int = DEFAULT_CAPACITY) -> AuthenticatorState:
    _check_capacity(n)
    return AuthenticatorState(seed=rng.randbytes(32), capacity=n)


@dataclass
class ClientWallet:
    """Client-side state. Holds no seed and no precursors by construction;
    session_counter is the next unused OTP index and only advances when the
    provider grants access, so an aborted attempt retries the same index."""

    keypair: KeyPair
    tree: MerkleTree
    otps: tuple[OtpValue, ...]
    session_counter: int = 1
    did: Optional[Did] = None
    credential: Optional[VerifiableCredential] = None
    attempted: set[int] = field(default_factory=set)

    @property
    def capacity(self) -> int:
        return len(self.otps)

    @property
    def last_confirmed(self) -> int:
        return self.session_counter - 1

    def next_auth_material(self) -> tuple[int, OtpValue, MerkleProof]:
        """Material for the next session; does not advance the counter."""
        if self.session_counter > self.capacity:
            raise OtpExhaustedError(
                f"all {self.capacity} one-time passwords used; reinitialize the account"
            )
        index = self.session_counter
        return index, self.otps[index - 1], prove(self.tree, index - 1)

    def mark_attempt(self, index: int) -> None:
        # Lets misuse checks tell the wallet's own unconfirmed publications
        # apart from an attacker's.
        self.attempted.add(index)

    def confirm_session_success(self) -> None:
        self.session_counter += 1

    def to_bytes(self) -> bytes:
        body = [
            _WALLET_MAGIC,
            bytes([_VERSION]),
            lp(self.keypair.public_key),
            lp(self.keypair.secret_key),
            u32le(self.session_counter),
            lp(self.tree.to_bytes()),
            u32le(len(self.otps)),
            b"".join(self.otps),
            lp(str(self.did).encode() if self.did else b""),
        ]
        return b"".join(body)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ClientWallet":
        with Reader(data, _WALLET_MAGIC + bytes([_VERSION])) as r:
            keypair = KeyPair(public_key=r.lp(), secret_key=r.lp())
            counter = r.u32()
            tree = MerkleTree.from_bytes(r.lp())
            otps = r.array(r.u32(), OTP_LEN)
            did_raw = r.lp()
        did = Did.parse(did_raw.decode()) if did_raw else None
        return cls(keypair=keypair, tree=tree, otps=otps, session_counter=counter, did=did)


def bootstrap_client(seed: Seed, n: int, keypair: KeyPair) -> ClientWallet:
    """Derive the wallet from a seed that crosses the air gap as a mnemonic.

    The encode/decode round trip stands in for transcription of the words;
    the seed itself is dropped after derivation and never stored.
    """
    _check_capacity(n)
    transferred = mnemonic.decode(mnemonic.encode(seed))
    otps = derive_all_otps(transferred, n)
    tree = build_tree(otps)
    return ClientWallet(keypair=keypair, tree=tree, otps=tuple(otps))
