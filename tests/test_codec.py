"""Strict decoding of every wire and file format.

Each decoder must invert its encoder and reject everything else with
ValueError: truncations, trailing bytes, fields of the wrong width and
out-of-range side flags. The provider entry points that parse untrusted
bytes (registration and rekey) must turn the same inputs into a plain
rejection and never raise.
"""

import random

import pytest

from chainotp.crypto import generate_keypair, sign
from chainotp.identity import Did, DidRegistry, IdentityProvider, VerifiableCredential, create_did
from chainotp.ledger import InclusionProof
from chainotp.merkle import MerkleProof, MerkleTree, build_tree, prove
from chainotp.otp import AuthenticatorState, ClientWallet, bootstrap_client, new_authenticator
from chainotp.protocol import AuthRequest1, AuthRequest2
from chainotp.wire import be64, lp, pack_fields

from support import World


def _values() -> dict:
    rng = random.Random(60)
    proof = prove(build_tree([rng.randbytes(16) for _ in range(8)]), 5)
    inclusion = InclusionProof(
        block_height=7, merkle_proof=prove(build_tree([rng.randbytes(32) for _ in range(4)]), 2)
    )
    did = Did(scheme="sim:main", address=rng.randbytes(20).hex())
    registry = DidRegistry()
    issuer = IdentityProvider(create_did(registry, "sim:main"), generate_keypair(rng), registry)
    keypair = generate_keypair(rng)
    credential = issuer.issue_credential(
        create_did(registry, "sim:main"), keypair.public_key, {"name": "alice", "country": "nz"}
    )
    wallet = bootstrap_client(rng.randbytes(32), 8, keypair)
    wallet.did = did
    wallet.confirm_session_success()
    return {
        "merkle-proof": proof,
        "merkle-tree": build_tree([rng.randbytes(16) for _ in range(4)]),
        "inclusion-proof": inclusion,
        "auth-request-1": AuthRequest1(
            did=did, index=6, otp=rng.randbytes(16), proof=proof, signature=rng.randbytes(64)
        ),
        "auth-request-2": AuthRequest2(
            did=did,
            tx_canonical=rng.randbytes(90),
            inclusion=inclusion,
            precursor=rng.randbytes(16),
            signature=rng.randbytes(64),
        ),
        "credential": credential,
        "authenticator": new_authenticator(rng, 64),
        "wallet": wallet,
    }


VALUES = _values()

CODECS = {
    "merkle-proof": (MerkleProof.to_bytes, MerkleProof.from_bytes),
    "merkle-tree": (MerkleTree.to_bytes, MerkleTree.from_bytes),
    "inclusion-proof": (InclusionProof.to_bytes, InclusionProof.from_bytes),
    "auth-request-1": (AuthRequest1.to_bytes, AuthRequest1.from_bytes),
    "auth-request-2": (AuthRequest2.to_bytes, AuthRequest2.from_bytes),
    "credential": (VerifiableCredential.export, VerifiableCredential.from_export),
    "authenticator": (AuthenticatorState.to_bytes, AuthenticatorState.from_bytes),
    "wallet": (ClientWallet.to_bytes, ClientWallet.from_bytes),
}


def _flip_flag(raw: bytes, pos: int, flag: int) -> bytes:
    assert raw[pos] in (0, 1)
    return raw[:pos] + bytes([flag]) + raw[pos + 1:]


def _req1(**fields: bytes) -> bytes:
    req = VALUES["auth-request-1"]
    parts = {
        "did": str(req.did).encode(),
        "index": be64(req.index),
        "otp": req.otp,
        "proof": req.proof.to_bytes(),
        "signature": req.signature,
    }
    parts.update(fields)
    return pack_fields(b"auth-req-1", *parts.values())


def _req2(**fields: bytes) -> bytes:
    req = VALUES["auth-request-2"]
    parts = {
        "did": str(req.did).encode(),
        "tx_canonical": req.tx_canonical,
        "inclusion": req.inclusion.to_bytes(),
        "precursor": req.precursor,
        "signature": req.signature,
    }
    parts.update(fields)
    return pack_fields(b"auth-req-2", *parts.values())


_PROOF_RAW = VALUES["merkle-proof"].to_bytes()
_INCLUSION_RAW = VALUES["inclusion-proof"].to_bytes()

# (decoder, bytes) pairs whose only defect is one field's width or a side flag
MALFORMED = {
    "req1-index-3-bytes": ("auth-request-1", _req1(index=be64(6)[-3:])),
    "req1-index-9-bytes": ("auth-request-1", _req1(index=bytes(1) + be64(6))),
    "req1-otp-15-bytes": ("auth-request-1", _req1(otp=bytes(15))),
    "req1-otp-18-bytes": ("auth-request-1", _req1(otp=bytes(18))),
    "req1-side-flag-2": ("auth-request-1", _req1(proof=_flip_flag(_PROOF_RAW, 8, 2))),
    "req2-precursor-15-bytes": ("auth-request-2", _req2(precursor=bytes(15))),
    "req2-precursor-32-bytes": ("auth-request-2", _req2(precursor=bytes(32))),
    "req2-side-flag-7": ("auth-request-2", _req2(inclusion=_flip_flag(_INCLUSION_RAW, 16, 7))),
    "proof-side-flag-7": ("merkle-proof", _flip_flag(_PROOF_RAW, 8, 7)),
    "proof-last-side-flag-2": ("merkle-proof", _flip_flag(_PROOF_RAW, 8 + 33 * 2, 2)),
    "inclusion-side-flag-255": ("inclusion-proof", _flip_flag(_INCLUSION_RAW, 16, 255)),
}


@pytest.mark.parametrize("name", sorted(CODECS))
def test_decode_inverts_encode(name):
    encode, decode = CODECS[name]
    raw = encode(VALUES[name])
    assert decode(raw) == VALUES[name]
    assert encode(decode(raw)) == raw


@pytest.mark.parametrize("name", sorted(CODECS))
def test_every_strict_prefix_rejected(name):
    encode, decode = CODECS[name]
    raw = encode(VALUES[name])
    for k in range(len(raw)):
        with pytest.raises(ValueError):
            decode(raw[:k])


@pytest.mark.parametrize("name", sorted(CODECS))
def test_trailing_byte_rejected(name):
    encode, decode = CODECS[name]
    with pytest.raises(ValueError):
        decode(encode(VALUES[name]) + b"\x00")


@pytest.mark.parametrize("name", sorted(CODECS))
def test_bit_flips_rejected_or_canonical(name):
    # whatever a decoder accepts re-encodes to exactly the bytes it read
    encode, decode = CODECS[name]
    raw = encode(VALUES[name])
    rng = random.Random(61)
    for pos in range(len(raw)):
        mutated = raw[:pos] + bytes([raw[pos] ^ (1 << rng.randrange(8))]) + raw[pos + 1:]
        try:
            value = decode(mutated)
        except ValueError:
            continue
        assert encode(value) == mutated


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_wrong_width_and_side_flag_rejected(case):
    name, raw = MALFORMED[case]
    with pytest.raises(ValueError):
        CODECS[name][1](raw)


def test_credential_claims_must_be_canonical():
    credential = VALUES["credential"]
    claims = [(k.encode(), v.encode()) for k, v in credential.claims]
    unsorted = b"".join(lp(k) + lp(v) for k, v in reversed(claims))
    repeated = b"".join(lp(k) + lp(v) for k, v in claims + claims[-1:])
    for claims_raw in (unsorted, repeated):
        raw = pack_fields(
            b"vc-v1\x01",
            str(credential.did).encode(),
            credential.user_public_key,
            claims_raw,
            str(credential.issuer_did).encode(),
            credential.issuer_signature,
        )
        with pytest.raises(ValueError):
            VerifiableCredential.from_export(raw)


def _variants(raw: bytes) -> list[bytes]:
    """Every strict prefix, one trailing byte, and random garbage."""
    rng = random.Random(62)
    return [raw[:k] for k in range(len(raw))] + [raw + b"\x00"] + [
        rng.randbytes(rng.randrange(1, 200)) for _ in range(50)
    ]


def test_register_user_rejects_malformed_registrations():
    world = World(seed=63)
    keypair = generate_keypair(world.rng)
    credential = world.idp.issue_credential(
        create_did(world.registry, "sim:main"), keypair.public_key, {"name": "bob"}
    )
    root = world.rng.randbytes(32)
    registration = pack_fields(b"bootstrap-reg", credential.export(), root)
    variants = _variants(registration) + [
        pack_fields(b"bootstrap-reg", credential.export(), root[:31]),
        pack_fields(b"bootstrap-reg", credential.export(), root + b"\x00"),
        pack_fields(b"bootstrap-reg", credential.export() + b"\x00", root),
        pack_fields(b"bootstrap-reg", b"\xff" + credential.export()[1:], root),
    ]
    before = dict(world.provider.records)
    for variant in variants:
        # signed by the registering key, so only the parse can refuse it
        assert world.provider.register_user(variant, sign(keypair.secret_key, variant)) is None
    assert world.provider.records == before
    record = world.provider.register_user(registration, sign(keypair.secret_key, registration))
    assert record is not None
    assert record.did == credential.did and record.merkle_root == root


def test_apply_rekey_rejects_malformed_messages():
    world = World(seed=64)
    member = world.enroll()
    did = str(member.wallet.did).encode()
    new_pk = generate_keypair(world.rng).public_key
    new_root = world.rng.randbytes(32)
    message = pack_fields(b"rekey", did, new_pk, new_root)
    variants = _variants(message) + [
        pack_fields(b"rekey", did, new_pk, new_root[:31]),
        pack_fields(b"rekey", did, new_pk, new_root + b"\x00"),
        pack_fields(b"rekey", b"\xff\xfe" + did, new_pk, new_root),
    ]
    old_key = member.wallet.keypair
    for variant in variants:
        # signed by the registered key, so only the parse can refuse it
        assert world.provider.apply_rekey(variant, sign(old_key.secret_key, variant)) is False
    assert member.record.user_public_key == old_key.public_key
    assert member.record.merkle_root == member.wallet.tree.root
    assert world.provider.apply_rekey(message, sign(old_key.secret_key, message)) is True
    assert member.record.user_public_key == new_pk
    assert member.record.merkle_root == new_root
