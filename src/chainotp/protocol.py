"""Actor state machines for account bootstrap, authentication, misuse
checking, and reinitialization.

Authentication runs in two rounds. Round one proves possession of the
signing key and of one OTP under the registered Merkle root; the provider
publishes that OTP through its registry contract, where any reuse is
rejected and leaves a misuse event on chain. Round two proves possession
of the OTP's precursor, which only the air-gapped authenticator can
produce. A thief of the client state can start a session (and thereby
expose themselves on chain) but can never finish it.

Session admission is strict: a user record accepts index i only when the
previous session i-1 was fully granted and no session is in flight. The
wallet advances its counter only on grant, so an aborted attempt retries
the same index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

from . import mnemonic
from .crypto import (
    DIGEST_LEN,
    OTP_LEN,
    Digest,
    KeyPair,
    OtpValue,
    digest,
    generate_keypair,
    sign,
    truncate_to_otp,
    verify,
)
from .identity import (
    Did,
    IdentityProvider,
    VerifiableCredential,
    create_did,
    verify_credential,
)
from .ledger import (
    TX_PENDING,
    TX_REJECTED_REUSE,
    TX_SUCCESS,
    Event,
    InclusionProof,
    Ledger,
    LedgerTx,
    RegistryContract,
    light_verify,
)
from .merkle import MerkleProof, verify_proof
from .otp import (
    AuthenticatorState,
    ClientWallet,
    OtpExhaustedError,
    PrecursorReveal,
    bootstrap_client,
    derive_precursor,
    new_authenticator,
)
from .wire import Reader, be64, lp, pack_fields

GRANTED = "granted"
ABORTED_MISUSE = "aborted_misuse"
ABORTED_INVALID = "aborted_invalid"
EXHAUSTION = "exhaustion"

SESSION_IDLE = "idle"
SESSION_INITIATED = "initiated"
SESSION_INVALIDATED = "invalidated"

DEFAULT_ABANDON_BLOCKS = 10
DEFAULT_SCHEME = "sim:main"


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranscriptEntry:
    phase: str
    step: Optional[int]
    actor: str
    action: str
    digest: str  # hex digest of the message payload, "" when none
    ok: bool

    def as_dict(self) -> dict:
        return {
            "phase": self.phase,
            "step": self.step,
            "actor": self.actor,
            "action": self.action,
            "digest": self.digest,
            "ok": self.ok,
        }


class Transcript:
    def __init__(self) -> None:
        self.entries: list[TranscriptEntry] = []

    def log(
        self,
        phase: str,
        step: Optional[int],
        actor: str,
        action: str,
        payload: bytes = b"",
        ok: bool = True,
    ) -> None:
        self.entries.append(
            TranscriptEntry(
                phase=phase,
                step=step,
                actor=actor,
                action=action,
                digest=digest(payload).hex() if payload else "",
                ok=ok,
            )
        )

    def actors(self) -> set[str]:
        return {e.actor for e in self.entries}

    def as_dicts(self) -> list[dict]:
        return [e.as_dict() for e in self.entries]


# ---------------------------------------------------------------------------
# Channel (models a TLS session with pre-verified endpoints)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelMessage:
    seq: int
    sender: str
    receiver: str
    label: str
    payload: bytes


class SecureChannel:
    """In-order message log between two pre-verified endpoints. Observers
    get the records but, by the model's rules, only endpoints interpret
    them; an eavesdropper can at most re-inject a record verbatim."""

    def __init__(self, endpoint_a: str, endpoint_b: str) -> None:
        self.endpoints = (endpoint_a, endpoint_b)
        self.records: list[ChannelMessage] = []

    def send(self, sender: str, receiver: str, label: str, payload: bytes) -> ChannelMessage:
        if sender not in self.endpoints or receiver not in self.endpoints:
            raise ValueError("sender/receiver not channel endpoints")
        msg = ChannelMessage(len(self.records), sender, receiver, label, payload)
        self.records.append(msg)
        return msg


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuthRequest1:
    did: Did
    index: int
    otp: OtpValue
    proof: MerkleProof
    signature: bytes

    def body(self) -> bytes:
        return pack_fields(
            b"auth-req-1",
            str(self.did).encode(),
            be64(self.index),
            self.otp,
            self.proof.to_bytes(),
        )

    def to_bytes(self) -> bytes:
        return self.body() + lp(self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AuthRequest1":
        with Reader(data, b"auth-req-1") as r:
            return cls(
                did=Did.parse(r.lp().decode()), index=int.from_bytes(r.lp(8), "big"),
                otp=r.lp(OTP_LEN), proof=MerkleProof.from_bytes(r.lp()), signature=r.lp(),
            )


@dataclass(frozen=True)
class AuthRequest2:
    did: Did
    tx_canonical: bytes
    inclusion: InclusionProof
    precursor: OtpValue
    signature: bytes

    def body(self) -> bytes:
        return pack_fields(
            b"auth-req-2",
            str(self.did).encode(),
            self.tx_canonical,
            self.inclusion.to_bytes(),
            self.precursor,
        )

    def to_bytes(self) -> bytes:
        return self.body() + lp(self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AuthRequest2":
        with Reader(data, b"auth-req-2") as r:
            return cls(
                did=Did.parse(r.lp().decode()), tx_canonical=r.lp(),
                inclusion=InclusionProof.from_bytes(r.lp()), precursor=r.lp(OTP_LEN),
                signature=r.lp(),
            )


def _registration_body(credential: VerifiableCredential, root: Digest) -> bytes:
    return pack_fields(b"bootstrap-reg", credential.export(), root)


def _rekey_body(did: Did, new_public_key: bytes, new_root: Digest) -> bytes:
    return pack_fields(b"rekey", str(did).encode(), new_public_key, new_root)


# ---------------------------------------------------------------------------
# Outcomes and evidence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MisuseEvidence:
    otp: OtpValue
    tx_id: Digest
    block_height: int
    event_kind: str
    index: Optional[int] = None


@dataclass(frozen=True)
class ProtocolOutcome:
    kind: str
    failed_step: Optional[int] = None
    reason: str = ""
    steps_completed: int = 0
    evidence: Optional[MisuseEvidence] = None

    @property
    def granted(self) -> bool:
        return self.kind == GRANTED


def _evidence_from_event(event: Event, index: Optional[int] = None) -> MisuseEvidence:
    return MisuseEvidence(
        otp=event.otp,
        tx_id=event.tx_id,
        block_height=event.height,
        event_kind=event.kind,
        index=index,
    )


# ---------------------------------------------------------------------------
# Actors
# ---------------------------------------------------------------------------


@dataclass
class User:
    name: str
    did: Optional[Did] = None


class Authenticator:
    """Air-gapped device. The seed never leaves except as mnemonic words,
    and only during bootstrap."""

    def __init__(self, name: str, rng: random.Random) -> None:
        self.name = name
        self.rng = rng
        self.state: Optional[AuthenticatorState] = None

    def generate_seed(self, n: int) -> None:
        self.state = new_authenticator(self.rng, n)

    def export_seed_mnemonic(self) -> mnemonic.Mnemonic:
        if self.state is None:
            raise RuntimeError("authenticator holds no seed")
        return mnemonic.encode(self.state.seed)

    def reveal(self, index: int) -> PrecursorReveal:
        if self.state is None:
            raise RuntimeError("authenticator holds no seed")
        return derive_precursor(self.state, index)


@dataclass
class ProviderUserRecord:
    did: Did
    user_public_key: bytes
    merkle_root: Digest
    last_submitted_otp: Optional[OtpValue] = None
    session_id: int = 0  # last fully authenticated index
    session_state: str = SESSION_IDLE


@dataclass
class PendingSession:
    did_key: str
    index: int
    otp: OtpValue
    proof: MerkleProof
    prev_state: str
    start_height: int
    tx: Optional[LedgerTx] = None


@dataclass(frozen=True)
class Alert:
    did_key: str
    reason: str
    evidence: Optional[MisuseEvidence]


class ServiceProvider:
    """Holds per-user records and drives the registry contract. All checks
    of the operational phase live here, one method per protocol round."""

    def __init__(
        self,
        name: str,
        ledger: Ledger,
        trusted_issuer_key: bytes,
        revocations_source: Callable[[], set[Digest]] = lambda: set(),
        abandon_after_blocks: int = DEFAULT_ABANDON_BLOCKS,
    ) -> None:
        self.name = name
        self.ledger = ledger
        self.trusted_issuer_key = trusted_issuer_key
        self.revocations_source = revocations_source
        self.abandon_after_blocks = abandon_after_blocks
        self.contract: Optional[RegistryContract] = None
        self.records: dict[str, ProviderUserRecord] = {}
        self.sessions: dict[str, PendingSession] = {}
        self.alerts: list[Alert] = []
        # txs published for sessions later abandoned; reconciled when sealed
        self._orphaned: list[tuple[str, LedgerTx]] = []
        # adversarial delivery delay between provider and chain (MitM model)
        self.submit_delay_blocks = 0

    def deploy(self) -> LedgerTx:
        contract, tx = self.ledger.deploy_registry(self.name)
        self.contract = contract
        return tx

    # -- bootstrap ---------------------------------------------------------

    def register_user(self, registration: bytes, signature: bytes) -> Optional[ProviderUserRecord]:
        """Steps 9-10 of bootstrap: verify credentials, store the record.
        Returns None when verification fails (no record is created)."""
        try:
            with Reader(registration, b"bootstrap-reg") as r:
                credential = VerifiableCredential.from_export(r.lp())
                root = r.lp(DIGEST_LEN)
        except ValueError:
            return None
        if not verify_credential(credential, self.trusted_issuer_key, self.revocations_source()):
            return None
        if not verify(credential.user_public_key, registration, signature):
            return None
        record = ProviderUserRecord(
            did=credential.did,
            user_public_key=credential.user_public_key,
            merkle_root=root,
        )
        self.records[str(credential.did)] = record
        return record

    # -- operational phase -------------------------------------------------

    def _find_event_for_otp(self, otp: OtpValue) -> Optional[Event]:
        assert self.contract is not None
        for event in reversed(self.ledger.events_for(self.contract.address)):
            if event.otp == otp:
                return event
        return None

    def _reconcile_orphans(self) -> None:
        remaining = []
        for did_key, tx in self._orphaned:
            if tx.status == TX_PENDING:
                remaining.append((did_key, tx))
            elif tx.status == TX_SUCCESS and did_key in self.records:
                self.records[did_key].last_submitted_otp = tx.new_otp
        self._orphaned = remaining

    def abandon_session(self, did_key: str) -> None:
        """Drop an in-flight session; a still-pending publication is kept
        for later reconciliation once it lands."""
        session = self.sessions.pop(did_key, None)
        if session is None:
            return
        self.records[did_key].session_state = session.prev_state
        if session.tx is not None and session.tx.status == TX_PENDING:
            self._orphaned.append((did_key, session.tx))

    def _abandon_stale_session(self, did_key: str) -> None:
        session = self.sessions.get(did_key)
        if session is None:
            return
        if self.ledger.height - session.start_height >= self.abandon_after_blocks:
            self.abandon_session(did_key)

    def handle_request1(self, req: AuthRequest1) -> PendingSession | ProtocolOutcome:
        """Steps 2-5: signature, tree membership, session admission, publish."""
        self._reconcile_orphans()
        did_key = str(req.did)
        record = self.records.get(did_key)
        if record is None:
            return ProtocolOutcome(
                ABORTED_INVALID, failed_step=2, reason="unknown user", steps_completed=1
            )
        if not verify(record.user_public_key, req.body(), req.signature):
            return ProtocolOutcome(
                ABORTED_INVALID, failed_step=2,
                reason="step 2: signature verification failed", steps_completed=1,
            )
        if req.proof.leaf_index + 1 != req.index or not verify_proof(
            record.merkle_root, req.otp, req.proof
        ):
            return ProtocolOutcome(
                ABORTED_INVALID, failed_step=3,
                reason="step 3: OTP not a member of the registered tree", steps_completed=2,
            )

        self._abandon_stale_session(did_key)
        in_flight = did_key in self.sessions
        if in_flight or req.index != record.session_id + 1:
            return self._session_alert(did_key, record, req)

        record.session_state = SESSION_INITIATED
        session = PendingSession(
            did_key=did_key,
            index=req.index,
            otp=req.otp,
            proof=req.proof,
            prev_state=SESSION_INVALIDATED if record.session_id else SESSION_IDLE,
            start_height=self.ledger.height,
        )
        self.sessions[did_key] = session
        assert self.contract is not None
        session.tx = self.ledger.submit_insert_otp(
            self.contract,
            req.otp,
            record.last_submitted_otp,
            delay_blocks=self.submit_delay_blocks,
        )
        return session

    def _session_alert(
        self, did_key: str, record: ProviderUserRecord, req: AuthRequest1
    ) -> ProtocolOutcome:
        """Step 4 refusal: the presented index does not continue the record.
        When the chain already carries an artifact for the presented OTP (or
        for the in-flight session), this is credential misuse and the alert
        carries that evidence."""
        event = self._find_event_for_otp(req.otp)
        if event is None and did_key in self.sessions:
            session = self.sessions[did_key]
            if session.tx is not None and session.tx.status != TX_PENDING:
                event = self._find_event_for_otp(session.otp)
        if event is not None:
            evidence = _evidence_from_event(event, index=req.index)
            self.alerts.append(Alert(did_key, "session mismatch with on-chain artifact", evidence))
            return ProtocolOutcome(
                ABORTED_MISUSE, failed_step=4,
                reason="step 4: session mismatch; misuse alert sent", steps_completed=3,
                evidence=evidence,
            )
        return ProtocolOutcome(
            ABORTED_INVALID, failed_step=4,
            reason="step 4: session id does not continue the record", steps_completed=3,
        )

    def finalize_publication(self, session: PendingSession) -> Optional[ProtocolOutcome]:
        """Step 6 result plus the step-7 record update. None means success."""
        record = self.records[session.did_key]
        tx = session.tx
        assert tx is not None and tx.status != TX_PENDING
        if tx.status == TX_REJECTED_REUSE:
            event = self._find_event_for_otp(session.otp)
            assert event is not None
            evidence = _evidence_from_event(event, index=session.index)
            self.alerts.append(Alert(session.did_key, "registry rejected reused OTP", evidence))
            record.session_state = session.prev_state
            del self.sessions[session.did_key]
            return ProtocolOutcome(
                ABORTED_MISUSE, failed_step=6,
                reason="step 6: registry holds this OTP already; misuse event emitted",
                steps_completed=5, evidence=evidence,
            )
        if tx.status != TX_SUCCESS:
            record.session_state = session.prev_state
            del self.sessions[session.did_key]
            return ProtocolOutcome(
                ABORTED_INVALID, failed_step=6,
                reason="step 6: registry state fault", steps_completed=5,
            )
        record.last_submitted_otp = tx.new_otp
        return None

    def handle_request2(self, req: AuthRequest2) -> ProtocolOutcome:
        """Steps 13-17: signature, session validity, precursor, inclusion, grant."""
        did_key = str(req.did)
        record = self.records.get(did_key)
        if record is None:
            return ProtocolOutcome(
                ABORTED_INVALID, failed_step=13, reason="unknown user", steps_completed=12
            )
        if not verify(record.user_public_key, req.body(), req.signature):
            return ProtocolOutcome(
                ABORTED_INVALID, failed_step=13,
                reason="step 13: signature verification failed", steps_completed=12,
            )
        self._abandon_stale_session(did_key)
        session = self.sessions.get(did_key)
        if (
            session is None
            or record.session_state != SESSION_INITIATED
            or session.proof.leaf_index + 1 != session.index
        ):
            return ProtocolOutcome(
                ABORTED_INVALID, failed_step=14,
                reason="step 14: no initiated valid session for this user", steps_completed=13,
            )
        if truncate_to_otp(digest(req.precursor)) != session.otp:
            return ProtocolOutcome(
                ABORTED_INVALID, failed_step=15,
                reason="step 15: precursor does not hash to the session OTP", steps_completed=14,
            )
        assert session.tx is not None
        if (
            LedgerTx.compute_id(req.tx_canonical) != session.tx.tx_id
            or not light_verify(self.ledger.headers(), session.tx, req.inclusion)
        ):
            return ProtocolOutcome(
                ABORTED_INVALID, failed_step=16,
                reason="step 16: transaction inclusion proof failed", steps_completed=15,
            )
        record.session_id = session.index
        record.session_state = SESSION_INVALIDATED
        del self.sessions[did_key]
        return ProtocolOutcome(
            GRANTED, reason="step 17: access granted, session invalidated", steps_completed=17
        )

    # -- reinitialization ---------------------------------------------------

    def apply_rekey(self, message: bytes, signature: bytes) -> bool:
        """Accept a new public key and root signed by the currently
        registered key. No identity-provider involvement."""
        try:
            with Reader(message, b"rekey") as r:
                did_key = r.lp().decode()
                new_pk = r.lp()
                new_root = r.lp(DIGEST_LEN)
        except ValueError:
            return False
        record = self.records.get(did_key)
        if record is None or not verify(record.user_public_key, message, signature):
            return False
        record.user_public_key = new_pk
        record.merkle_root = new_root
        record.session_id = 0
        record.session_state = SESSION_IDLE
        self.sessions.pop(did_key, None)
        return True

    def migrate_account(self, old_did: Did, new_did: Did) -> None:
        """Move registry bookkeeping from a replaced identity to its
        successor so the old on-chain entry is cleaned up by the next write."""
        old = self.records.pop(str(old_did), None)
        self.sessions.pop(str(old_did), None)
        if old is not None and str(new_did) in self.records:
            self.records[str(new_did)].last_submitted_otp = old.last_submitted_otp


# ---------------------------------------------------------------------------
# Fault injection (factor ablation and adversarial drivers)
# ---------------------------------------------------------------------------


@dataclass
class AuthFaults:
    """Knobs that remove exactly one factor from an otherwise honest run."""

    sign_with: Optional[KeyPair] = None
    corrupt_otp: bool = False
    corrupt_proof: bool = False
    precursor_override: Optional[bytes] = None


def _tampered_proof(proof: MerkleProof) -> MerkleProof:
    node, is_left = proof.siblings[0]
    flipped = bytes([node[0] ^ 0x01]) + node[1:]
    return MerkleProof(
        leaf_index=proof.leaf_index,
        siblings=((flipped, is_left),) + proof.siblings[1:],
    )


def _deliver_failure(
    outcome: ProtocolOutcome,
    channel: SecureChannel,
    transcript: Transcript,
    client: str,
    provider_name: str,
) -> None:
    """Log the failed step; misuse aborts are also pushed to the client as
    an alert message carrying the on-chain evidence."""
    transcript.log("auth", outcome.failed_step, provider_name, outcome.reason, ok=False)
    if outcome.kind == ABORTED_MISUSE and outcome.evidence is not None:
        alert = pack_fields(
            b"misuse-alert",
            outcome.evidence.tx_id,
            outcome.evidence.otp,
            be64(outcome.evidence.block_height),
        )
        msg = channel.send(provider_name, client, "misuse-alert", alert)
        transcript.log("auth", outcome.failed_step, provider_name,
                       "misuse alert pushed to client", msg.payload, ok=False)


# ---------------------------------------------------------------------------
# Bootstrap (11 steps)
# ---------------------------------------------------------------------------


@dataclass
class BootstrapResult:
    ok: bool
    reason: str = ""
    wallet: Optional[ClientWallet] = None
    authenticator_state: Optional[AuthenticatorState] = None
    record: Optional[ProviderUserRecord] = None


def run_bootstrap(
    user: User,
    authenticator: Authenticator,
    identity_provider: IdentityProvider,
    provider: ServiceProvider,
    ledger: Ledger,
    n: int,
    rng: random.Random,
    *,
    claims: Optional[dict[str, str]] = None,
    transcript: Optional[Transcript] = None,
    channel: Optional[SecureChannel] = None,
    air_gap_corrupt: Optional[Callable[[mnemonic.Mnemonic], mnemonic.Mnemonic]] = None,
    phase: str = "bootstrap",
) -> BootstrapResult:
    """Register a fresh account: keypair, DID and credential, seed and OTP
    tree, then the signed (credential, root) registration."""
    t = transcript if transcript is not None else Transcript()
    ch = channel if channel is not None else SecureChannel(user.name, provider.name)

    keypair = generate_keypair(rng)
    t.log(phase, 1, user.name, "generate keypair")

    did = create_did(identity_provider.registry, DEFAULT_SCHEME)
    credential = identity_provider.issue_credential(did, keypair.public_key, claims or {})
    t.log(phase, 2, "identity-provider", f"issue credential for {did}", credential.export())

    authenticator.generate_seed(n)
    assert authenticator.state is not None
    t.log(phase, 3, authenticator.name, f"generate seed for {n} one-time passwords")

    words = authenticator.export_seed_mnemonic()
    if air_gap_corrupt is not None:
        words = air_gap_corrupt(words)
    try:
        seed = mnemonic.decode(words)
    except mnemonic.MnemonicError as exc:
        t.log(phase, 4, user.name, f"air-gap seed transfer failed: {exc}", ok=False)
        return BootstrapResult(ok=False, reason=f"air-gap transfer failed: {exc}")
    t.log(phase, 4, user.name, "air-gap seed transfer (mnemonic)", words.sentence().encode())

    wallet = bootstrap_client(seed, n, keypair)
    t.log(phase, 5, user.name, "derive precursors, OTPs, and Merkle tree")
    t.log(phase, 6, user.name, "store all tree nodes in the wallet")
    t.log(phase, 7, user.name, "delete seed and precursors from the client")

    registration = _registration_body(credential, wallet.tree.root)
    signature = sign(keypair.secret_key, registration)
    msg = ch.send(user.name, provider.name, "registration", registration + lp(signature))
    t.log(phase, 8, user.name, "send credential and tree root", msg.payload)

    record = provider.register_user(registration, signature)
    if record is None:
        t.log(phase, 9, provider.name, "credential verification failed", ok=False)
        return BootstrapResult(ok=False, reason="credential verification failed")
    t.log(phase, 9, provider.name, "credential verified against issuer key")
    t.log(phase, 10, provider.name, "record saved: public key, DID, tree root")

    ack = ch.send(provider.name, user.name, "registration-ack", pack_fields(b"reg-ack", wallet.tree.root))
    t.log(phase, 11, provider.name, "registration acknowledged", ack.payload)

    user.did = did
    wallet.did = did
    wallet.credential = credential
    return BootstrapResult(
        ok=True,
        wallet=wallet,
        authenticator_state=authenticator.state,
        record=record,
    )


# ---------------------------------------------------------------------------
# Operational phase (17 steps)
# ---------------------------------------------------------------------------


def run_authentication(
    user: Optional[User],
    authenticator: Optional[Authenticator],
    wallet: ClientWallet,
    provider: ServiceProvider,
    ledger: Ledger,
    *,
    transcript: Optional[Transcript] = None,
    channel: Optional[SecureChannel] = None,
    faults: Optional[AuthFaults] = None,
    max_wait_blocks: Optional[int] = None,
) -> ProtocolOutcome:
    """One authentication session. A missing authenticator aborts at step
    10 — after the OTP was already published, which is what makes stolen
    client state detectable."""
    t = transcript if transcript is not None else Transcript()
    client = user.name if user is not None else "client"
    ch = channel if channel is not None else SecureChannel(client, provider.name)
    f = faults if faults is not None else AuthFaults()
    assert wallet.did is not None, "wallet is not bootstrapped"

    try:
        index, otp, proof = wallet.next_auth_material()
    except OtpExhaustedError as exc:
        t.log("auth", None, client, str(exc), ok=False)
        return ProtocolOutcome(EXHAUSTION, reason=str(exc))
    if f.corrupt_otp:
        otp = bytes([otp[0] ^ 0xFF]) + otp[1:]
    if f.corrupt_proof:
        proof = _tampered_proof(proof)
    keypair = f.sign_with if f.sign_with is not None else wallet.keypair

    req1 = AuthRequest1(did=wallet.did, index=index, otp=otp, proof=proof, signature=b"")
    req1 = replace(req1, signature=sign(keypair.secret_key, req1.body()))
    msg1 = ch.send(client, provider.name, "auth-request-1", req1.to_bytes())
    wallet.mark_attempt(index)
    t.log("auth", 1, client, f"send OTP {index} with Merkle proof", msg1.payload)

    result = provider.handle_request1(AuthRequest1.from_bytes(msg1.payload))
    if isinstance(result, ProtocolOutcome):
        _deliver_failure(result, ch, t, client, provider.name)
        return result
    session = result
    assert session.tx is not None
    t.log("auth", 2, provider.name, "signature verified")
    t.log("auth", 3, provider.name, "OTP membership verified against stored root")
    t.log("auth", 4, provider.name, f"session {index} admitted")
    t.log("auth", 5, provider.name, "OTP published via registry contract", session.tx.canonical_bytes())

    wait = max_wait_blocks if max_wait_blocks is not None else provider.abandon_after_blocks
    for _ in range(wait):
        ledger.seal_block()
        if session.tx.status != TX_PENDING:
            break
    if session.tx.status == TX_PENDING:
        provider.abandon_session(session.did_key)
        reason = f"session abandoned: transaction not sealed within {wait} blocks"
        t.log("auth", None, provider.name, reason, ok=False)
        return ProtocolOutcome(ABORTED_INVALID, reason=reason, steps_completed=5)

    failure = provider.finalize_publication(session)
    if failure is not None:
        _deliver_failure(failure, ch, t, client, provider.name)
        return failure
    t.log("auth", 6, "registry-contract", "OTP accepted; previous entry replaced")
    t.log("auth", 7, provider.name, "user record updated with published OTP")

    msg8 = ch.send(provider.name, client, "publication", session.tx.canonical_bytes())
    t.log("auth", 8, provider.name, "transaction returned to client", msg8.payload)

    tx = session.tx
    inclusion = ledger.inclusion_proof(tx.tx_id)
    client_ok = (
        tx.kind == "insert_otp"
        and tx.new_otp == otp
        and light_verify(ledger.headers(), tx, inclusion)
    )
    if not client_ok:
        reason = "step 9: client light verification failed"
        t.log("auth", 9, client, reason, ok=False)
        return ProtocolOutcome(ABORTED_INVALID, failed_step=9, reason=reason, steps_completed=8)
    t.log("auth", 9, client, "light client verified transaction inclusion")

    if f.precursor_override is not None:
        precursor = f.precursor_override
        t.log("auth", 10, client, "precursor substituted (fault injection)")
        t.log("auth", 11, client, "air-gap transfer of precursor")
    elif authenticator is None:
        reason = "step 10: authenticator unavailable, precursor cannot be produced"
        t.log("auth", 10, client, reason, ok=False)
        return ProtocolOutcome(ABORTED_INVALID, failed_step=10, reason=reason, steps_completed=9)
    else:
        reveal = authenticator.reveal(index)
        t.log(
            "auth", 10, authenticator.name,
            f"display precursor {index} as mnemonic",
            reveal.encoding.sentence().encode(),
        )
        try:
            precursor = mnemonic.decode(reveal.encoding)
        except mnemonic.MnemonicError as exc:
            reason = f"step 11: precursor transfer failed: {exc}"
            t.log("auth", 11, client, reason, ok=False)
            return ProtocolOutcome(ABORTED_INVALID, failed_step=11, reason=reason, steps_completed=10)
        t.log("auth", 11, client, "air-gap transfer of precursor")

    req2 = AuthRequest2(
        did=wallet.did,
        tx_canonical=tx.canonical_bytes(),
        inclusion=inclusion,
        precursor=precursor,
        signature=b"",
    )
    req2 = replace(req2, signature=sign(keypair.secret_key, req2.body()))
    msg12 = ch.send(client, provider.name, "auth-request-2", req2.to_bytes())
    t.log("auth", 12, client, "send transaction, inclusion proof, and precursor", msg12.payload)

    outcome = provider.handle_request2(AuthRequest2.from_bytes(msg12.payload))
    if not outcome.granted:
        t.log("auth", outcome.failed_step, provider.name, outcome.reason, ok=False)
        return outcome
    t.log("auth", 13, provider.name, "signature verified")
    t.log("auth", 14, provider.name, "session validity confirmed")
    t.log("auth", 15, provider.name, "precursor hashes to the session OTP")
    t.log("auth", 16, provider.name, "transaction and inclusion proof verified")
    t.log("auth", 17, provider.name, f"access granted, session {index} invalidated")
    wallet.confirm_session_success()
    return outcome


# ---------------------------------------------------------------------------
# Misuse check and reinitialization
# ---------------------------------------------------------------------------


def check_misuse(
    wallet: ClientWallet, ledger: Ledger, contract: RegistryContract
) -> Optional[MisuseEvidence]:
    """Scan chain state for any of the wallet's unused OTPs. The wallet's
    own unconfirmed attempts are excluded so a delayed-but-honest
    publication is not reported as misuse."""
    latest_event_by_otp: dict[OtpValue, Event] = {}
    for event in ledger.events_for(contract.address):
        latest_event_by_otp[event.otp] = event
    for index in range(wallet.last_confirmed + 1, wallet.capacity + 1):
        if index in wallet.attempted:
            continue
        event = latest_event_by_otp.get(wallet.otps[index - 1])
        if event is not None:
            return _evidence_from_event(event, index=index)
    return None


def reinitialize(
    user: User,
    authenticator: Authenticator,
    provider: ServiceProvider,
    ledger: Ledger,
    *,
    mode: str,
    n: int,
    rng: random.Random,
    old_wallet: ClientWallet,
    identity_provider: Optional[IdentityProvider] = None,
    transcript: Optional[Transcript] = None,
    channel: Optional[SecureChannel] = None,
) -> BootstrapResult:
    """Replace all account secrets after (suspected) compromise.

    fresh_identity repeats the whole bootstrap including the identity
    provider; rekey_signed_by_old accepts the new key on a signature by
    the currently registered key, with no identity-provider round trip.
    Either way the old tree root is discarded, so old OTPs are dead.
    """
    t = transcript if transcript is not None else Transcript()
    if mode == "fresh_identity":
        if identity_provider is None:
            raise ValueError("fresh_identity reinitialization needs the identity provider")
        old_did = old_wallet.did
        assert old_did is not None
        result = run_bootstrap(
            user, authenticator, identity_provider, provider, ledger, n, rng,
            transcript=t, channel=channel, phase="reinit",
        )
        if result.ok:
            assert result.record is not None
            provider.migrate_account(old_did, result.record.did)
            t.log("reinit", None, provider.name, "old identity record replaced")
        return result

    if mode != "rekey_signed_by_old":
        raise ValueError(f"unknown reinitialization mode: {mode}")

    did = old_wallet.did
    assert did is not None
    client = user.name
    ch = channel if channel is not None else SecureChannel(client, provider.name)

    new_keypair = generate_keypair(rng)
    t.log("reinit", 1, client, "generate replacement keypair")
    # keep the old seed recoverable until the provider accepts the rekey
    previous_device_state = authenticator.state
    authenticator.generate_seed(n)
    assert authenticator.state is not None
    t.log("reinit", 2, authenticator.name, "generate replacement seed")
    try:
        seed = mnemonic.decode(authenticator.export_seed_mnemonic())
    except mnemonic.MnemonicError as exc:
        authenticator.state = previous_device_state
        t.log("reinit", 3, client, f"air-gap seed transfer failed: {exc}", ok=False)
        return BootstrapResult(ok=False, reason=f"air-gap transfer failed: {exc}")
    t.log("reinit", 3, client, "air-gap seed transfer (mnemonic)")
    wallet = bootstrap_client(seed, n, new_keypair)
    wallet.did = did
    wallet.credential = old_wallet.credential
    t.log("reinit", 4, client, "derive replacement OTPs and tree")

    message = _rekey_body(did, new_keypair.public_key, wallet.tree.root)
    signature = sign(old_wallet.keypair.secret_key, message)
    msg = ch.send(client, provider.name, "rekey", message + lp(signature))
    t.log("reinit", 5, client, "send new key and root signed by the old key", msg.payload)

    if not provider.apply_rekey(message, signature):
        authenticator.state = previous_device_state
        t.log("reinit", 6, provider.name, "rekey rejected: signature invalid", ok=False)
        return BootstrapResult(ok=False, reason="rekey signature invalid")
    t.log("reinit", 6, provider.name, "rekey accepted; record updated, sessions reset")
    return BootstrapResult(
        ok=True,
        wallet=wallet,
        authenticator_state=authenticator.state,
        record=provider.records[str(did)],
    )
