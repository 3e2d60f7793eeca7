"""Executable adversaries run against live protocol actors.

Each attack models one capability set: stolen client state (key, OTPs,
tree), stolen authenticator seed, a channel eavesdropper replaying
records, and a delaying man-in-the-middle between provider and chain.
The recurring result: nothing short of the authenticator seed finishes a
session, and any adversary who gets far enough to publish an OTP leaves
permanent chain evidence the victim can find immediately.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Optional

from .crypto import Seed
from .ledger import EVENT_MISUSE_ATTEMPT, Ledger
from .otp import ClientWallet
from .protocol import (
    ABORTED_INVALID,
    ABORTED_MISUSE,
    AuthFaults,
    Authenticator,
    AuthRequest1,
    AuthRequest2,
    ChannelMessage,
    MisuseEvidence,
    ProtocolOutcome,
    SecureChannel,
    ServiceProvider,
    Transcript,
    User,
    check_misuse,
    run_authentication,
)


@dataclass(frozen=True)
class AdversaryCapability:
    has_client_secrets: bool  # signing key + OTPs + full tree
    has_authenticator: bool  # the seed
    channel_position: str = "none"  # none | observe | delay


@dataclass
class AttackOutcome:
    authenticated: bool
    detected: bool
    evidence: Optional[MisuseEvidence] = None
    steps_reached: int = 0
    note: str = ""


def attack_stolen_client_secrets(
    victim_wallet: ClientWallet,
    provider: ServiceProvider,
    ledger: Ledger,
    *,
    transcript: Optional[Transcript] = None,
) -> AttackOutcome:
    """Byte-exact wallet copy, no authenticator. The session starts, the
    OTP lands on chain, and the run dies at the precursor step."""
    stolen = copy.deepcopy(victim_wallet)
    outcome = run_authentication(
        User("adversary"), None, stolen, provider, ledger, transcript=transcript
    )
    assert provider.contract is not None
    evidence = check_misuse(victim_wallet, ledger, provider.contract)
    return AttackOutcome(
        authenticated=outcome.granted,
        detected=evidence is not None,
        evidence=evidence,
        steps_reached=outcome.steps_completed,
        note=outcome.reason,
    )


def attack_stolen_authenticator(
    seed_copy: Seed,
    provider: ServiceProvider,
    ledger: Ledger,
) -> AttackOutcome:
    """Seed only. Without the signing key there is no acceptable first
    message, so the operational protocol never starts."""
    del seed_copy  # derivable OTPs are useless without a valid signature
    assert provider.contract is not None
    registry_before = set(provider.contract.last_used)
    outcome = AttackOutcome(
        authenticated=False,
        detected=False,
        steps_reached=0,
        note="no signing key: cannot construct a valid first message",
    )
    assert provider.contract.last_used == registry_before
    return outcome


def attack_replay_eavesdropper(
    records: list[ChannelMessage],
    provider: ServiceProvider,
    ledger: Ledger,
) -> AttackOutcome:
    """Re-inject every captured record verbatim. First-round replays hit
    the session/registry checks; second-round replays hit the invalidated
    session check."""
    granted = False
    outcomes: list[ProtocolOutcome] = []
    for record in records:
        if record.label == "auth-request-1":
            result = provider.handle_request1(AuthRequest1.from_bytes(record.payload))
            if isinstance(result, ProtocolOutcome):
                outcomes.append(result)
            else:  # a replay was admitted; let the contract judge it
                ledger.seal_block()
                failure = provider.finalize_publication(result)
                if failure is not None:
                    outcomes.append(failure)
                else:
                    granted = True  # would be a protocol break
        elif record.label == "auth-request-2":
            outcome = provider.handle_request2(AuthRequest2.from_bytes(record.payload))
            outcomes.append(outcome)
            granted = granted or outcome.granted
    detected = any(o.kind == ABORTED_MISUSE for o in outcomes)
    evidence = next((o.evidence for o in outcomes if o.evidence is not None), None)
    steps = max((o.steps_completed for o in outcomes), default=0)
    return AttackOutcome(
        authenticated=granted,
        detected=detected,
        evidence=evidence,
        steps_reached=steps,
        note="; ".join(o.reason for o in outcomes if o.reason),
    )


def attack_ledger_delay(
    delay_blocks: int,
    user: User,
    authenticator: Authenticator,
    wallet: ClientWallet,
    provider: ServiceProvider,
    ledger: Ledger,
    *,
    transcript: Optional[Transcript] = None,
) -> AttackOutcome:
    """Postpone provider-to-chain delivery by delay_blocks. Within the
    abandonment window this only costs seal cycles; beyond it the session
    is abandoned with no grant and no misuse artifact."""
    provider.submit_delay_blocks = delay_blocks
    try:
        outcome = run_authentication(
            user, authenticator, wallet, provider, ledger, transcript=transcript
        )
    finally:
        provider.submit_delay_blocks = 0
    assert provider.contract is not None
    events = ledger.events_for(provider.contract.address)
    misused = any(e.kind == EVENT_MISUSE_ATTEMPT and e.otp in wallet.otps for e in events)
    evidence = check_misuse(wallet, ledger, provider.contract)
    return AttackOutcome(
        authenticated=outcome.granted,
        detected=misused or evidence is not None,
        evidence=evidence,
        steps_reached=outcome.steps_completed,
        note=outcome.reason,
    )


def run_capability(
    capability: AdversaryCapability,
    victim_wallet: ClientWallet,
    victim_channel: SecureChannel,
    provider: ServiceProvider,
    ledger: Ledger,
) -> AttackOutcome:
    """Mount the strongest attack the capability set allows."""
    if capability.has_client_secrets and capability.has_authenticator:
        raise ValueError("full compromise is out of scope")
    if capability.has_client_secrets:
        return attack_stolen_client_secrets(victim_wallet, provider, ledger)
    if capability.has_authenticator:
        assert victim_wallet.did is not None
        return attack_stolen_authenticator(b"", provider, ledger)
    if capability.channel_position == "observe":
        return attack_replay_eavesdropper(list(victim_channel.records), provider, ledger)
    return AttackOutcome(authenticated=False, detected=False, note="no usable capability")


def demo_malware_in_client(
    user: User,
    authenticator: Authenticator,
    wallet: ClientWallet,
    provider: ServiceProvider,
    ledger: Ledger,
    rng: random.Random,
) -> list[str]:
    """Narrative demo, not an assertion: full client tampering including
    interactive precursor capture defeats any authentication method. The
    observable is that the victim's freshly authenticated session is
    grabbed by the attacker and the victim's own finish attempt fails.
    """
    del rng
    lines = []
    transcript = Transcript()
    stolen = copy.deepcopy(wallet)
    index, _, _ = wallet.next_auth_material()
    lines.append(f"victim starts session {index}; malware mirrors the client state")

    # The malware lets the victim drive rounds 1..11, then races the final
    # message using the captured precursor.
    assert authenticator.state is not None
    reveal = authenticator.reveal(index)
    lines.append("victim transcribes the precursor mnemonic; malware captures it")
    outcome = run_authentication(
        User("attacker-via-malware"), None, stolen, provider, ledger,
        transcript=transcript,
        faults=AuthFaults(precursor_override=reveal.precursor),
    )
    lines.append(f"attacker finishes the session first: {outcome.kind}")

    victim_outcome = run_authentication(
        user, authenticator, wallet, provider, ledger, transcript=transcript
    )
    assert victim_outcome.kind in (ABORTED_MISUSE, ABORTED_INVALID)
    lines.append(
        "victim's own attempt now fails "
        f"({victim_outcome.reason}); the dropped session is the tell"
    )
    lines.append("recovery: clean the machine, then reinitialize with fresh secrets")
    return lines
