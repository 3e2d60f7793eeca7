import pytest

from chainotp import check_misuse, reinitialize
from chainotp.attack import (
    AdversaryCapability,
    attack_ledger_delay,
    attack_replay_eavesdropper,
    attack_stolen_authenticator,
    attack_stolen_client_secrets,
    demo_malware_in_client,
    run_capability,
)
from chainotp.ledger import EVENT_MISUSE_ATTEMPT

from support import World


def test_stolen_client_secrets_detected_not_authenticated():
    world = World(seed=40)
    member = world.enroll()
    outcome = attack_stolen_client_secrets(member.wallet, world.provider, world.ledger)
    assert not outcome.authenticated
    assert outcome.steps_reached >= 5  # the OTP was published before the stall
    assert outcome.detected
    assert outcome.evidence is not None
    assert outcome.evidence.tx_id
    assert outcome.evidence.index == 1


def test_stolen_client_victim_next_attempt_alerts():
    world = World(seed=41)
    member = world.enroll()
    attack_stolen_client_secrets(member.wallet, world.provider, world.ledger)
    retry = world.auth(member)
    assert retry.kind == "aborted_misuse"
    assert retry.evidence is not None
    assert world.provider.alerts


def test_stolen_client_recovery_via_reinitialization():
    world = World(seed=42)
    member = world.enroll()
    attack_stolen_client_secrets(member.wallet, world.provider, world.ledger)
    result = reinitialize(
        member.user, member.authenticator, world.provider, world.ledger,
        mode="fresh_identity", n=16, rng=world.rng, old_wallet=member.wallet,
        identity_provider=world.idp,
    )
    assert result.ok
    member.wallet = result.wallet
    member.record = result.record
    assert world.auth(member).granted
    assert world.contract.size == 1


def test_stolen_client_attack_does_not_depend_on_victim_progress():
    world = World(seed=43)
    member = world.enroll()
    for _ in range(2):
        assert world.auth(member).granted
    outcome = attack_stolen_client_secrets(member.wallet, world.provider, world.ledger)
    assert not outcome.authenticated
    assert outcome.detected
    assert outcome.evidence.index == 3


def test_stolen_authenticator_never_starts():
    world = World(seed=44)
    member = world.enroll()
    registry_before = set(world.contract.last_used)
    events_before = len(world.ledger.events)
    assert member.authenticator.state is not None
    outcome = attack_stolen_authenticator(
        member.authenticator.state.seed, world.provider, world.ledger
    )
    assert not outcome.authenticated
    assert not outcome.detected
    assert outcome.steps_reached == 0
    assert set(world.contract.last_used) == registry_before
    assert len(world.ledger.events) == events_before
    # victim unaffected
    assert world.auth(member).granted


def test_replay_eavesdropper_all_messages_fail():
    world = World(seed=45)
    member = world.enroll()
    assert world.auth(member).granted
    recorded = list(member.channel.records)
    outcome = attack_replay_eavesdropper(recorded, world.provider, world.ledger)
    assert not outcome.authenticated
    assert outcome.detected  # the step-1 replay raised a misuse alert
    assert outcome.evidence is not None
    # fresh honest session still succeeds afterward
    assert world.auth(member).granted


def test_replay_after_two_sessions_still_fails():
    world = World(seed=46)
    member = world.enroll()
    assert world.auth(member).granted
    assert world.auth(member).granted
    outcome = attack_replay_eavesdropper(
        list(member.channel.records), world.provider, world.ledger
    )
    assert not outcome.authenticated
    assert world.auth(member).granted


def test_delay_within_threshold_grants_with_extra_seals():
    world_plain = World(seed=47)
    member_plain = world_plain.enroll()
    h0 = world_plain.ledger.height
    assert world_plain.auth(member_plain).granted
    plain_seals = world_plain.ledger.height - h0

    world = World(seed=47)
    member = world.enroll()
    h0 = world.ledger.height
    outcome = attack_ledger_delay(
        1, member.user, member.authenticator, member.wallet, world.provider, world.ledger
    )
    assert outcome.authenticated
    assert world.ledger.height - h0 == plain_seals + 1  # exactly one extra cycle
    assert not outcome.detected


def test_delay_beyond_threshold_abandons_without_false_alarm():
    world = World(seed=48, abandon_after_blocks=3)
    member = world.enroll()
    outcome = attack_ledger_delay(
        5, member.user, member.authenticator, member.wallet, world.provider, world.ledger
    )
    assert not outcome.authenticated
    assert not outcome.detected
    assert outcome.evidence is None
    assert not [e for e in world.ledger.events if e.kind == EVENT_MISUSE_ATTEMPT]
    # liveness: the delayed write still lands, keeping the registry consistent
    for _ in range(3):
        world.ledger.seal_block()
    assert world.contract.last_used == {member.wallet.otps[0]}
    assert check_misuse(member.wallet, world.ledger, world.contract) is None


def test_delay_recovery_after_abandonment():
    world = World(seed=49, abandon_after_blocks=3)
    member = world.enroll()
    attack_ledger_delay(
        5, member.user, member.authenticator, member.wallet, world.provider, world.ledger
    )
    for _ in range(3):
        world.ledger.seal_block()
    result = reinitialize(
        member.user, member.authenticator, world.provider, world.ledger,
        mode="rekey_signed_by_old", n=16, rng=world.rng, old_wallet=member.wallet,
    )
    assert result.ok
    member.wallet = result.wallet
    assert world.auth(member).granted
    assert world.contract.size == 1


@pytest.mark.parametrize("has_client", [False, True])
@pytest.mark.parametrize("has_auth", [False, True])
@pytest.mark.parametrize("channel", ["none", "observe", "delay"])
def test_capability_sweep_nothing_short_of_full_compromise_authenticates(
    has_client, has_auth, channel
):
    if has_client and has_auth:
        pytest.skip("full compromise is out of scope by the attacker model")
    world = World(seed=50, n=4)
    member = world.enroll()
    assert world.auth(member).granted  # give the eavesdropper something to replay
    capability = AdversaryCapability(
        has_client_secrets=has_client, has_authenticator=has_auth, channel_position=channel
    )
    outcome = run_capability(
        capability, member.wallet, member.channel, world.provider, world.ledger
    )
    assert not outcome.authenticated


def test_every_adversary_reaching_step5_is_detected():
    for seed in range(20):
        world = World(seed=1000 + seed, n=4)
        member = world.enroll()
        outcome = attack_stolen_client_secrets(member.wallet, world.provider, world.ledger)
        assert outcome.steps_reached >= 5
        assert outcome.detected
        assert outcome.evidence is not None


def test_attacks_do_not_break_post_reinit_accounts():
    world = World(seed=51, n=8)
    member = world.enroll()
    assert world.auth(member).granted
    attack_stolen_client_secrets(member.wallet, world.provider, world.ledger)
    attack_replay_eavesdropper(list(member.channel.records), world.provider, world.ledger)
    result = reinitialize(
        member.user, member.authenticator, world.provider, world.ledger,
        mode="fresh_identity", n=8, rng=world.rng, old_wallet=member.wallet,
        identity_provider=world.idp,
    )
    assert result.ok
    member.wallet = result.wallet
    member.record = result.record
    for _ in range(3):
        assert world.auth(member).granted
    assert world.contract.size == 1


def test_full_compromise_rejected_by_capability_runner():
    world = World(seed=52)
    member = world.enroll()
    with pytest.raises(ValueError):
        run_capability(
            AdversaryCapability(has_client_secrets=True, has_authenticator=True),
            member.wallet, member.channel, world.provider, world.ledger,
        )


def test_malware_demo_narrative_runs():
    # documented demo, not a security assertion: full client tampering wins
    # the race but drops the victim's session, which is the observable
    world = World(seed=53)
    member = world.enroll()
    lines = demo_malware_in_client(
        member.user, member.authenticator, member.wallet,
        world.provider, world.ledger, world.rng,
    )
    assert any("finishes the session first" in line for line in lines)
    assert any("fails" in line for line in lines)


def test_delay_detection_ignores_other_users_misuse():
    # another user's misuse event on the same chain is no alarm for this one
    world = World(seed=50)
    victim = world.enroll("user0")
    bystander = world.enroll("user1")
    attack_stolen_client_secrets(victim.wallet, world.provider, world.ledger)
    for _ in range(world.provider.abandon_after_blocks):
        world.ledger.seal_block()
    assert world.auth(victim).failed_step == 6  # victim's OTP 1 reused on chain
    assert [e for e in world.ledger.events if e.kind == EVENT_MISUSE_ATTEMPT]
    outcome = attack_ledger_delay(
        12, bystander.user, bystander.authenticator, bystander.wallet,
        world.provider, world.ledger,
    )
    assert not outcome.authenticated
    assert not outcome.detected
    assert outcome.evidence is None
