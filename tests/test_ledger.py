import json
import random
from dataclasses import replace

import pytest

from chainotp import merkle
from chainotp.crypto import digest
from chainotp.ledger import (
    BlockHeader,
    ChainProfile,
    DEPLOY_GAS,
    EVENT_MISUSE_ATTEMPT,
    EVENT_OTP_INSERTED,
    EVENT_STATE_FAULT,
    INSERT_OTP_GAS,
    Ledger,
    LedgerTx,
    PROFILES,
    RegistryContract,
    TX_REJECTED_REUSE,
    TX_REJECTED_STATE,
    TX_SUCCESS,
    light_verify,
    max_auth_per_second,
    state_storage_bytes,
    tx_root_over,
)
from chainotp.wire import be64, pack_fields

from support import World


def otp(i: int) -> bytes:
    return bytes([i]) * 16


def fresh_ledger(profile="mainnet") -> tuple[Ledger, RegistryContract]:
    led = Ledger(PROFILES[profile])
    contract, _ = led.deploy_registry("provider-a")
    led.seal_block()
    return led, contract


def test_deploy_gas_and_empty_registry():
    led = Ledger()
    contract, tx = led.deploy_registry("provider-a")
    assert tx.gas_used == DEPLOY_GAS == 292_000
    assert contract.deploy_gas == 292_000
    assert contract.size == 0
    block = led.seal_block()
    assert tx in block.txs
    assert tx.status == TX_SUCCESS


def test_two_providers_two_independent_registries():
    led = Ledger()
    reg_a, _ = led.deploy_registry("provider-a")
    reg_b, _ = led.deploy_registry("provider-b")
    led.seal_block()
    assert reg_a.address != reg_b.address
    led.submit_insert_otp(reg_a, otp(1))
    led.seal_block()
    assert reg_a.size == 1
    assert reg_b.size == 0


def test_insert_fresh_otp():
    led, contract = fresh_ledger()
    tx = led.submit_insert_otp(contract, otp(1))
    assert tx.gas_used == INSERT_OTP_GAS == 48_000
    led.seal_block()
    assert tx.status == TX_SUCCESS
    assert contract.size == 1
    assert otp(1) in contract.last_used


def test_reuse_rejected_registry_unchanged():
    led, contract = fresh_ledger()
    led.submit_insert_otp(contract, otp(1))
    led.seal_block()
    tx = led.submit_insert_otp(contract, otp(1))
    led.seal_block()
    assert tx.status == TX_REJECTED_REUSE
    assert contract.last_used == {otp(1)}
    events = led.events_for(contract.address)
    assert events[-1].kind == EVENT_MISUSE_ATTEMPT
    assert events[-1].tx_id == tx.tx_id
    assert events[-1].otp == otp(1)


def test_replace_semantics_keep_size_constant():
    led, contract = fresh_ledger()
    led.submit_insert_otp(contract, otp(1))
    led.seal_block()
    tx = led.submit_insert_otp(contract, otp(2), prev_otp=otp(1))
    led.seal_block()
    assert tx.status == TX_SUCCESS
    assert contract.last_used == {otp(2)}
    assert contract.size == 1


def test_missing_prev_is_state_fault_not_reuse():
    led, contract = fresh_ledger()
    tx = led.submit_insert_otp(contract, otp(2), prev_otp=otp(9))
    led.seal_block()
    assert tx.status == TX_REJECTED_STATE
    assert contract.size == 0
    assert led.events_for(contract.address)[-1].kind == EVENT_STATE_FAULT


def test_reuse_takes_precedence_over_prev_fault():
    led, contract = fresh_ledger()
    led.submit_insert_otp(contract, otp(1))
    led.seal_block()
    tx = led.submit_insert_otp(contract, otp(1), prev_otp=otp(9))
    led.seal_block()
    assert tx.status == TX_REJECTED_REUSE


def test_gas_limit_spills_to_next_block():
    # limit fits exactly two 48k writes: 2 x 48k = 96k <= 100k < 144k
    led = Ledger(ChainProfile("tiny", 100_000, 1.0))
    contract = RegistryContract(address="0xtest")
    led.contracts[contract.address] = contract
    txs = [led.submit_insert_otp(contract, otp(i)) for i in (1, 2, 3)]
    first = led.seal_block()
    assert [t.tx_id for t in first.txs] == [txs[0].tx_id, txs[1].tx_id]
    assert txs[2].status == "pending"
    second = led.seal_block()
    assert [t.tx_id for t in second.txs] == [txs[2].tx_id]
    assert txs[2].status == TX_SUCCESS


def test_gas_conservation_every_block():
    led = Ledger(ChainProfile("tiny", 100_000, 1.0))
    contract = RegistryContract(address="0xtest")
    led.contracts[contract.address] = contract
    for i in range(1, 8):
        led.submit_insert_otp(contract, otp(i))
    while led.pending_count():
        block = led.seal_block()
        assert sum(t.gas_used for t in block.txs) <= led.profile.block_gas_limit


def test_oversized_tx_rejected_at_submission():
    led = Ledger(ChainProfile("micro", 40_000, 1.0))
    contract = RegistryContract(address="0xtest")
    led.contracts[contract.address] = contract
    with pytest.raises(ValueError):
        led.submit_insert_otp(contract, otp(1))


def test_empty_blocks_allowed():
    led = Ledger()
    block = led.seal_block()
    assert block.height == 1
    assert block.txs == ()


def test_tx_root_verifies_every_included_tx():
    led, contract = fresh_ledger()
    for i in (1, 2, 3):
        led.submit_insert_otp(contract, otp(i))
    block = led.seal_block()
    for tx in block.txs:
        proof = led.inclusion_proof(tx.tx_id)
        assert proof.block_height == block.height
        assert light_verify(led.headers(), tx, proof)


def test_inclusion_proof_replay_against_other_tx_fails():
    led, contract = fresh_ledger()
    txs = [led.submit_insert_otp(contract, otp(i)) for i in (1, 2, 3, 4)]
    led.seal_block()
    proofs = {t.tx_id: led.inclusion_proof(t.tx_id) for t in txs}
    for a in txs:
        for b in txs:
            assert light_verify(led.headers(), a, proofs[b.tx_id]) == (a is b)


def test_light_verify_truncated_header_store():
    led, contract = fresh_ledger()
    tx = led.submit_insert_otp(contract, otp(1))
    led.seal_block()
    proof = led.inclusion_proof(tx.tx_id)
    full = led.headers()
    assert light_verify(full, tx, proof)
    truncated = full[:proof.block_height - 1]
    assert not light_verify(truncated, tx, proof)
    assert not light_verify((), tx, proof)


def test_light_verify_rejects_heights_outside_the_store():
    led, contract = fresh_ledger()
    tx = led.submit_insert_otp(contract, otp(1))
    led.seal_block()
    led.seal_block()
    proof = led.inclusion_proof(tx.tx_id)
    headers = led.headers()
    assert light_verify(headers, tx, proof)
    # Height 0 must not wrap round to headers[-1], the tip.
    for height in (0, len(headers) + 1, 2**64 - 1):
        assert not light_verify(headers, tx, replace(proof, block_height=height))


def test_light_verify_rejects_reordered_headers():
    led, contract = fresh_ledger()
    tx = led.submit_insert_otp(contract, otp(1))
    led.seal_block()
    led.seal_block()
    proof = led.inclusion_proof(tx.tx_id)
    h1, h2, h3 = led.headers()
    assert proof.block_height == 2 and light_verify((h1, h2, h3), tx, proof)
    swapped = (h1, h3, h2)
    assert not light_verify(swapped, tx, proof)
    # The tx's own header now sits at position 3, so a proof relabelled
    # to height 3 would reach its tx_root; the stored height refuses it.
    assert not light_verify(swapped, tx, replace(proof, block_height=3))


def test_full_block_proofs_build_one_tree(monkeypatch):
    led, contract = fresh_ledger()
    rng = random.Random(0)
    txs = [led.submit_insert_otp(contract, rng.randbytes(16)) for _ in range(625)]
    block = led.seal_block()
    assert len(block.txs) == 625 and not led.pending_count()
    builds = []
    build_tree = merkle.build_tree
    monkeypatch.setattr(merkle, "build_tree", lambda leaves: builds.append(1) or build_tree(leaves))
    headers = led.headers()
    for tx in txs:
        assert light_verify(headers, tx, led.inclusion_proof(tx.tx_id))
    assert len(builds) == 1
    # A proof for another block replaces the remembered tree, and coming
    # back rebuilds this block's tree correctly.
    deploy_tx = led.blocks[0].txs[0]
    assert light_verify(headers, deploy_tx, led.inclusion_proof(deploy_tx.tx_id))
    assert light_verify(headers, txs[-1], led.inclusion_proof(txs[-1].tx_id))
    assert len(builds) == 3


def test_login_builds_no_more_headers_on_a_deep_chain(monkeypatch):
    world = World(seed=5)
    member = world.enroll("user0")
    built = []
    init = BlockHeader.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockHeader, "__init__", counting_init)

    def headers_built_by_login_at(height: int) -> int:
        while world.ledger.height < height:
            world.ledger.seal_block()
        built.clear()
        assert world.auth(member).granted
        return len(built)

    shallow = headers_built_by_login_at(10)
    deep = headers_built_by_login_at(1000)
    assert deep <= shallow


def test_events_for_matches_filter_over_all_events():
    led = Ledger()
    reg_a, _ = led.deploy_registry("provider-a")
    reg_b, _ = led.deploy_registry("provider-b")
    led.seal_block()
    rng = random.Random(3)
    for step in range(40):
        registry = rng.choice((reg_a, reg_b))
        # Small OTP space: some writes are reuse, some name a missing prev.
        led.submit_insert_otp(registry, otp(rng.randrange(6)),
                              prev_otp=otp(rng.randrange(6)) if rng.random() < 0.3 else None)
        if rng.random() < 0.5:
            led.seal_block()
    led.seal_block()
    kinds = {e.kind for e in led.events}
    assert kinds == {EVENT_OTP_INSERTED, EVENT_MISUSE_ATTEMPT, EVENT_STATE_FAULT}
    for registry in (reg_a, reg_b):
        expected = [e for e in led.events if e.contract_address == registry.address]
        assert expected and led.events_for(registry.address) == expected
    assert led.events_for("0xnowhere") == []
    # A copy: callers cannot change the ledger's own record.
    led.events_for(reg_a.address).clear()
    assert led.events_for(reg_a.address)


def test_inclusion_proof_unknown_tx_errors():
    led, _ = fresh_ledger()
    with pytest.raises(LookupError):
        led.inclusion_proof(b"\x00" * 32)


def test_inclusion_proof_unsealed_tx_errors():
    led, contract = fresh_ledger()
    tx = led.submit_insert_otp(contract, otp(1))
    with pytest.raises(LookupError):
        led.inclusion_proof(tx.tx_id)


def test_chain_integrity_recomputable_from_raw_data():
    led, contract = fresh_ledger()
    for i in (1, 2, 3, 4, 5):
        led.submit_insert_otp(contract, otp(i))
        led.seal_block()
    parent = bytes(32)
    for block in led.blocks:
        assert block.parent_hash == parent
        assert block.tx_root == tx_root_over([t.tx_id for t in block.txs])
        for tx in block.txs:
            assert tx.tx_id == LedgerTx.compute_id(tx.canonical_bytes())
        parent = digest(
            pack_fields(b"blockhdr", be64(block.height), block.parent_hash, block.tx_root)
        )


def test_registry_size_counts_users_with_attempts():
    led, contract = fresh_ledger()
    # Model k users: each user's writes replace their own previous OTP.
    rng = random.Random(77)
    per_user_last: dict[int, bytes] = {}
    for step in range(30):
        user = rng.randrange(6)
        new = rng.randbytes(16)
        led.submit_insert_otp(contract, new, prev_otp=per_user_last.get(user))
        led.seal_block()
        per_user_last[user] = new
    assert contract.size == len(per_user_last)


def test_delayed_submission_lands_after_delay():
    led, contract = fresh_ledger()
    tx = led.submit_insert_otp(contract, otp(1), delay_blocks=2)
    b1 = led.seal_block()
    b2 = led.seal_block()
    assert tx.tx_id not in [t.tx_id for t in b1.txs + b2.txs]
    b3 = led.seal_block()
    assert tx.tx_id in [t.tx_id for t in b3.txs]
    assert tx.status == TX_SUCCESS


def test_payload_is_structurally_unlinkable():
    led, contract = fresh_ledger()
    tx = led.submit_insert_otp(contract, otp(3), prev_otp=None)
    led.seal_block()
    payload = tx.payload_bytes()
    # nothing but the tag, the contract address, and the OTP values
    assert payload.startswith(b"tx-insert-otp")
    expected = pack_fields(
        b"tx-insert-otp", contract.address.encode(), otp(3), b"\xff"
    )
    assert payload == expected
    assert b"did:" not in payload


def test_throughput_reference_profiles():
    assert max_auth_per_second(PROFILES["mainnet"], 48_000) == 52
    assert max_auth_per_second(PROFILES["consortium"], 48_000) == 562
    # sidechain value follows the same floor formula as every profile
    profile = PROFILES["sidechain"]
    expected = 20_000_000 // 48_000 // 2
    assert max_auth_per_second(profile, 48_000) == expected == 208


def test_throughput_degenerate_profile():
    assert max_auth_per_second(ChainProfile("unit", 48_000, 1.0), 48_000) == 1


def test_storage_arithmetic():
    assert state_storage_bytes(1_000_000, 16) == 16_000_000
    assert state_storage_bytes(0, 16) == 0
    assert state_storage_bytes(10, 16) == 160
    with pytest.raises(ValueError):
        state_storage_bytes(-1, 16)


def test_chain_profile_validation():
    with pytest.raises(ValueError):
        ChainProfile("bad", 0, 1.0)
    with pytest.raises(ValueError):
        ChainProfile("bad", 1, 0)


def test_dump_lines_are_canonical_json():
    led, contract = fresh_ledger()
    led.submit_insert_otp(contract, otp(1))
    led.seal_block()
    lines = led.dump_lines()
    assert len(lines) == led.height
    for line in lines:
        record = json.loads(line)
        assert json.dumps(record, sort_keys=True) == line
    last = json.loads(lines[-1])
    assert last["txs"][0]["status"] == "success"
    assert last["txs"][0]["gas_used"] == 48_000


def test_event_stream_shape_and_order():
    led, contract = fresh_ledger()
    led.submit_insert_otp(contract, otp(1))
    led.seal_block()
    led.submit_insert_otp(contract, otp(1))
    led.seal_block()
    events = led.events_for(contract.address)
    assert [e.kind for e in events] == [EVENT_OTP_INSERTED, EVENT_MISUSE_ATTEMPT]
    assert events[0].height < events[1].height
    assert all(e.contract_address == contract.address for e in events)


def test_submit_requires_deployed_contract():
    led = Ledger()
    stray = RegistryContract(address="0xnowhere")
    with pytest.raises(ValueError):
        led.submit_insert_otp(stray, otp(1))
