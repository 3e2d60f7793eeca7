"""The three benchmark workloads: seeded inputs, set-up, and one operation.

Every workload is a closed loop: one process, one thread, one operation in
flight, on the mainnet profile with DEFAULT_CAPACITY OTPs per wallet. The
library is reached only through attributes of the ``chainotp`` package and
its modules, looked up at call time, so the span recorder in ``tracing.py``
sees every call the workloads make.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable

import chainotp as co
import chainotp.attack  # noqa: F401  (binds co.attack)
from chainotp.otp import DEFAULT_CAPACITY
from chainotp.protocol import AuthRequest1, AuthRequest2, ProtocolOutcome

PROFILE = co.PROFILES["mainnet"]

DEEP_CHAIN_HEIGHT = 10_000


@dataclass(frozen=True)
class Inputs:
    """Everything a workload derives from its seed before set-up."""

    library_seed: int  # seeds the RNG the library draws keys and OTP seeds from
    filler_otps: tuple[bytes, ...] = ()


@dataclass
class Account:
    user: co.User
    device: co.Authenticator
    wallet: co.ClientWallet


@dataclass
class World:
    ledger: co.Ledger
    provider: co.ServiceProvider
    accounts: list[Account]
    rng: random.Random


@dataclass
class Tally:
    """What the loop observed. Simulated counts repeat exactly per seed."""

    attempted: int = 0
    failed: int = 0
    granted: int = 0
    spilled_txs: int = 0
    detect_blocks: int = 0
    attacks_authenticated: int = 0
    attacks_detected: int = 0
    outcomes: Counter = field(default_factory=Counter)
    login_s: list[float] = field(default_factory=list)
    cycle_s: list[float] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    clock: Callable[[], float] = perf_counter  # times logins and cycles

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.violations) < 20:
                self.violations.append(what)


def _world(rng: random.Random, n_users: int, before_users: Callable[[co.Ledger], None]) -> World:
    ledger = co.Ledger(PROFILE)
    registry = co.DidRegistry()
    issuer = co.IdentityProvider(
        co.create_did(registry, "sim:main"), co.generate_keypair(rng), registry
    )
    provider = co.ServiceProvider(
        "provider", ledger, issuer.public_key, revocations_source=lambda: issuer.revocations
    )
    provider.deploy()
    before_users(ledger)
    accounts = []
    for i in range(n_users):
        user, device = co.User(f"user{i}"), co.Authenticator(f"user{i}-device", rng)
        boot = co.run_bootstrap(user, device, issuer, provider, ledger, n=DEFAULT_CAPACITY, rng=rng)
        if not boot.ok or boot.wallet is None:
            raise RuntimeError(f"bootstrap of user{i} failed: {boot.reason}")
        accounts.append(Account(user, device, boot.wallet))
    return World(ledger, provider, accounts, rng)


def _seal(ledger: co.Ledger) -> None:
    ledger.seal_block()


def _logged_in(world: World, logins: int) -> bool:
    """The registry holds one entry per user who has logged in."""
    assert world.provider.contract is not None
    return world.provider.contract.size == min(logins, len(world.accounts))


# -- deep-chain ---------------------------------------------------------------


def deep_chain_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    library_seed = rng.getrandbits(64)
    return Inputs(library_seed, tuple(rng.randbytes(16) for _ in range(DEEP_CHAIN_HEIGHT - 1)))


def deep_chain_setup(inputs: Inputs) -> World:
    def pre_grow(ledger: co.Ledger) -> None:
        # A second provider's registry fills the chain, one insert per block.
        filler, _ = ledger.deploy_registry("filler")
        ledger.seal_block()
        for otp in inputs.filler_otps:
            ledger.submit_insert_otp(filler, otp)
            ledger.seal_block()

    return _world(random.Random(inputs.library_seed), 8, pre_grow)


def deep_chain_op(world: World, i: int, tally: Tally) -> None:
    acct = world.accounts[i % len(world.accounts)]
    counter, height = acct.wallet.session_counter, world.ledger.height
    start = tally.clock()
    outcome = co.run_authentication(acct.user, acct.device, acct.wallet, world.provider, world.ledger)
    tally.login_s.append(tally.clock() - start)
    tally.outcomes[outcome.kind] += 1
    tally.granted += outcome.granted
    tally.spilled_txs += world.ledger.height - height > 1
    tally.check(
        outcome.granted
        and acct.wallet.session_counter == counter + 1
        and _logged_in(world, i + 1),
        f"login {i}: {outcome.kind} {outcome.reason}",
    )


# -- full-blocks --------------------------------------------------------------


def seed_only_inputs(seed: int) -> Inputs:
    return Inputs(random.Random(seed).getrandbits(64))


def full_blocks_setup(inputs: Inputs) -> World:
    return _world(random.Random(inputs.library_seed), 1250, _seal)


def full_blocks_op(world: World, i: int, tally: Tally) -> None:
    """One burst: admit every user, seal until nothing is pending, then
    finish every session with the checks run_authentication makes."""
    ledger, provider = world.ledger, world.provider
    admitted = []
    for acct in world.accounts:
        start = tally.clock()
        wallet = acct.wallet
        index, otp, proof = wallet.next_auth_material()
        req1 = AuthRequest1(did=wallet.did, index=index, otp=otp, proof=proof, signature=b"")
        req1 = replace(req1, signature=co.sign(wallet.keypair.secret_key, req1.body()))
        wallet.mark_attempt(index)
        session = provider.handle_request1(AuthRequest1.from_bytes(req1.to_bytes()))
        if isinstance(session, ProtocolOutcome):
            tally.outcomes[session.kind] += 1
            tally.check(False, f"round {i} {acct.user.name}: {session.reason}")
            continue
        admitted.append((acct, index, otp, session, start))

    first_block = ledger.height + 1
    while ledger.pending_count():
        ledger.seal_block()

    for acct, index, otp, session, start in admitted:
        wallet, tx = acct.wallet, session.tx
        outcome = provider.finalize_publication(session)
        if outcome is None:
            inclusion = ledger.inclusion_proof(tx.tx_id)
            if tx.kind == "insert_otp" and tx.new_otp == otp and co.light_verify(
                ledger.headers(), tx, inclusion
            ):
                reveal = acct.device.reveal(index)
                precursor = co.mnemonic.decode(reveal.encoding)
                req2 = AuthRequest2(
                    did=wallet.did, tx_canonical=tx.canonical_bytes(), inclusion=inclusion,
                    precursor=precursor, signature=b"",
                )
                req2 = replace(req2, signature=co.sign(wallet.keypair.secret_key, req2.body()))
                outcome = provider.handle_request2(AuthRequest2.from_bytes(req2.to_bytes()))
                if outcome.granted:
                    wallet.confirm_session_success()
            else:
                outcome = ProtocolOutcome(co.ABORTED_INVALID, 9, "step 9: light verification failed")
        tally.login_s.append(tally.clock() - start)
        tally.outcomes[outcome.kind] += 1
        tally.granted += outcome.granted
        tally.spilled_txs += tx.block_height != first_block
        tally.check(
            outcome.granted and wallet.session_counter == index + 1,
            f"round {i} {acct.user.name}: {outcome.kind} {outcome.reason}",
        )
    tally.check(_logged_in(world, len(world.accounts)), f"round {i}: registry size")


# -- misuse-churn -------------------------------------------------------------


def misuse_churn_setup(inputs: Inputs) -> World:
    return _world(random.Random(inputs.library_seed), 64, _seal)


def misuse_churn_op(world: World, i: int, tally: Tally) -> None:
    """attack -> check -> rekey -> re-login, on user i mod 64."""
    ledger, provider = world.ledger, world.provider
    assert provider.contract is not None
    acct = world.accounts[i % len(world.accounts)]
    height = ledger.height
    start = tally.clock()

    attack = co.attack.attack_stolen_client_secrets(acct.wallet, provider, ledger)
    tally.attacks_authenticated += attack.authenticated
    tally.attacks_detected += attack.detected
    tally.check(not attack.authenticated and attack.detected, f"cycle {i}: attack {attack.note}")

    evidence = co.check_misuse(acct.wallet, ledger, provider.contract)
    detect = evidence.block_height - height if evidence is not None else None
    tally.detect_blocks = max(tally.detect_blocks, detect or 0)
    tally.check(detect == 1, f"cycle {i}: detected after {detect} blocks")

    rekey = co.reinitialize(
        acct.user, acct.device, provider, ledger, mode="rekey_signed_by_old",
        n=DEFAULT_CAPACITY, rng=world.rng, old_wallet=acct.wallet,
    )
    tally.check(rekey.ok and rekey.wallet is not None, f"cycle {i}: rekey {rekey.reason}")
    if rekey.wallet is None:
        return
    acct.wallet = rekey.wallet

    relogin = tally.clock()
    height = ledger.height
    outcome = co.run_authentication(acct.user, acct.device, acct.wallet, provider, ledger)
    end = tally.clock()
    tally.login_s.append(end - relogin)
    tally.cycle_s.append(end - start)
    tally.outcomes[outcome.kind] += 1
    tally.granted += outcome.granted
    tally.spilled_txs += ledger.height - height > 1
    tally.check(
        outcome.granted and acct.wallet.session_counter == 2,
        f"cycle {i}: re-login {outcome.kind} {outcome.reason}",
    )


@dataclass(frozen=True)
class Workload:
    """A run repeats epochs of ``epoch_ops`` operations. Rebuilt worlds come
    from the same inputs, so every epoch of such a workload is the same
    simulated work and only its host time varies."""

    name: str
    make_inputs: Callable[[int], Inputs]
    setup: Callable[[Inputs], World]
    op: Callable[[World, int, Tally], None]
    epoch_ops: int
    rebuild_each_epoch: bool  # False where set-up costs more than an epoch


WORKLOADS = {
    w.name: w
    for w in (
        # 8 logins per user, so the chain stays within 64 blocks of 10^4.
        Workload("deep-chain", deep_chain_inputs, deep_chain_setup, deep_chain_op,
                 epoch_ops=64, rebuild_each_epoch=True),
        # One burst per epoch; the chain grows two blocks per burst.
        Workload("full-blocks", seed_only_inputs, full_blocks_setup, full_blocks_op,
                 epoch_ops=1, rebuild_each_epoch=False),
        # Two cycles per user; rebuilding keeps the chain shallow, where
        # otherwise headers() would come to dominate as it grows.
        Workload("misuse-churn", seed_only_inputs, misuse_churn_setup, misuse_churn_op,
                 epoch_ops=128, rebuild_each_epoch=True),
    )
}
