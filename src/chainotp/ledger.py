"""Simulated single-node chain: blocks, gas metering, inclusion proofs,
and the per-provider registry contract of last-used OTPs.

Submitted transactions queue FIFO and execute when a block is sealed, in
chain order, so contract state transitions always match block order.
Rejected transactions stay in the block and consume gas (revert
semantics); the misuse event rides on the rejected transaction, making
the evidence itself part of the chain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import json
import math

from . import merkle
from .crypto import Digest, OtpValue, digest
from .wire import Reader, be64, pack_fields

DEPLOY_GAS = 292_000
INSERT_OTP_GAS = 48_000

TX_PENDING = "pending"
TX_SUCCESS = "success"
TX_REJECTED_REUSE = "rejected_reuse"
TX_REJECTED_STATE = "rejected_state"

EVENT_OTP_INSERTED = "otp_inserted"
EVENT_MISUSE_ATTEMPT = "misuse_attempt"
EVENT_STATE_FAULT = "state_fault"

_GENESIS_PARENT = bytes(32)
_EMPTY_TX_ROOT = digest(b"")


@dataclass(frozen=True)
class ChainProfile:
    name: str
    block_gas_limit: int
    block_interval_seconds: float

    def __post_init__(self) -> None:
        if self.block_gas_limit <= 0 or self.block_interval_seconds <= 0:
            raise ValueError("chain profile values must be positive")


# Reference profiles: a 30M-gas/12s public mainnet, a 20M-gas/2s sidechain,
# and a consortium chain whose measured 600 invocations/s at a 45k-gas
# reference call is modeled as a 27M gas-per-second budget.
PROFILES: dict[str, ChainProfile] = {
    "mainnet": ChainProfile("mainnet", 30_000_000, 12.0),
    "sidechain": ChainProfile("sidechain", 20_000_000, 2.0),
    "consortium": ChainProfile("consortium", 600 * 45_000, 1.0),
}


@dataclass
class LedgerTx:
    """One submitted operation. tx_id commits to the payload plus the
    transaction's position in the global submission order, so identical
    payloads still get distinct ids."""

    tx_id: Digest
    contract_address: str
    kind: str  # "deploy" | "insert_otp"
    new_otp: Optional[OtpValue]
    prev_otp: Optional[OtpValue]
    seq: int
    gas_used: int
    status: str = TX_PENDING
    block_height: Optional[int] = None

    def payload_bytes(self) -> bytes:
        # Deliberately contains no DID, public key, or session index:
        # registry traffic must not be linkable to a user identity.
        if self.kind == "deploy":
            return pack_fields(b"tx-deploy", self.contract_address.encode())
        return pack_fields(
            b"tx-insert-otp",
            self.contract_address.encode(),
            self.new_otp or b"",
            self.prev_otp if self.prev_otp is not None else b"\xff",
        )

    def canonical_bytes(self) -> bytes:
        return self.payload_bytes() + be64(self.seq)

    @classmethod
    def compute_id(cls, canonical: bytes) -> Digest:
        return digest(canonical)


@dataclass(frozen=True)
class BlockHeader:
    height: int
    parent_hash: Digest
    tx_root: Digest

    def hash(self) -> Digest:
        return digest(pack_fields(b"blockhdr", be64(self.height), self.parent_hash, self.tx_root))


@dataclass(frozen=True)
class LedgerBlock:
    height: int
    parent_hash: Digest
    tx_root: Digest
    txs: tuple[LedgerTx, ...]

    @property
    def header(self) -> BlockHeader:
        return BlockHeader(self.height, self.parent_hash, self.tx_root)


@dataclass(frozen=True)
class Event:
    height: int
    kind: str
    contract_address: str
    otp: OtpValue
    tx_id: Digest


@dataclass(frozen=True)
class InclusionProof:
    block_height: int
    merkle_proof: merkle.MerkleProof

    def to_bytes(self) -> bytes:
        return be64(self.block_height) + self.merkle_proof.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "InclusionProof":
        with Reader(data) as r:
            height = int.from_bytes(r.fixed(8), "big")
            return cls(block_height=height, merkle_proof=merkle.MerkleProof.read(r))


@dataclass
class RegistryContract:
    """Per-provider registry holding each user's last used OTP. Replace
    semantics keep exactly one entry per user with at least one attempt."""

    address: str
    last_used: set[OtpValue] = field(default_factory=set)
    deploy_gas: int = DEPLOY_GAS

    @property
    def size(self) -> int:
        return len(self.last_used)


def _pad_to_pow2(tx_ids: list[Digest]) -> list[Digest]:
    padded = list(tx_ids)
    target = 1 << max(1, (len(padded) - 1).bit_length())
    padded += [padded[-1]] * (target - len(padded))
    return padded


def tx_root_over(tx_ids: list[Digest]) -> Digest:
    """Merkle root of a block's tx ids, padded to a power of two by
    duplicating the last id."""
    if not tx_ids:
        return _EMPTY_TX_ROOT
    return merkle.build_tree(_pad_to_pow2(tx_ids)).root


class Ledger:
    """Serialized writer queue over FIFO-ordered blocks.

    Headers are stored as blocks are sealed and events are indexed by
    contract, so a login's reads neither rebuild nor scan the chain."""

    def __init__(self, profile: ChainProfile = PROFILES["mainnet"]) -> None:
        self.profile = profile
        self.blocks: list[LedgerBlock] = []
        self.events: list[Event] = []
        self.contracts: dict[str, RegistryContract] = {}
        self._headers: list[BlockHeader] = []  # _headers[h - 1] is at height h
        self._events_by_contract: dict[str, list[Event]] = {}
        self._pending: deque[LedgerTx] = deque()
        self._delayed: list[tuple[int, LedgerTx]] = []
        self._seq = 0
        self._tx_index: dict[Digest, LedgerTx] = {}
        # The tx tree of the block last proved: a block's proofs are asked
        # for together, and one tree bounds the memory to one block.
        self._proof_tree: Optional[tuple[int, merkle.MerkleTree]] = None

    @property
    def height(self) -> int:
        return len(self.blocks)

    def headers(self) -> tuple[BlockHeader, ...]:
        """Every header in height order: element h - 1 is at height h."""
        return tuple(self._headers)

    def pending_count(self) -> int:
        return len(self._pending) + len(self._delayed)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _enqueue(self, tx: LedgerTx, delay_blocks: int) -> None:
        if tx.gas_used > self.profile.block_gas_limit:
            raise ValueError("transaction exceeds block gas limit")
        self._tx_index[tx.tx_id] = tx
        if delay_blocks > 0:
            self._delayed.append((delay_blocks, tx))
        else:
            self._pending.append(tx)

    def deploy_registry(self, provider_id: str) -> tuple[RegistryContract, LedgerTx]:
        """Create a provider's empty registry; the deploy tx costs 292k gas."""
        seq = self._next_seq()
        address = "0x" + digest(pack_fields(b"contract", provider_id.encode(), be64(seq)))[:20].hex()
        tx = LedgerTx(
            tx_id=b"",
            contract_address=address,
            kind="deploy",
            new_otp=None,
            prev_otp=None,
            seq=seq,
            gas_used=DEPLOY_GAS,
        )
        tx.tx_id = LedgerTx.compute_id(tx.canonical_bytes())
        contract = RegistryContract(address=address)
        self.contracts[address] = contract
        self._enqueue(tx, delay_blocks=0)
        return contract, tx

    def submit_insert_otp(
        self,
        registry: RegistryContract,
        new_otp: OtpValue,
        prev_otp: Optional[OtpValue] = None,
        *,
        delay_blocks: int = 0,
    ) -> LedgerTx:
        """Queue an OTP write; contract logic runs when the tx is sealed.

        delay_blocks models an adversary postponing delivery: the tx only
        enters the pending queue after that many blocks have been sealed.
        """
        if registry.address not in self.contracts:
            raise ValueError(f"no contract deployed at {registry.address}")
        seq = self._next_seq()
        tx = LedgerTx(
            tx_id=b"",
            contract_address=registry.address,
            kind="insert_otp",
            new_otp=new_otp,
            prev_otp=prev_otp,
            seq=seq,
            gas_used=INSERT_OTP_GAS,
        )
        tx.tx_id = LedgerTx.compute_id(tx.canonical_bytes())
        self._enqueue(tx, delay_blocks=delay_blocks)
        return tx

    def _emit(self, kind: str, tx: LedgerTx, height: int) -> None:
        assert tx.new_otp is not None
        event = Event(height, kind, tx.contract_address, tx.new_otp, tx.tx_id)
        self.events.append(event)
        self._events_by_contract.setdefault(tx.contract_address, []).append(event)

    def _execute(self, tx: LedgerTx, height: int) -> None:
        if tx.kind == "deploy":
            tx.status = TX_SUCCESS
            return
        contract = self.contracts[tx.contract_address]
        assert tx.new_otp is not None
        if tx.new_otp in contract.last_used:
            tx.status = TX_REJECTED_REUSE
            self._emit(EVENT_MISUSE_ATTEMPT, tx, height)
            return
        if tx.prev_otp is not None and tx.prev_otp not in contract.last_used:
            # Provider bookkeeping fault, not an attack signal.
            tx.status = TX_REJECTED_STATE
            self._emit(EVENT_STATE_FAULT, tx, height)
            return
        if tx.prev_otp is not None:
            contract.last_used.discard(tx.prev_otp)
        contract.last_used.add(tx.new_otp)
        tx.status = TX_SUCCESS
        self._emit(EVENT_OTP_INSERTED, tx, height)

    def seal_block(self) -> LedgerBlock:
        """Seal the next block: take pending txs FIFO up to the gas limit
        (the rest spill to later blocks), execute them, chain the header."""
        height = self.height + 1
        included: list[LedgerTx] = []
        gas_total = 0
        while self._pending and gas_total + self._pending[0].gas_used <= self.profile.block_gas_limit:
            tx = self._pending.popleft()
            gas_total += tx.gas_used
            included.append(tx)

        for tx in included:
            self._execute(tx, height)
            tx.block_height = height

        parent = self._headers[-1].hash() if self._headers else _GENESIS_PARENT
        root = tx_root_over([tx.tx_id for tx in included])
        block = LedgerBlock(height=height, parent_hash=parent, tx_root=root, txs=tuple(included))
        self.blocks.append(block)
        self._headers.append(block.header)

        # Delayed deliveries become visible to the *next* seal.
        still_delayed: list[tuple[int, LedgerTx]] = []
        for remaining, tx in self._delayed:
            if remaining <= 1:
                self._pending.append(tx)
            else:
                still_delayed.append((remaining - 1, tx))
        self._delayed = still_delayed
        return block

    def inclusion_proof(self, tx_id: Digest) -> InclusionProof:
        tx = self._tx_index.get(tx_id)
        if tx is None or tx.block_height is None:
            raise LookupError("transaction not sealed in any block")
        tx_ids = [t.tx_id for t in self.blocks[tx.block_height - 1].txs]
        if self._proof_tree is None or self._proof_tree[0] != tx.block_height:
            self._proof_tree = (tx.block_height, merkle.build_tree(_pad_to_pow2(tx_ids)))
        tree = self._proof_tree[1]
        return InclusionProof(
            block_height=tx.block_height, merkle_proof=merkle.prove(tree, tx_ids.index(tx_id))
        )

    def events_for(self, contract_address: str) -> list[Event]:
        """The contract's events in chain order (a copy)."""
        return list(self._events_by_contract.get(contract_address, ()))

    def dump_lines(self) -> list[str]:
        """Line-delimited chain dump, one block per line, canonical field order."""
        lines = []
        for block in self.blocks:
            record = {
                "height": block.height,
                "parent_hash": block.parent_hash.hex(),
                "tx_root": block.tx_root.hex(),
                "txs": [
                    {
                        "tx_id": tx.tx_id.hex(),
                        "contract": tx.contract_address,
                        "kind": tx.kind,
                        "new_otp": tx.new_otp.hex() if tx.new_otp else None,
                        "prev_otp": tx.prev_otp.hex() if tx.prev_otp else None,
                        "gas_used": tx.gas_used,
                        "status": tx.status,
                    }
                    for tx in block.txs
                ],
            }
            lines.append(json.dumps(record, sort_keys=True))
        return lines


def light_verify(
    headers: Sequence[BlockHeader], tx: LedgerTx, proof: InclusionProof
) -> bool:
    """Check a tx against stored headers only: the proof path must reach the
    tx_root of the header at the claimed height.

    headers must be height-ordered from height 1, as Ledger.headers()
    returns them; a prefix of that is a shorter header store. The claimed
    height comes from the proof, so it is bounds-checked before the lookup.
    """
    height = proof.block_height
    if not 1 <= height <= len(headers):
        return False
    header = headers[height - 1]
    if header.height != height:
        return False
    return merkle.verify_proof(header.tx_root, tx.tx_id, proof.merkle_proof)


def max_auth_per_second(profile: ChainProfile, gas_per_auth: int) -> int:
    """floor(block gas limit / gas per authentication / block interval)."""
    if gas_per_auth <= 0:
        raise ValueError("gas_per_auth must be positive")
    return math.floor(profile.block_gas_limit / gas_per_auth / profile.block_interval_seconds)


def state_storage_bytes(num_users: int, otp_width: int) -> int:
    """State kept on chain: one OTP of otp_width bytes per user."""
    if num_users < 0 or otp_width <= 0:
        raise ValueError("num_users must be >= 0 and otp_width positive")
    return num_users * otp_width
