"""Full binary Merkle tree with self-contained membership proofs.

Leaves are hashed once at the leaf level (digest(data)), internal nodes
hash the concatenation of their children, so leaf data can never be
confused with an internal node. Proof entries carry an explicit side flag
rather than deriving sides from the index, which keeps verification
independent of the prover.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from .crypto import DIGEST_LEN, Digest, digest
from .wire import Reader, u32le

_MAGIC = b"MKT1"
_VERSION = 1
_ENTRY = struct.Struct(f"?{DIGEST_LEN}s")  # side flag, sibling digest


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class MerkleProof:
    """Sibling path from leaf to root; is_left marks siblings on the left."""

    leaf_index: int
    siblings: tuple[tuple[Digest, bool], ...]

    def to_bytes(self) -> bytes:
        out = [u32le(self.leaf_index), u32le(len(self.siblings))]
        for node, is_left in self.siblings:
            out.append(b"\x01" if is_left else b"\x00")
            out.append(node)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MerkleProof":
        with Reader(data) as r:
            return cls.read(r)

    @classmethod
    def read(cls, r: Reader) -> "MerkleProof":
        """Read a proof that sits unframed inside a larger value."""
        leaf_index = r.u32()
        count = r.u32()
        path = r.fixed(count * _ENTRY.size)
        if path[::_ENTRY.size].strip(b"\x00\x01"):
            raise ValueError("proof side flag must be 0x00 or 0x01")
        siblings = [(node, is_left) for is_left, node in _ENTRY.iter_unpack(path)]
        return cls(leaf_index=leaf_index, siblings=tuple(siblings))


@dataclass(frozen=True)
class MerkleTree:
    """Complete tree in heap order: nodes[0] is the root, leaf i sits at
    nodes[leaf_count - 1 + i]."""

    leaf_count: int
    nodes: tuple[Digest, ...]

    @property
    def root(self) -> Digest:
        return self.nodes[0]

    def to_bytes(self) -> bytes:
        header = _MAGIC + bytes([_VERSION]) + u32le(self.leaf_count)
        return header + b"".join(self.nodes)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MerkleTree":
        with Reader(data, _MAGIC + bytes([_VERSION])) as r:
            leaf_count = r.u32()
            return cls(leaf_count=leaf_count, nodes=r.array(2 * leaf_count - 1, DIGEST_LEN))


def build_tree(leaves: Sequence[bytes]) -> MerkleTree:
    """Build the complete tree over a power-of-two number of data leaves."""
    n = len(leaves)
    if not _is_power_of_two(n) or n < 2:
        raise ValueError(f"leaf count must be a power of two >= 2, got {n}")
    nodes: list[Digest] = [b""] * (2 * n - 1)
    for i, leaf in enumerate(leaves):
        nodes[n - 1 + i] = digest(leaf)
    for k in range(n - 2, -1, -1):
        nodes[k] = digest(nodes[2 * k + 1] + nodes[2 * k + 2])
    return MerkleTree(leaf_count=n, nodes=tuple(nodes))


def prove(tree: MerkleTree, leaf_index: int) -> MerkleProof:
    if not 0 <= leaf_index < tree.leaf_count:
        raise IndexError(f"leaf index {leaf_index} out of range 0..{tree.leaf_count - 1}")
    siblings = []
    k = tree.leaf_count - 1 + leaf_index
    while k > 0:
        if k % 2 == 1:  # left child; sibling on the right
            siblings.append((tree.nodes[k + 1], False))
        else:
            siblings.append((tree.nodes[k - 1], True))
        k = (k - 1) // 2
    return MerkleProof(leaf_index=leaf_index, siblings=tuple(siblings))


def verify_proof(root: Digest, leaf: bytes, proof: MerkleProof) -> bool:
    """Recompute the root from the leaf along the proof path and compare."""
    current = digest(leaf)
    for node, is_left in proof.siblings:
        if len(node) != DIGEST_LEN:
            return False
        current = digest(node + current) if is_left else digest(current + node)
    return current == root
