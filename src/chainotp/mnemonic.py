"""Word encoding for air-gapped transfer of seeds and OTP precursors.

Layout: 11 bits per word over a fixed 2048-word list. The payload is
followed by checksum bits taken from the front of its digest, one bit per
32 payload bits — 16-byte payloads become 12 words, 32-byte payloads 24.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .crypto import digest

PAYLOAD_LENGTHS = (16, 32)
_WORD_BITS = 11


class MnemonicError(ValueError):
    pass


class UnknownWordError(MnemonicError):
    pass


class WordCountError(MnemonicError):
    pass


class ChecksumError(MnemonicError):
    pass


def _load_wordlist() -> tuple[str, ...]:
    text = resources.files("chainotp").joinpath("data/wordlist.txt").read_text("ascii")
    words = tuple(text.split())
    if len(words) != 2048:
        raise RuntimeError(f"wordlist must have 2048 entries, found {len(words)}")
    return words


WORDLIST: tuple[str, ...] = _load_wordlist()
_WORD_INDEX = {w: i for i, w in enumerate(WORDLIST)}


@dataclass(frozen=True)
class Mnemonic:
    words: tuple[str, ...]

    def sentence(self) -> str:
        return " ".join(self.words)


def _checksum_bits(payload: bytes) -> int:
    return len(payload) * 8 // 32


def encode(payload: bytes) -> Mnemonic:
    """Encode a 16- or 32-byte payload as a word sequence with checksum."""
    if len(payload) not in PAYLOAD_LENGTHS:
        raise MnemonicError(f"payload must be 16 or 32 bytes, got {len(payload)}")
    cs_bits = _checksum_bits(payload)
    value = int.from_bytes(payload, "big")
    checksum = digest(payload)[0] >> (8 - cs_bits)
    value = (value << cs_bits) | checksum
    total_bits = len(payload) * 8 + cs_bits
    n_words = total_bits // _WORD_BITS
    indices = [(value >> (_WORD_BITS * (n_words - 1 - i))) & 0x7FF for i in range(n_words)]
    return Mnemonic(words=tuple(WORDLIST[i] for i in indices))


def decode(mnemonic: Mnemonic) -> bytes:
    """Recover the payload; raises a distinct error per failure mode."""
    n_words = len(mnemonic.words)
    if n_words not in (12, 24):
        raise WordCountError(f"expected 12 or 24 words, got {n_words}")
    value = 0
    for word in mnemonic.words:
        try:
            value = (value << _WORD_BITS) | _WORD_INDEX[word]
        except KeyError:
            raise UnknownWordError(f"word not in list: {word!r}") from None
    payload_len = 16 if n_words == 12 else 32
    cs_bits = _checksum_bits(bytes(payload_len))
    checksum = value & ((1 << cs_bits) - 1)
    payload = (value >> cs_bits).to_bytes(payload_len, "big")
    if digest(payload)[0] >> (8 - cs_bits) != checksum:
        raise ChecksumError("checksum mismatch")
    return payload
