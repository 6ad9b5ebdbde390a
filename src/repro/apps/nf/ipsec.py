"""IPsec gateway network function (§5.7).

ESP tunnel-mode datapath: AES-256-CTR encryption + SHA-1 (HMAC)
authentication, both executed on the SmartNIC's crypto engines.  The
functional path really encrypts (a software CTR construction over
SHA-256 keystream blocks — the bytes round-trip correctly), while the
virtual-time cost comes from the accelerator models, which is what makes
the NIC competitive with FPGA implementations (8.6/22.9 Gbps on the
10/25GbE cards for 1KB packets).
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import Optional

from ...core import Actor, Message
from ...nic.cores import WorkloadProfile

IPSEC_PROFILE = WorkloadProfile("ipsec", 2.5, 1.1, 0.9)

ESP_HEADER_BYTES = 8      # SPI + sequence
ESP_IV_BYTES = 16
ESP_ICV_BYTES = 12        # truncated HMAC-SHA1


def _keystream(key: bytes, iv: bytes, length: int) -> bytes:
    """CTR keystream from a hash-based PRF (stand-in for the AES engine —
    the accelerator model charges the real AES cost)."""
    prefix = key + iv
    blocks = -(-length // hashlib.sha256().digest_size)
    return b"".join(hashlib.sha256(prefix + struct.pack(">Q", counter)).digest()
                    for counter in range(blocks))[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR an equally long ``stream``, as one integer operation."""
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


@dataclass
class EspPacket:
    spi: int
    sequence: int
    iv: bytes
    ciphertext: bytes
    icv: bytes

    @property
    def wire_bytes(self) -> int:
        return (ESP_HEADER_BYTES + len(self.iv) + len(self.ciphertext)
                + len(self.icv))


class IpsecGateway:
    """Encapsulate/decapsulate ESP with authenticated encryption."""

    def __init__(self, key: bytes = b"\x01" * 32, auth_key: bytes = b"\x02" * 20,
                 spi: int = 0x1001):
        if len(key) != 32:
            raise ValueError("AES-256 key must be 32 bytes")
        self.key = key
        self.auth_key = auth_key
        self.spi = spi
        self.sequence = 0
        self.encapsulated = 0
        self.decapsulated = 0
        self.auth_failures = 0
        self.replay_drops = 0
        self._highest_seen = 0

    def _icv(self, header: bytes, iv: bytes, ciphertext: bytes) -> bytes:
        mac = hmac.new(self.auth_key, header + iv + ciphertext, hashlib.sha1)
        return mac.digest()[:ESP_ICV_BYTES]

    def encapsulate(self, plaintext: bytes) -> EspPacket:
        self.sequence += 1
        iv = hashlib.sha256(struct.pack(">QI", self.sequence, self.spi)).digest()[:ESP_IV_BYTES]
        ciphertext = _xor(plaintext, _keystream(self.key, iv, len(plaintext)))
        header = struct.pack(">II", self.spi, self.sequence)
        icv = self._icv(header, iv, ciphertext)
        self.encapsulated += 1
        return EspPacket(spi=self.spi, sequence=self.sequence, iv=iv,
                         ciphertext=ciphertext, icv=icv)

    def decapsulate(self, packet: EspPacket) -> Optional[bytes]:
        """Plaintext, or None on authentication failure / replay."""
        header = struct.pack(">II", packet.spi, packet.sequence)
        expected = self._icv(header, packet.iv, packet.ciphertext)
        if not hmac.compare_digest(expected, packet.icv):
            self.auth_failures += 1
            return None
        if packet.sequence <= self._highest_seen:
            self.replay_drops += 1
            return None
        self._highest_seen = packet.sequence
        stream = _keystream(self.key, packet.iv, len(packet.ciphertext))
        self.decapsulated += 1
        return _xor(packet.ciphertext, stream)


class IpsecNode:
    """IPsec gateway as an iPipe actor using the AES + SHA-1 engines."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.gateway = IpsecGateway()
        self.actor = Actor("ipsec", self._handler, profile=IPSEC_PROFILE,
                           concurrent=True)
        runtime.register_actor(self.actor, steering_keys=["ipsec", "esp-pkt"])

    def _handler(self, actor: Actor, msg: Message, ctx):
        nbytes = max(len(msg.payload.get("data", b"")), 64)
        yield ctx.compute(profile=IPSEC_PROFILE)
        # crypto engines, batched (implication I4)
        yield from ctx.accelerator("aes", nbytes=nbytes, batch=8)
        yield from ctx.accelerator("sha1", nbytes=nbytes, batch=8)
        if msg.kind == "decap":
            plaintext = self.gateway.decapsulate(msg.payload["esp"])
            if msg.packet is not None:
                ctx.reply(msg, payload={"data": plaintext},
                          size=len(plaintext or b"") + 64)
        else:
            esp = self.gateway.encapsulate(msg.payload["data"])
            if msg.packet is not None:
                ctx.reply(msg, payload={"esp": esp}, size=esp.wire_bytes + 40)
