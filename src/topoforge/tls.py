"""Deterministic TLS material for the HTTPS generation option.

One self-signed authority plus a leaf certificate per service, signed with
the authority's own key.  Keys are Ed25519 derived from a seed, signatures
are deterministic, and validity bounds are fixed constants, so the emitted
PEM bytes are reproducible.
"""

from __future__ import annotations

import datetime
import hashlib
import ipaddress
from dataclasses import dataclass

from cryptography import x509
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.x509.oid import NameOID

NOT_BEFORE = datetime.datetime(2020, 1, 1, tzinfo=datetime.timezone.utc)
NOT_AFTER = datetime.datetime(2050, 1, 1, tzinfo=datetime.timezone.utc)


@dataclass(frozen=True)
class CertMaterial:
    cert_pem: bytes
    key_pem: bytes


def _derive_key(seed: int, label: str) -> Ed25519PrivateKey:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return Ed25519PrivateKey.from_private_bytes(digest)


def _serial(seed: int, label: str) -> int:
    return int.from_bytes(hashlib.sha256(f"serial:{seed}:{label}".encode()).digest()[:16], "big")


def _key_pem(key: Ed25519PrivateKey) -> bytes:
    return key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    )


@dataclass(frozen=True)
class Authority:
    """The self-signed certificate authority and the key it signs leaves with."""

    key: Ed25519PrivateKey
    cert: x509.Certificate

    @property
    def cert_pem(self) -> bytes:
        return self.cert.public_bytes(serialization.Encoding.PEM)


def generate_authority(seed: int = 0) -> Authority:
    key = _derive_key(seed, "authority")
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "topoforge-ca")])
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(_serial(seed, "authority"))
        .not_valid_before(NOT_BEFORE)
        .not_valid_after(NOT_AFTER)
        .add_extension(x509.BasicConstraints(ca=True, path_length=0), critical=True)
        .sign(key, algorithm=None)
    )
    return Authority(key, cert)


def generate_leaf(
    authority: Authority, name: str, addresses: list[str], seed: int = 0
) -> CertMaterial:
    key = _derive_key(seed, f"leaf:{name}")
    sans: list[x509.GeneralName] = [x509.DNSName(name)]
    for addr in addresses:
        sans.append(x509.IPAddress(ipaddress.ip_address(addr)))
    cert = (
        x509.CertificateBuilder()
        .subject_name(x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, name)]))
        .issuer_name(authority.cert.subject)
        .public_key(key.public_key())
        .serial_number(_serial(seed, f"leaf:{name}"))
        .not_valid_before(NOT_BEFORE)
        .not_valid_after(NOT_AFTER)
        .add_extension(x509.SubjectAlternativeName(sans), critical=False)
        .sign(authority.key, algorithm=None)
    )
    return CertMaterial(cert.public_bytes(serialization.Encoding.PEM), _key_pem(key))
