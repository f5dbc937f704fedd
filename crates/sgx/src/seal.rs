//! Sealing: encrypting data to an enclave identity.
//!
//! Real SGX derives a sealing key from the enclave measurement and the
//! platform's fuse keys; we derive it the same way from the simulated
//! platform key. The cipher is a SHA-256-based stream cipher with an
//! encrypt-then-MAC tag — not production cryptography, but it provides
//! the confidentiality + integrity contract the AccTEE protocol needs
//! within the simulation.

use crate::crypto::{digest_eq, Digest, HmacKey};
use crate::enclave::Enclave;

/// A sealed blob: nonce, ciphertext and integrity tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed {
    /// Per-seal nonce.
    pub nonce: [u8; 16],
    /// The encrypted payload.
    pub ciphertext: Vec<u8>,
    /// MAC over nonce || ciphertext.
    pub tag: Digest,
}

/// The two keys derived from an enclave's sealing key, prepared once
/// per seal or unseal.
struct SealKeys {
    enc: HmacKey,
    mac: HmacKey,
}

impl SealKeys {
    fn of(enclave: &Enclave) -> SealKeys {
        let sk = HmacKey::new(&enclave.seal_key());
        SealKeys {
            enc: HmacKey::new(&sk.mac(&[b"seal-enc"])),
            mac: HmacKey::new(&sk.mac(&[b"seal-mac"])),
        }
    }

    /// XORs `data` with the keystream HMAC(enc, nonce || counter).
    fn apply_keystream(&self, nonce: &[u8; 16], data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(32).enumerate() {
            let ks = self.enc.mac(&[nonce, &(i as u64).to_le_bytes()]);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    fn tag(&self, nonce: &[u8; 16], ciphertext: &[u8]) -> Digest {
        self.mac.mac(&[nonce, ciphertext])
    }
}

/// Seals `data` to `enclave`'s identity. The nonce must be unique per
/// seal; the caller supplies it (deterministic tests pass fixed
/// nonces, production embedders pass fresh randomness).
pub fn seal(enclave: &Enclave, nonce: [u8; 16], data: &[u8]) -> Sealed {
    let keys = SealKeys::of(enclave);
    let mut ciphertext = data.to_vec();
    keys.apply_keystream(&nonce, &mut ciphertext);
    let tag = keys.tag(&nonce, &ciphertext);
    Sealed {
        nonce,
        ciphertext,
        tag,
    }
}

/// Unseals a blob; fails if the blob was not sealed to this enclave's
/// identity or was tampered with.
///
/// # Errors
///
/// Returns `Err(())`-like `None` when the tag does not verify.
pub fn unseal(enclave: &Enclave, sealed: &Sealed) -> Option<Vec<u8>> {
    let keys = SealKeys::of(enclave);
    let expected = keys.tag(&sealed.nonce, &sealed.ciphertext);
    if !digest_eq(&expected, &sealed.tag) {
        return None;
    }
    let mut plain = sealed.ciphertext.clone();
    keys.apply_keystream(&sealed.nonce, &mut plain);
    Some(plain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::Platform;

    #[test]
    fn seal_round_trip() {
        let p = Platform::new("p", 1);
        let e = p.create_enclave(b"code");
        let sealed = seal(&e, [7; 16], b"secret weights table");
        assert_ne!(sealed.ciphertext, b"secret weights table");
        assert_eq!(unseal(&e, &sealed).unwrap(), b"secret weights table");
    }

    #[test]
    fn other_enclave_cannot_unseal() {
        let p = Platform::new("p", 1);
        let e1 = p.create_enclave(b"code-a");
        let e2 = p.create_enclave(b"code-b");
        let sealed = seal(&e1, [7; 16], b"secret");
        assert!(unseal(&e2, &sealed).is_none());
    }

    #[test]
    fn other_platform_cannot_unseal() {
        let e1 = Platform::new("p1", 1).create_enclave(b"code");
        let e2 = Platform::new("p2", 2).create_enclave(b"code");
        let sealed = seal(&e1, [7; 16], b"secret");
        assert!(unseal(&e2, &sealed).is_none());
    }

    #[test]
    fn tampering_detected() {
        let p = Platform::new("p", 1);
        let e = p.create_enclave(b"code");
        let mut sealed = seal(&e, [7; 16], b"secret");
        sealed.ciphertext[0] ^= 1;
        assert!(unseal(&e, &sealed).is_none());
        let mut sealed2 = seal(&e, [7; 16], b"secret");
        sealed2.nonce[0] ^= 1;
        assert!(unseal(&e, &sealed2).is_none());
    }

    #[test]
    fn large_payloads_and_empty_payloads() {
        let p = Platform::new("p", 1);
        let e = p.create_enclave(b"code");
        let big: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(unseal(&e, &seal(&e, [1; 16], &big)).unwrap(), big);
        assert_eq!(unseal(&e, &seal(&e, [2; 16], b"")).unwrap(), b"");
    }
}
