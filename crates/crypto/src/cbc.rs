//! DES-CBC with PKCS#5 padding: the metadata encryption UniDrive applies
//! before replicating SyncFolderImage to the clouds (paper §4).

use crate::{Des, Sha1};

/// Error from [`MetadataCipher::decrypt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecryptError {
    /// Ciphertext length is not a positive multiple of the block size.
    BadLength {
        /// Observed ciphertext length.
        len: usize,
    },
    /// The PKCS#5 padding is malformed (wrong key or corrupted data).
    BadPadding,
}

impl std::fmt::Display for DecryptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecryptError::BadLength { len } => {
                write!(f, "ciphertext length {len} is not a positive multiple of 8")
            }
            DecryptError::BadPadding => write!(f, "bad padding (wrong key or corrupt data)"),
        }
    }
}

impl std::error::Error for DecryptError {}

/// DES-CBC cipher with a key and IV derived from a passphrase.
///
/// Key derivation: `SHA-1(passphrase)` supplies the 8-byte DES key
/// (bytes 0..8) and the 8-byte IV seed (bytes 8..16). Every encryption
/// whitens the IV with a caller-supplied nonce so equal plaintexts do
/// not produce equal ciphertexts across metadata versions.
///
/// # Examples
///
/// ```
/// use unidrive_crypto::MetadataCipher;
///
/// let cipher = MetadataCipher::from_passphrase("correct horse");
/// let ct = cipher.encrypt(b"sync folder image v1", 42);
/// assert_eq!(cipher.decrypt(&ct).unwrap(), b"sync folder image v1");
/// assert!(MetadataCipher::from_passphrase("wrong").decrypt(&ct).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct MetadataCipher {
    des: Des,
    iv_seed: [u8; 8],
}

impl MetadataCipher {
    /// Derives the cipher from a passphrase.
    pub fn from_passphrase(passphrase: &str) -> Self {
        let digest = Sha1::digest(passphrase.as_bytes());
        let mut key = [0u8; 8];
        key.copy_from_slice(&digest.as_bytes()[..8]);
        let mut iv_seed = [0u8; 8];
        iv_seed.copy_from_slice(&digest.as_bytes()[8..16]);
        MetadataCipher {
            des: Des::new(key),
            iv_seed,
        }
    }

    /// Creates the cipher from raw key material.
    pub fn from_key(key: [u8; 8], iv_seed: [u8; 8]) -> Self {
        MetadataCipher {
            des: Des::new(key),
            iv_seed,
        }
    }

    fn iv_for(&self, nonce: u64) -> [u8; 8] {
        // Encrypt the nonce-whitened seed so the IV is unpredictable.
        let mut iv = self.iv_seed;
        let n = nonce.to_be_bytes();
        for i in 0..8 {
            iv[i] ^= n[i];
        }
        self.des.encrypt_block(iv)
    }

    /// Encrypts `plaintext` with PKCS#5 padding; the IV (derived from
    /// `nonce`) is prepended to the returned ciphertext.
    pub fn encrypt(&self, plaintext: &[u8], nonce: u64) -> Vec<u8> {
        let iv = self.iv_for(nonce);
        let pad = 8 - plaintext.len() % 8;
        let mut out = Vec::with_capacity(8 + plaintext.len() + pad);
        out.extend_from_slice(&iv);
        let mut prev = iv;
        let mut block = [0u8; 8];
        let mut chunks = plaintext.chunks_exact(8);
        for chunk in &mut chunks {
            block.copy_from_slice(chunk);
            for i in 0..8 {
                block[i] ^= prev[i];
            }
            prev = self.des.encrypt_block(block);
            out.extend_from_slice(&prev);
        }
        // Final (padded) block.
        let rest = chunks.remainder();
        block[..rest.len()].copy_from_slice(rest);
        for b in block.iter_mut().skip(rest.len()) {
            *b = pad as u8;
        }
        for i in 0..8 {
            block[i] ^= prev[i];
        }
        out.extend_from_slice(&self.des.encrypt_block(block));
        out
    }

    /// Decrypts ciphertext produced by [`encrypt`](MetadataCipher::encrypt).
    ///
    /// # Errors
    ///
    /// [`DecryptError`] on malformed length or padding (typically a wrong
    /// passphrase).
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, DecryptError> {
        if ciphertext.len() < 16 || !ciphertext.len().is_multiple_of(8) {
            return Err(DecryptError::BadLength {
                len: ciphertext.len(),
            });
        }
        let mut prev: [u8; 8] = ciphertext[..8].try_into().expect("8-byte IV");
        let mut out = Vec::with_capacity(ciphertext.len() - 8);
        for chunk in ciphertext[8..].chunks_exact(8) {
            let block: [u8; 8] = chunk.try_into().expect("8-byte block");
            let mut plain = self.des.decrypt_block(block);
            for i in 0..8 {
                plain[i] ^= prev[i];
            }
            out.extend_from_slice(&plain);
            prev = block;
        }
        let pad = *out.last().expect("non-empty plaintext") as usize;
        if pad == 0 || pad > 8 || out.len() < pad {
            return Err(DecryptError::BadPadding);
        }
        if out[out.len() - pad..].iter().any(|&b| b as usize != pad) {
            return Err(DecryptError::BadPadding);
        }
        out.truncate(out.len() - pad);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_lengths() {
        let c = MetadataCipher::from_passphrase("pw");
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            let ct = c.encrypt(&pt, len as u64);
            assert_eq!(c.decrypt(&ct).unwrap(), pt, "len {len}");
        }
    }

    /// One whole ciphertext, produced by the bit-at-a-time DES this
    /// crate shipped first: key and IV derivation, nonce whitening,
    /// chaining and padding cannot drift under a faster block function.
    #[test]
    fn golden_ciphertext_is_pinned() {
        let c = MetadataCipher::from_passphrase("golden passphrase");
        let pt: Vec<u8> = (0..1024u32).map(|i| (i.wrapping_mul(31) ^ (i >> 3)) as u8).collect();
        let ct = c.encrypt(&pt, 0x0123_4567_89AB_CDEF);
        assert_eq!(ct.len(), 1040);
        assert_eq!(
            ct[..16],
            [
                0x5d, 0x2e, 0x97, 0xf8, 0x39, 0xa2, 0xc4, 0x55, 0x84, 0x74, 0x0f, 0x29, 0xa0,
                0x65, 0x8d, 0x5a
            ]
        );
        assert_eq!(ct[1032..], [0xf3, 0xd5, 0x8e, 0x17, 0x12, 0x3e, 0x15, 0x1b]);
        assert_eq!(
            Sha1::digest(&ct).to_hex(),
            "285c90c8e5502d36a0807b2d9610232bba92ee4d"
        );
        assert_eq!(c.decrypt(&ct).unwrap(), pt);
    }

    #[test]
    fn nonce_randomizes_ciphertext() {
        let c = MetadataCipher::from_passphrase("pw");
        let a = c.encrypt(b"same plaintext", 1);
        let b = c.encrypt(b"same plaintext", 2);
        assert_ne!(a, b);
        assert_eq!(c.decrypt(&a).unwrap(), c.decrypt(&b).unwrap());
    }

    #[test]
    fn wrong_passphrase_fails() {
        let good = MetadataCipher::from_passphrase("right");
        let bad = MetadataCipher::from_passphrase("wrong");
        let ct = good.encrypt(b"secret metadata", 7);
        // Either bad padding, or (with probability 1/256 per try) padding
        // that happens to validate but yields different plaintext; this
        // fixed vector is known to fail padding.
        match bad.decrypt(&ct) {
            Err(DecryptError::BadPadding) => {}
            Ok(pt) => assert_ne!(pt, b"secret metadata"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn truncated_ciphertext_rejected() {
        let c = MetadataCipher::from_passphrase("pw");
        let ct = c.encrypt(b"0123456789", 1);
        assert!(matches!(
            c.decrypt(&ct[..ct.len() - 3]).unwrap_err(),
            DecryptError::BadLength { .. }
        ));
        assert!(matches!(
            c.decrypt(&ct[..8]).unwrap_err(),
            DecryptError::BadLength { .. }
        ));
    }

    #[test]
    fn ciphertext_hides_plaintext_structure() {
        let c = MetadataCipher::from_passphrase("pw");
        let pt = vec![0u8; 64]; // highly regular plaintext
        let ct = c.encrypt(&pt, 9);
        // CBC chaining: no two ciphertext blocks equal.
        let blocks: Vec<&[u8]> = ct.chunks(8).collect();
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                assert_ne!(blocks[i], blocks[j], "blocks {i} and {j} repeat");
            }
        }
    }

    #[test]
    fn from_key_round_trip() {
        let c = MetadataCipher::from_key([1, 2, 3, 4, 5, 6, 7, 8], [9; 8]);
        let ct = c.encrypt(b"x", 0);
        assert_eq!(c.decrypt(&ct).unwrap(), b"x");
    }
}
