//! Enrollment authentication: SHA-256, HMAC-SHA256, and handshake
//! nonces.
//!
//! The enrollment handshake (see [`crate::transport`]) authenticates
//! both ends of a new connection with an HMAC challenge/response over a
//! **shared fleet secret** ([`crate::config::Config::fleet_secret`],
//! `MWP_FLEET_SECRET` in the environment): the master opens with a
//! challenge nonce, the worker's hello carries an HMAC over that nonce
//! and every field it asserts, and the master's welcome answers with an
//! HMAC over the worker's nonce — so neither a replayed hello nor a
//! spoofed master survives the handshake.
//!
//! The primitives are implemented here directly (FIPS 180-4 SHA-256,
//! RFC 2104 HMAC) because the workspace builds fully offline against
//! local shims — there is no crypto crate to depend on. They are used
//! for *authentication tags on a trusted-code path*, not for bulk or
//! adversarial-performance cryptography, which keeps a straightforward
//! implementation appropriate; the test vectors below pin it to the
//! published standards.

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 (FIPS 180-4). Feed bytes with [`Sha256::update`],
/// close with [`Sha256::finish`].
pub struct Sha256 {
    state: [u32; 8],
    /// Unprocessed tail of the input (always < 64 bytes).
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// The initial hash state (FIPS 180-4 §5.3.3).
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total = self.total.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if rest.is_empty() {
                // All of `data` was absorbed into the buffer; falling
                // through would clobber `buf_len` with `rest.len()`.
                return self;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            self.compress(block.try_into().expect("64-byte split"));
            rest = tail;
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
        self
    }

    /// Close the hash: append the `1` bit, zero padding, and the 64-bit
    /// message length, and return the digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0, "padding ends on a block boundary");
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One compression round over a 64-byte block (FIPS 180-4 §6.2.2).
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

/// HMAC-SHA256 (RFC 2104): `H((K' ^ opad) || H((K' ^ ipad) || msg))`,
/// where `msg` is the concatenation of `parts` — callers pass the MAC
/// input as separate length-delimited fields without concatenating.
pub fn hmac_sha256(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    let ipad: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
    inner.update(&ipad);
    for part in parts {
        inner.update(part);
    }
    let inner_digest = inner.finish();
    let mut outer = Sha256::new();
    let opad: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finish()
}

/// Constant-time tag comparison: the time never depends on *where* the
/// tags differ, so a byte-at-a-time forgery can't be walked in.
pub fn macs_equal(a: &[u8; 32], b: &[u8; 32]) -> bool {
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// A process-unique 16-byte handshake nonce. Uniqueness — not secrecy —
/// is what the handshake needs from it (the MACs rest on the fleet
/// secret): wall clock, pid, a per-process counter, and an ASLR-shifted
/// address are hashed so two fleet members, or two enrollments of one
/// member, never reuse a challenge.
pub fn fresh_nonce() -> [u8; 16] {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let stack_probe = 0u8;
    let mut h = Sha256::new();
    h.update(&now.to_le_bytes())
        .update(&u64::from(std::process::id()).to_le_bytes())
        .update(&COUNTER.fetch_add(1, Ordering::Relaxed).to_le_bytes())
        .update(&(&stack_probe as *const u8 as usize as u64).to_le_bytes());
    let digest = h.finish();
    digest[..16].try_into().expect("32-byte digest has a 16-byte prefix")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-4 / NIST example vectors.
    #[test]
    fn sha256_matches_the_published_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // One million 'a's: exercises many blocks through the buffered path.
        let mut h = Sha256::new();
        for _ in 0..10_000 {
            h.update(&[b'a'; 100]);
        }
        assert_eq!(
            hex(&h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Split updates must hash identically to one-shot input, at every
    /// split point around the 64-byte block boundary.
    #[test]
    fn incremental_updates_match_one_shot() {
        let data: Vec<u8> = (0..200u8).collect();
        let expect = sha256(&data);
        for split in [0, 1, 63, 64, 65, 127, 128, 199] {
            let mut h = Sha256::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finish(), expect, "split at {split}");
        }
    }

    /// RFC 4231 HMAC-SHA256 test cases 1, 2, 6 (short key, "Jefe", and
    /// a key longer than one block, which takes the hashed-key path).
    #[test]
    fn hmac_sha256_matches_rfc_4231() {
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], &[b"Hi There"])),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", &[b"what do ya want ", b"for nothing?"])),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        assert_eq!(
            hex(&hmac_sha256(&[0xaa; 131], &[b"Test Using Larger Than Block-Size Key - Hash Key First"])),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn multi_part_mac_equals_concatenated_mac() {
        let key = b"fleet-secret";
        let whole = hmac_sha256(key, &[b"abcdef"]);
        let parts = hmac_sha256(key, &[b"ab", b"", b"cd", b"ef"]);
        assert_eq!(whole, parts);
    }

    #[test]
    fn mac_comparison_detects_any_difference() {
        let a = hmac_sha256(b"k", &[b"m"]);
        assert!(macs_equal(&a, &a.clone()));
        for flip in [0, 15, 31] {
            let mut b = a;
            b[flip] ^= 1;
            assert!(!macs_equal(&a, &b), "flip at byte {flip}");
        }
    }

    #[test]
    fn nonces_do_not_repeat_within_a_process() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(fresh_nonce()), "nonce repeated");
        }
    }
}
