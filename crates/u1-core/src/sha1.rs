//! A small, dependency-free SHA-1 implementation (FIPS 180-1).
//!
//! The U1 desktop client hashes every file with SHA-1 before uploading so the
//! back-end can perform file-level cross-user deduplication (§3.3 of the
//! paper). SHA-1 is cryptographically broken for collision resistance, but we
//! reproduce the system as it was; the hash is used here purely as a content
//! identity, exactly as U1 used it.

use crate::id::ContentHash;

/// Streaming SHA-1 hasher.
///
/// ```
/// use u1_core::sha1::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "a9993e364706816aba3e25717850c26c9cd0d89d"
/// );
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Self {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// One-shot digest of a byte slice.
    pub fn digest(data: &[u8]) -> ContentHash {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks {
            self.compress(block);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Completes the hash and returns the 160-bit digest.
    pub fn finalize(mut self) -> ContentHash {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros up to byte 56 of a block, then the 64-bit
        // big-endian bit length. `buf_len < 64` always holds here, and when
        // fewer than 9 bytes are left the length spills into a second block.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 20];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        ContentHash::new(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        // The message schedule as a ring of 16 words: round `i >= 16`
        // overwrites `w[i % 16]`, which held `w[i - 16]`, with `w[i]`.
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        let mut s = self.state;
        for i in 0..20 {
            let [_, b, c, d, _] = s;
            s = round(
                s,
                (d ^ (b & (c ^ d))).wrapping_add(0x5A82_7999),
                word(&mut w, i),
            );
        }
        for i in 20..40 {
            let [_, b, c, d, _] = s;
            s = round(s, (b ^ c ^ d).wrapping_add(0x6ED9_EBA1), word(&mut w, i));
        }
        for i in 40..60 {
            let [_, b, c, d, _] = s;
            s = round(
                s,
                ((b & c) | (d & (b | c))).wrapping_add(0x8F1B_BCDC),
                word(&mut w, i),
            );
        }
        for i in 60..80 {
            let [_, b, c, d, _] = s;
            s = round(s, (b ^ c ^ d).wrapping_add(0xCA62_C1D6), word(&mut w, i));
        }
        for (h, x) in self.state.iter_mut().zip(s) {
            *h = h.wrapping_add(x);
        }
    }
}

/// Schedule word `i` of the current block, computed in place from the ring.
#[inline(always)]
fn word(w: &mut [u32; 16], i: usize) -> u32 {
    if i < 16 {
        return w[i];
    }
    let x = (w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15]).rotate_left(1);
    w[i & 15] = x;
    x
}

/// One SHA-1 round on `[a, b, c, d, e]`, given the round's `f + k`.
#[inline(always)]
fn round([a, b, c, d, e]: [u32; 5], fk: u32, w: u32) -> [u32; 5] {
    let t = a
        .rotate_left(5)
        .wrapping_add(fk)
        .wrapping_add(e)
        .wrapping_add(w);
    [t, a, b.rotate_left(30), c, d]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        Sha1::digest(data).to_hex()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_one_shot_at_odd_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = Sha1::digest(&data);
        for split in [1usize, 7, 63, 64, 65, 127, 500, 999] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn lengths_around_block_boundary() {
        // Expected digests from Python's `hashlib.sha1(b"\x5a" * n)`: each
        // length puts the padding's 0x80 and the bit length at a different
        // place relative to a block boundary.
        for (len, want) in [
            (55, "55b80d96c523566d3c8a3b8de03a5549fd04915c"),
            (56, "bfe3466cd0dcd5e29b11e7885010fa7c61b737a6"),
            (63, "7db05d8e931f0a6731328e4923fbda65ced2f5db"),
            (64, "eece723b8a411e8c53e7bf49514234da5d394236"),
            (65, "f9619e0496c7fbeff2f2b4f3f93ed379329fe7d6"),
            (119, "791fa3ef300032b7b8efab39b22dead4327cba55"),
            (120, "856ffb270b6b9340b620653753dfc5bafaff0a1f"),
        ] {
            assert_eq!(hex(&vec![0x5au8; len]), want, "len {len}");
        }
    }

    #[test]
    fn content_ids_hash_their_big_endian_bytes() {
        // Expected: `hashlib.sha1(struct.pack(">Q", id))`.
        for (id, want) in [
            (0, "05fe405753166f125559e7c9ac558654f107c7e9"),
            (1, "cb473678976f425d6ec1339838f11011007ad27d"),
            (1 << 32, "aa38f215908cd7aafcf9f8ba28ad78f24c4405bf"),
            (u64::MAX, "be673e8a56eaa9d8c1d35064866701c11ef8e089"),
        ] {
            assert_eq!(ContentHash::from_content_id(id).to_hex(), want, "id {id}");
        }
    }
}
