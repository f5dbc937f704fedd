//! From-scratch cryptographic primitives: SHA-256 and HMAC-SHA-256.
//!
//! No cryptography crate is on the approved dependency list, so the
//! simulation implements FIPS 180-4 SHA-256 directly (validated against
//! the NIST test vectors in the unit tests) and builds HMAC (RFC 2104)
//! and a keyed signature scheme on top. Within the simulation the MACs
//! are unforgeable without the key, which is the property the
//! attestation protocol relies on. Every usage log is signed and
//! checked, so compression runs on the CPU's SHA extensions where it
//! has them and on a portable kernel elsewhere, and long-lived HMAC
//! keys keep their padded-key midstates ([`HmacKey`]).

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte digest.
pub type Digest = [u8; DIGEST_LEN];

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

/// Initial hash value (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A SHA-256 compression kernel. Both compute the same function; the
/// SHA-NI one is picked at run time when the CPU has the `sha`
/// extension, and the portable one runs everywhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Portable,
    /// Only ever constructed by [`Kernel::detect`] after the CPU was
    /// checked for every feature [`shani::compress`] enables.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return Kernel::ShaNi;
        }
        Kernel::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => "sha-ni",
        }
    }

    fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        match self {
            Kernel::Portable => compress(state, blocks),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `ShaNi` is only constructed by `detect`, which
            // checked that the CPU supports sha, sse2, ssse3 and
            // sse4.1 — every feature the kernel is compiled with.
            Kernel::ShaNi => unsafe { shani::compress(state, blocks) },
        }
    }
}

/// The SHA-256 compression kernel this process uses: `"sha-ni"` when
/// the CPU has the SHA extensions, `"portable"` otherwise. Exported by
/// the serving node so a slow fallback is visible, not silent.
pub fn sha256_kernel() -> &'static str {
    Kernel::detect().name()
}

/// An incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    kernel: Kernel,
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256::with_kernel(Kernel::detect())
    }

    fn with_kernel(kernel: Kernel) -> Sha256 {
        Sha256 {
            kernel,
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return self;
            }
            self.kernel
                .compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        if !blocks.is_empty() {
            self.kernel.compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
        self
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Pad in place: 0x80, zeros up to byte 56 of the last block
        // (spilling into one more block when fewer than 9 bytes are
        // left), then the message length in bits, big-endian.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            self.kernel
                .compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.kernel
            .compress(&mut self.state, std::slice::from_ref(&self.buf));
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// The portable SHA-256 compression function (FIPS 180-4 §6.2.2),
/// applied to each block in turn.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA extensions kernel: `sha256rnds2` runs two rounds per
/// instruction on the state split into ABEF/CDGH halves, and
/// `sha256msg1`/`sha256msg2` extend the message schedule four words
/// at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;

    use super::K;

    /// Four rounds: message words `$w` plus round constants
    /// K[4i..4i+4], two rounds per `sha256rnds2`.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            // SAFETY: `$i < 16`, so the 16-byte load reads
            // K[4i..4i+4] inside the 64-entry table; loadu has no
            // alignment requirement.
            let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $i).cast()) };
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }

    /// Replaces the oldest word group `$w0` (W[t-16..t-12]) with
    /// W[t..t+4], then runs its four rounds.
    macro_rules! schedule_rounds4 {
        ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
            let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
            $w0 = _mm_sha256msg2_epu32(t, $w3);
            rounds4!($abef, $cdgh, $w0, $i);
        }};
    }

    /// Compresses `blocks` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1`
    /// features.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Reverses the bytes of each 32-bit lane (big-endian words).
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let sp = state.as_mut_ptr().cast::<__m128i>();
        // SAFETY: `state` is 32 bytes, read as two 16-byte halves.
        let (dcba, hgfe) = unsafe { (_mm_loadu_si128(sp), _mm_loadu_si128(sp.add(1))) };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let bp = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is 64 bytes, read as four 16-byte words.
            let (mut w0, mut w1, mut w2, mut w3) = unsafe {
                (
                    _mm_shuffle_epi8(_mm_loadu_si128(bp), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(bp.add(1)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(bp.add(2)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(bp.add(3)), bswap),
                )
            };
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 4);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 5);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 6);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 7);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 8);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 9);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 10);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 11);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 12);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 13);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 14);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: as for the load above.
        unsafe {
            _mm_storeu_si128(sp, dcba);
            _mm_storeu_si128(sp.add(1), hgef);
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// An HMAC-SHA-256 key (RFC 2104) with its ipad and opad blocks
/// already absorbed: each [`HmacKey::mac`] starts from the two saved
/// midstates, so a key used many times pays for its padding blocks
/// once.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacKey(..)")
    }
}

impl HmacKey {
    /// Prepares `key`; keys longer than a block are hashed first.
    pub fn new(key: &[u8]) -> HmacKey {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacKey { inner, outer }
    }

    /// The MAC of the concatenation of `parts`.
    pub fn mac(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// HMAC-SHA-256 (RFC 2104).
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    HmacKey::new(key).mac(&[msg])
}

/// Constant-time-ish digest comparison (sufficient for a simulation;
/// no real attacker measures this process's timing).
pub fn digest_eq(a: &Digest, b: &Digest) -> bool {
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// Renders a digest as lowercase hex.
pub fn hex(d: &Digest) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel this CPU can run: the portable one always, SHA-NI
    /// where the CPU has it.
    fn kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Portable];
        if Kernel::detect() != Kernel::Portable {
            ks.push(Kernel::detect());
        }
        ks
    }

    fn sha256_with(kernel: Kernel, data: &[u8]) -> Digest {
        let mut h = Sha256::with_kernel(kernel);
        h.update(data);
        h.finalize()
    }

    fn assert_vector(data: &[u8], want: &str) {
        for k in kernels() {
            assert_eq!(hex(&sha256_with(k, data)), want, "kernel {}", k.name());
        }
        assert_eq!(hex(&sha256(data)), want);
    }

    /// SHA-256 with the padding built out of place, as FIPS 180-4
    /// §5.1.1 writes it, over the portable kernel.
    fn reference_sha256(data: &[u8]) -> Digest {
        let mut m = data.to_vec();
        m.push(0x80);
        while m.len() % 64 != 56 {
            m.push(0);
        }
        m.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = H0;
        compress(&mut state, m.as_chunks::<64>().0);
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// xorshift64*: a seeded, dependency-free byte source.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn fill(&mut self, out: &mut [u8]) {
            for b in out {
                *b = self.next() as u8;
            }
        }
    }

    // NIST FIPS 180-4 test vectors, on every kernel.
    #[test]
    fn sha256_empty() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn sha256_abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn sha256_two_blocks() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn sha256_million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
        // Every length through 200 covers each in-place padding case:
        // 55 (length fits the block), 56 and 63 (spills into a second
        // block) and 64 (a whole padding block).
        for len in 0..=200 {
            let msg = &data[..len];
            let want = reference_sha256(msg);
            for k in kernels() {
                assert_eq!(sha256_with(k, msg), want, "len {len} kernel {}", k.name());
                let mut h = Sha256::with_kernel(k);
                for b in msg.chunks(7) {
                    h.update(b);
                }
                assert_eq!(
                    h.finalize(),
                    want,
                    "len {len} kernel {} in 7-byte parts",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn shani_kernel_matches_portable_on_random_blocks() {
        let shani = Kernel::detect();
        if shani == Kernel::Portable {
            eprintln!("CPU lacks the SHA extensions; nothing to compare");
            return;
        }
        let mut rng = Rng(0x5eed_acc7_ee00_0001);
        for i in 0..2_000 {
            let mut state = [0u32; 8];
            for w in &mut state {
                *w = rng.next() as u32;
            }
            // Mostly single blocks, with runs of up to four so the
            // kernel's state carry between blocks is exercised too.
            let mut blocks = vec![[0u8; 64]; 1 + (i % 4)];
            for b in &mut blocks {
                rng.fill(b);
            }
            let mut want = state;
            Kernel::Portable.compress(&mut want, &blocks);
            let mut got = state;
            shani.compress(&mut got, &blocks);
            assert_eq!(got, want, "pair {i}");
        }
    }

    // RFC 4231 test vectors.
    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_long_key() {
        // RFC 4231 case 6: 131-byte key, hashed down first.
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn hmac_key_matches_rfc2104_definition() {
        // H((K' ^ opad) || H((K' ^ ipad) || m)), with K' the key (or
        // its digest when longer than a block) zero-padded to 64 bytes.
        fn rfc2104(key: &[u8], msg: &[u8]) -> Digest {
            let mut k = if key.len() > 64 {
                sha256(key).to_vec()
            } else {
                key.to_vec()
            };
            k.resize(64, 0);
            let mut inner: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
            inner.extend_from_slice(msg);
            let mut outer: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
            outer.extend_from_slice(&sha256(&inner));
            sha256(&outer)
        }
        let mut rng = Rng(0x4d4a_c000);
        for key_len in [0, 1, 32, 63, 64, 65, 131] {
            let mut key = vec![0u8; key_len];
            rng.fill(&mut key);
            let hk = HmacKey::new(&key);
            for msg_len in [0, 1, 55, 56, 64, 96, 119, 200] {
                let mut msg = vec![0u8; msg_len];
                rng.fill(&mut msg);
                let want = rfc2104(&key, &msg);
                assert_eq!(hk.mac(&[&msg]), want, "key {key_len} msg {msg_len}");
                assert_eq!(hmac_sha256(&key, &msg), want);
                // Split into three parts anywhere: same MAC as the
                // concatenated message.
                let (a, rest) = msg.split_at(msg_len / 3);
                let (b, c) = rest.split_at(rest.len() / 2);
                assert_eq!(
                    hk.mac(&[a, b, c]),
                    want,
                    "key {key_len} msg {msg_len} parts"
                );
                assert_eq!(hk.mac(&[a, &[], b, c, &[]]), want);
            }
        }
    }

    #[test]
    fn digest_eq_works() {
        let a = sha256(b"x");
        let mut b = a;
        assert!(digest_eq(&a, &b));
        b[31] ^= 1;
        assert!(!digest_eq(&a, &b));
    }
}
