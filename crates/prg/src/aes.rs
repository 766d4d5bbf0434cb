//! FIPS-197 AES-128 (encryption only), on three output-identical tiers.
//!
//! The paper's baseline PRG instantiates the GGM double-length PRG with
//! AES-NI: `G(s) = (AES_{k0}(s) ⊕ s, AES_{k1}(s) ⊕ s)`, and its CPU
//! baseline draws the LPN indices from the same instruction.
//!
//! **The tier ladder.** [`AesTier::detect`] picks the widest tier that
//! [`crate::cpu::enabled`] allows:
//!
//! * **Vaes** — x86-64 with `avx512f` and `vaes` (and `aes`): `VAESENC`
//!   over 512-bit vectors, four blocks per vector and eight vectors in
//!   flight, so [`Aes128::encrypt_blocks`] moves thirty-two blocks per
//!   step; the 0–31 blocks left over run on the hardware tier's loop.
//!   The bulk caller is the LPN index generator.
//! * **Hardware** — x86-64 with the `aes` feature: `AESENC` /
//!   `AESENCLAST` over the round keys, eight blocks in flight, so bulk
//!   callers pay the instruction's throughput and single-block callers
//!   its latency.
//! * **Portable** — everywhere else, and under `IRONMAN_SIMD=scalar`: the
//!   byte-wise S-box cipher below, which is also the oracle the other
//!   tiers are tested against.
//!
//! The key schedule is the software one on every tier. The cipher is
//! pinned to the FIPS-197 and SP 800-38A vectors on every tier the machine
//! has, so GGM trees, LPN index generation and CRHF outputs are
//! reproducible bit-for-bit whichever tier a process picks.
//!
//! The hardware kernels' `unsafe` (raw-pointer vector loads and stores)
//! sits in one module behind a scoped `#[allow(unsafe_code)]`, and their
//! round loop is written once for both vector widths.

use crate::cpu::{self, Features};
use crate::Block;

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the AES-128 key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by `x` in GF(2^8) with the AES reduction polynomial.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// An expanded AES-128 encryption key (11 round keys).
///
/// # Example
///
/// ```
/// use ironman_prg::{Aes128, Block};
///
/// let key = Aes128::new(Block::from(0u128));
/// let ct = key.encrypt_block(Block::from(0u128));
/// // Deterministic: encrypting the same plaintext twice is identical.
/// assert_eq!(ct, key.encrypt_block(Block::from(0u128)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expands `key` into the 11 round keys of AES-128.
    ///
    /// The key block is interpreted in little-endian byte order (consistent
    /// with [`Block::to_le_bytes`]); test vectors below fix the convention.
    pub fn new(key: Block) -> Self {
        Self::from_key_bytes(key.to_le_bytes())
    }

    /// Expands a raw 16-byte key (as written in FIPS-197: `bytes[0]` is the
    /// first key byte).
    fn from_key_bytes(key: [u8; 16]) -> Self {
        let mut rk = [[0u8; 16]; 11];
        rk[0] = key;
        for round in 1..11 {
            let prev = rk[round - 1];
            // Rotate + substitute the last word, XOR with round constant.
            let mut temp = [prev[13], prev[14], prev[15], prev[12]];
            for t in temp.iter_mut() {
                *t = SBOX[*t as usize];
            }
            temp[0] ^= RCON[round - 1];
            for i in 0..4 {
                rk[round][i] = prev[i] ^ temp[i];
            }
            for i in 4..16 {
                rk[round][i] = prev[i] ^ rk[round][i - 4];
            }
        }
        Aes128 { round_keys: rk }
    }

    /// Encrypts one 16-byte state in place — the portable tier. Inlined
    /// into the dispatch loop: as an out-of-line call the state round-trips
    /// through memory per block (~5 % of the cipher, measured).
    #[inline]
    fn encrypt_bytes(&self, state: &mut [u8; 16]) {
        add_round_key(state, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(state);
            shift_rows(state);
            mix_columns(state);
            add_round_key(state, &self.round_keys[round]);
        }
        sub_bytes(state);
        shift_rows(state);
        add_round_key(state, &self.round_keys[10]);
    }

    /// Encrypts a [`Block`] (little-endian byte interpretation).
    #[inline]
    pub fn encrypt_block(&self, block: Block) -> Block {
        let mut one = [block];
        self.encrypt_blocks(&mut one);
        one[0]
    }

    /// Encrypts every block of `blocks` in place (ECB under this key) —
    /// what [`Aes128::encrypt_block`] would return for each, with the
    /// independent blocks issued together on the hardware tier.
    ///
    /// # Example
    ///
    /// ```
    /// use ironman_prg::{Aes128, Block};
    ///
    /// let key = Aes128::new(Block::from(3u128));
    /// let mut ctr: Vec<Block> = (1..=20u128).map(Block::from).collect();
    /// key.encrypt_blocks(&mut ctr);
    /// assert_eq!(ctr[19], key.encrypt_block(Block::from(20u128)));
    /// ```
    #[inline]
    pub fn encrypt_blocks(&self, blocks: &mut [Block]) {
        self.encrypt_blocks_on(AesTier::detect(), blocks);
    }

    /// [`Aes128::encrypt_blocks`] on a chosen tier, so tests cover every
    /// tier in one process. A tier the CPU lacks runs the next narrower
    /// one it has.
    #[inline]
    pub(crate) fn encrypt_blocks_on(&self, tier: AesTier, blocks: &mut [Block]) {
        if tier != AesTier::Portable {
            #[cfg(target_arch = "x86_64")]
            if ni::encrypt_blocks(&self.round_keys, tier == AesTier::Vaes, blocks) {
                return;
            }
        }
        for block in blocks {
            let mut state = block.to_le_bytes();
            self.encrypt_bytes(&mut state);
            *block = Block::from_le_bytes(state);
        }
    }

    /// The fixed-key "pi" permutation `π(x) = AES_0(x)` used by the
    /// correlation-robust hash; see [`crate::crhf`].
    pub fn fixed() -> Self {
        Aes128::new(Block::from(0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978u128))
    }
}

/// Which implementation of the cipher runs, narrowest first.
/// Output-identical; only the instruction selection differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AesTier {
    /// The byte-wise software cipher — the always-available tier.
    Portable,
    /// `AESENC`/`AESENCLAST`, eight blocks in flight (x86-64 `aes`).
    Hardware,
    /// `VAESENC` over 512-bit vectors, thirty-two blocks in flight, the
    /// remainder on the [`AesTier::Hardware`] loop (`aes`, `avx512f` and
    /// `vaes`).
    Vaes,
}

impl AesTier {
    /// The tier this process dispatches to: the widest one
    /// [`cpu::enabled`] allows, so [`AesTier::Portable`] under
    /// `IRONMAN_SIMD=scalar`.
    pub fn detect() -> AesTier {
        *Self::tiers(cpu::enabled())
            .last()
            .expect("Portable is always available")
    }

    /// Every tier that runs on this machine ([`cpu::detected`]), narrowest
    /// first, whatever the environment says — for equivalence tests that
    /// must cover each hardware tier exactly where it exists.
    pub fn available() -> &'static [AesTier] {
        Self::tiers(cpu::detected())
    }

    /// The tiers `cpu` runs, narrowest first.
    fn tiers(cpu: Features) -> &'static [AesTier] {
        match (cpu.aes, cpu.avx512f && cpu.vaes) {
            (true, true) => &[AesTier::Portable, AesTier::Hardware, AesTier::Vaes],
            (true, false) => &[AesTier::Portable, AesTier::Hardware],
            _ => &[AesTier::Portable],
        }
    }
}

/// The hardware kernels. One round loop ([`aes_kernel!`]) is expanded for
/// both widths: [`ni::x128`] holds one block per `__m128i`, [`ni::x512`]
/// four per `__m512i`. Either way eight vectors are in flight, so every
/// round's `AESENC` latency hides behind seven independent issues.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    use super::Block;
    use std::arch::x86_64::*;

    /// Vectors in flight: enough to cover `AESENC`'s 3–7-cycle latency at
    /// one or two issues per cycle, and a quarter to half of the register
    /// file.
    const LANES: usize = 8;

    /// Encrypts `blocks` in place under `round_keys` on the widest kernel
    /// both `wide` and the CPU allow; `false` means the CPU has no `aes`
    /// and nothing was written.
    pub(super) fn encrypt_blocks(
        round_keys: &[[u8; 16]; 11],
        wide: bool,
        blocks: &mut [Block],
    ) -> bool {
        let cpu = crate::cpu::detected();
        match (cpu.aes, cpu.avx512f && cpu.vaes) {
            (true, true) if wide => {
                // SAFETY: the CPU has `aes`, `avx512f` and `vaes` (checked
                // just above; SSE2 is baseline on x86-64).
                unsafe { encrypt_blocks_vaes(round_keys, blocks) }
            }
            // SAFETY: as above, for `aes`.
            (true, _) => unsafe { encrypt_blocks_aesni(round_keys, blocks) },
            _ => return false,
        }
        true
    }

    /// The round keys as XMM registers: byte `i` of a key lands in byte
    /// `i` of the register — FIPS-197's state order, which is what
    /// `AESENC` operates on.
    #[inline]
    fn load_keys(round_keys: &[[u8; 16]; 11]) -> [__m128i; 11] {
        // SAFETY: a round key is 16 readable bytes and the unaligned load
        // has no alignment requirement (SSE2 is baseline on x86-64).
        round_keys.map(|bytes| unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) })
    }

    /// # Safety
    ///
    /// Caller must have verified the `aes` CPU feature.
    #[target_feature(enable = "aes")]
    fn encrypt_blocks_aesni(round_keys: &[[u8; 16]; 11], blocks: &mut [Block]) {
        x128::encrypt_blocks(&load_keys(round_keys), blocks);
    }

    /// Thirty-two blocks per step, eight `__m512i` in flight; the 0–31
    /// blocks left over go to the AES-NI loop.
    ///
    /// # Safety
    ///
    /// Caller must have verified the `aes`, `avx512f` and `vaes` CPU
    /// features.
    #[target_feature(enable = "aes,avx512f,vaes")]
    fn encrypt_blocks_vaes(round_keys: &[[u8; 16]; 11], blocks: &mut [Block]) {
        let keys = load_keys(round_keys);
        // A loop, not `keys.map(..)`: where LLVM leaves the generic `map`
        // out of line it runs without these features and passes every
        // `__m512i` through memory, quadrupling a one-block call.
        let mut wide = [_mm512_setzero_si512(); 11];
        for (wide, &key) in wide.iter_mut().zip(&keys) {
            *wide = _mm512_broadcast_i32x4(key);
        }
        let (body, tail) = blocks.as_chunks_mut::<{ LANES * x512::BLOCKS }>();
        for step in body {
            x512::encrypt_lanes::<LANES>(&wide, step);
        }
        x128::encrypt_blocks(&keys, tail);
    }

    /// The round loop, written once for both widths. The invoking module
    /// supplies the vector type `V`, `BLOCKS` (blocks per vector), the
    /// target feature and the intrinsics.
    macro_rules! aes_kernel {
        (
            feature: $feature:literal,
            load: $load:path,
            store: $store:path,
            xor: $xor:path,
            enc: $enc:path,
            enclast: $enclast:path $(,)?
        ) => {
            /// Encrypts the `N·BLOCKS` blocks of `blocks` with every round
            /// interleaved across the `N` vectors.
            ///
            /// # Panics
            ///
            /// Panics unless `blocks.len() == N * BLOCKS` (a constant
            /// check wherever the caller's length is one).
            #[inline]
            #[target_feature(enable = $feature)]
            pub(super) fn encrypt_lanes<const N: usize>(keys: &[V; 11], blocks: &mut [Block]) {
                assert_eq!(blocks.len(), N * BLOCKS, "one block per lane");
                let p = blocks.as_mut_ptr().cast::<V>();
                let mut state = [keys[0]; N];
                for (i, s) in state.iter_mut().enumerate() {
                    // SAFETY: `i < N` and `blocks` holds `N·BLOCKS` blocks,
                    // so the vector at `p + i` is blocks `BLOCKS·i ..` of
                    // the slice. `Block` is `repr(transparent)` over
                    // `u128`, whose in-memory bytes on this little-endian
                    // target are `to_le_bytes` order — the byte order the
                    // portable tier feeds the cipher — and the unaligned
                    // load has no alignment requirement.
                    *s = $xor(*s, unsafe { $load(p.add(i).cast()) });
                }
                for key in &keys[1..10] {
                    for s in &mut state {
                        *s = $enc(*s, *key);
                    }
                }
                for (i, s) in state.into_iter().enumerate() {
                    // SAFETY: as for the load — `p + i` lies inside the
                    // exclusively borrowed slice.
                    unsafe { $store(p.add(i).cast(), $enclast(s, keys[10])) };
                }
            }
        };
    }

    /// One block per `__m128i` (`aes`).
    pub(super) mod x128 {
        use super::{Block, LANES};
        use std::arch::x86_64::*;

        type V = __m128i;
        const BLOCKS: usize = 1;

        /// Eight blocks per step, then the 0–7-block tail (and every
        /// single-block call) one at a time, paying the instruction's
        /// latency per block instead of its throughput.
        #[inline]
        #[target_feature(enable = "aes")]
        pub(super) fn encrypt_blocks(keys: &[V; 11], blocks: &mut [Block]) {
            let (body, tail) = blocks.as_chunks_mut::<LANES>();
            for lanes in body {
                encrypt_lanes::<LANES>(keys, lanes);
            }
            for block in tail.chunks_exact_mut(1) {
                encrypt_lanes::<1>(keys, block);
            }
        }

        aes_kernel! {
            feature: "aes",
            load: _mm_loadu_si128,
            store: _mm_storeu_si128,
            xor: _mm_xor_si128,
            enc: _mm_aesenc_si128,
            enclast: _mm_aesenclast_si128,
        }
    }

    /// Four blocks per `__m512i` (`avx512f` + `vaes`), the round keys
    /// broadcast to every 128-bit lane.
    pub(super) mod x512 {
        use super::Block;
        use std::arch::x86_64::*;

        type V = __m512i;
        pub(super) const BLOCKS: usize = 4;

        aes_kernel! {
            feature: "avx512f,vaes",
            load: _mm512_loadu_si512,
            store: _mm512_storeu_si512,
            xor: _mm512_xor_si512,
            enc: _mm512_aesenc_epi128,
            enclast: _mm512_aesenclast_epi128,
        }
    }
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for s in state.iter_mut() {
        *s = SBOX[*s as usize];
    }
}

/// AES organizes the 16 bytes column-major: byte `i` is row `i % 4`,
/// column `i / 4`. ShiftRows rotates row `r` left by `r`.
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    // Row 1: left rotate by 1.
    state[1] = s[5];
    state[5] = s[9];
    state[9] = s[13];
    state[13] = s[1];
    // Row 2: left rotate by 2.
    state[2] = s[10];
    state[6] = s[14];
    state[10] = s[2];
    state[14] = s[6];
    // Row 3: left rotate by 3.
    state[3] = s[15];
    state[7] = s[3];
    state[11] = s[7];
    state[15] = s[11];
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let base = col * 4;
        let a0 = state[base];
        let a1 = state[base + 1];
        let a2 = state[base + 2];
        let a3 = state[base + 3];
        let all = a0 ^ a1 ^ a2 ^ a3;
        state[base] = a0 ^ all ^ xtime(a0 ^ a1);
        state[base + 1] = a1 ^ all ^ xtime(a1 ^ a2);
        state[base + 2] = a2 ^ all ^ xtime(a2 ^ a3);
        state[base + 3] = a3 ^ all ^ xtime(a3 ^ a0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    /// One known-answer vector through the byte-level cipher and through
    /// [`Aes128::encrypt_blocks_on`] on every tier the machine has, the
    /// vector in each lane of a 41-block call: the 32-block VAES step,
    /// the 8-block AES-NI step and the one-block tail.
    fn check_vector(key: &str, pt: &str, expected: &str) {
        let aes = Aes128::from_key_bytes(hex16(key));
        let mut state = hex16(pt);
        aes.encrypt_bytes(&mut state);
        assert_eq!(state, hex16(expected));
        for &tier in AesTier::available() {
            for slot in 0..41 {
                let mut blocks = [Block::from(0x5a5au128); 41];
                blocks[slot] = Block::from_le_bytes(hex16(pt));
                aes.encrypt_blocks_on(tier, &mut blocks);
                assert_eq!(
                    blocks[slot].to_le_bytes(),
                    hex16(expected),
                    "{tier:?}, slot {slot}"
                );
            }
        }
    }

    /// FIPS-197 Appendix B: key 2b7e1516..., plaintext 3243f6a8...
    #[test]
    fn fips197_appendix_b() {
        check_vector(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        );
    }

    /// FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233...ff.
    #[test]
    fn fips197_appendix_c1() {
        check_vector(
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        );
    }

    /// NIST SP 800-38A ECB-AES128 vector #1.
    #[test]
    fn nist_sp800_38a_ecb1() {
        check_vector(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "6bc1bee22e409f96e93d7e117393172a",
            "3ad77bb40d7a3660a89ecaf32466ef97",
        );
    }

    proptest! {
        /// Every tier's bulk call equals the software cipher block by
        /// block, on a sub-slice whose neighbours must come back
        /// untouched.
        #[test]
        fn encrypt_blocks_matches_software_cipher(
            key in any::<u128>(),
            data in proptest::collection::vec(any::<u128>(), 0..80),
            lead in 0usize..3,
        ) {
            let aes = Aes128::new(Block::from(key));
            let expected: Vec<Block> = data
                .iter()
                .map(|&d| {
                    let mut state = d.to_le_bytes();
                    aes.encrypt_bytes(&mut state);
                    Block::from_le_bytes(state)
                })
                .collect();
            for &tier in AesTier::available() {
                let guard = Block::from(!key);
                let mut buf = vec![guard; lead];
                buf.extend(data.iter().copied().map(Block::from));
                buf.extend([guard; 2]);
                aes.encrypt_blocks_on(tier, &mut buf[lead..lead + data.len()]);
                prop_assert_eq!(&buf[lead..lead + data.len()], expected.as_slice());
                prop_assert!(buf[..lead].iter().all(|&b| b == guard));
                prop_assert!(buf[lead + data.len()..].iter().all(|&b| b == guard));
            }
        }
    }

    #[test]
    fn every_tier_matches_the_software_cipher_at_every_length() {
        // Lengths 0..=100 cover each remainder of the 32-block VAES step
        // and of the 8-block AES-NI step beneath it, and every mix of
        // the two; 1000 blocks is a long bulk run.
        let aes = Aes128::new(Block::from(0x1357_9bdf_u128));
        let data: Vec<Block> = (0..1000u128)
            .map(|i| Block::from(i * 0x9e37_79b9 + 5))
            .collect();
        for len in (0..=100).chain([1000]) {
            let mut expected = data[..len].to_vec();
            aes.encrypt_blocks_on(AesTier::Portable, &mut expected);
            for &tier in AesTier::available() {
                let mut got = data[..len].to_vec();
                aes.encrypt_blocks_on(tier, &mut got);
                assert_eq!(got, expected, "{tier:?}, {len} blocks");
            }
        }
    }

    #[test]
    fn detect_is_the_widest_available_tier() {
        // A silent fall-back to a narrower tier would cost the LPN index
        // generator most of its cipher speed and fail nothing else.
        let available = AesTier::available();
        if cpu::enabled() == Features::default() {
            assert_eq!(AesTier::detect(), AesTier::Portable);
        } else {
            assert_eq!(AesTier::detect(), *available.last().unwrap());
        }
        assert_eq!(available[0], AesTier::Portable);
        let cpu = cpu::detected();
        assert_eq!(available.contains(&AesTier::Hardware), cpu.aes);
        assert_eq!(
            available.contains(&AesTier::Vaes),
            cpu.aes && cpu.avx512f && cpu.vaes
        );
    }

    #[test]
    fn block_interface_matches_bytes() {
        let key = hex16("000102030405060708090a0b0c0d0e0f");
        let pt = hex16("00112233445566778899aabbccddeeff");
        let aes = Aes128::from_key_bytes(key);
        let ct = aes.encrypt_block(Block::from_le_bytes(pt));
        assert_eq!(ct.to_le_bytes(), hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new(Block::from(1u128));
        let b = Aes128::new(Block::from(2u128));
        let pt = Block::from(99u128);
        assert_ne!(a.encrypt_block(pt), b.encrypt_block(pt));
    }

    #[test]
    fn xtime_matches_table() {
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
        assert_eq!(xtime(0x80), 0x1b);
    }
}
