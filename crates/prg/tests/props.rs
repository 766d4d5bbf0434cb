//! Property-based tests for the cryptographic primitives.

use ironman_prg::tree_prg::build_tree_prg;
use ironman_prg::{Aes128, Block, ChaCha, ChaChaTreePrg, Crhf, LevelTier, PrgKind, TreePrg};
use proptest::prelude::*;

/// Deterministic pseudorandom blocks, AES-CTR under `seed` (a proptest
/// collection of this size per case would dominate the runtime).
fn blocks_from(seed: u128, len: usize) -> Vec<Block> {
    let aes = Aes128::new(Block::from(seed));
    (0..len as u128)
        .map(|i| aes.encrypt_block(Block::from(i)))
        .collect()
}

/// What `expand_level` must reproduce: `expand` on each parent in turn.
fn per_parent<P: TreePrg + ?Sized>(prg: &P, parents: &[Block], fanout: usize) -> (Vec<Block>, u64) {
    let mut children = vec![Block::ZERO; parents.len() * fanout];
    let mut calls = 0;
    for (parent, chunk) in parents.iter().zip(children.chunks_exact_mut(fanout)) {
        calls += prg.expand(*parent, chunk);
    }
    (children, calls)
}

/// RFC 8439 §2.3.2: the ChaCha20 block-function vector, driven through
/// every tier of the level kernel with the vector's input in each lane
/// position of a full vector and of the padded last one (17 parents: one
/// AVX-512 vector and one lane over).
#[test]
fn rfc8439_block_through_every_level_tier() {
    let key: [u8; 32] = std::array::from_fn(|i| i as u8);
    let nonce = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
    let expected: [u8; 64] = [
        0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20, 0x71,
        0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4,
        0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05, 0xd9,
        0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9, 0xcb, 0xd0, 0x83, 0xe8,
        0xa2, 0x50, 0x3c, 0x4e,
    ];
    let cipher = ChaCha::new(key, 20);
    assert_eq!(cipher.block(1, nonce), expected);

    // The block function's (counter, nonce) input as a tree node.
    let mut input = [0u8; 16];
    input[..4].copy_from_slice(&1u32.to_le_bytes());
    input[4..].copy_from_slice(&nonce);
    let node = Block::from_le_bytes(input);
    let prg = ChaChaTreePrg::from(cipher);
    for &tier in LevelTier::available() {
        for slot in 0..17 {
            let mut parents = blocks_from(slot as u128, 17);
            parents[slot] = node;
            let mut children = vec![Block::ZERO; 17 * 4];
            assert_eq!(prg.expand_level_on(tier, &parents, 4, &mut children), 17);
            let mut keystream = Vec::new();
            Block::extend_le_bytes(&children[slot * 4..slot * 4 + 4], &mut keystream);
            assert_eq!(keystream, expected, "{tier:?}, slot {slot}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The level kernel is the per-parent expansion, bit for bit and call
    /// for call: every parent count through two full vectors plus every
    /// remainder (0..=67), every round count, fanouts that truncate a
    /// segment (1, 2, 3), fill one (4) and need segment tweaks (8, 16,
    /// 32), on every tier the host offers.
    #[test]
    fn expand_level_matches_per_parent(session in any::<u128>(), seed in any::<u128>()) {
        let parents = blocks_from(seed, 67);
        for rounds in [8u32, 12, 20] {
            let prg = ChaChaTreePrg::new(Block::from(session), rounds);
            for fanout in [1usize, 2, 3, 4, 8, 16, 32] {
                for count in 0..=parents.len() {
                    let (expect, calls) = per_parent(&prg, &parents[..count], fanout);
                    for &tier in LevelTier::available() {
                        // Dirty output: the kernel must write every slot.
                        let mut got = vec![Block::ONES; count * fanout];
                        let got_calls = prg.expand_level_on(tier, &parents[..count], fanout, &mut got);
                        prop_assert_eq!(got_calls, calls);
                        prop_assert_eq!(&got, &expect, "{:?} rounds {} fanout {} count {}", tier, rounds, fanout, count);
                    }
                }
            }
        }
    }

    /// The trait method (auto dispatch, and the provided default AES
    /// keeps) agrees with the per-parent loop too.
    #[test]
    fn trait_expand_level_matches_per_parent(session in any::<u128>(), seed in any::<u128>(), aes in any::<bool>()) {
        let kind = if aes { PrgKind::Aes } else { PrgKind::CHACHA8 };
        let prg = build_tree_prg(kind, Block::from(session), 4);
        let parents = blocks_from(seed, 21);
        for fanout in [2usize, 4] {
            let (expect, calls) = per_parent(prg.as_ref(), &parents, fanout);
            let mut got = vec![Block::ONES; parents.len() * fanout];
            prop_assert_eq!(prg.expand_level(&parents, fanout, &mut got), calls);
            prop_assert_eq!(got, expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AES is a permutation: distinct plaintexts map to distinct
    /// ciphertexts under any key.
    #[test]
    fn aes_injective(key in any::<u128>(), a in any::<u128>(), b in any::<u128>()) {
        prop_assume!(a != b);
        let aes = Aes128::new(Block::from(key));
        prop_assert_ne!(aes.encrypt_block(Block::from(a)), aes.encrypt_block(Block::from(b)));
    }

    /// Different keys give different ciphertexts for the same plaintext
    /// (no accidental key-schedule collapse on random keys).
    #[test]
    fn aes_key_separation(k1 in any::<u128>(), k2 in any::<u128>(), pt in any::<u128>()) {
        prop_assume!(k1 != k2);
        let a = Aes128::new(Block::from(k1)).encrypt_block(Block::from(pt));
        let b = Aes128::new(Block::from(k2)).encrypt_block(Block::from(pt));
        prop_assert_ne!(a, b);
    }

    /// ChaCha determinism and sensitivity to every input word.
    #[test]
    fn chacha_counter_sensitivity(key in any::<[u8; 32]>(), ctr in any::<u32>()) {
        let c = ChaCha::new(key, 8);
        let a = c.block(ctr, [0u8; 12]);
        let b = c.block(ctr.wrapping_add(1), [0u8; 12]);
        prop_assert_eq!(a, c.block(ctr, [0u8; 12]));
        prop_assert_ne!(a, b);
    }

    /// σ is linear and σ(x) ⊕ x is injective on random samples — the two
    /// properties the MMO proof requires of the orthomorphism.
    #[test]
    fn sigma_orthomorphism(x in any::<u128>(), y in any::<u128>()) {
        let sx = Crhf::sigma(Block::from(x));
        let sy = Crhf::sigma(Block::from(y));
        prop_assert_eq!(sx ^ sy, Crhf::sigma(Block::from(x ^ y)));
        if x != y {
            prop_assert_ne!(sx ^ Block::from(x), sy ^ Block::from(y));
        }
    }

    /// Tree PRGs are deterministic functions of (kind, session key, parent).
    #[test]
    fn tree_prg_determinism(session in any::<u128>(), parent in any::<u128>(), aes in any::<bool>()) {
        let kind = if aes { PrgKind::Aes } else { PrgKind::CHACHA8 };
        let prg = build_tree_prg(kind, Block::from(session), 4);
        let mut x = [Block::ZERO; 4];
        let mut y = [Block::ZERO; 4];
        prg.expand(Block::from(parent), &mut x);
        prg.expand(Block::from(parent), &mut y);
        prop_assert_eq!(x, y);
    }

    /// Block algebra: XOR forms an abelian group with and_bit as scalar
    /// multiplication by GF(2).
    #[test]
    fn block_algebra(a in any::<u128>(), b in any::<u128>(), bit in any::<bool>()) {
        let (x, y) = (Block::from(a), Block::from(b));
        prop_assert_eq!(x ^ y, y ^ x);
        prop_assert_eq!((x ^ y) ^ y, x);
        prop_assert_eq!((x ^ y).and_bit(bit), x.and_bit(bit) ^ y.and_bit(bit));
    }
}
