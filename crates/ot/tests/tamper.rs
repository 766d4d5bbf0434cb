//! Failure injection: protocols built on these channels must not silently
//! accept corrupted or truncated transcripts — corruption must surface as
//! a framing error or a violated output correlation.

use ironman_ot::channel::{run_protocol, ChannelError, LocalChannel, Transport};
use ironman_ot::cot::{CotBatch, CotReceiver, CotSlice};
use ironman_ot::dealer::Dealer;
use ironman_ot::ferret::{run_extension, FerretConfig, FerretReceiver, FerretSender};
use ironman_ot::params::FerretParams;
use ironman_ot::spcot::SpcotConfig;
use ironman_ot::spcot_batch::{spcot_batch_recv_into, spcot_batch_send_into};
use ironman_prg::Block;

/// A transport that passes message number `target` (counting sent
/// messages) through `edit` on its way out.
struct Tamper {
    inner: LocalChannel,
    sent: usize,
    target: usize,
    edit: fn(&mut Vec<u8>),
}

impl Transport for Tamper {
    fn send_bytes(&mut self, mut bytes: Vec<u8>) -> Result<(), ChannelError> {
        if self.sent == self.target && !bytes.is_empty() {
            (self.edit)(&mut bytes);
        }
        self.sent += 1;
        self.inner.send_bytes(bytes)
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, ChannelError> {
        self.inner.recv_bytes()
    }

    fn stats(&self) -> ironman_ot::channel::ChannelStats {
        self.inner.stats()
    }
}

/// A batch of `trees` SPCOTs at ℓ = 256 (four quad levels) whose sender
/// message `target` goes through `edit`: per tree, the first leaf
/// violating `w = v ⊕ u·Δ` (or `None`), or the receiver's error; and the
/// messages the sender sent.
fn run_edited_batch(
    trees: usize,
    target: usize,
    edit: fn(&mut Vec<u8>),
) -> (Result<Vec<Option<usize>>, ChannelError>, u64) {
    let cfg = SpcotConfig::ironman(256, Block::from(5u128));
    let mut dealer = Dealer::new(3);
    let delta = dealer.random_delta();
    let (mut sb, mut rb) = dealer.deal_cot(delta, trees * cfg.base_cots_needed());
    let seeds: Vec<Block> = (0..trees).map(|_| dealer.random_block()).collect();
    let alphas: Vec<usize> = (0..trees).map(|t| (77 + 61 * t) % cfg.leaves).collect();

    let (a, b) = LocalChannel::pair();
    let mut sender_ch = Tamper {
        inner: a,
        sent: 0,
        target,
        edit,
    };
    let ((w, sent, messages), v) = std::thread::scope(|scope| {
        let s = scope.spawn(|| {
            let mut w = Vec::new();
            let sent = spcot_batch_send_into(
                &mut sender_ch,
                &cfg,
                &mut sb,
                &seeds,
                &mut 0,
                |_, leaves, _| w.push(leaves.to_vec()),
            );
            (w, sent, sender_ch.stats().messages_sent)
        });
        let r = scope.spawn(|| {
            // Owned here, so a receiver that panics hangs up on the sender.
            let mut receiver_ch = b;
            let mut v = Vec::new();
            spcot_batch_recv_into(
                &mut receiver_ch,
                &cfg,
                &mut rb,
                &alphas,
                &mut 0,
                |_, _, leaves, _| v.push(leaves.to_vec()),
            )
            .map(|()| v)
        });
        (s.join().unwrap(), r.join().unwrap())
    });
    // A receiver that rejects a message hangs up, which can fail the
    // sender's last send; one that finishes leaves the sender finished.
    let violations = v.map(|v| {
        sent.expect("sender");
        w.iter()
            .zip(&v)
            .zip(&alphas)
            .map(|((w, v), &alpha)| {
                (0..w.len()).find(|&i| w[i] != v[i] ^ delta.and_bit(i == alpha))
            })
            .collect()
    });
    (violations, messages)
}

/// [`run_edited_batch`] with every 16-byte block of message `target`
/// flipped: corrupting a *single* OT message half would be undetectable
/// whenever the receiver's choice discards that half — which is exactly
/// OT privacy, not a bug.
fn run_tampered_batch(trees: usize, target: usize) -> (Vec<Option<usize>>, u64) {
    let (violations, messages) = run_edited_batch(trees, target, |bytes| {
        for chunk_start in (0..bytes.len()).step_by(16) {
            bytes[chunk_start] ^= 0x80;
        }
    });
    let violations = violations.expect("a flipped message keeps its length");
    (violations, messages)
}

#[test]
fn corrupting_any_sender_message_breaks_every_tree() {
    // Whichever of the two sender messages is corrupted — the chosen-OT
    // payload of every level's OTs, or the masked leaf sums with every
    // m-ary level's masked sums — every tree's output correlation must
    // fail (never silently pass), in a one-tree batch and in a batch of
    // many.
    for trees in [1, 16] {
        let (clean, messages) = run_tampered_batch(trees, usize::MAX);
        assert_eq!(clean, vec![None; trees], "{trees} trees: untampered run");
        for target in 0..messages as usize {
            let (broken, _) = run_tampered_batch(trees, target);
            assert!(
                broken.iter().all(Option::is_some),
                "{trees} trees: tampering with sender message {target} of {messages} \
                 left a tree correlated: {broken:?}"
            );
        }
    }
}

#[test]
fn message_count_does_not_grow_with_the_tree_count() {
    // One chosen-OT payload for every level's OTs, then one message with
    // every masked sum: 2, however many trees ride along.
    assert_eq!(run_tampered_batch(1, usize::MAX).1, 2);
    assert_eq!(run_tampered_batch(16, usize::MAX).1, 2);
}

#[test]
fn a_sender_message_one_block_short_is_a_framing_error() {
    // A peer over a socket can send any length: a short OT payload or
    // masked-sum message must come back as `Malformed`, not panic the
    // receiver's thread.
    for trees in [1, 16] {
        let messages = run_tampered_batch(trees, usize::MAX).1 as usize;
        for target in 0..messages {
            let (got, _) = run_edited_batch(trees, target, |bytes| {
                bytes.truncate(bytes.len() - 16);
            });
            assert!(
                matches!(got, Err(ChannelError::Malformed { .. })),
                "{trees} trees: message {target} cut short gave {got:?}"
            );
        }
    }
}

#[test]
fn truncated_block_message_is_a_framing_error() {
    let (mut a, mut b) = LocalChannel::pair();
    a.send_bytes(vec![0u8; 15]).unwrap(); // one byte short of a block
    assert!(matches!(
        b.recv_blocks(),
        Err(ChannelError::Malformed { .. })
    ));
}

#[test]
fn truncated_bit_vector_is_a_framing_error() {
    let (mut a, mut b) = LocalChannel::pair();
    // Claim 100 bits but ship only one payload byte.
    let mut bytes = 100u64.to_le_bytes().to_vec();
    bytes.push(0xFF);
    a.send_bytes(bytes).unwrap();
    assert!(matches!(b.recv_bits(), Err(ChannelError::Malformed { .. })));
}

#[test]
fn dealer_base_corruption_is_caught_by_verification() {
    let mut dealer = Dealer::new(8);
    let delta = dealer.random_delta();
    let (s, r) = dealer.deal_cot(delta, 64);
    // Flip one receiver block: exactly one index must be reported.
    let mut rb = r.rb().to_vec();
    rb[17] ^= Block::from(2u128);
    let (z, x, y) = (s.r0(), r.bits(), &rb[..]);
    assert_eq!(CotSlice { delta, z, x, y }.verify(), Err(17));
}

#[test]
fn extension_outputs_are_never_trivially_structured() {
    // Weak-randomness smoke test on the real pipeline: no duplicate z
    // blocks, no all-zero blocks, in a full extension.
    let out = run_extension(&FerretConfig::new(FerretParams::toy()), 21);
    let mut seen = std::collections::HashSet::new();
    for &z in &out.cots.z {
        assert_ne!(z, Block::ZERO);
        assert!(seen.insert(z), "duplicate output block");
    }
}

/// One toy extension whose receiver base went through `tamper` first;
/// returns the first output index violating `z = y ⊕ x·Δ`, if any.
fn extend_with_receiver_base(tamper: impl FnOnce(&mut [bool], &mut [Block])) -> Option<usize> {
    let cfg = FerretConfig::new(FerretParams::toy());
    let mut dealer = Dealer::new(31);
    let delta = dealer.random_delta();
    let (s_base, r_base) = dealer.deal_cot(delta, cfg.base_cots_required());
    let (mut bits, mut rb) = (r_base.bits().to_vec(), r_base.rb().to_vec());
    tamper(&mut bits, &mut rb);
    let r_base = CotReceiver::new(bits, rb);
    let (cfg_s, cfg_r) = (cfg.clone(), cfg);
    let (z, (x, y), _, _) = run_protocol(
        move |ch| FerretSender::new(cfg_s, s_base, 31).extend(ch).unwrap(),
        move |ch| FerretReceiver::new(cfg_r, r_base, 31).extend(ch).unwrap(),
    );
    CotBatch { delta, z, x, y }.verify().err()
}

#[test]
fn flipping_bit0_of_a_receiver_base_string_breaks_the_extension() {
    // Inside the extension bit 0 of a receiver string *is* its choice
    // bit (FerretReceiver::new folds the dealt bit in), and both ride
    // through LPN in that one lane: a base string whose bit 0 is wrong —
    // an LPN input, past the SPCOT budget — corrupts `x` on every row
    // that gathers it.
    let last = FerretConfig::new(FerretParams::toy()).base_cots_required() - 1;
    assert!(extend_with_receiver_base(|bits, _| bits[last] ^= true).is_some());
    // Control: the dealt block's own bit 0 is not part of the
    // correlation (the sender clears it, the receiver overwrites it), and
    // an untouched base is clean.
    assert_eq!(
        extend_with_receiver_base(|_, rb| rb[last] ^= Block::from(1u128)),
        None
    );
    assert_eq!(extend_with_receiver_base(|_, _| {}), None);
}
