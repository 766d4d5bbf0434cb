//! Failure injection: protocols built on these channels must not silently
//! accept corrupted or truncated transcripts — corruption must surface as
//! a framing error or a violated output correlation.

use ironman_ot::channel::{run_protocol, ChannelError, LocalChannel, Transport};
use ironman_ot::cot::{CotBatch, CotReceiver, CotSlice};
use ironman_ot::dealer::Dealer;
use ironman_ot::ferret::{run_extension, FerretConfig, FerretReceiver, FerretSender};
use ironman_ot::params::FerretParams;
use ironman_ot::spcot::{spcot_recv, spcot_send, verify_spcot, SpcotConfig};
use ironman_prg::Block;

/// A transport that corrupts message number `target` (counting sent
/// messages). Every 16-byte block of the payload is flipped: corrupting a
/// *single* OT message half would be undetectable whenever the receiver's
/// choice discards that half — which is exactly OT privacy, not a bug.
struct Tamper {
    inner: LocalChannel,
    sent: usize,
    target: usize,
}

impl Transport for Tamper {
    fn send_bytes(&mut self, mut bytes: Vec<u8>) -> Result<(), ChannelError> {
        if self.sent == self.target && !bytes.is_empty() {
            for chunk_start in (0..bytes.len()).step_by(16) {
                bytes[chunk_start] ^= 0x80;
            }
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

fn run_tampered_spcot(target: usize) -> Result<(), usize> {
    let cfg = SpcotConfig::ironman(256, Block::from(5u128));
    let mut dealer = Dealer::new(3);
    let delta = dealer.random_delta();
    let (mut sb, mut rb) = dealer.deal_cot(delta, cfg.base_cots_needed());
    let seed = dealer.random_block();

    let (a, b) = LocalChannel::pair();
    let mut sender_ch = Tamper {
        inner: a,
        sent: 0,
        target,
    };
    let mut receiver_ch = b;
    let (s_out, r_out) = std::thread::scope(|scope| {
        let s = scope.spawn(move || {
            let mut tweak = 0;
            spcot_send(&mut sender_ch, &cfg, &mut sb, seed, &mut tweak).unwrap()
        });
        let r = scope.spawn(move || {
            let mut tweak = 0;
            spcot_recv(&mut receiver_ch, &cfg, &mut rb, 77, &mut tweak).unwrap()
        });
        (s.join().unwrap(), r.join().unwrap())
    });
    verify_spcot(delta, &s_out, &r_out)
}

#[test]
fn corrupting_any_sender_message_breaks_the_correlation() {
    // Whatever sender message is corrupted — an OT payload, a masked
    // message batch, or the final masked leaf sum — the output COT
    // correlation must fail verification (never silently pass).
    for target in 0..6 {
        assert!(
            run_tampered_spcot(target).is_err(),
            "tampering with sender message {target} went undetected"
        );
    }
}

#[test]
fn untampered_control_case_passes() {
    // Sanity: the same harness with an out-of-range target is clean.
    assert!(run_tampered_spcot(usize::MAX).is_ok());
}

#[test]
fn truncated_block_message_is_a_framing_error() {
    let (mut a, mut b) = LocalChannel::pair();
    a.send_bytes(vec![0u8; 15]).unwrap(); // one byte short of a block
    assert!(matches!(
        b.recv_block(),
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
