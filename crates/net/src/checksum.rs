//! The Internet checksum (RFC 1071) and incremental updates (RFC 1624).
//!
//! Used by IP (header), ICMP (whole message), UDP and TCP (pseudo-header +
//! payload; UDP's may be disabled, which is exactly the application-
//! specific optimization §1.1 motivates for audio/video). The forwarding
//! extension (§5.2) uses the incremental form to fix up checksums after
//! rewriting addresses without rescanning the payload.

use crate::mbuf::Mbuf;

/// Accumulates the one's-complement sum incrementally.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checksum {
    /// The sum of the 16-bit big-endian words fed so far (and the seed),
    /// folded to 16 bits by every `add`; zero only while every word was.
    sum: u64,
    /// True if an odd byte is pending (affects alignment of the next chunk).
    odd: bool,
    pending: u8,
}

impl Checksum {
    /// Starts an empty sum.
    pub fn new() -> Checksum {
        Checksum::default()
    }

    /// Starts from an already-accumulated partial sum — how a NIC with
    /// checksum offload resumes the pseudo-header partial the stack handed
    /// down in the packet header.
    pub fn with_partial(sum: u32) -> Checksum {
        Checksum {
            sum: u64::from(sum),
            ..Checksum::default()
        }
    }

    /// The partial sum accumulated so far, folded to 16 bits (only
    /// meaningful while no odd byte is pending).
    pub fn partial(&self) -> u32 {
        debug_assert!(!self.odd, "partial taken mid-byte");
        u32::from(fold(self.sum))
    }

    /// Feeds bytes into the sum, handling odd-length chunks across calls.
    pub fn add(&mut self, mut bytes: &[u8]) -> &mut Self {
        if self.odd {
            let Some((&first, rest)) = bytes.split_first() else {
                return self;
            };
            self.sum += u64::from(u16::from_be_bytes([self.pending, first]));
            self.odd = false;
            bytes = rest;
        }
        let (words, tail) = bytes.split_at(bytes.len() & !1);
        self.sum = u64::from(fold(self.sum + u64::from(sum_words(words))));
        if let [last] = tail {
            self.pending = *last;
            self.odd = true;
        }
        self
    }

    /// Feeds a big-endian `u16`.
    pub fn add_u16(&mut self, v: u16) -> &mut Self {
        self.add(&v.to_be_bytes())
    }

    /// Folds and complements, producing the wire checksum value.
    pub fn finish(&self) -> u16 {
        let mut sum = self.sum;
        if self.odd {
            sum += u64::from(u16::from_be_bytes([self.pending, 0]));
        }
        !fold(sum)
    }
}

/// Folds a one's-complement sum to 16 bits, end-around carries included.
fn fold(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

/// The one's-complement sum of `words` (an even number of bytes) as 16-bit
/// big-endian words, folded. The bytes are read as native-endian 32-bit
/// words into a `u64` a block at a time; a 32-bit word is its two 16-bit
/// halves modulo 0xFFFF, and, by RFC 1071's byte-order independence, the
/// sum of byte-swapped words is the byte-swapped sum, so reading the
/// folded native sum's bytes as big-endian gives the sum the 16-bit
/// big-endian loop would.
fn sum_words(words: &[u8]) -> u16 {
    let mut sum = 0u64;
    // A block's 2^28 words sum to less than 2^60: no length overflows.
    for block in words.chunks(1 << 30) {
        let mut block_sum = 0u64;
        let mut quads = block.chunks_exact(4);
        for quad in &mut quads {
            block_sum += u64::from(u32::from_ne_bytes([quad[0], quad[1], quad[2], quad[3]]));
        }
        if let [a, b] = quads.remainder() {
            block_sum += u64::from(u16::from_ne_bytes([*a, *b]));
        }
        sum += u64::from(fold(block_sum));
    }
    u16::from_be_bytes(fold(sum).to_ne_bytes())
}

/// One-shot checksum of a contiguous buffer.
pub fn checksum(bytes: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add(bytes);
    c.finish()
}

/// Checksum of the tail of an mbuf chain starting at byte offset `from`,
/// seeded with a partial sum (the pseudo-header). This is the
/// gather a checksum-offload NIC performs while DMAing the chain: segment
/// boundaries may fall anywhere, including on odd offsets.
pub fn checksum_mbuf_from(m: &Mbuf, from: usize, partial: u32) -> u16 {
    let mut c = Checksum::with_partial(partial);
    let mut skip = from;
    for seg in m.segments() {
        if skip >= seg.len() {
            skip -= seg.len();
            continue;
        }
        c.add(&seg[skip..]);
        skip = 0;
    }
    c.finish()
}

/// Verifies a buffer whose checksum field is *included*: the sum over
/// everything must be zero.
pub fn verify(bytes: &[u8]) -> bool {
    checksum(bytes) == 0
}

/// Verifies a transport segment (header + payload, checksum field
/// included) against its pseudo-header partial sum: valid iff the seeded
/// sum folds to zero. This is what receivers — and the offload
/// equivalence tests — check on frames whose checksum the NIC filled.
pub fn verify_checksum(region: &[u8], pseudo: u32) -> bool {
    let mut c = Checksum::with_partial(pseudo);
    c.add(region);
    c.finish() == 0
}

/// A transmit checksum deferred to the NIC: the stack leaves the field
/// zero and stamps this descriptor in the packet header; the adapter
/// computes the Internet checksum over the tail of the frame during the
/// DMA gather and patches the field on the way out.
///
/// Offsets count from the packet *end*, so the link/network headers that
/// lower layers prepend after the request is stamped never invalidate
/// them (nothing on the transmit path appends trailing bytes).
///
/// This is the simulator's [`plexus_sim::nic::TxCsum`] under the name the
/// protocol stack uses — one descriptor type travels from the transport
/// layer down through the driver API to the adapter.
pub use plexus_sim::nic::TxCsum as CsumOffload;

/// Computes a deferred checksum over `m` (the full frame as it will be
/// serialized) exactly as the offloading NIC does during the DMA gather —
/// but walking the mbuf chain in place, for tests and host-side
/// verification, rather than over the gathered wire image.
pub fn compute_offload(req: &CsumOffload, m: &Mbuf) -> u16 {
    let total = m.total_len();
    debug_assert!(req.start_from_end <= total && req.field_from_end + 2 <= total);
    let v = checksum_mbuf_from(m, total - req.start_from_end, req.pseudo);
    if v == 0 && req.zero_to_ones {
        0xFFFF
    } else {
        v
    }
}

/// RFC 1624 incremental update: given the old checksum and a 16-bit field
/// change `old -> new`, returns the new checksum without rescanning.
pub fn incremental_update(check: u16, old: u16, new: u16) -> u16 {
    // HC' = ~(~HC + ~m + m') (RFC 1624 eqn. 3).
    let mut sum = (!check as u32) + (!old as u32) + new as u32;
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // RFC 1071 §3 example data.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0xddf2, checksum = ~0xddf2 = 0x220d.
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn checksum_of_message_including_its_checksum_is_zero() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x1c, 0xab, 0xcd, 0x00, 0x00];
        let c = checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 1;
        assert!(!verify(&data), "corruption must be detected");
    }

    #[test]
    fn odd_length_handled() {
        let data = [1u8, 2, 3];
        // 0x0102 + 0x0300 = 0x0402 -> ~ = 0xfbfd.
        assert_eq!(checksum(&data), 0xfbfd);
    }

    #[test]
    fn chunked_feeding_matches_one_shot() {
        let data: Vec<u8> = (0..=254).collect();
        for split in [1usize, 2, 7, 128, 253] {
            let mut c = Checksum::new();
            c.add(&data[..split]).add(&data[split..]);
            assert_eq!(c.finish(), checksum(&data), "split at {split}");
        }
    }

    #[test]
    fn mbuf_chain_matches_linearized() {
        let data: Vec<u8> = (0u16..5001).map(|x| (x * 7) as u8).collect();
        let m = Mbuf::from_payload(13, &data);
        assert!(m.segment_count() > 1);
        assert_eq!(checksum_mbuf_from(&m, 0, 0), checksum(&data));
    }

    #[test]
    fn seeded_chain_tail_matches_contiguous() {
        let data: Vec<u8> = (0u16..4097).map(|x| (x * 13) as u8).collect();
        let m = Mbuf::from_payload(9, &data);
        assert!(m.segment_count() > 1);
        for from in [0usize, 1, 7, 2048, 4000] {
            let mut want = Checksum::with_partial(0x1234);
            want.add(&data[from..]);
            assert_eq!(
                checksum_mbuf_from(&m, from, 0x1234),
                want.finish(),
                "from {from}"
            );
        }
    }

    #[test]
    fn offload_compute_matches_software_and_verifies() {
        // A fake transport segment: 8-byte header (checksum at offset 6)
        // plus an odd-length payload, behind 34 bytes of lower headers.
        let mut pkt = vec![0u8; 34];
        let mut seg = vec![0x11u8, 0x22, 0x00, 0x29, 0x00, 0x00, 0x00, 0x00];
        seg.extend((0u16..33).map(|x| (x * 3) as u8));
        let pseudo = {
            let mut c = Checksum::new();
            c.add(&[10, 0, 0, 1]).add(&[10, 0, 0, 2]).add_u16(17);
            c.add_u16(seg.len() as u16);
            c.partial()
        };
        // Software pass over pseudo + segment (field zeroed).
        let mut sw = Checksum::with_partial(pseudo);
        sw.add(&seg);
        let want = sw.finish();
        pkt.extend_from_slice(&seg);
        let m = Mbuf::from_payload(0, &pkt);
        let req = CsumOffload {
            start_from_end: seg.len(),
            field_from_end: seg.len() - 6,
            pseudo,
            zero_to_ones: true,
        };
        assert_eq!(compute_offload(&req, &m), want);
        // Patch the field like the NIC does; the result must verify.
        let field = pkt.len() - req.field_from_end;
        pkt[field..field + 2].copy_from_slice(&want.to_be_bytes());
        assert!(verify_checksum(&pkt[pkt.len() - seg.len()..], pseudo));
        pkt[field] ^= 0x40;
        assert!(!verify_checksum(&pkt[pkt.len() - seg.len()..], pseudo));
    }

    /// The accumulator as it was: 16-bit big-endian words, one at a time
    /// (into a `u64` here, where it was a `u32` that 65 538 words of 0xFFFF
    /// overflowed).
    fn word_by_word(seed: u32, chunks: &[&[u8]]) -> u16 {
        let bytes: Vec<u8> = chunks.concat();
        let mut sum = u64::from(seed);
        let mut pairs = bytes.chunks_exact(2);
        for pair in &mut pairs {
            sum += u64::from(u16::from_be_bytes([pair[0], pair[1]]));
        }
        if let [last] = pairs.remainder() {
            sum += u64::from(u16::from_be_bytes([*last, 0]));
        }
        !fold(sum)
    }

    #[test]
    fn more_than_128_kib_does_not_overflow() {
        // 65 538 words of 0xFFFF: each is zero in one's complement, but the
        // sum is not zero, so it folds to 0xFFFF and the checksum is 0.
        let ones = vec![0xFFu8; 131_076];
        assert_eq!(checksum(&ones), 0);
        assert_eq!(checksum(&ones), word_by_word(0, &[&ones]));
        let mut c = Checksum::with_partial(u32::MAX);
        c.add(&ones[..65_537]).add(&ones[65_537..]).add(&ones);
        assert_eq!(c.finish(), word_by_word(u32::MAX, &[&ones, &ones]));
        assert_eq!(checksum(&[0; 131_076]), 0xFFFF, "all zeros stay zero");
    }

    #[test]
    fn any_length_split_and_seed_matches_the_16_bit_loop() {
        use proptest::rng::TestRng;
        for case in 0..2_000u64 {
            let rng = &mut TestRng::from_seed(case);
            let len = match case % 4 {
                0 => rng.below(16),
                1 => rng.below(1_600),
                _ => rng.below(9_000),
            } as usize;
            let fill = rng.below(4);
            let data: Vec<u8> = (0..len)
                .map(|_| match fill {
                    0 => 0xFF,
                    1 => 0,
                    _ => rng.below(256) as u8,
                })
                .collect();
            let seed = match rng.below(3) {
                0 => 0,
                1 => u32::MAX - rng.below(0x1_0000) as u32,
                _ => rng.below(1 << 32) as u32,
            };
            let mut cuts: Vec<usize> = (0..rng.below(5))
                .map(|_| rng.below(len as u64 + 1) as usize)
                .collect();
            cuts.sort_unstable();
            let mut c = Checksum::with_partial(seed);
            let mut chunks = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                c.add(&data[from..cut]);
                chunks.push(&data[from..cut]);
                from = cut;
            }
            assert_eq!(
                c.finish(),
                word_by_word(seed, &chunks),
                "case {case}: {len} bytes, seed {seed:#x}"
            );
        }
    }

    #[test]
    fn incremental_update_matches_recompute() {
        let mut data = vec![0u8; 20];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 31) as u8;
        }
        let old_field = u16::from_be_bytes([data[4], data[5]]);
        let old_check = checksum(&data);
        let new_field: u16 = 0xBEEF;
        data[4..6].copy_from_slice(&new_field.to_be_bytes());
        let recomputed = checksum(&data);
        assert_eq!(
            incremental_update(old_check, old_field, new_field),
            recomputed
        );
    }
}
