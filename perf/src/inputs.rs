//! Seeded inputs. Everything the program under test sees — destination order,
//! miss positions, churn ports, payload bytes — is generated here from
//! `--seed`, before any clock starts; the stacks receive only these frames
//! and calls.

use std::net::Ipv4Addr;

use plexus_net::ether::MacAddr;
use plexus_net::ip::{encapsulate as ip_encapsulate, proto, IpHeader};
use plexus_net::mbuf::Mbuf;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

pub const GEN: u8 = 1;
pub const DUT: u8 = 2;
/// Source port of every offered datagram (and destination of every echo).
pub const GEN_PORT: u16 = 2000;
/// First port of the echo endpoints that take traffic.
pub const ECHO_BASE: u16 = 10_000;
/// First port of the churn pool's initial endpoints.
pub const POOL_BASE: u16 = 11_000;
/// Misses go to ports from here up; nothing ever binds them.
pub const UNBOUND_BASE: u16 = 60_000;
/// UDP payload bytes: 74-byte frames, the smallest the overload suite uses.
pub const PAYLOAD: usize = 32;
/// One in this many datagrams of a workload with misses leaves the fast path.
pub const MISS_EVERY: usize = 16;
/// Offset of the IP header / UDP payload inside a frame.
pub const IP_OFF: usize = 14;
pub const PAYLOAD_OFF: usize = 14 + 20 + 8;

pub fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 9, last)
}

/// The last 8 payload bytes: a mix of the first 24, so the sink can check
/// every echoed payload on its own, whatever order replies arrive in.
pub fn payload_check(body: &[u8]) -> [u8; 8] {
    let word = |i: usize| u64::from_be_bytes(body[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    (word(0) ^ word(1).rotate_left(21) ^ word(2).rotate_left(42))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .to_be_bytes()
}

/// A complete wire frame generator → DUT: Ethernet + IPv4 + UDP (checksum
/// disabled, as the overload suite's generator sends) + `payload`.
fn udp_frame(dst_port: u16, ident: u16, payload: &[u8]) -> Vec<u8> {
    let mut m = Mbuf::from_payload(64, payload);
    let udp_len = (8 + payload.len()) as u16;
    let hdr = m.prepend(8);
    hdr[0..2].copy_from_slice(&GEN_PORT.to_be_bytes());
    hdr[2..4].copy_from_slice(&dst_port.to_be_bytes());
    hdr[4..6].copy_from_slice(&udp_len.to_be_bytes());
    hdr[6..8].copy_from_slice(&0u16.to_be_bytes());
    let mut frame = ip_encapsulate(&IpHeader::simple(ip(GEN), ip(DUT), proto::UDP, ident), m);
    let eth = frame.prepend(14);
    eth[0..6].copy_from_slice(&MacAddr::local(DUT).0);
    eth[6..12].copy_from_slice(&MacAddr::local(GEN).0);
    eth[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    frame.to_vec()
}

/// The datagrams one UDP round offers, in order.
pub struct UdpInput {
    pub frames: Vec<Vec<u8>>,
    /// How many of them go to an unbound port.
    pub misses: u64,
}

/// `count` datagrams spread uniformly over `endpoints` echo ports from
/// [`ECHO_BASE`]. With `with_misses`, exactly one seeded position in every
/// block of [`MISS_EVERY`] goes to an unbound port instead, so the miss count
/// (and with it the allocation count) is the same for every seed.
pub fn udp_input(seed: u64, count: usize, endpoints: usize, with_misses: bool) -> UdpInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut frames = Vec::with_capacity(count);
    let mut misses = 0;
    let mut miss_at = 0;
    for k in 0..count {
        if k % MISS_EVERY == 0 {
            // A short last block still holds its one miss.
            miss_at = k + rng.gen_range(0..MISS_EVERY.min(count - k));
        }
        let port = if with_misses && k == miss_at {
            misses += 1;
            UNBOUND_BASE + rng.gen_range(0..256) as u16
        } else {
            ECHO_BASE + rng.gen_range(0..endpoints) as u16
        };
        let mut payload = [0u8; PAYLOAD];
        for chunk in payload[..PAYLOAD - 8].chunks_exact_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_be_bytes());
        }
        let check = payload_check(&payload);
        payload[PAYLOAD - 8..].copy_from_slice(&check);
        frames.push(udp_frame(port, k as u16, &payload));
    }
    UdpInput { frames, misses }
}

/// `count` distinct ports for the churn workload's fresh binds: seeded gaps
/// of 1..=32 upward from 12000, so none repeats or collides with a base.
pub fn churn_ports(seed: u64, count: usize) -> Vec<u16> {
    assert!(
        count <= 1400,
        "churn ports would run past the unbound range"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4_17_12);
    let mut port = 12_000u16;
    (0..count)
        .map(|_| {
            port += 1 + rng.gen_range(0..32) as u16;
            port
        })
        .collect()
}

/// The byte stream the TCP workload transfers.
pub fn tcp_stream(seed: u64, bytes: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7C_90_B1);
    let mut out = Vec::with_capacity(bytes + 8);
    while out.len() < bytes {
        out.extend_from_slice(&rng.next_u64().to_be_bytes());
    }
    out.truncate(bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dst_ports(input: &UdpInput) -> Vec<u16> {
        input
            .frames
            .iter()
            .map(|f| u16::from_be_bytes([f[IP_OFF + 22], f[IP_OFF + 23]]))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_frames() {
        let (a, b) = (udp_input(7, 320, 256, true), udp_input(7, 320, 256, true));
        assert_eq!(a.frames, b.frames);
        assert_eq!(churn_ports(7, 100), churn_ports(7, 100));
        assert_eq!(tcp_stream(7, 10_001), tcp_stream(7, 10_001));
    }

    #[test]
    fn another_seed_gives_another_destination_order() {
        let (a, b) = (udp_input(7, 320, 256, true), udp_input(8, 320, 256, true));
        assert_ne!(dst_ports(&a), dst_ports(&b));
        assert_ne!(churn_ports(7, 100), churn_ports(8, 100));
        assert_ne!(tcp_stream(7, 64), tcp_stream(8, 64));
    }

    #[test]
    fn misses_are_one_per_block_whatever_the_seed() {
        for seed in [1, 2, 99] {
            let input = udp_input(seed, 320, 256, true);
            assert_eq!(input.misses, 20);
            assert_eq!(udp_input(seed, 120, 256, true).misses, 8);
            let ports = dst_ports(&input);
            for block in ports.chunks(MISS_EVERY) {
                assert_eq!(block.iter().filter(|p| **p >= UNBOUND_BASE).count(), 1);
            }
            assert!(ports
                .iter()
                .all(|p| *p >= UNBOUND_BASE || (ECHO_BASE..ECHO_BASE + 256).contains(p)));
        }
        assert_eq!(udp_input(1, 320, 1, false).misses, 0);
    }

    #[test]
    fn frames_are_the_smallest_the_overload_suite_uses() {
        let input = udp_input(1, 4, 1, false);
        for f in &input.frames {
            assert_eq!(f.len(), 74);
            let body = &f[PAYLOAD_OFF..];
            assert_eq!(body[PAYLOAD - 8..], payload_check(body));
        }
    }

    #[test]
    fn churn_ports_are_distinct_and_clear_of_the_bases() {
        let ports = churn_ports(3, 1250);
        let mut sorted = ports.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 1250, "strictly increasing, so no repeats");
        assert!(ports.iter().all(|p| (12_001..UNBOUND_BASE).contains(p)));
    }
}
