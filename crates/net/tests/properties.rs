//! Property tests for `plexus-net`: arbitrary sequences of mbuf operations
//! over a set of live packets, each checked against a `Vec<u8>` model.
//!
//! * after every step every live packet's bytes equal its model — so a
//!   write through one sharer of a cluster never shows through another, and
//!   a chain built in a recycled vector never carries a previous tenant's
//!   segment;
//! * the pool's books balance: `allocated + reused` is exactly the number of
//!   clusters the operations were handed.

use plexus_net::mbuf::{cluster_pool_stats, reset_cluster_pool, Mbuf, LEADING_SPACE};
use proptest::prelude::*;

/// One step. An [`Index`] picks a live packet, an offset or a length from
/// whatever range is in bounds when the step runs.
#[derive(Clone, Debug)]
enum Op {
    New(usize, Vec<u8>),
    Prepend(Index, Vec<u8>),
    TrimFront(Index, Index),
    TrimBack(Index, Index),
    Pullup(Index, Index),
    Append(Index, Index),
    Range(Index, Index, Index),
    Share(Index),
    WriteAt(Index, Index, Vec<u8>),
    Drop(Index),
}

fn op() -> impl Strategy<Value = Op> {
    let idx = any::<Index>;
    let bytes = |max: usize| prop::collection::vec(any::<u8>(), 0..max);
    prop_oneof![
        (select(vec![0, 16, LEADING_SPACE, 200]), bytes(5000)).prop_map(|(l, d)| Op::New(l, d)),
        (idx(), bytes(150)).prop_map(|(m, d)| Op::Prepend(m, d)),
        (idx(), idx()).prop_map(|(m, n)| Op::TrimFront(m, n)),
        (idx(), idx()).prop_map(|(m, n)| Op::TrimBack(m, n)),
        (idx(), idx()).prop_map(|(m, n)| Op::Pullup(m, n)),
        (idx(), idx()).prop_map(|(a, b)| Op::Append(a, b)),
        (idx(), idx(), idx()).prop_map(|(m, o, n)| Op::Range(m, o, n)),
        idx().prop_map(Op::Share),
        (idx(), idx(), bytes(64)).prop_map(|(m, o, d)| Op::WriteAt(m, o, d)),
        idx().prop_map(Op::Drop),
    ]
}

/// The live packets, each beside the bytes it must hold.
type Live = Vec<(Mbuf, Vec<u8>)>;

/// Most packets kept live at once; the oldest goes when one more arrives.
const MAX_LIVE: usize = 12;

/// Applies `op` to the packets and their models. Returns the clusters the
/// operation was handed, read off what it did to the chain.
fn apply(live: &mut Live, op: Op) -> u64 {
    if live.is_empty() && !matches!(op, Op::New(..)) {
        return 0;
    }
    let n_live = live.len();
    let pick = |i: Index| i.index(n_live);
    match op {
        Op::New(leading, data) => {
            let m = Mbuf::from_payload(leading, &data);
            let handed = m.segment_count() as u64;
            live.push((m, data));
            return handed;
        }
        Op::Prepend(m, data) => {
            let (mbuf, model) = &mut live[pick(m)];
            let before = mbuf.segment_count();
            mbuf.prepend(data.len()).copy_from_slice(&data);
            model.splice(0..0, data);
            return (mbuf.segment_count() - before) as u64;
        }
        Op::TrimFront(m, n) => {
            let (mbuf, model) = &mut live[pick(m)];
            let n = n.index(model.len() + 1);
            mbuf.trim_front(n);
            model.drain(..n);
        }
        Op::TrimBack(m, n) => {
            let (mbuf, model) = &mut live[pick(m)];
            let n = n.index(model.len() + 1);
            mbuf.trim_back(n);
            model.truncate(model.len() - n);
        }
        Op::Pullup(m, n) => {
            let (mbuf, model) = &mut live[pick(m)];
            let n = n.index(model.len() + 8);
            let gathers = n <= model.len() && mbuf.head().len() < n;
            assert_eq!(mbuf.pullup(n), n <= model.len());
            assert!(n > model.len() || mbuf.head().len() >= n);
            return u64::from(gathers);
        }
        Op::Append(a, b) => {
            let (a, b) = (pick(a), pick(b));
            if a != b {
                let (tail, tail_model) = live.remove(b);
                let (mbuf, model) = &mut live[a - usize::from(b < a)];
                mbuf.append(tail);
                model.extend(tail_model);
            }
        }
        Op::Range(m, off, len) => {
            let (mbuf, model) = &live[pick(m)];
            let off = off.index(model.len() + 1);
            let len = len.index(model.len() - off + 1);
            let part = (mbuf.range(off, len), model[off..off + len].to_vec());
            live.push(part);
        }
        Op::Share(m) => {
            let (mbuf, model) = &live[pick(m)];
            let shared = (mbuf.share(), model.clone());
            live.push(shared);
        }
        Op::WriteAt(m, off, data) => {
            let (mbuf, model) = &mut live[pick(m)];
            let off = off.index(model.len() + 1);
            let fits = off + data.len() <= model.len();
            assert_eq!(mbuf.write_at(off, &data), fits);
            if fits {
                model[off..off + data.len()].copy_from_slice(&data);
            }
        }
        Op::Drop(m) => {
            live.remove(pick(m));
        }
    }
    0
}

proptest! {
    #[test]
    fn mbufs_hold_their_models_bytes_and_the_pool_conserves(
        ops in prop::collection::vec(op(), 1..80),
    ) {
        reset_cluster_pool();
        let mut live = Live::new();
        let mut handed = 0;
        for op in ops {
            handed += apply(&mut live, op);
            if live.len() > MAX_LIVE {
                live.remove(0);
            }
            for (mbuf, model) in &live {
                prop_assert_eq!(mbuf.total_len(), model.len());
                prop_assert_eq!(&mbuf.to_vec(), model);
            }
            let stats = cluster_pool_stats();
            prop_assert_eq!(stats.allocated + stats.reused, handed);
        }
    }
}
