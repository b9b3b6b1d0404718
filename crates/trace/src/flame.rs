//! Folded-stack flamegraph export.
//!
//! Emits the classic `flamegraph.pl` / speedscope "folded" format: one
//! line per attribution triple, `layer;domain;handler <ns>`, summed over
//! every non-orphan packet. Feed the output straight to
//! `flamegraph.pl --countname=ns` or paste it into
//! <https://www.speedscope.app>.

use crate::json::{exact, put};
use crate::profile::Profile;

/// Renders the profile as folded stacks: the per-triple totals
/// [`Profile::aggregate`] reports too, from the same walk, sorted by the
/// triples' names so the output is byte-deterministic.
pub fn folded(p: &Profile) -> String {
    let mut rows = p.triple_sums();
    rows.sort_unstable_by(|a, b| p.by_name(&a.at, &b.at));
    exact(|out| {
        for row in &rows {
            let [layer, domain, handler] = p.triple_names(&row.at);
            put!(out, "{layer};{domain};{handler} {}\n", row.total_ns);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn folded_lines_sum_slices_and_sort_deterministically() {
        let rec = Recorder::new(64);
        let ev = rec.intern("Udp.PacketRecv");
        let dom = rec.intern("udp");
        for i in 0..2u64 {
            rec.packet_arrival(i * 1_000, rec.intern("Ethernet"), rec.intern(""), 60, None);
            let s = rec.handler_enter(i * 1_000 + 100, ev, dom);
            rec.handler_exit(i * 1_000 + 400, ev, dom, s);
            rec.packet_done();
        }
        let p = Profile::build(&rec);
        let out = folded(&p);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            vec!["udp;kernel;dispatch 200", "udp;udp;Udp.PacketRecv 600"],
        );
        // Folded total equals total attributed time.
        let folded_total: u64 = lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        let attributed: u64 = p.packets.iter().map(|pkt| p.attributed_ns(pkt)).sum();
        assert_eq!(folded_total, attributed);
        assert_eq!(folded(&Profile::build(&rec)), out, "deterministic");
    }
}
