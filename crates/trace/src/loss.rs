//! The loss vocabulary: every reason a packet is lost, in one enum.
//!
//! A loss site names one [`Loss`]; the simulated CPU or NIC it happens on
//! counts it in a fixed table, always, and hands it to the installed
//! recorder, if any, as one [`crate::TraceEvent::Drop`] under
//! [`Loss::layer`] and [`Loss::name`]. The names are the strings the
//! traces have always carried, so a trace is the same bytes whichever way
//! the drop was named.

/// Why a packet was lost. One variant per reason; [`Loss::name`] is the
/// reason a drop record carries, and its layer is the protocol's (`ether`,
/// `ip`, `arp`, `udp`, `tcp`, or a benchmark's `sink`), or the NIC's own
/// name for an adapter's loss. `UdpNoSocket` and `ForeignMac` are counted
/// but not yet recorded: recording them would move committed golden
/// traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Loss {
    /// A frame for another MAC, refused by Plexus's receive filter.
    MacFilter,
    /// A frame for another MAC, refused by the DIGITAL UNIX stack's or
    /// the router's receive check: [`Loss::MacFilter`] on the other
    /// structures.
    ForeignMac,
    /// A frame for this host whose ethertype nothing here takes.
    UnknownEthertype,
    /// An IP header that does not verify: checksum, version or lengths.
    IpBadHeader,
    /// A valid datagram addressed to another host.
    NotLocal,
    /// A fragment group evicted to keep reassembly within its bounds.
    IpReassemblyFull,
    /// A fragment group that did not complete within reassembly's timeout.
    IpReassemblyTimeout,
    /// A datagram for this host that no transport here takes.
    UnknownProtocol,
    /// A datagram with no route to its destination.
    NoRoute,
    /// A datagram to forward whose TTL ran out (Time Exceeded sent).
    TtlExpired,
    /// A datagram refused because the ARP parked queue was full.
    ArpQueueFull,
    /// A datagram parked on a resolution abandoned after its re-asks.
    ResolutionFailed,
    /// A datagram parked on a resolution that expired unanswered.
    ArpExpired,
    /// A UDP datagram that does not parse or verify.
    UdpBadDatagram,
    /// A UDP datagram for a port no socket or endpoint is bound to.
    UdpNoSocket,
    /// A TCP segment that does not parse or verify.
    TcpBadSegment,
    /// A TCP segment no connection takes: for a port nobody listens on, or
    /// a listener's port but not an opening SYN.
    TcpNoConnection,
    /// A TCP segment outside the receive window.
    TcpOutOfWindow,
    /// A connection's queued data, given up after its retransmit limit.
    TcpRetransmitLimit,
    /// A frame longer than the adapter's MTU, refused at transmit.
    TxOversize,
    /// A frame refused because the transmit ring was full.
    TxRingFull,
    /// A frame eaten by the medium's fault injector.
    FaultInjected,
    /// A frame that arrived at an adapter with no receive handler.
    RxNoHandler,
    /// A frame shed because the receive ring was full.
    RxRingDrop,
    /// A frame a benchmark sink heard for another host.
    NotForMe,
}

impl Loss {
    /// How many reasons there are: the size of a loss table.
    pub const COUNT: usize = Loss::ALL.len();

    /// Every reason, in declaration order (`ALL[l as usize] == l`).
    pub const ALL: [Loss; 25] = [
        Loss::MacFilter,
        Loss::ForeignMac,
        Loss::UnknownEthertype,
        Loss::IpBadHeader,
        Loss::NotLocal,
        Loss::IpReassemblyFull,
        Loss::IpReassemblyTimeout,
        Loss::UnknownProtocol,
        Loss::NoRoute,
        Loss::TtlExpired,
        Loss::ArpQueueFull,
        Loss::ResolutionFailed,
        Loss::ArpExpired,
        Loss::UdpBadDatagram,
        Loss::UdpNoSocket,
        Loss::TcpBadSegment,
        Loss::TcpNoConnection,
        Loss::TcpOutOfWindow,
        Loss::TcpRetransmitLimit,
        Loss::TxOversize,
        Loss::TxRingFull,
        Loss::FaultInjected,
        Loss::RxNoHandler,
        Loss::RxRingDrop,
        Loss::NotForMe,
    ];

    /// The reason a drop record carries.
    pub const fn name(self) -> &'static str {
        match self {
            Loss::MacFilter => "mac_filter",
            Loss::ForeignMac => "foreign_mac",
            Loss::UnknownEthertype => "unknown_ethertype",
            Loss::IpBadHeader => "ip_bad_header",
            Loss::NotLocal => "not_local",
            Loss::IpReassemblyFull => "ip_reassembly_full",
            Loss::IpReassemblyTimeout => "ip_reassembly_timeout",
            Loss::UnknownProtocol => "unknown_protocol",
            Loss::NoRoute => "no_route",
            Loss::TtlExpired => "ttl_expired",
            Loss::ArpQueueFull => "arp_queue_full",
            Loss::ResolutionFailed => "resolution_failed",
            Loss::ArpExpired => "arp_expired",
            Loss::UdpBadDatagram => "udp_bad_datagram",
            Loss::UdpNoSocket => "udp_no_socket",
            Loss::TcpBadSegment => "tcp_bad_segment",
            Loss::TcpNoConnection => "tcp_no_connection",
            Loss::TcpOutOfWindow => "tcp_out_of_window",
            Loss::TcpRetransmitLimit => "tcp_retransmit_limit",
            Loss::TxOversize => "tx_oversize",
            Loss::TxRingFull => "tx_ring_full",
            Loss::FaultInjected => "fault_injected",
            Loss::RxNoHandler => "rx_no_handler",
            Loss::RxRingDrop => "rx_ring_drop",
            Loss::NotForMe => "not_for_me",
        }
    }

    /// The layer a drop record carries; `None` for an adapter's loss,
    /// which is recorded under the NIC's own profile name.
    pub(crate) const fn layer(self) -> Option<&'static str> {
        match self {
            Loss::MacFilter | Loss::ForeignMac | Loss::UnknownEthertype => Some("ether"),
            Loss::IpBadHeader
            | Loss::NotLocal
            | Loss::IpReassemblyFull
            | Loss::IpReassemblyTimeout
            | Loss::UnknownProtocol
            | Loss::NoRoute
            | Loss::TtlExpired => Some("ip"),
            Loss::ArpQueueFull | Loss::ResolutionFailed | Loss::ArpExpired => Some("arp"),
            Loss::UdpBadDatagram | Loss::UdpNoSocket => Some("udp"),
            Loss::TcpBadSegment
            | Loss::TcpNoConnection
            | Loss::TcpOutOfWindow
            | Loss::TcpRetransmitLimit => Some("tcp"),
            Loss::TxOversize
            | Loss::TxRingFull
            | Loss::FaultInjected
            | Loss::RxNoHandler
            | Loss::RxRingDrop => None,
            Loss::NotForMe => Some("sink"),
        }
    }

    /// Whether a recorder is told of this loss. The count-only reasons
    /// are counted in every run but not yet recorded, because recording
    /// them would add drop records to committed golden traces; they wait
    /// for the declared golden move that also evens out the stacks' other
    /// asymmetries.
    pub(crate) const fn recorded(self) -> bool {
        !matches!(self, Loss::UdpNoSocket | Loss::ForeignMac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reason_sits_at_its_own_index_with_its_own_name() {
        for (i, loss) in Loss::ALL.into_iter().enumerate() {
            assert_eq!(loss as usize, i, "{loss:?}");
        }
        let mut names: Vec<_> = Loss::ALL.map(Loss::name).to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Loss::COUNT, "no two reasons share a name");
    }
}
