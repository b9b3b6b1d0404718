//! The outcome vocabulary: every reason a packet is lost, and everything
//! else that becomes of one, each in one enum.
//!
//! A loss site names one [`Loss`]; the simulated CPU or NIC it happens on
//! counts it in a fixed table, always, and hands it to the installed
//! recorder, if any, as one [`crate::TraceEvent::Drop`] under
//! [`Loss::layer`] and [`Loss::name`]. The names are the strings the
//! traces have always carried, so a trace is the same bytes whichever way
//! the drop was named. Every other fate is one [`Outcome`], counted in a
//! second fixed table on the CPU and never recorded. The two
//! `ends_frame` functions say which entries end the walk of a frame the
//! machine heard: each such frame ends in exactly one of them.

/// Declares a vocabulary whose entries are each written once, with their
/// names: the enum, `ALL` in declaration order (`ALL[e as usize] == e`),
/// `COUNT` (the size of a table of them) and `name`.
macro_rules! vocabulary {
    ($(#[$doc:meta])* pub enum $ty:ident { $($(#[$vdoc:meta])* $v:ident = $name:literal,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $ty {
            $($(#[$vdoc])* $v,)*
        }

        impl $ty {
            /// Every entry, in declaration order.
            pub const ALL: [$ty; [$($ty::$v),*].len()] = [$($ty::$v),*];

            /// How many entries there are.
            pub const COUNT: usize = $ty::ALL.len();

            /// The entry's name; a [`Loss`]'s is the reason a drop record
            /// carries.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$v => $name,)*
                }
            }
        }
    };
}

vocabulary! {
    /// Why a packet was lost. One variant per reason; [`Loss::name`] is the
    /// reason a drop record carries, and its layer is the protocol's (`ether`,
    /// `ip`, `arp`, `udp`, `tcp`, or a benchmark's `sink`), or the NIC's own
    /// name for an adapter's loss. `UdpNoSocket` and `ForeignMac` are counted
    /// but not yet recorded: recording them would move committed golden
    /// traces.
    pub enum Loss {
        /// A frame for another MAC, refused by Plexus's receive filter.
        MacFilter = "mac_filter",
        /// A frame for another MAC, refused by the DIGITAL UNIX stack's or
        /// the router's receive check: [`Loss::MacFilter`] on the other
        /// structures.
        ForeignMac = "foreign_mac",
        /// A frame for this host whose ethertype nothing here takes.
        UnknownEthertype = "unknown_ethertype",
        /// An IP header that does not verify: checksum, version or lengths.
        IpBadHeader = "ip_bad_header",
        /// A valid datagram addressed to another host.
        NotLocal = "not_local",
        /// A fragment group evicted to keep reassembly within its bounds.
        IpReassemblyFull = "ip_reassembly_full",
        /// A fragment group that did not complete within reassembly's timeout.
        IpReassemblyTimeout = "ip_reassembly_timeout",
        /// A datagram for this host that no transport here takes.
        UnknownProtocol = "unknown_protocol",
        /// A datagram to forward with no route to its destination.
        NoRoute = "no_route",
        /// A datagram to send with no route to its destination.
        NoRouteOut = "no_route_out",
        /// A datagram to forward whose TTL ran out (Time Exceeded sent).
        TtlExpired = "ttl_expired",
        /// A datagram refused because the ARP parked queue was full.
        ArpQueueFull = "arp_queue_full",
        /// A datagram parked on a resolution abandoned after its re-asks.
        ResolutionFailed = "resolution_failed",
        /// A datagram parked on a resolution that expired unanswered.
        ArpExpired = "arp_expired",
        /// An ARP packet that does not parse.
        ArpBadPacket = "arp_bad_packet",
        /// An ICMP message for this host that does not parse or verify.
        IcmpBadMessage = "icmp_bad_message",
        /// A UDP datagram that does not parse or verify.
        UdpBadDatagram = "udp_bad_datagram",
        /// A UDP datagram for a port no socket or endpoint is bound to.
        UdpNoSocket = "udp_no_socket",
        /// A TCP segment that does not parse or verify.
        TcpBadSegment = "tcp_bad_segment",
        /// A TCP segment no connection takes: for a port nobody listens on, or
        /// a listener's port but not an opening SYN.
        TcpNoConnection = "tcp_no_connection",
        /// A TCP segment outside the receive window.
        TcpOutOfWindow = "tcp_out_of_window",
        /// A connection's queued data, given up after its retransmit limit.
        TcpRetransmitLimit = "tcp_retransmit_limit",
        /// A frame longer than the adapter's MTU, refused at transmit.
        TxOversize = "tx_oversize",
        /// A frame refused because the transmit ring was full.
        TxRingFull = "tx_ring_full",
        /// A frame eaten by the medium's fault injector.
        FaultInjected = "fault_injected",
        /// A frame that arrived at an adapter with no receive handler.
        RxNoHandler = "rx_no_handler",
        /// A frame shed because the receive ring was full.
        RxRingDrop = "rx_ring_drop",
        /// A frame a benchmark sink heard for another host.
        NotForMe = "not_for_me",
    }
}

impl Loss {
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
            | Loss::NoRouteOut
            | Loss::TtlExpired => Some("ip"),
            Loss::ArpQueueFull | Loss::ResolutionFailed | Loss::ArpExpired | Loss::ArpBadPacket => {
                Some("arp")
            }
            Loss::IcmpBadMessage => Some("icmp"),
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

    /// Whether this loss ends the walk of a frame the machine's driver
    /// heard. The others are losses of what the machine sends (its own
    /// datagrams, its answers, what it forwards, after the frame that
    /// caused them has ended), of a fragment group whose fragments each
    /// ended as [`Outcome::Held`], or an adapter's, of frames no driver
    /// heard.
    pub const fn ends_frame(self) -> bool {
        !matches!(
            self,
            Loss::IpReassemblyFull
                | Loss::IpReassemblyTimeout
                | Loss::NoRouteOut
                | Loss::ArpQueueFull
                | Loss::ResolutionFailed
                | Loss::ArpExpired
                | Loss::TcpRetransmitLimit
                | Loss::TxOversize
                | Loss::TxRingFull
                | Loss::FaultInjected
                | Loss::RxNoHandler
                | Loss::RxRingDrop
        )
    }
}

vocabulary! {
    /// What became of a packet that was not lost. The first eight are steps a
    /// frame passes on its way up, or a datagram on its way down; the rest
    /// each end the walk of a frame the machine heard
    /// ([`Outcome::ends_frame`]), counted where that walk ends.
    pub enum Outcome {
        /// A frame the link layer accepted for this host.
        EthIn = "eth_in",
        /// A whole datagram IP input passed up.
        IpIn = "ip_in",
        /// A datagram through IP output.
        IpOut = "ip_out",
        /// A datagram parked on an ARP resolution.
        ArpParked = "arp_parked",
        /// An ARP resolution given up after its re-asks; each datagram it
        /// parked is a [`Loss::ResolutionFailed`].
        ArpAbandoned = "arp_abandoned",
        /// A valid datagram the UDP layer passed up to its ports.
        UdpIn = "udp_in",
        /// A valid segment the TCP layer passed up to its connections and
        /// listeners.
        TcpIn = "tcp_in",
        /// A forwarded datagram split for a smaller egress MTU.
        Refragmented = "refragmented",
        /// Handed to its endpoint: an application's port, socket or raw-frame
        /// handler, a connection that takes the segment, or a benchmark sink.
        Delivered = "delivered",
        /// A fragment reassembly holds until its datagram completes.
        Held = "held",
        /// An ICMP echo request answered.
        Echoed = "echoed",
        /// An ARP request for this host answered.
        ArpReplied = "arp_replied",
        /// A UDP datagram for a port nobody holds, answered with ICMP port
        /// unreachable.
        PortUnreachable = "port_unreachable",
        /// A datagram forwarded, or redirected, to another host.
        Forwarded = "forwarded",
        /// Taken for the kernel's own state with nothing to answer: an ARP
        /// packet that only teaches the cache, an ICMP message other than an
        /// echo request.
        Absorbed = "absorbed",
    }
}

impl Outcome {
    /// Whether this outcome ends the walk of a frame the machine heard.
    pub const fn ends_frame(self) -> bool {
        self as usize >= Outcome::Delivered as usize
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
        for (i, outcome) in Outcome::ALL.into_iter().enumerate() {
            assert_eq!(outcome as usize, i, "{outcome:?}");
        }
    }
}
