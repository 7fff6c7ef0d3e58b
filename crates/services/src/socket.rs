//! AmpIP — the datagram socket facade (slide 12).
//!
//! The paper's stack runs the host IP stack over the "Amp IP Driver";
//! applications see ordinary sockets while datagrams ride DMA
//! MicroPackets. This module gives that shape: port-addressed
//! datagram endpoints multiplexed over one [`crate::msg`] channel.
//!
//! Wire format inside the message payload:
//! `[dst_port: u16][src_port: u16][data...]`.

use crate::msg::{Datagram, MsgRx, MsgTx};
use ampnet_packet::MicroPacket;
use std::collections::{BTreeMap, VecDeque};

/// The message stream AmpIP rides on.
pub const AMPIP_STREAM: u8 = 4;

/// A (node, port) endpoint address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockAddr {
    /// Node id.
    pub node: u8,
    /// Port number.
    pub port: u16,
}

/// A received datagram with its source address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Received {
    /// Sender address.
    pub from: SockAddr,
    /// Payload.
    pub data: Vec<u8>,
}

/// Errors from the socket layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketError {
    /// The port is already bound.
    PortInUse(u16),
    /// Sending from an unbound port.
    NotBound(u16),
    /// No endpoint: the cluster was not built with this node.
    UnknownNode(u8),
}

impl std::fmt::Display for SocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketError::PortInUse(p) => write!(f, "port {p} already bound"),
            SocketError::NotBound(p) => write!(f, "port {p} not bound"),
            SocketError::UnknownNode(n) => write!(f, "no node {n}"),
        }
    }
}

impl std::error::Error for SocketError {}

/// Per-node AmpIP endpoint: binds ports, sends and receives datagrams.
#[derive(Debug)]
pub struct AmpIp {
    node: u8,
    tx: MsgTx,
    rx: MsgRx,
    /// Port-ordered (deterministic iteration) bound-port queues.
    bound: BTreeMap<u16, VecDeque<Received>>,
    /// Datagrams to unbound ports (counted, then discarded — UDP
    /// semantics).
    dropped_unbound: u64,
}

impl AmpIp {
    /// An endpoint for `node`.
    pub fn new(node: u8) -> Self {
        AmpIp {
            node,
            tx: MsgTx::new(node),
            rx: MsgRx::new(),
            bound: BTreeMap::new(),
            dropped_unbound: 0,
        }
    }

    /// Bind a port for receiving.
    pub fn bind(&mut self, port: u16) -> Result<(), SocketError> {
        if self.bound.contains_key(&port) {
            return Err(SocketError::PortInUse(port));
        }
        self.bound.insert(port, VecDeque::new());
        Ok(())
    }

    /// Release a port (queued datagrams are discarded).
    pub fn close(&mut self, port: u16) {
        self.bound.remove(&port);
    }

    /// Datagrams that arrived for unbound ports.
    pub fn dropped_unbound(&self) -> u64 {
        self.dropped_unbound
    }

    /// Build the MicroPackets that carry `data` from `src_port` to
    /// `dst`. The caller puts them on the ring (or hands them to the
    /// cluster's `send_message` path).
    pub fn send_to(
        &mut self,
        src_port: u16,
        dst: SockAddr,
        data: &[u8],
    ) -> Result<Vec<MicroPacket>, SocketError> {
        if !self.bound.contains_key(&src_port) {
            return Err(SocketError::NotBound(src_port));
        }
        let mut wire = Vec::with_capacity(4 + data.len());
        wire.extend_from_slice(&dst.port.to_be_bytes());
        wire.extend_from_slice(&src_port.to_be_bytes());
        wire.extend_from_slice(data);
        Ok(self.tx.send(dst.node, AMPIP_STREAM, &wire))
    }

    /// Feed a MicroPacket from the ring; routes completed datagrams to
    /// their bound port queues.
    pub fn on_packet(&mut self, pkt: &MicroPacket) {
        let Some(d) = self.rx.on_packet(pkt) else {
            return;
        };
        self.on_datagram(d);
    }

    /// Feed an already-reassembled datagram (for integration with a
    /// transport that reassembles centrally, like the cluster).
    pub fn on_datagram(&mut self, d: Datagram) {
        if d.stream != AMPIP_STREAM || d.payload.len() < 4 {
            return;
        }
        let dst_port = u16::from_be_bytes([d.payload[0], d.payload[1]]);
        let src_port = u16::from_be_bytes([d.payload[2], d.payload[3]]);
        match self.bound.get_mut(&dst_port) {
            Some(q) => q.push_back(Received {
                from: SockAddr {
                    node: d.src,
                    port: src_port,
                },
                data: d.payload[4..].to_vec(),
            }),
            None => self.dropped_unbound += 1,
        }
    }

    /// Receive the next datagram on a bound port.
    pub fn recv_from(&mut self, port: u16) -> Option<Received> {
        self.bound.get_mut(&port)?.pop_front()
    }

    /// The node this endpoint belongs to.
    pub fn node(&self) -> u8 {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pump(pkts: &[MicroPacket], to: &mut AmpIp) {
        for p in pkts {
            to.on_packet(p);
        }
    }

    #[test]
    fn bind_send_recv() {
        let mut a = AmpIp::new(1);
        let mut b = AmpIp::new(2);
        a.bind(5000).unwrap();
        b.bind(80).unwrap();
        let pkts = a
            .send_to(5000, SockAddr { node: 2, port: 80 }, b"GET /roster")
            .unwrap();
        pump(&pkts, &mut b);
        let r = b.recv_from(80).expect("delivered");
        assert_eq!(r.data, b"GET /roster");
        assert_eq!(r.from, SockAddr { node: 1, port: 5000 });
        assert!(b.recv_from(80).is_none());
    }

    #[test]
    fn reply_path() {
        let mut a = AmpIp::new(1);
        let mut b = AmpIp::new(2);
        a.bind(5000).unwrap();
        b.bind(80).unwrap();
        let pkts = a.send_to(5000, SockAddr { node: 2, port: 80 }, b"ping").unwrap();
        pump(&pkts, &mut b);
        let req = b.recv_from(80).unwrap();
        let pkts = b.send_to(80, req.from, b"pong").unwrap();
        pump(&pkts, &mut a);
        assert_eq!(a.recv_from(5000).unwrap().data, b"pong");
    }

    #[test]
    fn unbound_port_counts_drop() {
        let mut a = AmpIp::new(1);
        let mut b = AmpIp::new(2);
        a.bind(1).unwrap();
        let pkts = a.send_to(1, SockAddr { node: 2, port: 9 }, b"x").unwrap();
        pump(&pkts, &mut b);
        assert_eq!(b.dropped_unbound(), 1);
    }

    #[test]
    fn double_bind_rejected_and_close_frees() {
        let mut a = AmpIp::new(1);
        a.bind(7).unwrap();
        assert_eq!(a.bind(7), Err(SocketError::PortInUse(7)));
        a.close(7);
        a.bind(7).unwrap();
    }

    #[test]
    fn send_from_unbound_rejected() {
        let mut a = AmpIp::new(1);
        assert_eq!(
            a.send_to(9, SockAddr { node: 2, port: 1 }, b"x").unwrap_err(),
            SocketError::NotBound(9)
        );
    }

    #[test]
    fn large_datagrams_fragment_transparently() {
        let mut a = AmpIp::new(1);
        let mut b = AmpIp::new(2);
        a.bind(1).unwrap();
        b.bind(2).unwrap();
        let big: Vec<u8> = (0..3000u32).map(|i| (i % 255) as u8).collect();
        let pkts = a.send_to(1, SockAddr { node: 2, port: 2 }, &big).unwrap();
        assert!(pkts.len() > 40, "fragments expected");
        pump(&pkts, &mut b);
        assert_eq!(b.recv_from(2).unwrap().data, big);
    }

    #[test]
    fn ports_are_independent_queues() {
        let mut a = AmpIp::new(1);
        let mut b = AmpIp::new(2);
        a.bind(1).unwrap();
        b.bind(10).unwrap();
        b.bind(20).unwrap();
        let p1 = a.send_to(1, SockAddr { node: 2, port: 10 }, b"ten").unwrap();
        let p2 = a.send_to(1, SockAddr { node: 2, port: 20 }, b"twenty").unwrap();
        pump(&p1, &mut b);
        pump(&p2, &mut b);
        assert_eq!(b.recv_from(20).unwrap().data, b"twenty");
        assert_eq!(b.recv_from(10).unwrap().data, b"ten");
    }
}
