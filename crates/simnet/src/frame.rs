//! Frames exchanged between simulated nodes.

use bytes::Bytes;
use core::fmt;

/// Identifier of a node in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Returns the raw index of the node.
    pub const fn index(self) -> usize {
        self.0
    }

    /// Creates a node id from a raw index.
    ///
    /// Intended for tests and deterministic topology construction; sending to
    /// an id that was not returned by [`crate::network::NetworkBuilder`] is an
    /// error at send time.
    pub const fn from_index(ix: usize) -> Self {
        NodeId(ix)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A frame travelling over a simulated link.
///
/// `payload` carries the serialized protocol bytes; `wire_bytes` is the size
/// used for serialization-delay and goodput accounting and includes physical
/// framing overhead that is never materialized as payload bytes (preamble,
/// inter-packet gap, CRC, ...). `wire_bytes` must be at least
/// `payload.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    payload: Bytes,
    wire_bytes: usize,
}

impl Frame {
    /// Creates a frame whose wire size equals its payload size.
    pub fn new(payload: Bytes) -> Self {
        let wire_bytes = payload.len();
        Frame {
            payload,
            wire_bytes,
        }
    }

    /// Creates a frame with explicit on-the-wire size.
    ///
    /// # Panics
    ///
    /// Panics if `wire_bytes < payload.len()`.
    pub fn with_wire_bytes(payload: Bytes, wire_bytes: usize) -> Self {
        assert!(
            wire_bytes >= payload.len(),
            "wire size {} smaller than payload {}",
            wire_bytes,
            payload.len()
        );
        Frame {
            payload,
            wire_bytes,
        }
    }

    /// The protocol payload bytes.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Consumes the frame and returns the payload.
    pub fn into_payload(self) -> Bytes {
        self.payload
    }

    /// The frame size on the wire, in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.wire_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_defaults_wire_to_payload_len() {
        let f = Frame::new(Bytes::from_static(b"hello"));
        assert_eq!(f.wire_bytes(), 5);
        assert_eq!(f.payload().as_ref(), b"hello");
    }

    #[test]
    fn frame_with_overhead() {
        let f = Frame::with_wire_bytes(Bytes::from_static(b"hi"), 80);
        assert_eq!(f.wire_bytes(), 80);
        assert_eq!(f.into_payload().as_ref(), b"hi");
    }

    #[test]
    #[should_panic(expected = "wire size")]
    fn frame_rejects_undersized_wire() {
        let _ = Frame::with_wire_bytes(Bytes::from_static(b"hello"), 3);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::from_index(3).to_string(), "n3");
        assert_eq!(NodeId::from_index(3).index(), 3);
    }
}
