//! The event model and its wire format.
//!
//! Scalasca-style traces are self-contained binary streams of timestamped
//! records. The format here is deliberately simple and fixed-width:
//!
//! ```text
//! kind: u8 | time: u64 | kind-specific fields (u32 each)
//! ```
//!
//! Records are self-delimiting (the kind byte determines the length), so a
//! stream can be decoded incrementally — which is what lets the analyzer
//! read a trace through a chunked multifile without any framing layer.

/// Why decoding a record failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended inside a record.
    Truncated,
    /// The kind byte is not a known event kind.
    UnknownKind(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "event stream truncated"),
            DecodeError::UnknownKind(k) => write!(f, "unknown event kind {k}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const KIND_ENTER: u8 = 1;
const KIND_EXIT: u8 = 2;
const KIND_SEND: u8 = 3;
const KIND_RECV: u8 = 4;

/// One trace event. Times are in nanoseconds since measurement start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Entering an instrumented region (function, loop, phase).
    Enter {
        /// Timestamp (ns).
        time: u64,
        /// Region identifier.
        region: u32,
    },
    /// Leaving an instrumented region.
    Exit {
        /// Timestamp (ns).
        time: u64,
        /// Region identifier.
        region: u32,
    },
    /// A message send.
    Send {
        /// Timestamp (ns).
        time: u64,
        /// Destination rank.
        peer: u32,
        /// Message tag.
        tag: u32,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// A message receive (completion time).
    Recv {
        /// Timestamp (ns).
        time: u64,
        /// Source rank.
        peer: u32,
        /// Message tag.
        tag: u32,
        /// Payload size in bytes.
        bytes: u32,
    },
}

impl Event {
    /// The event's timestamp.
    pub fn time(&self) -> u64 {
        match *self {
            Event::Enter { time, .. }
            | Event::Exit { time, .. }
            | Event::Send { time, .. }
            | Event::Recv { time, .. } => time,
        }
    }

    /// Append the wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Event::Enter { time, region } => {
                out.push(KIND_ENTER);
                out.extend_from_slice(&time.to_le_bytes());
                out.extend_from_slice(&region.to_le_bytes());
            }
            Event::Exit { time, region } => {
                out.push(KIND_EXIT);
                out.extend_from_slice(&time.to_le_bytes());
                out.extend_from_slice(&region.to_le_bytes());
            }
            Event::Send {
                time,
                peer,
                tag,
                bytes,
            } => {
                out.push(KIND_SEND);
                out.extend_from_slice(&time.to_le_bytes());
                out.extend_from_slice(&peer.to_le_bytes());
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(&bytes.to_le_bytes());
            }
            Event::Recv {
                time,
                peer,
                tag,
                bytes,
            } => {
                out.push(KIND_RECV);
                out.extend_from_slice(&time.to_le_bytes());
                out.extend_from_slice(&peer.to_le_bytes());
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(&bytes.to_le_bytes());
            }
        }
    }

    /// Encoded length of one record of this kind.
    pub fn encoded_len(&self) -> usize {
        match self {
            Event::Enter { .. } | Event::Exit { .. } => 1 + 8 + 4,
            Event::Send { .. } | Event::Recv { .. } => 1 + 8 + 12,
        }
    }

    /// Decode one record from the front of `bytes`; returns the event and
    /// the number of bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(Event, usize), DecodeError> {
        if bytes.is_empty() {
            return Err(DecodeError::Truncated);
        }
        let kind = bytes[0];
        let need = match kind {
            KIND_ENTER | KIND_EXIT => 13,
            KIND_SEND | KIND_RECV => 21,
            other => return Err(DecodeError::UnknownKind(other)),
        };
        if bytes.len() < need {
            return Err(DecodeError::Truncated);
        }
        let time = u64::from_le_bytes(bytes[1..9].try_into().unwrap());
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
        let ev = match kind {
            KIND_ENTER => Event::Enter {
                time,
                region: u32_at(9),
            },
            KIND_EXIT => Event::Exit {
                time,
                region: u32_at(9),
            },
            KIND_SEND => Event::Send {
                time,
                peer: u32_at(9),
                tag: u32_at(13),
                bytes: u32_at(17),
            },
            _ => Event::Recv {
                time,
                peer: u32_at(9),
                tag: u32_at(13),
                bytes: u32_at(17),
            },
        };
        Ok((ev, need))
    }

    /// Decode a complete stream of records.
    pub fn decode_stream(mut bytes: &[u8]) -> Result<Vec<Event>, DecodeError> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let (ev, used) = Event::decode(bytes)?;
            out.push(ev);
            bytes = &bytes[used..];
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Vec<Event> {
        vec![
            Event::Enter { time: 0, region: 7 },
            Event::Send {
                time: 5,
                peer: 3,
                tag: 9,
                bytes: 4096,
            },
            Event::Recv {
                time: 11,
                peer: 2,
                tag: 1,
                bytes: 128,
            },
            Event::Exit {
                time: 20,
                region: 7,
            },
        ]
    }

    #[test]
    fn stream_roundtrip() {
        let mut buf = Vec::new();
        for ev in sample() {
            ev.encode(&mut buf);
        }
        assert_eq!(Event::decode_stream(&buf).unwrap(), sample());
    }

    #[test]
    fn encoded_len_matches() {
        for ev in sample() {
            let mut buf = Vec::new();
            ev.encode(&mut buf);
            assert_eq!(buf.len(), ev.encoded_len());
        }
    }

    #[test]
    fn truncation_and_bad_kind_detected() {
        let mut buf = Vec::new();
        sample()[0].encode(&mut buf);
        assert_eq!(
            Event::decode(&buf[..5]).unwrap_err(),
            DecodeError::Truncated
        );
        let mut bad = buf.clone();
        bad[0] = 0xEE;
        assert_eq!(
            Event::decode(&bad).unwrap_err(),
            DecodeError::UnknownKind(0xEE)
        );
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_events(
            evs in prop::collection::vec(
                prop_oneof![
                    (any::<u64>(), any::<u32>()).prop_map(|(t, r)| Event::Enter { time: t, region: r }),
                    (any::<u64>(), any::<u32>()).prop_map(|(t, r)| Event::Exit { time: t, region: r }),
                    (any::<u64>(), any::<u32>(), any::<u32>(), any::<u32>())
                        .prop_map(|(t, p, g, b)| Event::Send { time: t, peer: p, tag: g, bytes: b }),
                    (any::<u64>(), any::<u32>(), any::<u32>(), any::<u32>())
                        .prop_map(|(t, p, g, b)| Event::Recv { time: t, peer: p, tag: g, bytes: b }),
                ],
                0..100,
            )
        ) {
            let mut buf = Vec::new();
            for ev in &evs {
                ev.encode(&mut buf);
            }
            prop_assert_eq!(Event::decode_stream(&buf).unwrap(), evs);
        }
    }
}
